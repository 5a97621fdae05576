"""Scalar time series derived from trajectories and reconstructed fields.

Everything here is pure post-processing: the time norm of the dual norm
of dw/dt, the weighted forcing norms whose size plays the role of the
threshold lambda, and finite-difference residuals of the reconstructed
velocity against the projected equation. The energy ledger and the
per-snapshot |dw/dt|_{H^{-1}} are recorded by the solver itself;
dwdt_norm recomputes the latter from the snapshots as a reference.

H^{-1} is realized with the inhomogeneous symbol (1 + |xi|^2)^{-1/2}; the
grid has a zero mode where the homogeneous version is singular, and all
data are mean-zero anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import SolverConfig, Trajectory, nonlinear_rhs
from .spectral import (
    Grid,
    SpectralField,
    TransportPlan,
    fourier_field,
    projected_transport_half,
)
from .tails import NormSpec, _space_time_norms, check_admissible

__all__ = [
    "DwdtReport",
    "dwdt_report",
    "dwdt_norm",
    "CondtgReport",
    "condtg_check",
    "nse_residual",
]


@dataclass(frozen=True)
class DwdtReport:
    times: np.ndarray
    values: np.ndarray
    time_norm: float


def dwdt_report(times: np.ndarray, values: np.ndarray, d: int) -> DwdtReport:
    """The L^{4/d}-in-time norm (trapezoid rule) of per-snapshot
    |dw/dt|_{H^{-1}} values."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    a = 4.0 / d
    time_norm = float(np.trapezoid(values**a, times) ** (1.0 / a))
    return DwdtReport(times=times, values=values, time_norm=time_norm)


def dwdt_norm(trajectory: Trajectory, config: SolverConfig) -> DwdtReport:
    """H^{-1} size of dw/dt per snapshot and its L^{4/d}-in-time norm.

    dw/dt is reassembled from the right-hand side (heat term plus the
    truncated transport terms) at each snapshot. solve records the same
    values as it steps (Trajectory.dwdt_hminus1); this recomputation is
    their reference.
    """
    grid = trajectory.f_omega.grid
    vol = grid.cell_volume
    weight = grid.weight / (1.0 + grid.ksq)
    values = []
    for w, g in zip(trajectory.w_states, trajectory.g_states):
        dwdt = -grid.ksq * w.data + nonlinear_rhs(w, g, config.cutoff).data
        values.append(np.sqrt(vol * np.sum(weight * np.abs(dwdt) ** 2)))
    return dwdt_report(trajectory.times, np.array(values), grid.d)


@dataclass(frozen=True)
class CondtgReport:
    """Realized forcing size: the sum of the weighted space-time norms
    that the existence threshold lambda is measured in."""

    d: int
    components: dict
    lam: float


def condtg_check(f_omega: SpectralField, s: float, gamma: float, T: float) -> CondtgReport:
    """Weighted forcing norms of g = e^{tD} f.

    In 2D this is the t^gamma-weighted L^4 space-time norm; in 3D the
    three norms (two of them of [I + (-Laplacian)^{1/4}] g) are summed.
    Inadmissible (gamma, s, sigma, q) combinations are rejected.
    """
    if gamma >= 0:
        raise ValueError("condtg_check needs gamma < 0")
    grid = f_omega.grid
    d = grid.d

    def _norms(fld: SpectralField, exponents: tuple) -> list:
        """The norms of fld for each (p, q, sigma_check), from one heat sweep."""
        run_specs = []
        for p, q, sigma_check in exponents:
            spec_check = NormSpec(gamma=gamma, sigma=sigma_check, p=p, q=q, r=p, s=s, T=T)
            if not check_admissible(spec_check):
                raise ValueError(
                    f"inadmissible combination for condtg: sigma={sigma_check}, s={s}, "
                    f"gamma={gamma}, q={q}"
                )
            run_specs.append(NormSpec(gamma=gamma, sigma=0.0, p=p, q=q, r=p, s=s, T=T))
        return _space_time_norms(fld, tuple(run_specs))

    if d == 2:
        (lam,) = _norms(f_omega, ((4.0, 4.0, 0.0),))
        return CondtgReport(d=2, components={"L4_L4": lam}, lam=lam)

    # both bracket norms reduce one sweep of the bracket field
    bracket = fourier_field(grid, f_omega.data * (1.0 + grid.kabs**0.5))
    l2_l6, l83_l83 = _norms(bracket, ((6.0, 2.0, 0.5), (8.0 / 3.0, 8.0 / 3.0, 0.5)))
    (l8_l8,) = _norms(f_omega, ((8.0, 8.0, 0.0),))
    comps = {"L2_L6_bracket": l2_l6, "L83_L83_bracket": l83_l83, "L8_L8": l8_l8}
    return CondtgReport(d=3, components=comps, lam=float(sum(comps.values())))


def nse_residual(grid: Grid, times: np.ndarray, u_half,
                 plan: TransportPlan | None = None) -> tuple[np.ndarray, np.ndarray]:
    """H^{-1} residual of the projected equation at snapshot midpoints.

    Uses the centered difference (u(t+h) - u(t))/h against the right-hand
    side evaluated on the midpoint average, so exact solutions show O(h^2).
    u_half is any iterable of the half spectra (fourier-space field data)
    of the real fields u(times[j]); they are consumed pairwise, so at most two are held.
    Each pair is evaluated in work arrays of the call, with the operations
    and operand order of the plain expressions in the comments, so the bits
    are theirs. The transport kernel runs in plan, a TransportPlan(grid)
    with its default bands whose counters the caller reads afterwards, or
    in one made for the call.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("nse_residual needs at least two snapshots")
    states = iter(u_half)
    prev = next(states, None)
    if prev is None:
        raise ValueError(f"nse_residual got 0 states for {times.size} times")
    vol = grid.cell_volume
    weight = grid.weight / (1.0 + grid.ksq)
    plan = TransportPlan(grid) if plan is None else plan
    um = np.empty_like(prev, dtype=np.complex128)
    resid = np.empty_like(um)
    mag = np.empty(prev.shape)
    mids, vals = [], []
    for j in range(times.size - 1):
        cur = next(states, None)
        if cur is None:
            raise ValueError(f"nse_residual got {j + 1} states for {times.size} times")
        h = times[j + 1] - times[j]
        # um = 0.5 * (prev + cur)
        np.multiply(0.5, np.add(prev, cur, out=um), out=um)
        transport = projected_transport_half(um[(slice(None), *plan.in_band)], plan)
        # resid = (cur - prev) / h + ksq * um + P div(um x um), um spent
        np.divide(np.subtract(cur, prev, out=resid), h, out=resid)
        resid += np.multiply(grid.ksq, um, out=um)
        resid += transport
        # freed before the next pair's kernel output is formed
        del transport
        # weight * |resid|^2
        np.multiply(weight, np.square(np.abs(resid, out=mag), out=mag), out=mag)
        mids.append(times[j] + 0.5 * h)
        vals.append(np.sqrt(vol * np.sum(mag)))
        prev = cur
    return np.array(mids), np.array(vals)
