"""Scalar time series derived from a run's snapshots and reconstructed
fields.

Everything here is pure post-processing: the time norm of the dual norm
of dw/dt, the weighted forcing norms whose size plays the role of the
threshold lambda, and finite-difference residuals of the reconstructed
velocity against the projected equation. The energy ledger and the
per-snapshot |dw/dt|_{H^{-1}} are recorded by the solver itself;
dwdt_norm recomputes the latter from the snapshots as a reference. The
readers of snapshots take any iterable of them and hold one or two at a
time: solve hands each snapshot to its on_snapshot consumer as it is
taken, and a caller that wants them all collects them there.

H^{-1} is realized with the inhomogeneous symbol (1 + |xi|^2)^{-1/2}; the
grid has a zero mode where the homogeneous version is singular, and all
data are mean-zero anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heat import _SweepField, heat_semigroup
from .solver import SolverConfig, nonlinear_rhs
from .spectral import (
    Grid,
    SpectralField,
    TransportPlan,
    fourier_field,
    projected_transport_half,
)
from .tails import NormSpec, _inadmissible, _space_time_norms

__all__ = [
    "DwdtReport",
    "dwdt_report",
    "dwdt_norm",
    "CondtgReport",
    "CONDTG_NORMS",
    "condtg_inadmissible",
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


def dwdt_norm(f_omega: SpectralField, config: SolverConfig, snapshots) -> DwdtReport:
    """H^{-1} size of dw/dt per snapshot and its L^{4/d}-in-time norm.

    snapshots is any iterable of (t, w_band) pairs in time order, the
    snapshots of the run from f_omega as solve hands them to on_snapshot:
    band arrays of the data grid's half lattice, a whole half spectrum
    being the band of radius N/2. dw/dt is reassembled on the N grid from
    the right-hand side (heat term plus the truncated transport terms
    against e^{tD} f_omega) at each snapshot. solve records the same values
    as it steps (Trajectory.dwdt_hminus1); this recomputation is their
    reference.
    """
    grid = f_omega.grid
    vol = grid.cell_volume
    ksq = grid.ksq
    weight = grid.weight / (1.0 + ksq)
    times, values = [], []
    for t, w_band in snapshots:
        w = fourier_field(grid, grid.scatter(w_band))
        g = heat_semigroup(f_omega, float(t))  # truncated by nonlinear_rhs
        dwdt = -ksq * w.data + nonlinear_rhs(w, g, config.cutoff).data
        times.append(t)
        values.append(np.sqrt(vol * np.sum(weight * np.abs(dwdt) ** 2)))
    return dwdt_report(np.array(times), np.array(values), grid.d)


@dataclass(frozen=True)
class CondtgReport:
    """Realized forcing size: the sum of the weighted space-time norms
    that the existence threshold lambda is measured in."""

    d: int
    components: dict
    lam: float


# condtg's weighted space-time norms per dimension, (name, p, q, sigma), in
# the order they are summed: a norm with sigma > 0 is that of
# [I + (-Laplacian)^{sigma/2}] g, one with sigma = 0 that of g
CONDTG_NORMS = {
    2: (("L4_L4", 4.0, 4.0, 0.0),),
    3: (
        ("L2_L6_bracket", 6.0, 2.0, 0.5),
        ("L83_L83_bracket", 8.0 / 3.0, 8.0 / 3.0, 0.5),
        ("L8_L8", 8.0, 8.0, 0.0),
    ),
}


def condtg_inadmissible(d: int, s: float, gamma: float, T: float) -> str | None:
    """Why condtg's norms are inadmissible, or None: gamma < 0, and then
    tails._inadmissible's refusal of the first of CONDTG_NORMS[d], named.
    condtg_check and the config apply this one rule."""
    if not gamma < 0:
        return f"condtg's forcing norms need gamma < 0, got {gamma}"
    for name, p, q, sigma in CONDTG_NORMS[d]:
        refusal = _inadmissible(NormSpec(gamma=gamma, sigma=sigma, p=p, q=q, r=p, s=s, T=T))
        if refusal is not None:
            return f"condtg's {name} norm: {refusal}"
    return None


def condtg_check(f_omega: SpectralField, s: float, gamma: float, T: float) -> CondtgReport:
    """Weighted forcing norms of g = e^{tD} f, those of CONDTG_NORMS.

    In 2D this is the t^gamma-weighted L^4 space-time norm; in 3D the
    three norms (two of them of [I + (-Laplacian)^{1/4}] g) are summed.
    Inadmissible (gamma, s, sigma, q) combinations are rejected.
    """
    grid = f_omega.grid
    problem = condtg_inadmissible(grid.d, s, gamma, T)
    if problem is not None:
        raise ValueError(problem)
    norms = CONDTG_NORMS[grid.d]
    comps = {}
    # the norms of one multiplier reduce one heat sweep of its field
    for sigma in dict.fromkeys(row[3] for row in norms):
        rows = [row for row in norms if row[3] == sigma]
        field = _SweepField(f_omega, None if sigma == 0 else 1.0 + grid.kabs**sigma)
        norm_values = _space_time_norms(field, T, [(p, q, gamma) for _, p, q, _ in rows])
        comps.update(zip((row[0] for row in rows), norm_values))
    return CondtgReport(d=grid.d, components=comps, lam=float(sum(comps.values())))


class _ResidualPair:
    """The H^{-1} residual of the projected equation on one snapshot pair,
    in work arrays and a transport plan kept across pairs, so that
    nse_residual and a consumer of streamed snapshots run the same
    computation on each pair.

    Called as pair(t0, prev, t1, cur) on the half spectra of u at two
    snapshot times, it returns the midpoint t0 + h/2 and the residual of
    the centered difference (cur - prev)/h against the right-hand side at
    the midpoint average, h = t1 - t0, so exact solutions show O(h^2).
    Each pair is evaluated with the operations and operand order of the
    plain expressions in the comments, so the bits are theirs. The
    transport kernel runs in plan, a TransportPlan(grid) with its default
    bands, whose counters the caller reads afterwards. A call allocates no
    array of a whole field's size: the kernel reads a copy of um's input
    band and writes its output over um once ksq * um, formed there, has
    been added into resid.
    """

    def __init__(self, grid: Grid, plan: TransportPlan):
        self.plan = plan
        self.vol = grid.cell_volume
        self.ksq = grid.ksq
        self.weight = grid.weight / (1.0 + self.ksq)
        shape = (grid.d,) + grid.half_shape
        self.um = np.empty(shape, dtype=np.complex128)
        self.resid = np.empty_like(self.um)
        self.mag = np.empty(shape)

    def __call__(self, t0: float, prev: np.ndarray, t1: float,
                 cur: np.ndarray) -> tuple[float, float]:
        um, resid, mag, plan = self.um, self.resid, self.mag, self.plan
        h = t1 - t0
        # um = 0.5 * (prev + cur)
        np.multiply(0.5, np.add(prev, cur, out=um), out=um)
        u_in = um[(slice(None), *plan.in_band)]
        if np.may_share_memory(u_in, um):  # a whole-lattice input band is a view
            u_in = u_in.copy()
        # resid = (cur - prev) / h + ksq * um + P div(um x um), um spent
        np.divide(np.subtract(cur, prev, out=resid), h, out=resid)
        resid += np.multiply(self.ksq, um, out=um)
        resid += projected_transport_half(u_in, plan, out=um)
        # weight * |resid|^2
        np.multiply(self.weight, np.square(np.abs(resid, out=mag), out=mag), out=mag)
        return t0 + 0.5 * h, np.sqrt(self.vol * np.sum(mag))


def nse_residual(grid: Grid, times: np.ndarray, u_half,
                 plan: TransportPlan | None = None) -> tuple[np.ndarray, np.ndarray]:
    """H^{-1} residual of the projected equation at snapshot midpoints.

    u_half is any iterable of the half spectra (fourier-space field data)
    of the real fields u(times[j]); they are consumed pairwise, so at most
    two are held, and each pair is evaluated by _ResidualPair, which the
    solve runner also runs on the snapshots as solve hands them out. The
    transport kernel runs in plan, a TransportPlan(grid) with its default
    bands whose counters the caller reads afterwards, or in one made for
    the call.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("nse_residual needs at least two snapshots")
    states = iter(u_half)
    prev = next(states, None)
    if prev is None:
        raise ValueError(f"nse_residual got 0 states for {times.size} times")
    pair = _ResidualPair(grid, TransportPlan(grid) if plan is None else plan)
    mids, vals = [], []
    for j in range(times.size - 1):
        cur = next(states, None)
        if cur is None:
            raise ValueError(f"nse_residual got {j + 1} states for {times.size} times")
        mid, val = pair(times[j], prev, times[j + 1], cur)
        mids.append(mid)
        vals.append(val)
        prev = cur
    return np.array(mids), np.array(vals)
