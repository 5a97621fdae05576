"""Time integration of the cutoff fluctuation system.

The unknown w is the difference between the full velocity field and the
free heat evolution g = e^{tD} f of the data. It solves

    dw/dt = D w - T P div(w x w) - T P div(w x Tg) - T P div(Tg x w)
                - T P div(Tg x Tg),      w(0) = 0,

with P the divergence-free projection and T the sharp truncation to the
frequency ball of the configured radius. The heat term is integrated
exactly through the factor e^{-dt |xi|^2}; the nonlinear terms are stepped
explicitly (RK4 or Euler) with g formed once per step and carried to the
stage times by the cached heat factors. The four transport terms are the one
product (w + Tg) x (w + Tg), formed in physical space on dealiased inputs by
the transport kernel.

Data, w and g are real fields, so the stepper keeps their rfft half spectra
(spectral.HalfLattice) and expands to the full lattice only for snapshots
and step() output; solve refuses data and resume states that are not
conjugate-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    FOURIER,
    HERMITIAN_RTOL,
    Grid,
    SpectralField,
    conjugate_asymmetry,
    divergence_ratio,
    fourier_field,
    friedrichs_cutoff,
    linf_norm,
    make_grid,
    mean_mode_magnitude,
    projected_transport,
    projected_transport_half,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "EnergyLog",
    "StepFailureError",
    "nonlinear_rhs",
    "step",
    "solve",
    "reconstruct_u",
    "ReconstructionReport",
    "time_partition",
]

INTEGRATORS = ("ifrk4", "ifeuler")


class StepFailureError(RuntimeError):
    """Raised when a step produces non-finite coefficients."""

    def __init__(self, time: float):
        super().__init__(f"time step failed at t = {time!r}: non-finite state")
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Grid, cutoff and stepping parameters for one fluctuation run."""

    d: int
    N: int
    L: float
    cutoff: float
    T: float
    dt: float
    s: float = 0.25
    gamma: float = 0.0
    integrator: str = "ifrk4"
    substep_near_zero: bool = True
    snapshot_cadence: int = 8
    disable_nonlinear: bool = False
    track_energy: bool = True

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not self.T > 0 or not self.dt > 0:
            raise ValueError("T and dt must be positive")
        if self.snapshot_cadence < 1:
            raise ValueError("snapshot_cadence must be >= 1")
        band = (self.N / 3.0) * (2.0 * np.pi / self.L)
        if not 0 < self.cutoff <= band * (1 + 1e-12):
            raise ValueError(
                f"cutoff {self.cutoff} must lie in (0, {band}] so the truncation "
                "ball sits inside the dealiased band"
            )

    def make_grid(self) -> Grid:
        return make_grid(self.d, self.N, self.L)


@dataclass(frozen=True)
class EnergyLog:
    """Per-step energy bookkeeping on the full stepping partition.

    kinetic is |w|_L2^2 at each boundary, dissipation_cum the trapezoid
    accumulation of |grad w|_L2^2, pairing_abs_cum the accumulation of
    |2 <w, g-forcing terms>|. The discrete energy inequality is
    kinetic + 2*dissipation_cum <= pairing_abs_cum up to tolerance.
    """

    times: np.ndarray
    kinetic: np.ndarray
    dissipation_cum: np.ndarray
    pairing_abs_cum: np.ndarray

    def violations(self) -> np.ndarray:
        lhs = (self.kinetic - self.kinetic[0]) + 2.0 * self.dissipation_cum
        return lhs - self.pairing_abs_cum

    def max_violation(self) -> float:
        return float(self.violations().max())

    def energy_sup(self) -> float:
        """Largest sampled value of the energy functional |w|^2 + int |grad w|^2."""
        return float((self.kinetic + self.dissipation_cum).max())


@dataclass
class Trajectory:
    """Snapshots of w and of the truncated forcing field along a run."""

    times: np.ndarray
    w_states: list
    g_states: list
    config: SolverConfig
    energy_log: EnergyLog | None = None


def time_partition(T: float, dt: float, substep_near_zero: bool) -> np.ndarray:
    """Step boundaries: a geometric ramp (ratio 1.2 from dt/1000) into the
    uniform grid k*dt, final point clamped to T.

    The ramp runs while its increments stay below dt, so the step size
    approaches the uniform grid smoothly instead of jumping."""
    times = [0.0]
    k = 1
    if substep_near_zero:
        t = dt * 1e-3
        while 0.2 * t < dt and t < T:
            times.append(t)
            t *= 1.2
        k = int(np.floor(times[-1] / dt)) + 1
        while k * dt <= times[-1] * (1.0 + 1e-12):
            k += 1
    while k * dt < T * (1.0 - 1e-12):
        times.append(k * dt)
        k += 1
    if times[-1] < T * (1.0 - 1e-12):
        times.append(T)
    return np.array(times)


# ---------------------------------------------------------------------------
# right-hand side


def nonlinear_rhs(w: SpectralField, g: SpectralField, cutoff: float) -> SpectralField:
    """The four truncated-projected transport terms driving w.

    w x w + w x Tg + Tg x w + Tg x Tg is the single product (w + Tg) x (w + Tg),
    so one transport evaluation of the summed field covers all four.
    w must be supported inside the cutoff ball; g is truncated internally.
    """
    if w.space != FOURIER or g.space != FOURIER:
        raise ValueError("nonlinear_rhs expects fourier-space fields")
    if w.grid != g.grid:
        raise ValueError("w and g live on different grids")
    grid = w.grid
    if w.ncomp != grid.d or g.ncomp != grid.d:
        raise ValueError("nonlinear_rhs needs one component per dimension")
    ball = grid.kabs < cutoff
    wmax = float(np.abs(w.data).max())
    outside = float(np.abs(w.data * ~ball).max())
    if outside > 1e-13 * max(wmax, 1e-300):
        raise ValueError("fluctuation has support outside the cutoff ball")
    u = w + friedrichs_cutoff(g, cutoff)
    return -friedrichs_cutoff(projected_transport(u), cutoff)


class _Stepper:
    """Array-level stepping context on the rfft half lattice: cached masks,
    decay factors and truncated data.

    States are half spectra; the Parseval weights make kinetic, gradsq and
    pairing equal to the full-lattice sums.
    """

    def __init__(self, grid: Grid, fhat: np.ndarray, config: SolverConfig):
        self.grid = grid
        self.config = config
        self.half = grid.half
        self.ksq = self.half.ksq
        self.ball = self.half.kabs < config.cutoff
        self.keep = self.ball & self.half.dealias_keep
        self.fcut = self.half.cut(fhat) * self.keep
        self.weight_ksq = self.half.weight * self.ksq
        self._exp_cache: dict = {}

    def decay(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{-dt|xi|^2}, e^{-dt|xi|^2/2}), kept for the current dt only:
        ramp steps never repeat and the uniform steps share one pair."""
        cached = self._exp_cache.get(dt)
        if cached is None:
            self._exp_cache.clear()
            cached = (np.exp(-dt * self.ksq), np.exp(-0.5 * dt * self.ksq))
            self._exp_cache[dt] = cached
        return cached

    def g_hat_cut(self, t: float) -> np.ndarray:
        return self.fcut * np.exp(-t * self.ksq)

    def rhs(self, what: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Stage right-hand side for w against the truncated forcing g at
        the stage time."""
        if self.config.disable_nonlinear:
            return np.zeros_like(what)
        return -(projected_transport_half(what * self.keep + g, self.grid) * self.ball)

    def gradsq(self, what: np.ndarray) -> float:
        return self.grid.cell_volume * float(np.sum(self.weight_ksq * np.abs(what) ** 2))

    def kinetic(self, what: np.ndarray) -> float:
        return self.grid.cell_volume * float(np.sum(self.half.weight * np.abs(what) ** 2))

    def pairing(self, what: np.ndarray, rhs: np.ndarray) -> float:
        """2<w, rhs>, which equals 2<w, g-forcing terms>: w is divergence-free
        and supported in the ball, so the truncation and projection drop out,
        and the self-transport pairing <w, P div(w x w)> vanishes to rounding
        because no product of two ball modes aliases back into the ball."""
        return 2.0 * self.grid.cell_volume * float(np.vdot(what, self.half.weight * rhs).real)

    def advance(self, what: np.ndarray, t: float, dt: float, track: bool = False):
        """One step; with track, also the step's contribution to the
        dissipation and |forcing pairing| integrals, accumulated with the
        scheme's own stage quadrature so the energy ledger converges at the
        integrator's order."""
        E, E2 = self.decay(dt)
        g0 = self.g_hat_cut(t)
        if self.config.integrator == "ifeuler":
            a = self.rhs(what, g0)
            w_new = E * (what + dt * a)
            if not track:
                return w_new, None
            a_new = self.rhs(w_new, E * g0)
            d_incr = 0.5 * dt * (self.gradsq(what) + self.gradsq(w_new))
            p_incr = 0.5 * dt * (
                abs(self.pairing(what, a)) + abs(self.pairing(w_new, a_new))
            )
            return w_new, (d_incr, p_incr)
        g_mid = E2 * g0
        a = self.rhs(what, g0)
        w1 = E2 * (what + (0.5 * dt) * a)
        b = self.rhs(w1, g_mid)
        w2 = E2 * what + (0.5 * dt) * b
        c = self.rhs(w2, g_mid)
        w3 = E * what + dt * (E2 * c)
        dd = self.rhs(w3, E * g0)
        w_new = E * what + (dt / 6.0) * (E * a + 2.0 * E2 * (b + c) + dd)
        if not track:
            return w_new, None
        d_incr = (dt / 6.0) * (
            self.gradsq(what)
            + 2.0 * (self.gradsq(w1) + self.gradsq(w2))
            + self.gradsq(w3)
        )
        p_incr = (dt / 6.0) * (
            abs(self.pairing(what, a))
            + 2.0 * (abs(self.pairing(w1, b)) + abs(self.pairing(w2, c)))
            + abs(self.pairing(w3, dd))
        )
        return w_new, (d_incr, p_incr)


def step(state: SpectralField, t: float, dt: float, config: SolverConfig,
         f_omega: SpectralField) -> SpectralField:
    """Advance the fluctuation by one step of the configured scheme."""
    if t < 0:
        raise ValueError("step time must be nonnegative")
    grid = state.grid
    stepper = _Stepper(grid, f_omega.data, config)
    out, _ = stepper.advance(grid.half.cut(state.data), t, dt)
    if not np.all(np.isfinite(out)):
        raise StepFailureError(t)
    return fourier_field(grid, grid.half.expand(out))


def _require_real_field(name: str, f: SpectralField):
    asym = conjugate_asymmetry(f.data, f.grid.d)
    if asym > HERMITIAN_RTOL:
        raise ValueError(
            f"{name} is not conjugate-symmetric (not a real field): the largest "
            f"conjugate asymmetry |a(xi) - conj a(-xi)| is {asym:.3e} of its "
            f"largest coefficient (tolerance {HERMITIAN_RTOL:g})"
        )


def _check_stability(config: SolverConfig, stepper: _Stepper, grid: Grid):
    g0 = fourier_field(grid, grid.half.expand(stepper.g_hat_cut(config.dt)))
    gmax = linf_norm(g0)
    if gmax <= 0:
        return
    bound = 1.0 / (config.cutoff * gmax)
    if config.dt >= 0.5 * bound:
        raise ValueError(
            f"dt = {config.dt} exceeds half the explicit stability estimate "
            f"{bound} (from max|g| = {gmax} at t = dt and cutoff {config.cutoff})"
        )


def solve(
    config: SolverConfig,
    f_omega: SpectralField,
    resume_state: SpectralField | None = None,
    resume_time: float | None = None,
) -> Trajectory:
    """Integrate from w = 0 at t = 0 (or a checkpointed state) up to T.

    Snapshots of w and of the truncated forcing are taken every
    snapshot_cadence accepted steps plus at both endpoints; the per-step
    energy log rides along unless track_energy is off.
    """
    grid = f_omega.grid
    if (grid.d, grid.N) != (config.d, config.N) or not np.isclose(grid.L, config.L):
        raise ValueError("data grid does not match solver config")
    if f_omega.space != FOURIER:
        raise ValueError("solve expects fourier-space data")
    if mean_mode_magnitude(f_omega) != 0.0:
        raise ValueError("data must be mean-zero")
    if divergence_ratio(f_omega) > 1e-8:
        raise ValueError("data must be divergence-free")
    _require_real_field("data", f_omega)

    stepper = _Stepper(grid, f_omega.data, config)
    if not config.disable_nonlinear:
        _check_stability(config, stepper, grid)

    times = time_partition(config.T, config.dt, config.substep_near_zero)
    if resume_state is None:
        start = 0
        what = np.zeros((grid.d,) + grid.half.shape, dtype=np.complex128)
    else:
        if resume_time is None:
            raise ValueError("resume_state requires resume_time")
        hits = np.flatnonzero(np.isclose(times, resume_time, rtol=1e-12, atol=1e-15))
        if hits.size == 0:
            raise ValueError(
                f"resume time {resume_time} is not a step boundary of this config"
            )
        _require_real_field("resume state", resume_state)
        start = int(hits[0])
        what = grid.half.cut(resume_state.data)

    snap_times, w_states, g_states = [], [], []

    def snapshot(t: float, state: np.ndarray):
        snap_times.append(t)
        w_states.append(fourier_field(grid, grid.half.expand(state)))
        g_states.append(fourier_field(grid, grid.half.expand(stepper.g_hat_cut(t))))

    snapshot(times[start], what)

    track = config.track_energy
    if track:
        e_times = [times[start]]
        kinetic = [stepper.kinetic(what)]
        diss_cum = [0.0]
        pair_cum = [0.0]

    for idx in range(start, len(times) - 1):
        t0, t1 = times[idx], times[idx + 1]
        what, incr = stepper.advance(what, t0, t1 - t0, track=track)
        if not np.all(np.isfinite(what)):
            raise StepFailureError(t1)
        if track:
            e_times.append(t1)
            kinetic.append(stepper.kinetic(what))
            diss_cum.append(diss_cum[-1] + incr[0])
            pair_cum.append(pair_cum[-1] + incr[1])
        steps_done = idx + 1 - start
        if steps_done % config.snapshot_cadence == 0 or idx + 1 == len(times) - 1:
            snapshot(t1, what)

    log = None
    if track:
        log = EnergyLog(
            times=np.array(e_times),
            kinetic=np.array(kinetic),
            dissipation_cum=np.array(diss_cum),
            pairing_abs_cum=np.array(pair_cum),
        )
    return Trajectory(
        times=np.array(snap_times),
        w_states=w_states,
        g_states=g_states,
        config=config,
        energy_log=log,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    times: np.ndarray
    u_states: list
    residual_times: np.ndarray
    residuals: np.ndarray


def reconstruct_u(trajectory: Trajectory, f_omega: SpectralField) -> ReconstructionReport:
    """u(t) = e^{tD} f + w(t) per snapshot, with the equation residual in
    H^{-1} evaluated at snapshot midpoints."""
    from .diagnostics import nse_residual
    from .heat import heat_semigroup

    u_states = [
        heat_semigroup(f_omega, float(t)) + w
        for t, w in zip(trajectory.times, trajectory.w_states)
    ]
    mid_times, residuals = nse_residual(trajectory.times, u_states)
    return ReconstructionReport(
        times=trajectory.times,
        u_states=u_states,
        residual_times=mid_times,
        residuals=residuals,
    )
