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

Data, w and g are real fields, held as rfft half spectra like every
fourier-space field (spectral.Grid); solve refuses data and resume
states whose self-mirrored planes 0 and N/2 are not conjugate-symmetric.

Every stage field lives in the ball, so the stepper keeps w, the
truncated data and every mask and weight as band arrays of the cube
|k_i| <= k_max that holds the ball (spectral.Grid.band), with
k_max = ceil(kappa) - 1 for kappa = cutoff L / 2 pi. States enter the cube
once (data, resume band, step() input), snapshots stay on it, and only
step() output and the readers of a snapshot scatter it back onto the
half lattice (Grid.scatter); coefficients keep the N grid's
unitary normalisation throughout. The stage products are formed on
the smallest grid on which products of ball fields do not alias back into
the ball (stepping_lattice_size): M points per axis with M >= 2 k_max +
kappa (M = 24 at N = 32 and the default cutoff N/4), and M = N when that
bound reaches N. Only the stepper's transport plan holds that lattice: the
kernel reads the stage field's band array and returns the right-hand
side's, so its transforms skip the lines outside the cube.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .heat import _heat_norms, _SweepField, heat_semigroup
from .spectral import (
    FOURIER,
    Grid,
    SpectralField,
    TransportPlan,
    dealias_cutoff,
    fourier_field,
    friedrichs_cutoff,
    make_grid,
    mean_mode_magnitude,
    projected_transport_half,
    require_real_field,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "EnergyLog",
    "StepFailureError",
    "nonlinear_rhs",
    "step",
    "solve",
    "u_half",
    "time_partition",
    "stepping_lattice_size",
]

INTEGRATORS = ("ifrk4", "ifeuler")


class StepFailureError(RuntimeError):
    """Raised when a step produces non-finite coefficients."""

    def __init__(self, time: float):
        super().__init__(f"time step failed at t = {time!r}: non-finite state")
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Cutoff and stepping parameters for one fluctuation run; the grid is
    the data's."""

    cutoff: float
    T: float
    dt: float
    integrator: str = "ifrk4"
    substep_near_zero: bool = True
    snapshot_cadence: int = 8
    track_energy: bool = True

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (0 < self.T < np.inf and 0 < self.dt < np.inf):
            raise ValueError(f"T and dt must be finite and positive, got T={self.T}, dt={self.dt}")
        if self.snapshot_cadence < 1:
            raise ValueError("snapshot_cadence must be >= 1")


@dataclass(frozen=True)
class EnergyLog:
    """Per-step energy bookkeeping on the full stepping partition.

    kinetic is |w|_L2^2 at each boundary, dissipation_cum the accumulation
    of |grad w|_L2^2 and pairing_abs_cum that of |2 <w, g-forcing terms>|.
    The discrete energy inequality is
    kinetic + 2*dissipation_cum <= pairing_abs_cum up to tolerance.

    ifrk4 accumulates both integrals with its own stage quadrature. ifeuler
    steps w -> E v with v = w + dt a, a the stage right-hand side and
    E = e^{-dt|xi|^2}; its ledger is exact for that map: the dissipation
    increment is the heat loss sum (1 - E^2)|v|^2 / 2 and the pairing
    increment dt |2<w, a>| + dt^2 |a|^2, where dt^2 |a|^2 is the scheme's
    own energy production.
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
    """The end of a run: w(T), every snapshot time and the data.

    solve hands each snapshot to its on_snapshot consumer and keeps only
    the last: w_band is w(T) as a band array of the data grid's half
    lattice (Grid.band), the stepper's cube |k_i| <= k_max around the
    cutoff ball, a tenth of the half lattice at d=3 N=32, with a
    conjugate-symmetric last-axis plane 0. The forcing is not stored:
    w_states and g_states form w(T) and the truncated free evolution
    T e^{TD} f_omega on the half lattice on access, each as a one-element
    list. dwdt_hminus1 holds |dw/dt|_{H^{-1}} at each snapshot time as the
    solver recorded it, rhs_evaluations the stage right-hand sides the run
    evaluated and fft_lines the 1-D transforms their transport kernel ran;
    energy_log is None when the run tracked no energy.
    """

    times: np.ndarray
    w_band: np.ndarray
    f_omega: SpectralField
    config: SolverConfig
    energy_log: EnergyLog | None
    dwdt_hminus1: np.ndarray
    rhs_evaluations: int
    fft_lines: int

    @property
    def w_states(self) -> list:
        """[w(T)] as a field, formed on every access."""
        grid = self.f_omega.grid
        return [fourier_field(grid, grid.scatter(self.w_band))]

    @property
    def g_states(self) -> list:
        """[T e^{TD} f_omega] at the last snapshot time, formed on every
        access."""
        t = float(self.times[-1])
        return [friedrichs_cutoff(heat_semigroup(self.f_omega, t), self.config.cutoff)]


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

# largest coefficient outside the cutoff ball, relative to the largest
# coefficient, for which a fluctuation still counts as supported in the ball
BALL_RTOL = 1e-13


def nonlinear_rhs(w: SpectralField, g: SpectralField, cutoff: float) -> SpectralField:
    """The four truncated-projected transport terms driving w.

    w x w + w x Tg + Tg x w + Tg x Tg is the single product (w + Tg) x (w + Tg),
    so one transport evaluation of the summed field covers all four.
    w must be supported inside the cutoff ball; g is truncated internally.
    The result's self-mirrored planes are made conjugate-symmetric
    (Grid.symmetrize), as a real field's are.
    """
    if w.space != FOURIER or g.space != FOURIER:
        raise ValueError("nonlinear_rhs expects fourier-space fields")
    if w.grid != g.grid:
        raise ValueError("w and g live on different grids")
    grid = w.grid
    if w.ncomp != grid.d or g.ncomp != grid.d:
        raise ValueError("nonlinear_rhs needs one component per dimension")
    grid.require_in_ball("fluctuation", w.data, cutoff, BALL_RTOL)
    plan = TransportPlan(grid)
    u = (w + friedrichs_cutoff(g, cutoff)).data[(slice(None), *plan.in_band)]
    return -friedrichs_cutoff(
        fourier_field(grid, grid.symmetrize(projected_transport_half(u, plan))), cutoff
    )


# ---------------------------------------------------------------------------
# stepping lattice


def _smooth_even_at_least(n: int) -> int:
    """Smallest even 2,3,5-smooth integer >= n."""
    m = n + n % 2
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def stepping_lattice_size(grid: Grid, cutoff: float) -> int:
    """Points per axis of the lattice the fluctuation is stepped on.

    Modes of the ball |xi| < cutoff have integer components |k_i| <= k_max
    (k_max = ceil(kappa) - 1 for kappa = cutoff L / 2 pi), so a product of
    two ball fields has |k_i| <= 2 k_max, and its aliases on an M-point grid
    have a component of size at least M - 2 k_max. They all miss the ball
    once M >= 2 k_max + kappa, which for integer M is M >= 3 k_max + 1. The
    size is the smallest even 2,3,5-smooth M that clears this bound (and
    the smallest grid, 8), or N when that reaches N. N itself always clears
    the bound, because the cutoff lies inside the 2/3 band.
    """
    k_max = grid.ball_radius(cutoff)
    return min(_smooth_even_at_least(max(3 * k_max + 1, 8)), grid.N)


class _Stepper:
    """Array-level stepping context on the ball's cube: cached masks,
    decay factors and truncated data.

    States are band arrays of the cube |k_i| <= k_max that holds the ball
    (Grid.band), supported in the ball, with the coefficients of the
    N grid's unitary normalisation; the Parseval weights make kinetic,
    gradsq and pairing equal to the N grid's full-lattice sums. Only the
    transport plan knows the M-point lattice the stage products are formed
    on.
    """

    def __init__(self, grid: Grid, fhat: np.ndarray, config: SolverConfig):
        # the cutoff is checked against the data's grid here, where both
        # solve and step build their stepper
        kcut = dealias_cutoff(grid.N, grid.L)
        if not 0 < config.cutoff <= kcut * (1 + 1e-12):
            raise ValueError(
                f"cutoff {config.cutoff} must lie in (0, {kcut}] so the truncation "
                "ball sits inside the dealiased band"
            )
        self.grid = grid
        self.config = config
        k_max = grid.ball_radius(config.cutoff)
        M = stepping_lattice_size(grid, config.cutoff)
        step_grid = grid if M == grid.N else make_grid(grid.d, M, grid.L)
        self.band = grid.band(k_max)
        # ksq and the weights as the stepping lattice holds them, so the
        # decay factors are those of the grid the kernel runs on
        step_band = step_grid.band(k_max)
        self.ksq = step_grid.ksq[step_band]
        self.weight = step_grid.weight[step_band]
        self.ball = grid.band_kabs(k_max) < config.cutoff
        # the kernel's unitary M-point transforms return (N/M)^{d/2} times
        # the N-normalised coefficients of the product; the output mask
        # undoes that
        self.out_mask = self.ball * (M / grid.N) ** (grid.d / 2.0)
        # the stage input lies in the cube, and only the ball of the output
        # is kept
        self.plan = TransportPlan(step_grid, k_in=k_max, k_out=k_max)
        self.fcut = self.embed(fhat)
        self.weight_ksq = self.weight * self.ksq
        self.weight_hminus1 = self.weight / (1.0 + self.ksq)
        self._exp_cache: dict = {}

    def embed(self, a: np.ndarray) -> np.ndarray:
        """The ball part of a half spectrum as a band array, C-contiguous as
        the stepper's states are, so a resumed state's sums group alike."""
        return np.multiply(a[(Ellipsis, *self.band)], self.ball, order="C")

    def decay(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{-dt|xi|^2}, e^{-dt|xi|^2/2}), kept for the current dt only:
        ramp steps never repeat and the uniform steps share one pair."""
        cached = self._exp_cache.get(dt)
        if cached is None:
            self._exp_cache.clear()
            cached = (np.exp(-dt * self.ksq), np.exp(-0.5 * dt * self.ksq))
            self._exp_cache[dt] = cached
        return cached

    def rhs(self, what: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Stage right-hand side for w against the truncated forcing g at
        the stage time; both are supported in the ball."""
        out = projected_transport_half(what + g, self.plan)
        # -(out * out_mask), in the kernel's fresh output
        return np.negative(np.multiply(out, self.out_mask, out=out), out=out)

    def gradsq(self, what: np.ndarray) -> float:
        return self.grid.cell_volume * float(np.sum(self.weight_ksq * np.abs(what) ** 2))

    def kinetic(self, what: np.ndarray) -> float:
        return self.grid.cell_volume * float(np.sum(self.weight * np.abs(what) ** 2))

    def dwdt_hminus1(self, what: np.ndarray, rhs: np.ndarray) -> float:
        """|dw/dt|_{H^{-1}} of the state whose stage right-hand side is rhs:
        dw/dt = D w + rhs."""
        dwdt = rhs - self.ksq * what
        return float(np.sqrt(
            self.grid.cell_volume * np.sum(self.weight_hminus1 * np.abs(dwdt) ** 2)
        ))

    def pairing(self, what: np.ndarray, rhs: np.ndarray) -> float:
        """2<w, rhs>, which equals 2<w, g-forcing terms>: w is divergence-free
        and supported in the ball, so the truncation and projection drop out,
        and the self-transport pairing <w, P div(w x w)> vanishes to rounding
        because the stepping lattice lets no product of two ball modes alias
        back into the ball."""
        return 2.0 * self.grid.cell_volume * float(np.vdot(what, self.weight * rhs).real)

    def stage0(self, what: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(g(t), rhs(what, g(t))): the truncated forcing at a step boundary
        and the stage-0 right-hand side of the state there, which gives
        dw/dt at a snapshot and starts the step from t."""
        g = self.fcut * np.exp(-t * self.ksq)
        return g, self.rhs(what, g)

    def advance(self, what: np.ndarray, g0: np.ndarray, a: np.ndarray, dt: float,
                track: bool = False):
        """One step from the boundary where (g0, a) = stage0(what, t); with
        track, also the step's contribution to the dissipation and |forcing
        pairing| integrals. RK4 accumulates them with its own stage
        quadrature, so its ledger converges at fourth order; the Euler
        ledger is exact for the scheme (see EnergyLog). The new state is
        symmetrized in place (Grid.symmetrize), as solve hands it out."""
        E, E2 = self.decay(dt)
        if self.config.integrator == "ifeuler":
            v = what + dt * a
            w_new = E * v
            self.grid._symmetrize_planes(w_new)
            if not track:
                return w_new, None
            # |E v|^2 + sum (1 - e^{-2dt|xi|^2}) |v|^2 = |w|^2 + 2dt<w, a> + dt^2 |a|^2
            heat = -np.expm1(-2.0 * dt * self.ksq)
            d_incr = 0.5 * self.grid.cell_volume * float(
                np.sum(self.weight * heat * np.abs(v) ** 2)
            )
            p_incr = dt * abs(self.pairing(what, a)) + dt * dt * self.kinetic(a)
            return w_new, (d_incr, p_incr)
        g_mid = E2 * g0
        w1 = E2 * (what + (0.5 * dt) * a)
        b = self.rhs(w1, g_mid)
        w2 = E2 * what + (0.5 * dt) * b
        c = self.rhs(w2, g_mid)
        Ew = E * what
        w3 = Ew + dt * (E2 * c)
        dd = self.rhs(w3, E * g0)
        w_new = Ew + (dt / 6.0) * (E * a + 2.0 * E2 * (b + c) + dd)
        self.grid._symmetrize_planes(w_new)
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
    """Advance the fluctuation, supported in the cutoff ball, by one step of
    the configured scheme."""
    if t < 0:
        raise ValueError("step time must be nonnegative")
    grid = state.grid
    grid.require_in_ball("state", state.data, config.cutoff, BALL_RTOL)
    stepper = _Stepper(grid, f_omega.data, config)
    what = stepper.embed(state.data)
    out, _ = stepper.advance(what, *stepper.stage0(what, t), dt)
    if not np.all(np.isfinite(out)):
        raise StepFailureError(t)
    return fourier_field(grid, grid.scatter(out))


def _check_stability(config: SolverConfig, f_omega: SpectralField):
    # max|g| at t = dt, read off the heat sweep of the truncated data, which
    # runs in one-component work arrays: the heat-evolved field and its
    # inverse transform are never formed whole
    field = _SweepField(friedrichs_cutoff(f_omega, config.cutoff))
    gmax = float(_heat_norms(field, np.array([config.dt]), (np.inf,))[0, 0, 0])
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
    resume_band: np.ndarray | None = None,
    resume_time: float | None = None,
    on_snapshot: Callable[[int, float, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate from w = 0 at t = 0, or from the band array resume_band
    (as load_checkpoint returns it) at resume_time, up to T.

    Snapshots of w are taken every snapshot_cadence accepted steps plus at
    both endpoints, each with |dw/dt|_{H^{-1}} from its stage-0 right-hand
    side, which the next step reuses (only the last snapshot costs an
    extra one); the per-step energy log rides along unless track_energy is
    off. Each snapshot is w on the stepper's cube, a band array of the data
    grid's half lattice (see Trajectory.w_band), handed to on_snapshot, if
    given, as on_snapshot(step, t, w_band) as it is taken, while the run
    goes on; step is t's index in time_partition, the same in a run and its
    resumes. w_band is a read-only view of the state the run goes on from,
    so a resume from it continues the run bit for bit. The run holds no
    snapshot list: a caller that wants every snapshot collects them in its
    consumer. The trajectory keeps the last snapshot, w(T), every snapshot
    time, the dw/dt values and f_omega, from which it derives the forcing.
    A resume at T, or from a band of another shape, or not a real field's
    (Grid.require_real_band), or with support outside the ball is refused
    before the first snapshot.
    """
    grid = f_omega.grid
    if f_omega.space != FOURIER:
        raise ValueError("solve expects fourier-space data")
    if mean_mode_magnitude(f_omega) != 0.0:
        raise ValueError("data must be mean-zero")
    require_real_field("data", f_omega)
    if grid.divergence_ratio(f_omega.data) > 1e-8:
        raise ValueError("data must be divergence-free")

    stepper = _Stepper(grid, f_omega.data, config)
    _check_stability(config, f_omega)

    times = time_partition(config.T, config.dt, config.substep_near_zero)
    if resume_band is None:
        start = 0
        what = np.zeros((grid.d,) + stepper.ksq.shape, dtype=np.complex128)
    else:
        if resume_time is None:
            raise ValueError("resume_band requires resume_time")
        hits = np.flatnonzero(np.isclose(times, resume_time, rtol=1e-12, atol=1e-15))
        if hits.size == 0:
            raise ValueError(
                f"resume time {resume_time} is not a step boundary of this config"
            )
        if hits[0] == times.size - 1:
            raise ValueError(f"resume time {resume_time} is the end time T = {config.T}: "
                             f"there is nothing left to integrate")
        grid.require_real_band("resume state", resume_band)
        grid.require_in_ball("resume state", resume_band, config.cutoff, BALL_RTOL)
        start = int(hits[0])
        what = stepper.embed(grid.scatter(resume_band))
        # a checkpoint's band is symmetric already, and keeps its bits
        grid._symmetrize_planes(what)

    snap_times, dwdt = [], []
    w_band = None  # the last snapshot

    def snapshot(step: int, state: np.ndarray, rhs0: np.ndarray):
        """Record the state at times[step] with dw/dt from its stage-0
        right-hand side and hand it out."""
        nonlocal w_band
        snap_times.append(times[step])
        # the stepper's own state, which no later step writes to
        w_band = state.view()
        w_band.flags.writeable = False
        dwdt.append(stepper.dwdt_hminus1(state, rhs0))
        if on_snapshot is not None:
            on_snapshot(step, float(times[step]), w_band)

    g0, a = stepper.stage0(what, times[start])
    snapshot(start, what, a)

    track = config.track_energy
    if track:
        e_times = [times[start]]
        kinetic = [stepper.kinetic(what)]
        diss_cum = [0.0]
        pair_cum = [0.0]

    for idx in range(start, len(times) - 1):
        t0, t1 = times[idx], times[idx + 1]
        what, incr = stepper.advance(what, g0, a, t1 - t0, track=track)
        if not np.all(np.isfinite(what)):
            raise StepFailureError(t1)
        if track:
            e_times.append(t1)
            kinetic.append(stepper.kinetic(what))
            diss_cum.append(diss_cum[-1] + incr[0])
            pair_cum.append(pair_cum[-1] + incr[1])
        # one stage-0 pair at t1 starts the next step and gives a snapshot's dw/dt
        g0, a = stepper.stage0(what, t1)
        steps_done = idx + 1 - start
        if steps_done % config.snapshot_cadence == 0 or idx + 1 == len(times) - 1:
            snapshot(idx + 1, what, a)

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
        w_band=w_band,
        f_omega=f_omega,
        config=config,
        energy_log=log,
        dwdt_hminus1=np.array(dwdt),
        rhs_evaluations=stepper.plan.calls,
        fft_lines=stepper.plan.fft_lines,
    )


def u_half(f_omega: SpectralField, t: float, w_band: np.ndarray) -> np.ndarray:
    """The half spectrum of u(t) = e^{tD} f_omega + w(t) on the data grid's
    half lattice, for the snapshot w(t) held as the band array w_band, as
    solve hands it to its on_snapshot consumer."""
    grid = f_omega.grid
    u = heat_semigroup(f_omega, t).data
    # w added on its cube: the sum with grid.scatter(w_band)
    u[(slice(None), *grid.band(w_band.shape[-1] - 1))] += w_band
    return u

