"""Monte Carlo verification of the averaged space-time estimates.

The central object is the weighted space-time norm

    ( integral_0^T t^{q*gamma} | (-Laplacian)^{sigma/2} e^{tD} f |_{L^p}^q dt )^{1/q}

of randomized data, which concentrates: the probability that it exceeds
lambda decays like C1 * exp(-C2 * lambda^2 / |f|_{H^{-s}}^2). The fit of
that exponent over an ensemble, and the r-th moment growth, are the two
quantitative checks here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .heat import _heat_norms, _SweepField
from .randomization import RandomModel, hminus_s_norm, randomized
from .spectral import SpectralField

__all__ = [
    "NormSpec",
    "TailFitResult",
    "check_admissible",
    "default_time_grid",
    "space_time_norm",
    "sample_space_time_norms",
    "fit_gaussian_tail",
    "moment_bound_check",
]


@dataclass(frozen=True)
class NormSpec:
    """Exponent bundle (gamma, sigma, p, q, r, s, T) of a space-time norm."""

    gamma: float
    sigma: float
    p: float
    q: float
    r: float
    s: float
    T: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")


def check_admissible(spec: NormSpec) -> bool:
    """True iff (sigma + s - 2*gamma) * q < 2 and r >= p >= q >= 2. With
    sigma, s >= 0 (NormSpec) this gives gamma * q > -1, in float64 too, so
    the time weight t^{q*gamma} is integrable."""
    ordered = spec.r >= spec.p >= spec.q >= 2
    return bool(ordered and (spec.sigma + spec.s - 2.0 * spec.gamma) * spec.q < 2.0)


def _inadmissible(spec: NormSpec) -> str | None:
    """The one refusal message of an inadmissible exponent set (see
    check_admissible), or None for an admissible one."""
    if check_admissible(spec):
        return None
    return (
        f"inadmissible exponents: need (sigma + s - 2*gamma)*q < 2 and r >= p >= q >= 2, "
        f"got ({spec.sigma} + {spec.s} - 2*{spec.gamma})*{spec.q} = "
        f"{(spec.sigma + spec.s - 2.0 * spec.gamma) * spec.q}, r={spec.r}, p={spec.p}"
    )


# decades of (0, T] the quadrature grid spans
TIME_GRID_DECADES = 6.0


def default_time_grid(T: float) -> np.ndarray:
    """The space-time norm's quadrature grid: 64 geometric points per decade
    from T*10^-TIME_GRID_DECADES up to T, 385 points."""
    return np.geomspace(T * 10.0**-TIME_GRID_DECADES, T, 64 * int(TIME_GRID_DECADES) + 1)


def _power_law_cells(times: np.ndarray, F: np.ndarray) -> float:
    """Integrate F over [times[0], times[-1]] treating each cell as a power
    law, plus the [0, times[0]] head extrapolated from the first cell.

    The cells are formed as arrays, where + - * / and np.log give the bits
    they give float64 scalars, all but rho^(beta + 1), which is raised on
    Python floats as the scalars raise it (a vectorized np.power is not);
    the head and the cells are then summed in order."""
    fa, fb, ta, tb = F[:-1], F[1:], times[:-1], times[1:]
    # a cell not positive at both ends gets garbage power-law values, unread
    with np.errstate(all="ignore"):
        rho = tb / ta
        log_rho = np.log(rho)
        beta = np.log(fb / fa) / log_rho
        b1 = beta + 1.0
        grown = np.array(list(map(_pow, rho.tolist(), b1.tolist())))
        power = np.where(np.abs(b1) < 1e-8, fa * ta * log_rho, fa * ta * (grown - 1.0) / b1)
        cells = np.where((fa > 0) & (fb > 0), power, 0.5 * (fa + fb) * (tb - ta))
    # head: F ~ f0 * (t/t0)^beta on [0, t0]
    head = 0.0
    if F[0] > 0 and F[1] > 0:
        if beta[0] <= -1.0 + 1e-9:
            raise ValueError("space-time integrand is non-integrable near t = 0")
        head = F[0] * times[0] / b1[0]
    return float(np.add.accumulate(np.concatenate(([head], cells)))[-1])


def _pow(x: float, y: float) -> float:
    """x ** y for Python floats x > 0, inf where it overflows, as numpy's
    float64 scalars give it."""
    try:
        return x**y
    except OverflowError:
        return float("inf")


def space_time_norm(f_omega: SpectralField, spec: NormSpec) -> float:
    """Weighted L^q-in-time, L^p-in-space norm of the heat evolution.

    Quadrature is power-law aware on the geometric grid default_time_grid(T),
    which resolves the t^{q*gamma} weight. Inadmissible exponents are
    refused (_inadmissible) before the field is checked.
    """
    refusal = _inadmissible(spec)
    if refusal is not None:
        raise ValueError(refusal)
    # (-Laplacian)^{sigma/2} multiplies each coefficient by |xi|^sigma
    symbol = None if spec.sigma == 0 else f_omega.grid.kabs**spec.sigma
    field = _SweepField(f_omega, symbol)
    return _space_time_norms(field, spec.T, ((spec.p, spec.q, spec.gamma),))[0]


def _space_time_norms(field: _SweepField, T: float, exponents) -> list:
    """The weighted space-time norm of field.f for each (p, q, gamma) of
    exponents: one heat sweep over default_time_grid(T), reduced once per
    exponent p."""
    times = default_time_grid(T)
    (sweep,) = _heat_norms(field, times, tuple(p for p, _, _ in exponents))
    norms = []
    for (_, q, gamma), vals in zip(exponents, sweep):
        F = times ** (q * gamma) * vals**q
        norms.append(float(_power_law_cells(times, F) ** (1.0 / q)))
    return norms


def _ordered_map(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)] on up to `workers` threads, in index order,
    with progress on stderr (_collect)."""
    if workers <= 1:
        return _collect(map(fn, range(count)), count)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _collect(pool.map(fn, range(count)), count)


def _collect(results, count: int) -> list:
    """The count results as a list. As they arrive, in index order, the
    calling thread writes a `k/count samples` line to stderr after every
    ceil(count/10) of them and after the last, at most ten lines, the same
    for any worker count."""
    step = -(-count // 10)
    out = []
    for value in results:
        out.append(value)
        k = len(out)
        if k % step == 0 or k == count:
            print(f"{k}/{count} samples", file=sys.stderr, flush=True)
    return out


def sample_space_time_norms(
    f: SpectralField,
    model: RandomModel,
    spec: NormSpec,
    M: int,
    workers: int = 1,
) -> np.ndarray:
    """Space-time norms of M randomizations, in sample-index order.

    Each sample derives its own counter stream, so the result is identical
    for any worker count.
    """
    return np.array(_ordered_map(
        lambda i: space_time_norm(randomized(f, model, i), spec), M, workers
    ))


# fewest samples a tail fit accepts
TAIL_FIT_MIN_SAMPLES = 200


@dataclass(frozen=True)
class TailFitResult:
    """Empirical tail of the ensemble with its Gaussian-exponent fit.

    The fit is log P(lambda) = log C1 - C2 * lambda^2 / hnorm^2 over the
    grid points whose empirical probability lies in [5/M, 0.5]; fit_x and
    fit_y are that window's lambda^2 / hnorm^2 and log P.
    """

    lambda_grid: np.ndarray
    empirical_prob: np.ndarray
    C1: float
    C2: float
    r_squared: float
    M: int
    samples: np.ndarray
    fit_x: np.ndarray
    fit_y: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.empirical_prob) > 0):
            raise ValueError("tail probabilities must be nonincreasing")


def fit_gaussian_tail(samples: np.ndarray, hnorm: float) -> TailFitResult:
    """Fit the quadratic-exponent tail law to an ensemble of norms, on 33
    lambda points from the sample median to the 99.5% quantile."""
    values = np.asarray(samples, dtype=np.float64)
    M = values.size
    if M < TAIL_FIT_MIN_SAMPLES:
        raise ValueError(
            f"need at least {TAIL_FIT_MIN_SAMPLES} samples for a tail fit, got {M}"
        )
    if np.ptp(values) == 0.0:
        raise ValueError("all samples identical; tail is degenerate")
    lo, hi = np.quantile(values, [0.5, 0.995])
    if lo == hi:
        raise ValueError("degenerate lambda grid")
    lam = np.linspace(lo, hi, 33)
    sorted_vals = np.sort(values)
    prob = (M - np.searchsorted(sorted_vals, lam, side="left")) / M

    in_window = (prob >= 5.0 / M) & (prob <= 0.5)
    if in_window.sum() < 3:
        raise ValueError("fewer than 3 lambda points in the fit window [5/M, 0.5]")
    x = lam[in_window] ** 2 / hnorm**2
    y = np.log(prob[in_window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return TailFitResult(
        lambda_grid=lam,
        empirical_prob=prob,
        C1=float(np.exp(intercept)),
        C2=float(-slope),
        r_squared=float(r2),
        M=M,
        samples=values,
        fit_x=x,
        fit_y=y,
    )


def moment_bound_check(f: SpectralField, model: RandomModel, spec: NormSpec, M: int = 400) -> float:
    """(E norm^r)^{1/r} / |f|_{H^{-s}} by Monte Carlo, r = spec.r."""
    if M < TAIL_FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {TAIL_FIT_MIN_SAMPLES} samples, got {M}")
    values = sample_space_time_norms(f, model, spec, M)
    hnorm = hminus_s_norm(f, spec.s)
    if hnorm == 0.0:
        return 0.0
    return float(np.mean(values**spec.r) ** (1.0 / spec.r) / hnorm)
