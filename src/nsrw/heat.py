"""Heat semigroup and decay-rate verification.

The semigroup is the exact diagonal symbol exp(-t|xi|^2). Decay checks fit
the small-time log-log slope of derivative norms of the evolved data and
compare pointwise against the expected envelopes:

    L2:   (1 + t^(-(s+k)/2)) * |f|_{H^{-s}}
    Linf: max(t^{-1}, t^{-(k+s+d/2)}) * |f|_{H^{-s}}           (printed form)
    Linf: (max(t^{-1}, t^{-(k+s+d/2)}))^{1/2}                  (forcing form)

The two Linf envelopes differ by a square root; both are reported, only
finiteness is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randomization import hminus_s_norm
from .spectral import (
    FOURIER,
    HERMITIAN_RTOL,
    SpectralField,
    conjugate_asymmetry,
    fourier_field,
)

__all__ = [
    "heat_semigroup",
    "DecayReport",
    "LinearEstimateReport",
    "check_linear_estimates",
    "CondgReport",
    "condg_check",
    "small_time_window",
    "default_decay_time_grid",
]


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """Coefficientwise multiplication by exp(-t |xi|^2); t >= 0."""
    if f.space != FOURIER:
        raise ValueError("heat semigroup acts on fourier-space fields")
    if t < 0:
        raise ValueError(f"heat semigroup needs t >= 0, got {t}")
    return fourier_field(f.grid, f.data * np.exp(-t * f.grid.ksq))


@dataclass(frozen=True)
class DecayReport:
    """Sampled norm decay of one derivative order in one norm.

    bound_constant is the largest sampled ratio value/envelope; the slope
    is a least-squares fit of log(value) on log(t) over the small-time
    window where the resolved band dominates.
    """

    k: int
    norm_kind: str
    times: np.ndarray
    values: np.ndarray
    ratios: np.ndarray
    bound_constant: float
    fitted_slope: float

    def __post_init__(self):
        if not (np.all(np.diff(self.times) > 0) and np.all(self.times > 0)):
            raise ValueError("decay report times must be positive and increasing")


@dataclass(frozen=True)
class LinearEstimateReport:
    l2: DecayReport
    linf: DecayReport
    linf_sqrt_bound_constant: float


def small_time_window(grid) -> tuple[float, float]:
    """The slope-fit decade [t_min, 10 t_min], t_min = 2.5 / kmax^2.

    Below t_min the unresolved band would carry more than e^{-5} of the
    decay and grid truncation pollutes the scaling; much above it, the
    missing frequencies under 2*pi/L flatten small-s slopes instead.
    """
    t_min = 2.5 / grid.kmax**2
    return t_min, 10.0 * t_min


def default_decay_time_grid(grid, T: float, points_per_decade: int = 16) -> np.ndarray:
    lo, _ = small_time_window(grid)
    lo = min(lo, T / 10.0)
    decades = np.log10(T / lo)
    npts = max(int(round(decades * points_per_decade)) + 1, 8)
    return np.geomspace(lo, T, npts)


def _fit_loglog_slope(times: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> float:
    lo, hi = window
    sel = (times >= lo * (1 - 1e-12)) & (times <= hi * (1 + 1e-12)) & (values > 0)
    if sel.sum() < 2:
        raise ValueError("time grid has fewer than 2 points in the slope-fit window")
    return float(np.polyfit(np.log(times[sel]), np.log(values[sel]), 1)[0])


# A table of up to 4M entries (32 MB) is kept: the Monte Carlo table, reused
# by every sample (385 x 64*33 at d=2 N=64), stays; the heatflow table at
# d=3 N=64 (43 x 64*64*33, 46 MiB), used by a few sweeps, is streamed.
_DECAY_CACHE: dict = {}
_DECAY_CACHE_MAX_ELEMS = 4_000_000
# field elements per block of times: 48 times of a two-component d=2 N=64 field
_BLOCK_ELEMS = 48 * 2 * 64**2


def _half_decay(grid, times: np.ndarray) -> np.ndarray | None:
    """exp(-t |xi|^2) on the rfft half-spectrum for every t, cached while
    small enough to keep; None tells the caller to stream per chunk."""
    half = grid.N // 2 + 1
    if times.size * grid.ksq.size // grid.N * half > _DECAY_CACHE_MAX_ELEMS:
        return None
    key = (grid.d, grid.N, grid.L, times.tobytes())
    hit = _DECAY_CACHE.get(key)
    if hit is None:
        ksq_half = grid.ksq[..., :half]
        shape = (-1,) + (1,) * grid.d
        hit = np.exp(-times.reshape(shape) * ksq_half[None])
        if len(_DECAY_CACHE) >= 4:
            _DECAY_CACHE.pop(next(iter(_DECAY_CACHE)))
        _DECAY_CACHE[key] = hit
    return hit


def _heat_norms(f: SpectralField, symbols: list, times: np.ndarray, p: float) -> np.ndarray:
    """|e^{tD} F|_{L^p} for every t, p in [2, inf], batched over times.

    F stacks symbol * component for every symbol (arrays broadcastable to
    the grid). One symbol's components are transformed at a time and the
    pointwise |.|^2 accumulated, so the whole stack is never held. Rows
    that are conjugate-symmetric take a half-spectrum irfft path; the test
    is made per symbol, since a derivative symbol breaks the symmetry on
    the Nyquist rows of symmetric data.
    """
    g = f.grid
    axes = tuple(range(2, 2 + g.d))
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    half = g.N // 2 + 1
    ksq_h = g.ksq[..., :half]
    hermitian = [conjugate_asymmetry(f.data * sym, g.d) <= HERMITIAN_RTOL for sym in symbols]
    cached = _half_decay(g, times) if any(hermitian) else None
    chunk = max(1, _BLOCK_ELEMS // (f.ncomp * g.ksq.size))
    out = np.empty(times.size)

    for lo in range(0, times.size, chunk):
        tt = times[lo : lo + chunk]
        msq = 0.0
        for sym, herm in zip(symbols, hermitian):
            if herm:
                if cached is not None:
                    decay = cached[lo : lo + tt.size]
                else:
                    decay = np.exp(-tt.reshape((-1,) + (1,) * g.d) * ksq_h[None])
                base_h = f.data[..., :half] * sym[..., :half]
                block = np.fft.irfftn(
                    base_h[None] * decay[:, None], s=g.shape, axes=axes, norm="ortho"
                )
                msq = msq + np.sum(block * block, axis=1)
            else:
                decay = np.exp(-tt.reshape((-1, 1) + (1,) * g.d) * g.ksq[None, None])
                block = np.fft.ifftn((f.data * sym)[None] * decay, axes=axes, norm="ortho")
                msq = msq + np.sum(np.abs(block) ** 2, axis=1)
        if np.isinf(p):
            out[lo : lo + tt.size] = np.sqrt(np.max(msq, axis=sp))
        else:
            out[lo : lo + tt.size] = (vol * np.sum(msq ** (p / 2.0), axis=sp)) ** (1.0 / p)
    return out


def _derivative_symbols(grid, k: int) -> list:
    """The symbols (i xi_a1)...(i xi_ak) of all d^k order-k derivatives."""
    symbols = [np.ones((1,) * grid.d)]
    for _ in range(k):
        symbols = [
            sym * (1j * grid.axis_frequency(ax)) for sym in symbols for ax in range(grid.d)
        ]
    return symbols


def _l2_over_times(f: SpectralField, k: int, times: np.ndarray) -> np.ndarray:
    """|grad^k e^{tD} f|_{L^2} for every t, summed over shells of equal |xi|^2."""
    g = f.grid
    shells, index = np.unique(g.ksq, return_inverse=True)
    coeff_sq = np.sum(np.abs(f.data) ** 2, axis=0)
    mass = np.bincount(index.ravel(), weights=coeff_sq.ravel()) * shells**k
    return np.sqrt(g.cell_volume * (np.exp(-2.0 * np.outer(times, shells)) @ mass))


def check_linear_estimates(
    f_omega: SpectralField,
    s: float,
    k: int,
    t_grid: np.ndarray,
) -> LinearEstimateReport:
    """Sample |grad^k e^{tD} f| in L2 and Linf and compare to the envelopes.

    Returns one report per norm, each carrying the max bounded-constant
    ratio and the fitted small-time slope.
    """
    if f_omega.space != FOURIER:
        raise ValueError("check_linear_estimates expects fourier-space data")
    if k not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
    times = np.sort(np.asarray(t_grid, dtype=np.float64))
    if times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(times > 0):
        raise ValueError("decay times must be positive")

    g = f_omega.grid
    hnorm = hminus_s_norm(f_omega, s)
    l2_vals = _l2_over_times(f_omega, k, times)
    linf_vals = _heat_norms(f_omega, _derivative_symbols(g, k), times, np.inf)

    d = g.d
    l2_env = (1.0 + times ** (-(s + k) / 2.0)) * hnorm
    linf_env_core = np.maximum(times**-1.0, times ** (-(k + s + d / 2.0)))
    linf_env = linf_env_core * hnorm
    linf_env_sqrt = np.sqrt(linf_env_core) * hnorm

    window = small_time_window(g)
    l2_report = DecayReport(
        k=k,
        norm_kind="L2",
        times=times,
        values=l2_vals,
        ratios=l2_vals / l2_env,
        bound_constant=float(np.max(l2_vals / l2_env)),
        fitted_slope=_fit_loglog_slope(times, l2_vals, window),
    )
    linf_report = DecayReport(
        k=k,
        norm_kind="Linf",
        times=times,
        values=linf_vals,
        ratios=linf_vals / linf_env,
        bound_constant=float(np.max(linf_vals / linf_env)),
        fitted_slope=_fit_loglog_slope(times, linf_vals, window),
    )
    return LinearEstimateReport(
        l2=l2_report,
        linf=linf_report,
        linf_sqrt_bound_constant=float(np.max(linf_vals / linf_env_sqrt)),
    )


@dataclass(frozen=True)
class CondgReport:
    """Suprema of the forcing-envelope ratios of g = e^{tD} f."""

    times: np.ndarray
    l2_ratios: np.ndarray
    linf_ratios: dict
    sup_l2: float
    sup_linf: dict


def _condg_from_sweeps(
    times: np.ndarray, s: float, d: int, l2_k0: np.ndarray, linf: dict
) -> CondgReport:
    """The condg ratios from sampled |g|_{L2} and the Linf norms of the
    order-k derivatives of g, linf[k] for k = 0, 1."""
    l2_ratios = l2_k0 / (1.0 + times ** (-s / 2.0))
    linf_ratios = {
        k: linf[k] / np.sqrt(np.maximum(times**-1.0, times ** (-(k + s + d / 2.0))))
        for k in (0, 1)
    }
    return CondgReport(
        times=times,
        l2_ratios=l2_ratios,
        linf_ratios=linf_ratios,
        sup_l2=float(l2_ratios.max()),
        sup_linf={k: float(v.max()) for k, v in linf_ratios.items()},
    )


def condg_check(f_omega: SpectralField, s: float, t_grid: np.ndarray) -> CondgReport:
    """Ratios of g's norms against the forcing envelopes (1 + t^{-s/2}) in
    L2 and the square-rooted max bracket in Linf for k = 0, 1."""
    if f_omega.space != FOURIER:
        raise ValueError("condg_check expects fourier-space data")
    times = np.sort(np.asarray(t_grid, dtype=np.float64))
    if times.size == 0 or not np.all(times > 0):
        raise ValueError("condg_check needs a nonempty positive time grid")
    g = f_omega.grid
    linf = {k: _heat_norms(f_omega, _derivative_symbols(g, k), times, np.inf) for k in (0, 1)}
    return _condg_from_sweeps(times, s, g.d, _l2_over_times(f_omega, 0, times), linf)
