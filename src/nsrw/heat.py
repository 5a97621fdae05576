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
from .spectral import FOURIER, SpectralField, fourier_field, require_real_field

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


def default_decay_time_grid(grid, T: float, points_per_decade: int) -> np.ndarray:
    lo, _ = small_time_window(grid)
    lo = min(lo, T / 10.0)
    decades = np.log10(T / lo)
    npts = max(int(round(decades * points_per_decade)) + 1, 8)
    return np.geomspace(lo, T, npts)


def _in_window(times: np.ndarray, grid) -> np.ndarray:
    """Which times lie in the slope-fit window of the grid."""
    lo, hi = small_time_window(grid)
    return (times >= lo * (1 - 1e-12)) & (times <= hi * (1 + 1e-12))


def _fit_loglog_slope(times: np.ndarray, values: np.ndarray, grid) -> float:
    sel = _in_window(times, grid) & (values > 0)
    if sel.sum() < 2:
        raise ValueError("time grid has fewer than 2 points in the slope-fit window")
    return float(np.polyfit(np.log(times[sel]), np.log(values[sel]), 1)[0])


# A table of up to 4M entries (32 MB) is kept: the Monte Carlo table, reused
# by every sample (385 x 64*33 at d=2 N=64, 0.8M), stays; the heatflow table
# at d=3 N=64 (43 x 64*64*33, 5.8M entries, 44 MiB), used by a few sweeps, is
# streamed one time block at a time. Either way one decay block per time
# block is shared by all the symbols and components of a sweep.
_DECAY_CACHE: dict = {}
_DECAY_CACHE_MAX_ELEMS = 4_000_000
# grid points per one-component block of times: 24 times at d=2 N=64, 3 at
# d=3 N=32, one time at d=3 N=64
_BLOCK_ELEMS = 24 * 64**2


def _half_decay(grid, times: np.ndarray) -> np.ndarray | None:
    """exp(-t |xi|^2) on the rfft half-spectrum for every t, cached while
    small enough to keep; None tells the caller to stream per chunk."""
    ksq_half = grid.half.ksq
    if times.size * ksq_half.size > _DECAY_CACHE_MAX_ELEMS:
        return None
    key = (grid.d, grid.N, grid.L, times.tobytes())
    hit = _DECAY_CACHE.get(key)
    if hit is None:
        shape = (-1,) + (1,) * grid.d
        hit = np.exp(-times.reshape(shape) * ksq_half[None])
        if len(_DECAY_CACHE) >= 4:
            _DECAY_CACHE.pop(next(iter(_DECAY_CACHE)))
        _DECAY_CACHE[key] = hit
    return hit


def _heat_norms(f: SpectralField, symbols: list, times: np.ndarray,
                exponents: tuple) -> np.ndarray:
    """|e^{tD} F|_{L^p} for every t and every p in exponents, each in
    [2, inf], batched over times: the one sweep is reduced once per
    exponent, one row per exponent.

    F stacks symbol * component for every symbol (arrays broadcastable to
    the grid) and every component of a field. For each block of times,
    every symbol * component is transformed on its own and its pointwise
    |.|^2 accumulated, so neither the stack nor one symbol's components
    are ever held together: the components of a symbol are summed in
    order into one array, and that sum is added to the block's total, the
    grouping np.sum(axis=1) over the stack would use. f must be real and
    zero on its Nyquist rows, so every symbol * component is
    conjugate-symmetric and the sweep runs on the rfft half spectrum.

    The sweep runs in one-component work arrays allocated once per call
    and reused for every time block, symbol and component: each
    component's half lattice is read in place from f.data, each symbol is
    cut to the half lattice once, one decay block per time block serves
    all symbols and components, and the block is inverse-transformed axis
    by axis in place (ifft over the leading axes, then irfft into the real
    block), the same 1-D transforms irfftn runs, so the bits match it.
    The buffers belong to the call, not the module: tails workers run
    sweeps on several threads at once.
    """
    require_real_field("heat sweep data", f)
    g = f.grid
    if np.any(f.data[:, g.nyquist_mask]):
        # a derivative symbol would break the conjugate symmetry there
        raise ValueError("heat sweep data has content on its Nyquist rows; "
                         "the sweeps need it zero there")
    half = g.half
    n_half = half.shape[-1]
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    chunk = max(1, _BLOCK_ELEMS // g.ksq.size)
    rows = min(chunk, times.size)
    out = np.empty((len(exponents), times.size))
    msq = np.empty((rows,) + g.shape)
    sym_sq = np.empty((rows,) + g.shape)
    syms_h = [half.cut(sym) for sym in symbols]
    cached = _half_decay(g, times)
    fs = np.empty(half.shape, dtype=np.complex128)
    block = np.empty((rows,) + half.shape, dtype=np.complex128)
    real = np.empty((rows,) + g.shape)

    for lo in range(0, times.size, chunk):
        tt = times[lo : lo + chunk]
        n = tt.size
        acc = msq[:n]
        if cached is not None:
            decay = cached[lo : lo + n]
        else:
            decay = np.exp(-tt.reshape((-1,) + (1,) * g.d) * half.ksq[None])
        hb, rb = block[:n], real[:n]
        for n_sym, sym_h in enumerate(syms_h):
            # the first symbol sums its components straight into acc, the
            # others into sym_sq, which is then added to acc
            total = acc if n_sym == 0 else sym_sq[:n]
            for c in range(f.ncomp):
                np.multiply(f.data[c][..., :n_half], sym_h, out=fs)
                np.multiply(fs[None], decay, out=hb)
                for ax in sp[:-1]:
                    np.fft.ifft(hb, axis=ax, norm="ortho", out=hb)
                np.fft.irfft(hb, n=g.N, axis=sp[-1], norm="ortho", out=rb)
                if c == 0:
                    np.multiply(rb, rb, out=total)
                else:
                    np.multiply(rb, rb, out=rb)
                    total += rb
            if n_sym:
                acc += total
        for row, pk in zip(out, exponents):
            if np.isinf(pk):
                row[lo : lo + n] = np.sqrt(np.max(acc, axis=sp))
            else:
                row[lo : lo + n] = (vol * np.sum(acc ** (pk / 2.0), axis=sp)) ** (1.0 / pk)
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
    # |a|^2 summed over the components in order, one component at a time
    coeff_sq = np.abs(f.data[0])
    coeff_sq **= 2
    for c in range(1, f.ncomp):
        term = np.abs(f.data[c])
        term **= 2
        coeff_sq += term
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
    linf_vals = _heat_norms(f_omega, _derivative_symbols(g, k), times, (np.inf,))[0]

    d = g.d
    l2_env = (1.0 + times ** (-(s + k) / 2.0)) * hnorm
    linf_env_core = np.maximum(times**-1.0, times ** (-(k + s + d / 2.0)))
    linf_env = linf_env_core * hnorm
    linf_env_sqrt = np.sqrt(linf_env_core) * hnorm

    l2_report = DecayReport(
        k=k,
        norm_kind="L2",
        times=times,
        values=l2_vals,
        ratios=l2_vals / l2_env,
        bound_constant=float(np.max(l2_vals / l2_env)),
        fitted_slope=_fit_loglog_slope(times, l2_vals, g),
    )
    linf_report = DecayReport(
        k=k,
        norm_kind="Linf",
        times=times,
        values=linf_vals,
        ratios=linf_vals / linf_env,
        bound_constant=float(np.max(linf_vals / linf_env)),
        fitted_slope=_fit_loglog_slope(times, linf_vals, g),
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
    linf = {k: _heat_norms(f_omega, _derivative_symbols(g, k), times, (np.inf,))[0]
            for k in (0, 1)}
    return _condg_from_sweeps(times, s, g.d, _l2_over_times(f_omega, 0, times), linf)
