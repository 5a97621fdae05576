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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .randomization import hminus_s_norm
from .spectral import (
    FOURIER,
    SpectralField,
    _band_passes,
    fourier_field,
    require_real_field,
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
    """Coefficientwise multiplication by exp(-t |xi|^2); t finite and >= 0."""
    if f.space != FOURIER:
        raise ValueError("heat semigroup acts on fourier-space fields")
    # NaN would fill the field with NaN, and inf the zero mode (-inf * 0)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"heat semigroup needs a finite t >= 0, got {t}")
    return fourier_field(f.grid, f.data * np.exp(-t * f.grid.ksq))


@dataclass(frozen=True)
class DecayReport:
    """Sampled norm decay of one derivative order in one norm.

    bound_constant is the largest sampled ratio value/envelope; the slope
    is a least-squares fit of log(value) on log(t) over the small-time
    window where the resolved band dominates.
    """

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


# A sweep runs a block of times at a time. Each block's decay exp(-t |xi|^2)
# is formed on the lattice's |xi|^2 shells (Grid.ksq_shells: 506 at d=2 N=64,
# 3,295 at d=3 N=64) and gathered onto the half lattice, in buffers of the
# call, so no decay table outlives a sweep and the tails worker threads share
# none; one decay block serves all the symbols and components of its block.
# _BLOCK_ELEMS is the grid points per one-component block of times: 24 times
# at d=2 N=64, 3 at d=3 N=32, one time at d=3 N=64
_BLOCK_ELEMS = 24 * 64**2
# the full-lattice mass a block may drop, relative to N^-d times the mass
# it keeps: then the dropped modes together move each point value by at
# most 2^-53 of the largest, at most one rounding of that value, which can
# still flip a last bit (see _block_radii)
_DROPPED_MASS_RATIO = 2.0**-106


def _require_sweep_space(f: SpectralField):
    """Refuse a field the heat sweeps cannot take because it is not in
    fourier space: the first of _SweepField's checks, which condtg_check
    runs before it forms its bracket field on the half lattice."""
    if f.space != FOURIER:
        raise ValueError("heat sweep data must be a fourier-space field")


class _SweepField:
    """A field the heat sweeps accept, checked once: in fourier space, real
    (its planes 0 and N/2 conjugate-symmetric) and zero on its Nyquist
    rows. The sweeps and decay checks of one field (heatflow's orders k,
    condg's two sweeps) share the check, the H^{-s} norms and the |xi|^2
    shell masses; transforms counts the one-time, one-component transforms
    their sweeps ran, and pruned_transforms those of them that ran on a
    cube smaller than the half lattice."""

    def __init__(self, f: SpectralField):
        _require_sweep_space(f)
        require_real_field("heat sweep data", f)
        if np.any(f.data[:, f.grid.nyquist_mask]):
            # a derivative symbol would break the conjugate symmetry there
            raise ValueError("heat sweep data has content on its Nyquist rows; "
                             "the sweeps need it zero there")
        self.f = f
        self.transforms = 0
        self.pruned_transforms = 0
        self._hnorms = {}

    def hnorm(self, s: float) -> float:
        if s not in self._hnorms:
            self._hnorms[s] = hminus_s_norm(self.f, s)
        return self._hnorms[s]

    def _shell_sums(self, scale, index: np.ndarray, count: int) -> np.ndarray:
        """scale * sum_c |a_c|^2, the components summed in order one at a
        time, summed on each of the count shells that the half-lattice
        array index labels."""
        coeff_sq = np.abs(self.f.data[0])
        coeff_sq **= 2
        for c in range(1, self.f.ncomp):
            term = np.abs(self.f.data[c])
            term **= 2
            coeff_sq += term
        coeff_sq *= scale
        return np.bincount(index.ravel(), weights=coeff_sq.ravel(), minlength=count)

    @cached_property
    def ksq_shells(self) -> tuple:
        """The distinct |xi|^2 of the lattice (the grid's shells,
        Grid.ksq_shells) and the |a|^2 on each over the whole lattice,
        counted with the half lattice's Parseval weights."""
        shells, index = self.f.grid.ksq_shells
        return shells, self._shell_sums(self.f.grid.weight, index, shells.size)


def _block_radii(mass: np.ndarray, grid, t_first: np.ndarray,
                 t_last: np.ndarray) -> np.ndarray:
    """For each block of a sweep, over times t_first..t_last, the smallest
    box radius k whose cube |k_i| <= k the block may keep alone: the mass it
    drops moves no value by more than one rounding.

    mass[r] is the half lattice's |symbol * a|^2 on the box shell
    max_i |k_i| = r, summed over symbols and components. A mode on shell r
    has r^2 <= |k|^2 <= d r^2 (lattice units 2 pi / L), so the mass beyond
    k is at most sum_{r > k} mass[r] exp(-2 t_first |xi_r|^2), and the kept
    mass is at least sum_{r <= k} mass[r] exp(-2 t_last d |xi_r|^2); on the
    full lattice the first at most doubles and the second does not shrink.
    The data decide the radius, not t |xi|^2 alone: a field whose content
    lies only at high |xi| keeps it however far it decays.

    The rule keeps dropped <= 2^-106 N^-d kept. A point value's change is
    at most the root of the dropped mass (unitary transform) and the
    largest point value is at least the root of N^-d times the kept mass,
    so the change is at most 2^-53 of the largest value, and for p < inf
    at most 2^-53 of the L^p norm: at most one rounding, not none. A
    change that small can still flip the last bit of a norm (of the first
    60 draws of tails' d=2 N=64 run at seed 20260810, draw 12 moves by
    2.2e-16 relative at 6, 2 or 1 times per block; none moves at the
    shipped _BLOCK_ELEMS), so equal bits are what the oracle and artifact
    tests check, not what the rule guarantees."""
    r_sq = (2.0 * np.pi / grid.L) ** 2 * np.arange(mass.size, dtype=np.float64) ** 2
    tail = np.cumsum((mass * np.exp(-2.0 * t_first[:, None] * r_sq))[:, ::-1], axis=1)
    beyond = np.zeros_like(tail)
    beyond[:, :-1] = tail[:, -2::-1]
    kept = np.cumsum(mass * np.exp(-2.0 * t_last[:, None] * grid.d * r_sq), axis=1)
    fits = 2.0 * beyond <= _DROPPED_MASS_RATIO / float(grid.N) ** grid.d * kept
    return np.argmax(fits, axis=1)


def _heat_norms(field: _SweepField, symbols: list, times: np.ndarray,
                exponents: tuple) -> np.ndarray:
    """|e^{tD} F|_{L^p} for every t and every p in exponents, each in
    [2, inf], batched over times: the one sweep is reduced once per
    exponent, one row per exponent.

    F stacks symbol * component for every symbol (arrays broadcastable to
    the half lattice) and every component of f = field.f, the field the
    _SweepField checked. For each block of times, every
    symbol * component is transformed on its own and its pointwise |.|^2
    accumulated, so neither the stack nor one symbol's components are ever
    held together: the components of a symbol are summed in order into one
    array, and that sum is added to the block's total, the grouping
    np.sum(axis=1) over the stack would use. f is real and zero on its
    Nyquist rows, so every symbol * component is conjugate-symmetric and
    the sweep runs on the rfft half spectrum.

    The sweep runs in one-component work arrays allocated once per call
    and reused for every time block, symbol and component: each
    component is read in place from the field, an all-ones symbol is not
    multiplied by at all (a * 1 is a), component * symbol is formed in the
    block itself and multiplied by the decay there, one decay block per
    time block serves all symbols and components, and the block is
    inverse-transformed axis by axis in place (ifft over the leading axes,
    then irfft into the real block), the same 1-D transforms irfftn runs,
    so the bits match it. The decay block is exp(-t |xi|^2) formed on the
    lattice's |xi|^2 shells for each time of the block and gathered onto
    the half lattice by the shell index (Grid.ksq_shells), both in buffers
    of the call: each mode gets the same two ufuncs on the same doubles as
    exp(-t * ksq), so the same bits, and no array of every time by the
    lattice is ever held.

    Band pruning: before each block of times the sweep picks the smallest
    cube |k_i| <= k whose dropped modes move no value by more than one
    rounding (_block_radii, from the box-shell masses of the data and
    symbols, summed once per call). The cube of radius N/2 - 1 already
    holds all of the data, whose Nyquist rows are zero; when the chosen
    cube is smaller, the block forms data * symbol * decay on the cube only
    (Grid.band_boxes, the boxes of band(k)) in the zeroed work
    array, runs each leading-axis pass only on the lines that carry the
    cube (spectral._band_passes, the transport kernel's passes), and the
    last-axis irfft on the work array, which is zero beyond plane k. A
    skipped line is all zero, and an FFT of zeros is zero, so the kept
    values are those of the whole-array transform with the dropped modes
    set to zero, which the rule bounds by one rounding. The
    buffers belong to the call, not the module: tails workers run sweeps
    on several threads at once.
    """
    f = field.f
    g = f.grid
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    chunk = max(1, _BLOCK_ELEMS // math.prod(g.shape))
    rows = min(chunk, times.size)
    out = np.empty((len(exponents), times.size))
    msq = np.empty((rows,) + g.shape)
    # a second symbol's sum, and acc^(p/2) for every exponent but the last
    sym_sq = (np.empty((rows,) + g.shape) if len(symbols) > 1 or len(exponents) > 1
              else None)
    syms_h = [None if np.all(sym == 1.0) else sym for sym in symbols]
    # the masses _block_radii bounds: |symbol * a|^2 on each box shell
    # max_i |k_i| = r, summed over the symbols and components
    mass = field._shell_sums(sum(1.0 if sym_h is None else np.abs(sym_h) ** 2
                                 for sym_h in syms_h), g.box_radius(), g.N // 2 + 1)
    # broadcast to the whole half lattice, so that a box of it is a view
    syms_h = [sym_h if sym_h is None else np.broadcast_to(sym_h, g.half_shape)
              for sym_h in syms_h]
    shells, shell_index = g.ksq_shells
    # one time block's decay on the shells, and gathered onto the half lattice
    shell_decay = np.empty((rows, shells.size))
    decay_block = np.empty((rows,) + g.half_shape)
    block = np.empty((rows,) + g.half_shape, dtype=np.complex128)
    real = np.empty((rows,) + g.shape)
    starts = np.arange(0, times.size, chunk)
    radii = _block_radii(mass, g, times[starts], times[np.minimum(starts + chunk, times.size) - 1])
    # the cube of radius N/2 - 1 drops only the Nyquist rows, zero in the
    # data: such a block runs on the whole array
    radii[radii >= g.N // 2 - 1] = g.N // 2
    # the block array's last-axis planes from `dirty` on are zero (at
    # first none is known to be)
    dirty = g.N // 2 + 1

    for lo, k in zip(starts, radii.tolist()):
        tt = times[lo : lo + chunk]
        n = tt.size
        acc = msq[:n]
        on_shells = shell_decay[:n]
        np.multiply(-tt[:, None], shells, out=on_shells)
        np.exp(on_shells, out=on_shells)
        decay = decay_block[:n]
        # mode="clip" writes straight into decay; every index is in range
        np.take(on_shells, shell_index, axis=1, mode="clip", out=decay)
        hb, rb = block[:n], real[:n]
        pruned = k < g.N // 2
        field.transforms += n * len(symbols) * f.ncomp
        if pruned:
            field.pruned_transforms += n * len(symbols) * f.ncomp
        # the cube's boxes; at k = N/2 one box, the whole array
        boxes = g.band_boxes(k)
        for n_sym, sym_h in enumerate(syms_h):
            # the first symbol sums its components straight into acc, the
            # others into sym_sq, which is then added to acc
            total = acc if n_sym == 0 else sym_sq[:n]
            for c in range(f.ncomp):
                if pruned:
                    # the passes read whole lines through the cube: clear
                    # what earlier transforms left off it
                    hb[..., :dirty].fill(0.0)
                dirty = k + 1
                for box in boxes:
                    cube = hb[(slice(None),) + box]
                    if sym_h is None:
                        np.multiply(f.data[c][box], decay[(slice(None),) + box], out=cube)
                    else:
                        # (a * sym) * decay, the product formed in the cube
                        np.multiply(f.data[c][box], sym_h[box], out=cube)
                        cube *= decay[(slice(None),) + box]
                _band_passes(hb, k, sp[:-1], np.fft.ifft)
                np.fft.irfft(hb, n=g.N, axis=sp[-1], norm="ortho", out=rb)
                if c == 0:
                    np.multiply(rb, rb, out=total)
                else:
                    np.multiply(rb, rb, out=rb)
                    total += rb
            if n_sym:
                acc += total
        for i, (row, pk) in enumerate(zip(out, exponents)):
            if np.isinf(pk):
                row[lo : lo + n] = np.sqrt(np.max(acc, axis=sp))
                continue
            # the last exponent raises acc itself, which the next block
            # overwrites; an earlier one raises it into sym_sq
            if i + 1 < len(exponents):
                powered = np.power(acc, pk / 2.0, out=sym_sq[:n])
            else:
                powered = acc
                powered **= pk / 2.0
            row[lo : lo + n] = (vol * np.sum(powered, axis=sp)) ** (1.0 / pk)
    return out


def _derivative_symbols(grid, k: int) -> list:
    """The symbols (i xi_a1)...(i xi_ak) of all d^k order-k derivatives."""
    symbols = [np.ones((1,) * grid.d)]
    for _ in range(k):
        symbols = [
            sym * (1j * grid.axis_frequency(ax)) for sym in symbols for ax in range(grid.d)
        ]
    return symbols


def _decay_times(t_grid) -> np.ndarray:
    """The decay times of t_grid in increasing order, refused unless there
    is at least one, all are positive and none repeats: checked before any
    sweep runs, since a DecayReport takes strictly increasing times."""
    times = np.sort(np.asarray(t_grid, dtype=np.float64))
    if times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(times > 0):
        raise ValueError("decay times must be positive")
    repeated = times[1:][np.diff(times) == 0]
    if repeated.size:
        raise ValueError(f"decay times must not repeat; {repeated[0]:g} does")
    return times


def _l2_over_times(field: _SweepField, k: int, times: np.ndarray) -> np.ndarray:
    """|grad^k e^{tD} f|_{L^2} for every t, summed over shells of equal |xi|^2."""
    shells, coeff_mass = field.ksq_shells
    mass = coeff_mass * shells**k
    return np.sqrt(field.f.grid.cell_volume * (np.exp(-2.0 * np.outer(times, shells)) @ mass))


def check_linear_estimates(
    f_omega: SpectralField,
    s: float,
    k: int,
    t_grid: np.ndarray,
) -> LinearEstimateReport:
    """Sample |grad^k e^{tD} f| in L2 and Linf and compare to the envelopes.

    Returns one report per norm, each carrying the max bounded-constant
    ratio and the fitted small-time slope. f_omega may also be a
    _SweepField, which a caller checking several orders of one field
    (heatflow) builds once, so that they share its checks, H^{-s}
    norm and |xi|^2 shell masses.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
    times = _decay_times(t_grid)

    field = f_omega if isinstance(f_omega, _SweepField) else _SweepField(f_omega)
    g = field.f.grid
    hnorm = field.hnorm(s)
    l2_vals = _l2_over_times(field, k, times)
    linf_vals = _heat_norms(field, _derivative_symbols(g, k), times, (np.inf,))[0]

    d = g.d
    l2_env = (1.0 + times ** (-(s + k) / 2.0)) * hnorm
    linf_env_core = np.maximum(times**-1.0, times ** (-(k + s + d / 2.0)))
    linf_env = linf_env_core * hnorm
    linf_env_sqrt = np.sqrt(linf_env_core) * hnorm

    l2_report = DecayReport(
        times=times,
        values=l2_vals,
        ratios=l2_vals / l2_env,
        bound_constant=float(np.max(l2_vals / l2_env)),
        fitted_slope=_fit_loglog_slope(times, l2_vals, g),
    )
    linf_report = DecayReport(
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
    times = _decay_times(t_grid)
    field = _SweepField(f_omega)
    g = f_omega.grid
    linf = {k: _heat_norms(field, _derivative_symbols(g, k), times, (np.inf,))[0]
            for k in (0, 1)}
    return _condg_from_sweeps(times, s, g.d, _l2_over_times(field, 0, times), linf)
