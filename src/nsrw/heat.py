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

import itertools
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
    "linear_estimates",
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
# none; one decay block serves all the derivatives and components of its
# block.
# _BLOCK_ELEMS is the grid points per one-component block of times: 24 times
# at d=2 N=64, 3 at d=3 N=32, one time at d=3 N=64
_BLOCK_ELEMS = 24 * 64**2
# the full-lattice mass a block may drop, relative to N^-d times the mass
# it keeps: then the dropped modes together move each point value by at
# most 2^-53 of the largest, at most one rounding of that value, which can
# still flip a last bit (see _block_radii)
_DROPPED_MASS_RATIO = 2.0**-106


class _SweepField:
    """A field the heat sweeps accept, checked once: in fourier space, real
    (its planes 0 and N/2 conjugate-symmetric) and zero on its Nyquist
    rows. With a symbol, a real even multiplier (|xi|^sigma), it holds
    symbol * f, real and zero on those rows too. The decay checks of one
    field (heatflow's orders k and condg) share the check, the H^{-s} norms
    and the |xi|^2 shell masses.
    transforms counts the derivative fields their sweeps formed, one per
    time, component and distinct derivative (_sweep_branches), each one
    last-axis irfft; pruned_transforms those of them that ran on a cube
    smaller than the half lattice; fft_lines the 1-D lines that the
    sweeps' leading-axis passes and last-axis irffts ran."""

    def __init__(self, f: SpectralField, symbol: np.ndarray | None = None):
        if f.space != FOURIER:
            raise ValueError("heat sweep data must be a fourier-space field")
        require_real_field("heat sweep data", f)
        if np.any(f.data[:, f.grid.nyquist_mask]):
            # a derivative symbol would break the conjugate symmetry there
            raise ValueError("heat sweep data has content on its Nyquist rows; "
                             "the sweeps need it zero there")
        self.f = f if symbol is None else fourier_field(f.grid, f.data * symbol)
        self.transforms = 0
        self.pruned_transforms = 0
        self.fft_lines = 0
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


def _derivative_symbols(grid, k: int) -> list:
    """The symbols (i xi_a1)...(i xi_ak) of all d^k order-k derivatives,
    whose |.|^2 weigh the box-shell masses of order k (_SweepPlan)."""
    symbols = [np.ones((1,) * grid.d)]
    for _ in range(k):
        symbols = [
            sym * (1j * grid.axis_frequency(ax)) for sym in symbols for ax in range(grid.d)
        ]
    return symbols


def _sweep_branches(d: int, orders: tuple) -> dict:
    """The derivatives of each order k in orders, grouped by branch.

    Each derivative is (i xi_a1)...(i xi_ak) with a1 <= ... <= ak, counted
    once and weighted by its number of orderings (2 for a mixed second
    partial), so its weighted |.|^2 sums to the one over all d^k. Its
    leading-axis factors, the a < d - 1, are its lead: the branch it runs
    on. Returns lead -> [(m, i, weight)]: the derivative of orders[i] that
    multiplies the lead's spectrum by (i xi_last)^m after the passes."""
    branches = {}
    for i, k in enumerate(orders):
        for axes in itertools.combinations_with_replacement(range(d), k):
            m = axes.count(d - 1)
            weight = len(set(itertools.permutations(axes)))
            branches.setdefault(axes[: k - m], []).append((m, i, weight))
    return branches


class _SweepPlan:
    """What the blocks of one heat sweep share: the field, its times in
    blocks of chunk, each block's radius, and the branches that evaluate
    the derivatives of each order in orders (_sweep_branches).

    A factor i xi_a is constant along the lines of every other axis, so
    it commutes with their passes: each derivative takes its factors just
    before the pass along their axis, or, on the last axis, just before
    the last-axis irfft. The derivatives then share every pass before
    their first factor with order 0's transform, the trunk:
    - axis0 holds the branches with a factor on axis 0. They run first,
      each from a * E formed anew in the block array.
    - Then a * E goes through pass 0 in the block array (trunk).
    - After pass 0 a branch's lines are independent across axis 0, so the
      rest of it runs in slabs of `slab` leading rows: N/8 when some
      branch needs a copy (`later`, the branches whose first factor is on
      axis 1, d = 3), the whole axis when none does. Each of later's
      branches copies the trunk's slab times its factor into the slab
      array and runs its passes there; then the trunk runs its passes on
      the slab in place.
    - A branch's last-axis factors multiply its spectrum in place, one
      per output, each after the irfft of the output before, which leaves
      the spectrum as it was.
    At d = 3 orders 0 and 1 run 5 leading-axis passes and 4 irffts per
    component and time where one transform per derivative runs 8 and 4.
    The outputs of each order are summed in the order they run; first
    marks the one that starts the sum.
    """

    def __init__(self, field: _SweepField, times: np.ndarray, orders: tuple):
        g = field.f.grid
        self.field, self.grid, self.times, self.orders = field, g, times, orders
        self.chunk = max(1, _BLOCK_ELEMS // math.prod(g.shape))
        self.rows = min(self.chunk, times.size)
        self.shells, self.shell_index = g.ksq_shells
        self.factors = [1j * g.axis_frequency(ax) for ax in range(g.d)]
        # axis 0's factor is applied on the cube's boxes, views of the
        # half lattice
        self.factor0 = np.broadcast_to(self.factors[0], g.half_shape)
        branches = _sweep_branches(g.d, orders)
        self.outputs = sum(len(outs) for outs in branches.values())
        started = set()

        def marked(outs):
            out = [(m, i, w, i not in started) for m, i, w in sorted(outs)]
            started.update(i for _, i, _ in outs)
            return out

        self.axis0 = [(lead, marked(branches[lead])) for lead in sorted(branches)
                      if lead and lead[0] == 0]
        self.later = [(lead, marked(branches[lead])) for lead in sorted(branches)
                      if lead and lead[0] > 0]
        self.trunk = ((), marked(branches[()]))
        self.slab = max(1, g.N // 8) if self.later else g.N
        starts = np.arange(0, times.size, self.chunk)
        self.starts = starts.tolist()
        t_first = times[starts]
        t_last = times[np.minimum(starts + self.chunk, times.size) - 1]
        # each order's radii from its box-shell masses, |symbol * a|^2
        # summed over its d^k symbols and the components; a block keeps
        # the larger, which drops less
        box = g.box_radius()
        radii = np.max([_block_radii(field._shell_sums(
            sum(np.abs(sym) ** 2 for sym in _derivative_symbols(g, k)), box, g.N // 2 + 1),
            g, t_first, t_last) for k in orders], axis=0)
        # the cube of radius N/2 - 1 drops only the Nyquist rows, zero in the
        # data: such a block runs on the whole array
        radii[radii >= g.N // 2 - 1] = g.N // 2
        self.radii = radii.tolist()


class _SweepWork:
    """The work arrays of a sweep's blocks, allocated once per sweep and
    reused by every block: the block's decay on the |xi|^2 shells and
    gathered onto the half lattice, the one-component block array, one
    sum per order, and a slab of real rows (the irfft outputs) and of
    spectrum rows (the later branches' copies). The last-axis planes of
    the block and slab arrays from block_dirty and slab_dirty on are zero
    (at first none is known to be)."""

    def __init__(self, plan: _SweepPlan):
        g, rows = plan.grid, plan.rows
        self.shell_decay = np.empty((rows, plan.shells.size))
        self.decay = np.empty((rows,) + g.half_shape)
        self.block = np.empty((rows,) + g.half_shape, dtype=np.complex128)
        self.sums = np.empty((len(plan.orders), rows) + g.shape)
        self.real = np.empty((rows, plan.slab) + g.shape[1:])
        self.slab = (np.empty((rows, plan.slab) + g.half_shape[1:], dtype=np.complex128)
                     if plan.later else None)
        self.block_dirty = self.slab_dirty = g.N // 2 + 1

    def real_view(self, shape: tuple) -> np.ndarray:
        """A C-contiguous real array of shape in the block array's memory,
        whose contents it spends."""
        self.block_dirty = self.block.shape[-1]
        return self.block.reshape(-1).view(np.float64)[: math.prod(shape)].reshape(shape)


def _load(plan: _SweepPlan, work: _SweepWork, hb: np.ndarray, a: np.ndarray,
          decay: np.ndarray, boxes: list, k: int, count: int):
    """hb = a * E on the block's cube (its boxes, whole at k = N/2), times
    axis 0's factor count times, and zero elsewhere."""
    if k + 1 < hb.shape[-1]:
        # the passes read whole lines through the cube: clear what earlier
        # transforms left off it
        hb[..., : work.block_dirty].fill(0.0)
    work.block_dirty = k + 1
    for box in boxes:
        cube = hb[(slice(None),) + box]
        np.multiply(a[box], decay[(slice(None),) + box], out=cube)
        for _ in range(count):
            cube *= plan.factor0[box]


def _passes(plan: _SweepPlan, spec: np.ndarray, lead: tuple, k: int, applied: int) -> int:
    """A branch's passes past axis 0 on spec, a slab of axis-0 rows, each
    after its factors on that axis but the first `applied` of them.
    Returns the lines transformed."""
    lines = 0
    for ax in range(1, plan.grid.d - 1):
        for _ in range(lead.count(ax) - (applied if lead and lead[0] == ax else 0)):
            spec[..., : k + 1] *= plan.factors[ax][..., : k + 1]
        # (_band_passes reads no row count off the slab for these axes)
        lines += _band_passes(spec, k, (ax + 1,), np.fft.ifft)
    return lines


def _finish(plan: _SweepPlan, spec: np.ndarray, real: np.ndarray, sums: np.ndarray,
            outputs: list, k: int, c: int) -> int:
    """A branch's outputs from its spectrum spec after every leading pass:
    for each (m, i, weight, first) in increasing m, spec times
    (i xi_last)^m, multiplied in place on the planes <= k, its irfft
    into real, and weight * real^2 summed into sums[i] (set by the first
    output of component 0). Returns the lines transformed."""
    lines, done = 0, 0
    for m, i, weight, first in outputs:
        for _ in range(m - done):
            spec[..., : k + 1] *= plan.factors[-1][..., : k + 1]
        done = m
        np.fft.irfft(spec, n=plan.grid.N, axis=-1, norm="ortho", out=real)
        lines += real.size // real.shape[-1]
        total = sums[i]
        if first and c == 0:
            np.multiply(real, real, out=total)
            if weight != 1:
                total *= weight
        else:
            np.multiply(real, real, out=real)
            if weight != 1:
                real *= weight
            total += real
    return lines


def _after_pass0(plan: _SweepPlan, work: _SweepWork, hb: np.ndarray, k: int, c: int,
                 copies: list, branch: tuple) -> int:
    """Every branch in copies, then branch, from the block array hb after
    pass 0, one slab of axis-0 rows at a time: each copy in the slab
    array from the slab times its first factor, branch in hb itself.
    Returns the lines transformed."""
    n, lines = hb.shape[0], 0
    for r in range(0, plan.grid.N, plan.slab):
        part = slice(r, r + plan.slab)
        spec, sums = hb[:, part], work.sums[:, :n, part]
        real = work.real[:n, : spec.shape[1]]
        for lead, outputs in copies:
            s = work.slab[:n, : spec.shape[1]]
            np.multiply(spec[..., : k + 1], plan.factors[lead[0]][..., : k + 1],
                        out=s[..., : k + 1])
            lines += _passes(plan, s, lead, k, 1)
            lines += _finish(plan, s, real, sums, outputs, k, c)
        lead, outputs = branch
        lines += _passes(plan, spec, lead, k, 0)
        lines += _finish(plan, spec, real, sums, outputs, k, c)
    return lines


def _sweep_block(plan: _SweepPlan, work: _SweepWork, lo: int, k: int) -> int:
    """The block of times from times[lo] at radius k: the sum over the
    components and derivatives of each order of the squared derivative
    fields, into work.sums[:, :n], n the block's times. Returns the lines
    its leading-axis passes and last-axis irffts ran."""
    g, data = plan.grid, plan.field.f.data
    tt = plan.times[lo : lo + plan.chunk]
    n = tt.size
    on_shells = work.shell_decay[:n]
    np.multiply(-tt[:, None], plan.shells, out=on_shells)
    np.exp(on_shells, out=on_shells)
    decay = work.decay[:n]
    # mode="clip" writes straight into decay; every index is in range
    np.take(on_shells, plan.shell_index, axis=1, mode="clip", out=decay)
    hb = work.block[:n]
    # the cube's boxes; at k = N/2 one box, the whole array
    boxes = g.band_boxes(k)
    if work.slab is not None:
        # the slab array is written on the planes <= k only
        work.slab[..., k + 1 : work.slab_dirty].fill(0.0)
        work.slab_dirty = k + 1
    lines = 0
    for c in range(data.shape[0]):
        for lead, outputs in plan.axis0:
            _load(plan, work, hb, data[c], decay, boxes, k, lead.count(0))
            lines += _band_passes(hb, k, (1,), np.fft.ifft)
            lines += _after_pass0(plan, work, hb, k, c, [], (lead, outputs))
        _load(plan, work, hb, data[c], decay, boxes, k, 0)
        lines += _band_passes(hb, k, (1,), np.fft.ifft)
        lines += _after_pass0(plan, work, hb, k, c, plan.later, plan.trunk)
    return lines


def _heat_norms(field: _SweepField, times: np.ndarray, exponents: tuple,
                orders: tuple = (0,)) -> np.ndarray:
    """|grad^k e^{tD} f|_{L^p} for every k in orders, t in times and p in
    exponents, each p in [2, inf], f = field.f: out[i, j] is the row of
    times of orders[i] and exponents[j], the sweep of each order reduced
    once per exponent.

    grad^k f stacks the order-k derivatives of every component (see
    _SweepPlan, which shares the passes between them); a multiplier of f
    is the field's symbol (_SweepField). f is real and zero on its
    Nyquist rows, so every derivative is conjugate-symmetric and the sweep
    runs on the rfft half spectrum.

    The sweep runs a block of times at a time (_sweep_block) in
    one-component work arrays allocated once per call (_SweepWork): each
    component is read in place from the field, the block's decay
    exp(-t |xi|^2) is formed on the lattice's |xi|^2 shells and gathered
    onto the half lattice by the shell index (Grid.ksq_shells), each mode
    getting the same two ufuncs on the same doubles as exp(-t * ksq), and
    a * E is formed in the block array itself. The block is then
    inverse-transformed axis by axis in place (ifft over the leading axes,
    then irfft into the real block), the same 1-D transforms irfftn runs,
    so order 0's bits are irfftn's; a derivative's are those of the same
    transforms with its factors applied where the sweep applies them.

    Band pruning: before each block the sweep picks the smallest cube
    |k_i| <= k whose dropped modes move no value of any order by more than
    one rounding (_block_radii, the largest of the orders' radii). The
    cube of radius N/2 - 1 already holds all of the data, whose Nyquist
    rows are zero; when the chosen cube is smaller, the block forms
    a * E on the cube only (Grid.band_boxes) in the zeroed work array,
    runs each leading-axis pass only on the lines that carry the cube
    (spectral._band_passes, the transport kernel's passes), and the
    last-axis irfft on the work array, which is zero beyond plane k. A
    skipped line is all zero, and an FFT of zeros is zero, so the kept
    values are those of the whole-array transform with the dropped modes
    set to zero. The buffers belong to the call, not the module: tails
    workers run sweeps on several threads at once. field counts the
    transforms and lines the sweep ran."""
    plan = _SweepPlan(field, times, tuple(orders))
    work = _SweepWork(plan)
    g = plan.grid
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    out = np.empty((len(plan.orders), len(exponents), times.size))
    for lo, k in zip(plan.starts, plan.radii):
        field.fft_lines += _sweep_block(plan, work, lo, k)
        n = min(plan.chunk, times.size - lo)
        count = n * field.f.ncomp * plan.outputs
        field.transforms += count
        if k < g.N // 2:
            field.pruned_transforms += count
        for rows, total in zip(out, work.sums[:, :n]):
            for i, (row, pk) in enumerate(zip(rows, exponents)):
                if np.isinf(pk):
                    row[lo : lo + n] = np.sqrt(np.max(total, axis=sp))
                    continue
                # the last exponent raises the sum itself, which the next
                # block overwrites; an earlier one raises it into the
                # block array, free once the block's transforms have run
                if i + 1 < len(exponents):
                    powered = np.power(total, pk / 2.0, out=work.real_view(total.shape))
                else:
                    powered = total
                    powered **= pk / 2.0
                row[lo : lo + n] = (vol * np.sum(powered, axis=sp)) ** (1.0 / pk)
    return out


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


def linear_estimates(
    f_omega: SpectralField,
    s: float,
    orders,
    t_grid: np.ndarray,
) -> dict:
    """check_linear_estimates for each derivative order k in orders, keyed
    by k: the orders' Linf norms come from one heat sweep, which shares
    its passes between them (_SweepPlan). f_omega may also be a
    _SweepField, whose checks, H^{-s} norm and |xi|^2 shell masses the
    caller shares (heatflow reads condg off the same field).
    """
    orders = tuple(sorted(set(orders)))
    for k in orders:
        if k not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
    times = _decay_times(t_grid)
    field = f_omega if isinstance(f_omega, _SweepField) else _SweepField(f_omega)
    linf = _heat_norms(field, times, (np.inf,), orders)[:, 0]
    return {k: _linear_report(field, s, k, times, row) for k, row in zip(orders, linf)}


def check_linear_estimates(
    f_omega: SpectralField,
    s: float,
    k: int,
    t_grid: np.ndarray,
) -> LinearEstimateReport:
    """Sample |grad^k e^{tD} f| in L2 and Linf and compare to the envelopes.

    Returns one report per norm, each carrying the max bounded-constant
    ratio and the fitted small-time slope: linear_estimates of the one
    order k.
    """
    return linear_estimates(f_omega, s, (k,), t_grid)[k]


def _linear_report(field: _SweepField, s: float, k: int, times: np.ndarray,
                   linf_vals: np.ndarray) -> LinearEstimateReport:
    """The order-k report from its sampled Linf norms; the L2 norms are
    summed on the |xi|^2 shells."""
    g = field.f.grid
    hnorm = field.hnorm(s)
    l2_vals = _l2_over_times(field, k, times)

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
    linf = dict(enumerate(_heat_norms(field, times, (np.inf,), (0, 1))[:, 0]))
    return _condg_from_sweeps(times, s, f_omega.grid.d, _l2_over_times(field, 0, times), linf)
