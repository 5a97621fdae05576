import contextlib
import itertools
import math
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nsrw import _rng
from nsrw.data import default_tilt
from nsrw.heat import _BLOCK_ELEMS
from nsrw.randomization import hminus_s_norm
from nsrw.solver import solve
from nsrw.spectral import (
    TransportPlan,
    fourier_field,
    l2_norm,
    leray_project,
    make_grid,
    physical_field,
    projected_transport_half,
    transform,
    zero_mean,
    zero_nyquist,
    zeros_field,
)
from nsrw.tails import fit_gaussian_tail, sample_space_time_norms

TWO_PI = 2.0 * np.pi


def random_real_field(grid, ncomp=None, seed=0, scale=1.0):
    """Random real physical-space field, transformed to fourier space."""
    ncomp = grid.d if ncomp is None else ncomp
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((ncomp,) + grid.shape) * scale
    return transform(physical_field(grid, vals), "forward")


def random_divfree_field(grid, seed=0, scale=1.0):
    """Random real divergence-free mean-zero Nyquist-free field."""
    f = random_real_field(grid, grid.d, seed, scale)
    return zero_mean(zero_nyquist(leray_project(f)))


def single_mode_field(grid, mode, amplitudes):
    """Field with one nonzero half-lattice coefficient, at the integer mode
    whose last component lies in 0..N/2 (on an interior plane it stands for
    the mode and its mirror; on plane 0 the mirror is not set)."""
    f = np.zeros((len(amplitudes),) + grid.half_shape, dtype=np.complex128)
    idx = tuple(m % grid.N for m in mode)
    for c, a in enumerate(amplitudes):
        f[(c,) + idx] = a
    return fourier_field(grid, f)


def shear_field(grid, radius, seed=0):
    """A random real shear flow, its component 1 a function of x_0 alone on
    the modes 0 < |xi| < radius of the first axis. It is divergence-free and
    its transport (w . grad) w = w_1 d_1 w vanishes, so with zero data the
    fluctuation solver evolves it by the heat flow alone."""
    rng = np.random.default_rng(seed)
    f = zeros_field(grid, grid.d)
    rest = (0,) * (grid.d - 1)
    for k in range(1, grid.N // 2):
        if grid.k1d[k] < radius:
            a = complex(*rng.standard_normal(2))
            f.data[(1, k) + rest] = a
            f.data[(1, -k) + rest] = np.conj(a)
    return f


def mode_pair_field(grid, mode, amplitudes):
    """Real field: one mode with the given amplitudes plus its conjugate
    mirror, each set where the half lattice holds it (both on plane 0 or
    N/2, the one with last component in 1..N/2-1 elsewhere)."""
    f = zeros_field(grid, len(amplitudes))
    for m, amps in ((mode, amplitudes), ([-x for x in mode], np.conj(amplitudes))):
        idx = tuple(x % grid.N for x in m)
        if idx[-1] <= grid.N // 2:
            for c, a in enumerate(amps):
                f.data[(c,) + idx] = a
    return f


def transport(u):
    """P div(u x u) of the real field u: the half-lattice kernel on u's
    spectrum, read on its default band."""
    plan = TransportPlan(u.grid)
    return projected_transport_half(u.data[(slice(None), *plan.in_band)], plan)


class FullLattice:
    """A grid's whole N^d Fourier lattice, for the oracles that work there:
    the per-axis frequencies in FFT order (broadcastable), |xi|^2, |xi| and
    the Nyquist rows, summed and compared as Grid forms them on the half
    lattice, so the half of each is Grid's array bit for bit."""

    def __init__(self, grid):
        self.grid = grid
        self.axes = []
        for ax in range(grid.d):
            sh = [1] * grid.d
            sh[ax] = grid.N
            self.axes.append(grid.k1d.reshape(sh))
        self.ksq = sum(a * a for a in self.axes)
        self.kabs = np.sqrt(self.ksq)
        nyq = np.zeros(grid.shape, dtype=bool)
        for a in self.axes:
            nyq |= a == grid.k1d[grid.N // 2]
        self.nyquist_mask = nyq


def cut(a, grid):
    """The half lattice's part of a whole-lattice array."""
    return np.ascontiguousarray(a[..., : grid.N // 2 + 1])


def conjugate_mirror(a, d):
    """conj a(-xi) over the trailing d axes of a whole-lattice array."""
    axes = tuple(range(a.ndim - d, a.ndim))
    return np.conj(np.roll(np.flip(a, axis=axes), 1, axis=axes))


def full_spectrum(h, grid):
    """The whole-lattice spectrum of the half array h: the half, with planes
    0 and N/2 averaged with their mirror images, and its conjugate mirror on
    the rest, so the result is exactly conjugate-symmetric."""
    n = grid.N // 2 + 1
    full = np.zeros(h.shape[:-1] + (grid.N,), dtype=np.complex128)
    full[..., :n] = h
    mirror = conjugate_mirror(full, grid.d)
    full[..., n:] = mirror[..., n:]
    for plane in (0, n - 1):
        full[..., plane] = 0.5 * (full[..., plane] + mirror[..., plane])
    return full


def two_thirds_mask(grid):
    """The 2/3 band on the half lattice, built axis by axis: every
    |xi_i| <= (N/3)(2 pi/L)."""
    kcut = (grid.N / 3.0) * (2.0 * np.pi / grid.L)
    keep = np.ones(grid.half_shape, dtype=bool)
    for ax in range(grid.d):
        keep &= np.abs(grid.axis_frequency(ax)) <= kcut
    return keep


def transport_oracle(uh, grid):
    """P div(u x u) on the half lattice as the unpruned kernel computed it,
    with fresh arrays: irfftn of the input times the 2/3 mask, one rfftn
    per product, then the projection. The planned kernel must reproduce
    it bit for bit on its output band."""
    freqs = [grid.axis_frequency(ax) for ax in range(grid.d)]
    U = np.fft.irfftn(
        uh * two_thirds_mask(grid), s=grid.shape, axes=tuple(range(1, grid.d + 1)), norm="ortho",
    )
    that = {}
    for i in range(grid.d):
        for j in range(i, grid.d):
            that[(i, j)] = that[(j, i)] = np.fft.rfftn(U[i] * U[j], norm="ortho")
    out = np.empty((grid.d,) + grid.half_shape, dtype=np.complex128)
    for i in range(grid.d):
        np.multiply(freqs[0], that[(i, 0)], out=out[i])
        for j in range(1, grid.d):
            out[i] += freqs[j] * that[(i, j)]
    dot = freqs[0] * out[0]
    for i in range(1, grid.d):
        dot += freqs[i] * out[i]
    dot *= 1.0 / np.where(grid.ksq == 0.0, 1.0, grid.ksq)
    for i in range(grid.d):
        out[i] -= freqs[i] * dot
    out *= 1j
    out[:, grid.nyquist_mask] = 0.0
    return out


def canonical_modes_oracle(grid):
    """data._canonical_modes on the whole lattice: the sign and the key of
    the canonical representative of each +-xi pair."""
    k_int = np.fft.fftfreq(grid.N, d=1.0 / grid.N).astype(np.int64)
    axes = []
    for ax in range(grid.d):
        sh = [1] * grid.d
        sh[ax] = grid.N
        axes.append(np.broadcast_to(k_int.reshape(sh), grid.shape))
    sign = np.zeros(grid.shape, dtype=np.int64)
    for a in axes:
        sign = np.where(sign == 0, np.sign(a), sign)
    sign = np.where(sign == 0, 1, sign)
    key = np.zeros(grid.shape, dtype=np.int64)
    for a in axes:
        key = (key << np.int64(21)) + (sign * a + np.int64(1 << 20))
    return axes, sign, key


def random_field_oracle(grid, amplitude, seed):
    """data._random_field_with_profile on the whole lattice, as whole-array
    expressions with fresh arrays: stacked directions, one product for
    every component, then the whole-array Leray projection, Nyquist and
    mean zeroing, for the whole-lattice amplitude. Its half (cut) is the
    reference the in-place half-lattice construction must reproduce bit
    for bit."""
    full = FullLattice(grid)
    _, sign, key = canonical_modes_oracle(grid)
    theta = 2.0 * np.pi * _rng.uniform01(_rng.fold(seed, _rng.STREAM_DATA_PHASE, 0, 0, key))
    phase = np.exp(1j * sign * theta)
    comps = []
    for c in range(grid.d):
        w0 = _rng.fold(seed, _rng.STREAM_DATA_DIRECTION, c, 0, key)
        w1 = _rng.fold(seed, _rng.STREAM_DATA_DIRECTION, c, 1, key)
        comps.append(_rng.standard_gaussian(w0, w1))
    v = np.stack(comps)
    norm = np.sqrt(np.sum(v * v, axis=0))
    dirs = v / np.where(norm == 0.0, 1.0, norm)
    scale = float(grid.N) ** (grid.d / 2.0)
    data = dirs * (scale * amplitude * phase)[None, ...]
    ksq_safe = np.where(full.ksq == 0.0, 1.0, full.ksq)
    dot = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.d):
        dot += full.axes[i] * data[i]
    dot /= ksq_safe
    out = np.empty_like(data)
    for i in range(grid.d):
        out[i] = data[i] - full.axes[i] * dot
    out[:, full.nyquist_mask] = 0.0
    out[(slice(None),) + (0,) * grid.d] = 0.0
    return out


def sobolev_norm_oracle(f, s):
    """spectral.sobolev_norm as one whole-array expression on the half
    lattice, with its Parseval weights."""
    w = (1.0 + f.grid.ksq) ** s * f.grid.weight
    return float(np.sqrt(f.grid.cell_volume * np.sum(w * np.abs(f.data) ** 2)))


def borderline_oracle(grid, s, seed, tilt=None, normalize=True):
    """data.borderline_field on random_field_oracle, normalised on the whole
    lattice and cut to the half."""
    rho = default_tilt(grid.d) if tilt is None else float(tilt)
    kabs = FullLattice(grid).kabs
    kabs_safe = np.where(kabs == 0.0, 1.0, kabs)
    amplitude = np.where(kabs == 0.0, 0.0, kabs_safe ** (s - rho))
    data = random_field_oracle(grid, amplitude, seed)
    if normalize:
        w = (1.0 + FullLattice(grid).ksq) ** -s
        data = (1.0 / np.sqrt(grid.cell_volume * np.sum(w * np.abs(data) ** 2))) * data
    return fourier_field(grid, cut(data, grid))


def smooth_random_oracle(grid, seed, band=3):
    """data.smooth_random_field on random_field_oracle, cut to the half and
    scaled by a copy."""
    full = FullLattice(grid)
    keep = np.ones(grid.shape, dtype=bool)
    for a in canonical_modes_oracle(grid)[0]:
        keep &= np.abs(a) <= band
    f = fourier_field(grid, cut(random_field_oracle(grid, np.exp(-0.5 * full.ksq) * keep, seed),
                                grid))
    return (1.0 / l2_norm(f)) * f


def heat_norms_oracle(f, symbols, times, p):
    """|e^{tD} F|_{L^p} for every t: the straightforward half-spectrum sweep,
    with fresh arrays, a decay block exp(-t |xi|^2) formed per symbol and
    irfftn, that heat._heat_norms must reproduce bit for bit on real,
    Nyquist-free data."""
    g = f.grid
    axes = tuple(range(2, 2 + g.d))
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    ksq_h = g.ksq
    chunk = max(1, _BLOCK_ELEMS // math.prod(g.shape))
    out = np.empty(times.size)

    for lo in range(0, times.size, chunk):
        tt = times[lo : lo + chunk]
        msq = 0.0
        for sym in symbols:
            decay = np.exp(-tt.reshape((-1,) + (1,) * g.d) * ksq_h[None])
            base_h = f.data.copy()
            base_h *= sym
            block = np.fft.irfftn(
                base_h[None] * decay[:, None], s=g.shape, axes=axes, norm="ortho"
            )
            msq = msq + np.sum(block * block, axis=1)
        if np.isinf(p):
            out[lo : lo + tt.size] = np.sqrt(np.max(msq, axis=sp))
        else:
            out[lo : lo + tt.size] = (vol * np.sum(msq ** (p / 2.0), axis=sp)) ** (1.0 / p)
    return out


def derivative_norms_oracle(f, k, times, p):
    """|grad^k e^{tD} f|_{L^p} for every t, each derivative formed as
    heat._heat_norms forms it, with fresh arrays and one np.fft call per
    axis: a * E, times each factor i xi_a just before the pass along axis
    a (on the last axis, just before the irfft). The derivatives are
    (i xi_a1)...(i xi_ak), a1 <= ... <= ak, each weighted by its number of
    orderings, and their squares are summed component by component in the
    sweep's order: by the factors on the leading axes (those starting on
    axis 0, then on axis 1, then none), then by the last-axis count. That
    heat._heat_norms must reproduce bit for bit on real, Nyquist-free
    data."""
    g = f.grid
    d, N = g.d, g.N
    sp = tuple(range(1, 1 + d))
    chunk = max(1, _BLOCK_ELEMS // math.prod(g.shape))
    factors = [1j * g.axis_frequency(ax) for ax in range(d)]

    def order(axes):
        lead = axes[: k - axes.count(d - 1)]
        return (lead == (), lead, axes.count(d - 1))

    derivatives = sorted(itertools.combinations_with_replacement(range(d), k), key=order)
    out = np.empty(times.size)
    for lo in range(0, times.size, chunk):
        tt = times[lo : lo + chunk]
        decay = np.exp(-tt.reshape((-1,) + (1,) * d) * g.ksq[None])
        msq = np.zeros((tt.size,) + g.shape)
        for a in f.data:
            for axes in derivatives:
                spec = a * decay
                for ax in range(d):
                    for _ in range(axes.count(ax)):
                        spec = spec * factors[ax]
                    if ax < d - 1:
                        spec = np.fft.ifft(spec, axis=1 + ax, norm="ortho")
                real = np.fft.irfft(spec, n=N, axis=d, norm="ortho")
                msq = msq + real * real * len(set(itertools.permutations(axes)))
        if np.isinf(p):
            out[lo : lo + tt.size] = np.sqrt(np.max(msq, axis=sp))
        else:
            out[lo : lo + tt.size] = (g.cell_volume * np.sum(msq ** (p / 2.0), axis=sp)) ** (1.0 / p)
    return out


def power_law_cells_oracle(times, F):
    """The power-law quadrature of F over [0, times[-1]] as a loop over
    numpy float64 scalars, cell by cell: the reference that
    tails._power_law_cells reproduces bit for bit."""
    total = 0.0
    t0, f0, f1 = times[0], F[0], F[1]
    # head: F ~ f0 * (t/t0)^beta on [0, t0]
    if f0 > 0 and f1 > 0:
        beta = np.log(f1 / f0) / np.log(times[1] / t0)
        if beta <= -1.0 + 1e-9:
            raise ValueError("space-time integrand is non-integrable near t = 0")
        total += f0 * t0 / (beta + 1.0)
    for i in range(times.size - 1):
        fa, fb = F[i], F[i + 1]
        ta, tb = times[i], times[i + 1]
        if fa > 0 and fb > 0:
            rho = tb / ta
            beta = np.log(fb / fa) / np.log(rho)
            if abs(beta + 1.0) < 1e-8:
                total += fa * ta * np.log(rho)
            else:
                total += fa * ta * (rho ** (beta + 1.0) - 1.0) / (beta + 1.0)
        else:
            total += 0.5 * (fa + fb) * (tb - ta)
    return total


def stored_mask(grid, cutoff):
    """The modes of the ball |xi| < cutoff on its cube that a version-5 file
    stores: all but, on the self-mirrored last-axis planes 0 and N/2, the
    member of each mirror pair xi, -xi whose place in the plane's row-major
    order is the later one, found from the lattice rows of the cube."""
    N = grid.N
    band = grid.band(grid.ball_radius(cutoff))
    ball = grid.kabs[band] < cutoff
    rows = [np.arange(N)[index].ravel() for index in band[:-1]]
    modes = list(itertools.product(*rows))
    place = {mode: i for i, mode in enumerate(modes)}
    stored = ball.copy()
    for plane in (0, N // 2)[: 1 + (ball.shape[-1] == N // 2 + 1)]:
        for i, mode in enumerate(modes):
            if place[tuple(-r % N for r in mode)] < i:
                stored[np.unravel_index(i, ball.shape[:-1]) + (plane,)] = False
    return stored


def traced_peak(fn):
    """fn() and the peak of the memory it held above what was held when it
    started, in bytes, as tracemalloc (which numpy reports to) counts it."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


@contextlib.contextmanager
def address_space_cap(extra=2**30):
    """Cap this process's address space at its size plus `extra` bytes while
    the block runs, so that a test guarding against a huge allocation fails
    with MemoryError instead of taking the memory (Linux: the size is read
    from /proc/self/statm)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def monte_carlo_tails(f, model, spec, M, workers=1):
    """Draw M randomizations and fit the Gaussian tail exponent of their
    space-time norms, as the tails verb does."""
    values = sample_space_time_norms(f, model, spec, M, workers=workers)
    return fit_gaussian_tail(values, hminus_s_norm(f, spec.s))


def solve_collecting(config, f_omega, **kwargs):
    """solve with an on_snapshot consumer that collects every snapshot:
    the trajectory, which keeps only w(T), and the (t, w_band) pair of
    each snapshot in time order."""
    snapshots = []
    traj = solve(config, f_omega, on_snapshot=lambda i, t, w: snapshots.append((t, w)),
                 **kwargs)
    return traj, snapshots


def band_field(grid, w_band):
    """The fourier-space field of a snapshot's band array."""
    return fourier_field(grid, grid.scatter(w_band))


@pytest.fixture
def grid2():
    return make_grid(2, 16, TWO_PI)


@pytest.fixture
def grid2_mid():
    return make_grid(2, 32, TWO_PI)


@pytest.fixture
def grid3():
    return make_grid(3, 16, TWO_PI)
