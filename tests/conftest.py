import contextlib
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nsrw import _rng
from nsrw.data import _canonical_modes, _integer_modes, default_tilt
from nsrw.heat import _BLOCK_ELEMS, _half_decay
from nsrw.randomization import hminus_s_norm
from nsrw.spectral import (
    TransportPlan,
    conjugate_mirror,
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
    return transform(physical_field(grid, vals.astype(np.complex128)), "forward")


def random_divfree_field(grid, seed=0, scale=1.0):
    """Random real divergence-free mean-zero Nyquist-free field."""
    f = random_real_field(grid, grid.d, seed, scale)
    return zero_mean(zero_nyquist(leray_project(f)))


def single_mode_field(grid, mode, amplitudes):
    """Field with one nonzero coefficient at integer mode (no conjugate)."""
    f = np.zeros((len(amplitudes),) + grid.shape, dtype=np.complex128)
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
    mirror."""
    mirror = single_mode_field(grid, [-m for m in mode], np.conj(amplitudes))
    return single_mode_field(grid, mode, amplitudes) + mirror


def full_transport(u):
    """P div(u x u) of the real field u on the full lattice: the half-lattice
    kernel on u's half spectrum, read on its default band, expanded."""
    half = u.grid.half
    plan = TransportPlan(u.grid)
    return half.expand(
        projected_transport_half(half.cut(u.data)[(slice(None), *plan.in_band)], plan)
    )


def transport_oracle(uh, grid):
    """P div(u x u) on the half lattice as the unpruned kernel computed it,
    with fresh arrays: irfftn of the input times the 2/3 mask, one rfftn
    per product, then the projection. The planned kernel must reproduce
    it bit for bit on its output band."""
    h = grid.half
    U = np.fft.irfftn(
        uh * h.cut(grid.dealias_keep), s=grid.shape, axes=tuple(range(1, grid.d + 1)),
        norm="ortho",
    )
    that = {}
    for i in range(grid.d):
        for j in range(i, grid.d):
            that[(i, j)] = that[(j, i)] = np.fft.rfftn(U[i] * U[j], norm="ortho")
    out = np.empty((grid.d,) + h.shape, dtype=np.complex128)
    for i in range(grid.d):
        np.multiply(h.freqs[0], that[(i, 0)], out=out[i])
        for j in range(1, grid.d):
            out[i] += h.freqs[j] * that[(i, j)]
    dot = h.freqs[0] * out[0]
    for i in range(1, grid.d):
        dot += h.freqs[i] * out[i]
    dot *= h.inv_ksq
    for i in range(grid.d):
        out[i] -= h.freqs[i] * dot
    out *= 1j
    out[:, h.nyquist_mask] = 0.0
    return out


def random_field_oracle(grid, amplitude, seed):
    """data._random_field_with_profile as whole-array expressions with fresh
    arrays: stacked directions, one product for every component, then the
    whole-array Leray projection, Nyquist and mean zeroing. The in-place
    construction must reproduce it bit for bit."""
    sign, key = _canonical_modes(grid)
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
    ksq_safe = np.where(grid.ksq == 0.0, 1.0, grid.ksq)
    dot = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.d):
        dot += grid.axis_frequency(i) * data[i]
    dot /= ksq_safe
    out = np.empty_like(data)
    for i in range(grid.d):
        out[i] = data[i] - grid.axis_frequency(i) * dot
    out[:, grid.nyquist_mask] = 0.0
    out[(slice(None),) + (0,) * grid.d] = 0.0
    return fourier_field(grid, out)


def sobolev_norm_oracle(f, s):
    """spectral.sobolev_norm as one whole-array expression."""
    w = (1.0 + f.grid.ksq) ** s
    return float(np.sqrt(f.grid.cell_volume * np.sum(w * np.abs(f.data) ** 2)))


def conjugate_asymmetry_oracle(a, d):
    """spectral.conjugate_asymmetry over the whole array at once."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(conjugate_mirror(a, d) - a).max() / scale)


def borderline_oracle(grid, s, seed, tilt=None, normalize=True):
    """data.borderline_field on random_field_oracle, scaled by a copy."""
    rho = default_tilt(grid.d) if tilt is None else float(tilt)
    kabs_safe = np.where(grid.kabs == 0.0, 1.0, grid.kabs)
    amplitude = np.where(grid.kabs == 0.0, 0.0, kabs_safe ** (s - rho))
    f = random_field_oracle(grid, amplitude, seed)
    if normalize:
        f = (1.0 / sobolev_norm_oracle(f, -s)) * f
    return f


def smooth_random_oracle(grid, seed, band=3):
    """data.smooth_random_field on random_field_oracle, scaled by a copy."""
    keep = np.ones(grid.shape, dtype=bool)
    for a in _integer_modes(grid):
        keep &= np.abs(a) <= band
    f = random_field_oracle(grid, np.exp(-0.5 * grid.ksq) * keep, seed)
    return (1.0 / l2_norm(f)) * f


def heat_norms_oracle(f, symbols, times, p):
    """|e^{tD} F|_{L^p} for every t: the straightforward half-spectrum sweep,
    with fresh arrays, a decay block per symbol and irfftn, that
    heat._heat_norms must reproduce bit for bit on real, Nyquist-free data."""
    g = f.grid
    axes = tuple(range(2, 2 + g.d))
    sp = tuple(range(1, 1 + g.d))
    vol = g.cell_volume
    ksq_h = g.half.ksq
    cached = _half_decay(g, times)
    chunk = max(1, _BLOCK_ELEMS // g.ksq.size)
    out = np.empty(times.size)

    for lo in range(0, times.size, chunk):
        tt = times[lo : lo + chunk]
        msq = 0.0
        for sym in symbols:
            if cached is not None:
                decay = cached[lo : lo + tt.size]
            else:
                decay = np.exp(-tt.reshape((-1,) + (1,) * g.d) * ksq_h[None])
            base_h = g.half.cut(f.data)
            base_h *= g.half.cut(sym)
            block = np.fft.irfftn(
                base_h[None] * decay[:, None], s=g.shape, axes=axes, norm="ortho"
            )
            msq = msq + np.sum(block * block, axis=1)
        if np.isinf(p):
            out[lo : lo + tt.size] = np.sqrt(np.max(msq, axis=sp))
        else:
            out[lo : lo + tt.size] = (vol * np.sum(msq ** (p / 2.0), axis=sp)) ** (1.0 / p)
    return out


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


@pytest.fixture
def grid2():
    return make_grid(2, 16, TWO_PI)


@pytest.fixture
def grid2_mid():
    return make_grid(2, 32, TWO_PI)


@pytest.fixture
def grid3():
    return make_grid(3, 16, TWO_PI)
