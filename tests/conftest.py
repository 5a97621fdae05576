import struct

import numpy as np
import pytest

from nsrw.spectral import (
    fourier_field,
    leray_project,
    make_grid,
    physical_field,
    projected_transport_half,
    transform,
    zero_mean,
    zero_nyquist,
)

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


def full_transport(u):
    """P div(u x u) of the real field u on the full lattice: the half-lattice
    kernel on u's half spectrum, expanded."""
    half = u.grid.half
    return half.expand(projected_transport_half(half.cut(u.data), u.grid))


def pack_v1(field, t, cutoff):
    """A version-1 checkpoint of field: magic, version 1, d, N, L, t and
    cutoff, then the full spectrum, no fingerprint."""
    g = field.grid
    header = struct.pack("<4sIIIddd", b"NSRW", 1, g.d, g.N, g.L, t, cutoff)
    return header + np.ascontiguousarray(field.data).astype("<c16").tobytes()


@pytest.fixture
def grid2():
    return make_grid(2, 16, TWO_PI)


@pytest.fixture
def grid2_mid():
    return make_grid(2, 32, TWO_PI)


@pytest.fixture
def grid3():
    return make_grid(3, 16, TWO_PI)
