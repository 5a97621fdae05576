"""Initial-data constructors.

All fields come out divergence-free, mean-zero, Nyquist-free and real in
physical space. The borderline family is the default experiment input: a
homogeneous radial amplitude profile |xi|^(s - tilt) with tilt slightly
above d/2 puts the data just inside H^{-s} on the resolved band while
keeping the heat-decay norms exactly self-similar, so their small-time
slopes are clean at desk resolutions. Phases and directions are keyed by
integer mode, so refining N extends the same realization instead of
resampling it. The constructors fill the rfft half lattice only: a mode
and its mirror share their key, so the half holds the conjugate-symmetric
spectrum's values there.
"""

from __future__ import annotations

import numpy as np

from . import _rng
from .randomization import hminus_s_norm
from .spectral import (
    Grid,
    SpectralField,
    _leray_project,
    _zero_mean,
    _zero_nyquist,
    fourier_field,
    l2_norm,
    physical_field,
    transform,
    zero_mean,
    zero_nyquist,
)


def default_tilt(d: int) -> float:
    return d / 2.0 + 0.05


def _canonical_modes(grid: Grid):
    """Sign s and canonical representative of each +-xi pair, on the half
    lattice.

    The canonical mode is the one whose first nonzero integer component is
    positive; keying randomness by it makes conjugate symmetry (and hence
    real physical fields) exact by construction. The integer components
    are the lattice's in FFT order, with N/2 on the last axis standing for
    -N/2, as k1d has it.
    """
    k_int = np.fft.fftfreq(grid.N, d=1.0 / grid.N).astype(np.int64)
    # one broadcastable array per axis, shaped as the axis frequencies
    axes = [k_int[: f.size].reshape(f.shape) for f in map(grid.axis_frequency, range(grid.d))]
    sign = np.zeros(grid.half_shape, dtype=np.int64)
    for a in axes:
        sign = np.where(sign == 0, np.sign(a), sign)
    sign = np.where(sign == 0, 1, sign)  # xi = 0
    offset = np.int64(1 << 20)
    key = np.zeros(grid.half_shape, dtype=np.int64)
    for a in axes:
        key = (key << np.int64(21)) + (sign * a + offset)
    return sign, key


def _random_unit_directions(grid: Grid, seed: int, key: np.ndarray, v: np.ndarray):
    """One Gaussian direction per mode, normalised to unit length (zero
    vectors stay zero), written in place into v, shape (d,) + key.shape,
    one component at a time. Each component is drawn a slab of N/8
    leading rows at a time, so the draws' temporaries (seven arrays of the
    slab's size) stay an eighth of one component's."""
    rows = max(1, grid.N // 8)
    for c in range(grid.d):
        for lo in range(0, grid.N, rows):
            slab = key[lo : lo + rows]
            v[c, lo : lo + rows] = _rng.standard_gaussian(
                _rng.fold(seed, _rng.STREAM_DATA_DIRECTION, c, 0, slab),
                _rng.fold(seed, _rng.STREAM_DATA_DIRECTION, c, 1, slab),
            )
    # the components summed in order, as np.sum(v * v, axis=0) sums them
    norm = v[0] * v[0]
    for c in range(1, grid.d):
        norm += v[c] * v[c]
    np.sqrt(norm, out=norm)
    norm[norm == 0.0] = 1.0
    v /= norm


def _random_field_with_profile(grid: Grid, amplitude: np.ndarray, seed: int) -> SpectralField:
    """Random real divergence-free data with the given radial amplitude on
    the half lattice.

    The field is one array: the directions are built in its real parts,
    each component is then multiplied by the complex coefficient in place,
    and the whole is projected, Nyquist- and mean-zeroed in place; each
    intermediate is dropped as soon as it has been used, so the
    construction holds the field plus under one field's worth of
    temporaries.
    """
    sign, key = _canonical_modes(grid)
    theta = 2.0 * np.pi * _rng.uniform01(_rng.fold(seed, _rng.STREAM_DATA_PHASE, 0, 0, key))
    coeff = 1j * sign
    del sign
    coeff *= theta
    del theta
    np.exp(coeff, out=coeff)
    data = np.empty((grid.d,) + grid.half_shape, dtype=np.complex128)
    _random_unit_directions(grid, seed, key, data.real)
    del key
    # N^{d/2} pins the continuum Fourier-series amplitude, so the same seed
    # on a finer grid extends the same function instead of shrinking it
    scale = float(grid.N) ** (grid.d / 2.0)
    np.multiply(scale * amplitude, coeff, out=coeff)
    for c in range(grid.d):
        # direction (the real part, imaginary part unset) times coefficient
        np.multiply(data[c].real, coeff, out=data[c])
    del coeff
    _leray_project(grid, data)
    _zero_nyquist(grid, data)
    _zero_mean(grid, data)
    return fourier_field(grid, data)


def borderline_field(
    grid: Grid,
    s: float,
    seed: int,
    tilt: float | None = None,
    normalize: bool = True,
) -> SpectralField:
    """Random divergence-free data sitting at the edge of H^{-s}.

    With normalize=True the field is scaled to unit H^{-s} norm; without
    it, mode values are resolution-independent, which refinement studies
    rely on.
    """
    rho = default_tilt(grid.d) if tilt is None else float(tilt)
    kabs = grid.kabs
    amplitude = np.where(kabs == 0.0, 1.0, kabs)
    amplitude **= s - rho
    amplitude[kabs == 0.0] = 0.0
    f = _random_field_with_profile(grid, amplitude, seed)
    if normalize:
        nrm = hminus_s_norm(f, s)
        if nrm == 0.0:
            raise ValueError("degenerate borderline field")
        f.data *= 1.0 / nrm
    return f


def smooth_random_field(grid: Grid, seed: int, band: int = 3) -> SpectralField:
    """Band-limited random divergence-free data of unit L2 norm for manufactured runs."""
    profile = np.exp(-0.5 * grid.ksq) * (grid.box_radius() <= band)
    f = _random_field_with_profile(grid, profile, seed)
    nrm = l2_norm(f)
    if nrm == 0.0:
        raise ValueError("degenerate smooth field")
    f.data *= 1.0 / nrm
    return f


def taylor_green(grid: Grid) -> SpectralField:
    """Classical 2D cellular vortex (sin x cos y, -cos x sin y).

    Its self-advection is a pure gradient, so under the divergence-free
    projection the exact flow is plain heat decay of the data.
    """
    if grid.d != 2:
        raise ValueError("taylor_green is a 2D field")
    x, y = grid.coordinates()
    scale = 2.0 * np.pi / grid.L
    u = np.sin(scale * x) * np.cos(scale * y)
    v = -np.cos(scale * x) * np.sin(scale * y)
    phys = physical_field(grid, np.stack([u, v]))
    return zero_mean(zero_nyquist(transform(phys, "forward")))
