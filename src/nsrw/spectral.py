"""Periodic pseudo-spectral grids, fields, and Fourier-multiplier operators.

All transforms use the unitary DFT normalization, so the discrete Parseval
identity is exact up to rounding, and every norm carries the explicit cell
volume (L/N)^d as quadrature weight. Frequencies along each axis are
(2*pi/L) * {-N/2, ..., N/2 - 1} in standard FFT ordering; the Nyquist row
(-N/2) is a convention-zero row that constructed data never populates.

Every field is real, so the rfft half of the lattice (last-axis indices
0..N/2, shape `Grid.half_shape`) holds all of its conjugate-symmetric
spectrum, a(-xi) = conj a(xi): a fourier-space field lives there, a
physical-space one is real on the N^d grid, and `transform` runs rfftn
and irfftn. The grid's spectral arrays live on the half lattice too, so
operators act elementwise, sums over modes carry the Parseval weights
(`Grid.weight`), and the conjugate constraint sits on the self-mirrored
last-axis planes 0 and N/2 alone. The 2/3 band is decided in one place,
`dealias_cutoff`, whose cube radius is `Grid.dealias_radius`. The
transport kernel's input and output are band arrays, the values on a cube
|k_i| <= k of the half lattice (`Grid.band`), and it transforms only the
lines that carry its input band or feed its output band (`_band_passes`,
which the heat sweeps share), in the index maps and work buffers of a
`TransportPlan` that its caller owns and that counts the lines it ran.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

FOURIER = "fourier"
PHYSICAL = "physical"

__all__ = [
    "FOURIER",
    "PHYSICAL",
    "Grid",
    "SpectralField",
    "RingPartition",
    "make_grid",
    "dealias_cutoff",
    "fourier_field",
    "physical_field",
    "zeros_field",
    "transform",
    "zero_nyquist",
    "zero_mean",
    "mean_mode_magnitude",
    "ring_index",
    "ring_partition",
    "ring_project",
    "friedrichs_cutoff",
    "leray_project",
    "multiplier",
    "dealias",
    "TransportPlan",
    "projected_transport_half",
    "HERMITIAN_RTOL",
    "require_real_field",
    "band_shape",
    "l2_norm",
    "linf_norm",
    "sobolev_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^d with its Fourier lattice.

    shape is the physical grid's, (N,)^d; the spectral arrays (ksq, kabs,
    nyquist_mask, axis_frequency, weight) and every fourier-space field
    live on the rfft half lattice, last-axis indices 0..N/2, of shape
    half_shape = (N,)^(d-1) + (N/2 + 1,). Its last-axis planes 0 and N/2
    are their own mirror images; every other mode stands for itself and
    its conjugate mirror. A band array holds a field's values on a cube
    |k_i| <= k of the half lattice (band); box_radius gives each mode's
    smallest such k, and the Nyquist rows and the 2/3 band are read off
    it. Derived arrays are built on first use and kept, so a grid that
    needs little holds little (the checkpoint loader's builds none: it
    takes single frequencies from `frequencies`); equality and hashing use
    (d, N, L) only. ksq and kabs = sqrt(ksq) are the exceptions: they are
    formed on each access and not kept, since each reader takes them once
    per call, outside its loops, and a kept copy would hold one more
    lattice-sized array for the whole run. The heat sweeps read |xi|^2
    through ksq_shells instead, whose index takes ksq's place on the grid.
    """

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.d}")
        if self.N % 2 != 0 or self.N < 8:
            raise ValueError(f"grid size N must be even and >= 8, got {self.N}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"box period L must be a finite positive number, got {self.L}")

    @cached_property
    def k1d(self) -> np.ndarray:
        return self.frequencies(_signed_rows(np.arange(self.N), self.N))

    def frequencies(self, n) -> np.ndarray:
        """The 1-D lattice frequencies 2 pi n / L of the signed indices n
        (-N/2 <= n < N/2), formed as 2 pi np.fft.fftfreq(N, L/N) forms
        them: k1d holds them in FFT order, and a few are had without it."""
        return 2.0 * np.pi * (np.asarray(n) * (1.0 / (self.N * (self.L / self.N))))

    @property
    def ksq(self) -> np.ndarray:
        return _sum_squares(self.axis_frequency(ax) for ax in range(self.d))

    @cached_property
    def ksq_shells(self) -> tuple:
        """The sorted distinct values of ksq, its shells (read-only), and
        each mode's index into them (intp, of half_shape): shells[index] is
        ksq bit for bit. The lattice has few shells (506 of 2,112 modes at
        d=2 N=64, 3,295 of 135,168 at d=3 N=64), so a function of |xi|^2 is
        formed on them and gathered by the index. The index is left
        writeable, as np.take copies a read-only index on every call, but
        nothing may write to it."""
        shells, index = np.unique(self.ksq, return_inverse=True)
        shells.flags.writeable = False
        return shells, index.reshape(self.half_shape)

    @property
    def kabs(self) -> np.ndarray:
        return np.sqrt(self.ksq)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """The modes with a component -N/2: the rows that hold it on the
        leading axes and the plane N/2."""
        return self.box_radius() == self.N // 2

    @cached_property
    def dealias_radius(self) -> int:
        """The radius of the 2/3 band, the cube |xi_i| <= dealias_cutoff:
        the largest n <= N/2 whose frequency lies within the cutoff, read
        off single frequencies, since N/3 can round either way (N = 42)."""
        cutoff = dealias_cutoff(self.N, self.L)
        return self._largest_index(lambda n: float(self.frequencies(n)) <= cutoff)

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def half_shape(self) -> tuple:
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    @property
    def kmax(self) -> float:
        """Largest lattice frequency magnitude along one axis, (2*pi/L)*N/2."""
        return (2.0 * np.pi / self.L) * (self.N / 2.0)

    def axis_frequency(self, ax: int) -> np.ndarray:
        """Frequency along one axis, broadcastable against the half lattice:
        k1d on a leading axis, its first N/2 + 1 entries on the last."""
        k = self.k1d if ax < self.d - 1 else self.k1d[: self.N // 2 + 1]
        sh = [1] * self.d
        sh[ax] = k.size
        return k.reshape(sh)

    def coordinates(self):
        """Physical mesh, one (N, ..., N) array per axis."""
        x1 = self.L * np.arange(self.N) / self.N
        return np.meshgrid(*([x1] * self.d), indexing="ij")

    def box_radius(self) -> np.ndarray:
        """max_i |k_i| of every mode: the radius of the smallest band
        (cube |k_i| <= k, see band) that holds it; built on each call."""
        N, d = self.N, self.d
        rows = np.arange(N)
        rows = np.minimum(rows, N - rows)
        radius = np.arange(N // 2 + 1).reshape((1,) * (d - 1) + (-1,))
        for ax in range(d - 1):
            radius = np.maximum(radius, rows.reshape((-1,) + (1,) * (d - 1 - ax)))
        return radius

    @cached_property
    def weight(self) -> np.ndarray:
        """The Parseval weight: 1 on the self-mirrored last-axis planes 0
        and N/2, 2 elsewhere, so sum(weight * |a|^2) is the whole
        lattice's sum of |a|^2 for the conjugate-symmetric spectrum whose
        half is a. It depends on the last axis alone, so it is one
        (N/2 + 1,) vector, read as a read-only broadcast over the half
        lattice."""
        weight = np.full(self.N // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        return np.broadcast_to(weight, self.half_shape)

    def _mirrored_planes(self, h: np.ndarray) -> tuple:
        """The self-mirrored last-axis planes the band array h holds: 0, and
        N/2 when h holds the whole last axis."""
        return (0, self.N // 2) if h.shape[-1] == self.N // 2 + 1 else (0,)

    def symmetrize(self, h: np.ndarray) -> np.ndarray:
        """A copy of the band array h (a whole half array included) whose
        self-mirrored last-axis planes 0 and N/2 hold their
        conjugate-symmetric part, which is all that irfftn reads there; the
        other planes are copied unchanged. The cube is symmetric, so the
        mirror of a band row lies in the band and the values are those of
        symmetrize(scatter(h)) on the cube, bit for bit."""
        out = np.array(h, dtype=np.complex128)
        for plane in self._mirrored_planes(h):
            p = h[..., plane]
            out[..., plane] = 0.5 * (p + _conjugate_mirror(p, self.d - 1))
        return out

    def plane_asymmetry(self, h: np.ndarray) -> float:
        """max |a(xi) - conj a(-xi)| over the planes 0 and N/2 of the band
        array h (a whole half array included), relative to max |h|; 0 for a
        zero array. The planes hold the conjugate constraint of a real
        field's spectrum: every other mode's mirror lies off the half. The
        largest |h| is taken one component (leading index) at a time, so
        the temporaries are one component's size."""
        scale = max(np.abs(part).max() for part in h)
        if scale == 0.0:
            return 0.0
        worst = max(
            np.abs(_conjugate_mirror(h[..., plane], self.d - 1) - h[..., plane]).max()
            for plane in self._mirrored_planes(h)
        )
        return float(worst / scale)

    def divergence_ratio(self, h: np.ndarray) -> float:
        """|div u|_L2 / |u|_L2 of the real field u whose half spectrum is h,
        summed over the half lattice with its Parseval weights; 0/0 is 0."""
        div = sum(self.axis_frequency(ax) * c for ax, c in enumerate(h))
        den = float(np.sum(self.weight * np.abs(h) ** 2))
        if den == 0.0:
            return 0.0
        return float(np.sqrt(np.sum(self.weight * np.abs(div) ** 2) / den))

    def band(self, k: int) -> tuple:
        """The index of the cube |k_i| <= k on the half lattice.

        A band array, a[(..., *band(k))], holds the values on that cube:
        its leading axes list the rows 0..k, -k..-1 in FFT order (the whole
        axis once 2k + 1 >= N), its last axis the planes 0..min(k, N/2).
        The index is an np.ix_ tuple, or basic slices once the cube is the
        whole half lattice (k >= N/2), so that the band array is a view.
        A band array's radius is read off its last axis, k + 1 planes; a
        whole half array is the band array of radius N/2.
        """
        N = self.N
        if k >= N // 2:
            return (slice(None),) * self.d
        return np.ix_(*([_band_rows(N, k)] * (self.d - 1) + [np.arange(k + 1)]))

    def band_kabs(self, k: int) -> np.ndarray:
        """|xi| on the cube of band(k): kabs[band(k)] bit for bit, from the
        frequencies of the band's rows alone, so neither an array larger
        than the cube nor the N-point k1d is built."""
        N = self.N
        rows = [_band_rows(N, k)] * (self.d - 1) + [np.arange(min(k, N // 2) + 1)]
        freqs = (self.frequencies(_signed_rows(r, N)) for r in rows)
        return np.sqrt(_sum_squares(np.ix_(*freqs)))

    def ball_radius(self, cutoff: float, axes: int = 1) -> int:
        """The largest n <= N/2 whose mode (n, ..., n) on the first `axes`
        axes (0 on the others) lies in the ball |xi| < cutoff, for a
        positive cutoff. With one axis it is the largest |k_i| of the
        ball's modes; with d axes, the radius of the largest cube
        |k_i| <= n the ball holds whole, since |xi| grows with each |k_i|,
        in floating point too. Single frequencies are summed as ksq sums
        them: no array is built."""

        def inside(n: int) -> bool:
            f = float(self.frequencies(n))
            return math.sqrt(_sum_squares([f] * axes)) < cutoff

        return self._largest_index(inside)

    def _largest_index(self, holds) -> int:
        """The largest n in 0..N/2 for which holds(n), by bisection: holds
        is true at 0 and turns false at most once as n grows."""
        lo, hi = 0, self.N // 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
        return lo

    def require_in_ball(self, name: str, h: np.ndarray, cutoff: float,
                        rtol: float) -> np.ndarray:
        """The mask band_kabs(k) < cutoff of the ball on the cube of the
        band array h (a whole half array included). Refuses h if its
        largest coefficient outside the ball exceeds rtol times its largest
        coefficient, naming that coefficient's component, lattice mode and
        magnitude."""
        ball = self.band_kabs(h.shape[-1] - 1) < cutoff
        mag = np.abs(h)
        outside = mag * ~ball
        worst = float(outside.max())
        scale = max(float(mag.max()), 1e-300)
        if worst <= rtol * scale:
            return ball
        comp, *idx = np.unravel_index(np.argmax(outside), outside.shape)
        band = self.band(h.shape[-1] - 1)
        N = self.N
        # each band index is the lattice index that the band's row list
        # holds there, or itself on a whole axis
        rows = (i if isinstance(b, slice) else b.ravel()[i] for b, i in zip(band, idx))
        mode = tuple(int(i) if i < N // 2 else int(i) - N for i in rows)
        raise ValueError(
            f"{name} has support outside the cutoff ball |xi| < {cutoff:g}: its largest "
            f"coefficient there, component {int(comp)} at lattice mode {mode}, has "
            f"magnitude {worst:.3e}, {worst / scale:.3e} of its largest coefficient "
            f"(tolerance {rtol:g})"
        )

    def band_boxes(self, k: int) -> list:
        """The cube of band(k) as basic-slice indexes, one box per choice of
        slab (_band_slabs) on each leading axis: together they hold the
        values band(k) holds, each box as a view, so a write through them
        touches the cube alone and copies nothing."""
        return [slabs + (slice(0, k + 1),)
                for slabs in itertools.product(*([_band_slabs(self.N, k)] * (self.d - 1)))]

    def require_real_band(self, name: str, h: np.ndarray) -> int:
        """The radius k of h, read off its last axis. Refuses h, naming it,
        unless it is one band array per dimension of radius k <= N/2 whose
        self-mirrored planes are conjugate-symmetric, as a real field's are."""
        d, N = self.d, self.N
        k = h.shape[-1] - 1
        if k > N // 2 or h.shape != band_shape(d, N, k):
            raise ValueError(
                f"{name} must be one band array per dimension of radius k <= N/2, shape "
                f"(d,) + (min(2k+1, N),)^(d-1) + (min(k, N/2) + 1,); got {h.shape} "
                f"on a d={d} N={N} grid"
            )
        asym = self.plane_asymmetry(h)
        if asym > HERMITIAN_RTOL:
            raise ValueError(
                f"{name} is not a real field's band array: its last-axis planes 0 and "
                f"N/2 are not conjugate-symmetric (largest asymmetry {asym:.3e} of its "
                f"largest coefficient, tolerance {HERMITIAN_RTOL:g})"
            )
        return k

    def scatter(self, h: np.ndarray) -> np.ndarray:
        """The band array h on the half lattice, zero off its cube."""
        out = np.zeros(h.shape[: -self.d] + self.half_shape, dtype=h.dtype)
        out[(Ellipsis, *self.band(h.shape[-1] - 1))] = h
        return out


def make_grid(d: int, N: int, L: float) -> Grid:
    """Build a periodic grid; rejects odd N, d outside {2, 3}, L <= 0."""
    return Grid(int(d), int(N), float(L))


@dataclass
class SpectralField:
    """d-dimensional vector (or scalar) real field as stacked arrays.

    In fourier space data holds the complex128 coefficients on the rfft
    half lattice, shape (ncomp,) + grid.half_shape; in physical space the
    float64 point values, shape (ncomp,) + grid.shape. The `space` tag says
    which. Operators below are pure: inputs are never mutated.
    """

    grid: Grid
    data: np.ndarray
    space: str = FOURIER

    def __post_init__(self):
        if self.space not in (FOURIER, PHYSICAL):
            raise ValueError(f"unknown space tag {self.space!r}")
        arr = np.asarray(self.data)
        if self.space == FOURIER:
            shape, dtype = self.grid.half_shape, np.complex128
        else:
            shape, dtype = self.grid.shape, np.float64
            if np.iscomplexobj(arr):
                raise ValueError("physical-space data must be real")
        if arr.shape[1:] != shape:
            raise ValueError(
                f"{self.space}-space field shape {arr.shape} does not match the grid's "
                f"{shape}"
            )
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
        self.data = arr

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid or self.space != other.space:
            raise ValueError("fields live on different grids or spaces")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.data + other.data, self.space)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.data - other.data, self.space)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.data * scalar, self.space)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.data, self.space)


def fourier_field(grid: Grid, data: np.ndarray) -> SpectralField:
    return SpectralField(grid, data, FOURIER)


def physical_field(grid: Grid, data: np.ndarray) -> SpectralField:
    return SpectralField(grid, data, PHYSICAL)


def zeros_field(grid: Grid, ncomp: int | None = None, space: str = FOURIER) -> SpectralField:
    ncomp = grid.d if ncomp is None else ncomp
    shape = grid.half_shape if space == FOURIER else grid.shape
    return SpectralField(grid, np.zeros((ncomp,) + shape), space)


def transform(f: SpectralField, direction: str) -> SpectralField:
    """Unitary DFT between physical and Fourier space: rfftn onto the half
    lattice, irfftn back onto the N^d grid.

    direction is "forward" (physical -> fourier) or "inverse"; the field's
    space tag must match the direction's source, otherwise ValueError.
    """
    axes = tuple(range(1, f.grid.d + 1))
    if direction == "forward":
        if f.space != PHYSICAL:
            raise ValueError("forward transform expects a physical-space field")
        out = np.fft.rfftn(f.data, axes=axes, norm="ortho")
        return SpectralField(f.grid, out, FOURIER)
    if direction == "inverse":
        if f.space != FOURIER:
            raise ValueError("inverse transform expects a fourier-space field")
        out = np.fft.irfftn(f.data, s=f.grid.shape, axes=axes, norm="ortho")
        return SpectralField(f.grid, out, PHYSICAL)
    raise ValueError(f"unknown transform direction {direction!r}")


def zero_nyquist(f: SpectralField) -> SpectralField:
    """Zero the convention-dead Nyquist rows of a fourier-space field."""
    _require_fourier(f)
    out = f.data.copy()
    _zero_nyquist(f.grid, out)
    return fourier_field(f.grid, out)


def _zero_nyquist(grid: Grid, data: np.ndarray):
    """zero_nyquist in place on the coefficient stack data."""
    data[:, grid.nyquist_mask] = 0.0


def zero_mean(f: SpectralField) -> SpectralField:
    """Zero the xi = 0 coefficient of every component."""
    _require_fourier(f)
    out = f.data.copy()
    _zero_mean(f.grid, out)
    return fourier_field(f.grid, out)


def _zero_mean(grid: Grid, data: np.ndarray):
    """zero_mean in place on the coefficient stack data."""
    data[(slice(None),) + (0,) * grid.d] = 0.0


def mean_mode_magnitude(f: SpectralField) -> float:
    _require_fourier(f)
    return float(np.max(np.abs(f.data[(slice(None),) + (0,) * f.grid.d])))


def _require_fourier(f: SpectralField):
    if f.space != FOURIER:
        raise ValueError("operation requires a fourier-space field")


# relative conjugate asymmetry below which a spectrum counts as a real field's
HERMITIAN_RTOL = 1e-12


def _conjugate_mirror(a: np.ndarray, d: int) -> np.ndarray:
    """conj a(-xi) over the trailing d frequency axes (standard FFT layout):
    on a last-axis plane 0 or N/2 of the half lattice, the plane's own
    mirror image."""
    axes = tuple(range(a.ndim - d, a.ndim))
    return np.conj(np.roll(np.flip(a, axis=axes), 1, axis=axes))


def require_real_field(name: str, f: SpectralField):
    """Refuse a half spectrum whose self-mirrored last-axis planes 0 and N/2
    are not conjugate-symmetric (not a real field's), naming their largest
    conjugate asymmetry (Grid.plane_asymmetry)."""
    asym = f.grid.plane_asymmetry(f.data)
    if asym > HERMITIAN_RTOL:
        raise ValueError(
            f"{name} is not conjugate-symmetric (not a real field): the largest "
            f"conjugate asymmetry |a(xi) - conj a(-xi)| on its last-axis planes 0 and "
            f"N/2 is {asym:.3e} of its largest coefficient (tolerance {HERMITIAN_RTOL:g})"
        )


# ---------------------------------------------------------------------------
# ring partition

_SNAP_TOL = 1e-9


def _snap_near_integers(x: np.ndarray) -> np.ndarray:
    # |xi|^d lands exactly on ring boundaries for lattice points; pull values
    # within float noise of an integer onto it so floor() matches exact math
    xr = np.round(x)
    close = np.abs(x - xr) <= _SNAP_TOL * np.maximum(1.0, np.abs(xr))
    return np.where(close, xr, x)


def ring_index(xi, d: int) -> int:
    """Ring number n of a frequency: (n-1)^(1/d) <= |xi| < n^(1/d)."""
    r2 = float(sum(float(x) ** 2 for x in np.atleast_1d(xi)))
    x = _snap_near_integers(np.asarray(r2 ** (d / 2.0)))
    return int(np.floor(x)) + 1


@dataclass(frozen=True)
class RingPartition:
    """Ring number of every frequency of a grid's half lattice.

    Rings are pairwise disjoint and cover the lattice, so summing the ring
    projections of any field reconstructs it exactly; a mode and its
    mirror share a ring.
    """

    grid: Grid
    index_of: np.ndarray
    max_ring: int

    def occupancy(self) -> np.ndarray:
        """Mode count per ring over the whole lattice, entry n-1 for ring n
        (diagnostic only): each half-lattice mode counts with its Parseval
        weight, itself and its mirror."""
        counts = np.bincount(self.index_of.ravel() - 1,
                             weights=self.grid.weight.ravel(), minlength=self.max_ring)
        return counts.astype(np.int64)


@lru_cache(maxsize=32)
def ring_partition(grid: Grid) -> RingPartition:
    x = _snap_near_integers(grid.kabs ** grid.d)
    idx = np.floor(x).astype(np.int64) + 1
    return RingPartition(grid, idx, int(idx.max()))


def ring_project(f: SpectralField, n: int, partition: RingPartition | None = None) -> SpectralField:
    """Keep only the coefficients whose frequency lies in ring n."""
    _require_fourier(f)
    if n < 1:
        raise ValueError(f"ring index must be >= 1, got {n}")
    part = partition if partition is not None else ring_partition(f.grid)
    return fourier_field(f.grid, f.data * (part.index_of == n))


# ---------------------------------------------------------------------------
# multiplier operators


def friedrichs_cutoff(f: SpectralField, radius: float) -> SpectralField:
    """Sharp truncation to the frequency ball |xi| < radius."""
    _require_fourier(f)
    if not radius > 0:
        raise ValueError(f"cutoff radius must be positive, got {radius}")
    return fourier_field(f.grid, f.data * (f.grid.kabs < radius))


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: I - xi xi^T / |xi|^2 per mode.

    The xi = 0 mode passes through unchanged.
    """
    _require_fourier(f)
    g = f.grid
    if f.ncomp != g.d:
        raise ValueError("Leray projection needs one component per dimension")
    out = f.data.copy()
    _leray_project(g, out)
    return fourier_field(g, out)


def _leray_project(grid: Grid, data: np.ndarray):
    """leray_project in place on the coefficient stack data, one component
    per dimension; its temporaries are one component's size."""
    dot = np.zeros(grid.half_shape, dtype=np.complex128)
    term = np.empty_like(dot)
    for i in range(grid.d):
        np.multiply(grid.axis_frequency(i), data[i], out=term)
        dot += term
    ksq = grid.ksq
    dot /= np.where(ksq == 0.0, 1.0, ksq)
    for i in range(grid.d):
        np.multiply(grid.axis_frequency(i), dot, out=term)
        data[i] -= term


def multiplier(f: SpectralField, kind: str, order: float | int | None = None) -> SpectralField:
    """Apply a diagonal Fourier symbol.

    kind selects the symbol:
      "gradient"             i*xi_j with j = order (axis index)
      "divergence"           i*xi . f, contracting the d components to one
      "fractional_laplacian" |xi|^order; order < 0 demands a mean-zero field
      "bracket"              (1 + |xi|^2)^(order/2)
    """
    _require_fourier(f)
    g = f.grid
    if kind == "gradient":
        if order is None or not 0 <= int(order) < g.d:
            raise ValueError(f"gradient needs an axis in [0, {g.d}), got {order}")
        return fourier_field(g, 1j * g.axis_frequency(int(order)) * f.data)
    if kind == "divergence":
        if f.ncomp != g.d:
            raise ValueError("divergence needs one component per dimension")
        out = np.zeros(g.half_shape, dtype=np.complex128)
        for i in range(g.d):
            out += 1j * g.axis_frequency(i) * f.data[i]
        return fourier_field(g, out[None, ...])
    if kind == "fractional_laplacian":
        if order is None:
            raise ValueError("fractional_laplacian needs an exponent")
        s = float(order)
        if s < 0 and mean_mode_magnitude(f) != 0.0:
            raise ValueError(
                "negative-power fractional laplacian requires a mean-zero field"
            )
        kabs = g.kabs
        kabs_safe = np.where(kabs == 0.0, 1.0, kabs)
        sym = np.where(kabs == 0.0, 0.0 if s != 0 else 1.0, kabs_safe**s)
        return fourier_field(g, f.data * sym)
    if kind == "bracket":
        if order is None:
            raise ValueError("bracket needs an exponent")
        return fourier_field(g, f.data * (1.0 + g.ksq) ** (float(order) / 2.0))
    raise ValueError(f"unknown multiplier kind {kind!r}")


def dealias(f: SpectralField) -> SpectralField:
    """Two-thirds rule: zero every mode with any |xi_i| > dealias_cutoff."""
    _require_fourier(f)
    g = f.grid
    return fourier_field(g, f.data * (g.box_radius() <= g.dealias_radius))


def dealias_cutoff(N: int, L: float) -> float:
    """The 2/3 rule's bound (N/3)(2 pi/L) on each |xi_i|: the band the
    transport kernel's input is read on, and the largest cutoff radius the
    truncation ball may have."""
    return (N / 3.0) * (2.0 * math.pi / L)


def band_shape(d: int, N: int, k: int) -> tuple:
    """The shape of a band array of radius k with one component per
    dimension (Grid.band), known before any grid array is built."""
    return (d,) + (min(2 * k + 1, N),) * (d - 1) + (min(k, N // 2) + 1,)


def _sum_squares(axes):
    """|xi|^2 from one frequency array (or number) per axis, broadcastable
    against each other, summed in axis order: Grid.ksq, Grid.band_kabs and
    Grid.ball_radius all sum here, so the masks they give agree bit for
    bit."""
    return sum(a * a for a in axes)


def _signed_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The signed lattice indices of the rows of an n-point axis in FFT
    order: 0..n/2-1, then -n/2..-1."""
    return np.where(rows < n // 2, rows, rows - n)


def _band_rows(n: int, k: int) -> np.ndarray:
    """The row indices of _band_slabs(n, k), in order."""
    return np.concatenate([np.arange(*s.indices(n)) for s in _band_slabs(n, k)])


def _band_slabs(n: int, k: int) -> tuple:
    """The rows |k_i| <= k of an n-point axis in standard FFT order, as
    basic slices: the whole axis, or the two slabs 0..k and n-k..n-1."""
    if 2 * k + 1 >= n:
        return (slice(None),)
    return (slice(0, k + 1),) + ((slice(n - k, n),) if k else ())


def _band_passes(buf: np.ndarray, k: int, axes, fft) -> int:
    """Run fft in place (norm="ortho") along each leading axis of buf in
    axes, in order, buf of shape (ncomp,) + half lattice: only on the lines
    whose later leading indices lie in the rows |k_i| <= k and whose last
    index is <= k. Returns the number of 1-D transforms run."""
    d, N = buf.ndim - 1, buf.shape[1]
    lines = 0
    for ax in axes:
        for rows in itertools.product(*([_band_slabs(N, k)] * (d - 1 - ax))):
            v = buf[(slice(None),) * (ax + 1) + rows + (slice(0, k + 1),)]
            fft(v, axis=ax, norm="ortho", out=v)
            lines += v.size // v.shape[ax]
    return lines


class TransportPlan:
    """Index maps and work buffers of the transport kernel on one grid.

    The kernel reads the band array of its input on the cube |k_i| <= k_in
    (in_band) and returns the band array of its output on the cube
    |k_i| <= k_out (out_band); see Grid.band. k_in defaults to the 2/3
    band's radius, grid.dealias_radius, k_out to N/2, whose band is the
    whole half lattice. Its transforms run in the plan's buffers, so a plan
    serves one caller at a time: the stepper keeps one for its run, and
    the NSE residual one for the snapshot pairs it is handed. The buffers
    are d + 1 real lattice arrays, u and one product, and d half-lattice
    ones, spec, where the inverse passes run and each product of the
    symmetric tensor is then transformed in turn: 1.8 MiB on the default
    bands at d=3 N=32. calls counts the kernel calls the plan served, and
    fft_lines the 1-D transforms they ran: the lines of their pruned
    leading-axis passes (_band_passes) and of their whole last-axis irfft
    and rfft.
    """

    def __init__(self, grid: Grid, k_in: int | None = None, k_out: int | None = None):
        d, N = grid.d, grid.N
        k_in = grid.dealias_radius if k_in is None else k_in
        k_out = N // 2 if k_out is None else k_out
        self.grid = grid
        self.k_in, self.k_out = k_in, k_out
        self.in_band = grid.band(k_in)
        self.out_band = grid.band(k_out)
        # the upper triangle of the symmetric tensor, in the order its
        # products are formed and transformed
        self.pairs = [(i, j) for i in range(d) for j in range(i, d)]
        self.spec = np.empty((d,) + grid.half_shape, dtype=np.complex128)
        self.real = np.empty((d,) + grid.shape)
        self.prod = np.empty((1,) + grid.shape)
        self.calls = 0
        self.fft_lines = 0
        self.freqs = tuple(np.broadcast_to(grid.axis_frequency(ax), grid.half_shape)[self.out_band]
                           for ax in range(d))
        ksq = grid.ksq[self.out_band]
        self.inv_ksq = 1.0 / np.where(ksq == 0.0, 1.0, ksq)
        self.nyquist = grid.nyquist_mask[self.out_band]


def projected_transport_half(u_band: np.ndarray, plan: TransportPlan,
                             out: np.ndarray | None = None) -> np.ndarray:
    """P div(u x u) on the rfft half lattice of the plan's grid, for the
    real field u whose half spectrum, read on the plan's input band, is the
    band array u_band, shape (d,) + band shape.

    Products are formed in physical space on that band input. The tensor
    is symmetric, so only its upper triangle is transformed, one product
    at a time in the plan's pair order, and each is summed into the output
    as it is transformed. The transforms are irfftn's and rfftn's 1-D
    passes, pruned to the lines that carry band input or feed the output
    band: a leading-axis pass skips the lines that are all zero or whose
    values no output reads, so every kept value is the same to the bit as
    the unpruned transform's. The result is the band array on the plan's
    output band, written over out, a complex array of that shape, or into a
    fresh array. u_band is copied into the plan's buffer before out is
    written, so out may share its memory.
    Its Nyquist rows are zero: they hold aliasing only, and there the
    symbol i xi is not odd, so keeping them would break conjugate symmetry.
    """
    d, N = plan.grid.d, plan.grid.N
    plan.calls += 1
    X = plan.spec
    # the buffer holds the last call's products and the inverse passes
    # write outside the band, so it is zeroed first
    X.fill(0.0)
    X[(slice(None), *plan.in_band)] = u_band
    lines = _band_passes(X, plan.k_in, range(1, d), np.fft.ifft)
    U = np.fft.irfft(X, n=N, axis=d, norm="ortho", out=plan.real)
    lines += X.size // X.shape[-1]
    # P div T = i (S - xi (xi . S) / |xi|^2) with S_i = sum_j xi_j T_ij.
    # T_ij is the j-th term of S_i and the i-th of S_j, so the pair order
    # (0, 0), (0, 1), ... adds each S_i's terms in j order
    f = plan.freqs
    if out is None:
        out = np.empty((d,) + plan.inv_ksq.shape, dtype=np.complex128)
    # each product is transformed in the first slot of X, whose spectrum
    # of u the inverse pass has spent
    prod, slot = plan.prod, X[:1]
    for i, j in plan.pairs:
        np.multiply(U[i], U[j], out=prod[0])
        np.fft.rfft(prod, axis=d, norm="ortho", out=slot)
        lines += prod.size // prod.shape[-1]
        lines += _band_passes(slot, plan.k_out, range(d - 1, 0, -1), np.fft.fft)
        T = slot[(0, *plan.out_band)]
        for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
            if b == 0:
                np.multiply(f[0], T, out=out[a])
            else:
                out[a] += f[b] * T
    plan.fft_lines += lines
    dot = f[0] * out[0]
    for i in range(1, d):
        dot += f[i] * out[i]
    dot *= plan.inv_ksq
    for i in range(d):
        out[i] -= f[i] * dot
    out *= 1j
    out[:, plan.nyquist] = 0.0
    return out


# ---------------------------------------------------------------------------
# norms


def l2_norm(f: SpectralField) -> float:
    """L^2 norm with the cell-volume weight; identical in either space up to
    rounding (Parseval, with the half lattice's weights in fourier space)."""
    if f.space == PHYSICAL:
        return float(np.sqrt(f.grid.cell_volume * np.sum(f.data**2)))
    return sobolev_norm(f, 0.0)


def linf_norm(f: SpectralField) -> float:
    """Physical-space maximum of the pointwise Euclidean magnitude."""
    phys = transform(f, "inverse")
    return float(np.sqrt(np.sum(phys.data**2, axis=0)).max())


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Inhomogeneous Sobolev norm of order s via the bracket symbol.

    For s = 0 this is the L^2 norm; negative s gives the rough-data norms
    used throughout.
    """
    _require_fourier(f)
    w = (1.0 + f.grid.ksq) ** s
    w *= f.grid.weight
    # weight w |a|^2 is formed in one real work array and summed as one flat
    # array
    work = np.abs(f.data)
    work **= 2
    np.multiply(w, work, out=work)
    return float(np.sqrt(f.grid.cell_volume * np.sum(work)))
