"""Periodic pseudo-spectral grids, fields, and Fourier-multiplier operators.

All transforms use the unitary DFT normalization, so the discrete Parseval
identity is exact up to rounding, and every norm carries the explicit cell
volume (L/N)^d as quadrature weight. Frequencies along each axis are
(2*pi/L) * {-N/2, ..., N/2 - 1} in standard FFT ordering; the Nyquist row
(-N/2) is a convention-zero row that constructed data never populates.

Real fields have conjugate-symmetric spectra, a(-xi) = conj a(xi), so the
rfft half of the lattice (last-axis indices 0..N/2, `Grid.half`) holds all
of their content; the transport kernel works there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

FOURIER = "fourier"
PHYSICAL = "physical"

__all__ = [
    "FOURIER",
    "PHYSICAL",
    "Grid",
    "HalfLattice",
    "SpectralField",
    "RingPartition",
    "make_grid",
    "fourier_field",
    "physical_field",
    "zeros_field",
    "transform",
    "as_fourier",
    "as_physical",
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
    "projected_transport",
    "projected_transport_half",
    "HERMITIAN_RTOL",
    "conjugate_mirror",
    "conjugate_asymmetry",
    "l2_norm",
    "lp_norm",
    "linf_norm",
    "sobolev_norm",
    "divergence_ratio",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^d with its Fourier lattice.

    Derived arrays (wavenumbers, masks) are precomputed once; they are
    excluded from equality and hashing, which use (d, N, L) only.
    """

    d: int
    N: int
    L: float
    k1d: np.ndarray = field(init=False, repr=False, compare=False)
    ksq: np.ndarray = field(init=False, repr=False, compare=False)
    kabs: np.ndarray = field(init=False, repr=False, compare=False)
    nyquist_mask: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_keep: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.d}")
        if self.N % 2 != 0 or self.N < 8:
            raise ValueError(f"grid size N must be even and >= 8, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"box period L must be positive, got {self.L}")
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.L / self.N)
        ksq = sum(a * a for a in self._broadcast_axes(k1))
        nyq_val = k1[self.N // 2]
        nyq = np.zeros(self.shape, dtype=bool)
        for a in self._broadcast_axes(k1):
            nyq |= np.broadcast_to(a == nyq_val, self.shape)
        kcut = (self.N / 3.0) * (2.0 * np.pi / self.L)
        keep = np.ones(self.shape, dtype=bool)
        for a in self._broadcast_axes(k1):
            keep &= np.broadcast_to(np.abs(a) <= kcut, self.shape)
        object.__setattr__(self, "k1d", k1)
        object.__setattr__(self, "ksq", ksq)
        object.__setattr__(self, "kabs", np.sqrt(ksq))
        object.__setattr__(self, "nyquist_mask", nyq)
        object.__setattr__(self, "dealias_keep", keep)

    def _broadcast_axes(self, k1: np.ndarray):
        for ax in range(self.d):
            sh = [1] * self.d
            sh[ax] = self.N
            yield k1.reshape(sh)

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    @property
    def kmax(self) -> float:
        """Largest lattice frequency magnitude along one axis, (2*pi/L)*N/2."""
        return (2.0 * np.pi / self.L) * (self.N / 2.0)

    def axis_frequency(self, ax: int) -> np.ndarray:
        """Frequency along one axis, broadcastable against the full lattice."""
        sh = [1] * self.d
        sh[ax] = self.N
        return self.k1d.reshape(sh)

    def coordinates(self):
        """Physical mesh, one (N, ..., N) array per axis."""
        x1 = self.L * np.arange(self.N) / self.N
        return np.meshgrid(*([x1] * self.d), indexing="ij")

    @cached_property
    def half(self) -> "HalfLattice":
        """The rfft half lattice, derived on first use and kept."""
        return HalfLattice.of(self)


@dataclass(frozen=True, eq=False)
class HalfLattice:
    """The rfft half of a grid's Fourier lattice: last-axis indices 0..N/2.

    Arrays have shape (N, ..., N, N/2 + 1) and hold the full lattice's
    values on that half. The last-axis planes 0 and N/2 are their own
    mirror images; every other mode stands for itself and its conjugate
    mirror, so the Parseval weight is 1 on those two planes and 2
    elsewhere: sum(weight * |a_half|^2) is the full-lattice sum of |a|^2
    for a conjugate-symmetric a. inv_ksq is 1/|xi|^2, set to 1 at xi = 0.
    """

    shape: tuple
    freqs: tuple
    ksq: np.ndarray
    inv_ksq: np.ndarray
    kabs: np.ndarray
    dealias_keep: np.ndarray
    nyquist_mask: np.ndarray
    weight: np.ndarray

    @classmethod
    def of(cls, grid: Grid) -> "HalfLattice":
        n = grid.N // 2 + 1
        freqs = tuple(
            np.ascontiguousarray(grid.axis_frequency(ax)[..., :n]) for ax in range(grid.d)
        )
        ksq = np.ascontiguousarray(grid.ksq[..., :n])
        weight = np.full(ksq.shape, 2.0)
        weight[..., 0] = 1.0
        weight[..., -1] = 1.0
        return cls(
            shape=ksq.shape,
            freqs=freqs,
            ksq=ksq,
            inv_ksq=1.0 / np.where(ksq == 0.0, 1.0, ksq),
            kabs=np.ascontiguousarray(grid.kabs[..., :n]),
            dealias_keep=np.ascontiguousarray(grid.dealias_keep[..., :n]),
            nyquist_mask=np.ascontiguousarray(grid.nyquist_mask[..., :n]),
            weight=weight,
        )

    def cut(self, a: np.ndarray) -> np.ndarray:
        """The half of a full-lattice array, as a contiguous copy."""
        return np.ascontiguousarray(a[..., : self.shape[-1]])

    def expand(self, h: np.ndarray) -> np.ndarray:
        """The conjugate-symmetric full-lattice array whose half is h.

        On the self-mirrored last-axis planes 0 and N/2 the result is the
        conjugate-symmetric part of h, which is all that irfftn reads there,
        so the result is exactly conjugate-symmetric.
        """
        n = self.shape[-1]
        full = np.zeros(h.shape[:-1] + (self.shape[0],), dtype=np.complex128)
        full[..., :n] = h
        mirror = conjugate_mirror(full, len(self.shape))
        full[..., n:] = mirror[..., n:]
        for plane in (0, n - 1):
            full[..., plane] = 0.5 * (full[..., plane] + mirror[..., plane])
        return full


def make_grid(d: int, N: int, L: float) -> Grid:
    """Build a periodic grid; rejects odd N, d outside {2, 3}, L <= 0."""
    return Grid(int(d), int(N), float(L))


@dataclass
class SpectralField:
    """d-dimensional vector (or scalar) field as stacked coefficient arrays.

    data has shape (ncomp, N, ..., N), complex128 in either space; the
    `space` tag says whether the trailing axes index frequencies or grid
    points. Operators below are pure: inputs are never mutated.
    """

    grid: Grid
    data: np.ndarray
    space: str = FOURIER

    def __post_init__(self):
        if self.space not in (FOURIER, PHYSICAL):
            raise ValueError(f"unknown space tag {self.space!r}")
        arr = np.asarray(self.data)
        if arr.shape[1:] != self.grid.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if arr.dtype != np.complex128:
            arr = arr.astype(np.complex128)
        self.data = arr

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.data.copy(), self.space)

    def component(self, i: int) -> np.ndarray:
        return self.data[i]

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
    return SpectralField(grid, np.zeros((ncomp,) + grid.shape, dtype=np.complex128), space)


def transform(f: SpectralField, direction: str) -> SpectralField:
    """Unitary DFT between physical and Fourier space.

    direction is "forward" (physical -> fourier) or "inverse"; the field's
    space tag must match the direction's source, otherwise ValueError.
    """
    axes = tuple(range(1, f.grid.d + 1))
    if direction == "forward":
        if f.space != PHYSICAL:
            raise ValueError("forward transform expects a physical-space field")
        out = np.fft.fftn(f.data, axes=axes, norm="ortho")
        return SpectralField(f.grid, out, FOURIER)
    if direction == "inverse":
        if f.space != FOURIER:
            raise ValueError("inverse transform expects a fourier-space field")
        out = np.fft.ifftn(f.data, axes=axes, norm="ortho")
        return SpectralField(f.grid, out, PHYSICAL)
    raise ValueError(f"unknown transform direction {direction!r}")


def as_fourier(f: SpectralField) -> SpectralField:
    return f if f.space == FOURIER else transform(f, "forward")


def as_physical(f: SpectralField) -> SpectralField:
    return f if f.space == PHYSICAL else transform(f, "inverse")


def zero_nyquist(f: SpectralField) -> SpectralField:
    """Zero the convention-dead Nyquist rows of a fourier-space field."""
    _require_fourier(f)
    out = f.data.copy()
    out[:, f.grid.nyquist_mask] = 0.0
    return fourier_field(f.grid, out)


def zero_mean(f: SpectralField) -> SpectralField:
    """Zero the xi = 0 coefficient of every component."""
    _require_fourier(f)
    out = f.data.copy()
    out[(slice(None),) + (0,) * f.grid.d] = 0.0
    return fourier_field(f.grid, out)


def mean_mode_magnitude(f: SpectralField) -> float:
    _require_fourier(f)
    return float(np.max(np.abs(f.data[(slice(None),) + (0,) * f.grid.d])))


def _require_fourier(f: SpectralField):
    if f.space != FOURIER:
        raise ValueError("operation requires a fourier-space field")


# relative conjugate asymmetry below which a spectrum counts as a real field's
HERMITIAN_RTOL = 1e-12


def conjugate_mirror(a: np.ndarray, d: int) -> np.ndarray:
    """conj a(-xi) over the trailing d frequency axes (standard FFT layout)."""
    axes = tuple(range(a.ndim - d, a.ndim))
    return np.conj(np.roll(np.flip(a, axis=axes), 1, axis=axes))


def conjugate_asymmetry(a: np.ndarray, d: int) -> float:
    """max |a(xi) - conj a(-xi)| relative to max |a|; 0 for a zero array."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(conjugate_mirror(a, d) - a).max() / scale)


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
    """Ring number of every lattice frequency on a grid.

    Rings are pairwise disjoint and cover the lattice, so summing the ring
    projections of any field reconstructs it exactly.
    """

    grid: Grid
    index_of: np.ndarray
    max_ring: int

    def occupancy(self) -> np.ndarray:
        """Mode count per ring, entry n-1 for ring n (diagnostic only)."""
        return np.bincount(self.index_of.ravel() - 1, minlength=self.max_ring)


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
    ksq_safe = np.where(g.ksq == 0.0, 1.0, g.ksq)
    dot = np.zeros(g.shape, dtype=np.complex128)
    for i in range(g.d):
        dot += g.axis_frequency(i) * f.data[i]
    dot /= ksq_safe
    out = np.empty_like(f.data)
    for i in range(g.d):
        out[i] = f.data[i] - g.axis_frequency(i) * dot
    return fourier_field(g, out)


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
        out = np.zeros(g.shape, dtype=np.complex128)
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
        kabs_safe = np.where(g.kabs == 0.0, 1.0, g.kabs)
        sym = np.where(g.kabs == 0.0, 0.0 if s != 0 else 1.0, kabs_safe**s)
        return fourier_field(g, f.data * sym)
    if kind == "bracket":
        if order is None:
            raise ValueError("bracket needs an exponent")
        return fourier_field(g, f.data * (1.0 + g.ksq) ** (float(order) / 2.0))
    raise ValueError(f"unknown multiplier kind {kind!r}")


def dealias(f: SpectralField) -> SpectralField:
    """Two-thirds rule: zero every mode with any |xi_i| > (N/3)*(2*pi/L)."""
    _require_fourier(f)
    return fourier_field(f.grid, f.data * f.grid.dealias_keep)


def projected_transport(u: SpectralField) -> SpectralField:
    """P div(u x u) of a real field u, on the full lattice.

    Only the half spectrum of u is read (for a real field the rest is its
    conjugate mirror); the result is projected_transport_half expanded to
    the full lattice, exactly conjugate-symmetric, zero on the Nyquist rows.
    """
    half = u.grid.half
    return fourier_field(u.grid, half.expand(projected_transport_half(half.cut(u.data), u.grid)))


def projected_transport_half(uh: np.ndarray, grid: Grid) -> np.ndarray:
    """P div(u x u) on the rfft half lattice, for the real field u whose half
    spectrum is uh, shape (d,) + grid.half.shape.

    Products are formed in physical space on the dealiased input. The
    tensor is symmetric, so only its upper triangle is transformed: d
    inverse and d(d+1)/2 forward real transforms per call. The output's
    Nyquist rows are zero: they hold aliasing only, and there the symbol
    i xi is not odd, so keeping them would break conjugate symmetry.
    """
    h = grid.half
    U = np.fft.irfftn(
        uh * h.dealias_keep, s=grid.shape, axes=tuple(range(1, grid.d + 1)), norm="ortho"
    )
    that = {}
    for i in range(grid.d):
        for j in range(i, grid.d):
            that[(i, j)] = that[(j, i)] = np.fft.rfftn(U[i] * U[j], norm="ortho")
    # P div T = i (S - xi (xi . S) / |xi|^2) with S_i = sum_j xi_j T_ij
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


# ---------------------------------------------------------------------------
# norms


def l2_norm(f: SpectralField) -> float:
    """L^2 norm with the cell-volume weight; identical in either space."""
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.data) ** 2)))


def _pointwise_magnitude(f: SpectralField) -> np.ndarray:
    phys = as_physical(f)
    return np.sqrt(np.sum(np.abs(phys.data) ** 2, axis=0))


def lp_norm(f: SpectralField, p: float) -> float:
    """Physical-space L^p norm of the pointwise Euclidean magnitude."""
    mag = _pointwise_magnitude(f)
    if np.isinf(p):
        return float(mag.max())
    return float((f.grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


def linf_norm(f: SpectralField) -> float:
    return lp_norm(f, np.inf)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Inhomogeneous Sobolev norm of order s via the bracket symbol.

    For s = 0 this is the L^2 norm; negative s gives the rough-data norms
    used throughout.
    """
    fh = as_fourier(f)
    w = (1.0 + fh.grid.ksq) ** s
    return float(np.sqrt(fh.grid.cell_volume * np.sum(w * np.abs(fh.data) ** 2)))


def divergence_ratio(f: SpectralField) -> float:
    """|div f|_L2 / |f|_L2, with 0/0 reported as 0."""
    fh = as_fourier(f)
    num = l2_norm(multiplier(fh, "divergence"))
    den = l2_norm(fh)
    return num / den if den > 0 else 0.0
