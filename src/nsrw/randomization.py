"""Ring-wise randomization of Fourier data and sub-Gaussian diagnostics.

A randomization replaces each ring piece of a field by an independently
scaled copy, f_omega = sum_n l_n * (ring n piece of f), with the l_n drawn
from a mean-zero family whose moment generating function is dominated by
exp(c * gamma^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .spectral import (
    FOURIER,
    RingPartition,
    SpectralField,
    fourier_field,
    mean_mode_magnitude,
    ring_partition,
    sobolev_norm,
)

FAMILIES = ("rademacher", "gaussian", "uniform")

# moment-generating-function exponents: E exp(gamma*l) <= exp(c*gamma^2)
DEFAULT_SUBGAUSSIAN_C = {"rademacher": 0.5, "gaussian": 0.5, "uniform": 1.0 / 6.0}


@dataclass(frozen=True)
class RandomModel:
    """Distribution family for the ring coefficients l_n.

    family: "rademacher" (+-1), "gaussian" (standard normal) or "uniform"
    (Uniform[-1, 1]); c is the sub-Gaussian constant of the family and
    master_seed keys every stream derived from this model.
    """

    family: str
    master_seed: int
    c: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.c is None:
            object.__setattr__(self, "c", DEFAULT_SUBGAUSSIAN_C[self.family])


def _family_draw(model: RandomModel, sample_index, n: np.ndarray) -> np.ndarray:
    """Coefficients of the model's family at ring numbers n; sample_index
    and n broadcast against each other."""
    w0 = _rng.fold(model.master_seed, _rng.STREAM_COEFFICIENTS, sample_index, 0, n)
    if model.family == "rademacher":
        return _rng.rademacher(w0)
    if model.family == "gaussian":
        w1 = _rng.fold(model.master_seed, _rng.STREAM_COEFFICIENTS, sample_index, 1, n)
        return _rng.standard_gaussian(w0, w1)
    return _rng.uniform_symmetric(w0)


def sample_coefficients(model: RandomModel, max_ring: int, sample_index: int) -> np.ndarray:
    """Draw l_1..l_max_ring from counter streams keyed by (seed, sample, n),
    as an array whose entry n - 1 is l_n.

    The same (master_seed, sample_index) always reproduces the same values,
    and enlarging max_ring extends a draw without changing earlier entries.
    """
    if max_ring < 1:
        raise ValueError(f"max_ring must be >= 1, got {max_ring}")
    n = np.arange(1, max_ring + 1, dtype=np.int64)
    return _family_draw(model, sample_index, n)


def randomize(f: SpectralField, coefficients: np.ndarray, partition: RingPartition) -> SpectralField:
    """Multiply each coefficient of f by the l_n of its ring, entry n - 1 of
    coefficients.

    Requires mean-zero fourier-space data on the partition's grid. Scalar
    per-ring factors preserve divergence-freeness and, ring by ring, the
    coefficient moduli that all Sobolev norms are built from.
    """
    if f.space != FOURIER:
        raise ValueError("randomize expects a fourier-space field")
    if partition.grid != f.grid:
        raise ValueError("partition was built for a different grid")
    if mean_mode_magnitude(f) != 0.0:
        raise ValueError("randomize expects mean-zero data; zero the xi=0 mode first")
    if len(coefficients) < partition.max_ring:
        raise ValueError(
            f"draw has {len(coefficients)} coefficients, grid needs {partition.max_ring}"
        )
    factors = coefficients[partition.index_of - 1]
    return fourier_field(f.grid, f.data * factors)


def randomized(f: SpectralField, model: RandomModel, sample_index: int) -> SpectralField:
    """Sample sample_index of the model's randomization of f on its grid's
    ring partition: f_omega = sum_n l_n * (ring n piece of f)."""
    part = ring_partition(f.grid)
    return randomize(f, sample_coefficients(model, part.max_ring, sample_index), part)


def hminus_s_norm(f: SpectralField, s: float) -> float:
    """Sobolev norm of order -s, the natural size of the rough data."""
    return sobolev_norm(f, -s)


@dataclass(frozen=True)
class SubgaussianReport:
    family: str
    c: float
    gammas: np.ndarray
    margins: np.ndarray

    @property
    def max_margin(self) -> float:
        return float(self.margins.max())


def _log_mgf(family: str, gamma: float) -> float:
    if family == "rademacher":
        # log cosh, stably
        return float(np.logaddexp(gamma, -gamma) - np.log(2.0))
    if family == "gaussian":
        return 0.5 * gamma * gamma
    # uniform on [-1, 1]: log(sinh(gamma)/gamma), stably as
    # |gamma| + log(1 - e^{-2|gamma|}) - log(2|gamma|); expm1 keeps the
    # middle term accurate for small |gamma|
    g = abs(gamma)
    if g == 0.0:
        return 0.0
    return float(g + np.log(-np.expm1(-2.0 * g)) - np.log(2.0 * g))


def verify_subgaussian(model: RandomModel, gamma_grid: np.ndarray) -> SubgaussianReport:
    """Evaluate log E exp(gamma*l) - c*gamma^2 over a gamma grid.

    A valid (family, c) pair keeps every margin <= 0 up to float noise.
    """
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    if gammas.size == 0:
        raise ValueError("gamma grid is empty")
    margins = np.array(
        [_log_mgf(model.family, g) - model.c * g * g for g in gammas]
    )
    return SubgaussianReport(model.family, model.c, gammas, margins)


def coefficient_matrix(model: RandomModel, max_ring: int, n_samples: int) -> np.ndarray:
    """Draws for sample_index 0..n_samples-1 as an (M, max_ring) array.

    Broadcasts the counter streams, so row i is bit-identical to
    sample_coefficients(model, max_ring, i).
    """
    idx = np.arange(n_samples, dtype=np.int64)[:, None]
    n = np.arange(1, max_ring + 1, dtype=np.int64)[None, :]
    return _family_draw(model, idx, n)
