"""One spectral layout: every fourier-space field the package returns holds
complex128 coefficients on the rfft half lattice, (ncomp,) + grid.half_shape,
and every physical-space field real float64 point values,
(ncomp,) + grid.shape."""

import numpy as np
import pytest

from conftest import TWO_PI, traced_peak
from nsrw.config import ExperimentConfig
from nsrw.data import borderline_field, smooth_random_field, taylor_green
from nsrw.experiments import build_data_field
from nsrw.heat import heat_semigroup
from nsrw.randomization import RandomModel, randomize, sample_coefficients
from nsrw.solver import SolverConfig, nonlinear_rhs, solve, step
from nsrw.spectral import (
    FOURIER,
    PHYSICAL,
    dealias,
    friedrichs_cutoff,
    leray_project,
    make_grid,
    multiplier,
    ring_partition,
    ring_project,
    transform,
    zero_mean,
    zero_nyquist,
    zeros_field,
)

CUTOFF = 4.0


def _data(grid):
    return smooth_random_field(grid, seed=3, band=2)


def _randomized(grid):
    part = ring_partition(grid)
    draw = sample_coefficients(RandomModel("gaussian", 5), part.max_ring, 0)
    return randomize(borderline_field(grid, 0.2, seed=4), draw, part)


def _trajectory(grid):
    cfg = SolverConfig(cutoff=CUTOFF, T=2.0 / 128.0, dt=1.0 / 128.0, substep_near_zero=False)
    return solve(cfg, _data(grid))


# name -> (field builder on a grid, expected space, ncomp: None for d)
CASES = {
    "borderline_field": (lambda g: borderline_field(g, 0.2, seed=1), FOURIER, None),
    "smooth_random_field": (_data, FOURIER, None),
    "taylor_green": (taylor_green, FOURIER, None),
    "randomize": (_randomized, FOURIER, None),
    "zeros_field": (lambda g: zeros_field(g), FOURIER, None),
    "zeros_field_physical": (lambda g: zeros_field(g, 1, PHYSICAL), PHYSICAL, 1),
    "transform_inverse": (lambda g: transform(_data(g), "inverse"), PHYSICAL, None),
    "transform_forward": (
        lambda g: transform(transform(_data(g), "inverse"), "forward"), FOURIER, None),
    "zero_nyquist": (lambda g: zero_nyquist(_data(g)), FOURIER, None),
    "zero_mean": (lambda g: zero_mean(_data(g)), FOURIER, None),
    "ring_project": (lambda g: ring_project(_data(g), 3), FOURIER, None),
    "friedrichs_cutoff": (lambda g: friedrichs_cutoff(_data(g), CUTOFF), FOURIER, None),
    "leray_project": (lambda g: leray_project(_data(g)), FOURIER, None),
    "dealias": (lambda g: dealias(_data(g)), FOURIER, None),
    "multiplier_gradient": (lambda g: multiplier(_data(g), "gradient", 0), FOURIER, None),
    "multiplier_divergence": (lambda g: multiplier(_data(g), "divergence"), FOURIER, 1),
    "multiplier_fractional_laplacian": (
        lambda g: multiplier(_data(g), "fractional_laplacian", -0.5), FOURIER, None),
    "multiplier_bracket": (lambda g: multiplier(_data(g), "bracket", -1.0), FOURIER, None),
    "heat_semigroup": (lambda g: heat_semigroup(_data(g), 0.1), FOURIER, None),
    "nonlinear_rhs": (
        lambda g: nonlinear_rhs(friedrichs_cutoff(_data(g), CUTOFF), _data(g), CUTOFF),
        FOURIER, None),
    "step": (
        lambda g: step(friedrichs_cutoff(_data(g), CUTOFF), 0.0, 1.0 / 128.0,
                       SolverConfig(cutoff=CUTOFF, T=1.0, dt=1.0 / 128.0), _data(g)),
        FOURIER, None),
    "Trajectory.w_states": (lambda g: _trajectory(g).w_states[-1], FOURIER, None),
    "Trajectory.g_states": (lambda g: _trajectory(g).g_states[-1], FOURIER, None),
}


@pytest.mark.parametrize("name, d", [(name, d) for name in sorted(CASES) for d in (2, 3)
                                     if (name, d) != ("taylor_green", 3)])
def test_fields_hold_the_one_layout(name, d):
    grid = make_grid(d, 16, TWO_PI)
    build, space, ncomp = CASES[name]
    f = build(grid)
    ncomp = d if ncomp is None else ncomp
    assert f.space == space
    if space == FOURIER:
        assert f.data.shape == (ncomp,) + grid.half_shape
        assert f.data.dtype == np.complex128
    else:
        assert f.data.shape == (ncomp,) + grid.shape
        assert f.data.dtype == np.float64


def test_data_build_peaks_below_16_mib():
    # the d=3 N=64 field is 6.2 MiB on the half lattice (the whole-lattice
    # build peaked at 32 MiB). Its random directions are built in the
    # field's own real parts and drawn a slab of rows at a time; the peak,
    # 14.6 MiB with the grid's half-lattice arrays built on the way, is now
    # the H^{-s} normalisation's work array. Drawing each component whole
    # read 19.6 MiB, or 16.5 MiB with the directions in a separate array
    cfg = ExperimentConfig(experiment="heatflow", d=3, N=64, s=0.2, randomize_data=False)
    (grid, f), peak = traced_peak(lambda: build_data_field(cfg))
    assert f.data.nbytes == 3 * 64 * 64 * 33 * 16
    assert peak < 16 * 2**20
