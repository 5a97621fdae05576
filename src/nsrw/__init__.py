"""Pseudo-spectral laboratory for randomized rough-data incompressible flow."""

from .spectral import (
    FOURIER,
    PHYSICAL,
    Grid,
    RingPartition,
    SpectralField,
    dealias,
    fourier_field,
    friedrichs_cutoff,
    l2_norm,
    leray_project,
    linf_norm,
    make_grid,
    multiplier,
    physical_field,
    ring_index,
    ring_partition,
    ring_project,
    sobolev_norm,
    transform,
    zeros_field,
)
from .randomization import (
    RandomModel,
    hminus_s_norm,
    randomize,
    sample_coefficients,
    verify_subgaussian,
)
from .data import borderline_field, smooth_random_field, taylor_green
from .heat import check_linear_estimates, condg_check, heat_semigroup
from .tails import (
    NormSpec,
    TailFitResult,
    check_admissible,
    moment_bound_check,
    space_time_norm,
)
from .solver import (
    SolverConfig,
    Trajectory,
    nonlinear_rhs,
    solve,
    step,
)
from .diagnostics import condtg_check, dwdt_norm, nse_residual
from .config import ExperimentConfig, parse_config
from .checkpoint import load_checkpoint, save_checkpoint
from .experiments import run_experiment

__version__ = "0.1.0"
