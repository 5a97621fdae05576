"""Experiment configuration: JSON schema, validation, defaults.

Configs are flat JSON objects; unknown keys fail closed, every constraint
violation names the offending field, and parse -> serialize -> parse is
the identity. The documented schema lives in the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .diagnostics import condtg_inadmissible
from .randomization import FAMILIES, RandomModel
from .solver import INTEGRATORS, SolverConfig
from .spectral import dealias_cutoff
from .tails import TAIL_FIT_MIN_SAMPLES, NormSpec, check_admissible

EXPERIMENTS = ("randomize", "heatflow", "tails", "solve", "report")
DATA_KINDS = ("borderline", "taylor_green", "smooth_random")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str | None = None
    # grid and data
    d: int = 2
    N: int = 64
    L: float = 2.0 * math.pi
    s: float = 0.25
    data: str = "borderline"
    data_tilt: float | None = None
    normalize_data: bool = True
    randomize_data: bool = True
    # randomization model
    family: str = "gaussian"
    subgaussian_c: float | None = None
    master_seed: int = 20260810
    # solver
    T: float = 1.0
    dt: float = 1.0 / 256.0
    cutoff: float | None = None
    integrator: str = "ifrk4"
    substep_near_zero: bool = True
    snapshot_cadence: int = 8
    write_checkpoints: bool = False
    # space-time norm exponents
    gamma: float = 0.0
    sigma: float = 0.0
    p: float = 4.0
    q: float = 4.0
    # sampling and reporting
    monte_carlo_M: int = 1000
    k_orders: list[int] = field(default_factory=lambda: [0, 1])
    t_points_per_decade: int = 16
    output_dir: str = "out"
    workers: int = 1

    def effective_cutoff(self) -> float:
        if self.cutoff is not None:
            return float(self.cutoff)
        return (self.N / 4.0) * (2.0 * math.pi / self.L)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            cutoff=self.effective_cutoff(),
            T=self.T,
            dt=self.dt,
            integrator=self.integrator,
            substep_near_zero=self.substep_near_zero,
            snapshot_cadence=self.snapshot_cadence,
        )

    def trajectory_fingerprint(self) -> dict:
        """The settings that fix a solve trajectory: grid, data, draw,
        stepping and cutoff (not T, the snapshot cadence or the outputs).
        Checkpoints carry it, and a resume refuses a checkpoint whose
        fingerprint differs."""
        keys = (
            "d", "N", "L", "data", "data_tilt", "normalize_data", "randomize_data",
            "family", "subgaussian_c", "master_seed", "s", "dt", "substep_near_zero",
            "integrator",
        )
        return {**{k: getattr(self, k) for k in keys}, "cutoff": self.effective_cutoff()}

    def norm_spec(self) -> NormSpec:
        # the moment order r is p, the weakest the moment bound admits
        return NormSpec(
            gamma=self.gamma, sigma=self.sigma, p=self.p, q=self.q, r=self.p,
            s=self.s, T=self.T,
        )

    def random_model(self) -> RandomModel:
        return RandomModel(self.family, self.master_seed, self.subgaussian_c)

    def to_dict(self) -> dict:
        return asdict(self)


# field name -> its annotation, the one place field types are written down
_FIELD_TYPES = get_type_hints(ExperimentConfig)
_FLOAT_FIELDS = [name for name, hint in _FIELD_TYPES.items()
                 if hint is float or float in get_args(hint)]


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: an int stands in for a
    float, a bool only for a bool, null only in an optional field."""
    if get_origin(hint) is UnionType:
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _fail(name: str, message: str):
    raise ConfigError(f"config field {name!r}: {message}")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    # JSON admits NaN, Infinity and overflowing literals; no range check below
    # is meant to see them
    for name in _FLOAT_FIELDS:
        value = getattr(cfg, name)
        if value is not None and not _finite(value):
            _fail(name, f"must be a finite number, got {json.dumps(value)}")
    if cfg.experiment is not None and cfg.experiment not in EXPERIMENTS:
        _fail("experiment", f"must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if cfg.d not in (2, 3):
        _fail("d", f"must be 2 or 3, got {cfg.d}")
    if cfg.N % 2 != 0 or cfg.N < 8:
        _fail("N", f"must be even and >= 8, got {cfg.N}")
    if not cfg.L > 0:
        _fail("L", f"must be positive, got {cfg.L}")
    if not cfg.T > 0:
        _fail("T", f"must be positive, got {cfg.T}")
    if not cfg.dt > 0:
        _fail("dt", f"must be positive, got {cfg.dt}")
    if cfg.d == 3 and not 0 < cfg.s < 0.25:
        _fail("s", f"{cfg.s} out of range: the existence theorem needs 0 < s < 1/4 for d = 3")
    if cfg.d == 2 and not 0 < cfg.s < 1.0:
        _fail("s", f"{cfg.s} out of range: need 0 < s < 1 for d = 2")
    if cfg.data not in DATA_KINDS:
        _fail("data", f"must be one of {DATA_KINDS}, got {cfg.data!r}")
    if cfg.data == "taylor_green" and cfg.d != 2:
        _fail("data", "taylor_green data is 2D only")
    if cfg.family not in FAMILIES:
        _fail("family", f"must be one of {FAMILIES}, got {cfg.family!r}")
    if cfg.master_seed < 0:
        _fail("master_seed", "must be nonnegative")
    if cfg.integrator not in INTEGRATORS:
        _fail("integrator", f"must be one of {INTEGRATORS}, got {cfg.integrator!r}")
    if cfg.snapshot_cadence < 1:
        _fail("snapshot_cadence", "must be >= 1")
    if cfg.sigma < 0:
        _fail("sigma", "must be >= 0")
    if cfg.q < 2:
        _fail("q", f"{cfg.q} rejected: the moment estimates need p >= q >= 2")
    if not cfg.p >= cfg.q:
        _fail("p", f"exponents must satisfy p >= q, got p={cfg.p}, q={cfg.q}")
    if cfg.monte_carlo_M < 1:
        _fail("monte_carlo_M", "must be >= 1")
    if cfg.t_points_per_decade < 4:
        _fail("t_points_per_decade", "must be >= 4")
    if cfg.workers < 1:
        _fail("workers", "must be >= 1")
    if (not cfg.k_orders or any(k not in (0, 1, 2) for k in cfg.k_orders)
            or len(set(cfg.k_orders)) < len(cfg.k_orders)):
        _fail("k_orders", f"must be a nonempty subset of [0, 1, 2], got {cfg.k_orders}")
    band = dealias_cutoff(cfg.N, cfg.L)
    if cfg.cutoff is not None and not 0 < cfg.cutoff <= band * (1 + 1e-12):
        _fail("cutoff", f"must lie in (0, {band}] (the dealiased band), got {cfg.cutoff}")
    if cfg.data_tilt is not None and not cfg.data_tilt > cfg.d / 2.0:
        _fail("data_tilt", f"must exceed d/2 = {cfg.d / 2.0} for summable data")
    if cfg.experiment == "tails":
        if cfg.monte_carlo_M < TAIL_FIT_MIN_SAMPLES:
            _fail(
                "monte_carlo_M",
                f"tails needs at least {TAIL_FIT_MIN_SAMPLES} samples for its tail fit, "
                f"got {cfg.monte_carlo_M}",
            )
        if not check_admissible(cfg.norm_spec()):
            _fail(
                "gamma",
                f"inadmissible exponents: need (sigma + s - 2*gamma)*q < 2, got "
                f"({cfg.sigma} + {cfg.s} - 2*{cfg.gamma})*{cfg.q} = "
                f"{(cfg.sigma + cfg.s - 2 * cfg.gamma) * cfg.q}",
            )
    if cfg.experiment == "report":
        if not cfg.gamma < 0:
            _fail("gamma", "the report experiment weights the forcing norms and needs gamma < 0")
        problem = condtg_inadmissible(cfg.d, cfg.s, cfg.gamma, cfg.T)
        if problem is not None:
            _fail("gamma", problem)
    return cfg


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in raw.items():
        if not _fits(value, _FIELD_TYPES[name]):
            hint = ExperimentConfig.__annotations__[name]
            _fail(name, f"must be of type {hint}, got {json.dumps(value)}")
    return validate_config(ExperimentConfig(**raw))


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load, validate and default-fill a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n"
