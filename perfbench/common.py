"""Workload table, child-process environment and output checks shared by
run.py and the traced layer run (layers.py)."""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scratch space: run dirs, traces, digests
DEFAULT_SEED = 20260810

# One entry per workload: the CLI verb, the config the program receives,
# the --workers flag, and the summary.json key that counts its work items.
WORKLOADS = {
    "solve-d3-ckpt": {
        "verb": "solve",
        "config": {
            "d": 3, "N": 32, "s": 0.2, "T": 0.125, "dt": 1.0 / 256.0,
            "snapshot_cadence": 1, "write_checkpoints": True,
        },
        "workers": 1,
        "items": "steps",
        "expect_items": 75,
    },
    "tails-d2": {
        "verb": "tails",
        "config": {"d": 2, "N": 64, "monte_carlo_M": 200},
        "workers": 2,
        "items": "M",
        "expect_items": 200,
    },
    # randomize_data is off: with a randomized draw the program's own L2
    # slope assertion misses its 0.1 tolerance at about a third of all
    # seeds at this grid, so the run would exit 1 on seeds other than the
    # default. The heat sweeps do the same work either way.
    "heatflow-d3": {
        "verb": "heatflow",
        "config": {"d": 3, "N": 64, "s": 0.2, "k_orders": [0, 1], "randomize_data": False},
        "workers": 1,
        "items": "times",
        "expect_items": 43,
    },
}

REFERENCE_RTOL = 1e-6
ENERGY_TOL = 1e-8
DIVERGENCE_TOL = 1e-10


def child_env() -> dict:
    """Environment for every child: the checkout's sources first, BLAS and
    OpenMP pinned to one thread, and no NSRW_THREADS cap."""
    env = dict(os.environ)
    env.pop("NSRW_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def write_config(workload: str, directory: Path) -> Path:
    path = directory / f"{workload}.json"
    path.write_text(json.dumps(WORKLOADS[workload]["config"], sort_keys=True) + "\n")
    return path


def cli_argv(workload: str, config: Path, seed: int, out: Path) -> list:
    spec = WORKLOADS[workload]
    return [
        spec["verb"], "--config", str(config), "--seed", str(seed),
        "--workers", str(spec["workers"]), "--out", str(out),
    ]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("summary.json", "series.csv"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _close(value, ref: float) -> bool:
    return isinstance(value, (int, float)) and math.isclose(
        value, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0
    )


def check_outputs(workload: str, out: Path, seed: int, reference: dict) -> tuple:
    """Validate one run's artifacts. Returns (problems, summary, digest);
    an empty problem list means the run is correct."""
    problems = []
    try:
        summary = strict_json((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"], None, None
    series = out / "series.csv"
    if not series.is_file() or series.stat().st_size == 0:
        return ["series.csv missing or empty"], summary, None
    spec = WORKLOADS[workload]
    if summary.get("failures"):
        problems.append(f"program reported failures: {summary['failures']}")
    items = summary.get(spec["items"])
    if items != spec["expect_items"]:
        problems.append(f"{spec['items']} = {items}, expected {spec['expect_items']}")
    if spec["verb"] == "solve":
        viol = summary.get("energy_violation_max")
        if not isinstance(viol, (int, float)) or viol > ENERGY_TOL:
            problems.append(f"energy_violation_max {viol} > {ENERGY_TOL}")
        div = summary.get("divergence_max")
        if not isinstance(div, (int, float)) or div > DIVERGENCE_TOL:
            problems.append(f"divergence_max {div} > {DIVERGENCE_TOL}")
        ckpts = summary.get("checkpoints", [])
        if spec["config"].get("write_checkpoints"):
            if len(ckpts) != summary.get("snapshots"):
                problems.append(f"{len(ckpts)} checkpoints for {summary.get('snapshots')} snapshots")
            for entry in ckpts:
                if not (out / entry["file"]).is_file():
                    problems.append(f"checkpoint {entry['file']} missing")
                    break
    if seed == DEFAULT_SEED:
        for key, ref in reference.get(workload, {}).items():
            if not _close(summary.get(key), ref):
                problems.append(
                    f"{key} = {summary.get(key)!r} differs from reference {ref!r} "
                    f"(rtol {REFERENCE_RTOL})"
                )
    return problems, summary, output_digest(out)
