"""nsrw benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh `python3 -m nsrw.cli <verb>` process on the checkout's
own sources; the next run starts only after the previous one has exited,
until S seconds have passed (at least one run). The program receives the
generated config plus --seed/--workers/--out, nothing else. Every run's
artifacts are checked (exit status, strict JSON, series.csv, invariants,
reference values at the default seed, byte-identical repeats) and then
deleted.

--trace 0 reports the end-to-end metrics. --trace 1 makes one untraced
run, then a traced in-process run (layers.py) and reports the per-layer
metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import (
    DEFAULT_SEED,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    check_outputs,
    child_env,
    cli_argv,
    dir_bytes,
    source_digest,
    strict_json,
    write_config,
)

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# a hung child is killed so the benchmark itself ends within 180 s
DEADLINE = time.monotonic() + 170.0
# metric names and units: BENCHMARK.json is the one list of both
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# ROADMAP north-star baselines (2 cores, numpy 2.4, Python 3.11) and the
# per-layer metric of the traced run that reproduces each
BASELINES = {
    "solve-d3-ckpt": [
        ("d=2 N=64 solve, 555 steps, energy ledger on", "solver.d2_solve_s", "s", 5.3),
        ("d=2 N=64 solve, 555 steps, energy ledger off", "solver.d2_solve_noledger_s", "s", 3.3),
    ],
    "tails-d2": [("one tails sample at d=2 N=64, one worker", "tails.sample_1w_ms", "ms", 57.0)],
    "heatflow-d3": [
        ("heatflow d=3 N=64 k=0,1, whole untraced CLI run", "trace.untraced_s", "s", 18.0),
        ("heatflow d=3 N=64 linear estimates k=0", "heat.linear_k0_s", "s", None),
        ("heatflow d=3 N=64 linear estimates k=1", "heat.linear_k1_s", "s", None),
        ("heatflow d=3 N=64 condg_check (about 9 s of 18 s)", "heat.condg_s", "s", 9.0),
    ],
}


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = "missing"
    return facts


def launch(argv: list, log: Path) -> tuple:
    """Run one child to completion; returns (status, wall_s, rusage)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=sink, stderr=sink)
        killer = threading.Timer(max(DEADLINE - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=WORK / "runs"))
        self.config = write_config(workload, self.tmp)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.digests_path = WORK / "digests.json"
        self.digest_key = f"{workload}:{seed}:{source_digest()}"
        self.attempted = 0
        self.failed = 0
        self.runs: list = []

    def fail(self, *messages: str):
        """Count one failed attempt, with the reasons."""
        self.failed += 1
        for message in messages:
            print(f"FAIL {message}")

    def setup_probe(self) -> float | None:
        self.attempted += 1
        log = self.tmp / "probe.log"
        status, wall, _ = launch(
            [sys.executable, str(HERE / "probe.py"), str(self.config), str(self.seed)], log
        )
        if status != 0:
            self.fail(f"set-up probe exited {status}: {tail(log)}")
            return None
        return wall

    def warm(self):
        """Untimed: compile the bytecode and warm the page cache once."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "nsrw")],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        self.setup_probe()

    def setup_s(self, probes: int) -> float:
        self.warm()
        walls = []
        for _ in range(probes):
            wall = self.setup_probe()
            if wall is not None:
                walls.append(wall)
        return statistics.median(walls) if walls else float("nan")

    def check_digest(self, digest: str):
        known = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        previous = known.setdefault(self.digest_key, digest)
        if previous != digest:
            return ["summary.json/series.csv differ from an earlier run at this seed"]
        self.digests_path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        return []

    def checked(self, status: int, log: Path, out: Path) -> dict | None:
        """The run's summary if it exited 0 and its artifacts pass every
        check, else None (and the attempt counts as failed)."""
        if status != 0:
            self.fail(f"exit status {status}: {tail(log)}")
            return None
        problems, summary, digest = check_outputs(self.workload, out, self.seed, self.reference)
        if not problems:
            problems = self.check_digest(digest)
        if problems:
            self.fail(*problems)
            return None
        return summary

    def cli_run(self) -> dict | None:
        self.attempted += 1
        out = self.tmp / f"out{self.attempted}"
        log = self.tmp / "cli.log"
        argv = [sys.executable, "-m", "nsrw.cli"] + cli_argv(
            self.workload, self.config, self.seed, out
        )
        status, wall, usage = launch(argv, log)
        try:
            summary = self.checked(status, log, out)
            if summary is None:
                return None
            run = {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "out_mb": dir_bytes(out) / 2**20,
                "items": summary[self.spec["items"]],
            }
            self.runs.append(run)
            return run
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def layer_run(self) -> dict | None:
        self.attempted += 1
        out = self.tmp / "traced"
        log = self.tmp / "layers.log"
        trace_file = WORK / "traces" / f"{self.workload}-seed{self.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, str(HERE / "layers.py"), self.workload, str(self.config),
            str(self.seed), str(out), str(trace_file),
        ]
        status, _, _ = launch(argv, log)
        try:
            if self.checked(status, log, out) is None:
                return None
            return strict_json(log.read_text().splitlines()[-1])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def median_of(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs) if runs else float("nan")


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = bench.setup_s(SETUP_PROBES)
    start = time.perf_counter()
    while True:
        bench.cli_run()
        if time.perf_counter() - start >= seconds:
            break
    runs = bench.runs
    for r in runs:
        r["items_per_s"] = r["items"] / (r["wall_s"] - setup)
        print("  run " + " ".join(f"{k}={v:.4g}" for k, v in r.items()))
    values = {name: median_of(runs, name) for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = setup
    counts = {name: len(runs) for name in END_TO_END}
    counts["setup_s"] = SETUP_PROBES
    return values, counts


def traced(bench: Bench) -> dict:
    bench.warm()
    run = bench.cli_run()
    layers = bench.layer_run()
    if run is None or layers is None:
        return {}
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    metrics["trace.traced_s"] = layers["traced_s"]
    metrics["trace.untraced_s"] = run["wall_s"]
    metrics["trace.overhead_share"] = layers["traced_s"] / run["wall_s"] - 1.0
    print(f"ROADMAP baselines ({bench.workload}):")
    for label, name, unit, roadmap in BASELINES.get(bench.workload, []):
        shown = f"{metrics[name]:.4g} {unit}"
        ref = f" (ROADMAP {roadmap:g} {unit})" if roadmap is not None else ""
        print(f"  {label}: {shown}{ref}  [{name}]")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nsrw" / "cli.py").is_file():
        print(f"error: no nsrw sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            values = traced(bench)
            metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in values.items()}
            for name, m in metrics.items():
                print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        else:
            values, counts = end_to_end(bench, args.seconds)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
            for name, m in metrics.items():
                print(f"  {name:12s} median {m['value']:.6g} {m['unit']}  (n={counts[name]})")
    finally:
        bench.close()
    failed = bench.failed
    print(f"  error_rate   {failed / max(bench.attempted, 1):.6g}  "
          f"({failed} failed of {bench.attempted} attempted)")
    correct = failed == 0 and bool(metrics)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"], correct = 0.0, False
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
