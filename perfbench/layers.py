"""Traced layer run: one in-process CLI run with a span around every call
into an nsrw layer, then short timings of single layer calls.

    python3 perfbench/layers.py WORKLOAD CONFIG.json SEED OUT_DIR TRACE_FILE

Prints one JSON object as its last stdout line: the per-layer metrics that
can be taken from inside the process, plus `traced_s` (process start to
the return of the traced CLI call). Metrics of layers a workload does not
exercise are left out; run.py reports them as 0. The span list goes to TRACE_FILE.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import nsrw  # noqa: E402,F401  (loads every layer module before wrapping)
import nsrw.cli  # noqa: E402

from common import WORKLOADS, cli_argv  # noqa: E402
from tracing import LAYERS, Tracer, install  # noqa: E402

MICRO_REPS = 30


def _ms_samples(fn, reps: int) -> list:
    fn()  # warm caches (plans, exp tables) before timing
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        out.append(1e3 * (time.perf_counter() - t))
    return out


def _p(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _data(cfg):
    """The run's (grid, data, randomized data), built as experiments does."""
    from nsrw.experiments import build_data_field
    from nsrw.randomization import randomize, sample_coefficients
    from nsrw.spectral import ring_partition

    grid, f = build_data_field(cfg)
    if not cfg.randomize_data:
        return grid, f, f
    part = ring_partition(grid)
    return grid, f, randomize(f, sample_coefficients(cfg.random_model(), part.max_ring, 0), part)


def fft_per_item(cfg) -> int:
    """Scalar N^d transforms per work item, counted from the code paths
    (not measured): per RK4 step with the energy ledger, per Monte Carlo
    sample, per decay time point."""
    d = cfg.d
    if cfg.experiment == "solve":
        per_rhs = 2 * d + d * (d + 1) // 2 + d * d
        return 4 * per_rhs if cfg.integrator == "ifrk4" else 2 * per_rhs
    if cfg.experiment == "tails":
        from nsrw.tails import default_time_grid

        return default_time_grid(cfg.T).size * d
    if cfg.experiment == "heatflow":
        return sum(d ** (k + 1) for k in cfg.k_orders) + d + d * d
    return 0


def solver_metrics(cfg, traj, summary) -> dict:
    from nsrw.solver import nonlinear_rhs, solve, step

    sconf = cfg.solver_config()
    m = {}
    m["solver.steps"] = summary["steps"]
    m["solver.rhs_calls"] = summary["steps"] * (4 if cfg.integrator == "ifrk4" else 2)
    m["solver.snapshot_mb"] = sum(
        s.data.nbytes for s in list(traj.w_states) + list(traj.g_states)
    ) / 2**20
    w, g = traj.w_states[-1], traj.g_states[-1]
    t_prev = float(traj.times[-2])
    del traj
    _, _, f_om = _data(cfg)

    rhs = _ms_samples(lambda: nonlinear_rhs(w, g, sconf.cutoff), MICRO_REPS)
    steps = _ms_samples(lambda: step(w, t_prev, sconf.dt, sconf, f_om), MICRO_REPS)
    m["solver.rhs_ms_p50"], m["solver.rhs_ms_p90"] = _p(rhs, 50), _p(rhs, 90)
    m["solver.step_ms_p50"], m["solver.step_ms_p90"] = _p(steps, 50), _p(steps, 90)

    on_s = _timed(lambda: solve(sconf, f_om))
    off_s = _timed(lambda: solve(dataclasses.replace(sconf, track_energy=False), f_om))
    m["solver.solve_s"] = on_s
    m["solver.solve_noledger_s"] = off_s
    m["solver.ledger_share"] = 1.0 - off_s / on_s
    tracemalloc.start()
    solve(sconf, f_om)
    m["solver.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return m


def d2_baseline_metrics(cfg) -> dict:
    """The ROADMAP solve baseline: d=2 N=64 dt=1/512 (555 steps) with the
    energy ledger on and off, at this run's seed."""
    from nsrw.config import ExperimentConfig
    from nsrw.solver import solve

    d2 = ExperimentConfig(experiment="solve", d=2, N=64, dt=1.0 / 512.0, master_seed=cfg.master_seed)
    sconf = d2.solver_config()
    _, _, f_om = _data(d2)
    return {
        "solver.d2_solve_s": _timed(lambda: solve(sconf, f_om)),
        "solver.d2_solve_noledger_s": _timed(
            lambda: solve(dataclasses.replace(sconf, track_energy=False), f_om)
        ),
    }


def checkpoint_metrics(out: Path) -> dict:
    from nsrw.checkpoint import load_checkpoint

    files = sorted(out.glob("checkpoint_*.nsrw"))
    if not files:
        return {}
    loads = []
    for path in files[-5:]:
        loads.append(1e3 * _timed(lambda: load_checkpoint(path)))
    return {
        "checkpoint.load_ms": statistics.median(loads),
        "checkpoint.bytes": sum(p.stat().st_size for p in files),
    }


def tails_metrics(cfg) -> dict:
    from nsrw.tails import sample_space_time_norms

    _, f, _ = _data(cfg)
    model, spec = cfg.random_model(), cfg.norm_spec()
    count = 16
    sample_space_time_norms(f, model, spec, 2)  # warm the decay table
    # alternate the two worker counts so drifting machine speed hits both
    one, two = [], []
    for _ in range(3):
        for workers, times in ((1, one), (2, two)):
            times.append(
                _timed(lambda: sample_space_time_norms(f, model, spec, count, workers=workers))
            )
    one, two = statistics.median(one), statistics.median(two)
    return {"tails.sample_1w_ms": 1e3 * one / count, "tails.parallel_eff": one / (2.0 * two)}


def heat_metrics(cfg) -> dict:
    from nsrw.heat import condg_check, default_decay_time_grid

    grid, _, f_om = _data(cfg)
    t_first = default_decay_time_grid(grid, cfg.T, cfg.t_points_per_decade)[:1]
    sweep = _ms_samples(lambda: condg_check(f_om, cfg.s, t_first), 3)
    return {"heat.linf_sweep_ms": statistics.median(sweep)}


def span_metrics(tracer: Tracer, cfg) -> dict:
    def total(name):
        return sum(s.duration for s in tracer.by_name(name))

    def durations_ms(name):
        return [1e3 * s.duration for s in tracer.by_name(name)]

    layer_of = {s.id: s.layer for s in tracer.spans}
    m = {}
    self_times = tracer.self_times()
    for layer in sorted(set(LAYERS.values())):
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0)
        m[f"{layer}.calls"] = sum(1 for s in tracer.spans if s.layer == layer)

    m["data.build_ms"] = 1e3 * sum(s.duration for s in tracer.top_level() if s.layer == "data")
    draws = len(tracer.by_name("randomization.randomize"))
    if draws:
        m["randomization.draw_ms"] = 1e3 * (
            total("randomization.sample_coefficients") + total("randomization.randomize")
        ) / draws

    m["diagnostics.divergence_s"] = sum(
        s.duration for s in tracer.by_name("spectral.divergence_ratio")
        if layer_of.get(s.parent) == "experiments"
    )
    m["diagnostics.dwdt_s"] = total("diagnostics.dwdt_norm")
    m["diagnostics.reconstruct_s"] = total("solver.reconstruct_u")
    saves = durations_ms("checkpoint.save_checkpoint")
    m["checkpoint.save_ms"] = statistics.median(saves) if saves else 0.0

    samples = durations_ms("tails.space_time_norm")
    m["tails.sample_ms_p50"], m["tails.sample_ms_p90"] = _p(samples, 50), _p(samples, 90)
    m["tails.fit_ms"] = 1e3 * total("tails.fit_gaussian_tail")

    linear = tracer.by_name("heat.check_linear_estimates")
    for k, s in zip(cfg.k_orders, sorted(linear, key=lambda s: s.start)):
        m[f"heat.linear_k{k}_s"] = s.duration
    m["heat.condg_s"] = total("heat.condg_check")
    return m


def main(workload: str, config: str, seed: str, out: str, trace_file: str) -> int:
    from nsrw.config import parse_config
    from nsrw.spectral import transform

    out = Path(out)
    tracer = Tracer()
    install(tracer)
    # keep the trajectory of the traced solve for the snapshot metrics
    import nsrw.experiments as experiments

    kept = {}
    traced_solve = experiments.solve

    def keep_solve(*args, **kwargs):
        kept["traj"] = traced_solve(*args, **kwargs)
        return kept["traj"]

    experiments.solve = keep_solve
    started = time.perf_counter()
    status = nsrw.cli.main(cli_argv(workload, Path(config), int(seed), out))
    traced_s = time.perf_counter() - T0
    experiments.solve = traced_solve
    tracer.active = False
    if status != 0:
        print(f"traced run exited with status {status}", file=sys.stderr)
        return 1
    Path(trace_file).write_text(json.dumps(tracer.dump()) + "\n")

    cfg = parse_config(config)
    cfg.experiment = WORKLOADS[workload]["verb"]
    cfg.master_seed = int(seed)
    summary = json.loads((out / "summary.json").read_text())

    m = span_metrics(tracer, cfg)
    m["spectral.fft_count"] = fft_per_item(cfg)
    _, f, _ = _data(cfg)
    m["spectral.fft_ms"] = statistics.median(_ms_samples(lambda: transform(f, "inverse"), 7))
    m["traced_s"] = traced_s
    # the traced run's wall after the imports, minus the top-level layer
    # spans (data build included): config handling, artifact writing, glue
    m["experiments.overhead_s"] = traced_s - (started - T0) - sum(
        s.duration for s in tracer.top_level()
    )
    if cfg.experiment == "solve":
        m.update(checkpoint_metrics(out))
        m.update(solver_metrics(cfg, kept.pop("traj"), summary))
        m.update(d2_baseline_metrics(cfg))
    elif cfg.experiment == "tails":
        m.update(tails_metrics(cfg))
    elif cfg.experiment == "heatflow":
        m.update(heat_metrics(cfg))
    print(json.dumps(m))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
