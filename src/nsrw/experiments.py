"""Experiment orchestration and artifact emission.

Each experiment writes series.csv, summary.json, plotdata/*.tsv and a
meta.json (timestamps, execution environment, the process's peak resident
set, per-phase wall seconds, the peak resident set after the data build
and at the end of each phase, and counters) under the configured output
directory, and nothing anywhere else; a solve with write_checkpoints also
writes each snapshot's checkpoint there as the snapshot is taken.
summary.json and series.csv are byte-deterministic for a fixed config and
seed, independent of the worker count: every Monte Carlo sample derives
its own counter stream and results are reduced in sample-index order.
"""

from __future__ import annotations

import datetime
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig
from .data import borderline_field, smooth_random_field, taylor_green
from .diagnostics import _ResidualPair, condtg_check, dwdt_report
from .heat import (
    _condg_from_sweeps,
    _in_window,
    _SweepField,
    default_decay_time_grid,
    linear_estimates,
)
from .randomization import hminus_s_norm, randomized, verify_subgaussian
from .solver import solve, stepping_lattice_size, u_half
from .spectral import TransportPlan, l2_norm, make_grid, ring_partition
from .tails import (
    TAIL_FIT_MIN_SAMPLES,
    _ordered_map,
    default_time_grid,
    fit_gaussian_tail,
    sample_space_time_norms,
)

ENERGY_TOL = 1e-8
DIVERGENCE_TOL = 1e-10
TAYLOR_GREEN_TOL = 1e-6
SUBGAUSSIAN_TOL = 1e-9
SLOPE_TOL = 0.1


@dataclass
class ExperimentResult:
    status: int
    summary: dict
    output_dir: Path


def resolve_workers(cfg: ExperimentConfig) -> int:
    cap = os.environ.get("NSRW_THREADS")
    workers = cfg.workers
    if cap is not None:
        try:
            workers = min(workers, max(int(cap), 1))
        except ValueError:
            raise ValueError(f"environment variable NSRW_THREADS must be an integer, "
                             f"got {cap!r}") from None
    return max(workers, 1)


def _jsonable(obj):
    """Plain JSON types; non-finite floats become the strings "NaN",
    "Infinity" and "-Infinity", so artifacts stay strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "NaN"
        if np.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_table(path: Path, names: list, columns: list, sep: str = ","):
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("ragged table columns")
    lines = [sep.join(names)]
    for row in zip(*columns):
        lines.append(sep.join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def build_data_field(cfg: ExperimentConfig):
    grid = make_grid(cfg.d, cfg.N, cfg.L)
    if cfg.data == "taylor_green":
        return grid, taylor_green(grid)
    if cfg.data == "smooth_random":
        return grid, smooth_random_field(grid, cfg.master_seed)
    return grid, borderline_field(
        grid, cfg.s, cfg.master_seed, tilt=cfg.data_tilt, normalize=cfg.normalize_data
    )


def _randomized_data(cfg: ExperimentConfig, f):
    return randomized(f, cfg.random_model(), 0) if cfg.randomize_data else f


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D float array, bit for bit: the mean of its middle
    value or two, NaN if any value is. np.median's NaN check imports
    numpy.ma, which would add its 1.7 MiB to a run's peak resident set."""
    x = np.sort(values)  # NaNs sort last
    n = x.size
    if n == 0 or np.isnan(x[-1]):
        return float("nan")
    return float(np.mean(x[(n - 1) // 2 : n // 2 + 1]))


def _peak_rss_mib() -> float:
    """The process's peak resident set so far, threads included, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Phases:
    """A verb's phase telemetry for meta.json, made after the data build,
    whose peak resident set it records first. `with phases(name):` adds the
    block's wall seconds, less those of the phases nested in it, to
    seconds[name] and records the peak at its end in peak_rss[name]. The
    phases named here come first, at 0 seconds and a null peak."""

    def __init__(self, *declared: str):
        self.seconds = dict.fromkeys(declared, 0.0)
        self.peak_rss = {"data": _peak_rss_mib(), **dict.fromkeys(declared)}
        self._nested = []  # the seconds of the phases nested in each open one

    @contextmanager
    def __call__(self, name: str):
        self._nested.append(0.0)
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed - self._nested.pop()
        if self._nested:
            self._nested[-1] += elapsed
        self.peak_rss[name] = _peak_rss_mib()

    def meta(self) -> dict:
        return {"phase_seconds": self.seconds, "phase_peak_rss_mib": self.peak_rss}


# ---------------------------------------------------------------------------
# individual experiments


def _run_randomize(cfg: ExperimentConfig, workers: int, outdir: Path, resume: str | None):
    grid, f = build_data_field(cfg)
    part = ring_partition(grid)
    model = cfg.random_model()
    base = hminus_s_norm(f, cfg.s)
    M = cfg.monte_carlo_M
    phases = _Phases()
    with phases("samples"):
        ratios = np.array(_ordered_map(
            lambda i: hminus_s_norm(randomized(f, model, i), cfg.s) / base, M, workers
        ))
    report = verify_subgaussian(model, np.linspace(-10.0, 10.0, 200))
    occ = part.occupancy()

    second_moment = float(np.mean(ratios**2))
    summary = {
        "hminus_norm_base": base,
        "norm_ratio_mean": float(ratios.mean()),
        "norm_ratio_max_abs_dev": float(np.abs(ratios - 1.0).max()),
        "second_moment": second_moment,
        "second_moment_rel_err": abs(second_moment - 1.0),
        "subgaussian_family": model.family,
        "subgaussian_c": model.c,
        "subgaussian_max_margin": report.max_margin,
        "ring_count": int(part.max_ring),
        "ring_occupancy_min": int(occ.min()),
        "ring_occupancy_max": int(occ.max()),
        "ring_occupancy_mean": float(occ.mean()),
        "empty_rings": int(np.sum(occ == 0)),
        "samples": M,
    }
    failures = []
    if report.max_margin > SUBGAUSSIAN_TOL:
        failures.append(
            f"sub-gaussian margin {report.max_margin} exceeds {SUBGAUSSIAN_TOL}"
        )
    if model.family == "rademacher" and summary["norm_ratio_max_abs_dev"] > 1e-12:
        failures.append("rademacher draws must preserve the data norm to 1e-12")
    if model.family in ("rademacher", "gaussian") and M >= 2000:
        if summary["second_moment_rel_err"] > 0.05:
            failures.append(
                f"ensemble second moment off by {summary['second_moment_rel_err']} (> 5%)"
            )
    series = (["sample", "hminus_norm_ratio"], [np.arange(M), ratios])
    plotdata = {
        "subgaussian_margin": (["gamma", "margin"], [report.gammas, report.margins])
    }
    return summary, failures, series, plotdata, {**phases.meta(), "counters": {"samples": M}}


def _run_heatflow(cfg: ExperimentConfig, workers: int, outdir: Path, resume: str | None):
    grid, f = build_data_field(cfg)
    f_om = _randomized_data(cfg, f)
    del f  # nothing reads the unrandomized data after the draw
    phases = _Phases()
    t_grid = default_decay_time_grid(grid, cfg.T, cfg.t_points_per_decade)
    if _in_window(t_grid, grid).sum() < 2:
        raise ConfigError(f"config field 'T': {cfg.T} leaves fewer than 2 decay times in the "
                          f"slope-fit window [t_min, 10 t_min], t_min = 2.5 / kmax^2")

    summary = {"times": len(t_grid), "k_orders": list(cfg.k_orders)}
    failures = []
    names = ["time"]
    columns = [t_grid]
    # condg is read off the k = 0 and k = 1 sweeps, so those always run
    swept = sorted(set(cfg.k_orders) | {0, 1})
    with phases("sweeps"):
        # the orders share one sweep and the field's checks, H^{-s} norm and
        # shell sums
        field = _SweepField(f_om)
        reports = linear_estimates(field, cfg.s, swept, t_grid)
    for k in cfg.k_orders:
        rep = reports[k]
        target = -(cfg.s + k) / 2.0
        summary[f"l2_slope_k{k}"] = rep.l2.fitted_slope
        summary[f"l2_slope_target_k{k}"] = target
        summary[f"l2_bound_constant_k{k}"] = rep.l2.bound_constant
        summary[f"linf_slope_k{k}"] = rep.linf.fitted_slope
        summary[f"linf_bound_constant_k{k}"] = rep.linf.bound_constant
        summary[f"linf_sqrt_bound_constant_k{k}"] = rep.linf_sqrt_bound_constant
        names += [f"l2_k{k}", f"linf_k{k}", f"l2_ratio_k{k}", f"linf_ratio_k{k}"]
        columns += [rep.l2.values, rep.linf.values, rep.l2.ratios, rep.linf.ratios]
        if cfg.data == "borderline":
            err = abs(rep.l2.fitted_slope - target)
            if err > SLOPE_TOL:
                failures.append(
                    f"k={k}: fitted L2 slope {rep.l2.fitted_slope} misses target "
                    f"{target} by {err} (> {SLOPE_TOL})"
                )
        if not np.isfinite(rep.l2.bound_constant) or not np.isfinite(rep.linf.bound_constant):
            failures.append(f"k={k}: non-finite bound constant")

    linf = {k: reports[k].linf.values for k in (0, 1)}
    cg = _condg_from_sweeps(t_grid, cfg.s, grid.d, reports[0].l2.values, linf)
    summary["condg_sup_l2"] = cg.sup_l2
    summary["condg_sup_linf_k0"] = cg.sup_linf[0]
    summary["condg_sup_linf_k1"] = cg.sup_linf[1]
    plotdata = {
        "condg_ratios": (
            ["time", "l2_ratio", "linf_ratio_k0", "linf_ratio_k1"],
            [cg.times, cg.l2_ratios, cg.linf_ratios[0], cg.linf_ratios[1]],
        )
    }
    meta = {
        **phases.meta(),
        "counters": {
            "decay_times": len(t_grid),
            "field_transforms": field.transforms,
            "pruned_field_transforms": field.pruned_transforms,
            "sweep_fft_lines": field.fft_lines,
        },
    }
    return summary, failures, (names, columns), plotdata, meta


def _run_tails(cfg: ExperimentConfig, workers: int, outdir: Path, resume: str | None):
    _, f = build_data_field(cfg)
    phases = _Phases()
    with phases("samples"):
        samples = sample_space_time_norms(f, cfg.random_model(), cfg.norm_spec(),
                                          cfg.monte_carlo_M, workers=workers)
    hnorm = hminus_s_norm(f, cfg.s)
    with phases("fit"):
        fit = fit_gaussian_tail(samples, hnorm)
    summary = {
        "C1": fit.C1,
        "C2": fit.C2,
        "r_squared": fit.r_squared,
        "M": fit.M,
        "hminus_norm": hnorm,
        "sample_median": float(np.quantile(fit.samples, 0.5)),
        "sample_q995": float(np.quantile(fit.samples, 0.995)),
        "sample_mean": float(fit.samples.mean()),
    }
    failures = []
    if cfg.monte_carlo_M >= 1000:
        if fit.r_squared < 0.95:
            failures.append(f"tail fit r_squared {fit.r_squared} below 0.95")
        if fit.C2 <= 0:
            failures.append(f"tail exponent C2 {fit.C2} not positive")
    series = (["lambda", "empirical_prob"], [fit.lambda_grid, fit.empirical_prob])
    plotdata = {
        "tail_fit": (
            ["lambda_sq_scaled", "log_prob", "fit"],
            [fit.fit_x, fit.fit_y, np.log(fit.C1) - fit.C2 * fit.fit_x],
        )
    }
    meta = {
        **phases.meta(),
        "counters": {"samples": cfg.monte_carlo_M, "time_points": default_time_grid(cfg.T).size},
    }
    return summary, failures, series, plotdata, meta


def _run_solve(cfg: ExperimentConfig, workers: int, outdir: Path, resume: str | None):
    grid, f = build_data_field(cfg)
    f_om = _randomized_data(cfg, f)
    del f  # nothing reads the unrandomized data after the draw
    # checkpoint writes nest in the solve; their peak is null if none is written
    phases = _Phases("checkpoint_writes")
    sconf = cfg.solver_config()
    fingerprint = cfg.trajectory_fingerprint()
    resume_band = resume_time = None
    if resume is not None:
        # the fingerprint pins d, N, L and the cutoff
        resume_band, resume_time, _ = load_checkpoint(resume, fingerprint)

    ckpt_files, div_rel, residual_times, residuals = [], [], [], []
    residual_pair = _ResidualPair(grid, TransportPlan(grid))
    prev_u = None  # (t, u) of the last snapshot, the first of the next pair
    snapshot_bytes = 0

    def consume(step: int, t: float, w_band: np.ndarray):
        """Each snapshot's jobs as solve hands it out, so no snapshot list
        is held: its checkpoint, its div_rel, the residual of the pair it
        ends and its bytes."""
        nonlocal prev_u, snapshot_bytes
        if cfg.write_checkpoints:
            # named by its step boundary, so a resume into this directory
            # rewrites only the files of the steps it takes again
            with phases("checkpoint_writes"):
                name = f"checkpoint_{step:04d}.nsrw"
                save_checkpoint(grid, w_band, t, sconf.cutoff, fingerprint, outdir / name)
                ckpt_files.append({"file": name, "time": t})
        # on the whole half lattice, so the sums keep their grouping
        div_rel.append(grid.divergence_ratio(grid.scatter(w_band)))
        with phases("residual"):
            u = u_half(f_om, t, w_band)
            if prev_u is not None:
                mid, value = residual_pair(*prev_u, t, u)
                residual_times.append(mid)
                residuals.append(value)
            prev_u = (t, u)
        snapshot_bytes += w_band.nbytes

    # the checkpoint writes and the residual nest in the solve
    with phases("solve"):
        traj = solve(sconf, f_om, resume_band=resume_band, resume_time=resume_time,
                     on_snapshot=consume)
    div_rel, residuals = np.array(div_rel), np.array(residuals)

    log = traj.energy_log
    snap_idx = np.searchsorted(log.times, traj.times)
    w_l2 = np.sqrt(log.kinetic[snap_idx])
    dwdt = dwdt_report(traj.times, traj.dwdt_hminus1, grid.d)
    f_l2 = l2_norm(f_om)

    summary = {
        "steps": int(log.times.size - 1),
        "snapshots": int(traj.times.size),
        "terminal_time": float(traj.times[-1]),
        "terminal_w_l2": float(w_l2[-1]),
        "w_sup_l2": float(np.sqrt(log.kinetic.max())),
        "w_sup_ratio": float(np.sqrt(log.kinetic.max()) / f_l2) if f_l2 > 0 else 0.0,
        "data_l2": f_l2,
        "energy_sup": log.energy_sup(),
        "energy_violation_max": log.max_violation(),
        "divergence_max": float(div_rel.max()),
        "dwdt_time_norm": dwdt.time_norm,
        "nse_residual_max": float(residuals.max()),
        "nse_residual_median": _median(residuals),
        "checkpoints": ckpt_files,
    }
    failures = []
    if summary["energy_violation_max"] > ENERGY_TOL:
        failures.append(
            f"energy inequality violated by {summary['energy_violation_max']} (> {ENERGY_TOL})"
        )
    if summary["divergence_max"] > DIVERGENCE_TOL:
        failures.append(
            f"relative divergence {summary['divergence_max']} exceeds {DIVERGENCE_TOL}"
        )
    if cfg.data == "taylor_green" and summary["w_sup_ratio"] > TAYLOR_GREEN_TOL:
        failures.append(
            f"taylor-green fluctuation ratio {summary['w_sup_ratio']} exceeds "
            f"{TAYLOR_GREEN_TOL}"
        )

    idx = snap_idx  # energy-log entries aligned with snapshot times
    series = (
        [
            "time",
            "w_l2",
            "kinetic",
            "dissipation_cum",
            "energy_total",
            "pairing_abs_cum",
            "div_rel",
            "dwdt_hminus1",
        ],
        [
            traj.times,
            w_l2,
            log.kinetic[idx],
            log.dissipation_cum[idx],
            log.kinetic[idx] + log.dissipation_cum[idx],
            log.pairing_abs_cum[idx],
            div_rel,
            dwdt.values,
        ],
    )
    plotdata = {
        "nse_residual": (
            ["time", "residual_hminus1"],
            [residual_times, residuals],
        )
    }
    # how the solver ran, not what it computed: meta.json only, so
    # summary.json and series.csv stay byte-reproducible
    meta = {
        "stepping_lattice": {"N": cfg.N, "M": stepping_lattice_size(grid, sconf.cutoff)},
        **phases.meta(),
        "counters": {
            "steps": summary["steps"],
            "snapshots": summary["snapshots"],
            "rhs_evaluations": traj.rhs_evaluations,
            # the 1-D transforms the transport kernel ran, pruned lines left out
            "stepper_fft_lines": traj.fft_lines,
            "residual_fft_lines": residual_pair.plan.fft_lines,
            # the band bytes of the snapshots solve handed out
            "snapshot_bytes": snapshot_bytes,
            "checkpoint_files": len(ckpt_files),
            "checkpoint_bytes": sum((outdir / c["file"]).stat().st_size for c in ckpt_files),
        },
    }
    return summary, failures, series, plotdata, meta


def _run_report(cfg: ExperimentConfig, workers: int, outdir: Path, resume: str | None):
    _, f = build_data_field(cfg)
    phases = _Phases()
    model = cfg.random_model()
    M = cfg.monte_carlo_M
    with phases("samples"):
        reports = _ordered_map(
            lambda i: condtg_check(randomized(f, model, i), cfg.s, cfg.gamma, cfg.T), M, workers
        )
        lams = np.array([r.lam for r in reports])
    qlevels = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995]
    quantiles = {f"q{int(q * 1000):03d}": float(np.quantile(lams, q)) for q in qlevels}
    summary = {
        "M": M,
        "lambda_mean": float(lams.mean()),
        "lambda_quantiles": quantiles,
    }
    if M >= TAIL_FIT_MIN_SAMPLES:
        hnorm = hminus_s_norm(f, cfg.s)
        with phases("fit"):
            fit = fit_gaussian_tail(lams, hnorm)
        summary["tail_C1"] = fit.C1
        summary["tail_C2"] = fit.C2
        summary["tail_r_squared"] = fit.r_squared
    series = (["sample", "lambda"], [np.arange(M), lams])
    meta = {
        **phases.meta(),
        "counters": {
            "samples": M,
            "time_points": default_time_grid(cfg.T).size,
            "space_time_norms": sum(len(r.components) for r in reports),
        },
    }
    return summary, [], series, {}, meta


# one runner per verb of config.EXPERIMENTS
_RUNNERS = {
    "randomize": _run_randomize,
    "heatflow": _run_heatflow,
    "tails": _run_tails,
    "solve": _run_solve,
    "report": _run_report,
}


def _require_usable_output_dir(outdir: Path):
    """Refuse an output directory that is an existing file or lies below
    one, before any work: it could never be made."""
    path = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not path.is_dir():
        raise ConfigError(f"config field 'output_dir': {str(outdir)!r} cannot be a "
                          f"directory: {str(path)!r} is a file")


def run_experiment(cfg: ExperimentConfig, resume: str | None = None) -> ExperimentResult:
    """Execute the configured experiment; exit status 0 iff all enabled
    assertions pass. Artifacts land in cfg.output_dir only."""
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ValueError(f"no experiment selected (got {cfg.experiment!r})")
    workers = resolve_workers(cfg)
    outdir = Path(cfg.output_dir)
    _require_usable_output_dir(outdir)
    # made before the runner, which may write checkpoints into it as it goes
    created = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    try:
        summary, failures, series, plotdata, run_meta = runner(cfg, workers, outdir, resume)
    except BaseException:
        # an input the runner refused leaves no empty directory behind
        if created and not any(outdir.iterdir()):
            outdir.rmdir()
        raise

    # workers and output_dir are execution environment, not experiment
    # identity: they live in meta.json so summaries stay byte-reproducible
    config_echo = cfg.to_dict()
    del config_echo["workers"]
    del config_echo["output_dir"]
    summary = {
        "experiment": cfg.experiment,
        "config": config_echo,
        "failures": failures,
        **summary,
    }
    summary = _jsonable(summary)
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    _write_table(outdir / "series.csv", series[0], series[1])
    if plotdata:
        pdir = outdir / "plotdata"
        pdir.mkdir(exist_ok=True)
        for name, (hdr, cols) in sorted(plotdata.items()):
            _write_table(pdir / f"{name}.tsv", hdr, cols, sep="\t")
    meta = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - started,
        "workers": workers,
        "output_dir": str(outdir),
        "peak_rss_mib": _peak_rss_mib(),
        **run_meta,
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")
    return ExperimentResult(
        status=0 if not failures else 1, summary=summary, output_dir=outdir
    )
