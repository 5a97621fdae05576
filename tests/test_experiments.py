import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nsrw
import nsrw.heat as heat
from nsrw.checkpoint import load_checkpoint
from nsrw.cli import main
from nsrw.config import ConfigError, ExperimentConfig, validate_config
from nsrw.diagnostics import nse_residual
from nsrw.experiments import (
    _jsonable,
    _median,
    _randomized_data,
    build_data_field,
    run_experiment,
)
from nsrw.heat import condg_check, default_decay_time_grid
from nsrw.solver import _Stepper, u_half
from nsrw.spectral import TransportPlan, make_grid
from nsrw.tails import NormSpec, _inadmissible, default_time_grid

from conftest import solve_collecting, stored_mask, traced_peak


def run(tmp_path, name, **fields):
    fields.setdefault("output_dir", str(tmp_path / name))
    cfg = validate_config(ExperimentConfig(**fields))
    return run_experiment(cfg), cfg


class TestDeterminism:
    def test_tails_byte_identical_across_workers(self, tmp_path):
        artifacts = {}
        for w in (1, 2, 8):
            res, _ = run(
                tmp_path,
                f"w{w}",
                experiment="tails",
                d=2,
                N=16,
                monte_carlo_M=210,
                master_seed=3,
                workers=w,
            )
            out = res.output_dir
            artifacts[w] = (
                (out / "series.csv").read_bytes(),
                (out / "summary.json").read_bytes(),
            )
        assert artifacts[1] == artifacts[2] == artifacts[8]

    @pytest.mark.parametrize("verb, fields", [
        ("randomize", dict(d=2, N=16, monte_carlo_M=64)),
        ("heatflow", dict(d=2, N=16)),
        ("tails", dict(d=2, N=16, monte_carlo_M=200)),
        ("solve", dict(d=2, N=16, T=0.125, dt=1.0 / 64.0, snapshot_cadence=2,
                       write_checkpoints=True)),
        ("report", dict(d=2, N=16, gamma=-0.05, monte_carlo_M=20)),
    ])
    def test_repeat_run_byte_identical(self, tmp_path, verb, fields):
        # every file a run writes but meta.json: summary.json, series.csv,
        # plotdata/ and any checkpoints
        blobs = []
        for tag in ("a", "b"):
            res, _ = run(tmp_path, tag, experiment=verb, master_seed=9, **fields)
            out = res.output_dir
            blobs.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*"))
                          if path.is_file() and path.name != "meta.json"})
            assert {Path("summary.json"), Path("series.csv")} <= set(blobs[-1])
            # every verb's meta.json carries the peak RSS
            assert json.loads((out / "meta.json").read_text())["peak_rss_mib"] > 0.0
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("verb, fields", [
        ("tails", dict(d=2, N=16, monte_carlo_M=205, master_seed=3)),
        ("report", dict(d=2, N=8, gamma=-0.05, monte_carlo_M=205, master_seed=3)),
    ])
    def test_monte_carlo_progress_on_stderr(self, tmp_path, capfd, verb, fields):
        # ten `k/M samples` lines, every ceil(M/10) samples and after the
        # last, in sample order for any worker count; the artifacts do not
        # change
        want = [f"{k}/205 samples" for k in range(21, 205, 21)] + ["205/205 samples"]
        artifacts = []
        for w in (1, 2):
            res, _ = run(tmp_path, f"w{w}", experiment=verb, workers=w, **fields)
            out = res.output_dir
            artifacts.append((out / "summary.json").read_bytes()
                             + (out / "series.csv").read_bytes())
            assert capfd.readouterr().err.splitlines() == want
        assert artifacts[0] == artifacts[1]

    def test_seed_changes_series(self, tmp_path):
        series = []
        for seed in (1, 2):
            res, _ = run(
                tmp_path,
                f"s{seed}",
                experiment="randomize",
                d=2,
                N=16,
                monte_carlo_M=64,
                master_seed=seed,
            )
            series.append((res.output_dir / "series.csv").read_bytes())
        assert series[0] != series[1]


class TestArtifacts:
    def test_solve_outputs(self, tmp_path):
        res, cfg = run(
            tmp_path,
            "solve",
            experiment="solve",
            d=2,
            N=16,
            T=0.25,
            dt=1.0 / 64.0,
            data="smooth_random",
            randomize_data=False,
            substep_near_zero=False,
            snapshot_cadence=2,
        )
        out = res.output_dir
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["time", "w_l2", "kinetic", "dissipation_cum"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        assert summary["energy_violation_max"] <= 1e-8
        assert (out / "plotdata" / "nse_residual.tsv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert "created_utc" in meta
        # the default cutoff N/4 holds modes |k_i| <= 3, so products of
        # ball fields alias clear of the ball on M >= 10 points
        assert meta["stepping_lattice"] == {"N": 16, "M": 10}
        assert set(summary) == {
            "experiment", "config", "failures", "steps", "snapshots",
            "terminal_time", "terminal_w_l2", "w_sup_l2", "w_sup_ratio", "data_l2",
            "energy_sup", "energy_violation_max", "divergence_max", "dwdt_time_norm",
            "nse_residual_max", "nse_residual_median", "checkpoints",
        }

    def test_solve_telemetry_goes_to_meta_only(self, tmp_path):
        # per-phase wall seconds and counters land in meta.json; summary.json
        # and series.csv of two runs stay byte-identical, checkpoints or not.
        # Every step evaluates its stages (the first reused from the
        # snapshot before it) and the last snapshot one more
        fields = dict(
            experiment="solve", d=2, N=16, T=0.25, dt=1.0 / 64.0, data="smooth_random",
            randomize_data=False, substep_near_zero=False, snapshot_cadence=2,
        )
        stages = {"ifrk4": 4, "ifeuler": 1}
        blobs = []
        for name, write, integrator in (("a", True, "ifrk4"), ("b", True, "ifrk4"),
                                        ("c", False, "ifrk4"), ("d", False, "ifeuler")):
            res, _ = run(tmp_path, name, write_checkpoints=write, integrator=integrator,
                         **fields)
            out = res.output_dir
            summary = json.loads((out / "summary.json").read_text())
            if write:
                blobs.append((out / "summary.json").read_bytes()
                             + (out / "series.csv").read_bytes())
            else:
                assert summary["checkpoints"] == []
            meta = json.loads((out / "meta.json").read_text())
            assert set(meta["phase_seconds"]) == {"solve", "residual", "checkpoint_writes"}
            assert all(v >= 0.0 for v in meta["phase_seconds"].values())
            # ru_maxrss never falls: data, the last checkpoint write (null
            # without checkpoints), the last snapshot's residual after it,
            # and the solve they both nest in
            rss = meta["phase_peak_rss_mib"]
            assert set(rss) == {"data"} | set(meta["phase_seconds"])
            ckpt = rss["checkpoint_writes"]
            assert (ckpt is None) != write
            assert (0.0 < rss["data"] <= (ckpt or rss["data"]) <= rss["residual"]
                    <= rss["solve"] <= meta["peak_rss_mib"])
            files = sorted(out.glob("checkpoint_*.nsrw"))
            rhs = stages[integrator] * summary["steps"] + 1
            assert meta["stepping_lattice"] == {"N": 16, "M": 10}
            assert meta["counters"] == {
                "steps": summary["steps"],
                "snapshots": summary["snapshots"],
                "rhs_evaluations": rhs,
                # each kernel call on the M = 10 lattice, cube |k_i| <= 3 in
                # and out: ifft over the 2 x 4 lines of the input cube, irfft
                # over 2 x 10, rfft over the 3 products' 3 x 10 and fft over
                # the 3 x 4 lines of the output cube
                "stepper_fft_lines": rhs * (8 + 20 + 30 + 12),
                # the residual's, once per snapshot pair on the N = 16
                # lattice, the 2/3 band |k_i| <= 5 in and the whole half
                # out: 2 x 6, 2 x 16, 3 x 16 and 3 x 9 lines
                "residual_fft_lines": (summary["snapshots"] - 1) * (12 + 32 + 48 + 27),
                # the default cutoff N/4 = 4 holds the cube |k_i| <= 3: each
                # snapshot is 2 components of 7 x 4 coefficients
                "snapshot_bytes": summary["snapshots"] * 2 * 7 * 4 * 16,
                "checkpoint_files": len(files),
                "checkpoint_bytes": sum(p.stat().st_size for p in files),
            }
            assert len(files) == (summary["snapshots"] if write else 0)
            assert meta["peak_rss_mib"] > 0.0
            telemetry = set(meta["phase_seconds"]) | {
                "rhs_evaluations", "snapshot_bytes", "stepper_fft_lines", "residual_fft_lines",
                "peak_rss_mib", "phase_peak_rss_mib"}
            assert not telemetry & set(summary)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("verb, fields, phases", [
        ("randomize", dict(d=2, N=16, monte_carlo_M=40, master_seed=3, workers=2),
         {"samples"}),
        ("heatflow", dict(d=2, N=32, k_orders=[0, 2], master_seed=4), {"sweeps"}),
        ("tails", dict(d=2, N=16, monte_carlo_M=210, master_seed=3, workers=2),
         {"samples", "fit"}),
        ("report", dict(d=2, N=8, gamma=-0.05, monte_carlo_M=200, master_seed=3, workers=2),
         {"samples", "fit"}),
        # below the tail fit's sample floor: no fit phase
        ("report", dict(d=3, N=8, s=0.1, gamma=-0.05, monte_carlo_M=4, master_seed=3),
         {"samples"}),
    ])
    def test_sweep_telemetry_goes_to_meta_only(self, tmp_path, verb, fields, phases):
        # phase seconds and work counters land in meta.json; summary.json and
        # series.csv of two runs stay byte-identical and carry none of them
        blobs = []
        for name in ("a", "b"):
            res, cfg = run(tmp_path, name, experiment=verb, **fields)
            out = res.output_dir
            blobs.append((out / "summary.json").read_bytes() + (out / "series.csv").read_bytes())
            summary = json.loads((out / "summary.json").read_text())
            meta = json.loads((out / "meta.json").read_text())
            assert set(meta["phase_seconds"]) == phases
            assert all(v >= 0.0 for v in meta["phase_seconds"].values())
            # after the data build, then at the end of each phase in order:
            # ru_maxrss never falls
            rss = meta["phase_peak_rss_mib"]
            assert list(rss) == ["data"] + [p for p in ("sweeps", "samples", "fit")
                                            if p in phases]
            assert 0.0 < rss["data"] and sorted(rss.values()) == list(rss.values())
            assert list(rss.values())[-1] <= meta["peak_rss_mib"]
            if verb == "heatflow":
                # k = 0, 1, 2 swept: 1 + 2 + 3 distinct derivatives of a
                # 2-component field (the mixed second partial once); at
                # d = 2 N = 32 every decay time is in one block, which the
                # early times keep on the whole half lattice. Each time and
                # component runs 3 passes along axis 0 (order 0's and those
                # of the branches with a factor on axis 0, i xi_0 and
                # (i xi_0)^2), 17 lines each, and 6 irffts of 32 lines
                times = summary["times"]
                want = {"decay_times": times, "field_transforms": times * 6 * 2,
                        "pruned_field_transforms": 0,
                        "sweep_fft_lines": times * 2 * (3 * 17 + 6 * 32)}
            elif verb == "randomize":
                want = {"samples": 40}
            elif verb == "tails":
                want = {"samples": 210, "time_points": default_time_grid(cfg.T).size}
            else:
                # one weighted space-time norm per sample at d = 2, three at d = 3
                M = cfg.monte_carlo_M
                want = {"samples": M, "time_points": default_time_grid(cfg.T).size,
                        "space_time_norms": M * (1 if cfg.d == 2 else 3)}
            assert meta["counters"] == want
            assert meta["peak_rss_mib"] > 0.0
            telemetry = {"phase_seconds", "phase_peak_rss_mib", "counters",
                         "peak_rss_mib"} | phases | set(want)
            if verb == "randomize":
                # its summary's samples is the configured M, not a reading
                assert summary["samples"] == cfg.monte_carlo_M
                telemetry.remove("samples")
            assert not telemetry & set(summary)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("verb, fields", [
        ("heatflow", dict(d=3, N=32, s=0.2)),
        ("tails", dict(d=2, N=16, monte_carlo_M=200)),
        ("report", dict(d=3, N=16, s=0.1, gamma=-0.05, monte_carlo_M=4)),
    ])
    def test_band_pruning_leaves_the_artifacts_unchanged(self, tmp_path, monkeypatch, verb,
                                                         fields):
        # every file but meta.json is the same, byte for byte, when the
        # heat sweeps run every block on the whole half lattice
        radii = heat._block_radii
        pruned = []

        def recording(mass, grid, t_first, t_last):
            k = radii(mass, grid, t_first, t_last)
            pruned.append(np.any(k < grid.N // 2 - 1))
            return k

        def whole(mass, grid, t_first, t_last):
            return np.full(t_first.shape, grid.N // 2)

        blobs = []
        for tag, rule in (("pruned", recording), ("whole", whole)):
            monkeypatch.setattr(heat, "_block_radii", rule)
            res, _ = run(tmp_path, tag, experiment=verb, master_seed=9, **fields)
            out = res.output_dir
            blobs.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*"))
                          if path.is_file() and path.name != "meta.json"})
            if verb == "heatflow":
                counters = json.loads((out / "meta.json").read_text())["counters"]
                assert (counters["pruned_field_transforms"] > 0) == (tag == "pruned")
        assert any(pruned)
        assert blobs[0] == blobs[1]

    def test_heatflow_runs_the_whole_field_work_once(self, tmp_path, monkeypatch):
        # the swept orders k = 0, 1, 2 share one realness check and one
        # H^{-s} norm
        calls = []
        for name in ("require_real_field", "hminus_s_norm"):
            def spy(*args, _fn=getattr(heat, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(heat, name, spy)
        run(tmp_path, "heatflow", experiment="heatflow", d=2, N=16, k_orders=[0, 2])
        assert sorted(calls) == ["hminus_s_norm", "require_real_field"]

    @pytest.mark.parametrize("k_orders", [[0, 1], [2]])
    @pytest.mark.parametrize("d", [2, 3])
    def test_heatflow_counts_the_transforms_its_sweeps_run(self, tmp_path, d, k_orders):
        # each decay time transforms every component of every distinct
        # order-k derivative once, for k_orders and the k = 0, 1 that condg
        # reads: 1, d and d(d+1)/2 of them for k = 0, 1, 2, a mixed second
        # partial evaluated once and weighted by 2 in the sum
        res, _ = run(tmp_path, "heatflow", experiment="heatflow", d=d, N=16, s=0.2,
                     k_orders=k_orders)
        counters = json.loads((res.output_dir / "meta.json").read_text())["counters"]
        times = json.loads((res.output_dir / "summary.json").read_text())["times"]
        swept = sorted(set(k_orders) | {0, 1})
        assert counters["decay_times"] == times
        assert counters["field_transforms"] == times * sum(math.comb(d + k - 1, k)
                                                           for k in swept) * d
        assert 0 <= counters["pruned_field_transforms"] <= counters["field_transforms"]

    # at d = 3, per time and component: orders 0 and 1 run 2 passes along
    # axis 0 (order 0's and i xi_0's), 3 along axis 1 (those two and
    # i xi_1's) and 4 irffts; with k = 2, 4, 6 and 10
    @pytest.mark.parametrize("k_orders, passes", [([0, 1], (2, 3, 4)), ([2], (4, 6, 10))])
    def test_heatflow_counts_the_lines_its_sweeps_run(self, tmp_path, monkeypatch, k_orders,
                                                      passes):
        # sweep_fft_lines, summed over the blocks of times at the radius
        # each block ran at: a pass along axis 0 runs on the lines whose
        # axis-1 row and last-axis plane lie in the block's cube, one along
        # axis 1 on every axis-0 row, and an irfft on every line
        blocks = []
        sweep_block = heat._sweep_block

        def recording(plan, work, lo, k):
            blocks.append((min(plan.chunk, plan.times.size - lo), k))
            return sweep_block(plan, work, lo, k)

        monkeypatch.setattr(heat, "_sweep_block", recording)
        # T = 3 at 32 points per decade gives 61 decay times: two blocks
        # of 24 on the whole half lattice and a last one on a smaller cube
        N = 16
        res, _ = run(tmp_path, "heatflow", experiment="heatflow", d=3, N=N, s=0.2, T=3.0,
                     t_points_per_decade=32, k_orders=k_orders)
        counters = json.loads((res.output_dir / "meta.json").read_text())["counters"]
        pass0, pass1, irffts = passes
        want = 0
        for n, k in blocks:
            rows = min(2 * k + 1, N)
            want += 3 * n * (pass0 * rows * (k + 1) + pass1 * N * (k + 1) + irffts * N * N)
        assert sum(n for n, _ in blocks) == counters["decay_times"]
        assert any(k < N // 2 for _, k in blocks) and any(k == N // 2 for _, k in blocks)
        assert counters["sweep_fft_lines"] == want

    def test_randomized_heatflow_holds_no_more_than_unrandomized(self, tmp_path):
        # the draw replaces the data: the runner drops the unrandomized field
        # once f_omega is drawn, so the sweeps run beside one field, as they
        # do unrandomized. Held beside f_omega, it added one field (110,592
        # bytes at d=3 N=16) to the traced peak. The first run warms the
        # caches, the ring partition among them
        fields = dict(experiment="heatflow", d=3, N=16, s=0.2, master_seed=4)
        run(tmp_path, "warm", **fields)
        peaks = {}
        for randomize in (False, True):
            (res, _), peaks[randomize] = traced_peak(
                lambda: run(tmp_path, f"r{randomize}", randomize_data=randomize, **fields))
            assert (res.output_dir / "summary.json").exists()
        assert peaks[True] - peaks[False] < 3 * 16 * 16 * 9 * 16 // 2

    def test_heatflow_outputs(self, tmp_path):
        res, _ = run(
            tmp_path,
            "heatflow",
            experiment="heatflow",
            d=2,
            N=64,
            family="rademacher",
            master_seed=4,
        )
        summary = json.loads((res.output_dir / "summary.json").read_text())
        assert res.status == 0
        for key in ("l2_slope_k0", "l2_slope_k1", "l2_bound_constant_k0",
                    "linf_sqrt_bound_constant_k1", "condg_sup_l2"):
            assert key in summary
        assert abs(summary["l2_slope_k0"] - summary["l2_slope_target_k0"]) <= 0.1
        header = (res.output_dir / "series.csv").read_text().splitlines()[0]
        assert header.startswith("time,l2_k0,linf_k0")
        assert (res.output_dir / "plotdata" / "condg_ratios.tsv").exists()

    @pytest.mark.parametrize("k_orders", [[0, 1], [2]])
    def test_heatflow_condg_matches_condg_check(self, tmp_path, k_orders):
        # the runner reads condg off its own k = 0, 1 sweeps, whatever k_orders is
        res, cfg = run(
            tmp_path,
            "heatflow",
            experiment="heatflow",
            d=2,
            N=32,
            family="rademacher",
            master_seed=4,
            k_orders=k_orders,
        )
        grid, f = build_data_field(cfg)
        t_grid = default_decay_time_grid(grid, cfg.T, cfg.t_points_per_decade)
        cg = condg_check(_randomized_data(cfg, f), cfg.s, t_grid)
        summary = json.loads((res.output_dir / "summary.json").read_text())
        got = [summary[k] for k in ("condg_sup_l2", "condg_sup_linf_k0", "condg_sup_linf_k1")]
        np.testing.assert_allclose(got, [cg.sup_l2, cg.sup_linf[0], cg.sup_linf[1]], rtol=1e-12)
        table = np.loadtxt(res.output_dir / "plotdata" / "condg_ratios.tsv", skiprows=1)
        expected = np.column_stack([cg.times, cg.l2_ratios, cg.linf_ratios[0], cg.linf_ratios[1]])
        np.testing.assert_allclose(table, expected, rtol=1e-12)

    def test_report_admissibility_is_condtg_rule(self, tmp_path):
        # s - 2 gamma is below d = 3's 1/4 in floating point here, but the
        # L^{8/3} bracket norm's (1/2 + s - 2 gamma) 8/3 rounds to 2: the
        # config is refused where it is read, not at the first sample
        fields = dict(experiment="report", d=3, N=16, s=0.01, monte_carlo_M=4)
        gamma = -0.11999999999999998
        assert 0.01 - 2.0 * gamma < 0.25
        spec = NormSpec(gamma=gamma, sigma=0.5, p=8.0 / 3.0, q=8.0 / 3.0, r=8.0 / 3.0,
                        s=0.01, T=1.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(ExperimentConfig(gamma=gamma, **fields))
        assert str(exc.value) == ("config field 'gamma': condtg's L83_L83_bracket norm: "
                                  f"{_inadmissible(spec)}")
        # two ulps closer to 0 the config is admissible, and the run goes
        # through condtg's own check on every sample
        res, _ = run(tmp_path, "inside", gamma=-0.11999999999999995, **fields)
        assert res.status == 0

    def test_report_outputs(self, tmp_path):
        res, _ = run(
            tmp_path,
            "report",
            experiment="report",
            d=2,
            N=16,
            gamma=-0.1,
            monte_carlo_M=24,
            master_seed=6,
        )
        summary = json.loads((res.output_dir / "summary.json").read_text())
        assert res.status == 0
        assert set(summary["lambda_quantiles"]) == {
            "q500", "q750", "q900", "q950", "q990", "q995"
        }
        assert summary["lambda_quantiles"]["q500"] <= summary["lambda_quantiles"]["q995"]

    def test_no_writes_outside_output_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        res, _ = run(
            tmp_path,
            "clean",
            experiment="randomize",
            d=2,
            N=16,
            monte_carlo_M=16,
        )
        assert list(workdir.iterdir()) == []

    def test_failing_assertion_sets_status(self, tmp_path):
        # a wrong sub-gaussian constant must be flagged and exit nonzero
        res, _ = run(
            tmp_path,
            "fail",
            experiment="randomize",
            d=2,
            N=16,
            monte_carlo_M=16,
            subgaussian_c=0.05,
        )
        assert res.status == 1
        summary = json.loads((res.output_dir / "summary.json").read_text())
        assert summary["failures"]

    def test_thread_env_caps_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSRW_THREADS", "1")
        res, _ = run(
            tmp_path,
            "capped",
            experiment="randomize",
            d=2,
            N=16,
            monte_carlo_M=16,
            workers=8,
        )
        meta = json.loads((res.output_dir / "meta.json").read_text())
        assert meta["workers"] == 1

    def test_phases_sum_their_entries_less_the_nested_phases(self, monkeypatch):
        # one recorder for every verb's phases: a phase's seconds add up
        # over its entries and leave out the phases nested in it, and a
        # declared phase that never runs keeps 0 seconds and a null peak
        import nsrw.experiments as experiments

        clock = iter([0.0, 1.0, 1.5, 2.0, 2.25, 5.0, 10.0, 10.5])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        phases = experiments._Phases("inner", "never")
        with phases("outer"):
            for _ in range(2):
                with phases("inner"):
                    pass
        with phases("outer"):
            pass
        meta = phases.meta()
        assert meta["phase_seconds"] == {"inner": 0.75, "never": 0.0, "outer": 4.75}
        rss = meta["phase_peak_rss_mib"]
        assert list(rss) == ["data", "inner", "never", "outer"] and rss["never"] is None
        assert 0.0 < rss["data"] <= rss["inner"] <= rss["outer"]


class TestStreamedSolve:
    """The solve runner consumes each snapshot as solve hands it out: its
    checkpoint, div_rel, the residual of the pair it ends and its bytes."""

    @staticmethod
    def keep_trajectory(monkeypatch):
        """Wrap experiments.solve as perfbench/layers.py does, keeping the
        trajectory the runner's solve returns, and each call's arguments."""
        import nsrw.experiments as experiments

        kept = []
        solve = experiments.solve

        def keep_solve(*args, **kwargs):
            kept.append((solve(*args, **kwargs), args, kwargs))
            return kept[-1][0]

        monkeypatch.setattr(experiments, "solve", keep_solve)
        return kept

    def test_peak_memory_is_flat_in_T(self, tmp_path):
        # no snapshot list is held: running to 4T adds 12 snapshots of
        # 34,848 bytes each (the cutoff 5.3 holds the cube |k_i| <= 5) but
        # raises the traced peak by less than one of them. What does grow
        # is the per-step and per-snapshot scalars of the energy log and
        # the series, a few hundred bytes each. The first run warms the
        # caches
        fields = dict(experiment="solve", d=3, N=16, s=0.2, cutoff=5.3,
                      write_checkpoints=True, master_seed=5)
        run(tmp_path, "warm", T=0.125, **fields)
        peaks, snaps = [], []
        for T in (0.125, 0.5):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                res, _ = run(tmp_path, f"T{T}", T=T, **fields)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert res.status == 0
            counters = json.loads((res.output_dir / "meta.json").read_text())["counters"]
            snaps.append((counters["snapshots"], counters["snapshot_bytes"]))
        band_bytes = 3 * 11 * 11 * 6 * 16
        assert snaps == [(11, 11 * band_bytes), (23, 23 * band_bytes)]
        assert abs(peaks[1] - peaks[0]) < band_bytes

    def test_streamed_jobs_match_the_collected_snapshots(self, tmp_path, monkeypatch):
        # the runner's residuals, div_rel and snapshot_bytes are those of
        # the library path on the snapshots a collecting consumer keeps of
        # the same solve, bit for bit, and both trajectories keep the same
        # last w
        kept = self.keep_trajectory(monkeypatch)
        res, cfg = run(tmp_path, "o", experiment="solve", d=3, N=16, s=0.2, T=0.125,
                       snapshot_cadence=3, write_checkpoints=True, master_seed=7)
        ((streamed, args, kwargs),) = kept
        assert callable(kwargs["on_snapshot"])
        whole, snapshots = solve_collecting(*args, resume_band=kwargs["resume_band"],
                                            resume_time=kwargs["resume_time"])
        grid = make_grid(3, 16, cfg.L)
        assert len(snapshots) == whole.times.size == streamed.times.size > 2
        assert np.array_equal(streamed.times, whole.times)
        assert np.array_equal([t for t, _ in snapshots], whole.times)
        assert np.array_equal(streamed.w_band, whole.w_band)
        assert whole.w_band is snapshots[-1][1]

        f_om = args[1]
        plan = TransportPlan(grid)
        mids, vals = nse_residual(grid, whole.times,
                                  (u_half(f_om, t, w) for t, w in snapshots), plan)
        out = res.output_dir
        rows = np.loadtxt(out / "plotdata" / "nse_residual.tsv", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, 0], mids) and np.array_equal(rows[:, 1], vals)
        div_rel = [grid.divergence_ratio(grid.scatter(w)) for _, w in snapshots]
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert np.array_equal(series[:, header.index("div_rel")], div_rel)
        counters = json.loads((out / "meta.json").read_text())["counters"]
        assert counters["snapshot_bytes"] == sum(w.nbytes for _, w in snapshots)
        assert counters["residual_fft_lines"] == plan.fft_lines

    def test_kept_trajectory_serves_the_traced_benchmark_reads(self, tmp_path, monkeypatch):
        # perfbench/layers.py wraps experiments.solve, runs the solve verb
        # and reads the last w and g snapshots and the time before the last
        # off the trajectory it keeps
        kept = self.keep_trajectory(monkeypatch)
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps(dict(d=3, N=16, s=0.2, T=0.125, dt=1.0 / 64.0,
                                           snapshot_cadence=1, write_checkpoints=True)))
        assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        ((traj, _, _),) = kept
        w, g = traj.w_states[-1], traj.g_states[-1]
        t_prev = float(traj.times[-2])
        assert t_prev < traj.times[-1] == 0.125
        assert np.array_equal(w.data, make_grid(3, 16, 2.0 * np.pi).scatter(traj.w_band))
        assert np.abs(w.data).max() > 0 and np.abs(g.data).max() > 0


class TestResidualMedian:
    """summary.json's nse_residual_median is np.median's value, formed
    without the numpy.ma import that np.median's NaN check makes."""

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 75])
    def test_matches_np_median_to_the_bit(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), rng.lognormal(size=n) * 1e3,
                       np.round(rng.standard_normal(n), 1)):
            assert np.float64(_median(values)).view(np.uint64) == \
                np.median(values).view(np.uint64)
            values[rng.integers(n)] = np.nan
            with np.errstate(invalid="ignore"):
                assert np.isnan(np.median(values))
            assert np.isnan(_median(values))

    def test_a_solve_run_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma's import adds 1.7 MiB to a process's resident set, more
        # than the solve-d3-ckpt run's peak has to spare after the solve
        code = (
            "import sys\n"
            "from nsrw.config import ExperimentConfig, validate_config\n"
            "from nsrw.experiments import run_experiment\n"
            "cfg = validate_config(ExperimentConfig(experiment='solve', d=3, N=16, s=0.2, "
            "T=0.0625, dt=1.0 / 64.0, snapshot_cadence=1, write_checkpoints=True, "
            f"output_dir={str(tmp_path / 'o')!r}))\n"
            "assert run_experiment(cfg).status == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nsrw.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["snapshots"] > 2 and summary["nse_residual_median"] > 0.0


class TestStrictJson:
    def test_non_finite_floats_encoded_as_strings(self):
        raw = {
            "nan": float("nan"),
            "values": np.array([np.inf, -np.inf, 0.5]),
            "nested": [np.float64(-np.inf), (np.float32(2.0), 3)],
        }
        got = _jsonable(raw)
        assert got == {
            "nan": "NaN",
            "values": ["Infinity", "-Infinity", 0.5],
            "nested": ["-Infinity", [2.0, 3]],
        }
        assert json.loads(json.dumps(got, allow_nan=False)) == got


class TestEnergyCheck:
    # d=2 N=32 T=0.25 at the default dt=1/256, seed 7: a trapezoid ledger
    # of the Euler scheme, first order in dt, misses the 1e-8 tolerance
    # here by 7e-7
    solve_cfg = dict(experiment="solve", d=2, N=32, T=0.25, master_seed=7)

    def test_euler_energy_check_passes(self, tmp_path):
        res, _ = run(tmp_path, "ifeuler", integrator="ifeuler", **self.solve_cfg)
        assert res.status == 0
        assert res.summary["energy_violation_max"] <= 1e-8

    @pytest.mark.parametrize("integrator", ["ifrk4", "ifeuler"])
    def test_halved_pairing_fails(self, tmp_path, monkeypatch, integrator):
        pairing = _Stepper.pairing
        monkeypatch.setattr(_Stepper, "pairing", lambda self, w, r: 0.5 * pairing(self, w, r))
        res, _ = run(tmp_path, integrator, integrator=integrator, **self.solve_cfg)
        assert res.status == 1
        assert any("energy inequality violated" in f for f in res.summary["failures"])


class TestResume:
    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        common = dict(
            experiment="solve",
            d=2,
            N=32,
            T=0.5,
            dt=1.0 / 128.0,
            data="smooth_random",
            randomize_data=False,
            substep_near_zero=False,
            snapshot_cadence=16,
            write_checkpoints=True,
            master_seed=21,
        )
        res_full, cfg = run(tmp_path, "full", **common)
        summary = json.loads((res_full.output_dir / "summary.json").read_text())
        ckpts = summary["checkpoints"]
        mid = next(c for c in ckpts if abs(c["time"] - 0.25) < 1e-12)

        res_resumed, _ = run(
            tmp_path,
            "resumed",
            **{**common, "write_checkpoints": False},
        )
        # resume through the public entry point
        cfg2 = validate_config(
            ExperimentConfig(**{**common, "output_dir": str(tmp_path / "resumed2"),
                                "write_checkpoints": False})
        )
        res2 = run_experiment(
            cfg2, resume=str(res_full.output_dir / mid["file"])
        )
        s_full = json.loads((res_full.output_dir / "summary.json").read_text())
        s_res = json.loads((res2.output_dir / "summary.json").read_text())
        assert abs(s_res["terminal_w_l2"] - s_full["terminal_w_l2"]) <= 1e-12
        assert s_res["terminal_time"] == s_full["terminal_time"]

    def test_cli_checkpoints_load_to_the_snapshots(self, tmp_path, monkeypatch):
        # each checkpoint a CLI solve writes holds the band array of the
        # snapshot solve handed out, and loads to it, bit for bit
        import nsrw.experiments as experiments

        kept, seen = [], []
        solve = experiments.solve

        def keep_solve(*args, on_snapshot, **kwargs):
            def record(step, t, w):
                seen.append(w)
                on_snapshot(step, t, w)
            kept.append(solve(*args, on_snapshot=record, **kwargs))
            return kept[-1]

        monkeypatch.setattr(experiments, "solve", keep_solve)
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps(dict(
            d=3, N=16, T=0.125, dt=1.0 / 64.0, s=0.2, substep_near_zero=False,
            snapshot_cadence=2, write_checkpoints=True, master_seed=5,
        )))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 0
        (traj,) = kept
        files = [out / c["file"] for c in json.loads((out / "summary.json").read_text())
                 ["checkpoints"]]
        assert len(files) == traj.times.size == len(seen) == 5
        # the runner consumed every snapshot; the trajectory keeps the last
        assert traj.w_band is seen[-1]
        grid = make_grid(3, 16, 2.0 * np.pi)
        ball = grid.kabs[grid.band(3)] < 4.0
        assert int(ball.sum()) == 148
        for i, (path, t, h) in enumerate(zip(files, traj.times, seen)):
            # named by the step boundary: a snapshot every 2 steps
            assert path.name == f"checkpoint_{2 * i:04d}.nsrw"
            # the default cutoff N/4 = 4 holds the cube |k_i| <= 3; the
            # snapshot is zero off the ball, and the file holds the ball
            # less the later member of each mirror pair on plane 0
            assert h.shape == (3, 7, 7, 4)
            assert not np.any(h[:, ~ball])
            w, ck_t, _ = load_checkpoint(path)
            assert ck_t == t
            assert np.array_equal(w, h)
            stored = stored_mask(grid, 4.0)
            assert path.read_bytes().endswith(h[:, stored].astype("<c16").tobytes())

    def test_resume_into_its_own_directory_keeps_every_checkpoint(self, tmp_path):
        # checkpoints are named by their step boundary: a resume into the
        # run's own directory writes the steps it takes again under their
        # own names, so every file holds the time its summary lists, and
        # the file resumed from is written again with the same bytes
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps(dict(
            d=2, N=16, T=0.25, dt=1.0 / 64.0, snapshot_cadence=4, write_checkpoints=True,
            substep_near_zero=False,
        )))
        out = tmp_path / "o"
        argv = ["solve", "--config", str(cfgfile), "--out", str(out)]

        def listed():
            return json.loads((out / "summary.json").read_text())["checkpoints"]

        assert main(argv) == 0
        first = listed()
        assert [c["file"] for c in first] == [f"checkpoint_{4 * i:04d}.nsrw" for i in range(5)]
        start = out / first[2]["file"]
        kept = start.read_bytes()
        assert main(argv + ["--resume", str(start)]) == 0
        resumed = listed()
        assert resumed[0] == first[2] and len(resumed) == 3
        assert sorted(p.name for p in out.glob("checkpoint_*")) == [c["file"] for c in first]
        for entry in first + resumed:
            assert load_checkpoint(out / entry["file"])[1] == entry["time"]
        assert start.read_bytes() == kept

    def test_resume_rewrites_every_checkpoint_bit_for_bit(self, tmp_path):
        # a resume from a mid-run checkpoint into the run's own directory
        # writes every checkpoint it takes again with the bytes the
        # uninterrupted run wrote, through the ramp and after it, and its
        # series rows hold the same states; the cumulative ledger columns
        # restart at 0 by design
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps(dict(
            d=3, N=16, s=0.2, T=0.125, dt=1.0 / 64.0, snapshot_cadence=3,
            write_checkpoints=True,
        )))
        out = tmp_path / "o"
        argv = ["solve", "--config", str(cfgfile), "--out", str(out)]

        def written():
            return {p.name: p.read_bytes() for p in out.glob("checkpoint_*.nsrw")}

        def series():
            lines = (out / "series.csv").read_text().splitlines()
            return lines[0].split(","), [line.split(",") for line in lines[1:]]

        assert main(argv) == 0
        first, (header, full_rows) = written(), series()
        listed = json.loads((out / "summary.json").read_text())["checkpoints"]
        start = listed[len(listed) // 3]
        assert main(argv + ["--resume", str(out / start["file"])]) == 0
        rewritten = json.loads((out / "summary.json").read_text())["checkpoints"]
        assert rewritten == listed[len(listed) // 3:] and len(rewritten) > 10
        assert written() == first
        _, rows = series()
        by_time = {row[0]: row for row in full_rows}
        for name in ("w_l2", "kinetic", "div_rel", "dwdt_hminus1"):
            j = header.index(name)
            assert [row[j] for row in rows] == [by_time[row[0]][j] for row in rows]

    def test_resume_refuses_checkpoint_of_another_run(self, tmp_path):
        common = dict(
            experiment="solve", d=2, N=32, T=0.25, dt=1.0 / 128.0, data="smooth_random",
            randomize_data=False, substep_near_zero=False, snapshot_cadence=16,
        )
        res_full, _ = run(tmp_path, "full", write_checkpoints=True, master_seed=21, **common)
        ckpt = str(res_full.output_dir / res_full.summary["checkpoints"][1]["file"])
        for field, mine, theirs in (("master_seed", 21, 22), ("integrator", "ifrk4", "ifeuler")):
            cfg2 = validate_config(ExperimentConfig(
                output_dir=str(tmp_path / field), **{"master_seed": 21, **common, field: theirs}
            ))
            with pytest.raises(ValueError, match=f"'{field}' is {mine!r} in the checkpoint "
                               f"and {theirs!r} in the config"):
                run_experiment(cfg2, resume=ckpt)
        # T and the snapshot cadence are not part of the fingerprint
        cfg3 = validate_config(ExperimentConfig(
            output_dir=str(tmp_path / "longer"),
            **{**common, "T": 0.5, "snapshot_cadence": 4, "master_seed": 21},
        ))
        assert run_experiment(cfg3, resume=ckpt).status == 0

    def test_killed_run_resumes_from_newest_checkpoint(self, tmp_path):
        # checkpoints are written while the run goes on, each one atomically:
        # a run killed after a few snapshots leaves complete files to resume
        fields = dict(
            d=2, N=32, T=4.0, dt=1.0 / 128.0, data="smooth_random", randomize_data=False,
            substep_near_zero=False, snapshot_cadence=1, master_seed=21,
        )
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps({**fields, "write_checkpoints": True}))
        out = tmp_path / "killed"
        env = dict(os.environ, PYTHONPATH=str(Path(nsrw.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nsrw.cli", "solve", "--config", str(cfgfile),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not (out / "checkpoint_0003.nsrw").exists():
                assert proc.poll() is None, "solve exited before its fourth checkpoint"
                assert time.monotonic() < deadline, "no fourth checkpoint within 60 s"
                time.sleep(0.001)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            status = proc.wait(timeout=30)
        assert status == -signal.SIGKILL
        assert not (out / "summary.json").exists()
        newest = None
        for path in sorted(out.glob("checkpoint_*.nsrw"), reverse=True):
            try:
                load_checkpoint(path)
            except ValueError:
                continue
            newest = path
            break
        assert newest is not None and newest.name >= "checkpoint_0003.nsrw"
        cfg = ExperimentConfig(experiment="solve", output_dir=str(tmp_path / "resumed"), **fields)
        resumed = run_experiment(validate_config(cfg), resume=str(newest))
        full, _ = run(tmp_path, "full", experiment="solve", **fields)
        assert resumed.status == 0 and full.status == 0
        gap = abs(resumed.summary["terminal_w_l2"] - full.summary["terminal_w_l2"])
        assert gap <= 1e-12

    def test_resume_refuses_non_symmetric_state(self, tmp_path):
        common = dict(
            experiment="solve",
            d=2,
            N=32,
            T=0.25,
            dt=1.0 / 128.0,
            data="smooth_random",
            randomize_data=False,
            substep_near_zero=False,
            snapshot_cadence=16,
            write_checkpoints=True,
            master_seed=21,
        )
        res_full, _ = run(tmp_path, "full", **common)
        ckpt = sorted(res_full.output_dir.glob("checkpoint_*.nsrw"))[1]
        w, _, _ = load_checkpoint(ckpt)
        # the default cutoff N/4 = 8 holds the cube |k_i| <= 7
        assert w.shape == (2, 15, 8)
        # give component 0 an imaginary part at xi = 0, its own mirror image
        # on last-axis plane 0: the asymmetry a file can carry, where every
        # dropped partner is rebuilt as its stored mirror's conjugate
        bad_w = w.copy()
        bad_w[0, 0, 0] += 1e-3j * np.abs(w).max()
        stored = stored_mask(make_grid(2, 32, 2.0 * np.pi), 8.0)
        assert stored[0, 0]
        blob = ckpt.read_bytes()
        payload = w[:, stored].astype("<c16").tobytes()
        assert blob.endswith(payload)
        bad = tmp_path / "bad.nsrw"
        bad.write_bytes(blob[: -len(payload)] + bad_w[:, stored].astype("<c16").tobytes())
        cfg2 = validate_config(
            ExperimentConfig(**{**common, "output_dir": str(tmp_path / "resumed"),
                                "write_checkpoints": False})
        )
        with pytest.raises(ValueError, match="planes 0 and N/2 are not conjugate-symmetric"):
            run_experiment(cfg2, resume=str(bad))

    @pytest.fixture
    def finished_run(self, tmp_path):
        """A checkpointed CLI solve: its config file, output directory and
        the bytes of each checkpoint, the last one at t = T."""
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(json.dumps(dict(
            d=2, N=16, T=0.125, dt=1.0 / 64.0, data="smooth_random", randomize_data=False,
            substep_near_zero=False, snapshot_cadence=4, write_checkpoints=True, master_seed=5,
        )))
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 0
        checkpoints = {p.name: p.read_bytes() for p in sorted(out.glob("checkpoint_*.nsrw"))}
        last = json.loads((out / "summary.json").read_text())["checkpoints"][-1]
        assert last["time"] == 0.125 and len(checkpoints) == 3
        return cfgfile, out, checkpoints, out / last["file"]

    def test_resume_at_end_time_leaves_no_output_dir(self, tmp_path, capsys, finished_run):
        cfgfile, _, _, last = finished_run
        fresh = tmp_path / "fresh"
        status = main(["solve", "--config", str(cfgfile), "--out", str(fresh),
                       "--resume", str(last)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resume time 0.125 is the end time T = 0.125")
        assert not fresh.exists()

    def test_resume_at_end_time_keeps_the_runs_checkpoints(self, capsys, finished_run):
        cfgfile, out, checkpoints, last = finished_run
        status = main(["solve", "--config", str(cfgfile), "--out", str(out),
                       "--resume", str(last)])
        assert status == 2
        assert "is the end time T = 0.125" in capsys.readouterr().err
        kept = {p.name: p.read_bytes() for p in sorted(out.glob("checkpoint_*.nsrw"))}
        assert kept == checkpoints

    def test_cli_resume(self, tmp_path):
        cfgfile = tmp_path / "solve.json"
        cfgfile.write_text(
            json.dumps(
                dict(
                    d=2,
                    N=32,
                    T=0.5,
                    dt=1.0 / 128.0,
                    data="smooth_random",
                    randomize_data=False,
                    substep_near_zero=False,
                    snapshot_cadence=16,
                    write_checkpoints=True,
                    master_seed=21,
                )
            )
        )
        out1 = tmp_path / "cli_full"
        assert main(["solve", "--config", str(cfgfile), "--out", str(out1)]) == 0
        summary = json.loads((out1 / "summary.json").read_text())
        mid = next(c for c in summary["checkpoints"] if abs(c["time"] - 0.25) < 1e-12)
        out2 = tmp_path / "cli_resumed"
        status = main(
            [
                "solve",
                "--config",
                str(cfgfile),
                "--out",
                str(out2),
                "--resume",
                str(out1 / mid["file"]),
            ]
        )
        assert status == 0
        s2 = json.loads((out2 / "summary.json").read_text())
        assert abs(s2["terminal_w_l2"] - summary["terminal_w_l2"]) <= 1e-12
