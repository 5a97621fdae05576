import json

import numpy as np
import pytest

from nsrw.checkpoint import load_checkpoint, save_checkpoint
from nsrw.cli import main
from nsrw.config import ExperimentConfig, validate_config
from nsrw.experiments import _jsonable, _randomized_data, build_data_field, run_experiment
from nsrw.heat import condg_check, default_decay_time_grid


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

    def test_repeat_run_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            res, _ = run(
                tmp_path,
                tag,
                experiment="randomize",
                d=2,
                N=16,
                monte_carlo_M=64,
                master_seed=9,
            )
            out = res.output_dir
            blobs.append(
                (out / "series.csv").read_bytes() + (out / "summary.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

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
        cg = condg_check(_randomized_data(cfg, grid, f), cfg.s, t_grid)
        summary = json.loads((res.output_dir / "summary.json").read_text())
        got = [summary[k] for k in ("condg_sup_l2", "condg_sup_linf_k0", "condg_sup_linf_k1")]
        np.testing.assert_allclose(got, [cg.sup_l2, cg.sup_linf[0], cg.sup_linf[1]], rtol=1e-12)
        table = np.loadtxt(res.output_dir / "plotdata" / "condg_ratios.tsv", skiprows=1)
        expected = np.column_stack([cg.times, cg.l2_ratios, cg.linf_ratios[0], cg.linf_ratios[1]])
        np.testing.assert_allclose(table, expected, rtol=1e-12)

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
        state, t, cutoff = load_checkpoint(ckpt)
        # perturb a coefficient of the mirrored half (last-axis index N-2)
        # whose partner (1, 2) lies in the cutoff ball
        state.data[0, -1, -2] += 1e-3 * np.abs(state.data).max()
        bad = tmp_path / "bad.nsrw"
        save_checkpoint(state, t, cutoff, bad)
        assert bad.stat().st_size == ckpt.stat().st_size
        cfg2 = validate_config(
            ExperimentConfig(**{**common, "output_dir": str(tmp_path / "resumed"),
                                "write_checkpoints": False})
        )
        with pytest.raises(ValueError, match="resume state is not conjugate-symmetric"):
            run_experiment(cfg2, resume=str(bad))

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
