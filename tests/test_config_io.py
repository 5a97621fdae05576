import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nsrw
from conftest import TWO_PI, random_divfree_field, traced_peak
from nsrw.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from nsrw.cli import build_parser, main
from nsrw.config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    parse_config,
    serialize_config,
    validate_config,
)
from nsrw.spectral import fourier_field, make_grid


# every float-typed field of ExperimentConfig
FLOAT_FIELDS = ["L", "s", "data_tilt", "subgaussian_c", "T", "dt", "cutoff", "gamma", "sigma",
                "p", "q"]


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return path


class TestConfigParsing:
    def test_minimal_2d_config(self, tmp_path):
        path = write_config(
            tmp_path, experiment="solve", d=2, N=64, L=6.2832, T=1.0, s=0.25
        )
        cfg = parse_config(path)
        assert cfg.d == 2 and cfg.N == 64 and cfg.s == 0.25
        assert cfg.family == "gaussian"  # defaults filled

    def test_round_trip_identity(self, tmp_path):
        path = write_config(
            tmp_path, experiment="tails", d=2, N=32, monte_carlo_M=256, gamma=0.1
        )
        cfg = parse_config(path)
        path2 = tmp_path / "round.json"
        path2.write_text(serialize_config(cfg))
        assert parse_config(path2) == cfg

    def test_unknown_key_fails_closed(self, tmp_path):
        path = write_config(tmp_path, experiment="solve", nu=0.1)
        with pytest.raises(ConfigError, match="unknown config keys: nu"):
            parse_config(path)

    def test_d3_s_range_cites_quarter(self):
        with pytest.raises(ConfigError, match="1/4"):
            config_from_dict({"experiment": "solve", "d": 3, "s": 0.3, "N": 16})
        cfg = config_from_dict({"experiment": "solve", "d": 3, "s": 0.2, "N": 16})
        assert cfg.s == 0.2

    def test_q_below_two_rejected(self):
        with pytest.raises(ConfigError, match="q"):
            config_from_dict({"experiment": "tails", "q": 1})

    def test_p_below_q_rejected(self):
        with pytest.raises(ConfigError, match="config field 'p': .* p >= q"):
            config_from_dict({"experiment": "tails", "p": 3.0, "q": 4.0})
        # the norm's moment order is p, the weakest the bound admits
        assert config_from_dict({"experiment": "tails", "p": 6.0}).norm_spec().r == 6.0

    def test_tails_admissibility_eager(self):
        # (sigma + s - 2*gamma) * q must be < 2 at parse time
        with pytest.raises(ConfigError, match="inadmissible"):
            config_from_dict({"experiment": "tails", "sigma": 0.5, "s": 0.25, "q": 4})
        cfg = config_from_dict(
            {"experiment": "tails", "sigma": 0.5, "s": 0.25, "gamma": 0.2, "q": 4}
        )
        assert cfg.gamma == 0.2

    def test_report_needs_negative_gamma(self):
        with pytest.raises(ConfigError, match="gamma < 0"):
            config_from_dict({"experiment": "report"})
        with pytest.raises(ConfigError, match="inadmissible"):
            config_from_dict({"experiment": "report", "gamma": -0.2, "s": 0.25})
        cfg = config_from_dict({"experiment": "report", "gamma": -0.1, "s": 0.25})
        assert cfg.gamma == -0.1

    def test_type_checks(self):
        with pytest.raises(ConfigError, match="N"):
            config_from_dict({"N": 64.0})
        with pytest.raises(ConfigError, match="normalize_data"):
            config_from_dict({"normalize_data": 1})

    def test_field_constraints(self):
        for bad in (
            {"d": 4},
            {"N": 63},
            {"N": 4},
            {"L": -1.0},
            {"T": 0.0},
            {"dt": -0.1},
            {"family": "poisson"},
            {"integrator": "ab2"},
            {"data": "vortex"},
            {"data": "taylor_green", "d": 3, "s": 0.2},
            {"cutoff": 1e9},
            {"workers": 0},
            {"k_orders": [5]},
            {"master_seed": -3},
            {"experiment": "simulate"},
        ):
            with pytest.raises(ConfigError):
                config_from_dict(bad)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_refused(self, tmp_path, name, value):
        # JSON writes these NaN, Infinity and -Infinity; a file and a config
        # built in code are refused alike, before any range check
        message = f"config field {name!r}: must be a finite number, got {json.dumps(value)}$"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: value}))
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        with pytest.raises(ConfigError, match=message):
            validate_config(ExperimentConfig(**{name: value}))

    @pytest.mark.parametrize("literal, shown", [
        ("1e400", "Infinity"),
        ("1" + "0" * 400, "1" + "0" * 400),
    ], ids=["float", "int"])
    def test_overflowing_number_refused(self, tmp_path, literal, shown):
        # a float literal overflows to Infinity, an integer literal to no float
        path = tmp_path / "config.json"
        path.write_text(f'{{"T": {literal}}}')
        with pytest.raises(ConfigError, match=f"config field 'T': must be a finite number, "
                                              f"got {shown}$"):
            parse_config(path)

    def test_effective_cutoff_default(self):
        cfg = ExperimentConfig(N=64, L=TWO_PI)
        assert cfg.effective_cutoff() == pytest.approx(16.0)
        cfg2 = ExperimentConfig(N=64, L=TWO_PI, cutoff=10.0)
        assert cfg2.effective_cutoff() == 10.0


def real_state(grid, seed):
    """A divergence-free state whose spectrum is exactly conjugate-symmetric:
    the full spectrum of its own half."""
    f = random_divfree_field(grid, seed=seed)
    return fourier_field(grid, grid.half.expand(grid.half.cut(f.data)))


def cube_state(grid, seed, k):
    """real_state restricted to the cube |k_i| <= k, and its band array."""
    cube = np.all(np.abs(grid.k1d)[np.indices(grid.shape)] <= k, axis=0)
    f = fourier_field(grid, real_state(grid, seed).data * cube)
    return f, grid.half.cut(f.data)[(slice(None), *grid.half.band(k))]


FINGERPRINT = {"d": 2, "N": 16, "master_seed": 7, "dt": 0.0078125}


class TestCheckpoint:
    def test_bitwise_round_trip(self, tmp_path, grid2, grid3):
        for grid in (grid2, grid3):
            f = real_state(grid, seed=1)
            path = tmp_path / f"state{grid.d}.nsrw"
            h = grid.half.cut(f.data)
            save_checkpoint(grid, h, 0.375, 4.0, FINGERPRINT, path)
            w, t, cutoff = load_checkpoint(path, FINGERPRINT)
            assert t == 0.375 and cutoff == 4.0
            # the half comes back bit for bit, and so does the full spectrum
            assert np.array_equal(w, h)
            assert np.array_equal(grid.half.expand(w), f.data)
            # and the file itself is stable: saving again is byte-identical
            path2 = tmp_path / f"again{grid.d}.nsrw"
            save_checkpoint(grid, h, 0.375, 4.0, FINGERPRINT, path2)
            assert path.read_bytes() == path2.read_bytes()
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize("d, k", [(2, 0), (2, 3), (2, 7), (3, 2), (3, 5)])
    def test_band_round_trip(self, tmp_path, d, k):
        # a state on the cube |k_i| <= k < N/2 is stored as its band array
        # and comes back bit for bit, zero off the cube; saving it again
        # writes the same bytes
        grid = make_grid(d, 16, TWO_PI)
        f, h = cube_state(grid, 11 + k, k)
        assert h.shape == (d,) + (2 * k + 1,) * (d - 1) + (k + 1,)
        path = tmp_path / "band.nsrw"
        save_checkpoint(grid, h, 0.5, 4.0, FINGERPRINT, path)
        w, t, cutoff = load_checkpoint(path, FINGERPRINT)
        assert (t, cutoff) == (0.5, 4.0)
        assert np.array_equal(w, h)
        assert np.array_equal(grid.half.scatter(w), grid.half.cut(f.data))
        fp = json.dumps(FINGERPRINT, sort_keys=True, separators=(",", ":")).encode()
        assert path.stat().st_size == 44 + len(fp) + 4 + h.size * 16
        path2 = tmp_path / "again.nsrw"
        save_checkpoint(grid, h, 0.5, 4.0, FINGERPRINT, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_refuses_an_array_that_is_no_band(self, tmp_path, grid2):
        _, h = cube_state(grid2, 3, 3)
        for bad in (h[:, :6], h[:1], np.zeros((2, 16, 10), complex)):
            with pytest.raises(ValueError, match="one band array per dimension"):
                save_checkpoint(grid2, bad, 0.0, 4.0, FINGERPRINT, tmp_path / "bad.nsrw")
        # mode (1, 0) on plane 0 without its mirror partner (-1, 0)
        asym = h.copy()
        asym[0, 1, 0] += 1.0
        with pytest.raises(ValueError, match="not a real field's band array"):
            save_checkpoint(grid2, asym, 0.0, 4.0, FINGERPRINT, tmp_path / "bad.nsrw")
        assert not list(tmp_path.iterdir())

    def test_refuses_v2_payload_asymmetric_on_plane_zero(self, tmp_path, grid2):
        f = real_state(grid2, seed=8)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        payload = len(blob) - 2 * 16 * 9 * 16
        # component 0, mode (1, 0): last-axis plane 0, mirror partner (-1, 0)
        offset = payload + (1 * 9 + 0) * 16
        blob[offset : offset + 8] = struct.pack("<d", 0.5)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="planes 0 and N/2 are not conjugate"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_names_field(self, tmp_path, grid2):
        path = tmp_path / "state.nsrw"
        f = real_state(grid2, seed=9)
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        load_checkpoint(path, FINGERPRINT)
        with pytest.raises(CheckpointError, match="'master_seed' is 7 in the checkpoint "
                           "and 8 in the config"):
            load_checkpoint(path, {**FINGERPRINT, "master_seed": 8})

    def test_corrupt_magic(self, tmp_path, grid2):
        f = real_state(grid2, seed=2)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, grid2):
        f = real_state(grid2, seed=3)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 99$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_versions_refused(self, tmp_path, grid2, version):
        # only version 3 is read: the earlier layouts are refused like any other
        f = real_state(grid2, seed=3)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[4] = version
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path, grid2):
        f = real_state(grid2, seed=4)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, grid2.half.cut(f.data), 0.0, 4.0, FINGERPRINT, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload_refused_before_the_grid_is_built(self, tmp_path):
        # a 50-byte file whose header claims d=3, N=128 and the whole half
        # lattice: building that grid would allocate tens of MiB before the
        # payload length is checked
        path = tmp_path / "short.nsrw"
        path.write_bytes(struct.pack("<4sIIIddd", b"NSRW", 3, 3, 128, TWO_PI, 0.0, 4.0)
                         + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 64))
        assert path.stat().st_size == 50
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_band_radius_above_half_refused_before_the_grid_is_built(self, tmp_path):
        # a version-3 header claiming d=3, N=128 and a band radius past N/2
        path = tmp_path / "wide.nsrw"
        path.write_bytes(struct.pack("<4sIIIddd", b"NSRW", 3, 3, 128, TWO_PI, 0.0, 4.0)
                         + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 65))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="band radius k=65 exceeds the half "
                               "lattice's N/2 = 64"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_band_radius_missing_or_payload_short(self, tmp_path, grid2):
        _, h = cube_state(grid2, 4, 3)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, h, 0.0, 4.0, FINGERPRINT, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated: expected 896 payload bytes, "
                           "got 895"):
            load_checkpoint(path)
        path.write_bytes(blob[: len(blob) - h.size * 16 - 2])
        with pytest.raises(CheckpointError, match="truncated: band radius missing"):
            load_checkpoint(path)

    def test_load_holds_the_band_only(self, tmp_path):
        # a checkpoint of a d=3 N=32 solve at the default cutoff N/4 holds
        # the cube |k_i| <= 7 (86.4 KB of payload); loading it returns that
        # band array and forms no full spectrum, which alone is 1.5 MiB
        grid = make_grid(3, 32, TWO_PI)
        _, h = cube_state(grid, 12, 7)
        path = tmp_path / "band.nsrw"
        save_checkpoint(grid, h, 0.25, 8.0, FINGERPRINT, path)
        assert path.stat().st_size - h.nbytes < 100 and h.nbytes == 86_400
        (w, t, cutoff), peak = traced_peak(lambda: load_checkpoint(path, FINGERPRINT))
        assert np.array_equal(w, h) and (t, cutoff) == (0.25, 8.0)
        assert peak < 2**20

    @pytest.mark.parametrize("d, N, L", [(4, 16, TWO_PI), (2, 15, TWO_PI), (3, 6, TWO_PI),
                                         (2, 16, 0.0)])
    def test_header_with_invalid_grid(self, tmp_path, d, N, L):
        path = tmp_path / "bad.nsrw"
        path.write_bytes(struct.pack("<4sIIIddd", b"NSRW", 3, d, N, L, 0.0, 4.0)
                         + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 2))
        with pytest.raises(CheckpointError, match="no valid grid"):
            load_checkpoint(path)

    @pytest.mark.parametrize("k, rows, planes", [(3, 7, 4), (8, 16, 9)])
    def test_header_layout(self, tmp_path, grid2, k, rows, planes):
        # magic, version u32, d u32, N u32, L f64, t f64, cutoff f64, then a
        # u32 length and the canonical JSON fingerprint, then the band
        # radius k as u32, then the band array (d, min(2k+1, N),
        # min(k, N/2) + 1) as complex128, all little-endian; k = N/2 is the
        # whole half spectrum
        f, h = cube_state(grid2, 5, k)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, h, 1.5, 4.0, FINGERPRINT, path)
        blob = path.read_bytes()
        magic, version, d, N, L, t, n = struct.unpack_from("<4sIIIddd", blob)
        assert magic == b"NSRW" and version == 3
        assert (d, N) == (2, 16) and L == pytest.approx(TWO_PI)
        assert (t, n) == (1.5, 4.0)
        (length,) = struct.unpack_from("<I", blob, 40)
        fp = blob[44 : 44 + length]
        assert fp == json.dumps(FINGERPRINT, sort_keys=True, separators=(",", ":")).encode()
        assert struct.unpack_from("<I", blob, 44 + length) == (k,)
        assert len(blob) == 48 + length + d * rows * planes * 16
        payload = np.frombuffer(blob[48 + length :], dtype="<c16").reshape(2, rows, planes)
        assert np.array_equal(payload, h)
        assert np.array_equal(grid2.half.scatter(payload), grid2.half.cut(f.data))


class TestCli:
    def test_import_leaves_scipy_unloaded(self):
        # only the tests use scipy; the CLI must start without it
        env = dict(os.environ, PYTHONPATH=str(Path(nsrw.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, nsrw.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_parser_verbs(self):
        parser = build_parser()
        args = parser.parse_args(["tails", "--config", "c.json", "--M", "100"])
        assert args.verb == "tails" and args.M == 100
        # every configured experiment is a verb with a runner behind it
        from nsrw.experiments import _RUNNERS

        assert set(_RUNNERS) == set(EXPERIMENTS)
        for verb in EXPERIMENTS:
            assert parser.parse_args([verb, "--config", "c.json"]).verb == verb

    def test_verb_and_overrides(self, tmp_path):
        cfgfile = write_config(
            tmp_path, d=2, N=16, monte_carlo_M=10, T=0.25, dt=0.015625,
            data="smooth_random", randomize_data=False, substep_near_zero=False,
        )
        out = tmp_path / "out"
        status = main(
            ["solve", "--config", str(cfgfile), "--seed", "5", "--out", str(out)]
        )
        assert status == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "solve"
        assert summary["config"]["master_seed"] == 5
        assert (out / "series.csv").exists() and (out / "meta.json").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfgfile = write_config(tmp_path, d=3, s=0.3)
        assert main(["solve", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("name, value", [
        ("T", "1"),
        ("T", True),
        ("s", None),
        ("k_orders", 5),
        ("k_orders", [True]),
        ("cutoff", "4"),
        ("output_dir", 3),
    ])
    def test_wrong_field_type_exit_code(self, tmp_path, capsys, name, value):
        cfgfile = write_config(tmp_path, d=2, N=16, **{name: value})
        out = tmp_path / "out"
        status = main(["randomize", "--config", str(cfgfile), "--M", "1", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {name!r}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("verb, name, value", [
        ("heatflow", "k_orders", [1, 1]),
        ("tails", "monte_carlo_M", 50),
        # no decay time in the slope-fit window [t_min, 10 t_min]
        ("heatflow", "T", 0.001),
    ])
    def test_invalid_value_exit_code(self, tmp_path, capsys, verb, name, value):
        # refused before any sampling or sweep
        cfgfile = write_config(tmp_path, d=2, N=16, **{name: value})
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {name!r}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("verb, name, value, shown", [
        ("heatflow", "T", float("inf"), "Infinity"),
        ("tails", "T", float("inf"), "Infinity"),
        ("randomize", "subgaussian_c", float("nan"), "NaN"),
    ])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, verb, name, value, shown):
        cfgfile = write_config(tmp_path, d=2, N=16, **{name: value})
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field {name!r}: must be a finite number, got {shown}\n"
        assert not out.exists()

    def test_invalid_thread_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NSRW_THREADS", "two")
        cfgfile = write_config(tmp_path, d=2, N=16)
        out = tmp_path / "out"
        status = main(["randomize", "--config", str(cfgfile), "--M", "1", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err == "error: environment variable NSRW_THREADS must be an integer, got 'two'\n"
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["solve", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.json" in err

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, d=2, N=16, T=0.25, dt=0.015625)
        missing = tmp_path / "missing.nsrw"
        status = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                       "--resume", str(missing)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.nsrw" in err

    def test_missing_checkpoint_leaves_no_output_dir(self, tmp_path):
        cfgfile = write_config(tmp_path, d=2, N=16, T=0.25, dt=0.015625)
        out = tmp_path / "out"
        status = main(["solve", "--config", str(cfgfile), "--out", str(out),
                       "--resume", str(tmp_path / "missing.nsrw")])
        assert status == 2
        assert not out.exists()

    def test_missing_checkpoint_keeps_existing_output_dir(self, tmp_path):
        cfgfile = write_config(tmp_path, d=2, N=16, T=0.25, dt=0.015625)
        out = tmp_path / "out"
        out.mkdir()
        status = main(["solve", "--config", str(cfgfile), "--out", str(out),
                       "--resume", str(tmp_path / "missing.nsrw")])
        assert status == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_step_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import nsrw.experiments as experiments
        from nsrw.solver import StepFailureError

        def blow_up(*args, **kwargs):
            raise StepFailureError(0.5)

        monkeypatch.setattr(experiments, "solve", blow_up)
        cfgfile = write_config(tmp_path, d=2, N=16)
        status = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
