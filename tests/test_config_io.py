import itertools
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nsrw
from conftest import (
    TWO_PI,
    address_space_cap,
    random_divfree_field,
    solve_collecting,
    stored_mask,
    traced_peak,
)
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
from nsrw.data import smooth_random_field
from nsrw.solver import SolverConfig
from nsrw.spectral import HERMITIAN_RTOL, fourier_field, make_grid
from nsrw.tails import NormSpec, _inadmissible


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
        # (sigma + s - 2*gamma) * q must be < 2 at parse time, refused with
        # the space-time norm's own message
        spec = NormSpec(gamma=0.0, sigma=0.5, p=4.0, q=4, r=4.0, s=0.25, T=1.0)
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"experiment": "tails", "sigma": 0.5, "s": 0.25, "q": 4})
        assert str(exc.value) == f"config field 'gamma': {_inadmissible(spec)}"
        cfg = config_from_dict(
            {"experiment": "tails", "sigma": 0.5, "s": 0.25, "gamma": 0.2, "q": 4}
        )
        assert cfg.gamma == 0.2

    def test_report_needs_negative_gamma(self):
        with pytest.raises(ConfigError, match="gamma < 0"):
            config_from_dict({"experiment": "report"})
        # condtg's rule, with the one refusal message naming the norm
        spec = NormSpec(gamma=-0.2, sigma=0.0, p=4.0, q=4.0, r=4.0, s=0.25, T=1.0)
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"experiment": "report", "gamma": -0.2, "s": 0.25})
        assert str(exc.value) == ("config field 'gamma': condtg's L4_L4 norm: "
                                  f"{_inadmissible(spec)}")
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
    its self-mirrored planes symmetrized."""
    f = random_divfree_field(grid, seed=seed)
    return fourier_field(grid, grid.symmetrize(f.data))


def ball_state(grid, seed, cutoff):
    """real_state restricted to the ball |xi| < cutoff, and its band array on
    the ball's cube, as solve's snapshots hold it."""
    f = fourier_field(grid, real_state(grid, seed).data * (grid.kabs < cutoff))
    k = grid.ball_radius(cutoff)
    return f, f.data[(slice(None), *grid.band(k))]


def ball_mask(grid, cutoff):
    """The ball |xi| < cutoff on its cube, from the whole lattice's |xi|."""
    k = grid.ball_radius(cutoff)
    return grid.kabs[grid.band(k)] < cutoff


FINGERPRINT = {"d": 2, "N": 16, "master_seed": 7, "dt": 0.0078125}
# the ball |xi| < 4 of a d=2 N=16 L=2 pi grid: radius 3, 26 modes per component
CUTOFF = 4.0
# a ball that holds the whole half lattice, |xi| <= sqrt(d) N/2 at L = 2 pi
WHOLE = 100.0


def version4_file(grid, h, cutoff, fingerprint):
    """The bytes of a version-4 checkpoint of the band array h: every mode
    of the ball stored, both members of each mirror pair on plane 0."""
    fp = json.dumps(fingerprint, sort_keys=True, separators=(",", ":")).encode()
    return (struct.pack("<4sIIIddd", b"NSRW", 4, grid.d, grid.N, grid.L, 0.0, cutoff)
            + struct.pack("<I", len(fp)) + fp + struct.pack("<I", h.shape[-1] - 1)
            + h[:, ball_mask(grid, cutoff)].astype("<c16").tobytes())


def header(d, N, cutoff, k, L=TWO_PI):
    """A version-5 checkpoint's bytes up to its payload, with an empty
    fingerprint."""
    return (struct.pack("<4sIIIddd", b"NSRW", 5, d, N, L, 0.0, cutoff)
            + struct.pack("<I", 2) + b"{}" + struct.pack("<I", k))


class TestCheckpoint:
    def test_bitwise_round_trip(self, tmp_path, grid2, grid3):
        for grid, cutoff in itertools.product((grid2, grid3), (CUTOFF, WHOLE)):
            f, h = ball_state(grid, 1, cutoff)
            path = tmp_path / f"state{grid.d}.nsrw"
            save_checkpoint(grid, h, 0.375, cutoff, FINGERPRINT, path)
            w, t, ck_cutoff = load_checkpoint(path, FINGERPRINT)
            assert t == 0.375 and ck_cutoff == cutoff
            # the band comes back bit for bit, and so does the field
            assert np.array_equal(w, h)
            assert np.array_equal(grid.scatter(w), f.data)
            # and the file itself is stable: saving again is byte-identical
            path2 = tmp_path / f"again{grid.d}.nsrw"
            save_checkpoint(grid, h, 0.375, cutoff, FINGERPRINT, path2)
            assert path.read_bytes() == path2.read_bytes()
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize("d, L, cutoff, k", [
        # the cutoff k + 1/2 at L = 2 pi, id d-k; then other cutoffs and periods
        *(pytest.param(d, TWO_PI, k + 0.5, k, id=f"{d}-{k}")
          for d, k in [(2, 0), (2, 3), (2, 7), (3, 2), (3, 5)]),
        *(pytest.param(d, L, cutoff, k, id=f"{d}-{k}-L{L:.4g}-cutoff{cutoff:g}")
          for d, L, cutoff, k in [(2, TWO_PI, 4.0, 3), (2, TWO_PI, 11.0, 8), (2, 3.7, 9.0, 5),
                                  (3, TWO_PI, 8.0, 7), (3, 1.0, 30.0, 4), (3, TWO_PI, 14.0, 8)]),
    ])
    def test_band_round_trip(self, tmp_path, d, L, cutoff, k):
        # a state in the ball |xi| < cutoff is stored as its coefficients in
        # the ball, one of each mirror pair on plane 0 (and N/2), and comes
        # back as the band array of the ball's cube |k_i| <= k, bit for bit,
        # zero off the ball; saving it again writes the same bytes
        grid = make_grid(d, 16, L)
        f, h = ball_state(grid, 11 + k, cutoff)
        assert h.shape == (d,) + (min(2 * k + 1, 16),) * (d - 1) + (k + 1,)
        ball = ball_mask(grid, cutoff)
        assert not np.any(h[:, ~ball])
        path = tmp_path / "band.nsrw"
        save_checkpoint(grid, h, 0.5, cutoff, FINGERPRINT, path)
        w, t, ck_cutoff = load_checkpoint(path, FINGERPRINT)
        assert (t, ck_cutoff) == (0.5, cutoff)
        assert np.array_equal(w, h)
        assert np.array_equal(grid.scatter(w), f.data)
        fp = json.dumps(FINGERPRINT, sort_keys=True, separators=(",", ":")).encode()
        assert path.stat().st_size == 48 + len(fp) + d * int(stored_mask(grid, cutoff).sum()) * 16
        path2 = tmp_path / "again.nsrw"
        save_checkpoint(grid, h, 0.5, cutoff, FINGERPRINT, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("d, N, cutoff", [(2, 32, 8.0), (3, 16, 4.0)])
    def test_every_solve_snapshot_round_trips(self, tmp_path, d, N, cutoff):
        # solve's snapshots are symmetrized on plane 0, so each comes back
        # equal from the half of plane 0's mirror pairs a file stores
        grid = make_grid(d, N, TWO_PI)
        config = SolverConfig(cutoff=cutoff, T=7.0 / 128.0, dt=1.0 / 128.0,
                              snapshot_cadence=1, substep_near_zero=False)
        _, snapshots = solve_collecting(config, smooth_random_field(grid, seed=5, band=2))
        assert len(snapshots) == 8
        path = tmp_path / "snapshot.nsrw"
        for t, band in snapshots:
            save_checkpoint(grid, band, t, cutoff, FINGERPRINT, path)
            w, t_loaded, _ = load_checkpoint(path, FINGERPRINT)
            assert t_loaded == t and np.array_equal(w, band)

    def test_asymmetric_band_loads_as_its_symmetrization(self, tmp_path, grid2, grid3):
        # a plane 0 asymmetric within HERMITIAN_RTOL is saved as the values
        # of its symmetrization, and that is what comes back
        for grid in (grid2, grid3):
            _, h = ball_state(grid, 6, CUTOFF)
            skewed = h.copy()
            # mode (1, 0[, 0]) of component 1, stored, where the file drops
            # its mirror partner; a divergence-free field's component 0 is
            # zero there
            skewed[(1, 1) + (0,) * (grid.d - 1)] += 0.5 * HERMITIAN_RTOL * np.abs(h).max()
            assert 0 < grid.plane_asymmetry(skewed) <= HERMITIAN_RTOL
            path = tmp_path / f"skewed{grid.d}.nsrw"
            save_checkpoint(grid, skewed, 0.0, CUTOFF, FINGERPRINT, path)
            w, _, _ = load_checkpoint(path, FINGERPRINT)
            assert np.array_equal(w, grid.symmetrize(skewed))
            assert not np.array_equal(w, skewed)

    @pytest.mark.parametrize("d, N, payload", [(2, 64, 12_704), (3, 64, 409_728)])
    def test_payload_size_at_the_default_cutoff(self, tmp_path, d, N, payload):
        # the ball |xi| < N/4 less the dropped mirror partners on plane 0:
        # 412 - 15 modes per component at d=2, 8,932 - 396 at d=3
        grid = make_grid(d, N, TWO_PI)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid, ball_state(grid, 14, N / 4)[1], 0.0, N / 4, {}, path)
        assert path.stat().st_size - 48 - len(b"{}") == payload

    def test_version_4_file_refused(self, tmp_path, grid2):
        # a file in the version-4 layout, which stored both partners of every
        # mirror pair on plane 0, is refused by its version alone
        path = tmp_path / "v4.nsrw"
        path.write_bytes(version4_file(grid2, ball_state(grid2, 3, CUTOFF)[1], CUTOFF,
                                       FINGERPRINT))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 4$"):
            load_checkpoint(path, FINGERPRINT)

    def test_save_refuses_an_array_that_is_no_band(self, tmp_path, grid2):
        _, h = ball_state(grid2, 3, CUTOFF)
        for bad in (h[:, :6], h[:1], np.zeros((2, 16, 10), complex)):
            with pytest.raises(ValueError, match="one band array per dimension"):
                save_checkpoint(grid2, bad, 0.0, CUTOFF, FINGERPRINT, tmp_path / "bad.nsrw")
        # mode (1, 0) on plane 0 without its mirror partner (-1, 0)
        asym = h.copy()
        asym[0, 1, 0] += 1.0
        with pytest.raises(ValueError, match="not a real field's band array"):
            save_checkpoint(grid2, asym, 0.0, CUTOFF, FINGERPRINT, tmp_path / "bad.nsrw")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("comp, row, mode", [(1, 3, (3, 3)), (0, -3, (-3, 3))])
    def test_save_refuses_content_off_the_ball(self, tmp_path, grid2, comp, row, mode):
        # the cube |k_i| <= 3 holds two modes with |xi| >= 4, its corners
        # (+-3, 3); a coefficient there, however small, is named and refused
        _, h = ball_state(grid2, 3, CUTOFF)
        for value in (1.0, 1e-300):
            bad = h.copy()
            bad[comp, row, 3] = value
            with pytest.raises(ValueError, match=re.escape(
                    f"a checkpointed state has support outside the cutoff ball |xi| < 4: "
                    f"its largest coefficient there, component {comp} at lattice mode "
                    f"{mode}, has magnitude {value:.3e}")):
                save_checkpoint(grid2, bad, 0.0, CUTOFF, FINGERPRINT, tmp_path / "bad.nsrw")
        assert not list(tmp_path.iterdir())

    def test_save_refuses_a_band_radius_other_than_the_balls(self, tmp_path, grid2):
        # the cube of radius 3 is the ball's at cutoff 4, not at 3 (radius 2)
        # nor at 5 (radius 4); a whole half array is the ball's band only for
        # a ball that holds the whole half lattice
        f, h = ball_state(grid2, 3, 3.0)
        _, h3 = ball_state(grid2, 3, CUTOFF)
        for band, cutoff, k, k_ball in ((h3, 3.0, 3, 2), (h3, 5.0, 3, 4), (h, CUTOFF, 2, 3),
                                        (f.data, CUTOFF, 8, 3)):
            with pytest.raises(ValueError, match=f"its radius is k={k}, the ball "
                               rf"\|xi\| < {cutoff:g} on a d=2 N=16 L=6.28319 grid has "
                               f"k={k_ball}$"):
                save_checkpoint(grid2, band, 0.0, cutoff, FINGERPRINT, tmp_path / "bad.nsrw")
        for cutoff in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cutoff must be a positive number"):
                save_checkpoint(grid2, h3, 0.0, cutoff, FINGERPRINT, tmp_path / "bad.nsrw")
        assert not list(tmp_path.iterdir())

    def test_refuses_v2_payload_asymmetric_on_plane_zero(self, tmp_path, grid2):
        _, h = ball_state(grid2, 8, CUTOFF)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, h, 0.0, CUTOFF, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        payload = len(blob) - 2 * int(stored_mask(grid2, CUTOFF).sum()) * 16
        # component 0, mode (0, 0), the first stored entry: its own mirror,
        # so its imaginary part is the asymmetry a payload can carry, where
        # every dropped partner is rebuilt as its mirror's conjugate
        blob[payload + 8 : payload + 16] = struct.pack("<d", 0.5)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="planes 0 and N/2 are not conjugate"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_names_field(self, tmp_path, grid2):
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 9, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        load_checkpoint(path, FINGERPRINT)
        with pytest.raises(CheckpointError, match="'master_seed' is 7 in the checkpoint "
                           "and 8 in the config"):
            load_checkpoint(path, {**FINGERPRINT, "master_seed": 8})

    def test_corrupt_magic(self, tmp_path, grid2):
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 2, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, grid2):
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 3, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        assert blob[4] == 5
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 99$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_versions_refused(self, tmp_path, grid2, version):
        # only version 5 is read: the earlier layouts are refused like any
        # other (version 4 by test_version_4_file_refused)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 3, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[4] = version
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path, grid2):
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 4, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload_refused_before_the_grid_is_built(self, tmp_path):
        # a 50-byte file whose header claims d=3, N=128 and a ball that holds
        # the whole half lattice (radius 64 at cutoff 111 > 64 sqrt 3):
        # building the ball's mask would allocate tens of MiB before the
        # payload length is checked
        path = tmp_path / "short.nsrw"
        path.write_bytes(header(3, 128, 111.0, 64))
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
        # a header claiming d=3, N=128 and a band radius past N/2
        path = tmp_path / "wide.nsrw"
        path.write_bytes(header(3, 128, CUTOFF, 65))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="band radius k=65 exceeds the half "
                               "lattice's N/2 = 64"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("k, cutoff, k_ball", [(4, 4.0, 3), (2, 4.0, 3), (64, 4.0, 3),
                                                   (3, 111.0, 64)])
    def test_band_radius_other_than_the_balls_refused(self, tmp_path, k, cutoff, k_ball):
        # the header's band radius must be its cutoff ball's; refused from
        # the header alone, before the mask is built
        path = tmp_path / "odd.nsrw"
        path.write_bytes(header(3, 128, cutoff, k) + bytes(16 * 3 * 130))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=rf"band radius k={k} is not that of its "
                               rf"cutoff ball \|xi\| < {cutoff:g}, k={k_ball}$"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("cutoff, k, message", [
        # the ball |xi| < 8 holds the cube |k_i| <= 4 whole: 405 modes, of
        # which 365 are stored, 41 of the 81 on plane 0
        pytest.param(8.0, 7, "truncated: its cutoff ball needs at least 17520 payload "
                     "bytes, got 0$", id="short"),
        pytest.param(8.0, 3, r"band radius k=3 is not that of its cutoff ball \|xi\| < 8, "
                     "k=7$", id="radius"),
        pytest.param(1e10, 2**29, "truncated: its cutoff ball needs at least", id="whole"),
        pytest.param(8.0, 2**29 + 1, "band radius k=536870913 exceeds the half lattice's "
                     "N/2 = 536870912", id="above-half"),
    ])
    def test_huge_grid_refused_before_any_array_is_built(self, tmp_path, cutoff, k, message):
        # a 50-byte file whose header names N = 2^30: every check up to the
        # payload's length takes single frequencies, where the N-point k1d
        # alone would be 8 GiB (the cap turns such an allocation into an error)
        path = tmp_path / "huge.nsrw"
        path.write_bytes(header(3, 2**30, cutoff, k))
        tracemalloc.start()
        try:
            with address_space_cap(), pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_grid_round_trip_builds_no_grid_array(self, tmp_path, grid2):
        # a band array is the same on every grid of its period whose N/2
        # exceeds its radius: a state saved on 2^30 points per axis loads
        # back bit for bit, and neither side builds an N-point array, nor
        # does a save that names the mode it refuses off the ball
        _, h = ball_state(grid2, 5, CUTOFF)
        huge = make_grid(2, 2**30, TWO_PI)
        path = tmp_path / "huge.nsrw"
        with address_space_cap():
            _, save_peak = traced_peak(
                lambda: save_checkpoint(huge, h, 0.5, CUTOFF, FINGERPRINT, path))
            (w, t, cutoff), load_peak = traced_peak(lambda: load_checkpoint(path, FINGERPRINT))
            bad = h.copy()
            bad[1, -3, 3] = 1.0
            with pytest.raises(ValueError, match=r"component 1 at lattice mode \(-3, 3\)"):
                save_checkpoint(huge, bad, 0.5, CUTOFF, FINGERPRINT, path)
        assert np.array_equal(w, h) and (t, cutoff) == (0.5, CUTOFF)
        assert save_peak < 2**20 and load_peak < 2**20

    @pytest.mark.parametrize("cutoff", [0.0, -4.0, float("nan"), float("inf")])
    def test_header_with_invalid_cutoff(self, tmp_path, cutoff):
        path = tmp_path / "bad.nsrw"
        path.write_bytes(header(2, 16, cutoff, 3) + bytes(16 * 2 * 26))
        with pytest.raises(CheckpointError, match="cutoff must be a positive number"):
            load_checkpoint(path)

    def test_band_radius_missing_or_payload_short(self, tmp_path, grid2):
        _, h = ball_state(grid2, 4, CUTOFF)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, h, 0.0, CUTOFF, FINGERPRINT, path)
        blob = path.read_bytes()
        # 26 modes per component, the cube |k_i| <= 3 less its corners, of
        # which 23 are stored: plane 0's 7 modes keep mode 0 and one of each
        # of their 3 mirror pairs
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated: expected 736 payload bytes, "
                           "got 735"):
            load_checkpoint(path)
        path.write_bytes(blob + bytes(16))
        with pytest.raises(CheckpointError, match="truncated: expected 736 payload bytes, "
                           "got 752"):
            load_checkpoint(path)
        # below the 13 stored modes per component of the inscribed cube
        # |k_i| <= 2 (15 modes, 5 on plane 0): refused before the mask is built
        path.write_bytes(blob[: len(blob) - 736 + 415])
        with pytest.raises(CheckpointError, match="truncated: its cutoff ball needs at least "
                           "416 payload bytes, got 415"):
            load_checkpoint(path)
        path.write_bytes(blob[: len(blob) - 736 - 2])
        with pytest.raises(CheckpointError, match="truncated: band radius missing"):
            load_checkpoint(path)

    def test_load_holds_the_band_only(self, tmp_path):
        # a checkpoint of a d=3 N=32 solve at the default cutoff N/4 holds
        # the ball |xi| < 8 (50.5 KB of payload, where its cube |k_i| <= 7
        # took 86.4 KB); loading it returns the cube's band array and forms
        # no full spectrum, which alone is 1.5 MiB
        grid = make_grid(3, 32, TWO_PI)
        _, h = ball_state(grid, 12, 8.0)
        path = tmp_path / "band.nsrw"
        save_checkpoint(grid, h, 0.25, 8.0, FINGERPRINT, path)
        assert h.nbytes == 86_400 and 0 < path.stat().st_size - 50_496 < 100
        (w, t, cutoff), peak = traced_peak(lambda: load_checkpoint(path, FINGERPRINT))
        assert np.array_equal(w, h) and (t, cutoff) == (0.25, 8.0)
        assert peak < 2**20

    def test_solve_checkpoint_size(self, tmp_path):
        # a checkpoint of the d=3 N=32 solve at its default cutoff 8, with
        # that solve's own fingerprint: 1,148 of the cube's 1,800 modes per
        # component, less 96 dropped mirror partners on plane 0, 50,808
        # bytes in all
        cfg = config_from_dict({"experiment": "solve", "d": 3, "N": 32, "s": 0.2,
                                "T": 0.125, "dt": 1.0 / 256.0})
        grid = make_grid(3, 32, cfg.L)
        assert cfg.effective_cutoff() == 8.0 and int(ball_mask(grid, 8.0).sum()) == 1148
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid, ball_state(grid, 13, 8.0)[1], 0.0, 8.0,
                        cfg.trajectory_fingerprint(), path)
        assert path.stat().st_size == 50_808

    @pytest.mark.parametrize("d, N, L", [(4, 16, TWO_PI), (2, 15, TWO_PI), (3, 6, TWO_PI),
                                         (2, 16, 0.0), (2, 16, float("inf"))])
    def test_header_with_invalid_grid(self, tmp_path, d, N, L):
        path = tmp_path / "bad.nsrw"
        path.write_bytes(header(d, N, CUTOFF, 2, L=L))
        with pytest.raises(CheckpointError, match="no valid grid"):
            load_checkpoint(path)

    @pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf")])
    def test_header_with_invalid_time(self, tmp_path, grid2, t):
        # a valid checkpoint but for its time, the f64 at byte 24: refused on
        # load, naming t, and not later as a resume time off the step grid
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, ball_state(grid2, 10, CUTOFF)[1], 0.0, CUTOFF, FINGERPRINT, path)
        blob = bytearray(path.read_bytes())
        blob[24:32] = struct.pack("<d", t)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r"header time t=\S+ is not a finite number >= 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf")])
    def test_save_refuses_a_time_its_loader_would(self, tmp_path, grid2, t):
        # refused before anything is written: neither the file nor its .tmp
        path = tmp_path / "state.nsrw"
        with pytest.raises(CheckpointError,
                           match=r"checkpoint time t=\S+ is not a finite number >= 0"):
            save_checkpoint(grid2, ball_state(grid2, 10, CUTOFF)[1], t, CUTOFF, FINGERPRINT, path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k, cutoff, modes", [pytest.param(3, CUTOFF, 23, id="3-7-4"),
                                                  pytest.param(8, WHOLE, 130, id="8-16-9")])
    def test_header_layout(self, tmp_path, grid2, k, cutoff, modes):
        # magic, version u32, d u32, N u32, L f64, t f64, cutoff f64, then a
        # u32 length and the canonical JSON fingerprint, then the band
        # radius k as u32, then, per component, the band array's entries in
        # the ball |xi| < cutoff less the later member of each mirror pair on
        # planes 0 and N/2, in row-major order as complex128, all
        # little-endian; k = N/2 is the whole half spectrum (16 x 9 modes,
        # 7 pairs dropped on each of its planes 0 and 8)
        f, h = ball_state(grid2, 5, cutoff)
        path = tmp_path / "state.nsrw"
        save_checkpoint(grid2, h, 1.5, cutoff, FINGERPRINT, path)
        blob = path.read_bytes()
        magic, version, d, N, L, t, n = struct.unpack_from("<4sIIIddd", blob)
        assert magic == b"NSRW" and version == 5
        assert (d, N) == (2, 16) and L == pytest.approx(TWO_PI)
        assert (t, n) == (1.5, cutoff)
        (length,) = struct.unpack_from("<I", blob, 40)
        fp = blob[44 : 44 + length]
        assert fp == json.dumps(FINGERPRINT, sort_keys=True, separators=(",", ":")).encode()
        assert struct.unpack_from("<I", blob, 44 + length) == (k,)
        assert len(blob) == 48 + length + d * modes * 16
        stored = stored_mask(grid2, cutoff)
        assert int(stored.sum()) == modes
        payload = np.frombuffer(blob[48 + length :], dtype="<c16").reshape(2, modes)
        assert np.array_equal(payload, h[:, stored])
        # the loader rebuilds each dropped partner from its stored mirror
        w, _, _ = load_checkpoint(path)
        assert np.array_equal(grid2.scatter(w), f.data)


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

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_unusable_output_dir_exit_code(self, tmp_path, capsys, below):
        # an --out that is a file, or lies below one, can never be made: it
        # is refused as invalid input before any work, and nothing is made
        cfgfile = write_config(tmp_path, d=2, N=16)
        blocker = tmp_path / "notadir"
        blocker.write_text("x")
        out = blocker / "x" if below else blocker
        before = sorted(tmp_path.rglob("*"))
        status = main(["randomize", "--config", str(cfgfile), "--M", "1", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err == (f"error: config field 'output_dir': {str(out)!r} cannot be a directory: "
                       f"{str(blocker)!r} is a file\n")
        assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "x"

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

    def test_version_4_checkpoint_exit_code(self, tmp_path, capsys):
        # a version-4 file of this very run is refused, exit code 2
        cfgfile = write_config(tmp_path, d=2, N=16, T=0.25, dt=0.015625)
        cfg = validate_config(parse_config(cfgfile))
        grid = make_grid(2, 16, cfg.L)
        cutoff = cfg.effective_cutoff()
        v4 = tmp_path / "checkpoint_0000.nsrw"
        v4.write_bytes(version4_file(grid, ball_state(grid, 3, cutoff)[1], cutoff,
                                     cfg.trajectory_fingerprint()))
        out = tmp_path / "out"
        status = main(["solve", "--config", str(cfgfile), "--out", str(out),
                       "--resume", str(v4)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unsupported checkpoint version 4" in err
        assert not out.exists()

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
