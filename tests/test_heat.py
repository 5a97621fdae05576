import math

import numpy as np
import pytest
from scipy.integrate import quad

import nsrw.heat as heat
from conftest import (
    TWO_PI,
    heat_norms_oracle,
    mode_pair_field,
    random_divfree_field,
    random_real_field,
    single_mode_field,
    traced_peak,
)
from nsrw.data import borderline_field, default_tilt
from nsrw.heat import (
    _SweepField,
    _derivative_symbols,
    _heat_norms,
    check_linear_estimates,
    condg_check,
    default_decay_time_grid,
    heat_semigroup,
    small_time_window,
)
from nsrw.randomization import RandomModel, randomize, sample_coefficients
from nsrw.tails import NormSpec, default_time_grid, space_time_norm
from nsrw.spectral import (
    fourier_field,
    l2_norm,
    linf_norm,
    make_grid,
    multiplier,
    physical_field,
    ring_partition,
    transform,
    zero_mean,
    zero_nyquist,
)


def _no_sweep(*args):
    raise AssertionError("a sweep ran before its time grid was checked")


class TestSemigroup:
    def test_t_zero_identity(self, grid2):
        f = random_real_field(grid2, 2, seed=1)
        assert np.array_equal(heat_semigroup(f, 0.0).data, f.data)

    def test_mode_decay_value(self, grid2):
        f = single_mode_field(grid2, (1, 1), [1.0, 0.0])  # |xi|^2 = 2
        out = heat_semigroup(f, 0.5)
        assert abs(out.data[0][1, 1] - np.exp(-1.0)) < 1e-15

    def test_mean_mode_unchanged(self, grid2):
        f = single_mode_field(grid2, (0, 0), [2.5, 0.0])
        for t in (0.1, 1.0, 7.0):
            assert heat_semigroup(f, t).data[0][0, 0] == 2.5

    def test_semigroup_law(self, grid2):
        f = random_real_field(grid2, 2, seed=2)
        a = heat_semigroup(heat_semigroup(f, 0.3), 0.45)
        b = heat_semigroup(f, 0.75)
        assert np.abs(a.data - b.data).max() < 1e-13 * np.abs(f.data).max()

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_time_not_finite_and_nonnegative(self, grid2, t):
        # NaN would return an all-NaN field, and inf NaN at the zero mode
        with pytest.raises(ValueError, match="needs a finite t >= 0"):
            heat_semigroup(random_real_field(grid2), t)

    def test_positivity_on_nonnegative_scalar(self, grid2):
        rng = np.random.default_rng(3)
        vals = np.abs(rng.standard_normal((1,) + grid2.shape))
        f = transform(physical_field(grid2, vals), "forward")
        for t in (0.01, 0.1, 1.0):
            phys = transform(heat_semigroup(f, t), "inverse")
            assert phys.data.real.min() >= -1e-12

    def test_monotone_l2_decay_mean_zero(self, grid2):
        f = zero_mean(random_real_field(grid2, 2, seed=4))
        norms = [l2_norm(heat_semigroup(f, t)) for t in np.linspace(0.0, 2.0, 40)]
        assert np.all(np.diff(norms) <= 1e-14)


def rademacher_borderline(grid, s, data_seed=101, draw_seed=55):
    f = borderline_field(grid, s, seed=data_seed)
    part = ring_partition(grid)
    model = RandomModel("rademacher", draw_seed)
    return randomize(f, sample_coefficients(model, part.max_ring, 0), part)


def oracle_slope(grid, s, k, n_pts=9):
    """Least-squares slope of the radial quadrature of the decay integral,
    restricted to the resolved frequency band."""
    rho = default_tilt(grid.d)
    lo, hi = small_time_window(grid)
    k_ir = 2.0 * np.pi / grid.L
    k_uv = float(grid.kabs.max())
    ts = np.geomspace(lo, hi, n_pts)
    vals = []
    for t in ts:
        v, _ = quad(
            lambda r: r ** (grid.d - 1 + 2 * k + 2 * (s - rho)) * np.exp(-2 * t * r * r),
            k_ir,
            k_uv,
            limit=300,
        )
        vals.append(np.sqrt(v))
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


class TestLinearEstimates:
    def test_single_mode_closed_form(self, grid2):
        f = mode_pair_field(grid2, (2, 1), [1.0, -2.0])  # |xi|^2 = 5
        ts = np.geomspace(0.01, 1.0, 12)
        rep = check_linear_estimates(f, 0.25, 0, ts)
        base = l2_norm(f)
        expected = base * np.exp(-5.0 * ts)
        assert np.abs(rep.l2.values - expected).max() < 1e-12 * base
        assert np.all(np.isfinite(rep.l2.ratios))
        assert rep.l2.bound_constant < np.inf

    @pytest.mark.parametrize("k", [0, 1])
    def test_borderline_slope_matches_oracle(self, k):
        grid = make_grid(2, 64, TWO_PI)
        f_om = rademacher_borderline(grid, 0.25)
        t_grid = default_decay_time_grid(grid, 1.0, 16)
        rep = check_linear_estimates(f_om, 0.25, k, t_grid)
        target = -(0.25 + k) / 2.0
        assert abs(rep.l2.fitted_slope - target) <= 0.1
        assert abs(rep.l2.fitted_slope - oracle_slope(grid, 0.25, k)) <= 0.08

    def test_gradient_norm_uses_full_tensor(self, grid2):
        # |grad e^{tD} f|_L2 must equal the |xi|-weighted coefficient norm
        f = random_divfree_field(grid2, seed=5)
        ts = np.array([0.05])
        rep = check_linear_estimates(f, 0.25, 1, np.geomspace(0.01, 1.0, 8))
        t = rep.l2.times[0]
        heated = heat_semigroup(f, t)
        direct = np.sqrt(
            grid2.cell_volume * np.sum(grid2.weight * grid2.ksq * np.abs(heated.data) ** 2)
        )
        assert abs(rep.l2.values[0] - direct) < 1e-12 * direct

    def test_shared_field_checks_once_with_the_same_bits(self, monkeypatch):
        # heatflow checks every order on one _SweepField: the realness check
        # and the H^{-s} norm run once, and each report is the plain call's
        grid = make_grid(3, 16, TWO_PI)
        f = borderline_field(grid, 0.2, seed=3)
        ts = default_decay_time_grid(grid, 1.0, 16)
        plain = {k: check_linear_estimates(f, 0.2, k, ts) for k in (0, 1, 2)}
        calls = []
        for name in ("require_real_field", "hminus_s_norm"):
            def spy(*args, _fn=getattr(heat, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(heat, name, spy)
        field = _SweepField(f)
        shared = {k: check_linear_estimates(field, 0.2, k, ts) for k in (0, 1, 2)}
        assert sorted(calls) == ["hminus_s_norm", "require_real_field"]
        for k in (0, 1, 2):
            for norm in ("l2", "linf"):
                a, b = getattr(plain[k], norm), getattr(shared[k], norm)
                assert np.array_equal(a.values, b.values) and np.array_equal(a.ratios, b.ratios)
                assert (a.bound_constant, a.fitted_slope) == (b.bound_constant, b.fitted_slope)
            assert plain[k].linf_sqrt_bound_constant == shared[k].linf_sqrt_bound_constant

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_linf_matches_per_time_oracle(self, d, k):
        grid = make_grid(d, 16, TWO_PI)
        f = zero_nyquist(random_real_field(grid, d, seed=11))
        ts = np.geomspace(0.01, 1.0, 6)
        rep = check_linear_estimates(f, 0.25, k, ts)
        oracle = []
        for t in ts:
            stack = [heat_semigroup(f, t)]
            for _ in range(k):
                stack = [multiplier(x, "gradient", ax) for x in stack for ax in range(d)]
            oracle.append(linf_norm(fourier_field(grid, np.concatenate([x.data for x in stack]))))
        np.testing.assert_allclose(rep.linf.values, oracle, rtol=1e-12, atol=0)

    def test_rejects_bad_inputs(self, grid2):
        f = random_divfree_field(grid2, seed=6)
        with pytest.raises(ValueError):
            check_linear_estimates(f, 0.25, 3, np.array([0.1]))
        with pytest.raises(ValueError):
            check_linear_estimates(f, 0.25, 0, np.array([]))
        with pytest.raises(ValueError):
            check_linear_estimates(f, 0.25, 0, np.array([-0.1, 0.5]))

    def test_refuses_repeated_times_before_any_sweep(self, grid2, monkeypatch):
        # a repeated time once failed only in DecayReport, after both sweeps
        for name in ("_heat_norms", "_l2_over_times"):
            monkeypatch.setattr(heat, name, _no_sweep)
        f = random_divfree_field(grid2, seed=6)
        with pytest.raises(ValueError, match="must not repeat; 0.1 does"):
            check_linear_estimates(f, 0.25, 0, np.array([0.1, 0.5, 0.1, 1.0]))

    def test_bound_constant_stable_under_grid_refinement(self):
        grid = make_grid(2, 64, TWO_PI)
        f_om = rademacher_borderline(grid, 0.25)
        reps = [
            check_linear_estimates(f_om, 0.25, 0, default_decay_time_grid(grid, 1.0, ppd))
            for ppd in (16, 32)
        ]
        a, b = (r.l2.bound_constant for r in reps)
        assert np.isfinite(a) and abs(a - b) / b < 0.05


class TestHeatNormsOracle:
    # times up to 1 keep every block on the whole half lattice; from 0.1 to
    # 3 the last block runs on a smaller cube
    # (at L = 5 rounding splits modes of equal integer |k|^2 into separate
    # |xi|^2 shells, which the decay is formed on; its times are scaled by
    # (L / 2 pi)^2, so that t |xi|^2 and the pruning are those at 2 pi)
    @pytest.mark.parametrize("t_first, t_last, prunes", [(1e-3, 1.0, False), (0.1, 3.0, True)])
    @pytest.mark.parametrize("L", [TWO_PI, 5.0])
    @pytest.mark.parametrize("orders", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0 / 3.0, np.inf])
    @pytest.mark.parametrize("ncomp", ["scalar", "vector"])
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_bitwise_equal_to_straightforward_sweep(self, d, N, ncomp, p, orders, L,
                                                     t_first, t_last, prunes):
        grid = make_grid(d, N, L)
        nc = 1 if ncomp == "scalar" else d
        f = zero_nyquist(random_real_field(grid, nc, seed=21))
        chunk = heat._BLOCK_ELEMS // N**d
        # a short last block
        times = np.geomspace(t_first, t_last, chunk + chunk // 3 + 1) * (L / TWO_PI) ** 2
        symbols = [sym for k in orders for sym in _derivative_symbols(grid, k)]
        field = _SweepField(f)
        (got,) = _heat_norms(field, symbols, times, (p,))
        assert np.array_equal(got, heat_norms_oracle(f, symbols, times, p))
        assert (field.pruned_transforms > 0) == prunes

    # condtg's shared d=3 sweep reduces (6, 8/3): every exponent but the
    # last is raised in a copy, the last in the sweep's own sum
    @pytest.mark.parametrize("exponents", [(6.0, 8.0 / 3.0), (8.0 / 3.0, 6.0, np.inf)])
    @pytest.mark.parametrize("orders", [(0,), (0, 1)])
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_each_exponent_of_one_sweep_matches_its_own(self, d, N, orders, exponents):
        grid = make_grid(d, N, TWO_PI)
        f = zero_nyquist(random_real_field(grid, d, seed=22))
        chunk = heat._BLOCK_ELEMS // N**d
        times = np.geomspace(1e-3, 3.0, 2 * chunk + 1)
        symbols = [sym for k in orders for sym in _derivative_symbols(grid, k)]
        rows = _heat_norms(_SweepField(f), symbols, times, exponents)
        for row, p in zip(rows, exponents):
            assert np.array_equal(row, heat_norms_oracle(f, symbols, times, p))

    @pytest.mark.parametrize("orders", [(0,), (1,)])
    @pytest.mark.parametrize("p", [4.0, np.inf])
    @pytest.mark.parametrize("d", [2, 3])
    def test_high_modes_only_field_keeps_its_shell(self, d, p, orders):
        # one mode pair at max |k_i| = N/2 - 2: by t = 3 it has decayed by
        # e^-111, and a cut on t |xi|^2 alone would drop it and return 0;
        # the data-driven radius keeps its shell, prunes the rest of the
        # lattice and matches the unpruned oracle bit for bit
        grid = make_grid(d, 16, TWO_PI)
        mode = (grid.N // 2 - 2, 1) + (0,) * (d - 2)
        f = mode_pair_field(grid, mode, [1.0] + [0.5j] * (d - 1))
        times = np.geomspace(0.1, 3.0, 12)
        symbols = [sym for k in orders for sym in _derivative_symbols(grid, k)]
        field = _SweepField(f)
        (got,) = _heat_norms(field, symbols, times, (p,))
        assert np.all(got > 0.0)
        assert np.array_equal(got, heat_norms_oracle(f, symbols, times, p))
        assert field.pruned_transforms == times.size * len(symbols) * d

    def test_work_arrays_hold_one_component(self):
        # the sweep's transient memory at d=3 N=32 over heatflow's decay
        # grid, k = 0 and 1: one-component blocks of 3 times, the symbol
        # product formed in the block and the decay formed on the |xi|^2
        # shells and gathered into one buffer of the call read 2.52
        # times the whole-lattice field's bytes (2.24 with a kept decay
        # table, 2.51 with the decay formed on the whole half lattice);
        # with a separate symbol product and a fresh decay block per time
        # block they read 2.42 and 3.01, and all-component blocks of 4
        # times with whole-array checks 5.9. The blocks are physical-space
        # arrays, so the bound stays in the whole lattice's bytes, twice
        # those of the half-lattice field
        grid = make_grid(3, 32, TWO_PI)
        f = borderline_field(grid, 0.2, seed=3)
        times = default_decay_time_grid(grid, 1.0, 16)
        symbols = _derivative_symbols(grid, 0) + _derivative_symbols(grid, 1)
        first = _heat_norms(_SweepField(f), symbols, times, (np.inf,))  # builds the shell index
        again, peak = traced_peak(lambda: _heat_norms(_SweepField(f), symbols, times, (np.inf,)))
        assert np.array_equal(again, first)
        assert peak < 2.75 * (3 * 32**3 * 16)

    def test_tails_sweep_holds_no_table_of_every_time(self):
        # tails' sweep, d=2 N=64 over its 385 times, on a fresh grid: each
        # block's decay (24 times) is formed on the |xi|^2 shells and
        # gathered into one buffer of the call, so no 385 x 64*33 array
        # (6.2 MiB, the decay table once kept for the whole run) is built.
        # The first sweep, the shell index included, peaked at 3.15 MiB:
        # the block, the real block, msq and the decay block are 2.8 MiB
        grid = make_grid(2, 64, TWO_PI)
        f = borderline_field(grid, 0.2, seed=4)
        times = default_time_grid(1.0)
        symbols = [grid.kabs**0.0]
        _, peak = traced_peak(lambda: _heat_norms(_SweepField(f), symbols, times, (4.0,)))
        table = times.size * math.prod(grid.half_shape) * 8
        assert peak < 0.6 * table, peak

    @pytest.mark.parametrize("ncomp", ["scalar", "vector"])
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_refuses_nyquist_content(self, d, N, ncomp):
        # the contract is on the field, not on the symbols, the norm or the
        # times: Nyquist content is refused as the _SweepField is made,
        # before the sweep reads any of them or allocates a work array
        grid = make_grid(d, N, TWO_PI)
        nc = 1 if ncomp == "scalar" else d
        f = random_real_field(grid, nc, seed=21)
        with pytest.raises(ValueError, match="content on its Nyquist rows"):
            _SweepField(f)

    @pytest.mark.parametrize("flaw, message", [
        ("physical", "heat sweep data must be a fourier-space field"),
        ("complex", "not conjugate-symmetric"),
        ("nyquist", "content on its Nyquist rows"),
    ])
    def test_refuses_fields_outside_its_contract(self, grid2, monkeypatch, flaw, message):
        # the sweep runs on the half spectrum only: physical-space data,
        # non-real data, or real data with Nyquist content, is refused by
        # every caller with the message of _SweepField, before any sweep
        import nsrw.tails as tails
        from nsrw.diagnostics import condtg_check

        for module in (heat, tails):
            monkeypatch.setattr(module, "_heat_norms", _no_sweep)
        if flaw == "physical":
            f = transform(random_divfree_field(grid2, seed=25), "inverse")
        elif flaw == "complex":
            f = random_divfree_field(grid2, seed=25)
            f.data[:, 1, 0] *= 1j  # the mode (1, 0) without its mirror (-1, 0)
        else:
            f = random_real_field(grid2, 2, seed=25)
        spec = NormSpec(gamma=0.0, sigma=0.0, p=4.0, q=4.0, r=4.0, s=0.25, T=1.0)
        ts = np.geomspace(0.01, 1.0, 8)
        for check in (lambda: space_time_norm(f, spec),
                      lambda: check_linear_estimates(f, 0.25, 0, ts),
                      lambda: condg_check(f, 0.25, ts),
                      lambda: condtg_check(f, 0.25, -0.1, 1.0)):
            with pytest.raises(ValueError, match=message):
                check()

    # one all-ones symbol, the d symbols of k = 1, and both; a one-component
    # field sums no second component; at L = 5 rounding splits modes of
    # equal integer |k|^2 into separate |xi|^2 shells
    @pytest.mark.parametrize("L", [TWO_PI, 5.0])
    @pytest.mark.parametrize("ncomp", ["scalar", "vector"])
    @pytest.mark.parametrize("orders", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_shell_masses_match_a_straightforward_bincount(self, d, orders, ncomp, L,
                                                           monkeypatch):
        # both shell masses scale one sum of |a_c|^2 over the components:
        # the |xi|^2 shells' by the Parseval weights, the box shells' (which
        # _block_radii reads) by the sum of |symbol|^2, bit for bit those
        # of the summed stack
        grid = make_grid(d, 16, L)
        f = zero_nyquist(random_real_field(grid, 1 if ncomp == "scalar" else d, seed=23))
        symbols = [sym for k in orders for sym in _derivative_symbols(grid, k)]
        coeff_sq = np.sum(np.abs(f.data) ** 2, axis=0)
        sym_sq = sum(np.abs(np.broadcast_to(sym, grid.half_shape)) ** 2 for sym in symbols)
        shells, index = grid.ksq_shells
        seen = []
        block_radii = heat._block_radii
        monkeypatch.setattr(heat, "_block_radii",
                            lambda mass, *a: seen.append(mass) or block_radii(mass, *a))
        field = _SweepField(f)
        _heat_norms(field, symbols, np.geomspace(1e-3, 1.0, 4), (np.inf,))
        assert np.array_equal(field.ksq_shells[0], shells)
        assert np.array_equal(field.ksq_shells[1],
                              np.bincount(index.ravel(), weights=(coeff_sq * grid.weight).ravel()))
        assert np.array_equal(seen[0], np.bincount(grid.box_radius().ravel(),
                                                   weights=(coeff_sq * sym_sq).ravel(),
                                                   minlength=grid.N // 2 + 1))


class TestCondg:
    def test_zero_field_all_zero(self, grid2):
        from nsrw.spectral import zeros_field

        rep = condg_check(zeros_field(grid2, 2), 0.25, np.geomspace(0.01, 1, 10))
        assert rep.sup_l2 == 0.0 and rep.sup_linf[0] == 0.0 and rep.sup_linf[1] == 0.0

    def test_single_mode_ratios_decay_past_diffusion_time(self, grid2):
        f = mode_pair_field(grid2, (2, 0), [0.0, 1.0])  # |xi|^2 = 4
        ts = np.geomspace(0.3, 3.0, 12)  # all past 1/|xi|^2
        rep = condg_check(f, 0.25, ts)
        assert np.all(np.isfinite(rep.l2_ratios))
        assert np.all(np.diff(rep.l2_ratios) < 0)
        for k in (0, 1):
            assert np.all(np.diff(rep.linf_ratios[k]) < 0)

    def test_refuses_repeated_times_before_any_sweep(self, grid2, monkeypatch):
        # a repeated time once gave a duplicated ratio
        for name in ("_heat_norms", "_l2_over_times"):
            monkeypatch.setattr(heat, name, _no_sweep)
        f = random_divfree_field(grid2, seed=6)
        with pytest.raises(ValueError, match="must not repeat; 0.5 does"):
            condg_check(f, 0.25, np.array([0.1, 0.5, 0.5, 1.0]))

    def test_refinement_stability(self):
        # same continuum data truncated at N and 2N: suprema within 10%
        coarse = make_grid(2, 32, TWO_PI)
        fine = make_grid(2, 64, TWO_PI)
        t_grid = np.geomspace(small_time_window(coarse)[0], 1.0, 40)
        sups = {}
        for g in (coarse, fine):
            f = borderline_field(g, 0.25, seed=9, normalize=False)
            rep = condg_check(f, 0.25, t_grid)
            sups[g.N] = np.array([rep.sup_l2, rep.sup_linf[0], rep.sup_linf[1]])
        rel = np.abs(sups[64] - sups[32]) / sups[64]
        assert rel.max() < 0.10
