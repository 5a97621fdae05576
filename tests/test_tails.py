import math
import struct

import numpy as np
import pytest

from conftest import TWO_PI, mode_pair_field, monte_carlo_tails, power_law_cells_oracle
from nsrw import tails
from nsrw.data import borderline_field
from nsrw.randomization import RandomModel
from nsrw.spectral import Grid, l2_norm, make_grid, transform, zeros_field
from nsrw.tails import (
    NormSpec,
    check_admissible,
    fit_gaussian_tail,
    moment_bound_check,
    sample_space_time_norms,
    space_time_norm,
)


def spec_with(**kw):
    base = dict(gamma=0.0, sigma=0.0, p=4.0, q=4.0, r=4.0, s=0.25, T=1.0)
    base.update(kw)
    return NormSpec(**base)


class TestAdmissible:
    def test_arithmetic_cases(self):
        assert check_admissible(spec_with(sigma=0.0, s=0.25, gamma=0.0, q=4)) is True
        assert check_admissible(spec_with(sigma=0.5, s=0.25, gamma=0.0, q=4)) is False
        assert check_admissible(spec_with(sigma=0.5, s=0.25, gamma=-0.1, q=4)) is False
        assert check_admissible(spec_with(sigma=0.5, s=0.25, gamma=0.2, q=4)) is True

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_spec_refuses_a_horizon_that_is_not_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            spec_with(T=T)

    def test_exponent_ordering(self):
        assert check_admissible(spec_with(p=2.0, q=4.0)) is False  # p < q
        assert check_admissible(spec_with(r=3.0, p=4.0)) is False  # r < p
        assert check_admissible(spec_with(q=1.0, p=4.0)) is False  # q < 2

    @pytest.mark.parametrize("q", [2.0, 8.0 / 3.0, 4.0, 8.0])
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5])
    def test_admissible_exponents_keep_the_time_weight_integrable(self, sigma, s, q):
        # (sigma + s - 2 gamma) q < 2 with sigma, s >= 0 and q >= 2 gives
        # gamma q > -1 in float64 too: no admissible spec has a divergent
        # t^{q gamma} weight, at gamma = -1/q or an ulp or more either side
        edge = -1.0 / q
        gammas = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, -1.0),
                  *(edge + step for step in (-1e-3, -1e-9, 1e-9, 1e-3, 0.1))]
        admissible = 0
        for gamma in gammas:
            spec = spec_with(sigma=sigma, s=s, gamma=gamma, q=q, p=q, r=q)
            if check_admissible(spec):
                admissible += 1
                assert gamma * q > -1.0, gamma
        if sigma == s == 0.0:
            # there the rule is gamma q > -1 itself: the gammas above the
            # edge by 1e-9 or more are admitted
            assert admissible >= 3

    def test_refusal_message(self):
        spec = spec_with(sigma=0.5, s=0.25, gamma=-0.1, q=4.0)
        assert tails._inadmissible(spec) == (
            "inadmissible exponents: need (sigma + s - 2*gamma)*q < 2 and r >= p >= q >= 2, "
            "got (0.5 + 0.25 - 2*-0.1)*4.0 = 3.8, r=4.0, p=4.0")
        assert tails._inadmissible(spec_with()) is None


class TestSpaceTimeNorm:
    def test_zero_field(self, grid2):
        spec = spec_with(p=2.0, q=2.0, r=2.0)
        assert space_time_norm(zeros_field(grid2, 2), spec) == 0.0

    def test_hermitian_pair_closed_form(self, grid2):
        # sigma=0, gamma=0, p=q=2: time integral of e^{-2t|xi|^2} is exact
        f = zeros_field(grid2, 2)
        f.data[0, 2, 1] = 0.5 - 0.25j  # the mode (2, 1) and its mirror
        spec = spec_with(p=2.0, q=2.0, r=2.0, T=1.0)
        got = space_time_norm(f, spec)
        amp = l2_norm(f)
        want = amp * np.sqrt((1.0 - np.exp(-10.0)) / 10.0)
        assert abs(got - want) < 1e-3 * want

    def test_homogeneity(self, grid2):
        f = borderline_field(grid2, 0.25, seed=1)
        spec = spec_with()
        v1 = space_time_norm(f, spec)
        v2 = space_time_norm(2.0 * f, spec)
        assert abs(v2 - 2.0 * v1) < 1e-12 * v2

    def test_grid_refinement_stable(self, grid2, monkeypatch):
        # the program's own quadrature on its grid (64 per decade) and on one
        # twice as dense
        f = borderline_field(grid2, 0.25, seed=2)
        spec = spec_with()
        assert np.array_equal(tails.default_time_grid(1.0), np.geomspace(1e-6, 1.0, 385))
        norms = {}
        for per_decade in (64, 128):
            monkeypatch.setattr(tails, "default_time_grid", lambda T, n=per_decade:
                                np.geomspace(T * 1e-6, T, 6 * n + 1))
            norms[per_decade] = space_time_norm(f, spec)
        assert abs(norms[128] - norms[64]) / norms[128] < 0.01

    def test_rejects_inadmissible(self, grid2):
        # each with the one refusal message, before the field is checked
        f = borderline_field(grid2, 0.25, seed=3)
        for spec in (spec_with(sigma=0.5),
                     spec_with(gamma=-0.5, q=2.0, p=2.0, r=2.0, s=0.0),
                     spec_with(p=2.0, q=4.0)):
            refusal = tails._inadmissible(spec)
            assert refusal.startswith("inadmissible exponents: ")
            with pytest.raises(ValueError) as exc:
                space_time_norm(f, spec)
            assert str(exc.value) == refusal
            with pytest.raises(ValueError) as exc:
                space_time_norm(transform(f, "inverse"), spec)
            assert str(exc.value) == refusal

    def test_weighted_sample_checks_its_field_once(self, grid2, monkeypatch):
        # sigma != 0: the raw field is checked, and the weighted field, real
        # and zero on its Nyquist rows by construction, is not checked again
        calls = []
        asymmetry = Grid.plane_asymmetry
        monkeypatch.setattr(Grid, "plane_asymmetry",
                            lambda self, h: calls.append(h.shape) or asymmetry(self, h))
        f = borderline_field(grid2, 0.25, seed=4)
        spec = spec_with(sigma=0.5, gamma=0.3)
        (value,) = sample_space_time_norms(f, RandomModel("gaussian", 9), spec, 1)
        assert len(calls) == 1
        assert value > 0.0

    def test_sigma_weight_applied(self, grid2):
        # single mode: (-Laplacian)^{sigma/2} multiplies by |xi|^sigma
        f = mode_pair_field(grid2, (2, 0), [1.0, 0.0])  # |xi| = 2
        s1 = spec_with(p=2.0, q=2.0, r=2.0, sigma=0.0, gamma=0.3)
        s2 = spec_with(p=2.0, q=2.0, r=2.0, sigma=1.0, gamma=0.8)
        v0 = space_time_norm(f, s1)
        v1 = space_time_norm(f, NormSpec(0.3, 1.0, 2.0, 2.0, 2.0, 0.25, 1.0))
        assert abs(v1 - 2.0 * v0) < 1e-10 * v1


def _quadrature(fn, times, F):
    """fn(times, F) as the bytes of its float64 value, or its ValueError's
    message."""
    try:
        return struct.pack("<d", fn(times, F))
    except ValueError as exc:
        return str(exc)


class TestPowerLawCells:
    """tails._power_law_cells gives the bits of the float64-scalar loop
    (conftest.power_law_cells_oracle) on every kind of cell."""

    TIMES = tails.default_time_grid(0.75)

    def check(self, F):
        # the scalars warn where an overflow or a NaN arises; the values stand
        with np.errstate(all="ignore"):
            expected = _quadrature(power_law_cells_oracle, self.TIMES, F)
        assert _quadrature(tails._power_law_cells, self.TIMES, F) == expected
        return expected

    def test_random_integrands(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            F = (self.TIMES ** rng.uniform(-0.95, 3.0) * rng.uniform(1e-3, 1e3)
                 * np.exp(rng.normal(0.0, 0.5, self.TIMES.size)))
            # an integrable head, so that every integrand reaches the cells
            F[0] = F[1] * (self.TIMES[0] / self.TIMES[1]) ** 0.5
            assert isinstance(self.check(F), bytes)

    def test_zero_cells(self):
        rng = np.random.default_rng(12)
        for first in (0, 1, 2, 50):
            F = self.TIMES ** 0.5 * rng.uniform(0.5, 2.0, self.TIMES.size)
            F[first] = 0.0
            F[rng.integers(0, self.TIMES.size, 20)] = 0.0
            self.check(F)
        self.check(np.zeros(self.TIMES.size))

    def test_cells_of_slope_minus_one(self):
        # |beta + 1| < 1e-8 takes the log branch, on either side of -1; the
        # head cell keeps an integrable slope
        rng = np.random.default_rng(13)
        for _ in range(20):
            F = self.TIMES ** (-1.0 + rng.uniform(-5e-9, 5e-9, self.TIMES.size))
            F[0] = F[1] * (self.TIMES[0] / self.TIMES[1]) ** 0.5
            self.check(F)

    def test_non_integrable_head_refused(self):
        for slope in (-1.0, -1.0 + 5e-10, -2.0):
            assert self.check(self.TIMES ** slope) == (
                "space-time integrand is non-integrable near t = 0")

    def test_overflowing_and_nan_cells(self):
        # a finite ratio whose power overflows: rho^(beta + 1) = 1.75e308 rho
        F = np.ones(self.TIMES.size)
        F[7] = 1.75e308
        assert self.check(F) == struct.pack("<d", math.inf)
        F = np.ones(self.TIMES.size)
        F[40] = math.nan
        assert math.isnan(struct.unpack("<d", self.check(F))[0])


class TestSampling:
    def test_zero_data_all_zero_norms(self, grid2):
        model = RandomModel("gaussian", 4)
        vals = sample_space_time_norms(zeros_field(grid2, 2), model, spec_with(), 4)
        assert np.all(vals == 0.0)

    def test_worker_count_invariance(self, grid2):
        f = borderline_field(grid2, 0.25, seed=5)
        model = RandomModel("gaussian", 11)
        a = sample_space_time_norms(f, model, spec_with(), 16, workers=1)
        b = sample_space_time_norms(f, model, spec_with(), 16, workers=2)
        assert np.array_equal(a, b)


class TestTailFit:
    def test_recovers_synthetic_exponent(self):
        # samples with exact tail P(X > l) = C1 exp(-C2 l^2)
        C1, C2, M = 2.0, 3.0, 5000
        rng = np.random.default_rng(6)
        u = rng.uniform(size=M)
        x = np.sqrt(np.maximum(np.log(C1 / u), 0.0) / C2)
        fit = fit_gaussian_tail(x, hnorm=1.0)
        assert abs(fit.C2 - C2) / C2 < 0.15
        assert abs(np.log(fit.C1) - np.log(C1)) < 0.4
        assert fit.r_squared > 0.98

    def test_monotone_probabilities(self):
        rng = np.random.default_rng(7)
        fit = fit_gaussian_tail(rng.standard_normal(500) ** 2, hnorm=1.0)
        assert np.all(np.diff(fit.empirical_prob) <= 0)
        assert fit.empirical_prob.min() >= 0.0 and fit.empirical_prob.max() <= 1.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_gaussian_tail(np.ones(300), hnorm=1.0)  # identical samples
        with pytest.raises(ValueError):
            fit_gaussian_tail(np.arange(100.0), hnorm=1.0)  # too few samples
        # the median equals the 99.5% quantile: the lambda grid is one point
        with pytest.raises(ValueError, match="degenerate lambda grid"):
            fit_gaussian_tail(np.r_[np.ones(299), 2.0], hnorm=1.0)

    def test_monte_carlo_fit_gaussian_family(self):
        grid = make_grid(2, 32, TWO_PI)
        f = borderline_field(grid, 0.25, seed=9)
        fit = monte_carlo_tails(f, RandomModel("gaussian", 1000), spec_with(), 1000, workers=2)
        assert fit.C2 > 0
        assert fit.r_squared >= 0.95
        refit = monte_carlo_tails(f, RandomModel("gaussian", 777), spec_with(), 1000, workers=2)
        assert abs(refit.C2 - fit.C2) / fit.C2 < 0.25

    def test_monte_carlo_fit_rademacher_family(self):
        # sign-only randomization concentrates far more tightly: the
        # quadratic-tail form still fits with a (much) larger exponent
        grid = make_grid(2, 32, TWO_PI)
        f = borderline_field(grid, 0.25, seed=9)
        gauss = monte_carlo_tails(f, RandomModel("gaussian", 1000), spec_with(), 1000, workers=2)
        rade = monte_carlo_tails(f, RandomModel("rademacher", 1000), spec_with(), 1000, workers=2)
        assert rade.C2 > 0
        assert rade.r_squared >= 0.9
        assert rade.C2 >= gauss.C2


class TestMomentBound:
    def test_zero_field(self, grid2):
        assert moment_bound_check(zeros_field(grid2, 2), RandomModel("gaussian", 1), spec_with(), M=200) == 0.0

    def test_scaling_invariance(self, grid2):
        f = borderline_field(grid2, 0.25, seed=10)
        model = RandomModel("gaussian", 12)
        r1 = moment_bound_check(f, model, spec_with(), M=200)
        r2 = moment_bound_check(2.0 * f, model, spec_with(), M=200)
        assert abs(r1 - r2) < 1e-12 * r1

    def test_stability_under_doubling(self, grid2):
        f = borderline_field(grid2, 0.25, seed=11)
        model = RandomModel("gaussian", 13)
        r1 = moment_bound_check(f, model, spec_with(), M=400)
        r2 = moment_bound_check(f, model, spec_with(), M=800)
        assert abs(r2 - r1) / r1 < 0.15

    def test_sqrt_r_growth(self, grid2):
        # moment growth in r stays below the sqrt(r) envelope with margin;
        # oracle: absolute moments of a scalar gaussian obey the same law
        f = borderline_field(grid2, 0.25, seed=12)
        model = RandomModel("gaussian", 14)
        m2ratio = moment_bound_check(f, model, spec_with(p=2.0, q=2.0, r=2.0), M=400)
        m8ratio = moment_bound_check(f, model, spec_with(p=2.0, q=2.0, r=8.0), M=400)
        cap = np.sqrt(8.0 / 2.0) * 1.5
        assert m8ratio / m2ratio <= cap
        rng = np.random.default_rng(15)
        z = np.abs(rng.standard_normal(100_000))
        surrogate = np.mean(z**8.0) ** (1 / 8.0) / np.mean(z**2.0) ** 0.5
        assert surrogate <= cap
        assert m8ratio / m2ratio <= surrogate * 1.5


class TestBandPruningBits:
    def test_tails_draws_bitwise_equal_pruned_and_whole(self, monkeypatch):
        # band pruning moves a norm by at most one rounding, which can flip
        # its last bit; at the shipped block size the first 20 draws of
        # tails' d=2 N=64 run at seed 20260810 come out the same, bit for
        # bit, pruned and on the whole lattice, as its byte-identical
        # outputs need
        import nsrw.heat as heat
        from nsrw.config import ExperimentConfig, validate_config
        from nsrw.experiments import build_data_field
        from nsrw.randomization import randomized

        cfg = validate_config(ExperimentConfig(experiment="tails", d=2, N=64,
                                               master_seed=20260810))
        _, f = build_data_field(cfg)
        model, spec = cfg.random_model(), cfg.norm_spec()
        radii = heat._block_radii
        pruned = []

        def recording(mass, grid, t_first, t_last):
            k = radii(mass, grid, t_first, t_last)
            pruned.append(np.any(k < grid.N // 2 - 1))
            return k

        def whole(mass, grid, t_first, t_last):
            return np.full(t_first.shape, grid.N // 2)

        norms = []
        for rule in (recording, whole):
            monkeypatch.setattr(heat, "_block_radii", rule)
            norms.append([space_time_norm(randomized(f, model, i), spec) for i in range(20)])
        assert all(pruned) and len(pruned) == 20
        assert norms[0] == norms[1]
