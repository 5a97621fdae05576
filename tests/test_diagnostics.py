import numpy as np
import pytest

from conftest import (
    TWO_PI,
    FullLattice,
    cut,
    full_spectrum,
    band_field,
    random_real_field,
    shear_field,
    solve_collecting,
    traced_peak,
    transport,
    transport_oracle,
)
from nsrw.data import borderline_field, smooth_random_field, taylor_green
from nsrw.diagnostics import _ResidualPair, condtg_check, dwdt_norm, nse_residual
from nsrw.heat import heat_semigroup
from nsrw.randomization import RandomModel, randomize, sample_coefficients
from nsrw.solver import SolverConfig, solve, time_partition
from nsrw.spectral import (
    TransportPlan,
    fourier_field,
    l2_norm,
    make_grid,
    projected_transport_half,
    ring_partition,
    transform,
    zeros_field,
)
from nsrw.tails import NormSpec, space_time_norm


def randomized_borderline(d, N, seed):
    g = make_grid(d, N, TWO_PI)
    f = borderline_field(g, 0.25 if d == 2 else 0.2, seed=seed)
    part = ring_partition(g)
    return randomize(
        f, sample_coefficients(RandomModel("gaussian", seed), part.max_ring, 0), part
    )


def full_lattice_residual_oracle(times, u_states):
    """The residual assembled on the full lattice: midpoint, difference
    quotient and transport of every snapshot pair, summed over all modes
    of the whole spectra."""
    grid = u_states[0].grid
    vol = grid.cell_volume
    ksq = FullLattice(grid).ksq
    weight = 1.0 / (1.0 + ksq)
    mids, vals = [], []
    for j in range(len(times) - 1):
        h = times[j + 1] - times[j]
        u1, u2 = (full_spectrum(u.data, grid) for u in u_states[j : j + 2])
        um = 0.5 * (u1 + u2)
        um_field = fourier_field(grid, cut(um, grid))
        resid = (u2 - u1) / h + ksq * um + full_spectrum(transport(um_field), grid)
        mids.append(times[j] + 0.5 * h)
        vals.append(np.sqrt(vol * np.sum(weight * np.abs(resid) ** 2)))
    return np.array(mids), np.array(vals)


class TestEnergy:
    """The solver's per-step EnergyLog, the package's one energy ledger."""

    def test_zero_trajectory(self, grid2):
        cfg = SolverConfig(cutoff=4.0, T=1.0, dt=1.0 / 64.0)
        log = solve(cfg, zeros_field(grid2, 2)).energy_log
        assert np.all(log.kinetic == 0.0)
        assert np.all(log.dissipation_cum == 0.0)
        assert np.all(log.pairing_abs_cum == 0.0)
        assert log.energy_sup() == 0.0

    def test_heat_flow_balance(self, grid2):
        # zero data and a shear state: no transport, so the run is heat flow,
        # and mode-wise e^{-2t|xi|^2} + 2|xi|^2 int_0^t e^{-2tau|xi|^2} = 1:
        # kinetic + 2*dissipation is conserved
        w0 = shear_field(grid2, 4.0, seed=3)
        cfg = SolverConfig(cutoff=4.0, T=1.0, dt=1.0 / 128.0)
        # start the heat flow at w0 through the resume entry point
        traj = solve(cfg, zeros_field(grid2, 2), resume_band=w0.data,
                     resume_time=0.0)
        log = traj.energy_log
        base = l2_norm(w0) ** 2
        assert log.kinetic[0] == pytest.approx(base, rel=1e-14)
        balance = log.kinetic + 2.0 * log.dissipation_cum
        assert np.abs(balance - base).max() <= 1e-6 * base
        # no forcing, and the transport is rounding noise, which pairs with w
        # only once it has leaked into w: second order in rounding
        assert log.pairing_abs_cum.max() <= np.finfo(float).eps ** 2 * base

    def test_dissipation_nondecreasing_on_solver_run(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=1, band=2)
        cfg = SolverConfig(cutoff=8.0, T=0.5, dt=1.0 / 128.0, substep_near_zero=False)
        log = solve(cfg, f).energy_log
        assert np.all(np.diff(log.dissipation_cum) >= 0)
        assert np.all(np.isfinite(log.kinetic + log.dissipation_cum))


class TestDwdt:
    def test_zero_everything(self, grid2):
        # zero data and zero snapshots, each a whole half spectrum (the
        # band array of radius N/2), no solver involved
        cfg = SolverConfig(cutoff=4.0, T=0.5, dt=1e-2)
        zero = zeros_field(grid2, 2)
        rep = dwdt_norm(zero, cfg, ((t, zero.data) for t in np.linspace(0.0, 0.5, 32)))
        assert rep.times.size == 32 and rep.time_norm == 0.0

    def test_single_mode_hand_value(self, grid2):
        # w a conjugate mode pair, g = 0: the transport term of a single
        # divergence-free mode vanishes, so dw/dt = laplacian(w) and its
        # H^{-1} size is |xi|^2 / (1+|xi|^2)^{1/2} * |w|_L2
        w = zeros_field(grid2, 2)
        amp = 0.3
        w.data[0, 0, 2] = amp  # xi = (0, 2) and its mirror, vector e_1 is transverse
        cfg = SolverConfig(cutoff=4.0, T=0.1, dt=1e-2)
        rep = dwdt_norm(zeros_field(grid2, 2), cfg, [(0.0, w.data), (0.1, w.data)])
        ksq = 4.0
        want = ksq / np.sqrt(1.0 + ksq) * l2_norm(w)
        assert abs(rep.values[0] - want) <= 1e-8 * want

    def test_band_arrays_and_whole_half_spectra_agree(self, grid2_mid):
        # a snapshot as solve hands it out and the same snapshot scattered
        # to a whole half spectrum (the band of radius N/2) give one report
        f = smooth_random_field(grid2_mid, seed=9, band=2)
        cfg = SolverConfig(cutoff=8.0, T=6.0 / 128.0, dt=1.0 / 128.0,
                           substep_near_zero=False, snapshot_cadence=2)
        _, snapshots = solve_collecting(cfg, f)
        bands = dwdt_norm(f, cfg, snapshots)
        whole = dwdt_norm(f, cfg, [(t, grid2_mid.scatter(w)) for t, w in snapshots])
        np.testing.assert_array_equal(whole.times, bands.times)
        np.testing.assert_allclose(whole.values, bands.values, rtol=1e-13, atol=0.0)

    def test_consumes_a_one_shot_generator(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=12, band=2)
        cfg = SolverConfig(cutoff=8.0, T=4.0 / 128.0, dt=1.0 / 128.0,
                           substep_near_zero=False, snapshot_cadence=1)
        _, snapshots = solve_collecting(cfg, f)
        listed = dwdt_norm(f, cfg, snapshots)
        streamed = dwdt_norm(f, cfg, (pair for pair in snapshots))
        np.testing.assert_array_equal(streamed.times, listed.times)
        np.testing.assert_array_equal(streamed.values, listed.values)
        assert streamed.time_norm == listed.time_norm

    def test_randomized_run_stable_under_cadence(self):
        g = make_grid(2, 32, TWO_PI)
        f = borderline_field(g, 0.25, seed=2)
        part = ring_partition(g)
        f_om = randomize(
            f, sample_coefficients(RandomModel("gaussian", 5), part.max_ring, 0), part
        )

        def run(cadence):
            cfg = SolverConfig(cutoff=8.0, T=0.5, dt=1.0 / 256.0, snapshot_cadence=cadence)
            _, snapshots = solve_collecting(cfg, f_om)
            return dwdt_norm(f_om, cfg, snapshots).time_norm

        a, b = run(8), run(4)
        assert np.isfinite(a) and a > 0
        assert abs(a - b) / b < 0.15


class TestRecordedDwdt:
    """solve records |dw/dt|_{H^-1} off its stage-0 right-hand side;
    dwdt_norm recomputes it from the snapshots and is the reference."""

    @staticmethod
    def config(d, **kw):
        base = dict(cutoff=8.0 if d == 2 else 5.0, T=0.1, dt=1.0 / 128.0)
        base.update(kw)
        return SolverConfig(**base)

    @pytest.mark.parametrize("integrator", ["ifrk4", "ifeuler"])
    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_matches_reference(self, d, N, cadence, integrator):
        cfg = self.config(d, snapshot_cadence=cadence, integrator=integrator)
        steps = time_partition(cfg.T, cfg.dt, cfg.substep_near_zero).size - 1
        assert steps % 3 != 0  # at cadence 3 the last snapshot is off cadence
        f = randomized_borderline(d, N, seed=21)
        traj, snapshots = solve_collecting(cfg, f)
        ref = dwdt_norm(f, cfg, snapshots)
        assert np.array_equal(ref.times, traj.times) and ref.values.min() > 0
        np.testing.assert_allclose(traj.dwdt_hminus1, ref.values, rtol=1e-12, atol=0)

    def test_matches_reference_after_resume(self):
        cfg = self.config(3, snapshot_cadence=4)
        f = randomized_borderline(3, 16, seed=22)
        full, snapshots = solve_collecting(cfg, f)
        j = 3
        t_j, w_j = snapshots[j]
        part, resumed = solve_collecting(cfg, f, resume_band=w_j, resume_time=t_j)
        ref = dwdt_norm(f, cfg, resumed)
        np.testing.assert_allclose(part.dwdt_hminus1, ref.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            part.dwdt_hminus1[0], full.dwdt_hminus1[j], rtol=1e-12, atol=0
        )

    def test_transport_free_run_is_heat_term_only(self, grid2_mid):
        # zero data and a shear state carry no transport, so dw/dt =
        # laplacian(w), whose H^{-1} size is |xi|^2 / (1+|xi|^2)^{1/2} mode
        # by mode
        cfg = self.config(2, snapshot_cadence=5)
        w0 = shear_field(grid2_mid, cfg.cutoff, seed=23)
        zero = zeros_field(grid2_mid, 2)
        traj, snapshots = solve_collecting(cfg, zero, resume_band=w0.data, resume_time=0.0)
        ref = dwdt_norm(zero, cfg, snapshots)
        ksq = grid2_mid.ksq
        weight = grid2_mid.weight
        heat = np.array([
            np.sqrt(grid2_mid.cell_volume
                    * np.sum(weight * ksq**2 / (1.0 + ksq)
                             * np.abs(band_field(grid2_mid, w).data) ** 2))
            for _, w in snapshots
        ])
        np.testing.assert_allclose(traj.dwdt_hminus1, ref.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ref.values, heat, rtol=1e-12, atol=0)


class TestCondtg:
    def test_zero_field(self, grid2):
        rep = condtg_check(zeros_field(grid2, 2), s=0.25, gamma=-0.1, T=1.0)
        assert rep.lam == 0.0

    def test_single_mode_closed_form(self, grid2):
        # d=2: lambda = |t^gamma g|_{L4 L4}; for one conjugate pair the
        # space factor is constant in t, so the time integral is exact
        w = zeros_field(grid2, 2)
        w.data[0, 0, 3] = 0.5  # the mode (0, 3) and its mirror
        gamma, T, ksq = -0.05, 1.0, 9.0
        rep = condtg_check(w, s=0.25, gamma=gamma, T=T)
        phys = np.fft.irfftn(w.data[0], s=grid2.shape, axes=(0, 1), norm="ortho")
        space = (grid2.cell_volume * np.sum(np.abs(phys * grid2.N) ** 4)) ** 0.25 / grid2.N
        from scipy.integrate import quad

        tint, _ = quad(lambda t: t ** (4 * gamma) * np.exp(-4 * t * ksq), 0.0, T)
        want = space * tint**0.25
        assert abs(rep.lam - want) <= 1e-3 * want

    def test_homogeneous_degree_one(self, grid2):
        f = borderline_field(grid2, 0.25, seed=3)
        a = condtg_check(f, 0.25, -0.1, 1.0).lam
        b = condtg_check(2.0 * f, 0.25, -0.1, 1.0).lam
        assert abs(b - 2.0 * a) <= 1e-10 * b

    def test_d3_components_and_sum(self, grid3):
        f = borderline_field(grid3, 0.2, seed=4)
        rep = condtg_check(f, s=0.2, gamma=-0.01, T=0.5)
        assert set(rep.components) == {"L2_L6_bracket", "L83_L83_bracket", "L8_L8"}
        assert rep.lam == pytest.approx(sum(rep.components.values()))

    def test_rejects_bad_exponents(self, grid2, grid3):
        f2 = borderline_field(grid2, 0.25, seed=5)
        with pytest.raises(ValueError):
            condtg_check(f2, 0.25, gamma=0.0, T=1.0)  # gamma must be < 0
        with pytest.raises(ValueError):
            condtg_check(f2, 0.25, gamma=-0.2, T=1.0)  # (s - 2g)*4 >= 2
        f3 = borderline_field(grid3, 0.2, seed=6)
        with pytest.raises(ValueError):
            condtg_check(f3, 0.2, gamma=-0.1, T=1.0)  # s - 2g >= 1/4

    def test_refuses_a_physical_field_alike_at_d2_and_d3(self, grid2, grid3):
        # the space is checked before d=3 forms its bracket field on the
        # half lattice, so both dimensions give the sweep's refusal
        for grid, s, gamma in ((grid2, 0.25, -0.1), (grid3, 0.2, -0.01)):
            phys = transform(borderline_field(grid, s, seed=9), "inverse")
            with pytest.raises(ValueError, match="^heat sweep data must be a fourier-space "
                                                 "field$"):
                condtg_check(phys, s, gamma, 0.5)

    def test_3d_bracket_norms_share_one_sweep(self, grid3, monkeypatch):
        # the two bracket norms reduce one heat sweep of the bracket field,
        # with the bits of a separate space_time_norm per exponent
        import nsrw.tails as tails

        f = borderline_field(grid3, 0.2, seed=8)
        s, gamma, T = 0.2, -0.02, 0.5
        sweeps = []
        heat_norms = tails._heat_norms
        monkeypatch.setattr(tails, "_heat_norms",
                            lambda *a: sweeps.append(a[3]) or heat_norms(*a))
        rep = condtg_check(f, s, gamma, T)
        assert sweeps == [(6.0, 8.0 / 3.0), (8.0,)]
        bracket = fourier_field(grid3, f.data * (1.0 + grid3.kabs**0.5))
        for name, fld, p, q in (("L2_L6_bracket", bracket, 6.0, 2.0),
                                ("L83_L83_bracket", bracket, 8.0 / 3.0, 8.0 / 3.0),
                                ("L8_L8", f, 8.0, 8.0)):
            spec = NormSpec(gamma=gamma, sigma=0.0, p=p, q=q, r=p, s=s, T=T)
            assert rep.components[name] == space_time_norm(fld, spec)

    def test_matches_space_time_norm_2d(self, grid2):
        f = borderline_field(grid2, 0.25, seed=7)
        rep = condtg_check(f, 0.25, -0.1, 1.0)
        spec = NormSpec(gamma=-0.1, sigma=0.0, p=4.0, q=4.0, r=4.0, s=0.25, T=1.0)
        assert rep.lam == pytest.approx(space_time_norm(f, spec))


class TestNseResidual:
    def taylor_green_states(self, grid, times):
        f = taylor_green(grid)
        return [heat_semigroup(f, float(t)).data for t in times]

    def test_taylor_green_second_order(self):
        g = make_grid(2, 32, TWO_PI)
        for h, bound in ((0.02, None), (0.01, None)):
            times = np.arange(0.0, 0.2 + h / 2, h)
            mids, vals = nse_residual(g, times, self.taylor_green_states(g, times))
            if bound is None:
                bound = vals
        # halving h drops the residual about 4x
        times_h = np.arange(0.0, 0.2 + 0.01, 0.02)
        times_h2 = np.arange(0.0, 0.2 + 0.005, 0.01)
        _, r_h = nse_residual(g, times_h, self.taylor_green_states(g, times_h))
        _, r_h2 = nse_residual(g, times_h2, self.taylor_green_states(g, times_h2))
        ratio = r_h.max() / r_h2.max()
        assert 2.5 < ratio < 6.0

    def test_heat_only_residual_small(self, grid2):
        w0 = zeros_field(grid2, 2)
        w0.data[1, 1, 0] = 1.0
        w0.data[1, -1, 0] = 1.0
        h = 0.01
        times = np.arange(0.0, 0.1 + h / 2, h)
        states = [heat_semigroup(w0, float(t)).data for t in times]
        mids, vals = nse_residual(grid2, times, states)
        # the shear flow (0, cos x) e^{-t} has no transport, so this is the
        # pure finite-difference error of e^{-t}: O(h^2)
        assert vals.max() < 1e-3

    def test_requires_two_snapshots(self, grid2):
        with pytest.raises(ValueError):
            nse_residual(grid2, np.array([0.0]), [zeros_field(grid2, 2).data])

    def test_requires_a_state_per_time(self, grid2):
        with pytest.raises(ValueError, match="2 states for 3 times"):
            nse_residual(grid2, np.array([0.0, 0.1, 0.2]),
                         [zeros_field(grid2, 2).data] * 2)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_half_spectrum_matches_full_lattice_oracle(self, d, N):
        # real fields with Nyquist content on every axis, uneven spacing
        grid = make_grid(d, N, TWO_PI)
        times = np.array([0.0, 0.01, 0.025, 0.03, 0.05])
        states = [random_real_field(grid, seed=50 + j) for j in range(times.size)]
        assert np.abs(states[0].data * grid.nyquist_mask).max() > 0
        halves = [u.data for u in states]
        mids, vals = nse_residual(grid, times, halves)
        want_mids, want = full_lattice_residual_oracle(times, states)
        np.testing.assert_array_equal(mids, want_mids)
        np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 24)])
    def test_bitwise_equal_to_plain_expressions(self, d, N):
        # the plain half-lattice expressions with fresh arrays and the
        # unpruned kernel; Nyquist content on every axis, uneven spacing
        grid = make_grid(d, N, TWO_PI)
        times = np.array([0.0, 0.01, 0.025, 0.03])
        halves = [random_real_field(grid, seed=70 + j).data for j in range(4)]
        weight = grid.weight / (1.0 + grid.ksq)
        want = []
        for j in range(times.size - 1):
            prev, cur = halves[j], halves[j + 1]
            h = times[j + 1] - times[j]
            um = 0.5 * (prev + cur)
            resid = (cur - prev) / h + grid.ksq * um
            resid += transport_oracle(um, grid)
            want.append(np.sqrt(grid.cell_volume * np.sum(weight * np.abs(resid) ** 2)))
        _, vals = nse_residual(grid, times, halves)
        assert np.array_equal(vals, want)

    def test_whole_lattice_input_band_is_read_before_um_is_spent(self):
        # a plan whose input band is the whole half lattice reads a view of
        # the work array um, which the pair spends on ksq * um before the
        # kernel runs: the pair must hand the kernel a copy
        grid = make_grid(2, 16, TWO_PI)
        times = np.array([0.0, 0.01, 0.03])
        halves = [random_real_field(grid, seed=80 + j).data for j in range(3)]
        weight = grid.weight / (1.0 + grid.ksq)
        want = []
        for j in range(2):
            prev, cur = halves[j], halves[j + 1]
            h = times[j + 1] - times[j]
            um = 0.5 * (prev + cur)
            resid = (cur - prev) / h + grid.ksq * um
            resid += projected_transport_half(um, TransportPlan(grid, k_in=8))
            want.append(np.sqrt(grid.cell_volume * np.sum(weight * np.abs(resid) ** 2)))
        _, vals = nse_residual(grid, times, halves, TransportPlan(grid, k_in=8))
        assert np.array_equal(vals, want)

    def test_a_pair_holds_less_than_a_lattice_field(self):
        # at d=3 N=16 a complex field on the 16^3 lattice is 196,608 bytes.
        # The pair writes the kernel's output over its spent work array, so
        # a call holds only the input band's copy (34,848 bytes) and the
        # kernel's transients, 147 kB in all. A fresh kernel output (one
        # half-lattice field, 110,592 bytes) on top of those took 258 kB
        grid = make_grid(3, 16, TWO_PI)
        pair = _ResidualPair(grid, TransportPlan(grid))
        prev, cur = (random_real_field(grid, seed=90 + j).data for j in range(2))
        warm = pair(0.0, prev, 0.01, cur)
        again, peak = traced_peak(lambda: pair(0.0, prev, 0.01, cur))
        assert again == warm
        assert peak < 3 * 16**3 * 16

    def test_consumes_a_one_shot_generator(self):
        grid = make_grid(2, 32, TWO_PI)
        times = np.linspace(0.0, 0.1, 6)
        states = [random_real_field(grid, seed=60 + j).data
                  for j in range(times.size)]
        mids, vals = nse_residual(grid, times, states)
        gmids, gvals = nse_residual(grid, times, (u for u in states))
        np.testing.assert_array_equal(gmids, mids)
        np.testing.assert_array_equal(gvals, vals)
