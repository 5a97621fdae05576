import numpy as np
import pytest

from conftest import TWO_PI, random_divfree_field, random_real_field
from nsrw.data import borderline_field, smooth_random_field, taylor_green
from nsrw.heat import heat_semigroup
from nsrw.randomization import RandomModel, randomize, sample_coefficients
from nsrw.solver import (
    SolverConfig,
    StepFailureError,
    _Stepper,
    nonlinear_rhs,
    reconstruct_u,
    solve,
    step,
    time_partition,
)
from nsrw.spectral import (
    dealias,
    fourier_field,
    friedrichs_cutoff,
    l2_norm,
    leray_project,
    make_grid,
    multiplier,
    ring_partition,
    transform,
    zeros_field,
)


def config32(**kw):
    base = dict(d=2, N=32, L=TWO_PI, cutoff=8.0, T=0.5, dt=1.0 / 128.0,
                substep_near_zero=False)
    base.update(kw)
    return SolverConfig(**base)


def combined_rhs_oracle(w, g, cutoff):
    """-T P div((w + Tg) x (w + Tg)) assembled directly, as one product."""
    grid = w.grid
    u = dealias(w) + friedrichs_cutoff(dealias(g), cutoff)
    phys = transform(u, "inverse")
    div = np.zeros_like(u.data)
    for i in range(grid.d):
        acc = np.zeros(grid.shape, dtype=np.complex128)
        for j in range(grid.d):
            that = np.fft.fftn(phys.data[i] * phys.data[j], norm="ortho")
            acc += 1j * grid.axis_frequency(j) * that
        div[i] = acc
    out = leray_project(fourier_field(grid, div))
    ball = grid.kabs < cutoff
    return fourier_field(grid, -(out.data * ball))


class TestNonlinearRhs:
    def test_zero_inputs(self, grid2_mid):
        z = zeros_field(grid2_mid, 2)
        out = nonlinear_rhs(z, z, 8.0)
        assert np.all(out.data == 0.0)

    def test_taylor_green_forcing_annihilated(self):
        # the cellular vortex's self-advection is a pure gradient: the
        # divergence-free projection kills it
        g = make_grid(2, 64, TWO_PI)
        tg = taylor_green(g)
        out = nonlinear_rhs(zeros_field(g, 2), tg, 16.0)
        assert l2_norm(out) <= 1e-11 * l2_norm(tg) ** 2

    def test_matches_combined_product_oracle(self, grid2_mid):
        w = friedrichs_cutoff(random_divfree_field(grid2_mid, seed=1, scale=0.1), 8.0)
        g = random_divfree_field(grid2_mid, seed=2, scale=0.1)
        got = nonlinear_rhs(w, g, 8.0)
        want = combined_rhs_oracle(w, g, 8.0)
        scale = max(np.abs(want.data).max(), 1e-30)
        assert np.abs(got.data - want.data).max() < 1e-10 * scale

    def test_output_divergence_free_and_in_ball(self, grid2_mid):
        w = friedrichs_cutoff(random_divfree_field(grid2_mid, seed=3), 8.0)
        g = random_divfree_field(grid2_mid, seed=4)
        out = nonlinear_rhs(w, g, 8.0)
        div = multiplier(out, "divergence")
        assert l2_norm(div) <= 1e-12 * max(l2_norm(out), 1e-30)
        outside = out.data * (grid2_mid.kabs >= 8.0)
        assert np.abs(outside).max() == 0.0

    def test_rejects_support_violation(self, grid2_mid):
        w = random_divfree_field(grid2_mid, seed=5)  # full-band
        g = zeros_field(grid2_mid, 2)
        with pytest.raises(ValueError):
            nonlinear_rhs(w, g, 4.0)


def physical_pairing_oracle(w, g, cutoff):
    """2 int d_j w_i (w_i g_j + g_i w_j + g_i g_j) with g dealiased and
    truncated, every product and derivative taken in physical space."""
    grid = w.grid
    gcut = friedrichs_cutoff(dealias(g), cutoff)
    W = transform(w, "inverse").data.real
    G = transform(gcut, "inverse").data.real
    total = 0.0
    for i in range(grid.d):
        for j in range(grid.d):
            dw = transform(multiplier(w, "gradient", j), "inverse").data[i].real
            total += np.sum(dw * (W[i] * G[j] + G[i] * W[j] + G[i] * G[j]))
    return 2.0 * grid.cell_volume * total


class TestEnergyLedger:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_stage_pairing_matches_physical_oracle(self, d, N):
        # the ledger reads 2<w, rhs> off the stage right-hand side; the
        # self-transport part must vanish so only the forcing terms remain
        grid = make_grid(d, N, TWO_PI)
        cutoff = N / 4.0
        w = friedrichs_cutoff(random_divfree_field(grid, seed=20 + d, scale=0.1), cutoff)
        g = random_divfree_field(grid, seed=30 + d, scale=0.1)
        cfg = SolverConfig(d=d, N=N, L=TWO_PI, cutoff=cutoff, T=1.0, dt=1e-3)
        stepper = _Stepper(grid, g.data, cfg)
        wh = grid.half.cut(w.data)
        got = stepper.pairing(wh, stepper.rhs(wh, stepper.g_hat_cut(0.0)))
        want = physical_pairing_oracle(w, g, cutoff)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_weighted_half_sums_match_full_spectrum(self, d, N):
        # the Parseval weights (1 on last-axis planes 0 and N/2, 2 elsewhere)
        # turn half-lattice sums into full-lattice ones; the data carry
        # Nyquist content so the weight-1 plane N/2 is exercised
        grid = make_grid(d, N, TWO_PI)
        w = random_real_field(grid, seed=40 + d)
        cfg = SolverConfig(d=d, N=N, L=TWO_PI, cutoff=N / 4.0, T=1.0, dt=1e-3)
        stepper = _Stepper(grid, w.data, cfg)
        wh = grid.half.cut(w.data)
        vol = grid.cell_volume
        kinetic = vol * np.sum(np.abs(w.data) ** 2)
        gradsq = vol * np.sum(grid.ksq * np.abs(w.data) ** 2)
        assert abs(stepper.kinetic(wh) - kinetic) <= 1e-14 * kinetic
        assert abs(stepper.gradsq(wh) - gradsq) <= 1e-14 * gradsq


class TestStepper:
    def test_decay_cache_keeps_one_pair(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=16, band=2)
        stepper = _Stepper(grid2_mid, f.data, config32())
        what = np.zeros((2,) + grid2_mid.half.shape, dtype=np.complex128)
        t = 0.0
        for dt in (1e-3, 2e-3, 4e-3):
            what, _ = stepper.advance(what, t, dt, track=True)
            t += dt
            assert len(stepper._exp_cache) <= 1


class TestStep:
    def test_heat_only_exact_factor(self, grid2_mid):
        cfg = config32(disable_nonlinear=True)
        w0 = friedrichs_cutoff(random_divfree_field(grid2_mid, seed=6), 8.0)
        f = zeros_field(grid2_mid, 2)
        out = step(w0, 0.1, 0.05, cfg, f)
        want = heat_semigroup(w0, 0.05)
        assert np.abs(out.data - want.data).max() <= 1e-13 * np.abs(w0.data).max()

    def test_zero_state_stays_zero(self, grid2_mid):
        cfg = config32()
        z = zeros_field(grid2_mid, 2)
        out = step(z, 0.0, 0.01, cfg, z)
        assert np.all(out.data == 0.0)

    def test_overflow_raises_step_failure(self, grid2_mid):
        cfg = config32()
        w = friedrichs_cutoff(random_divfree_field(grid2_mid, seed=7, scale=1e200), 8.0)
        with np.errstate(all="ignore"):
            with pytest.raises(StepFailureError):
                step(w, 0.0, 1.0, cfg, w)


class TestTimePartition:
    def test_uniform_grid(self):
        times = time_partition(0.5, 1.0 / 128.0, False)
        assert times[0] == 0.0 and times[-1] == 0.5
        assert np.allclose(np.diff(times), 1.0 / 128.0)

    def test_substep_ramp(self):
        dt = 1.0 / 256.0
        times = time_partition(1.0, dt, True)
        assert times[0] == 0.0 and times[-1] == 1.0
        assert np.all(np.diff(times) > 0)
        assert times[1] == pytest.approx(dt * 1e-3)
        assert np.diff(times).max() <= dt * (1 + 1e-12)
        # uniform multiples appear once the ramp increment reaches dt
        k = int(np.ceil(6.0 * dt / dt))
        assert any(abs(times - k * dt) < 1e-15)

    def test_ramp_increments_smooth(self):
        # no multi-fold step-size cliff anywhere (the old hard switch at
        # t = dt jumped 6x); one sub-dt alignment step is fine
        times = time_partition(1.0, 1.0 / 256.0, True)
        h = np.diff(times)
        assert (h[1:] / h[:-1]).max() < 2.0


class TestSolve:
    def test_zero_data_zero_trajectory(self, grid2_mid):
        cfg = config32()
        traj = solve(cfg, zeros_field(grid2_mid, 2))
        for w in traj.w_states:
            assert np.all(w.data == 0.0)

    def test_taylor_green_null(self):
        g = make_grid(2, 32, TWO_PI)
        f = taylor_green(g)
        cfg = config32(T=0.5, dt=1.0 / 128.0)
        traj = solve(cfg, f)
        wsup = np.sqrt(traj.energy_log.kinetic.max())
        assert wsup <= 1e-6 * l2_norm(f)

    def test_support_and_divergence_invariants(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=8, band=2)
        cfg = config32()
        traj = solve(cfg, f)
        for w in traj.w_states[1:]:
            outside = w.data * (grid2_mid.kabs >= cfg.cutoff)
            assert np.abs(outside).max() == 0.0
            nrm = l2_norm(w)
            if nrm > 0:
                assert l2_norm(multiplier(w, "divergence")) / nrm <= 1e-10

    def test_energy_inequality_randomized(self):
        g = make_grid(2, 32, TWO_PI)
        f = borderline_field(g, 0.25, seed=11)
        part = ring_partition(g)
        f_om = randomize(
            f, sample_coefficients(RandomModel("gaussian", 3), part.max_ring, 0), part
        )
        cfg = SolverConfig(d=2, N=32, L=TWO_PI, cutoff=8.0, T=0.5, dt=1.0 / 256.0)
        log = solve(cfg, f_om).energy_log
        assert log.max_violation() <= 1e-8
        assert np.all(np.diff(log.dissipation_cum) >= 0)

    def test_rk4_fourth_order(self):
        g = make_grid(2, 32, TWO_PI)
        f = smooth_random_field(g, seed=7, band=2)

        def terminal(dt):
            cfg = config32(T=0.25, dt=dt, track_energy=False)
            return solve(cfg, f).w_states[-1]

        ref = terminal(1.0 / 512.0)
        e1 = l2_norm(terminal(1.0 / 64.0) - ref)
        e2 = l2_norm(terminal(1.0 / 128.0) - ref)
        assert 16.0 * 0.7 <= e1 / e2 <= 16.0 * 1.3

    def test_euler_agreement_within_error_band(self):
        g = make_grid(2, 32, TWO_PI)
        f = smooth_random_field(g, seed=7, band=2)
        rk = solve(config32(T=0.25, dt=1.0 / 128.0, track_energy=False), f).w_states[-1]
        eu = solve(
            config32(T=0.25, dt=1.0 / 128.0, integrator="ifeuler", track_energy=False), f
        ).w_states[-1]
        eu2 = solve(
            config32(T=0.25, dt=1.0 / 256.0, integrator="ifeuler", track_energy=False), f
        ).w_states[-1]
        band = 2.0 * l2_norm(eu - eu2)  # Richardson estimate of Euler error
        assert l2_norm(rk - eu) <= 1.5 * band + 1e-14

    def test_cutoff_self_convergence(self):
        g = make_grid(2, 32, TWO_PI)
        f = smooth_random_field(g, seed=9, band=2)

        def run(cutoff):
            cfg = config32(cutoff=cutoff, T=0.25, dt=1.0 / 128.0, track_energy=False)
            return solve(cfg, f)

        ref = run(32.0 / 3.0)
        gaps = []
        for n in (4.0, 6.0, 8.0):
            traj = run(n)
            sup = max(
                l2_norm(a - b) for a, b in zip(traj.w_states, ref.w_states)
            )
            gaps.append(sup)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_resume_matches_uninterrupted(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=10, band=2)
        cfg = config32(snapshot_cadence=16)
        full = solve(cfg, f)
        j = 2  # some interior snapshot (a step boundary)
        partial = solve(
            cfg, f, resume_state=full.w_states[j], resume_time=float(full.times[j])
        )
        diff = l2_norm(partial.w_states[-1] - full.w_states[-1])
        assert diff <= 1e-12 * max(l2_norm(full.w_states[-1]), 1e-30)

    def test_rejects_bad_data(self, grid2_mid):
        cfg = config32()
        bad = random_divfree_field(grid2_mid, seed=11)
        bad.data[0, 0, 0] = 1.0  # nonzero mean
        with pytest.raises(ValueError):
            solve(cfg, bad)
        notdivfree = transform(
            transform(random_divfree_field(grid2_mid, seed=12), "inverse"), "forward"
        )
        notdivfree.data[0] += 0.1 * notdivfree.data[1] * 0 + 0.1  # break div-free
        from nsrw.spectral import zero_mean, zero_nyquist

        notdivfree = zero_mean(zero_nyquist(notdivfree))
        with pytest.raises(ValueError):
            solve(cfg, notdivfree)

    def test_rejects_data_not_conjugate_symmetric(self, grid2_mid):
        # a phase on one mode keeps the data mean-zero and divergence-free
        # but leaves its mirror mode unmatched: the half-lattice stepper
        # would silently drop that half
        f = smooth_random_field(grid2_mid, seed=15, band=2)
        f.data[:, 1, 2] *= 1j
        with pytest.raises(ValueError, match="largest conjugate asymmetry"):
            solve(config32(), f)

    def test_rejects_resume_off_partition(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=13, band=2)
        cfg = config32()
        with pytest.raises(ValueError):
            solve(cfg, f, resume_state=zeros_field(grid2_mid, 2), resume_time=0.1234567)

    def test_stability_guard(self):
        g = make_grid(2, 32, TWO_PI)
        f = taylor_green(g)
        with pytest.raises(ValueError):
            solve(config32(dt=0.2, T=1.0), f)


class TestSolverConfig:
    def test_cutoff_must_fit_dealias_band(self):
        with pytest.raises(ValueError):
            SolverConfig(d=2, N=32, L=TWO_PI, cutoff=12.0, T=1.0, dt=0.01)

    def test_unknown_integrator(self):
        with pytest.raises(ValueError):
            SolverConfig(d=2, N=32, L=TWO_PI, cutoff=8.0, T=1.0, dt=0.01, integrator="rk2")


class TestReconstruct:
    def test_initial_snapshot_is_data(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=14, band=2)
        traj = solve(config32(), f)
        rec = reconstruct_u(traj, f)
        assert np.abs(rec.u_states[0].data - f.data).max() < 1e-14 * np.abs(f.data).max()

    def test_taylor_green_exact_solution(self):
        g = make_grid(2, 64, TWO_PI)
        f = taylor_green(g)
        cfg = SolverConfig(d=2, N=64, L=TWO_PI, cutoff=16.0, T=0.5, dt=1.0 / 64.0,
                           substep_near_zero=False, snapshot_cadence=8)
        traj = solve(cfg, f)
        rec = reconstruct_u(traj, f)
        t_end = float(traj.times[-1])
        exact = np.exp(-2.0 * t_end) * f.data
        assert np.abs(rec.u_states[-1].data - exact).max() <= 1e-5 * np.abs(f.data).max()
