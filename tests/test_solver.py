import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import (
    TWO_PI,
    FullLattice,
    band_field,
    cut,
    full_spectrum,
    random_divfree_field,
    random_real_field,
    shear_field,
    solve_collecting,
    traced_peak,
)
from nsrw.data import borderline_field, smooth_random_field, taylor_green
from nsrw.heat import heat_semigroup
from nsrw.randomization import RandomModel, randomize, sample_coefficients
from nsrw.solver import (
    SolverConfig,
    StepFailureError,
    Trajectory,
    _Stepper,
    nonlinear_rhs,
    solve,
    step,
    stepping_lattice_size,
    time_partition,
    u_half,
)
from nsrw.spectral import (
    TransportPlan,
    dealias,
    fourier_field,
    friedrichs_cutoff,
    l2_norm,
    leray_project,
    linf_norm,
    make_grid,
    multiplier,
    projected_transport_half,
    ring_partition,
    transform,
    zeros_field,
)


def config32(**kw):
    base = dict(cutoff=8.0, T=0.5, dt=1.0 / 128.0, substep_near_zero=False)
    base.update(kw)
    return SolverConfig(**base)


def combined_rhs_oracle(w, g, cutoff):
    """-T P div((w + Tg) x (w + Tg)) assembled directly, as one product of
    complex whole-lattice transforms, cut to the half lattice."""
    grid = w.grid
    full = FullLattice(grid)
    u = full_spectrum((dealias(w) + friedrichs_cutoff(dealias(g), cutoff)).data, grid)
    phys = np.fft.ifftn(u, axes=tuple(range(1, grid.d + 1)), norm="ortho")
    div = np.zeros_like(u)
    for i in range(grid.d):
        for j in range(grid.d):
            that = np.fft.fftn(phys[i] * phys[j], norm="ortho")
            div[i] += 1j * full.axes[j] * that
    out = leray_project(fourier_field(grid, cut(div, grid)))
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
        cfg = SolverConfig(cutoff=cutoff, T=1.0, dt=1e-3)
        stepper = _Stepper(grid, g.data, cfg)
        wh = stepper.embed(w.data)
        got = stepper.pairing(wh, stepper.stage0(wh, 0.0)[1])
        want = physical_pairing_oracle(w, g, cutoff)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_weighted_band_sums_match_full_spectrum(self, d, N):
        # the Parseval weights (1 on the last-axis plane 0, 2 elsewhere on
        # the cube) turn band-array sums into full-lattice ones, and the
        # sums carry the N grid's cell volume; ksq comes from the smaller
        # stepping lattice
        grid = make_grid(d, N, TWO_PI)
        cfg = SolverConfig(cutoff=N / 4.0, T=1.0, dt=1e-3)
        assert stepping_lattice_size(grid, cfg.cutoff) < N
        stepper = _Stepper(grid, random_real_field(grid, seed=50 + d).data, cfg)
        v = random_real_field(grid, seed=60 + d).data * (grid.kabs < cfg.cutoff)
        vh = stepper.embed(v)
        vol = grid.cell_volume
        full = full_spectrum(v, grid)
        kinetic = vol * np.sum(np.abs(full) ** 2)
        gradsq = vol * np.sum(FullLattice(grid).ksq * np.abs(full) ** 2)
        assert abs(stepper.kinetic(vh) - kinetic) <= 1e-14 * kinetic
        assert abs(stepper.gradsq(vh) - gradsq) <= 1e-14 * gradsq
        # the band array returns to the half lattice unchanged
        assert np.array_equal(grid.scatter(vh), v)


class TestStepper:
    def test_decay_cache_keeps_one_pair(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=16, band=2)
        stepper = _Stepper(grid2_mid, f.data, config32())
        what = np.zeros((2,) + stepper.ksq.shape, dtype=np.complex128)
        t = 0.0
        for dt in (1e-3, 2e-3, 4e-3):
            what, _ = stepper.advance(what, *stepper.stage0(what, t), dt, track=True)
            t += dt
            assert len(stepper._exp_cache) <= 1

    @pytest.mark.parametrize("integrator, stages", [("ifrk4", 4), ("ifeuler", 1)])
    def test_stage0_pair_formed_once_per_boundary(self, grid2_mid, monkeypatch, integrator,
                                                  stages):
        # the snapshot at a boundary and the step from it share one pair
        calls = []
        stage0 = _Stepper.stage0
        monkeypatch.setattr(_Stepper, "stage0",
                            lambda self, w, t: calls.append(t) or stage0(self, w, t))
        f = smooth_random_field(grid2_mid, seed=16, band=2)
        traj = solve(config32(T=0.125, snapshot_cadence=3, integrator=integrator), f)
        steps = traj.energy_log.times.size - 1
        assert calls == list(traj.energy_log.times)
        assert traj.rhs_evaluations == stages * steps + 1


def _is_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestSteppingLattice:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("frac", [6, 4, 3])
    def test_stage_rhs_matches_full_grid_kernel(self, d, N, frac):
        # cutoff N/3 needs the full grid (the fallback); N/6 and N/4 step
        # on a smaller lattice
        grid = make_grid(d, N, TWO_PI)
        cutoff = N / frac
        ball = grid.kabs < cutoff
        w = random_real_field(grid, seed=70 + d).data * ball
        f = random_real_field(grid, seed=80 + d)
        cfg = SolverConfig(cutoff=cutoff, T=1.0, dt=1e-3)
        stepper = _Stepper(grid, f.data, cfg)
        assert (stepping_lattice_size(grid, cutoff) == N) == (frac == 3)
        rhs = stepper.stage0(stepper.embed(w), 0.0)[1]
        got = grid.scatter(rhs)
        hball = grid.kabs < cutoff
        plan = TransportPlan(grid)
        u = w + f.data * hball
        want = -projected_transport_half(u[(slice(None), *plan.in_band)], plan) * hball
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "d, N, kappa",
        [(2, 32, 32 / 6), (2, 32, 8.0), (2, 32, 32 / 3), (3, 16, 16 / 6),
         (3, 16, 4.0), (3, 16, 16 / 3), (2, 64, 16.0), (2, 64, 6.0),
         (2, 64, 0.5), (2, 44, 14.0), (2, 44, 14.5)],
    )
    def test_size_rule(self, d, N, kappa):
        # L = 2 pi, so the cutoff is kappa lattice units. N/3 cutoffs and
        # (44, 14.5), whose bound 42.5 lies below N = 44 but whose next even
        # 2,3,5-smooth size is 48, fall back to N
        grid = make_grid(d, N, TWO_PI)
        M = stepping_lattice_size(grid, kappa)
        k_max = math.ceil(kappa) - 1
        bound = 2 * k_max + kappa
        assert M >= bound and M % 2 == 0
        smallest = next(m for m in range(8, 4 * N, 2) if m >= bound and _is_smooth(m))
        if smallest >= N:
            assert M == N
        else:
            assert M == smallest and _is_smooth(M)


class TestStep:
    def test_heat_only_exact_factor(self, grid2_mid):
        # zero data and a shear state: no transport, so one step is the
        # exact heat factor
        w0 = shear_field(grid2_mid, 8.0, seed=6)
        f = zeros_field(grid2_mid, 2)
        out = step(w0, 0.1, 0.05, config32(), f)
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

    @pytest.mark.parametrize("T, dt", [(math.inf, 1.0 / 256.0), (math.nan, 1.0 / 256.0),
                                       (1.0, math.inf), (1.0, math.nan), (0.0, 1.0 / 256.0)])
    def test_config_refuses_a_horizon_or_step_that_is_not_finite_and_positive(self, T, dt):
        # refused on construction: a partition of T = inf would never end
        with pytest.raises(ValueError, match="T and dt must be finite and positive"):
            SolverConfig(cutoff=8.0, T=T, dt=dt)


class TestSolve:
    def test_zero_data_zero_trajectory(self, grid2_mid):
        cfg = config32()
        _, snapshots = solve_collecting(cfg, zeros_field(grid2_mid, 2))
        for _, w in snapshots:
            assert np.all(w == 0.0)

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
        _, snapshots = solve_collecting(cfg, f)
        for _, h in snapshots[1:]:
            w = band_field(grid2_mid, h)
            outside = w.data * (grid2_mid.kabs >= cfg.cutoff)
            assert np.abs(outside).max() == 0.0
            nrm = l2_norm(w)
            if nrm > 0:
                assert l2_norm(multiplier(w, "divergence")) / nrm <= 1e-10

    def test_snapshots_are_band_arrays(self, grid3):
        # each snapshot is the stepper's cube |k_i| <= k_max of the field
        # it stands for, bit for bit, with an exactly conjugate-symmetric
        # plane 0, and the field is zero off it. The run hands every
        # snapshot out and keeps only the last, w(T)
        f = smooth_random_field(grid3, seed=4, band=2)
        cfg = SolverConfig(cutoff=4.0, T=4.0 / 128.0, dt=1.0 / 128.0,
                           substep_near_zero=False, snapshot_cadence=1)
        seen = []
        traj = solve(cfg, f, on_snapshot=lambda i, t, w: seen.append((i, t, w)))
        band = grid3.band(3)  # k_max = ceil(4) - 1
        assert [i for i, _, _ in seen] == list(range(5))
        assert [t for _, t, _ in seen] == list(traj.times)
        assert traj.w_band is seen[-1][2]
        (field,) = traj.w_states
        assert np.array_equal(grid3.scatter(traj.w_band), field.data)
        for _, _, h in seen:
            assert h.shape == (3, 7, 7, 4)
            full = grid3.scatter(h)
            assert np.array_equal(h, full[(slice(None), *band)])
            full[(slice(None), *band)] = 0.0
            assert not full.any()
            assert grid3.plane_asymmetry(h) == 0.0
        assert np.abs(traj.w_band).max() > 0

    def test_peak_memory_is_flat_in_T(self, grid3):
        # the run holds no snapshot list: doubling T adds 40 snapshots of
        # 9,408 bytes each (the cube |k_i| <= 3) but raises the traced peak
        # of a library solve without a consumer by less than one of them.
        # The first run warms the caches
        f = smooth_random_field(grid3, seed=3, band=2)

        def config(steps):
            return SolverConfig(cutoff=4.0, T=steps / 128.0, dt=1.0 / 128.0,
                                substep_near_zero=False, snapshot_cadence=1)

        solve(config(40), f)
        peaks = []
        for steps in (40, 80):
            traj, peak = traced_peak(lambda: solve(config(steps), f))
            assert traj.times.size == steps + 1 and traj.w_band.nbytes == 3 * 7 * 7 * 4 * 16
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 3 * 7 * 7 * 4 * 16

    def test_energy_inequality_randomized(self):
        g = make_grid(2, 32, TWO_PI)
        f = borderline_field(g, 0.25, seed=11)
        part = ring_partition(g)
        f_om = randomize(
            f, sample_coefficients(RandomModel("gaussian", 3), part.max_ring, 0), part
        )
        cfg = SolverConfig(cutoff=8.0, T=0.5, dt=1.0 / 256.0)
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
            return [band_field(g, w) for _, w in solve_collecting(cfg, f)[1]]

        ref = run(32.0 / 3.0)
        gaps = []
        for n in (4.0, 6.0, 8.0):
            sup = max(l2_norm(a - b) for a, b in zip(run(n), ref))
            gaps.append(sup)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_resume_matches_uninterrupted(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=10, band=2)
        cfg = config32(snapshot_cadence=16)
        full, snapshots = solve_collecting(cfg, f)
        t_j, w_j = snapshots[2]  # some interior snapshot (a step boundary)
        partial = solve(cfg, f, resume_band=w_j, resume_time=t_j)
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
        # a phase on one mode of the self-mirrored plane 0 keeps the data
        # mean-zero and divergence-free but leaves its mirror mode (-1, 0)
        # unmatched: no real field has that half spectrum
        f = smooth_random_field(grid2_mid, seed=15, band=2)
        f.data[:, 1, 0] *= 1j
        with pytest.raises(ValueError, match="largest conjugate asymmetry"):
            solve(config32(), f)

    def test_rejects_resume_off_partition(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=13, band=2)
        cfg = config32()
        with pytest.raises(ValueError):
            solve(cfg, f, resume_band=zeros_field(grid2_mid, 2).data,
                  resume_time=0.1234567)

    def test_rejects_resume_state_outside_ball(self, grid2_mid):
        # a real, divergence-free perturbation at mode (0, 12), outside the
        # ball |xi| < 8: the stepping lattice would drop it
        f = smooth_random_field(grid2_mid, seed=17, band=2)
        cfg = config32()
        _, snapshots = solve_collecting(cfg, f)
        t2, w2 = snapshots[2]
        state = band_field(grid2_mid, w2)
        amp = 1e-6 * np.abs(state.data).max()
        state.data[0, 0, 12] += amp * (1 + 1j)  # the mode and its mirror
        with pytest.raises(ValueError, match=r"resume state has support outside the cutoff "
                           r"ball .* at lattice mode \(0, -?12\)"):
            solve(cfg, f, resume_band=state.data, resume_time=t2)
        with pytest.raises(ValueError, match="state has support outside the cutoff ball"):
            step(state, t2, cfg.dt, cfg, f)

    def test_rejects_resume_band_of_another_shape_or_asymmetric(self, grid2_mid):
        # the band's radius is read off its last axis; mode (1, 0) lies on
        # the last-axis plane 0, its own mirror image, so perturbing it
        # without its partner (-1, 0) leaves no real field
        f = smooth_random_field(grid2_mid, seed=18, band=2)
        h = f.data
        asym = h.copy()
        asym[0, 1, 0] += 1e-3 * np.abs(h).max()
        shape = "must be one band array per dimension"
        for bad, message in ((h[:, :-1], shape), (h[:1], shape),
                             (full_spectrum(h, grid2_mid), shape),
                             (asym, "is not a real field's band array: its last-axis "
                                    "planes 0 and N/2 are not conjugate-symmetric")):
            with pytest.raises(ValueError, match=f"resume state {message}"):
                solve(config32(), f, resume_band=bad, resume_time=0.0)

    def test_stability_guard(self):
        g = make_grid(2, 32, TWO_PI)
        f = taylor_green(g)
        config = config32(dt=0.2, T=1.0)
        with pytest.raises(ValueError, match=re.escape(_stability_message(config, f))):
            solve(config, f)

    @pytest.mark.parametrize("dt", [1.0 / 256.0, 1.0 / 32.0, 0.25])
    @pytest.mark.parametrize("d, N", [(2, 64), (3, 16), (3, 32)])
    def test_stability_guard_reads_max_g_bit_for_bit(self, d, N, dt):
        # max|g| read off the heat sweep is the whole-lattice linf_norm of
        # the heat-evolved, truncated data, bit for bit: data scaled so that
        # every dt here fails the guard, whose message prints max|g| exactly
        grid = make_grid(d, N, TWO_PI)
        f = 1e4 * smooth_random_field(grid, seed=8)
        config = SolverConfig(cutoff=N / 4.0, T=1.0, dt=dt, substep_near_zero=False)
        with pytest.raises(ValueError, match=re.escape(_stability_message(config, f))):
            solve(config, f)


def _stability_message(config, f):
    """The stability guard's refusal, from max|g| at t = dt formed on the
    whole lattice."""
    gmax = linf_norm(friedrichs_cutoff(heat_semigroup(f, config.dt), config.cutoff))
    bound = 1.0 / (config.cutoff * gmax)
    assert config.dt >= 0.5 * bound
    return (f"dt = {config.dt} exceeds half the explicit stability estimate {bound} "
            f"(from max|g| = {gmax} at t = dt and cutoff {config.cutoff})")


def _stream_case(d, N, **kw):
    """Data and a short config for the streaming tests: d=2 N=32 cutoff 8,
    d=3 N=16 cutoff 4, 7 steps of 1/128 unless kw says otherwise."""
    grid = make_grid(d, N, TWO_PI)
    base = dict(cutoff={2: 8.0, 3: 4.0}[d], T=7.0 / 128.0, dt=1.0 / 128.0,
                substep_near_zero=False)
    base.update(kw)
    return smooth_random_field(grid, seed=5, band=2), SolverConfig(**base)


class TestOneSnapshotPath:
    """solve hands every snapshot to its consumer, keeps only w(T), and
    runs the same numerics with a consumer and without one."""

    @pytest.mark.parametrize("integrator", ["ifrk4", "ifeuler"])
    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_consumer_does_not_change_the_run(self, d, N, cadence, integrator):
        f, cfg = _stream_case(d, N, snapshot_cadence=cadence, integrator=integrator)
        bare = solve(cfg, f)
        traj, snapshots = solve_collecting(cfg, f)
        assert traj.w_band is snapshots[-1][1]
        assert [t for t, _ in snapshots] == list(traj.times)
        assert np.array_equal(bare.times, traj.times)
        assert np.array_equal(bare.w_band, traj.w_band)
        assert np.array_equal(bare.dwdt_hminus1, traj.dwdt_hminus1)
        assert (bare.rhs_evaluations, bare.fft_lines) == (traj.rhs_evaluations, traj.fft_lines)
        for field in dataclasses.fields(bare.energy_log):
            assert np.array_equal(getattr(bare.energy_log, field.name),
                                  getattr(traj.energy_log, field.name))

    @pytest.mark.parametrize("cadence", [1, 3, 8])
    @pytest.mark.parametrize("substep", [False, True])
    def test_snapshots_fall_on_the_cadence(self, grid2_mid, substep, cadence):
        # step is the snapshot time's index in time_partition: every
        # cadence-th step from 0, and the last step whatever the cadence
        f = smooth_random_field(grid2_mid, seed=6, band=2)
        cfg = config32(T=10.0 / 128.0, substep_near_zero=substep, snapshot_cadence=cadence)
        times = time_partition(cfg.T, cfg.dt, substep)
        last = times.size - 1
        seen = []
        traj = solve(cfg, f, on_snapshot=lambda i, t, w: seen.append((i, t)))
        steps = [i for i, _ in seen]
        assert steps == sorted(set(list(range(0, last, cadence)) + [last]))
        assert [t for _, t in seen] == [float(times[i]) for i in steps]
        assert np.array_equal(traj.times, times[steps])
        assert traj.dwdt_hminus1.shape == (len(steps),)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_resume_hands_out_the_uninterrupted_tail(self, d, N):
        # resumed at a snapshot on the cadence, the run hands out the same
        # steps and times as the uninterrupted run from there on
        f, cfg = _stream_case(d, N, T=12.0 / 128.0, snapshot_cadence=4)
        _, full = solve_collecting(cfg, f)
        t_j, w_j = full[1]
        seen = []
        solve(cfg, f, resume_band=w_j, resume_time=t_j,
              on_snapshot=lambda i, t, w: seen.append((t, w)))
        assert [t for t, _ in seen] == [t for t, _ in full[1:]]
        scale = max(np.abs(w).max() for _, w in full)
        for (_, w), (_, w_full) in zip(seen, full[1:]):
            assert np.abs(w - w_full).max() <= 1e-12 * scale

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_states_are_one_element_lists_at_T(self, d, N):
        f, cfg = _stream_case(d, N)
        traj = solve(cfg, f)
        (w,) = traj.w_states
        (g,) = traj.g_states
        assert np.array_equal(w.data, traj.f_omega.grid.scatter(traj.w_band))
        T = float(traj.times[-1])
        assert T == cfg.T
        expect = friedrichs_cutoff(heat_semigroup(f, T), cfg.cutoff)
        assert np.array_equal(g.data, expect.data)

    @pytest.mark.parametrize("name", [fld.name for fld in dataclasses.fields(Trajectory)])
    def test_trajectory_field_is_required(self, name):
        # solve is the one constructor and sets every field
        (fld,) = [x for x in dataclasses.fields(Trajectory) if x.name == name]
        assert fld.default is dataclasses.MISSING
        assert fld.default_factory is dataclasses.MISSING


class TestSolverConfig:
    def test_cutoff_must_fit_dealias_band(self, grid2_mid):
        # the band (N/3)(2 pi/L) is the data grid's: 10.67 at N = 32, 21.3 at 64
        cfg = config32(cutoff=12.0, T=4.0 / 128.0)
        z = zeros_field(grid2_mid, 2)
        with pytest.raises(ValueError, match="inside the dealiased band"):
            solve(cfg, z)
        with pytest.raises(ValueError, match="inside the dealiased band"):
            step(z, 0.0, cfg.dt, cfg, z)
        traj = solve(cfg, zeros_field(make_grid(2, 64, TWO_PI), 2))
        assert traj.times[-1] == cfg.T

    def test_unknown_integrator(self):
        with pytest.raises(ValueError):
            SolverConfig(cutoff=8.0, T=1.0, dt=0.01, integrator="rk2")


class TestReconstruct:
    def test_initial_snapshot_is_data(self, grid2_mid):
        f = smooth_random_field(grid2_mid, seed=14, band=2)
        _, snapshots = solve_collecting(config32(), f)
        t0, w0 = snapshots[0]
        assert t0 == 0.0
        assert np.abs(u_half(f, t0, w0) - f.data).max() < 1e-14 * np.abs(f.data).max()

    def test_taylor_green_exact_solution(self):
        g = make_grid(2, 64, TWO_PI)
        f = taylor_green(g)
        cfg = SolverConfig(cutoff=16.0, T=0.5, dt=1.0 / 64.0,
                           substep_near_zero=False, snapshot_cadence=8)
        traj = solve(cfg, f)
        t_end = float(traj.times[-1])
        exact = np.exp(-2.0 * t_end) * f.data
        u_end = u_half(f, t_end, traj.w_band)
        assert np.abs(u_end - exact).max() <= 1e-5 * np.abs(f.data).max()
