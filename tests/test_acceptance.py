"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
tolerances here are contractual; do not loosen them to make a run green.
"""

import time

import numpy as np
import pytest

from conftest import TWO_PI, monte_carlo_tails, random_real_field
from nsrw.config import ExperimentConfig, validate_config
from nsrw.data import borderline_field, smooth_random_field, taylor_green
from nsrw.experiments import run_experiment
from nsrw.heat import check_linear_estimates, default_decay_time_grid, small_time_window
from nsrw.randomization import (
    RandomModel,
    coefficient_matrix,
    hminus_s_norm,
    randomize,
    sample_coefficients,
    verify_subgaussian,
)
from nsrw.solver import SolverConfig, solve
from nsrw.spectral import (
    friedrichs_cutoff,
    fourier_field,
    l2_norm,
    leray_project,
    make_grid,
    multiplier,
    ring_partition,
    ring_project,
)
from nsrw.tails import NormSpec


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_operator_identities():
    started = time.monotonic()
    grid = make_grid(2, 64, TWO_PI)
    part = ring_partition(grid)
    occupied = np.flatnonzero(part.occupancy()) + 1

    worst = {"leray_idem": 0.0, "grad_kill": 0.0, "j_commute": 0.0, "recon": 0.0}
    for seed in range(100):
        f = random_real_field(grid, 2, seed=seed)
        once = leray_project(f)
        worst["leray_idem"] = max(
            worst["leray_idem"], l2_norm(leray_project(once) - once) / l2_norm(f)
        )
        phi = random_real_field(grid, 1, seed=1000 + seed)
        grad = fourier_field(
            grid,
            np.concatenate([multiplier(phi, "gradient", ax).data for ax in range(2)]),
        )
        worst["grad_kill"] = max(
            worst["grad_kill"], l2_norm(leray_project(grad)) / l2_norm(grad)
        )
        cut = friedrichs_cutoff(f, 9.0)
        assert np.array_equal(friedrichs_cutoff(cut, 9.0).data, cut.data)
        a = multiplier(cut, "divergence")
        b = friedrichs_cutoff(multiplier(f, "divergence"), 9.0)
        worst["j_commute"] = max(
            worst["j_commute"],
            np.abs(a.data - b.data).max() / max(np.abs(b.data).max(), 1e-300),
        )
        # every frequency sits in exactly one ring
        assert part.index_of.min() >= 1 and part.occupancy().sum() == grid.N**2
        if seed < 10:
            acc = np.zeros_like(f.data)
            for n in occupied:
                acc += ring_project(f, int(n), part).data
            worst["recon"] = max(
                worst["recon"], np.abs(acc - f.data).max() / np.abs(f.data).max()
            )
    elapsed = time.monotonic() - started
    ok = (
        worst["leray_idem"] < 1e-13
        and worst["grad_kill"] < 1e-13
        and worst["j_commute"] < 1e-14
        and worst["recon"] < 1e-14
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"operator identities on 100 fields (N=64, d=2): "
        f"leray_idem={worst['leray_idem']:.2e}, grad_kill={worst['grad_kill']:.2e}, "
        f"cutoff_div_commute={worst['j_commute']:.2e}, ring_recon={worst['recon']:.2e}, "
        f"runtime={elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_randomization_invariants():
    grid = make_grid(2, 64, TWO_PI)
    part = ring_partition(grid)
    f = borderline_field(grid, 0.25, seed=20260810)
    base = hminus_s_norm(f, 0.25)

    rad = RandomModel("rademacher", 101)
    dev = 0.0
    for i in range(50):
        f_om = randomize(f, sample_coefficients(rad, part.max_ring, i), part)
        dev = max(dev, abs(hminus_s_norm(f_om, 0.25) - base) / base)

    gauss = RandomModel("gaussian", 202)
    mat = coefficient_matrix(gauss, part.max_ring, 2000)
    sq = np.empty(2000)
    for i in range(2000):
        f_om = randomize(f, mat[i], part)
        sq[i] = hminus_s_norm(f_om, 0.25) ** 2
    moment_err = abs(sq.mean() / base**2 - 1.0)

    gammas = np.linspace(-10.0, 10.0, 200)
    margins = {
        fam: verify_subgaussian(RandomModel(fam, 1), gammas).max_margin
        for fam in ("rademacher", "gaussian", "uniform")
    }
    ok = dev <= 1e-12 and moment_err < 0.05 and all(m <= 1e-9 for m in margins.values())
    _report(
        2,
        ok,
        f"randomization invariants: rademacher_norm_dev={dev:.2e} (<=1e-12), "
        f"gaussian_second_moment_err={moment_err:.3f} (<5%), "
        f"subgaussian_margins={{{', '.join(f'{k}: {v:.1e}' for k, v in margins.items())}}} (<=0)",
    )


@pytest.mark.parametrize(
    "d,N,s",
    [(2, 128, 0.1), (2, 128, 0.25), (2, 128, 0.4), (3, 64, 0.1), (3, 64, 0.2)],
)
def test_criterion_3_heat_decay_slopes(d, N, s):
    from scipy.integrate import quad

    started = time.monotonic()
    grid = make_grid(d, N, TWO_PI)
    f = borderline_field(grid, s, seed=101)
    part = ring_partition(grid)
    f_om = randomize(
        f, sample_coefficients(RandomModel("rademacher", 55), part.max_ring, 0), part
    )
    t_grid = default_decay_time_grid(grid, 1.0, 16)
    lo, hi = small_time_window(grid)
    rho = d / 2.0 + 0.05

    def oracle_slope(k):
        ts = np.geomspace(lo, hi, 9)
        vals = [
            np.sqrt(
                quad(
                    lambda r: r ** (d - 1 + 2 * k + 2 * (s - rho)) * np.exp(-2 * t * r * r),
                    TWO_PI / grid.L,
                    float(grid.kabs.max()),
                    limit=300,
                )[0]
            )
            for t in ts
        ]
        return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])

    details = []
    ok = True
    for k in (0, 1):
        rep = check_linear_estimates(f_om, s, k, t_grid)
        target = -(s + k) / 2.0
        slope = rep.l2.fitted_slope
        osl = oracle_slope(k)
        ok = ok and abs(slope - target) <= 0.1 and abs(slope - osl) <= 0.08
        details.append(
            f"k={k}: slope={slope:+.3f} target={target:+.3f} oracle={osl:+.3f}"
        )
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(
        3,
        ok,
        f"heat decay d={d} N={N} s={s}: {'; '.join(details)}; "
        f"runtime={elapsed:.1f}s (< 60 s per case)",
    )


def test_criterion_4_gaussian_tails():
    started = time.monotonic()
    grid = make_grid(2, 64, TWO_PI)
    f = borderline_field(grid, 0.25, seed=20260810)
    spec = NormSpec(gamma=0.0, sigma=0.0, p=4.0, q=4.0, r=4.0, s=0.25, T=1.0)
    fit = monte_carlo_tails(f, RandomModel("gaussian", 1000), spec, 1000, workers=2)
    refit = monte_carlo_tails(f, RandomModel("gaussian", 777), spec, 1000, workers=2)
    rel = abs(refit.C2 - fit.C2) / fit.C2
    elapsed = time.monotonic() - started
    ok = (
        fit.r_squared >= 0.95
        and fit.C2 > 0
        and rel < 0.25
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"gaussian tails (M=1000, d=2, sigma=0, gamma=0, p=q=4, s=0.25): "
        f"r2={fit.r_squared:.4f} (>=0.95), C2={fit.C2:.2f} (>0), "
        f"fresh-seed C2 dev={rel:.3f} (<0.25), runtime={elapsed:.0f}s (< 300 s)",
    )


def test_criterion_5_taylor_green_null():
    started = time.monotonic()
    grid = make_grid(2, 64, TWO_PI)
    f = taylor_green(grid)
    cfg = SolverConfig(cutoff=16.0, T=1.0, dt=1.0 / 64.0, substep_near_zero=False)
    traj = solve(cfg, f)
    ratio = float(np.sqrt(traj.energy_log.kinetic.max()) / l2_norm(f))
    elapsed = time.monotonic() - started
    ok = ratio <= 1e-6 and elapsed < 30.0
    _report(
        5,
        ok,
        f"taylor-green null test (N=64, T=1): sup|w|/|f| = {ratio:.2e} (<= 1e-6), "
        f"runtime={elapsed:.1f}s (< 30 s)",
    )


def test_criterion_6_energy_boundedness():
    started = time.monotonic()
    grid = make_grid(2, 64, TWO_PI)
    part = ring_partition(grid)
    f = borderline_field(grid, 0.25, seed=20260810)
    model = RandomModel("gaussian", 42)

    worst_violation = 0.0
    for i in range(20):
        f_om = randomize(f, sample_coefficients(model, part.max_ring, i), part)
        cfg = SolverConfig(cutoff=16.0, T=1.0, dt=1.0 / 512.0)
        log = solve(cfg, f_om).energy_log
        worst_violation = max(worst_violation, log.max_violation())

    f_om0 = randomize(f, sample_coefficients(model, part.max_ring, 0), part)
    sups = []
    for cutoff in (64.0 / 6.0, 16.0, 64.0 / 3.0):
        cfg = SolverConfig(cutoff=cutoff, T=1.0, dt=1.0 / 512.0)
        sups.append(solve(cfg, f_om0).energy_log.energy_sup())
    sups = np.array(sups)
    spread = float((sups.max() - sups.min()) / sups.max())
    elapsed = time.monotonic() - started
    ok = worst_violation <= 1e-8 and spread < 0.20 and elapsed < 600.0
    _report(
        6,
        ok,
        f"energy boundedness (d=2, s=0.25, T=1, M=20): "
        f"max step violation={worst_violation:.2e} (<= 1e-8), "
        f"sup-E spread over cutoffs {{N/6, N/4, N/3}} = {spread:.3f} (< 0.20), "
        f"runtime={elapsed:.0f}s (< 600 s)",
    )


def test_criterion_7_convergence_order():
    grid = make_grid(2, 32, TWO_PI)
    f = smooth_random_field(grid, seed=7, band=2)

    def terminal(dt, integrator="ifrk4"):
        cfg = SolverConfig(
            cutoff=8.0, T=0.25, dt=dt,
            integrator=integrator, substep_near_zero=False, track_energy=False,
        )
        return solve(cfg, f).w_states[-1]

    ref = terminal(1.0 / 512.0)
    e1 = l2_norm(terminal(1.0 / 64.0) - ref)
    e2 = l2_norm(terminal(1.0 / 128.0) - ref)
    ratio = e1 / e2

    rk = terminal(1.0 / 128.0)
    eu = terminal(1.0 / 128.0, "ifeuler")
    eu2 = terminal(1.0 / 256.0, "ifeuler")
    band = 2.0 * l2_norm(eu - eu2)
    gap = l2_norm(rk - eu)
    ok = 16.0 * 0.7 <= ratio <= 16.0 * 1.3 and gap <= 1.5 * band
    _report(
        7,
        ok,
        f"convergence order: rk4 halving ratio={ratio:.2f} (16 +- 30%), "
        f"rk4-vs-euler gap={gap:.2e} within euler band {band:.2e}",
    )


def test_criterion_8_reproducibility(tmp_path):
    blobs = {}
    for w in (1, 2, 8):
        cfg = validate_config(
            ExperimentConfig(
                experiment="tails", d=2, N=32, monte_carlo_M=210, master_seed=3,
                workers=w, output_dir=str(tmp_path / f"w{w}"),
            )
        )
        res = run_experiment(cfg)
        blobs[w] = (
            (res.output_dir / "series.csv").read_bytes(),
            (res.output_dir / "summary.json").read_bytes(),
        )
    identical = blobs[1] == blobs[2] == blobs[8]

    common = dict(
        experiment="solve", d=2, N=32, T=0.5, dt=1.0 / 128.0, data="smooth_random",
        randomize_data=False, substep_near_zero=False, snapshot_cadence=16,
        master_seed=21,
    )
    full = run_experiment(
        validate_config(
            ExperimentConfig(**common, write_checkpoints=True,
                             output_dir=str(tmp_path / "full"))
        )
    )
    import json

    summary = json.loads((full.output_dir / "summary.json").read_text())
    mid = next(c for c in summary["checkpoints"] if abs(c["time"] - 0.25) < 1e-12)
    resumed = run_experiment(
        validate_config(
            ExperimentConfig(**common, output_dir=str(tmp_path / "resumed"))
        ),
        resume=str(full.output_dir / mid["file"]),
    )
    resume_gap = abs(
        resumed.summary["terminal_w_l2"] - summary["terminal_w_l2"]
    )
    ok = identical and resume_gap <= 1e-12
    _report(
        8,
        ok,
        f"reproducibility: byte-identical artifacts across 1/2/8 workers = {identical}, "
        f"checkpoint-resume terminal gap = {resume_gap:.2e} (<= 1e-12)",
    )
