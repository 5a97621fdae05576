import math

import numpy as np
import pytest

from conftest import TWO_PI, random_real_field, single_mode_field
from nsrw.spectral import (
    conjugate_mirror,
    dealias,
    fourier_field,
    friedrichs_cutoff,
    l2_norm,
    leray_project,
    make_grid,
    multiplier,
    physical_field,
    projected_transport,
    ring_index,
    ring_partition,
    ring_project,
    transform,
    zeros_field,
)


class TestGrid:
    def test_integer_lattice_on_2pi_box(self):
        g = make_grid(2, 8, TWO_PI)
        assert sorted(g.k1d.round(12)) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_3d_lattice_size(self):
        g = make_grid(3, 16, TWO_PI)
        assert g.ksq.size == 16**3
        assert np.count_nonzero(g.ksq == 0.0) == 1  # zero frequency once

    @pytest.mark.parametrize(
        "d,N,L", [(2, 7, 1.0), (2, 6, 1.0), (4, 8, 1.0), (1, 8, 1.0), (2, 8, 0.0), (2, 8, -1.0)]
    )
    def test_rejects_bad_parameters(self, d, N, L):
        with pytest.raises(ValueError):
            make_grid(d, N, L)

    def test_nyquist_mask_marks_minus_half_rows(self):
        g = make_grid(2, 8, TWO_PI)
        assert g.nyquist_mask[4, 0] and g.nyquist_mask[0, 4] and g.nyquist_mask[4, 4]
        assert not g.nyquist_mask[0, 0] and not g.nyquist_mask[3, 3]
        # all surviving frequencies have their negatives on the lattice
        keep = ~g.nyquist_mask
        assert keep.sum() == 7 * 7


class TestTransform:
    def test_constant_field_concentrates_at_zero(self, grid2):
        phys = physical_field(grid2, np.ones((1,) + grid2.shape, dtype=np.complex128))
        fh = transform(phys, "forward")
        coeffs = fh.data[0].copy()
        assert abs(coeffs[0, 0] - grid2.N) < 1e-12  # ortho: N^{d/2} * 1
        coeffs[0, 0] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_single_plane_wave(self, grid2):
        x, y = grid2.coordinates()
        phys = physical_field(grid2, np.exp(1j * x)[None, ...])
        fh = transform(phys, "forward")
        mask = np.zeros(grid2.shape, dtype=bool)
        mask[1, 0] = True
        assert np.abs(fh.data[0][~mask]).max() < 1e-12
        assert abs(fh.data[0][1, 0] - grid2.N) < 1e-10

    def test_round_trip(self, grid2):
        f = random_real_field(grid2, 2, seed=1)
        back = transform(transform(f, "inverse"), "forward")
        scale = np.abs(f.data).max()
        assert np.abs(back.data - f.data).max() < 1e-12 * scale

    def test_direction_tag_mismatch(self, grid2):
        f = zeros_field(grid2)
        with pytest.raises(ValueError):
            transform(f, "forward")  # already fourier
        with pytest.raises(ValueError):
            transform(transform(f, "inverse"), "inverse")
        with pytest.raises(ValueError):
            transform(f, "sideways")

    def test_parseval_100_random_fields(self, grid2):
        for seed in range(100):
            f = random_real_field(grid2, 2, seed=seed)
            phys = transform(f, "inverse")
            rel = abs(l2_norm(f) - l2_norm(phys)) / l2_norm(f)
            assert rel < 1e-12


class TestRingIndex:
    def test_hand_values(self):
        assert ring_index((0, 0), 2) == 1
        assert ring_index((1, 0), 2) == 2

    def test_d3_scan_oracle(self):
        # scan n until (n-1)^(1/3) <= sqrt(3) < n^(1/3)
        r = math.sqrt(3.0)
        n = 1
        while not ((n - 1) ** (1 / 3) <= r < n ** (1 / 3)):
            n += 1
        assert n == 6
        assert ring_index((1, 1, 1), 3) == 6

    def test_partition_matches_integer_oracle_2d(self, grid2):
        part = ring_partition(grid2)
        k = np.fft.fftfreq(grid2.N, 1.0 / grid2.N).astype(int)
        for i, ki in enumerate(k):
            for j, kj in enumerate(k):
                ksq = ki * ki + kj * kj
                assert part.index_of[i, j] == ksq + 1  # n-1 <= |xi|^2 < n

    def test_partition_matches_integer_oracle_3d(self, grid3):
        part = ring_partition(grid3)
        k = np.fft.fftfreq(grid3.N, 1.0 / grid3.N).astype(int)
        for i, ki in enumerate(k):
            for j, kj in enumerate(k):
                for l, kl in enumerate(k):
                    m = (ki * ki + kj * kj + kl * kl) ** 3
                    assert part.index_of[i, j, l] == math.isqrt(m) + 1

    def test_ring_bounds_hold_pointwise(self, grid2_mid):
        part = ring_partition(grid2_mid)
        n = part.index_of.astype(float)
        r = grid2_mid.kabs
        d = grid2_mid.d
        assert np.all((n - 1) ** (1.0 / d) <= r * (1 + 1e-12))
        assert np.all(r < n ** (1.0 / d) * (1 + 1e-12))

    def test_partition_covers_once(self, grid2_mid):
        part = ring_partition(grid2_mid)
        assert part.occupancy().sum() == grid2_mid.N**2
        assert part.index_of.min() == 1


class TestRingProject:
    def test_beyond_max_ring_zero(self, grid2):
        f = random_real_field(grid2, 2, seed=3)
        part = ring_partition(grid2)
        out = ring_project(f, part.max_ring + 5)
        assert np.all(out.data == 0)

    def test_idempotent_on_supported_ring(self, grid2):
        f = random_real_field(grid2, 2, seed=4)
        piece = ring_project(f, 2)
        again = ring_project(piece, 2)
        assert np.array_equal(piece.data, again.data)

    def test_rejects_bad_ring(self, grid2):
        with pytest.raises(ValueError):
            ring_project(random_real_field(grid2), 0)

    def test_sum_of_projections_reconstructs(self, grid2):
        part = ring_partition(grid2)
        occupied = np.flatnonzero(part.occupancy()) + 1
        for seed in range(3):
            f = random_real_field(grid2, 2, seed=seed)
            acc = zeros_field(grid2, 2)
            for n in occupied:
                acc = acc + ring_project(f, int(n), part)
            assert np.abs(acc.data - f.data).max() < 1e-14 * np.abs(f.data).max()


class TestFriedrichsCutoff:
    def test_large_radius_is_identity(self, grid2):
        f = random_real_field(grid2, 2, seed=5)
        r = grid2.kabs.max() + 1.0
        assert np.array_equal(friedrichs_cutoff(f, r).data, f.data)

    def test_idempotent_bitwise(self, grid2):
        f = random_real_field(grid2, 2, seed=6)
        once = friedrichs_cutoff(f, 4.5)
        twice = friedrichs_cutoff(once, 4.5)
        assert np.array_equal(once.data, twice.data)

    def test_commutes_with_divergence(self, grid2):
        f = random_real_field(grid2, 2, seed=7)
        a = multiplier(friedrichs_cutoff(f, 4.0), "divergence")
        b = friedrichs_cutoff(multiplier(f, "divergence"), 4.0)
        assert np.abs(a.data - b.data).max() < 1e-14 * max(np.abs(a.data).max(), 1.0)

    def test_commutes_with_ring_projection(self, grid2):
        f = random_real_field(grid2, 2, seed=8)
        a = friedrichs_cutoff(ring_project(f, 5), 3.0)
        b = ring_project(friedrichs_cutoff(f, 3.0), 5)
        assert np.array_equal(a.data, b.data)

    def test_ring_projection_commutes_with_divergence(self, grid2):
        f = random_real_field(grid2, 2, seed=9)
        a = multiplier(ring_project(f, 4), "divergence")
        b = ring_project(multiplier(f, "divergence"), 4)
        assert np.abs(a.data - b.data).max() < 1e-14 * max(np.abs(b.data).max(), 1.0)

    def test_rejects_nonpositive_radius(self, grid2):
        with pytest.raises(ValueError):
            friedrichs_cutoff(random_real_field(grid2), 0.0)


class TestLeray:
    def test_pure_gradient_mode_killed(self, grid2):
        f = single_mode_field(grid2, (1, 0), [1.0, 0.0])
        out = leray_project(f)
        assert np.abs(out.data).max() < 1e-15

    def test_transverse_mode_unchanged(self, grid2):
        f = single_mode_field(grid2, (1, 0), [0.0, 1.0])
        out = leray_project(f)
        assert np.abs(out.data - f.data).max() < 1e-15

    def test_oblique_mode_hand_value(self, grid2):
        # (I - xi xi^T/|xi|^2) @ (1, 0) at xi = (1, 1) is (1/2, -1/2)
        f = single_mode_field(grid2, (1, 1), [1.0, 0.0])
        out = leray_project(f)
        assert abs(out.data[0][1, 1] - 0.5) < 1e-15
        assert abs(out.data[1][1, 1] + 0.5) < 1e-15

    def test_idempotence(self, grid2):
        for seed in range(10):
            f = random_real_field(grid2, 2, seed=seed)
            once = leray_project(f)
            twice = leray_project(once)
            assert l2_norm(twice - once) / l2_norm(f) < 1e-13

    def test_annihilates_gradients(self, grid2):
        for seed in range(10):
            phi = random_real_field(grid2, 1, seed=100 + seed)
            grad = fourier_field(
                grid2,
                np.concatenate(
                    [multiplier(phi, "gradient", ax).data for ax in range(2)]
                ),
            )
            assert l2_norm(leray_project(grad)) / l2_norm(grad) < 1e-13

    def test_output_divergence_free(self, grid2):
        f = random_real_field(grid2, 2, seed=11)
        out = leray_project(f)
        div = multiplier(out, "divergence")
        assert l2_norm(div) / l2_norm(out) < 1e-13

    def test_zero_mode_passes_through(self, grid2):
        f = zeros_field(grid2, 2)
        f.data[0, 0, 0] = 3.0 + 1.0j
        out = leray_project(f)
        assert out.data[0, 0, 0] == 3.0 + 1.0j


class TestMultiplier:
    def test_bracket_zero_is_identity(self, grid2):
        f = random_real_field(grid2, 2, seed=12)
        assert np.array_equal(multiplier(f, "bracket", 0.0).data, f.data)

    def test_fractional_laplacian_on_mode(self, grid2):
        f = single_mode_field(grid2, (2, 0), [1.0])  # |xi|^2 = 4
        out = multiplier(f, "fractional_laplacian", 2.0)
        assert abs(out.data[0][2, 0] - 4.0) < 1e-14

    def test_divergence_of_gradient_is_laplacian(self, grid2):
        phi = random_real_field(grid2, 1, seed=13)
        grad = fourier_field(
            grid2,
            np.concatenate([multiplier(phi, "gradient", ax).data for ax in range(2)]),
        )
        lap = multiplier(grad, "divergence")
        expected = -grid2.ksq * phi.data[0]
        assert np.abs(lap.data[0] - expected).max() < 1e-14 * max(
            1.0, np.abs(expected).max()
        )

    def test_negative_power_needs_mean_zero(self, grid2):
        f = zeros_field(grid2, 1)
        f.data[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            multiplier(f, "fractional_laplacian", -1.0)

    def test_unknown_kind(self, grid2):
        with pytest.raises(ValueError):
            multiplier(random_real_field(grid2), "curl")


class TestDealias:
    def test_band_limited_unchanged(self, grid2):
        f = friedrichs_cutoff(random_real_field(grid2, 2, seed=14), grid2.N / 3.0)
        assert np.array_equal(dealias(f).data, f.data)

    @pytest.mark.parametrize("N", [16, 64])
    def test_survivor_count(self, N):
        g = make_grid(2, N, TWO_PI)
        f = fourier_field(g, np.ones((1,) + g.shape, dtype=np.complex128))
        survivors = np.count_nonzero(dealias(f).data[0])
        per_axis = math.ceil(N / 3.0 * 2.0)
        assert survivors == per_axis**2

    def test_dealiased_product_matches_direct_convolution(self):
        # N = 16, both factors band-limited to |k| <= 5: on that band the
        # pseudo-spectral product equals the exact convolution sum
        g = make_grid(2, 16, TWO_PI)
        K = 5
        rng = np.random.default_rng(42)

        def band_limited(seed_offset):
            arr = np.zeros(g.shape, dtype=np.complex128)
            for k1 in range(-K, K + 1):
                for k2 in range(-K, K + 1):
                    arr[k1 % 16, k2 % 16] = rng.standard_normal() + 1j * rng.standard_normal()
            return arr

        fh, gh = band_limited(0), band_limited(1)
        fp = transform(fourier_field(g, fh[None]), "inverse")
        gp = transform(fourier_field(g, gh[None]), "inverse")
        prod = physical_field(g, fp.data * gp.data)
        ps = dealias(transform(prod, "forward")).data[0]

        # direct linear convolution over the integer lattice (oracle)
        conv = {}
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                for l1 in range(-K, K + 1):
                    for l2 in range(-K, K + 1):
                        key = (k1 + l1, k2 + l2)
                        conv[key] = conv.get(key, 0.0) + fh[k1 % 16, k2 % 16] * gh[l1 % 16, l2 % 16]
        scale = 16.0 ** (2 / 2)  # ortho product rule: hat(fg) = conv / N^{d/2}
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                got = ps[k1 % 16, k2 % 16] * scale
                want = conv.get((k1, k2), 0.0)
                assert abs(got - want) < 1e-11


def complex_transport_oracle(u):
    """P div(u x u) with every transform a complex full-lattice FFT."""
    grid = u.grid
    phys = transform(dealias(u), "inverse")
    div = np.zeros_like(u.data)
    for i in range(grid.d):
        for j in range(grid.d):
            that = np.fft.fftn(phys.data[i] * phys.data[j], norm="ortho")
            div[i] += 1j * grid.axis_frequency(j) * that
    return leray_project(fourier_field(grid, div)).data


class TestProjectedTransport:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_matches_complex_oracle(self, d, N):
        # random real data with Nyquist content; the oracle's Nyquist rows
        # hold aliasing only and are zero in the half-lattice kernel
        grid = make_grid(d, N, TWO_PI)
        u = random_real_field(grid, seed=50 + d)
        got = projected_transport(u).data
        want = complex_transport_oracle(u)
        off = ~grid.nyquist_mask
        scale = np.abs(want[:, off]).max()
        assert np.abs(got[:, off] - want[:, off]).max() <= 1e-12 * scale
        assert np.all(got[:, grid.nyquist_mask] == 0.0)
        assert np.array_equal(conjugate_mirror(got, d), got)


class TestHausdorffYoung:
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_discrete_inequality(self, grid2, p):
        # |fhat|_{p'} <= N^{d(1/p'-1/2)} h^{-d/p} |f|_{L^p} for the unitary DFT
        d, N = grid2.d, grid2.N
        h = grid2.L / N
        pprime = np.inf if p == 1.0 else p / (p - 1.0)
        const = N ** (d * ((0.0 if np.isinf(pprime) else 1.0 / pprime) - 0.5)) * h ** (
            -d / p
        )
        for seed in range(50):
            f = random_real_field(grid2, 1, seed=200 + seed)
            phys = transform(f, "inverse")
            lhs_vals = np.abs(f.data)
            lhs = lhs_vals.max() if np.isinf(pprime) else (lhs_vals**pprime).sum() ** (1 / pprime)
            rhs = const * (grid2.cell_volume * (np.abs(phys.data) ** p).sum()) ** (1 / p)
            assert lhs <= rhs * (1 + 1e-10)


class TestFieldBasics:
    def test_shape_validation(self, grid2):
        with pytest.raises(ValueError):
            fourier_field(grid2, np.zeros((2, 8, 8)))

    def test_arithmetic_checks_space(self, grid2):
        a = zeros_field(grid2, 2, "fourier")
        b = zeros_field(grid2, 2, "physical")
        with pytest.raises(ValueError):
            _ = a + b

    def test_scalar_multiply(self, grid2):
        f = random_real_field(grid2, 2, seed=15)
        assert np.allclose((2.0 * f).data, 2.0 * f.data)
