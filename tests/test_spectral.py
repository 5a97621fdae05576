import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    TWO_PI,
    FullLattice,
    address_space_cap,
    conjugate_mirror,
    cut,
    full_spectrum,
    random_real_field,
    single_mode_field,
    sobolev_norm_oracle,
    traced_peak,
    transport,
    transport_oracle,
    two_thirds_mask,
)
from nsrw.spectral import (
    TransportPlan,
    _band_passes,
    _sum_squares,
    dealias,
    fourier_field,
    friedrichs_cutoff,
    l2_norm,
    leray_project,
    make_grid,
    multiplier,
    physical_field,
    projected_transport_half,
    ring_index,
    ring_partition,
    ring_project,
    sobolev_norm,
    transform,
    zero_mean,
    zero_nyquist,
    zeros_field,
)


class TestGrid:
    def test_integer_lattice_on_2pi_box(self):
        g = make_grid(2, 8, TWO_PI)
        assert sorted(g.k1d.round(12)) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_3d_lattice_size(self):
        # the spectral arrays hold the half lattice, 16 x 16 x 9
        g = make_grid(3, 16, TWO_PI)
        assert g.ksq.shape == g.half_shape == (16, 16, 9)
        assert np.count_nonzero(g.ksq == 0.0) == 1  # zero frequency once

    @pytest.mark.parametrize("L", [TWO_PI, 3.7])
    @pytest.mark.parametrize("d, N", [(2, 16), (2, 42), (3, 16)])
    def test_spectral_arrays_are_the_half_of_the_whole_lattice(self, d, N, L):
        # each array is the whole lattice's on the half, bit for bit
        grid = make_grid(d, N, L)
        full = FullLattice(grid)
        for mine, whole in ((grid.ksq, full.ksq), (grid.kabs, full.kabs),
                            (grid.nyquist_mask, full.nyquist_mask)):
            assert mine.shape == grid.half_shape
            assert np.array_equal(mine, cut(whole, grid))
        for ax in range(d):
            whole = np.broadcast_to(full.axes[ax], grid.shape)
            assert np.array_equal(np.broadcast_to(grid.axis_frequency(ax), grid.half_shape),
                                  cut(whole, grid))

    @pytest.mark.parametrize("L", [TWO_PI, 5.0])
    @pytest.mark.parametrize("N", [8, 42, 64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_ksq_shells_give_ksq_bit_for_bit(self, d, N, L):
        # ksq and each mode's shell are the axes' sum of squares, bit for
        # bit, on strictly increasing read-only shells; the index is kept
        # writeable, since np.take copies a read-only one. Rounding splits
        # modes of equal integer |k|^2 into separate shells (at N = 64, 506
        # shells for 457 integer values at d=2 and L = 2 pi, 526 at L = 5)
        grid = make_grid(d, N, L)
        want = _sum_squares(grid.axis_frequency(ax) for ax in range(d))
        shells, index = grid.ksq_shells
        assert index.dtype == np.intp and index.shape == grid.half_shape
        assert np.all(np.diff(shells) > 0)
        assert np.array_equal(grid.ksq, want)
        assert np.array_equal(shells[index], want)
        assert not shells.flags.writeable and index.flags.writeable
        assert grid.ksq_shells[1] is index

    @pytest.mark.parametrize(
        "d,N,L", [(2, 7, 1.0), (2, 6, 1.0), (4, 8, 1.0), (1, 8, 1.0), (2, 8, 0.0), (2, 8, -1.0),
                  (2, 16, math.inf), (2, 16, math.nan)]
    )
    def test_rejects_bad_parameters(self, d, N, L):
        # at L = inf every frequency would be 0 and the cell volume inf
        with pytest.raises(ValueError):
            make_grid(d, N, L)

    def test_derived_arrays_built_on_first_use(self):
        # a grid that only names a shape holds no lattice array (4.5 MiB at
        # d=3 N=64 when each grid built all five); equality and hashing read
        # (d, N, L) alone, whichever arrays a grid has built
        grid, peak = traced_peak(lambda: make_grid(3, 64, TWO_PI))
        assert peak < 2**12
        other = make_grid(3, 64, TWO_PI)
        assert other.dealias_radius == 21 and other.nyquist_mask.any()
        assert grid == other and hash(grid) == hash(other)
        ksq = other.ksq
        # reading |xi|^2, |xi| and the Parseval weight leaves the grid
        # holding none of them as a lattice array (1.1 MiB each here):
        # |xi|^2 and |xi| are formed on each access, the weight is one
        # (N/2 + 1,) vector
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            assert np.array_equal(other.ksq, ksq)
            assert np.array_equal(other.kabs, np.sqrt(ksq))
            assert other.weight.shape == other.half_shape
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base < 2**12

    @pytest.mark.parametrize("d, N", [(2, 8), (2, 42), (3, 16)])
    def test_parseval_weight_is_a_read_only_vector(self, d, N):
        # 1 on the self-mirrored planes 0 and N/2, 2 elsewhere, bit for bit
        # the lattice array it replaces, and not writable through the grid
        grid = make_grid(d, N, TWO_PI)
        weight = np.full(grid.half_shape, 2.0)
        weight[..., 0] = 1.0
        weight[..., -1] = 1.0
        assert np.array_equal(grid.weight, weight)
        assert not grid.weight.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.weight[(0,) * d] = 2.0

    @pytest.mark.parametrize("N", [8, 10, 30, 64, 2**20])
    def test_frequencies_are_fftfreqs(self, N):
        # k1d is 2 pi fftfreq bit for bit, and a single frequency taken by its
        # signed index is the one k1d holds for it
        for L in (TWO_PI, 1.0, 3.7, 100.0, 0.3):
            grid = make_grid(2, N, L)
            assert np.array_equal(grid.k1d, 2.0 * np.pi * np.fft.fftfreq(N, d=L / N))
            for i in (0, 1, 3, N // 2 - 1, N // 2, N // 2 + 1, N - 1):
                assert grid.frequencies(i if i < N // 2 else i - N) == grid.k1d[i]

    def test_nyquist_mask_marks_minus_half_rows(self):
        g = make_grid(2, 8, TWO_PI)
        assert g.nyquist_mask[4, 0] and g.nyquist_mask[0, 4] and g.nyquist_mask[4, 4]
        assert not g.nyquist_mask[0, 0] and not g.nyquist_mask[3, 3]
        # all surviving frequencies have their negatives on the lattice: 7
        # rows by 4 planes of the half, 7 x 7 of the whole lattice
        keep = ~g.nyquist_mask
        assert keep.sum() == 7 * 4
        assert np.sum(g.weight * keep) == 7 * 7


class TestTransform:
    def test_constant_field_concentrates_at_zero(self, grid2):
        phys = physical_field(grid2, np.ones((1,) + grid2.shape))
        fh = transform(phys, "forward")
        coeffs = fh.data[0].copy()
        assert abs(coeffs[0, 0] - grid2.N) < 1e-12  # ortho: N^{d/2} * 1
        coeffs[0, 0] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_single_plane_wave(self, grid2):
        # cos x puts N/2 on the modes (+-1, 0), both on the plane 0; sin y
        # puts -i N/2 on (0, 1), which the half holds for (0, -1) as well
        x, y = grid2.coordinates()
        phys = physical_field(grid2, np.stack([np.cos(x), np.sin(y)]))
        fh = transform(phys, "forward")
        for c, modes, value in ((0, [(1, 0), (-1, 0)], grid2.N / 2),
                                (1, [(0, 1)], -0.5j * grid2.N)):
            mask = np.zeros(grid2.half_shape, dtype=bool)
            for m in modes:
                mask[m] = True
                assert abs(fh.data[c][m] - value) < 1e-10
            assert np.abs(fh.data[c][~mask]).max() < 1e-12

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
            for j, kj in enumerate(k[: grid2.N // 2 + 1]):
                ksq = ki * ki + kj * kj
                assert part.index_of[i, j] == ksq + 1  # n-1 <= |xi|^2 < n

    def test_partition_matches_integer_oracle_3d(self, grid3):
        part = ring_partition(grid3)
        k = np.fft.fftfreq(grid3.N, 1.0 / grid3.N).astype(int)
        for i, ki in enumerate(k):
            for j, kj in enumerate(k):
                for l, kl in enumerate(k[: grid3.N // 2 + 1]):
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
        # the weighted half-lattice count is the whole lattice's, ring by ring
        part = ring_partition(grid2_mid)
        assert part.occupancy().sum() == grid2_mid.N**2
        assert part.index_of.min() == 1
        full = np.floor(FullLattice(grid2_mid).ksq + 0.5).astype(int) + 1
        assert np.array_equal(part.occupancy(), np.bincount(full.ravel() - 1))


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

    def test_copying_operators_leave_their_input_unchanged(self, grid3):
        # the public operators copy, then run the in-place cores the data
        # construction uses
        f = random_real_field(grid3, 3, seed=12)
        before = f.data.copy()
        for op in (leray_project, zero_nyquist, zero_mean):
            out = op(f)
            assert out.data is not f.data
            assert np.array_equal(f.data, before)


def plane_asymmetry_oracle(h, d):
    """Grid.plane_asymmetry of a whole half array, its largest |h|
    over the whole array at once."""
    scale = np.abs(h).max()
    if scale == 0.0:
        return 0.0
    worst = max(np.abs(conjugate_mirror(h[..., p], d - 1) - h[..., p]).max() for p in (0, -1))
    return float(worst / scale)


class TestReductions:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
    def test_componentwise_maxima_match_whole_array(self, d, N, lead):
        # the max of the per-component maxima is the whole array's max, so
        # the value is the same to the bit, real fields or not
        grid = make_grid(d, N, TWO_PI)
        rng = np.random.default_rng(len(lead))
        shape = lead + grid.half_shape
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        real = np.fft.rfftn(rng.standard_normal(lead + grid.shape),
                            axes=tuple(range(len(lead), len(lead) + d)))
        for x in (a, real, np.zeros(shape, dtype=np.complex128)):
            assert grid.plane_asymmetry(x) == plane_asymmetry_oracle(x, d)

    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("s", [-0.25, 0.0, 1.0])
    def test_sobolev_norm_matches_whole_array(self, d, N, s):
        # the weighted half-lattice sum, and the whole lattice's to rounding
        grid = make_grid(d, N, TWO_PI)
        f = random_real_field(grid, d, seed=3)
        assert sobolev_norm(f, s) == sobolev_norm_oracle(f, s)
        full = full_spectrum(f.data, grid)
        w = (1.0 + FullLattice(grid).ksq) ** s
        want = np.sqrt(grid.cell_volume * np.sum(w * np.abs(full) ** 2))
        assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-14)


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
        # counted over the whole lattice: each half-lattice mode with its
        # Parseval weight
        g = make_grid(2, N, TWO_PI)
        f = fourier_field(g, np.ones((1,) + g.half_shape, dtype=np.complex128))
        survivors = np.sum(g.weight * (dealias(f).data[0] != 0))
        per_axis = math.ceil(N / 3.0 * 2.0)
        assert survivors == per_axis**2

    def test_dealiased_product_matches_direct_convolution(self):
        # N = 16, both factors band-limited to |k| <= 5: on that band the
        # pseudo-spectral product equals the exact convolution sum
        # the factors are real fields, their whole-lattice spectra
        # conjugate-symmetric; the half holds the product's k2 >= 0 modes
        g = make_grid(2, 16, TWO_PI)
        K = 5
        rng = np.random.default_rng(42)

        def band_limited(seed_offset):
            arr = np.zeros(g.shape, dtype=np.complex128)
            for k1 in range(-K, K + 1):
                for k2 in range(-K, K + 1):
                    arr[k1 % 16, k2 % 16] = rng.standard_normal() + 1j * rng.standard_normal()
            return 0.5 * (arr + conjugate_mirror(arr, 2))

        fh, gh = band_limited(0), band_limited(1)
        fp = transform(fourier_field(g, cut(fh, g)[None]), "inverse")
        gp = transform(fourier_field(g, cut(gh, g)[None]), "inverse")
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
            for k2 in range(K + 1):
                got = ps[k1 % 16, k2] * scale
                want = conv.get((k1, k2), 0.0)
                assert abs(got - want) < 1e-11


def complex_transport_oracle(u):
    """P div(u x u) with every transform a complex whole-lattice FFT, on the
    whole spectrum of u, cut to the half lattice."""
    grid = u.grid
    full = FullLattice(grid)
    kcut = (grid.N / 3.0) * (2.0 * np.pi / grid.L)
    keep = np.ones(grid.shape, dtype=bool)
    for a in full.axes:
        keep &= np.abs(a) <= kcut
    axes = tuple(range(1, grid.d + 1))
    phys = np.fft.ifftn(full_spectrum(u.data, grid) * keep, axes=axes, norm="ortho")
    div = np.zeros_like(phys)
    for i in range(grid.d):
        for j in range(grid.d):
            that = np.fft.fftn(phys[i] * phys[j], norm="ortho")
            div[i] += 1j * full.axes[j] * that
    dot = sum(a * c for a, c in zip(full.axes, div)) / np.where(full.ksq == 0.0, 1.0, full.ksq)
    return cut(np.stack([div[i] - full.axes[i] * dot for i in range(grid.d)]), grid)


def axis_radius(mask):
    """The largest |k| of the lattice modes a half-lattice mask keeps on its
    first axis (FFT order), read off the mask itself."""
    row = mask[(slice(None),) + (0,) * (mask.ndim - 1)]
    k = np.arange(row.size)
    return int(np.minimum(k, row.size - k)[row].max())


class TestBoxRadiusMasks:
    @pytest.mark.parametrize("L", [TWO_PI, 1.0, 7.3])
    @pytest.mark.parametrize("d, N_max", [(2, 258), (3, 64)])
    def test_two_thirds_band_and_nyquist_rows_match_per_axis_masks(self, d, N_max, L):
        # read off the box radius, the 2/3 band and the Nyquist rows are the
        # per-axis masks bit for bit, and the band's radius is the one its
        # mask keeps, also where N/3 rounds out of it (N = 42 at L = 2 pi)
        for N in range(8, N_max + 1, 2):
            grid = make_grid(d, N, L)
            keep = two_thirds_mask(grid)
            assert grid.dealias_radius == axis_radius(keep)
            assert np.array_equal(grid.box_radius() <= grid.dealias_radius, keep)
            nyquist = np.zeros(grid.half_shape, dtype=bool)
            for ax in range(d):
                nyquist |= grid.axis_frequency(ax) == grid.k1d[N // 2]
            assert np.array_equal(grid.nyquist_mask, nyquist)


class TestBands:
    @pytest.mark.parametrize("N", [16, 24, 42, 48])
    @pytest.mark.parametrize("d", [2, 3])
    def test_band_is_the_cube_in_fft_order(self, d, N):
        grid = make_grid(d, N, TWO_PI)
        labels = np.indices(grid.half_shape)
        for k in (0, 1, N // 4 - 1, N // 3, N // 2):
            rows = [i for i in range(N) if min(i, N - i) <= k]
            last = [j for j in range(N // 2 + 1) if j <= k]
            got = labels[(slice(None), *grid.band(k))]
            assert got.shape == (d,) + (len(rows),) * (d - 1) + (len(last),)
            want = list(itertools.product(*([rows] * (d - 1) + [last])))
            assert np.array_equal(got.reshape(d, -1).T, want)
            # rows 0..k then -k..-1; the whole axis once 2k + 1 >= N; the
            # last axis capped at N/2
            freq = np.rint(grid.axis_frequency(0)[(slice(None),) + (0,) * (d - 1)]).astype(int)
            if 2 * k + 1 < N:
                assert freq[rows].tolist() == list(range(k + 1)) + list(range(-k, 0))
            else:
                assert len(rows) == N
            assert len(last) == min(k, N // 2) + 1

    @pytest.mark.parametrize("d, N", [(2, 16), (3, 16)])
    def test_symmetrize_is_the_half_of_the_full_spectrum(self, d, N):
        # an arbitrary complex half array: planes 0 and N/2 asymmetric; its
        # whole-lattice spectrum averages them with their mirror images
        grid = make_grid(d, N, TWO_PI)
        rng = np.random.default_rng(d)
        shape = (d,) + grid.half_shape
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert grid.plane_asymmetry(h) > 0.1
        sym = grid.symmetrize(h)
        full = full_spectrum(h, grid)
        assert np.array_equal(sym, cut(full, grid))
        assert np.array_equal(sym[..., 1:-1], h[..., 1:-1])
        assert grid.plane_asymmetry(sym) == 0.0
        assert np.array_equal(conjugate_mirror(full, d), full)

    @pytest.mark.parametrize("d, N", [(2, 16), (3, 16), (3, 24)])
    def test_band_arrays_scatter_and_symmetrize_on_their_cube(self, d, N):
        # a band array of radius k < N/2 holds plane 0 but not plane N/2;
        # symmetrizing it gives the cube of the symmetrized scatter, bit for
        # bit, because the mirror of a cube row lies in the cube
        grid = make_grid(d, N, TWO_PI)
        rng = np.random.default_rng(10 + d)
        for k in (0, 1, N // 4, N // 2 - 1):
            shape = (d,) + (2 * k + 1,) * (d - 1) + (k + 1,)
            h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            band = (slice(None), *grid.band(k))
            full = grid.scatter(h)
            assert np.array_equal(full[band], h)
            full[band] = 0.0
            assert not full.any()
            assert grid.plane_asymmetry(h) == grid.plane_asymmetry(grid.scatter(h))
            sym = grid.symmetrize(h)
            assert np.array_equal(sym, grid.symmetrize(grid.scatter(h))[band])
            assert np.array_equal(grid.scatter(sym), grid.symmetrize(grid.scatter(sym)))
            assert grid.plane_asymmetry(sym) == 0.0

    @pytest.mark.parametrize("L", [TWO_PI, 1.0, 3.7, 100.0])
    @pytest.mark.parametrize("d, N", [(2, 16), (2, 44), (3, 16), (3, 32)])
    def test_band_kabs_and_ball_radius_match_the_whole_lattice(self, d, N, L):
        # |xi| on a cube, formed from its rows, is the whole lattice's |xi|
        # there bit for bit, and the ball's radius read off the 1-D
        # frequencies is axis_radius of the whole lattice's ball: the
        # stepper's and the checkpoint's masks come from these
        grid = make_grid(d, N, L)
        kabs = grid.kabs
        for k in range(N // 2 + 2):
            assert np.array_equal(grid.band_kabs(k), kabs[grid.band(k)])
        for cutoff in np.linspace(1e-3, 1.8 * grid.kmax, 41):
            assert grid.ball_radius(cutoff) == axis_radius(kabs < cutoff)
            # over all d axes: the largest cube the ball holds whole
            m = grid.ball_radius(cutoff, axes=d)
            assert (kabs[grid.band(m)] < cutoff).all()
            assert m == N // 2 or not (kabs[grid.band(m + 1)] < cutoff).all()
        # a cutoff on a lattice frequency leaves that frequency outside
        step = 2.0 * np.pi / L
        assert grid.ball_radius(3 * step) == axis_radius(kabs < 3 * step)

    def test_band_kabs_builds_no_half_lattice_array(self):
        grid = make_grid(3, 128, TWO_PI)
        kabs, peak = traced_peak(lambda: grid.band_kabs(7))
        assert kabs.shape == (15, 15, 8) and peak < 20 * kabs.nbytes

    def test_huge_grid_builds_no_lattice_array(self):
        # the cube's |xi| and the ball's radii come from the frequencies they
        # need, so a grid of 2^30 points per axis (8 GiB for k1d alone) gives
        # them within the cube's own size, equal to a small grid's of the
        # same period
        huge, small = make_grid(3, 2**30, 4 * TWO_PI), make_grid(3, 64, 4 * TWO_PI)
        with address_space_cap():
            (kabs, k, m), peak = traced_peak(lambda: (
                huge.band_kabs(7), huge.ball_radius(2.0), huge.ball_radius(2.0, 3)))
        assert kabs.shape == (15, 15, 8) and peak < 20 * kabs.nbytes
        assert np.array_equal(kabs, small.band_kabs(7))
        assert (k, m) == (small.ball_radius(2.0), small.ball_radius(2.0, 3)) == (7, 4)


class TestDivergenceRatio:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_half_lattice_matches_full_lattice(self, d, N):
        # random real fields with Nyquist content on the last axis, which the
        # half lattice stores as its own plane N/2. The leading axes' Nyquist
        # rows are zeroed: there the full lattice's symbol i xi takes
        # xi = -N/2 on both mirror sides, so it is not odd and the two sums
        # differ (by about 1e-3 relative for these fields).
        grid = make_grid(d, N, TWO_PI)
        full = FullLattice(grid)
        for seed in range(4):
            f = random_real_field(grid, seed=60 + seed)
            for ax in range(d - 1):
                f.data[(slice(None),) * (ax + 1) + (N // 2,)] = 0.0
            assert np.abs(f.data[..., N // 2]).max() > 1.0
            a = full_spectrum(f.data, grid)
            div = sum(1j * k * c for k, c in zip(full.axes, a))
            want = np.sqrt(np.sum(np.abs(div) ** 2) / np.sum(np.abs(a) ** 2))
            assert grid.divergence_ratio(f.data) == pytest.approx(want, rel=1e-12)
        # 0/0 is 0
        assert grid.divergence_ratio(np.zeros((d,) + grid.half_shape, dtype=np.complex128)) == 0.0


class TestProjectedTransport:
    @pytest.mark.parametrize("d, N", [(2, 32), (3, 16)])
    def test_matches_complex_oracle(self, d, N):
        # random real data with Nyquist content; the oracle's Nyquist rows
        # hold aliasing only and are zero in the half-lattice kernel
        grid = make_grid(d, N, TWO_PI)
        u = random_real_field(grid, seed=50 + d)
        got = transport(u)
        want = complex_transport_oracle(u)
        off = ~grid.nyquist_mask
        scale = np.abs(want[:, off]).max()
        assert np.abs(got[:, off] - want[:, off]).max() <= 1e-12 * scale
        assert np.all(got[:, grid.nyquist_mask] == 0.0)
        assert grid.plane_asymmetry(got) <= 1e-15


    @pytest.mark.parametrize("band", ["default", "ball"])
    @pytest.mark.parametrize("N", [16, 24, 32, 42, 48])
    @pytest.mark.parametrize("d", [2, 3])
    def test_planned_kernel_matches_unpruned_to_the_bit(self, d, N, band):
        # one plan serves three inputs with content on every mode of its
        # input band, Nyquist rows included, so a buffer left dirty by one
        # call shows in the next. The ball band is the stepper's: input and
        # output on the cube |k_i| <= k_max of the cutoff N/4, which the
        # oracle reads as an input that is signed zeros off the cube, the
        # mask products that cut the stepper's fields. The default band is
        # the 2/3 mask's: at N = 42 the mode 14 = N/3 rounds out of it
        grid = make_grid(d, N, TWO_PI)
        shape = (d,) + grid.half_shape
        if band == "default":
            plan = TransportPlan(grid)
            out_band = grid.band(N // 2)
        else:
            k = math.ceil(N / 4) - 1
            plan = TransportPlan(grid, k_in=k, k_out=k)
            out_band = grid.band(k)

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        rng = np.random.default_rng(90 + 10 * d + N)
        for _ in range(3):
            uh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u_band = uh[(slice(None), *plan.in_band)]
            if band == "default":
                want = transport_oracle(uh, grid)
            else:
                on_cube = uh * 0.0
                on_cube[(slice(None), *out_band)] = u_band
                want = transport_oracle(on_cube, grid)
            got = projected_transport_half(u_band, plan)
            assert np.array_equal(bits(got), bits(want[(slice(None), *out_band)]))
            # written over a dirty out, the result is out with the same bits
            out = np.full_like(got, np.nan)
            assert projected_transport_half(u_band, plan, out=out) is out
            assert np.array_equal(bits(out), bits(got))

    @pytest.mark.parametrize("band", ["default", "ball"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_plan_counts_the_lines_it_transforms(self, monkeypatch, d, band):
        # every 1-D transform numpy runs for the kernel is counted, where it
        # runs. At d=2 N=16 the default bands run ifft on 2 x 6 lines, irfft
        # on 2 x 16, rfft on 3 x 16 and fft on 3 x 9 per call; the ball's
        # cube |k_i| <= 3 cuts the first to 2 x 4 and the last to 3 x 4
        grid = make_grid(d, 16, TWO_PI)
        plan = TransportPlan(grid) if band == "default" else TransportPlan(grid, k_in=3, k_out=3)
        ran = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(a, *args, axis=-1, _run=getattr(np.fft, name), **kwargs):
                ran.append(a.size // a.shape[axis])
                return _run(a, *args, axis=axis, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        u_band = random_real_field(grid, seed=5).data[(slice(None), *plan.in_band)]
        for _ in range(3):
            projected_transport_half(u_band, plan)
        assert plan.calls == 3
        assert sum(ran) == plan.fft_lines
        if d == 2:
            assert plan.fft_lines == 3 * (119 if band == "default" else 100)

    def test_output_assembly_makes_no_temporaries(self):
        # at d=3 N=16 one output component on the default bands is 36,864
        # bytes. With complex frequency rows and the products formed in the
        # plan's spent spectrum slots a call holds 38.8 kB above its start,
        # the cast buffer of dot *= inv_ksq; with real rows and a temporary
        # per product it held 112 kB, three components
        grid = make_grid(3, 16, TWO_PI)
        plan = TransportPlan(grid)
        u_band = random_real_field(grid, seed=6).data[(slice(None), *plan.in_band)]
        out = np.empty((3,) + grid.half_shape, dtype=np.complex128)
        want = projected_transport_half(u_band, plan).copy()
        got, peak = traced_peak(lambda: projected_transport_half(u_band, plan, out=out))
        assert np.array_equal(got, want)
        assert peak < 2 * math.prod(grid.half_shape) * 16


class TestBandPasses:
    """_band_passes, the pruned leading-axis passes the transport kernel and
    the heat sweeps share, against numpy's whole-array transforms."""

    @staticmethod
    def counted(fft, ran):
        def run(a, *args, axis=-1, **kwargs):
            ran.append(a.size // a.shape[axis])
            return fft(a, *args, axis=axis, **kwargs)
        return run

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @pytest.mark.parametrize("k", [0, 3, 7, 8])
    @pytest.mark.parametrize("d", [2, 3])
    def test_ifft_passes_then_irfft_are_irfftn(self, d, k):
        # a random half spectrum that is zero off the cube |k_i| <= k
        N = 16
        grid = make_grid(d, N, TWO_PI)
        rng = np.random.default_rng(40 + 10 * d + k)
        cube = (slice(None), *grid.band(k))
        h = np.zeros((2,) + grid.half_shape, dtype=np.complex128)
        h[cube] = rng.standard_normal(h[cube].shape) + 1j * rng.standard_normal(h[cube].shape)
        buf = h.copy()
        ran = []
        lines = _band_passes(buf, k, range(1, d), self.counted(np.fft.ifft, ran))
        got = np.fft.irfft(buf, n=N, axis=d, norm="ortho")
        want = np.fft.irfftn(h, s=grid.shape, axes=range(1, d + 1), norm="ortho")
        assert np.array_equal(self.bits(got), self.bits(want))
        assert lines == sum(ran) > 0

    @pytest.mark.parametrize("k", [0, 3, 7, 8])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rfft_then_fft_passes_are_rfftn_on_the_cube(self, d, k):
        N = 16
        grid = make_grid(d, N, TWO_PI)
        x = np.random.default_rng(60 + 10 * d + k).standard_normal((3,) + grid.shape)
        buf = np.fft.rfft(x, axis=d, norm="ortho")
        ran = []
        lines = _band_passes(buf, k, range(d - 1, 0, -1), self.counted(np.fft.fft, ran))
        want = np.fft.rfftn(x, axes=range(1, d + 1), norm="ortho")
        cube = (slice(None), *grid.band(k))
        assert np.array_equal(self.bits(buf[cube]), self.bits(want[cube]))
        assert lines == sum(ran) > 0
        if k == N // 2:
            # the cube is the whole half lattice: every line is transformed
            assert lines == (d - 1) * (buf.size // N)


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
            # the whole lattice's sum, each half-lattice mode with its weight
            lhs_vals = np.abs(f.data)
            lhs = (lhs_vals.max() if np.isinf(pprime)
                   else (grid2.weight * lhs_vals**pprime).sum() ** (1 / pprime))
            rhs = const * (grid2.cell_volume * (np.abs(phys.data) ** p).sum()) ** (1 / p)
            assert lhs <= rhs * (1 + 1e-10)


class TestFieldBasics:
    def test_shape_validation(self, grid2):
        with pytest.raises(ValueError):
            fourier_field(grid2, np.zeros((2, 8, 8)))
        # a fourier-space field is the half lattice, not the whole one
        with pytest.raises(ValueError, match=r"does not match the grid's \(16, 9\)"):
            fourier_field(grid2, np.zeros((2, 16, 16), dtype=np.complex128))
        with pytest.raises(ValueError, match="physical-space data must be real"):
            physical_field(grid2, np.zeros((2, 16, 16), dtype=np.complex128))

    def test_arithmetic_checks_space(self, grid2):
        a = zeros_field(grid2, 2, "fourier")
        b = zeros_field(grid2, 2, "physical")
        with pytest.raises(ValueError):
            _ = a + b

    def test_scalar_multiply(self, grid2):
        f = random_real_field(grid2, 2, seed=15)
        assert np.allclose((2.0 * f).data, 2.0 * f.data)
