import tracemalloc

import numpy as np
import pytest

from gaussphase import (
    DimensionError,
    GridAdequacyWarning,
    PhaseSpaceGrid,
    SampledWavefunction,
    centered_grid,
    coherent,
    eval_fock,
    eval_gaussian,
    marginal_p,
    marginal_q,
    normalization,
    oscillator_eigenfunction,
    overlap,
    purity_and_bounds,
    squeezed_vacuum,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    wigner_from_wavefunction,
)

GRID = centered_grid(6.0, 201)
ORIGIN = (100, 100)


def sampled_eigenfunction(n, x_half=9.0, dx=0.005, hbar=1.0):
    x = np.linspace(-x_half, x_half, int(round(2 * x_half / dx)) + 1)
    return SampledWavefunction(
        x_min=-x_half, x_max=x_half, psi=oscillator_eigenfunction(n, x, hbar)
    )


class TestEvalGaussian:
    def test_vacuum_peak(self):
        w = eval_gaussian(vacuum(1), GRID)
        assert w.values[ORIGIN] == pytest.approx(1.0 / np.pi, abs=1e-14)

    def test_vacuum_normalization(self):
        assert normalization(eval_gaussian(vacuum(1), GRID)) == pytest.approx(1.0, abs=1e-9)

    def test_coherent_peak_location_and_height(self):
        lam = 1.0 + 1.0j
        w = eval_gaussian(coherent(lam), centered_grid(7.0, 281))
        i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
        assert w.grid.q[i] == pytest.approx(np.sqrt(2) * lam.real, abs=0.06)
        assert w.grid.p[j] == pytest.approx(np.sqrt(2) * lam.imag, abs=0.06)
        assert np.max(w.values) == pytest.approx(1.0 / np.pi, rel=1e-3)

    def test_thermal_origin_value(self):
        w = eval_gaussian(thermal(2.0), centered_grid(9.0, 301))
        # oracle: closed-form substitution, 1/(pi sqrt(det(2 I)))
        assert w.values[150, 150] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-14)

    def test_gaussian_wigner_nonnegative(self):
        w = eval_gaussian(squeezed_vacuum(1.0, 0.7), centered_grid(14.0, 301))
        assert np.min(w.values) >= -1e-6

    def test_multimode_rejected(self):
        with pytest.raises(DimensionError):
            eval_gaussian(two_mode_squeezed_vacuum(0.5), GRID)

    def test_narrow_grid_warns(self):
        with pytest.warns(GridAdequacyWarning):
            eval_gaussian(thermal(5.0), centered_grid(2.0, 51))

    def test_hbar_scaling(self):
        hbar = 2.0
        grid = centered_grid(8.0, 241, hbar=hbar)
        w = eval_gaussian(vacuum(1), grid)
        assert w.values[120, 120] == pytest.approx(1.0 / (np.pi * hbar), abs=1e-14)
        assert normalization(w) == pytest.approx(1.0, abs=1e-9)


class TestEvalFock:
    def test_n_zero_equals_vacuum_gaussian(self):
        w_fock = eval_fock(0, GRID)
        w_gauss = eval_gaussian(vacuum(1), GRID)
        assert np.max(np.abs(w_fock.values - w_gauss.values)) < 1e-12

    def test_n_one_origin_value(self):
        w = eval_fock(1, GRID)
        assert w.values[ORIGIN] == pytest.approx(-1.0 / np.pi, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_normalization(self, n):
        grid = centered_grid(6.0 + 2.0 * n, 301)
        assert normalization(eval_fock(n, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_bound_respected(self):
        for n in range(6):
            w = eval_fock(n, GRID)
            assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-6

    def test_large_n_stable(self):
        grid = centered_grid(25.0, 101)
        w = eval_fock(200, grid)
        assert np.all(np.isfinite(w.values))

    def test_beyond_stable_range_rejected(self):
        with pytest.raises(ValueError):
            eval_fock(201, GRID)

    def test_hbar_two(self):
        grid = centered_grid(9.0, 301, hbar=2.0)
        w = eval_fock(1, grid)
        assert w.values[150, 150] == pytest.approx(-1.0 / (2.0 * np.pi), abs=1e-14)
        assert normalization(w) == pytest.approx(1.0, abs=1e-6)


class TestMarginals:
    def test_vacuum_marginal_is_unit_gaussian(self):
        w = eval_gaussian(vacuum(1), GRID)
        # oracle: closed-form Gaussian integral of W over p
        expected = np.exp(-GRID.q**2) / np.sqrt(np.pi)
        assert np.max(np.abs(marginal_q(w) - expected)) < 1e-9

    def test_fock_one_marginal_matches_wavefunction(self):
        w = eval_fock(1, GRID)
        marg = marginal_q(w)
        psi1 = oscillator_eigenfunction(1, GRID.q)
        assert np.max(np.abs(marg - np.abs(psi1) ** 2)) < 1e-9
        assert np.min(marg) >= -1e-12

    def test_marginals_integrate_to_normalization(self):
        w = eval_fock(2, centered_grid(10.0, 301))
        total = normalization(w)
        assert np.trapezoid(marginal_q(w), w.grid.q) == pytest.approx(total, abs=1e-12)
        assert np.trapezoid(marginal_p(w), w.grid.p) == pytest.approx(total, abs=1e-12)


class TestOverlap:
    def test_vacuum_self_overlap(self):
        w = eval_gaussian(vacuum(1), GRID)
        assert overlap(w, w) == pytest.approx(1.0, abs=1e-6)

    def test_fock_zero_one_orthogonal(self):
        w0, w1 = eval_fock(0, GRID), eval_fock(1, GRID)
        assert abs(overlap(w0, w1)) < 1e-6

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0 + 0.8j])
    def test_coherent_overlap_exponential(self, beta):
        grid = centered_grid(8.0, 321)
        w0 = eval_gaussian(coherent(0.0), grid)
        wb = eval_gaussian(coherent(beta), grid)
        assert overlap(w0, wb) == pytest.approx(np.exp(-abs(beta) ** 2), abs=1e-6)

    def test_fock_pairs_kronecker_delta(self):
        grid = centered_grid(12.0, 401)
        ws = [eval_fock(n, grid) for n in range(6)]
        for m in range(6):
            for n in range(6):
                expected = 1.0 if m == n else 0.0
                assert overlap(ws[m], ws[n]) == pytest.approx(expected, abs=1e-5)

    def test_grid_mismatch_rejected(self):
        w1 = eval_fock(0, GRID)
        w2 = eval_fock(0, centered_grid(5.0, 201))
        with pytest.raises(DimensionError):
            overlap(w1, w2)

    def test_small_scale_mismatch_rejected(self):
        # absolute 1e-8 tolerances took these for one grid, and the overlap read 7.58
        w1 = eval_gaussian(vacuum(1), centered_grid(1e-16, 5, hbar=1.05e-34))
        w2 = eval_gaussian(vacuum(1), centered_grid(3e-16, 5, hbar=2.1e-34))
        with pytest.raises(DimensionError):
            overlap(w1, w2)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_matches_is_relative_at_every_scale(self, scale):
        grid = centered_grid(3.0 * scale, 5, hbar=scale**2)
        near = centered_grid(3.0 * scale * (1 + 1e-9), 5, hbar=scale**2 * (1 + 1e-9))
        far_bounds = centered_grid(3.3 * scale, 5, hbar=scale**2)
        far_hbar = centered_grid(3.0 * scale, 5, hbar=1.1 * scale**2)
        assert grid.matches(near) and near.matches(grid)
        assert not grid.matches(far_bounds) and not far_bounds.matches(grid)
        assert not grid.matches(far_hbar) and not far_hbar.matches(grid)

    def test_matches_refuses_bounds_whose_difference_overflows(self):
        # numpy scalar bounds: an overflowing difference must neither warn nor match
        low = PhaseSpaceGrid(np.float64(-1.7e308), np.float64(0.0), -1.0, 1.0, 3, 3)
        high = PhaseSpaceGrid(np.float64(1.7e308), np.float64(1.79e308), -1.0, 1.0, 3, 3)
        assert not low.matches(high) and not high.matches(low)


class TestPurityAndBounds:
    def test_vacuum(self):
        report = purity_and_bounds(eval_gaussian(vacuum(1), GRID))
        assert report.purity_integral == pytest.approx(1.0, abs=1e-6)
        assert report.min_value >= 0.0
        assert report.negativity_volume == 0.0

    def test_fock_one_negativity(self):
        report = purity_and_bounds(eval_fock(1, GRID))
        assert report.min_value < -0.3
        assert report.negativity_volume > 0.1
        assert report.max_abs <= 1.0 / np.pi + 1e-6

    def test_thermal_purity(self):
        report = purity_and_bounds(eval_gaussian(thermal(2.0), centered_grid(9.0, 301)))
        assert report.purity_integral == pytest.approx(0.5, abs=1e-6)


class TestWignerFromWavefunction:
    def test_ground_state_matches_fock_zero(self):
        w = wigner_from_wavefunction(sampled_eigenfunction(0), GRID)
        assert np.max(np.abs(w.values - eval_fock(0, GRID).values)) < 1e-6

    def test_first_excited_matches_fock_one(self):
        w = wigner_from_wavefunction(sampled_eigenfunction(1), GRID)
        assert np.max(np.abs(w.values - eval_fock(1, GRID).values)) < 1e-5

    def test_displaced_gaussian_matches_coherent(self):
        alpha = 0.9
        x = np.arange(-9.0, 9.0 + 1e-9, 0.005)
        psi = oscillator_eigenfunction(0, x - np.sqrt(2.0) * alpha)
        sampled = SampledWavefunction(x_min=-9.0, x_max=9.0, psi=psi)
        w = wigner_from_wavefunction(sampled, GRID)
        expected = eval_gaussian(coherent(alpha), GRID)
        assert np.max(np.abs(w.values - expected.values)) < 1e-6

    def test_complex_phase_gives_momentum_displacement(self):
        # e^{i p0 x} psi_0 displaces the Wigner function in momentum
        p0 = 1.1
        x = np.arange(-9.0, 9.0 + 1e-9, 0.005)
        psi = oscillator_eigenfunction(0, x) * np.exp(1j * p0 * x)
        sampled = SampledWavefunction(x_min=-9.0, x_max=9.0, psi=psi)
        w = wigner_from_wavefunction(sampled, GRID)
        expected = eval_gaussian(coherent(1j * p0 / np.sqrt(2.0)), GRID)
        assert np.max(np.abs(w.values - expected.values)) < 1e-5

    @pytest.mark.parametrize("n", range(4))
    def test_hbar_two_matches_fock(self, n):
        grid = centered_grid(8.0, 81, hbar=2.0)
        w = wigner_from_wavefunction(sampled_eigenfunction(n, x_half=12.0, hbar=2.0), grid)
        assert np.max(np.abs(w.values - eval_fock(n, grid).values)) < 1e-5

    def test_grid_outside_window_rejected(self):
        psi = sampled_eigenfunction(0, x_half=4.0)
        with pytest.raises(ValueError):
            wigner_from_wavefunction(psi, GRID)

    def test_coarse_sampling_warns(self):
        x = np.arange(-9.0, 9.0 + 1e-9, 0.05)
        psi = SampledWavefunction(
            x_min=-9.0, x_max=9.0, psi=oscillator_eigenfunction(0, x)
        )
        with pytest.warns(GridAdequacyWarning):
            wigner_from_wavefunction(psi, centered_grid(6.0, 1001))

    def test_peak_allocation_is_linear_in_sample_count(self):
        # temporaries of n_q x n_x entries page-fault afresh on every call
        psi = sampled_eigenfunction(1, x_half=6.5)  # 2601 samples
        grid = PhaseSpaceGrid(q_min=-5.0, q_max=5.0, p_min=-5.0, p_max=5.0, n_q=61, n_p=13)
        tracemalloc.start()
        try:
            wigner_from_wavefunction(psi, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * psi.n_x * 8


class TestCachedAxes:
    def test_axes_are_read_only(self):
        # a writable cached axis let a caller change every later evaluation on its grid
        grid = centered_grid(6.0, 41)
        psi = sampled_eigenfunction(1)
        before = [eval_fock(2, grid).values, wigner_from_wavefunction(psi, grid).values]
        for axis in (grid.q, grid.p, psi.x):
            with pytest.raises(ValueError, match="read-only"):
                axis[0] = 0.0
        after = [eval_fock(2, grid).values, wigner_from_wavefunction(psi, grid).values]
        assert [v.tobytes() for v in after] == [v.tobytes() for v in before]


class TestSampledWavefunction:
    def test_renormalizes(self):
        x = np.linspace(-8, 8, 2001)
        psi = SampledWavefunction(x_min=-8, x_max=8, psi=3.0 * np.exp(-0.5 * x**2))
        assert np.trapezoid(np.abs(psi.psi) ** 2, psi.x) == pytest.approx(1.0, abs=1e-12)
        assert psi.norm_deviation > 1.0  # the input was far from normalized

    @pytest.mark.parametrize("amplitude", [1e200, 1e300, 1e-170, 1e-300])
    def test_extreme_amplitude_normalizes(self, amplitude):
        # |psi|^2 overflows or underflows, the normalized psi does not
        psi = SampledWavefunction(x_min=-1.0, x_max=1.0, psi=amplitude * np.ones(5))
        assert np.allclose(psi.psi, 2**-0.5, rtol=1e-15, atol=0)
        # the input norm^2 is 2 a^2: infinite above 1e154, zero to double precision below 1e-162
        assert psi.norm_deviation == (np.inf if amplitude > 1 else 1.0)

    def test_norm_deviation_is_computed_not_passed(self):
        with pytest.raises(TypeError):
            SampledWavefunction(x_min=0.0, x_max=1.0, psi=np.ones(5), norm_deviation=0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(q_min=1, q_max=0, p_min=0, p_max=1, n_q=10, n_p=10)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(q_min=0, q_max=1, p_min=0, p_max=1, n_q=1, n_p=10)

    @pytest.mark.parametrize(
        "field, value",
        [("q_min", np.nan), ("p_max", np.inf), ("hbar", np.inf), ("hbar", np.nan)],
    )
    def test_grid_rejects_non_finite(self, field, value):
        bounds = dict(q_min=-1.0, q_max=1.0, p_min=-1.0, p_max=1.0, n_q=5, n_p=5, hbar=1.0)
        bounds[field] = value
        with pytest.raises(ValueError, match="non-finite"):
            PhaseSpaceGrid(**bounds)

    def test_rejects_non_finite_samples(self):
        x = np.linspace(-4, 4, 101)
        samples = np.exp(-0.5 * x**2).astype(complex)
        samples[50] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            SampledWavefunction(x_min=-4, x_max=4, psi=samples)

    @pytest.mark.parametrize("x_min, x_max", [(-4.0, np.inf), (-np.inf, 4.0), (np.nan, 4.0)])
    def test_rejects_non_finite_window(self, x_min, x_max):
        with pytest.raises(ValueError, match="non-finite"):
            SampledWavefunction(x_min=x_min, x_max=x_max, psi=np.ones(11))
