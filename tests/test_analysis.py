"""Spectrum fitting, eigenvector reconstruction, and profile fitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from tapermode.analysis import (
    PHASE_SIGN_THRESHOLD,
    PROFILE_QUAD_RTOL,
    WIDTH_FLOOR_STEPS,
    ProfileFit,
    analyze_spectrum,
    blurred_arcsine,
    fit_fixed_centers,
    fit_lorentzian_sum,
    fit_profile,
    lorentzian_sum,
    reconstruct_eigenvectors,
    _free_jacobian,
    _free_model,
    _profile_model,
)
from tapermode.core import TWO_PI, TrapConfig
from tapermode.dynamics import BeamSpec, DriveScan, SpectrumResult, linear_response_spectrum
from tapermode.errors import AnalysisError
from tapermode.modes import compute_modes


def synthetic_spectrum(grid, centers, hwhms, heights, offset, rng=None, noise=0.0):
    y = lorentzian_sum(grid, centers, hwhms, heights, offset)
    if noise:
        y = np.maximum(y + noise * np.max(y) * rng.standard_normal(y.size), 0.0)
    return y


def make_result(grid, amplitude, phase):
    """Assemble a SpectrumResult directly from arrays (as-if measured)."""
    return SpectrumResult(
        drive_frequencies=np.asarray(grid, dtype=float),
        amplitude=np.asarray(amplitude, dtype=float),
        phase=np.asarray(phase, dtype=float),
        direction="x",
        damping_rate=1.0,
        model="loaded",
        steps_per_period=None,
        settle_cycles=0,
        measure_cycles=1,
    )


class TestFreeFit:
    CENTERS = np.array([6.2e6, 6.5e6, 6.8e6])
    HWHMS = np.array([3.0e4, 4.0e4, 5.0e4])
    HEIGHTS = np.array([1.0e-7, 2.3e-7, 1.4e-7])
    OFFSET = 1.0e-9

    def test_noiseless_recovery(self):
        grid = np.linspace(6.0e6, 7.0e6, 401)
        y = synthetic_spectrum(grid, self.CENTERS, self.HWHMS, self.HEIGHTS, self.OFFSET)
        fit = fit_lorentzian_sum(grid, y, 3)
        assert fit.n_peaks == 3
        assert fit.centers == pytest.approx(self.CENTERS, rel=1e-6)
        assert fit.hwhms == pytest.approx(self.HWHMS, rel=1e-4)
        assert fit.heights == pytest.approx(self.HEIGHTS, rel=1e-4)
        assert fit.offset == pytest.approx(self.OFFSET, abs=1e-4 * self.HEIGHTS.max())

    def test_peaks_sorted_by_center(self):
        grid = np.linspace(6.0e6, 7.0e6, 401)
        y = synthetic_spectrum(grid, self.CENTERS, self.HWHMS, self.HEIGHTS, self.OFFSET)
        fit = fit_lorentzian_sum(grid, y, 3)
        assert np.all(np.diff(fit.centers) > 0)

    def test_errors_reflect_noise(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(6.0e6, 7.0e6, 401)
        y = synthetic_spectrum(
            grid, self.CENTERS, self.HWHMS, self.HEIGHTS, self.OFFSET, rng, noise=0.01
        )
        fit = fit_lorentzian_sum(grid, y, 3)
        assert np.all(np.isfinite(fit.center_errors))
        assert np.all(fit.center_errors > 0)
        # 1 percent noise on resolved peaks pins centers far better than a width
        assert np.all(fit.center_errors < self.HWHMS)
        assert np.all(np.abs(fit.centers - self.CENTERS) < 5 * fit.center_errors + 1e3)

    def test_width_floor_clamps_needle_peaks(self):
        grid = np.linspace(0.0, 1.0e6, 101)
        y = np.full(grid.size, 0.01)
        y[50] = 1.0
        fit = fit_lorentzian_sum(grid, y, 1)
        step = grid[1] - grid[0]
        assert fit.hwhms[0] >= WIDTH_FLOOR_STEPS * step * (1.0 - 1e-12)

    def test_too_few_maxima(self):
        grid = np.linspace(6.0e6, 7.0e6, 201)
        y = synthetic_spectrum(grid, [6.5e6], [5.0e4], [1.0], 0.0)
        with pytest.raises(AnalysisError, match="local maxima"):
            fit_lorentzian_sum(grid, y, 3)

    def test_input_validation(self):
        grid = np.linspace(0.0, 1.0, 64)
        with pytest.raises(AnalysisError, match="identically zero"):
            fit_lorentzian_sum(grid, np.zeros(64), 1)
        with pytest.raises(AnalysisError, match="at least 8"):
            fit_lorentzian_sum(grid[:4], np.ones(4), 1)
        with pytest.raises(AnalysisError, match="increasing"):
            fit_lorentzian_sum(grid[::-1], np.ones(64), 1)
        with pytest.raises(AnalysisError, match="non-finite"):
            fit_lorentzian_sum(grid, np.full(64, np.nan), 1)
        with pytest.raises(AnalysisError, match="n_peaks"):
            fit_lorentzian_sum(grid, np.ones(64), 0)

    def test_jacobian_matches_finite_differences(self):
        x = np.linspace(0.0, 1.0, 50)
        params = np.array([0.3, 0.05, 1.2, 0.7, 0.08, 0.8, 0.1])
        jac = _free_jacobian(params, x, 2)
        eps = 1e-7
        for j in range(params.size):
            bumped = params.copy()
            bumped[j] += eps
            fd = (_free_model(bumped, x, 2) - _free_model(params, x, 2)) / eps
            assert np.allclose(jac[:, j], fd, atol=1e-5)


class TestFixedCenters:
    def test_exclusive_peaks_give_zero_cross_heights(self):
        grid = np.linspace(0.0, 1.0e6, 301)
        c = np.array([3.0e5, 7.0e5])
        ion0 = synthetic_spectrum(grid, [c[0]], [2.0e4], [1.0e-6], 1e-9)
        ion1 = synthetic_spectrum(grid, [c[1]], [3.0e4], [2.0e-6], 1e-9)
        fit = fit_fixed_centers(grid, np.column_stack([ion0, ion1]), c)
        assert fit.heights[0, 0] == pytest.approx(1.0e-6, rel=1e-3)
        assert fit.heights[1, 1] == pytest.approx(2.0e-6, rel=1e-3)
        assert fit.heights[0, 1] < 1e-3 * fit.heights[0, 0]
        assert fit.heights[1, 0] < 1e-3 * fit.heights[1, 1]
        assert fit.hwhms[0, 0] == pytest.approx(2.0e4, rel=1e-2)
        assert fit.hwhms[1, 1] == pytest.approx(3.0e4, rel=1e-2)

    def test_requires_2d_amplitudes(self):
        grid = np.linspace(0.0, 1.0, 32)
        with pytest.raises(AnalysisError, match="2-D"):
            fit_fixed_centers(grid, np.ones(32), np.array([0.5]))


class TestReconstruct:
    GRID = np.linspace(0.9e6, 1.1e6, 41)

    def single_mode_result(self, heights, phases):
        """A flat-phase single-resonance measurement at the grid center."""
        amp = lorentzian_sum(self.GRID, [1.0e6], [2.0e4], [1.0], 0.0)
        amplitude = np.outer(amp, heights)
        phase = np.broadcast_to(phases, (self.GRID.size, len(phases))).copy()
        return make_result(self.GRID, amplitude, phase)

    def test_antiphase_ion_gets_negative_sign(self):
        heights = np.array([[1.0], [0.5], [1.0]])
        spectrum = self.single_mode_result(
            np.array([1.0, 0.5, 1.0]), [-np.pi / 2, np.pi / 2, -np.pi / 2]
        )
        est = reconstruct_eigenvectors(spectrum, np.array([1.0e6]), heights)
        assert est.components[:, 0] == pytest.approx([2 / 3, -1 / 3, 2 / 3], abs=1e-12)
        assert est.reference_ions[0] == 0
        assert est.ambiguity_notes == ()

    def test_in_phase_equal_heights_give_uniform_column(self):
        heights = np.ones((3, 1))
        spectrum = self.single_mode_result(
            np.array([1.0, 1.0, 1.0]), [-np.pi / 2, -np.pi / 2, -np.pi / 2]
        )
        est = reconstruct_eigenvectors(spectrum, np.array([1.0e6]), heights)
        assert est.components[:, 0] == pytest.approx(np.ones(3) / math.sqrt(3))
        assert np.linalg.norm(est.components[:, 0]) == pytest.approx(1.0)

    def test_near_threshold_phase_is_flagged(self):
        heights = np.array([[1.0], [0.8], [0.9]])
        delta = PHASE_SIGN_THRESHOLD + 0.1  # inside the ambiguity margin
        spectrum = self.single_mode_result(
            np.array([1.0, 0.8, 0.9]), [0.0, delta, 0.0]
        )
        with pytest.warns(UserWarning, match="sign threshold"):
            est = reconstruct_eigenvectors(spectrum, np.array([1.0e6]), heights)
        assert len(est.ambiguity_notes) == 1
        assert "ion 1" in est.ambiguity_notes[0]
        assert est.components[1, 0] < 0  # past the threshold, so still flipped

    def test_component_errors_are_scaled_height_errors(self):
        heights = np.array([[3.0], [4.0]])
        errors = np.array([[0.3], [0.4]])
        spectrum = self.single_mode_result(np.array([3.0, 4.0]), [0.0, 0.0])
        est = reconstruct_eigenvectors(
            spectrum, np.array([1.0e6]), heights, height_errors=errors
        )
        assert est.components[:, 0] == pytest.approx([0.6, 0.8])
        assert est.component_errors[:, 0] == pytest.approx([0.06, 0.08])
        assert est.reference_ions[0] == 1

    def test_zero_column_rejected(self):
        spectrum = self.single_mode_result(np.array([1.0, 1.0]), [0.0, 0.0])
        with pytest.raises(AnalysisError, match="all-zero"):
            reconstruct_eigenvectors(spectrum, np.array([1.0e6]), np.zeros((2, 1)))

    def test_center_count_mismatch(self):
        spectrum = self.single_mode_result(np.array([1.0, 1.0]), [0.0, 0.0])
        with pytest.raises(AnalysisError, match="column count"):
            reconstruct_eigenvectors(spectrum, np.array([1.0e6, 2.0e6]), np.ones((2, 1)))


class TestAnalyzeSpectrum:
    def test_linear_response_round_trip(self):
        """Synthesize a spectrum from theory, fit it, and recover the modes.

        Weak components sitting on a strong neighbor's tail pick up a
        coherent-interference bias that scales with the line width, so the
        damping here matches how the fit is used downstream (narrow lines).
        """
        config = TrapConfig()
        table = compute_modes(config, ("x",))
        freqs = table.frequencies("x")
        grid = np.linspace(0.9 * freqs[0], 1.1 * freqs[-1], 800)
        scan = DriveScan(grid, damping_rate=TWO_PI * 400.0)
        beam = BeamSpec("broad", 1e-23)
        spectrum = linear_response_spectrum(config, scan, beam)

        analysis = analyze_spectrum(spectrum)
        hwhm = scan.damping_rate / 2.0
        assert np.abs(analysis.lorentzians.centers - freqs) == pytest.approx(
            np.zeros(3), abs=hwhm / 2
        )
        theory = table.matrix("x")
        fitted = analysis.vectors.components
        for k in range(3):
            overlap = float(theory[:, k] @ fitted[:, k])
            assert overlap > 0.9995
            assert np.max(np.abs(fitted[:, k] - theory[:, k])) < 0.03

    def test_n_modes_override(self):
        config = TrapConfig()
        freqs = compute_modes(config, ("x",)).frequencies("x")
        grid = np.linspace(0.98 * freqs[2], 1.02 * freqs[2], 120)
        scan = DriveScan(grid, damping_rate=TWO_PI * 2e3)
        spectrum = linear_response_spectrum(config, scan, BeamSpec("broad", 1e-23))
        analysis = analyze_spectrum(spectrum, n_modes=1)
        assert analysis.lorentzians.n_peaks == 1
        assert analysis.vectors.components.shape == (3, 1)


def adaptive_blurred_arcsine(x, amplitude, sigma):
    """Reference: ``(1/pi) int_0^pi G_sigma(x - A cos u) du`` by adaptive quadrature."""
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))

    def integrand(u):
        return norm * np.exp(-0.5 * ((x - amplitude * np.cos(u)) / sigma) ** 2)

    value, _ = quad_vec(integrand, 0.0, np.pi, epsrel=PROFILE_QUAD_RTOL, epsabs=0.0)
    return value / np.pi


class TestBlurredArcsine:
    def test_zero_amplitude_is_gaussian(self):
        x = np.linspace(-5.0, 5.0, 201)
        expected = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
        assert blurred_arcsine(x, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert blurred_arcsine(x, -1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_normalized_density(self):
        x = np.linspace(-12.0, 12.0, 401)
        for amplitude in (0.0, 1.0, 3.0):
            density = blurred_arcsine(x, amplitude, 1.0)
            assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-6)
            assert np.all(density >= 0)

    def test_large_amplitude_shows_turning_point_horns(self):
        x = np.linspace(-6.0, 6.0, 241)
        density = blurred_arcsine(x, 3.0, 0.5)
        center = density[np.argmin(np.abs(x))]
        assert density.max() > 1.5 * center
        assert abs(x[np.argmax(density)]) > 2.0  # horns sit near the turning points

    def test_symmetric(self):
        x = np.linspace(-6.0, 6.0, 121)
        density = blurred_arcsine(x, 2.0, 0.7)
        assert density == pytest.approx(density[::-1], rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(ratio=st.floats(0.0, 50.0), sigma=st.floats(1e-6, 1e3))
    def test_matches_adaptive_quadrature(self, ratio, sigma):
        amplitude = ratio * sigma
        x = np.linspace(-1.0, 1.0, 61) * (amplitude + 6.0 * sigma) + 0.1 * sigma
        density = blurred_arcsine(x, amplitude, sigma)
        expected = adaptive_blurred_arcsine(x, amplitude, sigma)
        assert np.max(np.abs(density - expected)) <= 1e-9 * expected.max()

    @pytest.mark.parametrize("amplitude", [3000.0, 30000.0])
    def test_narrow_psf_reaches_the_arcsine(self, amplitude):
        """With A >> sigma the interior is the bare arcsine density, not zero."""
        x = np.linspace(-amplitude / 2, amplitude / 2, 5)
        expected = 1.0 / (np.pi * np.sqrt(amplitude**2 - x**2))
        assert blurred_arcsine(x, amplitude, 1.0) == pytest.approx(expected, rel=1e-6)

    def test_keeps_the_shape_of_x(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        density = blurred_arcsine(x, 1.0, 0.5)
        assert density.shape == (3, 4)
        assert density.ravel() == pytest.approx(blurred_arcsine(x.ravel(), 1.0, 0.5), rel=1e-15)
        assert blurred_arcsine(0.0, 1.0, 0.5).shape == ()

    def test_rejects_bad_input(self):
        with pytest.raises(AnalysisError, match="sigma"):
            blurred_arcsine(np.zeros(3), 1.0, 0.0)
        with pytest.raises(AnalysisError, match="did not settle"):
            blurred_arcsine(np.array([0.0, np.nan]), 1.0, 1.0)


class TestProfileJacobian:
    """The analytic fit Jacobian against central differences of blurred_arcsine."""

    SIGMA, CENTER, BASELINE, SCALE = 1.2, 0.2, 0.1, 1.5

    def model(self, amplitude, sigma, center, baseline, scale, x):
        return baseline + scale * blurred_arcsine(x - center, amplitude, sigma)

    @pytest.mark.parametrize("amplitude", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("free_sigma", [True, False])
    def test_matches_central_differences(self, amplitude, free_sigma):
        x = np.linspace(-8.0, 8.0, 81)
        full = np.array([amplitude, self.SIGMA, self.CENTER, self.BASELINE, self.SCALE])
        free = [0, 1, 2, 3, 4] if free_sigma else [0, 2, 3, 4]
        psf_sigma = None if free_sigma else self.SIGMA
        values, jac = _profile_model(full[free], x, psf_sigma)
        assert values == pytest.approx(self.model(*full, x), rel=1e-15)
        assert jac.shape == (x.size, len(free))
        numeric = np.empty_like(jac)
        for col, k in enumerate(free):
            h = 1e-6 * max(abs(full[k]), 1.0)
            up, down = full.copy(), full.copy()
            up[k] += h
            down[k] -= h
            numeric[:, col] = (self.model(*up, x) - self.model(*down, x)) / (2.0 * h)
        scale = np.abs(numeric).max(axis=0)
        # d/dA vanishes at A = 0 (the density is even in A); hold it to the
        # largest column instead of its own O(h) difference quotient.
        scale = np.where(scale > 1e-6 * scale.max(), scale, scale.max())
        assert np.all(np.abs(jac - numeric).max(axis=0) <= 1e-6 * scale)


class TestProfileFit:
    def make_profile(self, amplitude, sigma=1.0, center=0.3, baseline=5.0, total=2000.0):
        x = np.linspace(-8.0, 8.0, 161) + center
        y = baseline + total * blurred_arcsine(x - center, amplitude, sigma)
        return x, y

    def test_noiseless_recovery_free_width(self):
        x, y = self.make_profile(3.0)
        fit = fit_profile(x, y)
        assert isinstance(fit, ProfileFit)
        assert not fit.sigma_was_fixed
        assert fit.amplitude == pytest.approx(3.0, rel=2e-3)
        assert fit.psf_sigma == pytest.approx(1.0, rel=5e-3)
        assert fit.center == pytest.approx(0.3, abs=0.01)
        assert fit.baseline == pytest.approx(5.0, rel=0.05)
        assert fit.density_scale == pytest.approx(2000.0, rel=0.01)

    def test_noiseless_recovery_fixed_width(self):
        x, y = self.make_profile(3.0)
        fit = fit_profile(x, y, psf_sigma=1.0)
        assert fit.sigma_was_fixed
        assert fit.psf_sigma == 1.0
        assert fit.amplitude == pytest.approx(3.0, rel=1e-3)

    def test_zero_amplitude_needs_fixed_width(self):
        x, y = self.make_profile(0.0)
        fit = fit_profile(x, y, psf_sigma=1.0)
        assert fit.amplitude < 1e-3

    def test_scale_equivariance(self):
        x, y = self.make_profile(3.0)
        reference = fit_profile(x, y, psf_sigma=1.0)
        scaled = fit_profile(x * 1e-6, y * 1e6, psf_sigma=1e-6)
        assert scaled.amplitude == pytest.approx(1e-6 * reference.amplitude, rel=1e-6)
        assert scaled.center == pytest.approx(1e-6 * reference.center, rel=1e-5)

    def test_input_validation(self):
        x, y = self.make_profile(1.0)
        with pytest.raises(AnalysisError, match="uniformly"):
            fit_profile(np.r_[x[:-1], x[-1] + 5.0], y)
        with pytest.raises(AnalysisError, match="non-negative"):
            fit_profile(x, y - y.max())
        with pytest.raises(AnalysisError, match="psf_sigma"):
            fit_profile(x, y, psf_sigma=0.0)
        with pytest.raises(AnalysisError, match="8 bins"):
            fit_profile(x[:5], y[:5])
        with pytest.raises(AnalysisError, match="not all zero"):
            fit_profile(x, np.zeros_like(y))
