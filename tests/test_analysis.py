"""Spectrum fitting, eigenvector reconstruction, and profile fitting."""
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad_vec
from scipy.optimize import least_squares as scipy_least_squares
from scipy.optimize import lsq_linear

from tapermode import analysis
from tapermode.analysis import (
    PROFILE_QUAD_RTOL,
    WIDTH_FLOOR_STEPS,
    ProfileFit,
    analyze_spectrum,
    blurred_arcsine,
    fit_modal_sum,
    fit_profile,
    reconstruct_eigenvectors,
    _cholesky_qr2,
    _profile_model,
    _project_residues,
    _prominences,
    _residue_basis,
)
from tapermode.core import TWO_PI, TrapConfig
from tapermode.dynamics import BeamSpec, DriveScan, linear_response_spectrum
from tapermode.equilibrium import equilibrium_positions
from tapermode.errors import AnalysisError
from tapermode.modes import compute_modes
from tapermode.pipeline import ExperimentPlan, run_experiment


def local_maxima(y):
    """Every ``i`` with ``y[i-1] < y[i] >= y[i+1]``, by a plain scan."""
    return np.array(
        [i for i in range(1, len(y) - 1) if y[i - 1] < y[i] >= y[i + 1]], dtype=np.intp
    )


def assert_matches_scipy(y):
    """``_prominences`` equals ``scipy.signal.peak_prominences`` bit for bit."""
    from scipy.signal import peak_prominences  # reference only: the package never loads it

    y = np.asarray(y, dtype=float)
    peaks = local_maxima(y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on zero prominences
        expected = peak_prominences(y, peaks)[0]
    assert np.array_equal(_prominences(y, peaks), expected), (y.tolist(), peaks.tolist())


def random_walk(steps):
    return np.cumsum(steps).astype(float)


class TestProminences:
    @settings(max_examples=300, deadline=None)
    @given(y=st.one_of(
        hnp.arrays(np.float64, st.integers(3, 400), elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, st.integers(3, 400),
                   elements=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
        st.lists(st.integers(-2, 2), min_size=3, max_size=400).map(random_walk),
    ))
    def test_matches_scipy(self, y):
        assert_matches_scipy(y)

    @pytest.mark.parametrize("kind", ["normal", "quantised", "walk"])
    def test_matches_scipy_on_seeded_arrays(self, kind):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = int(rng.integers(3, 600))
            if kind == "normal":
                y = rng.standard_normal(m)
            elif kind == "quantised":
                y = np.round(rng.standard_normal(m) * rng.integers(1, 4))
            else:
                y = random_walk(rng.integers(-2, 3, m))
            assert_matches_scipy(y)

    @pytest.mark.parametrize("y", [
        [0, 1, 0],                    # one candidate, touching both ends
        [0, 2, 1, 1, 1],              # candidate next to the left end
        [1, 1, 0, 2, 0],              # candidate next to the right end
        [3, 0, 1, 0, 2, 0, 5],        # both ends higher than every candidate
        [0, 1, 1, 2, 0],              # rising plateau: prominence 0
        [0, 2, 2, 0, 2, 2, 0],        # equal tops
        [0, 2, 0, 2, 0, 1, 0, 2, 0],  # ties across a lower candidate
        [5, 5, 5, 5],                 # flat: no candidate
    ])
    def test_matches_scipy_on_edge_cases(self, y):
        assert_matches_scipy(y)

    def test_memory_is_linear_in_the_scan(self):
        """No candidate-by-sample temporaries: a P x M boolean mask would be ~130 MB here."""
        y = np.random.default_rng(5).standard_normal(20_000)
        peaks = local_maxima(y)
        tracemalloc.start()
        try:
            _prominences(y, peaks)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks.size > 5_000
        assert peak_bytes < 20 * y.nbytes


def modal_response(grid, centers, gammas, residues):
    """``Z_i(w) = sum_k R_ik / (w_k^2 - w^2 + i Gamma_k w)`` on ``grid``, shape [M, N]."""
    w = np.asarray(grid, dtype=float)[:, None]
    basis = 1.0 / (np.asarray(centers) ** 2 - w**2 + 1j * np.asarray(gammas) * w)
    return basis @ np.asarray(residues, dtype=float).T


def gamma_of(hwhm):
    return 2.0 * hwhm / math.sqrt(3.0)


class TestFixedCenters:
    """:func:`fit_modal_sum`, which ``perfbench`` traces under its former name ``fit_fixed_centers``."""

    def test_exclusive_peaks_give_zero_cross_heights(self):
        grid = np.linspace(2.0e5, 1.0e6, 301)
        c = np.array([4.0e5, 7.0e5])
        hwhms = np.array([2.0e4, 3.0e4])
        gammas = gamma_of(hwhms)
        heights = np.array([[1.0e-6, 0.0], [0.0, -2.0e-6]])
        z = modal_response(grid, c, gammas, heights * gammas * c)
        fit = fit_modal_sum(grid, z, 2)
        assert fit.heights[0, 0] == pytest.approx(1.0e-6, rel=1e-6)
        assert fit.heights[1, 1] == pytest.approx(-2.0e-6, rel=1e-6)
        assert abs(fit.heights[0, 1]) < 1e-6 * abs(fit.heights[0, 0])
        assert abs(fit.heights[1, 0]) < 1e-6 * abs(fit.heights[1, 1])
        assert fit.centers == pytest.approx(c, rel=1e-9)
        assert fit.hwhms == pytest.approx(hwhms, rel=1e-6)
        assert fit.heights.shape == fit.height_errors.shape == (2, 2)

    @pytest.mark.parametrize("n_ions", [3, 7])
    def test_noiseless_response_recovers_the_modes(self, n_ions):
        """Noiseless modal data: the modes come back to round-off."""
        config = TrapConfig(n_ions=n_ions)
        table = compute_modes(config)
        freqs = table.frequencies("x")
        gamma = TWO_PI * 2e3
        scan = DriveScan(np.linspace(0.9 * freqs[0], 1.1 * freqs[-1], 800), gamma)
        # off-center focus, so no mode is dark by symmetry
        center_z = 0.3 * equilibrium_positions(config)[-1, 2]
        beam = BeamSpec("focused", 1e-23, waist_radius=17e-6, center_z=center_z)
        spectrum = linear_response_spectrum(config, scan, beam)
        response = spectrum.amplitude * np.exp(1j * spectrum.phase)
        fit = fit_modal_sum(spectrum.drive_frequencies, response, n_ions)
        assert fit.centers == pytest.approx(freqs, rel=1e-10)
        assert fit.hwhms == pytest.approx(np.full(n_ions, math.sqrt(3.0) / 2.0 * gamma),
                                          rel=1e-8)
        est = reconstruct_eigenvectors(fit.centers, fit.heights, fit.height_errors)
        theory = table.matrix("x")
        loudest = theory[np.argmax(np.abs(theory), axis=0), np.arange(n_ions)]
        theory = theory * np.sign(loudest)
        assert np.max(np.abs(est.components - theory)) < 1e-8
        strong = np.abs(theory) > 1e-6
        assert np.array_equal(np.sign(est.components[strong]), np.sign(theory[strong]))

    def test_jacobian_matches_finite_differences(self):
        """Kaufman's Jacobian in (g, u_k), through the rotation-invariant products the optimizer uses.

        The returned rows live in a basis that moves with the parameters, so
        compare the cost gradient J^T f with central differences of the cost
        (Kaufman's gradient is exact for any data), and J^T J with the
        central-difference Jacobian of the projected residual where the model
        fits exactly. Both cover the damping and the center columns.
        """
        u = np.linspace(4.0, 5.0, 120)
        u_k = np.array([4.3, 4.5, 4.8])
        g = np.array([0.02, 0.03, 0.025])
        residues = np.array([[1.0, -0.5, 0.2], [0.3, 0.8, -1.1]]) * g * u_k
        exact = modal_response(u, u_k, g, residues).T
        rng = np.random.default_rng(3)
        noisy = exact + 0.01 * (rng.standard_normal(exact.shape)
                                + 1j * rng.standard_normal(exact.shape))
        k = g.size

        def reference_residual(p, data):
            basis = _residue_basis(p[:k], u, p[k:])[:k]
            basis = np.hstack([basis.real, basis.imag]).T
            target = np.hstack([data.real, data.imag]).T
            return (target - basis @ np.linalg.lstsq(basis, target, rcond=None)[0]).ravel()

        steps = 1e-7 * np.eye(2 * k)
        params = np.r_[g, u_k]
        off = params * np.r_[np.full(k, 1.1), np.full(k, 1.0 + 2e-3)]
        f, jac = _project_residues(off[:k], u, off[k:], noisy)[:2]
        assert jac.shape == ((2 * k + 1) * 2, 2 * k)
        assert f @ f == pytest.approx(np.sum(reference_residual(off, noisy) ** 2), rel=1e-10)
        cost = [0.5 * np.sum(reference_residual(off + s, noisy) ** 2)
                - 0.5 * np.sum(reference_residual(off - s, noisy) ** 2) for s in steps]
        assert jac.T @ f == pytest.approx(np.array(cost) / 2e-7, rel=1e-5)

        f, jac = _project_residues(g, u, u_k, exact)[:2]
        assert np.max(np.abs(f)) < 1e-12
        fd = np.column_stack([
            (reference_residual(params + s, exact) - reference_residual(params - s, exact)) / 2e-7
            for s in steps
        ])
        assert (jac.T @ jac)[:k, :k] == pytest.approx((fd.T @ fd)[:k, :k], rel=1e-6)
        # every entry against the geometric mean of its two diagonal entries
        scale = np.sqrt(np.outer(np.diag(fd.T @ fd), np.diag(fd.T @ fd)))
        assert np.all(np.abs(jac.T @ jac - fd.T @ fd) < 1e-6 * scale)

    def test_basis_derivatives_match_central_differences(self):
        """The dB/dg_k and dB/du_k rows against central differences of the basis rows."""
        u = np.linspace(4.0, 5.0, 60)
        params = np.array([0.02, 0.05, 4.3, 4.7])  # g_0, g_1, u_0, u_1
        rows = _residue_basis(params[:2], u, params[2:])
        for p in range(4):
            step = 1e-7 * np.eye(4)[p]
            up, down = (_residue_basis(q[:2], u, q[2:])[p % 2] for q in (params + step, params - step))
            fd = (up - down) / 2e-7
            assert np.max(np.abs(rows[2 + p] - fd)) < 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("noise", [0.0, 1e-3, 2e-2])
    def test_recovers_a_three_mode_response(self, noise):
        """Centers, dampings and signed residues of a synthetic response, with finite errors."""
        grid = np.linspace(0.8e6, 1.2e6, 600)
        centers = np.array([0.9e6, 1.0e6, 1.08e6])
        gammas = np.array([6.0e3, 8.0e3, 5.0e3])
        heights = np.array([[1.0, -0.6, 0.3], [0.5, 0.8, -1.0], [0.2, 0.4, 0.9]]) * 1e-6
        z = modal_response(grid, centers, gammas, heights * gammas * centers)
        rng = np.random.default_rng(7)
        z = z + noise * np.abs(z).max() * (rng.standard_normal(z.shape)
                                           + 1j * rng.standard_normal(z.shape))
        fit = fit_modal_sum(grid, z, 3)
        hwhms = math.sqrt(3.0) / 2.0 * gammas
        errors = (fit.center_errors, fit.hwhm_errors, fit.height_errors)
        assert all(np.all(np.isfinite(e)) for e in errors)
        if noise == 0.0:
            assert fit.centers == pytest.approx(centers, rel=1e-10)
            assert fit.hwhms == pytest.approx(hwhms, rel=1e-8)
            assert fit.heights == pytest.approx(heights, rel=1e-8, abs=1e-15)
            return
        assert all(np.all(e > 0) for e in errors)
        assert np.all(np.abs(fit.centers - centers) < 5 * fit.center_errors)
        assert np.all(np.abs(fit.hwhms - hwhms) < 5 * fit.hwhm_errors)
        assert np.all(np.abs(fit.heights - heights) < 5 * fit.height_errors)
        # the errors scale with the noise: a center is pinned far inside its width
        assert np.all(fit.center_errors < 50 * noise * hwhms)

    def test_too_few_maxima_names_them(self):
        grid = np.linspace(0.8e6, 1.2e6, 200)
        z = modal_response(grid, [1.0e6], [5.0e3], [[1.0], [0.5]])
        with pytest.raises(AnalysisError, match="found 1 local maxima in the smoothed spectrum, need 3"):
            fit_modal_sum(grid, z, 3)

    def test_requires_2d_amplitudes(self):
        grid = np.linspace(0.0, 1.0, 32)
        with pytest.raises(AnalysisError, match="2-D"):
            fit_modal_sum(grid, np.ones(32), 1)

    def test_input_validation(self):
        grid = np.linspace(0.0, 1.0, 64)
        ones = np.ones((64, 2))
        with pytest.raises(AnalysisError, match="identically zero"):
            fit_modal_sum(grid, np.zeros((64, 2)), 1)
        with pytest.raises(AnalysisError, match="at least 8"):
            fit_modal_sum(grid[:4], ones[:4], 1)
        with pytest.raises(AnalysisError, match="increasing"):
            fit_modal_sum(grid[::-1], ones, 1)
        with pytest.raises(AnalysisError, match="non-finite"):
            fit_modal_sum(grid, np.full((64, 2), np.nan), 1)
        with pytest.raises(AnalysisError, match="^n_modes must be at least 1, got 0$"):
            fit_modal_sum(grid, ones, 0)
        for count in (2.0, True, np.float64(1.0)):
            with pytest.raises(AnalysisError, match="^n_modes must be an integer, got "):
                fit_modal_sum(grid, ones, count)

    def test_quantised_response_fits_without_warning(self):
        """Rounded amplitudes leave rising plateaus whose first sample has prominence 0.

        Such a candidate ranks last; the strict warning filters would turn
        any prominence warning into an error here.
        """
        grid = np.linspace(0.5, 1.5, 401)
        centers, gammas = np.array([0.8, 1.2]), gamma_of(np.array([0.03, 0.04]))
        heights = np.array([[1.0, 0.6], [0.5, -0.6]])
        z = modal_response(grid, centers, gammas, heights * gammas * centers)
        z = np.round(np.abs(z), 1) * np.exp(1j * np.angle(z))
        smoothed = analysis._smooth5(np.abs(z).sum(axis=1))
        candidates = local_maxima(smoothed)
        assert np.any(_prominences(smoothed, candidates) == 0.0)
        fit = fit_modal_sum(grid, z, 2)
        assert fit.centers == pytest.approx(centers, abs=0.01)
        assert fit.heights == pytest.approx(heights, rel=0.05)

    def test_the_retired_free_fit_raises(self):
        expected = "fit_lorentzian_sum is retired; fit amplitude * exp(i phase) with fit_modal_sum"
        with pytest.raises(AnalysisError, match=f"^{re.escape(expected)}$"):
            analysis.fit_lorentzian_sum(np.linspace(0.0, 1.0, 64), np.ones(64), 1)

    @pytest.mark.parametrize("where", [0, 20, -1])
    def test_rejects_a_non_finite_frequency(self, where):
        """An infinite frequency is a typed error, not a divide warning in the normalization."""
        grid = np.linspace(2.0e5, 1.0e6, 301)
        z = modal_response(grid, [4.0e5, 7.0e5], gamma_of(np.array([1.0e4, 1.0e4])),
                           [[1.0, 0.5], [0.3, -2.0]])
        grid[where] = np.inf
        with pytest.raises(AnalysisError, match="^frequencies contain non-finite values$"):
            fit_modal_sum(grid, z, 2)


def householder_projection(g, u, u_k, data):
    """Heights [K, N] and projected residual [2K + 1, N] by Householder QR of [B | dB | data].

    The reference for :func:`_project_residues`: the same rotated residual,
    read off ``np.linalg.qr`` of the whole block, data columns included.
    """
    k = g.size
    columns = np.concatenate([_residue_basis(g, u, u_k), data]).view(float).T
    r = np.linalg.qr(columns, mode="r")
    heights = np.linalg.solve(r[:k, :k], r[:k, 3 * k:])
    return heights, np.vstack([r[k:3 * k, 3 * k:], np.linalg.norm(r[3 * k:, 3 * k:], axis=0)])


def conditioned_block(rng, columns, rows, condition):
    """A random [rows, columns] block: this condition number once its columns are
    normalized, then column scales of 0.1-10."""
    left = np.linalg.qr(rng.standard_normal((rows, columns)))[0]
    right = np.linalg.qr(rng.standard_normal((columns, columns)))[0]
    values = np.geomspace(1.0, 1.0 / condition, columns)
    return (left * values) @ right.T * rng.uniform(0.1, 10.0, columns)


class TestCholeskyQR2:
    """The modal fit's factorization against Householder QR, ``np.linalg.qr``."""

    @pytest.mark.parametrize("condition", [1.0, 1e4])
    def test_matches_householder_up_to_row_signs(self, condition):
        rng = np.random.default_rng(int(condition))
        for _ in range(20):
            c, n = int(rng.integers(2, 40)), int(rng.integers(1, 10))
            block = conditioned_block(rng, c, int(rng.integers(2 * c, 1700)), condition)
            column_norms = np.linalg.norm(block, axis=0)
            assert 0.1 * condition <= np.linalg.cond(block / column_norms) <= 10.0 * condition
            data = rng.standard_normal((n, block.shape[0]))
            r, qtd, rest = _cholesky_qr2(np.ascontiguousarray(block.T), data)
            reference = np.linalg.qr(np.hstack([block, data.T]), mode="r")
            signs = np.sign(np.diag(reference))[:c, None]
            assert np.all(np.diag(r) > 0.0)
            assert np.array_equal(r, np.triu(r))
            assert np.all(np.abs(r - signs * reference[:c, :c]) <= 1e-12 * column_norms)
            data_norms = np.linalg.norm(data, axis=1)
            assert np.all(np.abs(qtd - signs * reference[:c, c:]) <= 1e-10 * data_norms)
            assert rest == pytest.approx(np.linalg.norm(reference[c:, c:], axis=0), rel=1e-10)

    @pytest.mark.parametrize("u_k, g", [
        ([4.3, 4.5, 4.8], [0.02, 0.03, 0.025]),     # condition ~1e2
        ([4.49, 4.5, 4.51], [0.02, 0.02, 0.02]),    # ~6e3
        ([4.495, 4.5, 4.505], [0.02, 0.03, 0.02]),  # ~1e4
    ])
    @pytest.mark.parametrize("noise", [1.0, 1e-9])
    def test_projection_matches_householder(self, u_k, g, noise):
        """Heights and the rotated residual, for data far from and almost inside span(B).

        At ``noise = 1e-9`` a residual taken as a difference of squares would
        be off by ~1e-8 of the data norm; formed explicitly it agrees to 1e-10.
        """
        u = np.linspace(4.0, 5.0, 400)
        g, u_k = np.array(g), np.array(u_k)
        rng = np.random.default_rng(4)
        basis = _residue_basis(g, u, u_k)[:3]
        data = rng.standard_normal((2, 3)) @ basis + noise * (
            rng.standard_normal((2, u.size)) + 1j * rng.standard_normal((2, u.size)))
        f, jac, heights = _project_residues(g, u, u_k, data)[:3]
        ref_heights, ref_residual = householder_projection(g, u, u_k, data)
        assert np.abs(heights - ref_heights).max() <= 1e-10 * np.abs(ref_heights).max()
        residual = f.reshape(ref_residual.shape)
        scale = 1e-10 * np.linalg.norm(data, axis=1)
        assert np.all(np.abs(np.abs(residual) - np.abs(ref_residual)) <= scale)
        assert np.all(np.abs(np.linalg.norm(residual, axis=0)
                             - np.linalg.norm(ref_residual, axis=0)) <= scale)

    def test_coincident_centers_give_a_non_finite_residual(self):
        """Two modes with one width, their centers 0-2 ulp apart: the point is infeasible.

        Equal columns have no Cholesky factor. Columns an ulp apart often do,
        in about 1 case of 20 with a residual off by up to 66 %; the bound on
        ``||L2^-1||`` rejects those.
        """
        u = np.linspace(4.0, 5.0, 200)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((3, u.size)) + 0j
            center, width = rng.uniform(4.1, 4.9), rng.uniform(0.005, 0.1)
            for second in (center, np.nextafter(center, 5.0),
                           np.nextafter(np.nextafter(center, 5.0), 5.0)):
                f, *rest = _project_residues(np.array([width, width, 0.03]), u,
                                             np.array([center, second, 4.95]), data)
                assert f.shape == (7 * 3,) and np.all(np.isnan(f)), (seed, second)
                assert rest == [None] * 4

    @pytest.mark.parametrize("separation", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
    def test_nearly_coincident_centers_are_infeasible_or_exact(self, separation):
        """Two modes with one width, their centers this fraction of the scan apart.

        The point is infeasible, or its cost agrees with Householder QR of
        [B | data]. The cost depends on span(B) alone, which that resolves
        here, while [B | dB] is far worse conditioned. Up to 1e-6 the pivots
        of ``L2`` can sit far above its smallest singular value, with costs
        off by up to 0.15 %, so only the bound on ``||L2^-1||`` rejects them.
        """
        u = np.linspace(4.0, 5.0, 200)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((3, u.size)) + 0j
            center, width = rng.uniform(4.1, 4.9), rng.uniform(0.005, 0.1)
            g, u_k = np.array([width, width, 0.03]), np.array([center, center + separation, 4.95])
            f = _project_residues(g, u, u_k, data)[0]
            if np.all(np.isfinite(f)):
                columns = np.concatenate([_residue_basis(g, u, u_k)[:3], data]).view(float).T
                reference = np.linalg.qr(columns, mode="r")[3:, 3:]
                assert f @ f == pytest.approx(np.sum(reference**2), rel=1e-8), seed


class TestReconstruct:
    GRID = np.linspace(0.9e6, 1.1e6, 41)
    HWHM = 2.0e4

    def single_mode_fit(self, heights):
        """Residue fit of one resonance at the grid center with these signed heights."""
        gamma = gamma_of(self.HWHM)
        residues = np.asarray(heights, dtype=float)[:, None] * gamma * 1.0e6
        z = modal_response(self.GRID, [1.0e6], [gamma], residues)
        return fit_modal_sum(self.GRID, z, 1)

    def test_antiphase_ion_gets_negative_sign(self):
        fit = self.single_mode_fit([1.0, -0.5, 1.0])
        est = reconstruct_eigenvectors(fit.centers, fit.heights, fit.height_errors)
        assert est.components[:, 0] == pytest.approx([2 / 3, -1 / 3, 2 / 3], abs=1e-10)
        assert est.ambiguity_notes == ()

    def test_in_phase_equal_heights_give_uniform_column(self):
        fit = self.single_mode_fit([-1.0, -1.0, -1.0])
        est = reconstruct_eigenvectors(fit.centers, fit.heights)
        assert est.components[:, 0] == pytest.approx(np.ones(3) / math.sqrt(3))
        assert np.linalg.norm(est.components[:, 0]) == pytest.approx(1.0)
        assert np.all(np.isnan(est.component_errors))

    def test_component_errors_are_scaled_height_errors(self):
        heights = np.array([[3.0], [4.0]])
        errors = np.array([[0.3], [0.4]])
        est = reconstruct_eigenvectors(np.array([1.0e6]), heights, height_errors=errors)
        assert est.components[:, 0] == pytest.approx([0.6, 0.8])
        assert est.component_errors[:, 0] == pytest.approx([0.06, 0.08])
        assert est.ambiguity_notes == ()

    def test_height_within_two_errors_is_noted(self):
        heights = np.array([[3.0], [0.1], [-4.0]])
        errors = np.array([[0.1], [0.1], [0.1]])
        est = reconstruct_eigenvectors(np.array([1.0e6]), heights, height_errors=errors)
        assert len(est.ambiguity_notes) == 1
        assert "ion 1" in est.ambiguity_notes[0]
        assert est.components[:, 0] == pytest.approx(np.array([-3.0, -0.1, 4.0]) / 5.001, rel=1e-3)

    def test_zero_column_rejected(self):
        with pytest.raises(AnalysisError, match="all-zero"):
            reconstruct_eigenvectors(np.array([1.0e6]), np.zeros((2, 1)))

    @pytest.mark.parametrize("heights, message", [
        ([[np.nan, 1.0], [1.0, 1.0]], "mode 0 has non-finite heights"),
        ([[1.0, 1.0], [1.0, -np.inf]], "mode 1 has non-finite heights"),
    ])
    def test_a_non_finite_column_is_not_called_all_zero(self, heights, message):
        with pytest.raises(AnalysisError, match=f"^{message}$"):
            reconstruct_eigenvectors([1.0e6, 2.0e6], heights)

    def test_center_count_mismatch(self):
        with pytest.raises(AnalysisError, match="column count"):
            reconstruct_eigenvectors(np.array([1.0e6, 2.0e6]), np.ones((2, 1)))

    def test_requires_2d_heights(self):
        with pytest.raises(AnalysisError, match="2-D"):
            reconstruct_eigenvectors(np.array([1.0e6]), np.ones(2))


#: argument -> (a call with that argument malformed, the AnalysisError message it raises)
MALFORMED = {
    "frequencies": (lambda: fit_modal_sum(["a"] * 100, np.ones((100, 2), complex), 1),
                    "frequencies must be numbers: could not convert string to float: 'a'"),
    "response": (lambda: fit_modal_sum(np.linspace(1.0, 2.0, 100), [["a"]] * 100, 1),
                 "response must be numbers: complex() arg is a malformed string"),
    "positions": (lambda: fit_profile(["a"] * 10, np.ones(10)),
                  "positions must be numbers: could not convert string to float: 'a'"),
    "x": (lambda: blurred_arcsine(["a"], 1.0, 1.0),
          "x must be numbers: could not convert string to float: 'a'"),
    "amplitude": (lambda: blurred_arcsine(np.zeros(3), "a", 1.0),
                  "amplitude must be a real number, got 'a'"),
    "centers": (lambda: reconstruct_eigenvectors(["a", "b"], np.ones((2, 2))),
                "centers must be numbers: could not convert string to float: 'a'"),
    "height_errors": (lambda: reconstruct_eigenvectors([1.0, 2.0], np.ones((2, 2)),
                                                       np.ones((3, 2))),
                      "height_errors has shape (3, 2), heights (2, 2)"),
}


@pytest.mark.parametrize("argument", MALFORMED)
def test_malformed_input_is_an_analysis_error_naming_the_argument(argument):
    call, message = MALFORMED[argument]
    with pytest.raises(AnalysisError, match=f"^{re.escape(message)}$"):
        call()


class TestAnalyzeSpectrum:
    def test_linear_response_round_trip(self):
        """Synthesize a spectrum from theory, fit it, and recover the modes.

        Weak components sitting on a strong neighbor's tail pick up a
        coherent-interference bias that scales with the line width, so the
        damping here matches how the fit is used downstream (narrow lines).
        """
        config = TrapConfig()
        table = compute_modes(config)
        freqs = table.frequencies("x")
        grid = np.linspace(0.9 * freqs[0], 1.1 * freqs[-1], 800)
        scan = DriveScan(grid, damping_rate=TWO_PI * 400.0)
        beam = BeamSpec("broad", 1e-23)
        spectrum = linear_response_spectrum(config, scan, beam)

        analysis = analyze_spectrum(spectrum)
        hwhm = scan.damping_rate / 2.0
        assert np.abs(analysis.modes.centers - freqs) == pytest.approx(
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
        freqs = compute_modes(config).frequencies("x")
        grid = np.linspace(0.98 * freqs[2], 1.02 * freqs[2], 120)
        scan = DriveScan(grid, damping_rate=TWO_PI * 2e3)
        spectrum = linear_response_spectrum(config, scan, BeamSpec("broad", 1e-23))
        analysis = analyze_spectrum(spectrum, n_modes=1)
        assert analysis.modes.centers.shape == (1,)
        assert analysis.vectors.components.shape == (3, 1)

    def test_one_least_squares_call_per_spectrum(self, monkeypatch):
        config = TrapConfig()
        freqs = compute_modes(config).frequencies("x")
        scan = DriveScan(np.linspace(0.9 * freqs[0], 1.1 * freqs[-1], 400), TWO_PI * 2e3)
        spectra = [linear_response_spectrum(config, scan, BeamSpec(kind, 1e-23, waist_radius=17e-6))
                   for kind in ("broad", "focused")]
        calls, solver = [], analysis.least_squares

        def counted(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(analysis, "least_squares", counted)
        for spectrum in spectra:
            analyze_spectrum(spectrum)
        assert len(calls) == len(spectra)


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
        # a NaN position never settles: 20 starting nodes after eight triplings
        expected = "profile quadrature did not settle within 131220 nodes (A = 1, sigma = 1)"
        with pytest.raises(AnalysisError, match=f"^{re.escape(expected)}$"):
            blurred_arcsine(np.array([0.0, np.nan]), 1.0, 1.0)

    @pytest.mark.parametrize("amplitude, sigma, message", [
        (np.inf, 1.0, "amplitude must be finite"),
        (-np.inf, 1.0, "amplitude must be finite"),
        (np.nan, 1.0, "amplitude must be finite"),
        (1.0, np.inf, "sigma must be positive and finite"),
        (1.0, np.nan, "sigma must be positive and finite"),
    ])
    def test_rejects_non_finite_parameters(self, amplitude, sigma, message):
        with pytest.raises(AnalysisError, match=message):
            blurred_arcsine(np.linspace(-3.0, 3.0, 7), amplitude, sigma)

    @pytest.mark.parametrize("amplitude, sigma", [(1e300, 1.0), (1.0, 1e-300), (2e7, 1.0)])
    def test_rejects_a_start_over_the_node_budget(self, amplitude, sigma):
        """The first round's 3 (16 + pi A / sigma) nodes are checked before any is made."""
        tracemalloc.start()
        try:
            with pytest.raises(AnalysisError, match="profile quadrature at A = .* GiB budget"):
                blurred_arcsine(np.linspace(-3.0, 3.0, 7), amplitude, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_quadrature_that_never_settles_keeps_to_its_blocks(self):
        """A NaN position at A = 300 sigma runs all eight triplings, to 6.3 million
        nodes. Each block's nodes come from its own index range, so the peak
        memory follows ``_PROFILE_BLOCK_ELEMENTS``, not the node count of a round
        (whole-round node arrays peaked at 107 MB here)."""
        expected = "profile quadrature did not settle within 6291999 nodes (A = 300, sigma = 1)"
        tracemalloc.start()
        try:
            with pytest.raises(AnalysisError, match=f"^{re.escape(expected)}$"):
                blurred_arcsine(np.array([0.0, np.nan, 1.0]), 300.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("elements", [1, 1 << 16])
    def test_first_round_checks_the_middle_node_rule(self, monkeypatch, elements):
        """The first round compares the 26-node rule, read off the middle node of
        each triple, with the 78-node rule (A = 3 sigma). They agree inside the
        profile and differ by ~7e-7 at x = A + 30 sigma, also in blocks of one triple.
        """
        monkeypatch.setattr(analysis, "_PROFILE_BLOCK_ELEMENTS", elements)
        monkeypatch.setattr(analysis, "_PROFILE_MAX_TRIPLINGS", 1)
        x = np.linspace(-8.0, 8.0, 33)
        assert analysis._arcsine_quadrature(x, 3.0, 1.0)[0] == pytest.approx(
            blurred_arcsine(x, 3.0, 1.0), rel=1e-14)
        expected = "profile quadrature did not settle within 78 nodes (A = 3, sigma = 1)"
        with pytest.raises(AnalysisError, match=f"^{re.escape(expected)}$"):
            analysis._arcsine_quadrature(np.r_[x, 33.0], 3.0, 1.0)

    @pytest.mark.parametrize("amplitude, sigma", [(0.0, 1.0), (3.0, 0.5), (40.0, 0.3), (2.0, 1e-3)])
    def test_blocks_agree_with_one_pass(self, monkeypatch, amplitude, sigma):
        """Blocks of whole triples, down to one triple, sum the same nodes as a single block."""
        x = np.linspace(-1.0, 1.0, 37) * (amplitude + 5.0 * sigma)
        monkeypatch.setattr(analysis, "_PROFILE_BLOCK_ELEMENTS", 1 << 40)
        whole = analysis._arcsine_quadrature(x, amplitude, sigma)
        for elements in (1, 5 * x.size, 64 * x.size):
            monkeypatch.setattr(analysis, "_PROFILE_BLOCK_ELEMENTS", elements)
            blocked = analysis._arcsine_quadrature(x, amplitude, sigma)
            assert np.all(np.abs(blocked[0] - whole[0]) <= 1e-14 * whole[0])
            # the derivatives cancel (d/dA is 0 at A = 0): hold them to rho / sigma
            assert np.all(np.abs(blocked[1:] - whole[1:]) <= 1e-14 * whole[0].max() / sigma)


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
        # typed errors, not RuntimeWarnings from the grid or width arithmetic
        for sigma in (np.inf, np.nan):
            with pytest.raises(AnalysisError, match="^psf_sigma must be positive and finite$"):
                fit_profile(x, y, psf_sigma=sigma)
        with pytest.raises(AnalysisError, match="^psf_sigma must be a real number, got '1'$"):
            fit_profile(x, y, psf_sigma="1")
        for where in (0, 50, -1):
            bad = x.copy()
            bad[where] = np.inf
            with pytest.raises(AnalysisError, match="^positions must be finite$"):
                fit_profile(bad, y)


# -- the bounded least-squares solver -----------------------------------------

def trf(model, x0, **kwargs):
    """scipy's trust-region reflective solver, the reference for ``analysis.least_squares``.

    It takes the same ``model`` returning ``(residual, jacobian, ...)`` and
    sets ``evaluation`` to the model's return value at the solution.
    """
    result = scipy_least_squares(lambda x: model(x)[0], x0, jac=lambda x: model(x)[1],
                                 method="trf", **kwargs)
    result.evaluation = model(result.x)
    return result


def fit_with_trf(monkeypatch, fit, *args, **kwargs):
    """``fit`` with scipy's ``trf`` in place of the in-house solver."""
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "least_squares", trf)
        return fit(*args, **kwargs)


#: Largest in-house vs trf difference allowed, in units of the fit's own 1-sigma error.
AGREEMENT = 0.01


class TestLeastSquares:
    def test_reaches_the_minimum_of_box_constrained_linear_problems(self):
        """Convex problems have one minimum; starts on the bounds included."""
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, n = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            a = rng.normal(size=(m, n))
            b = 3.0 * rng.normal(size=m)
            lower = np.where(rng.random(n) < 0.7, 0.5 * rng.normal(size=n), -np.inf)
            upper = np.where(rng.random(n) < 0.5,
                             np.where(np.isfinite(lower), lower, 0.0) + 0.01
                             + np.abs(rng.normal(size=n)), np.inf)
            x0 = np.clip(rng.normal(size=n), lower, upper)
            if rng.random() < 0.5:
                x0 = np.where(np.isfinite(lower), lower, x0)
            result = analysis.least_squares(lambda x: (a @ x - b, a), x0,
                                            bounds=(lower, upper))
            best = lsq_linear(a, b, bounds=(lower, upper), method="bvls").x
            assert result.success
            assert np.all((lower <= result.x) & (result.x <= upper))
            assert result.cost <= 0.5 * np.sum((a @ best - b) ** 2) * (1 + 1e-9) + 1e-15
            assert result.nfev < 40

    def test_rosenbrock(self):
        result = analysis.least_squares(
            lambda p: (np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]),
                       np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])),
            np.array([-1.2, 1.0]),
        )
        assert result.success
        assert result.x == pytest.approx([1.0, 1.0], abs=1e-8)
        assert result.jac.shape == (2, 2)

    def test_status_codes_and_messages(self):
        def model(p):
            return np.array([p[0] - 1.0, p[0] + 1.0]), np.array([[1.0], [1.0]])

        capped = analysis.least_squares(model, [5.0], max_nfev=1)
        assert (capped.status, capped.success, capped.nfev) == (0, False, 1)
        assert capped.message == "The maximum number of function evaluations is exceeded."
        at_minimum = analysis.least_squares(model, [0.0])
        assert (at_minimum.status, at_minimum.nfev) == (1, 1)
        assert at_minimum.message == "`gtol` termination condition is satisfied."
        assert at_minimum.cost == 1.0
        solved = analysis.least_squares(model, [5.0], gtol=0.0)
        assert solved.success and solved.status in (2, 3, 4)
        assert solved.x == pytest.approx([0.0], abs=1e-12)

    def test_a_non_finite_start_stops_after_one_evaluation(self):
        calls = []

        def model(p):
            calls.append(p)
            return np.array([p[0] - 1.0, np.nan]), None  # the Jacobian is never needed

        with pytest.raises(AnalysisError, match="^residuals are not finite at the initial point$"):
            analysis.least_squares(model, [5.0])
        assert len(calls) == 1

    def test_an_infeasible_trial_point_cuts_the_radius(self):
        """A non-finite residual at a trial point is a rejected step a quarter as long."""
        trials = []

        def model(p):
            trials.append(p[0])
            jac = np.array([[1.0], [2.0]])
            if len(trials) == 2:
                return np.array([np.inf, 0.0]), jac
            return np.array([p[0] - 1.0, 2.0 * (p[0] + 1.0)]), jac

        result = analysis.least_squares(model, [5.0], x_scale=1.0)
        assert result.success and result.x == pytest.approx([-0.6], abs=1e-12)
        assert abs(trials[2] - 5.0) == pytest.approx(0.25 * abs(trials[1] - 5.0))

    @pytest.mark.parametrize("deficiency", ["zero column", "equal columns"])
    def test_rank_deficient_jacobian_reaches_the_trf_cost(self, deficiency):
        """The damped step on a rank-deficient ``J D^-1`` reaches trf's cost.

        An exponential decay ``a exp(-k t) + c`` fitted with a fourth
        parameter that either never enters the model (an all-zero column) or
        shares the rate with ``k`` (two equal columns). The strict warning
        filters turn any warning of the solve into an error.
        """
        t = np.linspace(0.0, 4.0, 40)
        rng = np.random.default_rng(5)
        y = 2.0 * np.exp(-1.3 * t) + 0.4 + 1e-3 * rng.standard_normal(t.size)

        def rate(p):
            return p[1] + (p[3] if deficiency == "equal columns" else 0.0)

        def model(p):
            e = np.exp(-rate(p) * t)
            d_rate = -p[0] * t * e
            zero = np.zeros_like(t)
            return p[0] * e + p[2] - y, np.column_stack(
                [e, d_rate, np.ones_like(t), d_rate if deficiency == "equal columns" else zero])

        p0 = np.array([1.0, 0.5, 0.0, 0.2])
        ours = analysis.least_squares(model, p0)
        reference = trf(model, p0)
        assert ours.success and reference.success
        assert np.linalg.matrix_rank(ours.jac) == 3
        assert ours.cost <= reference.cost * (1.0 + 1e-9)

    def test_modal_fit_agrees_with_trf(self, monkeypatch):
        grid = np.linspace(0.8e6, 1.2e6, 600)
        centers = np.array([0.9e6, 1.0e6, 1.08e6])
        gammas = np.array([6.0e3, 8.0e3, 5.0e3])
        heights = np.array([[1.0, -0.6, 0.3], [0.5, 0.8, -1.0], [0.2, 0.4, 0.9]]) * 1e-6
        z = modal_response(grid, centers, gammas, heights * gammas * centers)
        rng = np.random.default_rng(11)
        z = z + 0.01 * np.abs(z).max() * (rng.standard_normal(z.shape)
                                           + 1j * rng.standard_normal(z.shape))
        ours = fit_modal_sum(grid, z, 3)
        reference = fit_with_trf(monkeypatch, fit_modal_sum, grid, z, 3)
        for value, error in (("centers", "center_errors"), ("hwhms", "hwhm_errors"),
                             ("heights", "height_errors")):
            assert np.all(np.abs(getattr(ours, value) - getattr(reference, value))
                          < AGREEMENT * getattr(ours, error)), value

    def test_zero_height_lorentzian_agrees_with_trf(self):
        """A third peak pinned on a dip cannot help the fit: its height stays at 0.

        The test problem is three Lorentzians ``h / (1 + t^2)``, ``t = (x - c) / g``,
        plus an offset, with parameters [c_0, g_0, h_0, c_1, ..., offset]."""
        x = np.linspace(0.0, 1.0, 401)

        def model_and_jacobian(p):
            c, g, h = p[:-1].reshape(-1, 3).T
            t = (x[:, None] - c) / g
            shape = 1.0 / (1.0 + t**2)
            d_center = 2.0 * h * t * shape**2 / g
            jac = np.ones((x.size, p.size))
            jac[:, 0:-1:3] = d_center
            jac[:, 1:-1:3] = d_center * t
            jac[:, 2:-1:3] = shape
            return p[-1] + (h / (1.0 + t**2)).sum(axis=1), jac

        rng = np.random.default_rng(0)
        dip = np.array([0.3, 0.03, 1.0, 0.6, 0.04, 0.5, 0.45, 0.01, -0.2, 0.05])
        y = model_and_jacobian(dip)[0] + 1e-3 * rng.standard_normal(x.size)
        p0 = np.array([0.3, 0.03, 1.0, 0.6, 0.04, 0.5, 0.45, 0.01, 0.1, 0.05])
        lower = np.array([0.0, x[1], 0.0] * 3 + [0.0])
        upper = np.array([1.0, 1.0, np.inf] * 3 + [np.inf])
        lower[6:8], upper[6:8] = p0[6:8], p0[6:8] * (1.0 + 1e-12)

        def model(p):
            values, jac = model_and_jacobian(p)
            return values - y, jac

        ours = analysis.least_squares(model, p0, bounds=(lower, upper))
        reference = trf(model, p0, bounds=(lower, upper))
        assert ours.success and reference.success
        assert ours.x[8] == 0.0
        fitted = np.r_[0:6, 8, 9]  # the pinned center and width have no error
        cov = analysis._covariance(ours, x.size - p0.size)[1]
        errors = np.sqrt(np.maximum(np.diag(cov), 0.0))[fitted]
        assert np.all(np.abs(ours.x - reference.x)[fitted] < AGREEMENT * errors)

    def test_damping_at_the_floor_agrees_with_trf(self, monkeypatch):
        grid = np.linspace(2.0e5, 1.0e6, 301)
        step = grid[1] - grid[0]
        centers = np.array([4.0e5, 7.0e5])
        gammas = np.array([gamma_of(0.2 * step), gamma_of(3.0e4)])
        heights = np.array([[1.0e-6, 0.5e-6], [0.3e-6, -2.0e-6]])
        z = modal_response(grid, centers, gammas, heights * gammas * centers)
        rng = np.random.default_rng(0)
        z = z + 1e-3 * np.abs(z).max() * (rng.standard_normal(z.shape)
                                          + 1j * rng.standard_normal(z.shape))
        ours = fit_modal_sum(grid, z, 2)
        reference = fit_with_trf(monkeypatch, fit_modal_sum, grid, z, 2)
        assert ours.hwhms[0] == pytest.approx(WIDTH_FLOOR_STEPS * step, rel=1e-12)
        assert ours.hwhms == pytest.approx(reference.hwhms, rel=1e-8)
        assert np.all(np.abs(ours.centers - reference.centers) < AGREEMENT * ours.center_errors)
        assert np.all(np.abs(ours.heights - reference.heights) < AGREEMENT * ours.height_errors)

    @pytest.mark.parametrize("amplitude, seed", [(3.0, 0), (0.0, 1)])
    def test_profile_fit_agrees_with_trf(self, monkeypatch, amplitude, seed):
        """Poisson counts; at A = 0 the amplitude sits on its bound."""
        x, y = TestProfileFit().make_profile(amplitude, total=20000.0)
        width = x[1] - x[0]
        counts = np.random.default_rng(seed).poisson(y * width) / width
        ours = fit_profile(x, counts, psf_sigma=1.0)
        reference = fit_with_trf(monkeypatch, fit_profile, x, counts, psf_sigma=1.0)
        if amplitude > 0:
            assert abs(ours.amplitude - reference.amplitude) < AGREEMENT * ours.amplitude_error
        else:
            # d(density)/dA vanishes at A = 0, so the error there says nothing
            assert ours.amplitude == 0.0
            assert reference.amplitude < 1e-9
        for name in ("center", "baseline", "density_scale"):
            assert getattr(ours, name) == pytest.approx(getattr(reference, name), rel=1e-7)

    @pytest.mark.parametrize("fit", ["modal", "profile"])
    def test_a_non_finite_start_says_so(self, monkeypatch, fit):
        """Each fit raises the solver's error at once, not "did not converge"."""
        solver = analysis.least_squares
        starts = []

        def infeasible(model, x0, **kwargs):
            starts.append(x0)
            return solver(lambda p: (np.full_like(model(p)[0], np.nan), None), x0, **kwargs)

        monkeypatch.setattr(analysis, "least_squares", infeasible)
        grid = np.linspace(6.0e6, 7.0e6, 401)
        centers, hwhms = np.array([6.2e6, 6.5e6, 6.8e6]), np.array([3.0e4, 4.0e4, 5.0e4])
        with pytest.raises(AnalysisError, match="^residuals are not finite at the initial point$"):
            if fit == "modal":
                fit_modal_sum(grid, modal_response(grid, centers, gamma_of(hwhms), np.eye(3)), 3)
            else:
                fit_profile(*TestProfileFit().make_profile(1.0), psf_sigma=1.0)
        assert len(starts) == 1

    @pytest.mark.parametrize("fit, message", [
        ("modal", "modal fit did not converge"),
        ("profile", "profile fit did not converge"),
    ])
    def test_failed_solve_raises_with_the_solver_message(self, monkeypatch, fit, message):
        solver = analysis.least_squares
        monkeypatch.setattr(analysis, "least_squares",
                            lambda *args, **kwargs: solver(*args, **kwargs, max_nfev=1))
        expected = f"{message}: The maximum number of function evaluations is exceeded."
        grid = np.linspace(6.0e6, 7.0e6, 401)
        centers, hwhms = np.array([6.2e6, 6.5e6, 6.8e6]), np.array([3.0e4, 4.0e4, 5.0e4])
        with pytest.raises(AnalysisError, match=f"^{re.escape(expected)}$"):
            if fit == "modal":
                fit_modal_sum(grid, modal_response(grid, centers, gamma_of(hwhms), np.eye(3)), 3)
            else:
                fit_profile(*TestProfileFit().make_profile(1.0), psf_sigma=1.0)


class TestOneModelCallPerEvaluation:
    """Each fit evaluates its model exactly ``nfev`` times: once per trial point, never after."""

    @staticmethod
    def count(monkeypatch, model_name):
        """Calls of ``analysis.<model_name>``, and the ``nfev`` of each solve."""
        calls, solves = [], []
        model, solver = getattr(analysis, model_name), analysis.least_squares

        def counted(*args, **kwargs):
            calls.append(args)
            return model(*args, **kwargs)

        def solve(*args, **kwargs):
            result = solver(*args, **kwargs)
            solves.append(result.nfev)
            return result

        monkeypatch.setattr(analysis, model_name, counted)
        monkeypatch.setattr(analysis, "least_squares", solve)
        return calls, solves

    @pytest.mark.parametrize("n_ions", [3, 10])
    def test_modal_fit(self, monkeypatch, n_ions):
        """Noiseless ``response`` spectra, one under the broad beam and one focused."""
        calls, solves = self.count(monkeypatch, "_project_residues")
        plan = ExperimentPlan(omega_z_values=TWO_PI * np.array([47e3, 150e3]))
        report = run_experiment(TrapConfig(n_ions=n_ions), plan)
        assert [p.failure for p in report.points] == [None, None]
        assert len(solves) == 2
        assert len(calls) == sum(solves)

    @pytest.mark.parametrize("psf_sigma", [1.0, None])
    def test_profile_fit(self, monkeypatch, psf_sigma):
        x, y = TestProfileFit().make_profile(3.0)
        calls, solves = self.count(monkeypatch, "_profile_model")
        fit_profile(x, y, psf_sigma=psf_sigma)
        assert len(solves) == 1
        assert len(calls) == solves[0]
