"""Normal-mode tables: eigenvalues, eigenvectors, participation ratios."""
import math

import numpy as np
import pytest

from tapermode.core import TWO_PI, TrapConfig
from tapermode.equilibrium import axial_curvature, chain_positions_dimensionless
from tapermode.errors import ConfigError, SolverError
from tapermode.modes import (
    canonical_sign,
    compute_modes,
    coupling_matrix,
    linear_reference,
    participation_ratio,
    radial_coupling_matrix,
    site_frequencies,
)


def straight_config_with_beta(beta, omega_x0=TWO_PI * 1e6):
    """A straight-trap config whose effective radial coupling ratio is beta."""
    omega_z = beta * omega_x0 / math.sqrt(1.0 + beta**2 / 2.0)
    return TrapConfig(
        omega_z=omega_z,
        omega_x0=omega_x0,
        omega_y0=omega_x0,
        funnel_length=math.inf,
    )


class TestClosedForms:
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
    def test_straight_trap_radial_eigenvalues(self, beta):
        config = straight_config_with_beta(beta)
        assert config.beta("x") == pytest.approx(beta, rel=1e-12)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        eigenvalues = sorted(m.eigenvalue for m in modes)
        expected = sorted([1.0, 1.0 - beta**2, 1.0 - 2.4 * beta**2])
        assert eigenvalues == pytest.approx(expected, abs=1e-9)

    def test_straight_trap_axial_eigenvalues(self):
        config = straight_config_with_beta(0.1)
        modes = compute_modes(config, directions=("z",)).by_direction("z")
        assert [m.eigenvalue for m in modes] == pytest.approx([1.0, 3.0, 29.0 / 5.0], abs=1e-9)

    def test_center_of_mass_mode_is_uniform(self):
        config = straight_config_with_beta(0.1)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        com = modes[-1]  # eigenvalue 1 is the largest radial eigenvalue
        assert com.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert com.vector == pytest.approx(np.ones(3) / math.sqrt(3), abs=1e-9)
        assert com.frequency == pytest.approx(config.omega_x, rel=1e-12)

    def test_straight_trap_radial_patterns(self):
        config = straight_config_with_beta(0.1)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        zigzag, rocking, _ = modes
        s6, s2 = 1 / math.sqrt(6), 1 / math.sqrt(2)
        assert np.abs(zigzag.vector) == pytest.approx([s6, 2 * s6, s6], abs=1e-9)
        assert np.sign(zigzag.vector[0]) != np.sign(zigzag.vector[1])
        assert np.abs(rocking.vector) == pytest.approx([s2, 0.0, s2], abs=1e-9)


class TestCouplingMatrices:
    def test_radial_matrix_from_axial_matrix(self):
        """Radial coupling = identity + taper term - (beta^2/2)(axial - identity)."""
        u = chain_positions_dimensionless(4)
        beta, taper = 0.17, 0.03
        radial = radial_coupling_matrix(u, beta, taper)
        axial = axial_curvature(u)
        expected = np.eye(4) + taper * np.diag(u) - 0.5 * beta**2 * (axial - np.eye(4))
        assert np.allclose(radial, expected, atol=1e-14)

    def test_matrices_are_symmetric(self):
        u = chain_positions_dimensionless(5)
        radial = radial_coupling_matrix(u, 0.2, 0.05)
        axial = axial_curvature(u)
        assert np.array_equal(radial, radial.T)
        assert np.array_equal(axial, axial.T)

    def test_axial_com_row_sums_to_one(self):
        """Uniform motion feels only the trap: row sums of the axial matrix are 1."""
        u = chain_positions_dimensionless(6)
        assert axial_curvature(u).sum(axis=1) == pytest.approx(np.ones(6))

    def test_stacked_radial_matrices_equal_single_ones(self):
        u = chain_positions_dimensionless(5)
        betas = np.array([[0.1, 0.2, 0.3], [0.15, 0.25, 0.35]])
        tapers = np.array([[0.0, 0.02, 0.05], [0.01, 0.03, 0.04]])
        stack = radial_coupling_matrix(u, betas, tapers)
        assert stack.shape == (2, 3, 5, 5)
        for index in np.ndindex(betas.shape):
            single = radial_coupling_matrix(u, betas[index], tapers[index])
            assert np.array_equal(stack[index], single)

    def test_config_level_matrix_uses_equilibrium(self):
        config = TrapConfig()
        u = chain_positions_dimensionless(3)
        expected = radial_coupling_matrix(u, config.beta("x"), config.taper_ratio)
        assert np.allclose(coupling_matrix(config, "x"), expected)


class TestModeTable:
    def test_frequencies_ascend_and_indices_are_one_based(self):
        table = compute_modes(TrapConfig())
        for direction in ("x", "y", "z"):
            modes = table.by_direction(direction)
            freqs = [m.frequency for m in modes]
            assert freqs == sorted(freqs)
            assert [m.index for m in modes] == [1, 2, 3]

    def test_eigenvectors_orthonormal(self):
        table = compute_modes(TrapConfig())
        for direction in ("x", "y", "z"):
            matrix = np.column_stack([m.vector for m in table.by_direction(direction)])
            assert np.allclose(matrix.T @ matrix, np.eye(3), atol=1e-12)

    def test_canonical_sign_convention(self):
        assert canonical_sign(np.array([0.1, -0.9, 0.2]))[1] > 0
        table = compute_modes(TrapConfig())
        for mode in table.modes:
            assert mode.vector[np.argmax(np.abs(mode.vector))] > 0

    def test_participation_ratio_bounds(self):
        assert participation_ratio(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert participation_ratio(np.ones(4) / 2.0) == pytest.approx(4.0)
        for mode in compute_modes(TrapConfig()).modes:
            assert 1.0 <= mode.participation <= 3.0 + 1e-12

    def test_helpers_work_column_by_column(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(4, 6, 5))
        signed = canonical_sign(stack)
        ratios = participation_ratio(stack)
        assert signed.shape == stack.shape and ratios.shape == (4, 5)
        for m in range(4):
            for k in range(5):
                assert np.array_equal(signed[m, :, k], canonical_sign(stack[m, :, k]))
                assert ratios[m, k] == pytest.approx(participation_ratio(stack[m, :, k]), rel=1e-14)

    def test_arrays_are_the_mode_records(self):
        table = compute_modes(TrapConfig(n_ions=4))
        for direction in ("x", "y", "z"):
            modes = table.by_direction(direction)
            assert np.array_equal(table.eigenvalues(direction), [m.eigenvalue for m in modes])
            assert np.array_equal(table.frequencies(direction), [m.frequency for m in modes])
            assert np.array_equal(table.matrix(direction), np.column_stack([m.vector for m in modes]))
            for array in (table.eigenvalues(direction), table.frequencies(direction),
                          table.matrix(direction), modes[0].vector):
                assert not array.flags.writeable

    def test_directions_not_computed_are_rejected(self):
        table = compute_modes(TrapConfig(), directions=("x",))
        with pytest.raises(ConfigError, match="not computed"):
            table.frequencies("y")
        with pytest.raises(ConfigError, match="unknown"):
            table.matrix("q")

    def test_unstable_mode_raises_solver_error(self):
        # strong axial confinement drives the lowest radial eigenvalue below 0
        config = straight_config_with_beta(0.7)
        with pytest.raises(SolverError, match="unstable"):
            compute_modes(config, directions=("x",))

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigError):
            compute_modes(TrapConfig(), directions=("q",))


class TestTaperedRegimes:
    def test_weak_confinement_localizes_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 47e3)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        for mode in modes:
            assert mode.participation < 1.05
        # each mode belongs to one ion, in axial order
        assert [int(np.argmax(np.abs(m.vector))) for m in modes] == [0, 1, 2]

    def test_site_frequencies_match_localized_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 47e3)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        sites = site_frequencies(config, "x")
        for mode, site in zip(modes, sites):
            assert abs(mode.frequency - site) / site < 0.005

    def test_strong_confinement_delocalizes_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 205e3)
        modes = compute_modes(config, directions=("x",)).by_direction("x")
        for mode in modes:
            assert np.min(np.abs(mode.vector)) > 0.1
            assert mode.participation > 2.0

    def test_linear_reference_strips_the_taper(self):
        config = TrapConfig()
        reference = linear_reference(config, "x")
        assert math.isinf(reference.config.funnel_length)
        gammas = sorted(m.eigenvalue for m in reference.by_direction("x"))
        beta = config.beta("x")
        assert gammas == pytest.approx(
            [1.0 - 2.4 * beta**2, 1.0 - beta**2, 1.0], abs=1e-12
        )

    def test_site_frequencies_use_funnel_factor(self):
        config = TrapConfig()
        u = chain_positions_dimensionless(3)
        factor = 1.0 + config.taper_ratio * u
        assert site_frequencies(config, "x") == pytest.approx(
            config.omega_x * np.sqrt(factor)
        )
