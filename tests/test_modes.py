"""Normal-mode tables: eigenvalues, eigenvectors, participation ratios."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapermode.core import TWO_PI, TrapConfig
from tapermode.equilibrium import (
    axial_curvature,
    chain_positions_dimensionless,
    coulomb_matrix,
    equilibrium_positions,
)
from tapermode.errors import ConfigError, SolverError
from tapermode.modes import (
    DIRECTIONS,
    canonical_sign,
    compute_modes,
    coupling_matrix,
    participation_ratio,
    radial_coupling_matrix,
    site_frequencies,
)

from reference_modes import linear_reference


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
        eigenvalues = sorted(compute_modes(config).eigenvalues("x"))
        expected = sorted([1.0, 1.0 - beta**2, 1.0 - 2.4 * beta**2])
        assert eigenvalues == pytest.approx(expected, abs=1e-9)

    def test_straight_trap_axial_eigenvalues(self):
        config = straight_config_with_beta(0.1)
        eigenvalues = compute_modes(config).eigenvalues("z")
        assert list(eigenvalues) == pytest.approx([1.0, 3.0, 29.0 / 5.0], abs=1e-9)

    def test_center_of_mass_mode_is_uniform(self):
        config = straight_config_with_beta(0.1)
        table = compute_modes(config)
        # eigenvalue 1 is the largest radial eigenvalue
        assert table.eigenvalues("x")[-1] == pytest.approx(1.0, abs=1e-12)
        assert table.matrix("x")[:, -1] == pytest.approx(np.ones(3) / math.sqrt(3), abs=1e-9)
        assert table.frequencies("x")[-1] == pytest.approx(config.omega_x, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(beta2=st.floats(1e-4, 5.0 / 12.0, exclude_max=True))
    def test_three_ion_closed_forms_below_the_zigzag(self, beta2):
        """x: {1 - 12/5 beta^2, 1 - beta^2, 1}; axial: {1, 3, 29/5}, for any beta^2 < 5/12."""
        config = straight_config_with_beta(math.sqrt(beta2))
        table = compute_modes(config)
        beta2 = config.beta("x") ** 2
        assert list(table.eigenvalues("x")) == pytest.approx(
            [1.0 - 12.0 / 5.0 * beta2, 1.0 - beta2, 1.0], abs=1e-9
        )
        assert list(table.eigenvalues("z")) == pytest.approx([1.0, 3.0, 29.0 / 5.0], abs=1e-9)

    def test_straight_trap_radial_patterns(self):
        config = straight_config_with_beta(0.1)
        zigzag, rocking, _ = compute_modes(config).matrix("x").T
        s6, s2 = 1 / math.sqrt(6), 1 / math.sqrt(2)
        assert np.abs(zigzag) == pytest.approx([s6, 2 * s6, s6], abs=1e-9)
        assert np.sign(zigzag[0]) != np.sign(zigzag[1])
        assert np.abs(rocking) == pytest.approx([s2, 0.0, s2], abs=1e-9)


class TestCouplingMatrices:
    def test_radial_matrix_from_axial_matrix(self):
        """Radial coupling = identity + taper term - (beta^2/2)(axial - identity)."""
        u = chain_positions_dimensionless(4)
        beta, taper = 0.17, 0.03
        radial = radial_coupling_matrix(u, beta, taper)
        axial = axial_curvature(u)
        expected = np.eye(4) + taper * np.diag(u) - 0.5 * beta**2 * (axial - np.eye(4))
        assert np.allclose(radial, expected, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(n_ions=st.integers(1, 40), beta=st.floats(0.0, 2.0), taper=st.floats(0.0, 0.5))
    def test_eigenvalues_sum_to_the_trace(self, n_ions, beta, taper):
        """sum_k gamma_k = trace(I + t diag(u) + beta^2 K) = N + beta^2 trace(K),
        since sum u = 0 by mirror symmetry."""
        u = chain_positions_dimensionless(n_ions)
        radial = radial_coupling_matrix(u, beta, taper)
        expected = n_ions + beta**2 * np.trace(coulomb_matrix(u))
        # eigvalsh is backward stable: each eigenvalue within ~N eps ||A||
        bound = 8 * n_ions**2 * np.finfo(float).eps * np.max(np.abs(radial).sum(axis=1))
        assert abs(np.sum(np.linalg.eigvalsh(radial)) - expected) <= bound

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
            freqs = list(table.frequencies(direction))
            assert freqs == sorted(freqs)
            assert len(freqs) == 3  # one mode per ion; the file index is rank + 1

    def test_eigenvectors_orthonormal(self):
        table = compute_modes(TrapConfig())
        for direction in ("x", "y", "z"):
            matrix = table.matrix(direction)
            assert np.allclose(matrix.T @ matrix, np.eye(3), atol=1e-12)

    def test_canonical_sign_convention(self):
        assert canonical_sign(np.array([0.1, -0.9, 0.2]))[1] > 0
        table = compute_modes(TrapConfig())
        for vector in table.all_vectors.transpose(0, 2, 1).reshape(-1, 3):
            assert vector[np.argmax(np.abs(vector))] > 0

    def test_participation_ratio_bounds(self):
        assert participation_ratio(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert participation_ratio(np.ones(4) / 2.0) == pytest.approx(4.0)
        for ratio in compute_modes(TrapConfig()).all_participation.ravel():
            assert 1.0 <= ratio <= 3.0 + 1e-12

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

    def test_accessors_are_read_only_rows_of_the_stacks(self):
        table = compute_modes(TrapConfig(n_ions=4))
        stacks = (table.all_eigenvalues, table.all_frequencies, table.all_vectors,
                  table.all_participation)
        assert [s.shape for s in stacks] == [(3, 4), (3, 4), (3, 4, 4), (3, 4)]
        assert all(not s.flags.writeable for s in stacks)
        for i, direction in enumerate(DIRECTIONS):
            rows = (table.eigenvalues(direction), table.frequencies(direction),
                    table.matrix(direction), table.participation(direction))
            for row, stack in zip(rows, stacks):
                assert np.array_equal(row, stack[i])
                assert not row.flags.writeable
            assert np.array_equal(table.participation(direction),
                                  participation_ratio(table.matrix(direction)))

    def test_directions_not_computed_are_rejected(self):
        table = compute_modes(TrapConfig())
        with pytest.raises(ConfigError, match="unknown"):
            table.matrix("q")

    def test_unstable_mode_raises_solver_error(self):
        # strong axial confinement drives the lowest radial eigenvalue below 0
        config = straight_config_with_beta(0.7)
        with pytest.raises(SolverError, match="unstable") as info:
            compute_modes(config)
        # a zigzag instability has no funnel cause to name
        assert str(info.value).endswith("the on-axis chain is unstable for this configuration")

    def test_end_ion_past_the_funnel_is_named(self):
        """At N = 100 and 10 kHz ion 1 sits past L/2, where 1 + 2z/L < 0."""
        config = TrapConfig(n_ions=100, omega_z=TWO_PI * 10e3)
        z1 = equilibrium_positions(config)[0, 2]
        assert -z1 > config.funnel_length / 2
        with pytest.raises(SolverError) as info:
            compute_modes(config)
        message = str(info.value)
        assert message.startswith(
            f"direction 'x' (ion 1 sits at z = {1e3 * z1:.4g} mm, past half the funnel length "
            f"L/2 = 0.905 mm, so its radial site factor 1 + 2z/L = "
            f"{config.funnel_factor(z1):.4g} is not positive) has non-positive stiffness "
            "eigenvalue -0.0151"
        )
        assert "-0.9176 mm" in message and "-0.01397" in message


class TestTaperedRegimes:
    def test_weak_confinement_localizes_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 47e3)
        table = compute_modes(config)
        for ratio in table.participation("x"):
            assert ratio < 1.05
        # each mode belongs to one ion, in axial order
        assert list(np.argmax(np.abs(table.matrix("x")), axis=0)) == [0, 1, 2]

    def test_site_frequencies_match_localized_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 47e3)
        freqs = compute_modes(config).frequencies("x")
        sites = site_frequencies(config, "x")
        for freq, site in zip(freqs, sites):
            assert abs(freq - site) / site < 0.005

    def test_strong_confinement_delocalizes_modes(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 205e3)
        table = compute_modes(config)
        for vector, ratio in zip(table.matrix("x").T, table.participation("x")):
            assert np.min(np.abs(vector)) > 0.1
            assert ratio > 2.0

    def test_linear_reference_strips_the_taper(self):
        config = TrapConfig()
        reference = linear_reference(config)
        assert math.isinf(reference.config.funnel_length)
        gammas = sorted(reference.eigenvalues("x"))
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
