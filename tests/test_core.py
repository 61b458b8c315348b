"""Potential energy, gradient, and Hessian of the trapped chain."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import constants

from tapermode import core
from tapermode.core import (
    TWO_PI,
    TrapConfig,
    check_pair_budget,
    gradient,
    hessian,
    potential_energy,
)
from tapermode.equilibrium import chain_positions_dimensionless, equilibrium_positions
from tapermode.errors import ConfigError
from tapermode.modes import coupling_matrix, radial_coupling_matrix, reference_frequency


def random_states(config, count, seed):
    """Well-separated random ion positions, a few length scales across."""
    rng = np.random.default_rng(seed)
    lam = config.length_scale
    states = []
    while len(states) < count:
        r = rng.uniform(-2.0, 2.0, size=(config.n_ions, 3)) * lam
        diff = r[:, None, :] - r[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        dist[np.eye(config.n_ions, dtype=bool)] = np.inf
        if dist.min() > 0.3 * lam:
            states.append(r)
    return states


def dense_gradient(config, positions):
    """The gradient [..., N, 3] from the dense [..., N, N, 3] pair tensor.

    The einsum body ``core.gradient`` had before the pair-list kernel; kept
    as an independent reference for it and for the full-model integrator.
    """
    r = np.asarray(positions, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    fz = config.funnel_factor(z)
    m = config.mass
    wx2, wy2, wz2 = config.omega_x**2, config.omega_y**2, config.omega_z**2
    inv_l = 0.0 if math.isinf(config.funnel_length) else 1.0 / config.funnel_length

    grad = np.empty_like(r)
    grad[..., 0] = m * fz * wx2 * x
    grad[..., 1] = m * fz * wy2 * y
    grad[..., 2] = m * wz2 * z + m * inv_l * (wx2 * x**2 + wy2 * y**2)

    diff = r[..., :, None, :] - r[..., None, :, :]
    dist = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    idx = np.arange(r.shape[-2])
    dist[..., idx, idx] = np.inf
    grad -= config.coulomb_coupling * np.einsum("...ijk,...ij->...ik", diff, dist**-3)
    return grad


class TestTrapConfig:
    def test_physical_constants_equal_scipy(self):
        """The package's CODATA literals are the values of ``scipy.constants``."""
        assert core.ATOMIC_MASS == constants.atomic_mass
        assert core.ELEMENTARY_CHARGE == constants.elementary_charge
        assert core.EPSILON_0 == constants.epsilon_0

    def test_defaults_are_valid(self):
        config = TrapConfig()
        assert config.n_ions == 3
        assert config.omega_z == pytest.approx(TWO_PI * 100e3)
        assert config.charge == pytest.approx(constants.elementary_charge)

    def test_effective_radial_frequency_below_bare(self):
        config = TrapConfig()
        assert config.omega_x < config.omega_x0
        expected = math.sqrt(config.omega_x0**2 - config.omega_z**2 / 2)
        assert config.omega_x == pytest.approx(expected, rel=1e-12)

    def test_length_scale_and_spacing(self):
        # cube root of (charge^2 / (4 pi eps0 m omega_z^2)) at 100 kHz for
        # a 40 amu singly charged ion
        config = TrapConfig()
        assert config.length_scale * 1e6 == pytest.approx(20.6442, abs=2e-4)
        z = equilibrium_positions(config)[:, 2]
        assert (z[1] - z[0]) * 1e6 == pytest.approx(22.238, abs=2e-3)

    def test_rejects_too_strong_axial_confinement(self):
        with pytest.raises(ConfigError, match="configuration invalid"):
            TrapConfig().replace(omega_z=TWO_PI * 1.6e6)

    def test_rejects_bad_ion_count_and_charge(self):
        with pytest.raises(ConfigError):
            TrapConfig().replace(n_ions=0)
        with pytest.raises(ConfigError):
            TrapConfig().replace(charge_number=0)

    def test_taper_ratio_vanishes_for_straight_trap(self):
        config = TrapConfig().replace(funnel_length=math.inf)
        assert config.taper_ratio == 0.0
        assert config.funnel_factor(1e-3) == 1.0

    def test_mapping_round_trip(self):
        config = TrapConfig().replace(omega_z=TWO_PI * 150e3)
        again = TrapConfig.from_mapping(config.to_mapping())
        # unit conversions (m <-> mm, rad/s <-> Hz) round-trip to 1 ulp,
        # not bitwise; a fixed mapping parses deterministically either way
        assert again.n_ions == config.n_ions
        assert again.charge_number == config.charge_number
        for field in ("omega_z", "omega_x0", "omega_y0", "funnel_length", "mass"):
            assert getattr(again, field) == pytest.approx(
                getattr(config, field), rel=1e-14
            )

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="typo_key"):
            TrapConfig.from_mapping({"typo_key": 1})

    @pytest.mark.parametrize("data", [
        {"n_ions": "three"}, {"n_ions": True}, {"n_ions": 3.0}, {"omega_z_hz": "x"},
        {"omega_x0_hz": None}, {"funnel_length_mm": [1.81]}, {"ion_mass_amu": False},
        {"charge_multiple": 1.5},
    ])
    def test_mapping_rejects_wrong_types(self, data):
        (key,) = data
        with pytest.raises(ConfigError, match=f"^trap\\.{key} must be "):
            TrapConfig.from_mapping(data)

    @pytest.mark.parametrize("field", ["omega_z", "omega_x0", "omega_y0", "funnel_length",
                                       "mass"])
    @pytest.mark.parametrize("value", ["1", None, True])
    def test_non_numbers_are_config_errors(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
            TrapConfig(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"mass": math.inf}, "mass must be positive and finite"),
        ({"omega_x0": math.inf}, "bare radial frequencies must be positive, with finite squares"),
        ({"omega_y0": TWO_PI * 1e300}, "bare radial frequencies must be positive, "
                                       "with finite squares"),
        ({"charge_number": 10**400}, "charge_number is too large: q^2 / (4 pi eps0) overflows"),
        ({"charge_number": 10**170}, "charge_number is too large: q^2 / (4 pi eps0) overflows"),
        ({"omega_z": TWO_PI * 1e-300}, "configuration invalid: omega_z = 6.28319e-300 rad/s "
                                       "gives a radial frequency, beta or chain length unit "
                                       "that is zero or out of float range"),
        ({"mass": 1e300, "omega_z": 1e10, "omega_x0": 1e11, "omega_y0": 1e11},
         "configuration invalid: omega_z = 1e+10 rad/s gives a radial frequency"),
    ])
    def test_values_beyond_float_range_are_config_errors(self, fields, message):
        """A finite value whose derived scalars (charge, Coulomb coupling, radial
        frequency, beta, chain length unit) overflow or vanish fails when the
        config is built, not later as an OverflowError or ZeroDivisionError."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            TrapConfig(**fields)

    def test_bools_are_not_counts(self):
        with pytest.raises(ConfigError, match="n_ions"):
            TrapConfig(n_ions=True)
        with pytest.raises(ConfigError, match="charge_number"):
            TrapConfig(charge_number=True)

    def test_mapping_null_funnel_means_straight_trap(self):
        config = TrapConfig.from_mapping({"funnel_length_mm": None})
        assert math.isinf(config.funnel_length)
        assert TrapConfig.from_mapping({"funnel_length_mm": "inf"}) == config

    def test_mapping_units(self):
        config = TrapConfig.from_mapping(
            {"funnel_length_mm": 1.81, "ion_mass_amu": 40.0, "charge_multiple": 2}
        )
        assert config.funnel_length == pytest.approx(1.81e-3)
        assert config.charge == pytest.approx(2 * constants.elementary_charge)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        config = TrapConfig()
        h = 1e-7 * config.length_scale
        for r in random_states(config, 100, seed=3):
            g = gradient(config, r)
            g_fd = np.empty_like(g)
            for i in range(config.n_ions):
                for a in range(3):
                    rp, rm = r.copy(), r.copy()
                    rp[i, a] += h
                    rm[i, a] -= h
                    g_fd[i, a] = (
                        potential_energy(config, rp) - potential_energy(config, rm)
                    ) / (2 * h)
            scale = np.max(np.abs(g))
            assert np.max(np.abs(g - g_fd)) / scale < 1e-6

    def test_hessian_matches_gradient_differences(self):
        config = TrapConfig()
        h = 1e-6 * config.length_scale
        for r in random_states(config, 20, seed=4):
            hess = hessian(config, r)
            n = 3 * config.n_ions
            fd = np.empty((n, n))
            for col in range(n):
                rp, rm = r.copy(), r.copy()
                rp[col // 3, col % 3] += h
                rm[col // 3, col % 3] -= h
                fd[:, col] = (
                    gradient(config, rp) - gradient(config, rm)
                ).ravel() / (2 * h)
            scale = np.max(np.abs(hess))
            assert np.max(np.abs(hess - fd)) / scale < 1e-5

    def test_hessian_is_symmetric(self):
        config = TrapConfig()
        for r in random_states(config, 5, seed=5):
            hess = hessian(config, r)
            assert np.allclose(hess, hess.T, rtol=0, atol=1e-9 * np.max(np.abs(hess)))

    @pytest.mark.parametrize("n_ions", [3, 6])
    def test_hessian_matches_pairwise_loop(self, n_ions):
        """The vectorized Hessian equals an explicit per-ion, per-pair assembly."""
        config = TrapConfig(n_ions=n_ions)
        m, kq2 = config.mass, config.coulomb_coupling
        wx2, wy2, wz2 = config.omega_x**2, config.omega_y**2, config.omega_z**2
        inv_l = 1.0 / config.funnel_length
        for r in random_states(config, 5, seed=6):
            expected = np.zeros((3 * n_ions, 3 * n_ions))
            for i, (x, y, z) in enumerate(r):
                fz = 1.0 + 2.0 * z * inv_l
                expected[3 * i:3 * i + 3, 3 * i:3 * i + 3] = [
                    [m * fz * wx2, 0.0, 2.0 * m * inv_l * wx2 * x],
                    [0.0, m * fz * wy2, 2.0 * m * inv_l * wy2 * y],
                    [2.0 * m * inv_l * wx2 * x, 2.0 * m * inv_l * wy2 * y, m * wz2],
                ]
            for i in range(n_ions):
                for j in range(i + 1, n_ions):
                    s = r[i] - r[j]
                    d = np.linalg.norm(s)
                    pair = kq2 * (3.0 * np.outer(s, s) - d**2 * np.eye(3)) / d**5
                    expected[3 * i:3 * i + 3, 3 * i:3 * i + 3] += pair
                    expected[3 * j:3 * j + 3, 3 * j:3 * j + 3] += pair
                    expected[3 * i:3 * i + 3, 3 * j:3 * j + 3] -= pair
                    expected[3 * j:3 * j + 3, 3 * i:3 * i + 3] -= pair
            hess = hessian(config, r)
            assert np.max(np.abs(hess - expected)) < 1e-13 * np.max(np.abs(expected))

    def test_gradient_batch_axis_matches_single_chains(self):
        config = TrapConfig()
        states = np.array(random_states(config, 6, seed=7)).reshape(2, 3, 3, 3)
        batched = gradient(config, states)
        assert batched.shape == states.shape
        for index in np.ndindex(2, 3):
            single = gradient(config, states[index])
            assert np.max(np.abs(batched[index] - single)) <= 1e-14 * np.max(np.abs(single))
        with pytest.raises(ConfigError):
            gradient(config, np.zeros((4, 2, 3)))
        with pytest.raises(ConfigError):
            hessian(config, states)

    @settings(max_examples=60, deadline=None)
    @given(
        n_ions=st.integers(1, 12),
        funnel_mm=st.one_of(st.just(math.inf), st.floats(0.5, 50.0)),
        batch=st.sampled_from([(), (4,), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_dense_reference(self, n_ions, funnel_mm, batch, seed):
        """The pair-list kernel equals the dense pair tensor off axis, in any batch."""
        config = TrapConfig(n_ions=n_ions, funnel_length=1e-3 * funnel_mm)
        rng = np.random.default_rng(seed)
        spread = config.length_scale * np.array([0.5, 0.5, n_ions])
        positions = rng.uniform(-1.0, 1.0, size=batch + (n_ions, 3)) * spread
        expected = dense_gradient(config, positions)
        got = gradient(config, positions)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_single_ion_gradient_is_the_trap_force(self):
        """N = 1 has an empty pair list: only the tapered trap acts."""
        config = TrapConfig(n_ions=1)
        x, y, z = 0.3e-6, -0.2e-6, 1.5e-6
        m, inv_l = config.mass, 1.0 / config.funnel_length
        fz = 1.0 + 2.0 * z * inv_l
        expected = m * np.array([
            fz * config.omega_x**2 * x,
            fz * config.omega_y**2 * y,
            config.omega_z**2 * z + inv_l * (config.omega_x**2 * x**2 + config.omega_y**2 * y**2),
        ])
        got = gradient(config, np.array([[x, y, z]]))
        assert got.shape == (1, 3)
        assert np.max(np.abs(got[0] - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_ions, batch, names", [
        (646, (), "the pair incidence matrix of 646 ions needs a 1 GiB array"),
        (335, (800,), "the pair separations of 800 chains of 335 ions needs a 1 GiB array"),
    ])
    def test_pair_budget_bounds_the_kernel_arrays(self, n_ions, batch, names):
        """The N x N(N-1)/2 incidence matrix and the 3 x batch x N(N-1)/2 separations."""
        check_pair_budget(n_ions - 1, batch)
        with pytest.raises(ConfigError, match=re.escape(names)):
            check_pair_budget(n_ions, batch)

    def test_gradient_checks_the_pair_budget_first(self, monkeypatch):
        config = TrapConfig(n_ions=5)
        positions = np.array(random_states(config, 4, seed=3))
        gradient(config, positions)
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 8 * 3 * 4 * 10 - 1)
        with pytest.raises(ConfigError, match="pair separations of 4 chains of 5 ions"):
            gradient(config, positions)
        gradient(config, positions[0])

    def test_gradient_vanishes_at_equilibrium(self):
        config = TrapConfig()
        g = gradient(config, equilibrium_positions(config))
        force_scale = config.mass * config.omega_z**2 * config.length_scale
        assert np.max(np.abs(g)) < 1e-10 * force_scale

    def test_hessian_block_diagonal_on_axis(self):
        """With all ions on the trap axis the three directions decouple."""
        config = TrapConfig()
        hess = hessian(config, equilibrium_positions(config))
        scale = np.max(np.abs(hess))
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                block = hess[a::3, b::3]
                assert np.max(np.abs(block)) < 1e-12 * scale

    def test_axis_block_matches_dimensionless_matrix(self):
        """Physical Hessian block == m * omega_dir^2 * dimensionless matrix."""
        config = TrapConfig()
        hess = hessian(config, equilibrium_positions(config))
        for a, (direction, omega) in enumerate((
            ("x", config.omega_x),
            ("y", config.omega_y),
            ("z", config.omega_z),
        )):
            block = hess[a::3, a::3]
            dimensionless = block / (config.mass * omega**2)
            assert np.allclose(
                dimensionless, coupling_matrix(config, direction), atol=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n_ions=st.integers(2, 12),
        funnel_mm=st.one_of(st.just(math.inf), st.floats(0.5, 50.0)),
        beta_fraction=st.floats(0.05, 0.9),
    )
    def test_on_axis_hessian_is_the_coupling_matrices(self, n_ions, funnel_mm, beta_fraction):
        """Below the zigzag the on-axis Hessian splits into m w_ref^2 * coupling."""
        # Straight-trap zigzag threshold: A(beta) = I - beta^2 (I - A(1)).
        u = chain_positions_dimensionless(n_ions)
        coulomb = np.eye(n_ions) - radial_coupling_matrix(u, 1.0, 0.0)
        beta = beta_fraction / math.sqrt(np.linalg.eigvalsh(coulomb)[-1])
        omega_x0 = TWO_PI * 1e6
        config = TrapConfig(
            n_ions=n_ions,
            omega_z=beta * omega_x0 / math.sqrt(1.0 + beta**2 / 2.0),
            omega_x0=omega_x0,
            omega_y0=1.1 * omega_x0,
            funnel_length=1e-3 * funnel_mm,
        )
        assume(np.linalg.eigvalsh(coupling_matrix(config, "x"))[0] > 0)

        hess = hessian(config, equilibrium_positions(config))
        scale = np.max(np.abs(hess))
        for a, direction in enumerate(("x", "y", "z")):
            for b in range(3):
                if b != a:
                    assert np.max(np.abs(hess[a::3, b::3])) < 1e-12 * scale
            unit = config.mass * reference_frequency(config, direction) ** 2
            assert np.allclose(
                hess[a::3, a::3] / unit, coupling_matrix(config, direction), atol=1e-12
            )

    def test_taper_couples_radial_displacement_to_axial_force(self):
        """Moving an ion off-axis pushes it along z in a tapered trap only."""
        tapered = TrapConfig()
        straight = tapered.replace(funnel_length=math.inf)
        r = equilibrium_positions(tapered)
        r[0, 0] = 0.5e-6
        gz_tapered = gradient(tapered, r)[0, 2]
        r_straight = equilibrium_positions(straight)
        r_straight[0, 0] = 0.5e-6
        gz_straight = gradient(straight, r_straight)[0, 2]
        expected = tapered.mass * tapered.omega_x**2 * (0.5e-6) ** 2 / tapered.funnel_length
        assert gz_tapered - gz_straight == pytest.approx(expected, rel=1e-6)

    def test_positions_shape_is_checked(self):
        config = TrapConfig()
        with pytest.raises(ConfigError):
            potential_energy(config, np.zeros((2, 3)))
