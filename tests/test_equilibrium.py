"""Chain equilibrium positions from the damped Newton solver."""
import math
import time

import numpy as np
import pytest

from tapermode.core import TrapConfig
from tapermode.equilibrium import (
    GRADIENT_TOLERANCE,
    axial_curvature,
    axial_gradient,
    chain_positions_dimensionless,
    coulomb_matrix,
    equilibrium_positions,
)


def test_single_ion_sits_at_origin():
    assert chain_positions_dimensionless(1) == pytest.approx([0.0])


def test_two_ion_closed_form():
    # force balance u = 1/(2u)^2 puts the ions at +-(1/4)^(1/3) = (1/2)^(2/3)
    u = chain_positions_dimensionless(2)
    expected = 0.5 ** (2.0 / 3.0)
    assert u == pytest.approx([-expected, expected], abs=1e-12)


def test_three_ion_outer_positions():
    u = chain_positions_dimensionless(3)
    assert u[1] == pytest.approx(0.0, abs=1e-12)
    assert u[2] == pytest.approx(1.0772, abs=1e-4)
    assert u[2] == pytest.approx(1.077217345015942, abs=1e-12)
    assert u == pytest.approx(-u[::-1], abs=1e-12)


@pytest.mark.parametrize("n_ions", [2, 3, 5, 8])
def test_residual_below_tolerance_and_ordered(n_ions):
    u = chain_positions_dimensionless(n_ions)
    assert np.all(np.diff(u) > 0)
    assert np.max(np.abs(axial_gradient(u))) < GRADIENT_TOLERANCE
    # a true minimum: the curvature matrix is positive definite
    assert np.all(np.linalg.eigvalsh(axial_curvature(u)) > 0)


def test_axial_gradient_matches_finite_differences():
    u = np.array([-1.4, -0.1, 1.2, 2.5])
    h = 1e-7

    def energy(v):
        pair = sum(
            1.0 / abs(v[j] - v[i]) for i in range(len(v)) for j in range(i + 1, len(v))
        )
        return 0.5 * np.sum(v**2) + pair

    g_fd = np.array([
        (energy(u + h * e) - energy(u - h * e)) / (2 * h)
        for e in np.eye(len(u))
    ])
    assert axial_gradient(u) == pytest.approx(g_fd, rel=1e-7)


def test_dimensional_positions_scale_with_length_scale():
    config = TrapConfig()
    positions = equilibrium_positions(config)
    assert positions.shape == (3, 3)
    assert np.all(positions[:, :2] == 0.0)
    assert positions[:, 2] == pytest.approx(
        chain_positions_dimensionless(3) * config.length_scale
    )


def test_positions_independent_of_taper():
    """The taper exerts no force on ions sitting on the trap axis."""
    tapered = TrapConfig()
    straight = tapered.replace(funnel_length=math.inf)
    assert np.array_equal(equilibrium_positions(tapered), equilibrium_positions(straight))


def test_solver_is_fast_for_long_chains():
    start = time.perf_counter()
    u = chain_positions_dimensionless(20)
    assert time.perf_counter() - start < 1.0
    assert np.all(np.diff(u) > 0)
    # outer ions crowd in more slowly than linearly with ion count
    assert u[-1] < 20


@pytest.mark.parametrize("n_ions", [1, 2, 5])
def test_axial_curvature_is_identity_minus_twice_coulomb(n_ions):
    u = chain_positions_dimensionless(n_ions)
    coulomb = coulomb_matrix(u)
    assert coulomb.sum(axis=1) == pytest.approx(np.zeros(n_ions), abs=1e-12)
    assert np.array_equal(axial_curvature(u), np.eye(n_ions) - 2.0 * coulomb)
