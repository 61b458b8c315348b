"""Chain equilibrium positions from the damped Newton solver."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapermode.core import TrapConfig
from tapermode.equilibrium import (
    GRADIENT_TOLERANCE,
    ROUNDOFF_MULTIPLE,
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


@settings(max_examples=30, deadline=None)
@given(n_ions=st.integers(1, 60))
def test_equilibrium_is_mirror_symmetric(n_ions):
    """u and its mirror image -u[::-1] both lie within max|g| < 1e-12 of the
    one symmetric root (||J^-1||_inf <= 1), so they differ by under 2e-12."""
    u = chain_positions_dimensionless(n_ions)
    assert np.max(np.abs(u + u[::-1])) <= 2 * GRADIENT_TOLERANCE


def longdouble_gradient(u):
    """The force balance residual g(u) evaluated in extended precision."""
    u = np.asarray(u, dtype=np.longdouble)
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    return u - np.sum(np.sign(diff) / diff**2, axis=1)


def longdouble_equilibrium(u):
    """Newton refinement of ``u`` with the residual in extended precision.

    ``numpy.linalg`` takes no extended precision, so each correction is
    solved in float64; the iteration still converges to the extended root,
    whose own residual is far below float64's floor.
    """
    u = np.asarray(u, dtype=np.longdouble)
    for _ in range(8):
        g = longdouble_gradient(u)
        u = u + np.linalg.solve(axial_curvature(u.astype(float)), -g.astype(float))
    return u


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="no extended precision on this platform")
@pytest.mark.parametrize("n_ions", [150, 300])
def test_long_chain_stops_at_the_round_off_floor(n_ions):
    """Past ~130 ions max|g| < 1e-12 is out of float64's reach.

    The solver stops at its round-off floor instead. The documented
    tolerance: every position lies within max|g(u)| of the exact root,
    because ||J^-1||_inf <= 1.
    """
    u = chain_positions_dimensionless(n_ions)
    assert np.all(np.diff(u) > 0)
    scale = np.max(np.abs(axial_curvature(u)) @ np.abs(u))
    residual = float(np.max(np.abs(longdouble_gradient(u))))
    assert residual <= ROUNDOFF_MULTIPLE * np.finfo(float).eps * scale
    reference = longdouble_equilibrium(u)
    reference_residual = np.max(np.abs(longdouble_gradient(reference)))
    assert reference_residual <= ROUNDOFF_MULTIPLE * np.finfo(np.longdouble).eps * scale
    assert float(np.max(np.abs(u - reference))) <= residual


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
