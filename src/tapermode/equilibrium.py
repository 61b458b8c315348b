"""Equilibrium positions of the ion chain.

On the trap axis (x = y = 0) the taper exerts no force, so the axial
equilibrium of N ions is the classic dimensionless problem: minimize

    E(u) = sum_i u_i^2 / 2 + sum_{i<j} 1 / |u_i - u_j|

whose stationarity condition is

    g_i(u) = u_i - sum_{j != i} sign(u_i - u_j) / (u_i - u_j)^2 = 0.

The solution depends only on the ion count; physical positions follow by
scaling with the chain length unit ``lam`` of the configuration.  A damped
Newton iteration with the analytic Jacobian converges to machine precision
in a few steps from an equally spaced seed.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import TrapConfig
from .errors import SolverError

GRADIENT_TOLERANCE = 1e-12
MAX_ITERATIONS = 200


def axial_gradient(u: np.ndarray) -> np.ndarray:
    """Dimensionless force balance residual g(u) for axial positions u [N]."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("u must be one-dimensional")
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    return u - np.sum(np.sign(diff) / diff**2, axis=1)


def coulomb_matrix(u: np.ndarray) -> np.ndarray:
    """Dimensionless inverse-cube Coulomb matrix K [N, N] for axial positions u [N].

    Off-diagonal ``1/|u_i - u_j|^3``, diagonal ``-sum_{j != i} 1/|u_i - u_j|^3``,
    so every row sums to zero. Both stiffness matrices are built from it: the
    axial ``I - 2K`` (:func:`axial_curvature`) and the radial
    ``I + t diag(u) + beta^2 K`` (:func:`tapermode.modes.radial_coupling_matrix`).
    """
    u = np.asarray(u, dtype=float)
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    mat = 1.0 / np.abs(diff) ** 3
    np.fill_diagonal(mat, -np.sum(mat, axis=1))
    return mat


def axial_curvature(u: np.ndarray) -> np.ndarray:
    """Jacobian dg/du = I - 2K [N, N]; also the dimensionless axial stiffness matrix.

    Diagonal ``1 + sum_j 2/|u_i - u_j|^3``, off-diagonal ``-2/|u_i - u_j|^3``.
    """
    jac = -2.0 * coulomb_matrix(u)
    jac.flat[:: jac.shape[0] + 1] += 1.0
    return jac


@lru_cache(maxsize=None)
def _solve_dimensionless(n_ions: int) -> tuple[float, ...]:
    if n_ions == 1:
        return (0.0,)
    # Damped Newton with backtracking from an equally spaced, strictly
    # ordered seed; every accepted trial keeps the ordering, so the convex
    # ordered-domain energy guarantees descent at small enough steps.
    u = 2.0 * (np.arange(n_ions) - (n_ions - 1) / 2.0)
    grad = axial_gradient(u)
    norm = float(np.max(np.abs(grad)))
    for _ in range(MAX_ITERATIONS):
        if norm < GRADIENT_TOLERANCE:
            return tuple(float(v) for v in u)
        step = np.linalg.solve(axial_curvature(u), -grad)
        scale = 1.0
        for _ in range(40):
            trial = u + scale * step
            if np.all(np.diff(trial) > 0):
                trial_grad = axial_gradient(trial)
                trial_norm = float(np.max(np.abs(trial_grad)))
                if trial_norm < norm:
                    u, grad, norm = trial, trial_grad, trial_norm
                    break
            scale *= 0.5
        else:
            raise SolverError(
                f"equilibrium line search stalled for {n_ions} ions "
                f"(residual {norm:.3e})"
            )
    raise SolverError(
        f"equilibrium Newton iteration did not converge for {n_ions} ions "
        f"(residual {norm:.3e} after {MAX_ITERATIONS} iterations)"
    )


def chain_positions_dimensionless(n_ions: int) -> np.ndarray:
    """Sorted dimensionless axial equilibrium positions u [N]."""
    if not isinstance(n_ions, int) or n_ions < 1:
        raise SolverError(f"n_ions must be a positive integer, got {n_ions!r}")
    return np.array(_solve_dimensionless(n_ions))


def equilibrium_positions(config: TrapConfig) -> np.ndarray:
    """SI equilibrium positions [N, 3] m: on-axis with z = lam * u."""
    u = chain_positions_dimensionless(config.n_ions)
    positions = np.zeros((config.n_ions, 3))
    positions[:, 2] = config.length_scale * u
    return positions
