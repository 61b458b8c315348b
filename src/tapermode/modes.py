"""Normal modes of the chain about its equilibrium.

At an on-axis equilibrium the mass-scaled Hessian is block-diagonal in the
three Cartesian directions, so each direction reduces to a real symmetric
N x N eigenproblem. In dimensionless form (positions in units of ``lam``,
frequencies in units of the direction's trap frequency) both stiffness
matrices are built from one inverse-cube Coulomb matrix
:func:`tapermode.equilibrium.coulomb_matrix`, ``K_ij = 1/|u_i - u_j|^3``
(i != j) with rows summing to zero:

radial direction d (effective frequency w_d, beta = wz/w_d, taper t = 2 lam/L):

    A = I + t diag(u) + beta^2 K

axial (the Jacobian of the equilibrium force balance,
:func:`tapermode.equilibrium.axial_curvature`):

    B = I - 2 K

A mode with eigenvalue g and (orthonormal) eigenvector a oscillates at
``sqrt(g) * w_d`` (radial) or ``sqrt(g) * wz`` (axial). The participation
ratio ``1 / sum_i a_i^4`` measures how many ions a mode lives on: 1 when
fully localized, N when uniformly shared.

All eigenproblems go through one stacked solve, :func:`_eigensystem`: it
takes matrices ``[M, N, N]`` (the directions of :func:`compute_modes`, or
every point of a sweep in :func:`tapermode.sweep.run_sweep`), checks
stability, and fixes signs and participation ratios column by column. Its
stacks are the only stored form of the solved modes: a :class:`ModeTable`
holds them read-only, one row per direction, and builds no per-mode record.

For a straight trap (t = 0) A shares its eigenvectors with K, whatever
beta is, and its eigenvalues are ``1 + beta^2 kappa_k`` with ``kappa_k``
the eigenvalues of K: one eigensolve of K gives the untapered reference at
every axial frequency. For three ions ``kappa = {-12/5, -1, 0}``, i.e. the
eigenvalues ``{1 - 12/5 beta^2, 1 - beta^2, 1}``; the taper detunes the
ions' site frequencies and localizes the modes when the detuning exceeds
the Coulomb coupling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import TrapConfig, axis_index
from .equilibrium import axial_curvature, chain_positions_dimensionless, coulomb_matrix
from .errors import SolverError

DIRECTIONS = ("x", "y", "z")


def radial_coupling_matrix(
    u: np.ndarray, beta: float | np.ndarray, taper_ratio: float | np.ndarray
) -> np.ndarray:
    """Dimensionless radial stiffness matrix ``I + t diag(u) + beta^2 K`` for sites u [N].

    ``beta`` and ``taper_ratio`` may be arrays of one shape S (one entry per
    axial frequency of a sweep); the result is then the stack [*S, N, N].
    """
    u = np.asarray(u, dtype=float)
    beta2 = np.asarray(beta, dtype=float)[..., None, None] ** 2
    mat = beta2 * coulomb_matrix(u)
    sites = np.arange(u.size)
    mat[..., sites, sites] += 1.0 + np.asarray(taper_ratio, dtype=float)[..., None] * u
    return mat


def participation_ratio(vector: np.ndarray) -> float | np.ndarray:
    """1 / sum a_i^4 after normalizing (1 = localized, N = uniform).

    ``vector`` is one vector [N] (returns a float) or an array [..., N, K]
    whose columns are the vectors (returns the ratios [..., K]).
    """
    a = np.asarray(vector, dtype=float)
    axis = 0 if a.ndim == 1 else -2
    weights = a * a
    weights /= np.sum(weights, axis=axis, keepdims=True)
    ratio = 1.0 / np.sum(weights * weights, axis=axis)
    return float(ratio) if a.ndim == 1 else ratio


def canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Flip a vector so its largest-magnitude component is positive (a new array).

    ``vector`` is one vector [N] or an array [..., N, K] whose columns are
    flipped independently. Ties go to the first largest component.
    """
    a = np.asarray(vector, dtype=float)
    axis = 0 if a.ndim == 1 else -2
    largest = np.take_along_axis(a, np.argmax(np.abs(a), axis=axis, keepdims=True), axis)
    return a * np.where(largest < 0.0, -1.0, 1.0)


def _require_stable(values: np.ndarray, where: Callable[[int], str]) -> None:
    """Raise :class:`SolverError` at the first unstable row of ``values``.

    ``values`` [M, N] holds ascending eigenvalues; a row is unstable when its
    lowest one is non-positive. ``where(i)`` names row i in the message.
    """
    unstable = np.flatnonzero(values[:, 0] <= 0.0)
    if unstable.size:
        i = int(unstable[0])
        raise SolverError(
            f"{where(i)} has non-positive stiffness eigenvalue {values[i, 0]:.6g}: "
            "the on-axis chain is unstable for this configuration"
        )


def _funnel_cause(config: TrapConfig, u: np.ndarray) -> str:
    """Ion 1 past half the funnel length, or ''; its site factor ``1 + 2z/L <= 0`` makes
    the radial diagonal ``1 + t u_1 + beta^2 K_11``, so the lowest eigenvalue, negative."""
    factor = 1.0 + config.taper_ratio * u[0]
    return "" if factor > 0.0 else (
        f" (ion 1 sits at z = {1e3 * config.length_scale * u[0]:.4g} mm, past half the "
        f"funnel length L/2 = {0.5e3 * config.funnel_length:.4g} mm, so its radial site "
        f"factor 1 + 2z/L = {factor:.4g} is not positive)")


def _eigensystem(mats: np.ndarray, where: Callable[[int], str]):
    """Solve a stack of dimensionless stiffness matrices ``mats`` [M, N, N] at once.

    Returns the ascending eigenvalues [M, N], the eigenvectors [M, N, N]
    (column k of each matrix belongs to eigenvalue k, largest component
    positive) and their participation ratios [M, N]. Raises
    :class:`SolverError` if a matrix has a non-positive eigenvalue (the
    on-axis chain is unstable there, e.g. past the radial zigzag
    instability); ``where(i)`` names matrix i in the message.
    """
    values, vectors = np.linalg.eigh(mats)
    _require_stable(values, where)
    vectors = canonical_sign(vectors)
    return values, vectors, participation_ratio(vectors)


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The normal modes of a configuration along x, y and z, as arrays.

    Row i of every stack belongs to ``DIRECTIONS[i]``; within a row the modes
    go by ascending frequency, so column k of ``all_vectors[i]`` is the
    eigenvector of ``all_eigenvalues[i, k]``. Every stack is read-only.
    """

    config: TrapConfig
    all_eigenvalues: np.ndarray = field(repr=False)    #: dimensionless eigenvalues [3, N]
    all_frequencies: np.ndarray = field(repr=False)    #: angular frequencies [3, N] [rad/s]
    all_vectors: np.ndarray = field(repr=False)        #: eigenvectors [3, N, N]
    all_participation: np.ndarray = field(repr=False)  #: participation ratios [3, N]

    def eigenvalues(self, direction: str) -> np.ndarray:
        """Dimensionless stiffness eigenvalues along one direction, ascending (read-only)."""
        return self.all_eigenvalues[axis_index(direction)]

    def frequencies(self, direction: str) -> np.ndarray:
        """Angular frequencies [rad/s] along one direction, ascending (read-only)."""
        return self.all_frequencies[axis_index(direction)]

    def matrix(self, direction: str) -> np.ndarray:
        """Eigenvector matrix [N, N], column k = mode of ascending rank k (read-only)."""
        return self.all_vectors[axis_index(direction)]

    def participation(self, direction: str) -> np.ndarray:
        """Participation ratios along one direction, by ascending rank (read-only)."""
        return self.all_participation[axis_index(direction)]


def coupling_matrix(config: TrapConfig, direction: str, u: np.ndarray | None = None) -> np.ndarray:
    """Dimensionless stiffness matrix along one direction at equilibrium."""
    if u is None:
        u = chain_positions_dimensionless(config.n_ions)
    if direction == "z":
        return axial_curvature(u)
    return radial_coupling_matrix(u, config.beta(direction), config.taper_ratio)


def reference_frequency(config: TrapConfig, direction: str) -> float:
    """The frequency unit of a direction's dimensionless eigenvalues [rad/s]."""
    return config.omega_z if direction == "z" else config.radial_frequency(direction)


def compute_modes(config: TrapConfig) -> ModeTable:
    """Solve the normal modes of ``config`` along x, y and z.

    The three directions' matrices are solved as one stack. Raises
    :class:`SolverError` if any eigenvalue is non-positive (the on-axis chain
    is no longer a stable equilibrium, e.g. past the radial zigzag
    instability, or with an end ion past half the funnel length).
    """
    u = chain_positions_dimensionless(config.n_ions)
    values, vectors, participation = _eigensystem(
        np.stack([coupling_matrix(config, d, u) for d in DIRECTIONS]),
        lambda i: f"direction {DIRECTIONS[i]!r}" + (_funnel_cause(config, u) if i < 2 else ""),
    )
    units = np.array([reference_frequency(config, d) for d in DIRECTIONS])
    freqs = np.sqrt(values) * units[:, None]
    for array in (values, vectors, participation, freqs):
        array.setflags(write=False)
    return ModeTable(config, values, freqs, vectors, participation)


def site_frequencies(config: TrapConfig, direction: str = "x") -> np.ndarray:
    """Per-ion radial frequencies w_d * sqrt(1 + 2 lam u_i / L) [rad/s].

    The taper shifts each ion's local radial confinement; in the localized
    regime every mode frequency sits close to one of these site values.
    """
    u = chain_positions_dimensionless(config.n_ions)
    return config.radial_frequency(direction) * np.sqrt(1.0 + config.taper_ratio * u)
