"""Normal modes of the chain about its equilibrium.

At an on-axis equilibrium the mass-scaled Hessian is block-diagonal in the
three Cartesian directions, so each direction reduces to a real symmetric
N x N eigenproblem. In dimensionless form (positions in units of ``lam``,
frequencies in units of the direction's trap frequency):

radial direction d (effective frequency w_d, beta = wz/w_d, taper t = 2 lam/L):

    A_ii = 1 + t u_i - beta^2 sum_{j != i} 1/|u_i - u_j|^3
    A_ij = + beta^2 / |u_i - u_j|^3            (i != j)

axial (the Jacobian of the equilibrium force balance,
:func:`tapermode.equilibrium.axial_curvature`):

    B_ii = 1 + sum_{j != i} 2/|u_i - u_j|^3
    B_ij = - 2 / |u_i - u_j|^3                 (i != j)

A mode with eigenvalue g and (orthonormal) eigenvector a oscillates at
``sqrt(g) * w_d`` (radial) or ``sqrt(g) * wz`` (axial). The participation
ratio ``1 / sum_i a_i^4`` measures how many ions a mode lives on: 1 when
fully localized, N when uniformly shared.

For a linear trap (t = 0) the three-ion radial eigenvalues are exactly
``{1, 1 - beta^2, 1 - 12/5 beta^2}``; the taper detunes the ions' site
frequencies and localizes the modes when the detuning exceeds the Coulomb
coupling.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .core import TrapConfig
from .equilibrium import axial_curvature, chain_positions_dimensionless
from .errors import ConfigError, SolverError

DIRECTIONS = ("x", "y", "z")


def radial_coupling_matrix(u: np.ndarray, beta: float, taper_ratio: float) -> np.ndarray:
    """Dimensionless radial stiffness matrix A for site positions u [N]."""
    u = np.asarray(u, dtype=float)
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    inv_d3 = 1.0 / np.abs(diff) ** 3
    mat = beta**2 * inv_d3
    np.fill_diagonal(mat, 1.0 + taper_ratio * u - beta**2 * np.sum(inv_d3, axis=1))
    return mat


def participation_ratio(vector: np.ndarray) -> float:
    """1 / sum a_i^4 for a normalized eigenvector (1 = localized, N = uniform)."""
    a = np.asarray(vector, dtype=float)
    a = a / np.linalg.norm(a)
    return float(1.0 / np.sum(a**4))


def canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Flip a vector so its largest-magnitude component is positive."""
    a = np.asarray(vector, dtype=float)
    return -a if a[int(np.argmax(np.abs(a)))] < 0 else a.copy()


@dataclass(frozen=True)
class Mode:
    """One normal mode of the chain."""

    direction: str        #: 'x', 'y' or 'z'
    index: int            #: 1-based rank by ascending frequency within the direction
    eigenvalue: float     #: dimensionless stiffness eigenvalue
    frequency: float      #: angular frequency [rad/s]
    vector: np.ndarray    #: normalized eigenvector [N], largest component positive
    participation: float  #: participation ratio 1/sum a^4


@dataclass(frozen=True)
class ModeTable:
    """All 3N normal modes of a configuration, grouped by direction."""

    config: TrapConfig
    positions_dimensionless: np.ndarray
    modes: tuple[Mode, ...] = field(repr=False)

    def by_direction(self, direction: str) -> list[Mode]:
        """Modes along one direction, ascending frequency."""
        if direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {direction!r}")
        return [m for m in self.modes if m.direction == direction]

    def frequencies(self, direction: str) -> np.ndarray:
        """Angular frequencies [rad/s] along one direction, ascending."""
        return np.array([m.frequency for m in self.by_direction(direction)])

    def matrix(self, direction: str) -> np.ndarray:
        """Eigenvector matrix [N, N], column k = mode of ascending rank k."""
        return np.column_stack([m.vector for m in self.by_direction(direction)])


def coupling_matrix(config: TrapConfig, direction: str, u: np.ndarray | None = None) -> np.ndarray:
    """Dimensionless stiffness matrix along one direction at equilibrium."""
    if u is None:
        u = chain_positions_dimensionless(config.n_ions)
    if direction == "z":
        return axial_curvature(u)
    if direction in ("x", "y"):
        return radial_coupling_matrix(u, config.beta(direction), config.taper_ratio)
    raise ConfigError(f"unknown direction {direction!r}")


def reference_frequency(config: TrapConfig, direction: str) -> float:
    """The frequency unit of a direction's dimensionless eigenvalues [rad/s]."""
    return config.omega_z if direction == "z" else config.radial_frequency(direction)


def compute_modes(config: TrapConfig, directions: tuple[str, ...] = DIRECTIONS) -> ModeTable:
    """Solve the normal modes of ``config`` along the given directions.

    Raises :class:`SolverError` if any eigenvalue is non-positive (the
    on-axis chain is no longer a stable equilibrium, e.g. past the radial
    zigzag instability).
    """
    u = chain_positions_dimensionless(config.n_ions)
    modes: list[Mode] = []
    for direction in directions:
        mat = coupling_matrix(config, direction, u)
        eigenvalues, vectors = eigh(mat)
        if eigenvalues[0] <= 0.0:
            raise SolverError(
                f"direction {direction!r} has non-positive stiffness eigenvalue "
                f"{eigenvalues[0]:.6g}: the on-axis chain is unstable for this "
                "configuration"
            )
        unit = reference_frequency(config, direction)
        for rank, (val, vec) in enumerate(zip(eigenvalues, vectors.T), start=1):
            modes.append(Mode(
                direction=direction,
                index=rank,
                eigenvalue=float(val),
                frequency=float(np.sqrt(val) * unit),
                vector=canonical_sign(vec),
                participation=participation_ratio(vec),
            ))
    return ModeTable(config=config, positions_dimensionless=u, modes=tuple(modes))


def site_frequencies(config: TrapConfig, direction: str = "x") -> np.ndarray:
    """Per-ion radial frequencies w_d * sqrt(1 + 2 lam u_i / L) [rad/s].

    The taper shifts each ion's local radial confinement; in the localized
    regime every mode frequency sits close to one of these site values.
    """
    if direction not in ("x", "y"):
        raise ConfigError("site frequencies are defined for radial directions")
    u = chain_positions_dimensionless(config.n_ions)
    return reference_frequency(config, direction) * np.sqrt(1.0 + config.taper_ratio * u)


def linear_reference(config: TrapConfig, direction: str = "x") -> ModeTable:
    """Modes of the same configuration with the taper switched off (L = inf)."""
    return compute_modes(config.replace(funnel_length=float("inf")), (direction,))
