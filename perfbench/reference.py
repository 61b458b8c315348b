"""Closed-form references that the benchmark checks tapermode against.

Nothing here imports tapermode: the chain equilibrium, the radial normal
modes, the modal-sum driven response and the blurred arcsine profile are
written out again from the model's physics, so a check cannot pass merely
because the benchmark and the program share a bug.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import constants

TWO_PI = 2.0 * math.pi
COULOMB = constants.elementary_charge**2 / (4.0 * math.pi * constants.epsilon_0)


def chain_u(n_ions: int) -> np.ndarray:
    """Dimensionless axial equilibrium u of N ions: u_i = sum_j sign/(u_i-u_j)^2."""
    u = np.linspace(-(n_ions - 1), n_ions - 1, n_ions)
    for _ in range(200):
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        residual = u - np.sum(np.sign(d) / d**2, axis=1)
        if np.max(np.abs(residual)) < 1e-13:
            return u
        inv3 = 2.0 / np.abs(d) ** 3
        jac = -inv3
        np.fill_diagonal(jac, 1.0 + inv3.sum(axis=1))
        step = np.linalg.solve(jac, -residual)
        scale = 1.0
        while not np.all(np.diff(u + scale * step) > 0):
            scale *= 0.5
        u = u + scale * step
    raise RuntimeError(f"reference equilibrium for {n_ions} ions did not converge")


class RadialChain:
    """Radial (x) normal modes of an on-axis chain, in SI units.

    ``trap`` holds the tapermode config keys in file units (Hz, mm, amu).
    """

    def __init__(self, trap: dict, omega_z_hz: float, u: np.ndarray):
        mass = trap.get("ion_mass_amu", 40.0) * constants.atomic_mass
        omega_z = TWO_PI * omega_z_hz
        omega_x = math.sqrt((TWO_PI * trap.get("omega_x0_hz", 1.057e6)) ** 2 - omega_z**2 / 2)
        length = (COULOMB / (mass * omega_z**2)) ** (1.0 / 3.0)
        self.z = length * u
        self.mass = mass
        d = self.z[:, None] - self.z[None, :]
        np.fill_diagonal(d, np.inf)
        coupling = COULOMB / mass / np.abs(d) ** 3
        funnel = 1.0 + 2.0 * self.z / (1e-3 * trap.get("funnel_length_mm", 1.81))
        stiffness = coupling.copy()
        np.fill_diagonal(stiffness, omega_x**2 * funnel - coupling.sum(axis=1))
        self.eigenvalues, self.vectors = np.linalg.eigh(stiffness)
        if self.eigenvalues[0] <= 0:
            raise RuntimeError(f"reference chain unstable at omega_z = {omega_z_hz} Hz")

    @property
    def frequencies(self) -> np.ndarray:
        """Ascending angular mode frequencies [rad/s]."""
        return np.sqrt(self.eigenvalues)

    def response(self, drive: np.ndarray, gamma: float, force: np.ndarray) -> np.ndarray:
        """Complex steady state X[M, N] = sum_k a_k (a_k . F/m) / (l_k - w^2 + i G w)."""
        w = np.asarray(drive, dtype=float)[:, None]
        modal = (self.vectors.T @ force) / self.mass
        return (modal / (self.eigenvalues - w**2 + 1j * gamma * w)) @ self.vectors.T


def gaussian_weights(z: np.ndarray, center: float, waist: float) -> np.ndarray:
    """Focused-beam drive weights exp(-2 (z - c)^2 / w^2)."""
    return np.exp(-2.0 * (z - center) ** 2 / waist**2)


def arcsine_density(x: np.ndarray, amplitude: float, sigma: float) -> np.ndarray:
    """(1/pi) int_0^pi G_sigma(x - A cos t) dt by 400-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    t = 0.5 * math.pi * (nodes + 1.0)
    g = np.exp(-0.5 * ((np.asarray(x)[:, None] - amplitude * np.cos(t)) / sigma) ** 2)
    return 0.5 * (g @ weights) / (sigma * math.sqrt(TWO_PI))


def binned_counts(edges: np.ndarray, amplitude: float, sigma: float, total: float) -> np.ndarray:
    """Expected histogram counts per bin: the density averaged over each bin."""
    sub = np.linspace(0.0, 1.0, 9)
    simpson = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1]) / 24.0
    x = edges[:-1, None] + np.diff(edges)[:, None] * sub
    density = arcsine_density(x.ravel(), amplitude, sigma).reshape(x.shape)
    return total * (density @ simpson) * np.diff(edges)
