"""Trap configuration, potential energy, and its derivatives.

The confining potential of a tapered (funnel-shaped) linear Paul trap acting
on a chain of identical ions is

    V(r) = sum_i m/2 * [ (1 + 2 z_i / L) (wx^2 x_i^2 + wy^2 y_i^2) + wz^2 z_i^2 ]
         + sum_{i<j} q^2 / (4 pi eps0 |r_i - r_j|)

where ``L`` is the funnel length (``inf`` recovers a straight linear trap)
and ``wx, wy`` are the *effective* radial angular frequencies at the trap
center: the static axial confinement defocuses radially, so

    wx^2 = wx0^2 - wz^2 / 2

with ``wx0`` the bare radial frequency.  All core quantities are SI
(positions in metres, angular frequencies in rad/s, energies in joules);
file-facing interfaces convert to Hz.

The natural length unit of the chain is ``lam`` with
``lam^3 = q^2 / (4 pi eps0 m wz^2)``; dimensionless axial positions are
``u = z / lam``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np
from scipy import constants

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

#: Default trap parameters: a three-ion 40Ca+ chain, bare radial frequency
#: 1.057 MHz, funnel length 1.81 mm, axial frequency 100 kHz.
DEFAULT_N_IONS = 3
DEFAULT_OMEGA_Z = TWO_PI * 100e3
DEFAULT_OMEGA_X0 = TWO_PI * 1.057e6
DEFAULT_OMEGA_Y0 = TWO_PI * 1.057e6
DEFAULT_FUNNEL_LENGTH = 1.81e-3
DEFAULT_MASS = 40.0 * constants.atomic_mass

_AXES = {"x": 0, "y": 1, "z": 2}


def axis_index(direction: str) -> int:
    """Map a direction name ('x', 'y', 'z') to its coordinate index."""
    try:
        return _AXES[direction]
    except KeyError:
        raise ConfigError(f"unknown direction {direction!r}; expected 'x', 'y' or 'z'")


@dataclass(frozen=True)
class TrapConfig:
    """Immutable description of the trap and the ion species.

    Parameters
    ----------
    n_ions:
        Number of ions in the chain (>= 1).
    omega_z:
        Axial angular frequency [rad/s].
    omega_x0, omega_y0:
        Bare radial angular frequencies at the trap center [rad/s], before
        the axial defocusing correction.
    funnel_length:
        Taper length scale L [m]; ``math.inf`` gives a straight linear trap.
    mass:
        Ion mass [kg].
    charge_number:
        Charge state Z (charge q = Z e).
    """

    n_ions: int = DEFAULT_N_IONS
    omega_z: float = DEFAULT_OMEGA_Z
    omega_x0: float = DEFAULT_OMEGA_X0
    omega_y0: float = DEFAULT_OMEGA_Y0
    funnel_length: float = DEFAULT_FUNNEL_LENGTH
    mass: float = DEFAULT_MASS
    charge_number: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n_ions, int) or self.n_ions < 1:
            raise ConfigError(f"n_ions must be a positive integer, got {self.n_ions!r}")
        if not self.omega_z > 0:
            raise ConfigError(f"omega_z must be positive, got {self.omega_z!r}")
        if not (self.omega_x0 > 0 and self.omega_y0 > 0):
            raise ConfigError("bare radial frequencies must be positive")
        for name in ("omega_x0", "omega_y0"):
            bare = getattr(self, name)
            if self.omega_z >= bare * math.sqrt(2.0):
                raise ConfigError(
                    f"configuration invalid: omega_z = {self.omega_z:.6g} rad/s "
                    f"exceeds sqrt(2) * {name} = {bare * math.sqrt(2.0):.6g} rad/s; "
                    "the effective radial confinement would vanish"
                )
        if not self.funnel_length > 0:
            raise ConfigError("funnel_length must be positive (use inf for no taper)")
        if not self.mass > 0:
            raise ConfigError("mass must be positive")
        if not isinstance(self.charge_number, int) or self.charge_number < 1:
            raise ConfigError("charge_number must be a positive integer")

    # -- derived quantities ---------------------------------------------------

    @property
    def charge(self) -> float:
        """Ion charge q = Z e [C]."""
        return self.charge_number * constants.elementary_charge

    @property
    def coulomb_coupling(self) -> float:
        """Pairwise Coulomb energy scale q^2 / (4 pi eps0) [J m]."""
        return self.charge**2 / (4.0 * math.pi * constants.epsilon_0)

    @property
    def omega_x(self) -> float:
        """Effective radial angular frequency along x at z = 0 [rad/s]."""
        return math.sqrt(self.omega_x0**2 - self.omega_z**2 / 2.0)

    @property
    def omega_y(self) -> float:
        """Effective radial angular frequency along y at z = 0 [rad/s]."""
        return math.sqrt(self.omega_y0**2 - self.omega_z**2 / 2.0)

    @property
    def length_scale(self) -> float:
        """Chain length unit lam [m], lam^3 = q^2 / (4 pi eps0 m omega_z^2)."""
        return (self.coulomb_coupling / (self.mass * self.omega_z**2)) ** (1.0 / 3.0)

    @property
    def taper_ratio(self) -> float:
        """Dimensionless taper strength 2 lam / L (0 for a linear trap)."""
        if math.isinf(self.funnel_length):
            return 0.0
        return 2.0 * self.length_scale / self.funnel_length

    def beta(self, direction: str = "x") -> float:
        """Frequency ratio omega_z / omega_dir for a radial direction."""
        return self.omega_z / self.radial_frequency(direction)

    def radial_frequency(self, direction: str) -> float:
        """Effective radial angular frequency for 'x' or 'y' [rad/s]."""
        if direction == "x":
            return self.omega_x
        if direction == "y":
            return self.omega_y
        raise ConfigError(f"direction {direction!r} is not radial")

    def funnel_factor(self, z: np.ndarray | float) -> np.ndarray | float:
        """Radial stiffness scaling (1 + 2 z / L) at axial position z [m]."""
        if math.isinf(self.funnel_length):
            return np.ones_like(np.asarray(z, dtype=float)) if np.ndim(z) else 1.0
        return 1.0 + 2.0 * np.asarray(z, dtype=float) / self.funnel_length

    def replace(self, **changes: Any) -> "TrapConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- file-facing conversion (Hz / amu) ------------------------------------

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "TrapConfig":
        """Build a config from a JSON-style mapping with Hz/amu/mm units.

        Recognized keys: ``n_ions``, ``omega_z_hz``, ``omega_x0_hz``,
        ``omega_y0_hz``, ``funnel_length_mm`` (number, or null/"inf" for a
        straight trap), ``ion_mass_amu``, ``charge_multiple``. Unknown keys
        raise :class:`ConfigError` so typos do not silently fall back to
        defaults.
        """
        known = {
            "n_ions", "omega_z_hz", "omega_x0_hz", "omega_y0_hz",
            "funnel_length_mm", "ion_mass_amu", "charge_multiple",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown trap config keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        if "n_ions" in data:
            kwargs["n_ions"] = data["n_ions"]
        if "omega_z_hz" in data:
            kwargs["omega_z"] = TWO_PI * float(data["omega_z_hz"])
        if "omega_x0_hz" in data:
            kwargs["omega_x0"] = TWO_PI * float(data["omega_x0_hz"])
        if "omega_y0_hz" in data:
            kwargs["omega_y0"] = TWO_PI * float(data["omega_y0_hz"])
        if "funnel_length_mm" in data:
            raw = data["funnel_length_mm"]
            if raw is None or (isinstance(raw, str) and raw.lower() in ("inf", "infinity")):
                kwargs["funnel_length"] = math.inf
            else:
                kwargs["funnel_length"] = 1e-3 * float(raw)
        if "ion_mass_amu" in data:
            kwargs["mass"] = float(data["ion_mass_amu"]) * constants.atomic_mass
        if "charge_multiple" in data:
            kwargs["charge_number"] = data["charge_multiple"]
        try:
            return cls(**kwargs)
        except TypeError as exc:  # wrong key types (e.g. n_ions: "three")
            raise ConfigError(str(exc)) from exc

    def to_mapping(self) -> dict[str, Any]:
        """Inverse of :meth:`from_mapping` (Hz / amu / mm units, JSON-safe)."""
        return {
            "n_ions": self.n_ions,
            "omega_z_hz": self.omega_z / TWO_PI,
            "omega_x0_hz": self.omega_x0 / TWO_PI,
            "omega_y0_hz": self.omega_y0 / TWO_PI,
            "funnel_length_mm": (
                None if math.isinf(self.funnel_length) else 1e3 * self.funnel_length
            ),
            "ion_mass_amu": self.mass / constants.atomic_mass,
            "charge_multiple": self.charge_number,
        }


def _pair_geometry(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise separation vectors and distances with the diagonal masked.

    Returns ``(diff, dist)`` where ``diff[..., i, j, :] = r_i - r_j`` and
    ``dist[..., i, i] = inf`` so that self-interaction terms vanish; any
    leading batch axes of ``positions`` [..., N, 3] are carried through.
    """
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    dist = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    idx = np.arange(positions.shape[-2])
    dist[..., idx, idx] = np.inf
    return diff, dist


def potential_energy(config: TrapConfig, positions: np.ndarray) -> float:
    """Total potential energy [J] of the chain at ``positions`` [N, 3] m."""
    r = _check_positions(config, positions)
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    fz = config.funnel_factor(z)
    m = config.mass
    trap = 0.5 * m * np.sum(
        fz * (config.omega_x**2 * x**2 + config.omega_y**2 * y**2)
        + config.omega_z**2 * z**2
    )
    _, dist = _pair_geometry(r)
    coulomb = 0.5 * config.coulomb_coupling * np.sum(1.0 / dist)
    return float(trap + coulomb)


def gradient(config: TrapConfig, positions: np.ndarray) -> np.ndarray:
    """Gradient dV/dr [..., N, 3] in J/m at ``positions`` [..., N, 3] m.

    Leading axes are independent chains (a batch), evaluated in one pass.
    """
    r = _check_positions(config, positions, batch=True)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    fz = config.funnel_factor(z)
    m = config.mass
    wx2, wy2, wz2 = config.omega_x**2, config.omega_y**2, config.omega_z**2
    inv_l = 0.0 if math.isinf(config.funnel_length) else 1.0 / config.funnel_length

    grad = np.empty_like(r)
    grad[..., 0] = m * fz * wx2 * x
    grad[..., 1] = m * fz * wy2 * y
    grad[..., 2] = m * wz2 * z + m * inv_l * (wx2 * x**2 + wy2 * y**2)

    diff, dist = _pair_geometry(r)
    grad -= config.coulomb_coupling * np.einsum("...ijk,...ij->...ik", diff, dist**-3)
    return grad


def hessian(config: TrapConfig, positions: np.ndarray) -> np.ndarray:
    """Hessian d^2V/dr^2 [3N, 3N] in J/m^2, ion-major layout (row 3i + a).

    At an on-axis equilibrium (x = y = 0) the matrix is block-diagonal in
    the three Cartesian directions.
    """
    r = _check_positions(config, positions)
    n = config.n_ions
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    fz = config.funnel_factor(z)
    m = config.mass
    wx2, wy2, wz2 = config.omega_x**2, config.omega_y**2, config.omega_z**2
    inv_l = 0.0 if math.isinf(config.funnel_length) else 1.0 / config.funnel_length

    trap = np.zeros((n, 3, 3))
    trap[:, 0, 0] = m * fz * wx2
    trap[:, 1, 1] = m * fz * wy2
    trap[:, 2, 2] = m * wz2
    trap[:, 0, 2] = trap[:, 2, 0] = 2.0 * m * inv_l * wx2 * x
    trap[:, 1, 2] = trap[:, 2, 1] = 2.0 * m * inv_l * wy2 * y

    # Coulomb block of pair (i, j): kq2 (3 s s^T - d^2 I) / d^5 with
    # s = r_i - r_j; it vanishes for i = j, where d is masked to inf.
    diff, dist = _pair_geometry(r)
    d = dist[:, :, None, None]
    pair = config.coulomb_coupling * (
        3.0 * diff[:, :, :, None] * diff[:, :, None, :] / d**5 - np.eye(3) / d**3
    )
    blocks = -pair
    idx = np.arange(n)
    blocks[idx, idx] = trap + pair.sum(axis=1)
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def _check_positions(config: TrapConfig, positions: np.ndarray, batch: bool = False) -> np.ndarray:
    r = np.asarray(positions, dtype=float)
    if r.shape[-2:] != (config.n_ions, 3) or (r.ndim != 2 and not batch):
        expected = "(..., {}, 3)" if batch else "({}, 3)"
        raise ConfigError(
            f"positions must have shape {expected.format(config.n_ions)}, got {r.shape}"
        )
    return r
