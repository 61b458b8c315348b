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

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

#: CODATA 2022: atomic mass constant [kg], elementary charge [C] and vacuum
#: permittivity [F/m], as literals so that importing the package loads no scipy.
ATOMIC_MASS = 1.66053906892e-27
ELEMENTARY_CHARGE = 1.602176634e-19
EPSILON_0 = 8.8541878188e-12

#: Default trap parameters: a three-ion 40Ca+ chain, bare radial frequency
#: 1.057 MHz, funnel length 1.81 mm, axial frequency 100 kHz.
DEFAULT_N_IONS = 3
DEFAULT_OMEGA_Z = TWO_PI * 100e3
DEFAULT_OMEGA_X0 = TWO_PI * 1.057e6
DEFAULT_OMEGA_Y0 = TWO_PI * 1.057e6
DEFAULT_FUNNEL_LENGTH = 1.81e-3
DEFAULT_MASS = 40.0 * ATOMIC_MASS

_AXES = {"x": 0, "y": 1, "z": 2}

#: Largest float64 array [bytes] that one count of a config may ask for (an
#: N x N matrix, the omega_z grid, a sweep stack, the pipeline's spectra, the
#: force kernel's pair arrays). It is checked before allocating; peak memory
#: is a small multiple of it.
MAX_ARRAY_BYTES = 1 << 30


def check_array_budget(what: str, shape: tuple[int, ...], error: type = ConfigError) -> None:
    """Raise ``error`` naming ``what`` if a float64 ``shape`` is over budget."""
    if 8 * math.prod(shape) > MAX_ARRAY_BYTES:
        raise error(f"{what} needs a {8 * math.prod(shape) / 2**30:.3g} GiB array, "
                    f"over the {MAX_ARRAY_BYTES / 2**30:g} GiB budget")


def check_real(name: str, value: Any, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a real number: an int or float, Python or
    numpy, but not a bool (any value, finite or not, the caller checks its range)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


def check_count(name: str, value: Any, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` or numpy integer (no bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def check_pair_budget(n_ions: int, batch: tuple[int, ...] = (), rows: int = 3) -> None:
    """Raise :class:`ConfigError` if the force kernel's incidence matrix [N, P] or the
    separations [rows, *batch, P] of its P = N(N-1)/2 pairs in ``batch`` chains are over budget.

    ``rows`` counts the coordinates the caller holds: :func:`gradient` holds
    x, y and z; the time-domain lockstep holds two at most, the driven axis
    and z."""
    pairs = n_ions * (n_ions - 1) // 2
    check_array_budget(f"the pair incidence matrix of {n_ions} ions", (n_ions, pairs))
    check_array_budget(f"the pair separations of {math.prod(batch)} chains of {n_ions} ions",
                       (rows, *batch, pairs))


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
        if type(self.n_ions) is not int or self.n_ions < 1:
            raise ConfigError(f"n_ions must be a positive integer, got {self.n_ions!r}")
        check_array_budget(f"n_ions = {self.n_ions}", (self.n_ions, self.n_ions))
        for name in ("omega_z", "omega_x0", "omega_y0", "funnel_length", "mass"):
            check_real(name, getattr(self, name))
        if not self.omega_z > 0:
            raise ConfigError(f"omega_z must be positive, got {self.omega_z!r}")
        if not all(0 < w and w * w < math.inf for w in (self.omega_x0, self.omega_y0)):
            raise ConfigError("bare radial frequencies must be positive, with finite squares")
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
        if not 0 < self.mass < math.inf:
            raise ConfigError("mass must be positive and finite")
        if type(self.charge_number) is not int or self.charge_number < 1:
            raise ConfigError("charge_number must be a positive integer")
        try:
            finite = self.coulomb_coupling < math.inf
        except OverflowError:  # an int too large for a float, or a float power
            finite = False
        if not finite:
            raise ConfigError("charge_number is too large: q^2 / (4 pi eps0) overflows")
        for direction in ("x", "y"):
            self._radial_scalars(direction, self.omega_z)

    # -- derived quantities ---------------------------------------------------

    @property
    def charge(self) -> float:
        """Ion charge q = Z e [C]."""
        return self.charge_number * ELEMENTARY_CHARGE

    @property
    def coulomb_coupling(self) -> float:
        """Pairwise Coulomb energy scale q^2 / (4 pi eps0) [J m]."""
        return self.charge**2 / (4.0 * math.pi * EPSILON_0)

    @property
    def omega_x(self) -> float:
        """Effective radial angular frequency along x at z = 0 [rad/s]."""
        return self.radial_frequency("x")

    @property
    def omega_y(self) -> float:
        """Effective radial angular frequency along y at z = 0 [rad/s]."""
        return self.radial_frequency("y")

    @property
    def length_scale(self) -> float:
        """Chain length unit lam [m], lam^3 = q^2 / (4 pi eps0 m omega_z^2)."""
        return self._length_scale_at(self.omega_z)

    @property
    def taper_ratio(self) -> float:
        """Dimensionless taper strength 2 lam / L (0 for a linear trap)."""
        return self._radial_scalars("x", self.omega_z)[2]

    def beta(self, direction: str = "x") -> float:
        """Frequency ratio omega_z / omega_dir for a radial direction."""
        return self._radial_scalars(direction, self.omega_z)[0]

    def radial_frequency(self, direction: str) -> float:
        """Effective radial angular frequency for 'x' or 'y' [rad/s]."""
        return self._radial_scalars(direction, self.omega_z)[1]

    def _length_scale_at(self, omega_z: float) -> float:
        return (self.coulomb_coupling / (self.mass * omega_z**2)) ** (1.0 / 3.0)

    def _radial_scalars(self, direction: str, omega_z: float) -> tuple[float, float, float]:
        """``(beta, radial_frequency, taper_ratio)`` along ``direction`` at axial frequency
        ``omega_z``, which must be one this config's checks would accept.

        The one implementation of the derived quantities above, which read it
        at the config's own ``omega_z``; a sweep reads it at each point
        without building a config per point. It is Python float arithmetic
        throughout: numpy's ``np.power(x, 1/3)`` is not always ``x ** (1/3)``.
        Raises :class:`ConfigError` unless the radial frequency, beta and the
        chain length unit are positive finite floats and the taper ratio is
        finite (the radial frequency is below the bare one, whose square the
        config checks); every config checks both directions when it is built.
        """
        bare = {"x": self.omega_x0, "y": self.omega_y0}.get(direction)
        if bare is None:
            raise ConfigError(f"direction {direction!r} is not radial")
        try:
            radial = math.sqrt(bare**2 - omega_z**2 / 2.0)
            length = self._length_scale_at(omega_z)
            beta, taper = omega_z / radial, 2.0 * length / self.funnel_length
            valid = beta < math.inf and length > 0 and taper < math.inf
        except (ArithmeticError, ValueError):  # Python floats raise where numpy gives inf or nan
            valid = False
        if not valid:
            raise ConfigError(
                f"configuration invalid: omega_z = {omega_z:.6g} rad/s gives a radial frequency, "
                "beta or chain length unit that is zero or out of float range"
            )
        return beta, radial, taper

    def funnel_factor(self, z: np.ndarray | float) -> np.ndarray | float:
        """Radial stiffness scaling (1 + 2 z / L) at axial position z [m]."""
        return 1.0 + 2.0 * np.asarray(z, dtype=float) / self.funnel_length

    def replace(self, **changes: Any) -> "TrapConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- file-facing conversion (Hz / mm / amu) -------------------------------

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "TrapConfig":
        """Build a config from a ``trap`` config section; unknown keys and
        wrongly typed values raise :class:`ConfigError`."""
        check_section("trap", data, TRAP_KEYS)
        return cls(**section_fields(data, TRAP_KEYS))

    def to_mapping(self) -> dict[str, Any]:
        """Inverse of :meth:`from_mapping` (Hz / mm / amu units, JSON-safe)."""
        mapping = {
            key: getattr(self, spec.field) if spec.scale is None
            else getattr(self, spec.field) / spec.scale
            for key, spec in TRAP_KEYS.items()
        }
        # null for a straight trap; 1e3 * length keeps the last digit of length / 1e-3
        mapping["funnel_length_mm"] = (
            None if math.isinf(self.funnel_length) else 1e3 * self.funnel_length
        )
        return mapping


# -- config-file schema -------------------------------------------------------

#: JSON types a config value may have, as tuples of Python types and literal
#: strings. An integer is never a bool and a number is never a numeric string.
INTEGER = (int,)
NUMBER = (int, float)
BOOLEAN = (bool,)
NULL = type(None)
_TYPE_NAMES = {
    int: "an integer", float: "a float", bool: "true or false", NULL: "null",
    dict: "a JSON object",
}


class ConfigKey(NamedTuple):
    """One key of a config section: its JSON types and the field it sets."""

    types: tuple
    field: str | None = None    #: the library field the key sets, if any
    scale: float | None = None  #: SI value of one file unit; None takes the value as it is


def check_section(name: str, data: Mapping[str, Any], keys: Mapping[str, ConfigKey]) -> None:
    """Raise :class:`ConfigError` unless config section ``name`` holds only
    ``keys``, each with a value of one of its types, and every number finite.

    ``json.load`` reads ``NaN``, ``Infinity`` and an overflowing literal such
    as ``1e400`` as float nan or inf, and a long integer literal as an int no
    float can hold; a key that takes floats rejects them all.
    """
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    for key, value in data.items():
        types = keys[key].types
        if type(value) not in types and value not in types:  # a type, or a literal string
            expected = " or ".join(_TYPE_NAMES.get(t) or json.dumps(t) for t in types)
            raise ConfigError(f"{name}.{key} must be {expected}, got {json.dumps(value)}")
        if float in types and type(value) in NUMBER and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name}.{key} must be a finite number, got {json.dumps(value)}")


def section_fields(data: Mapping[str, Any], keys: Mapping[str, ConfigKey]) -> dict[str, Any]:
    """The fields that a checked config section sets, each scaled to SI (null as inf)."""
    return {
        keys[key].field: value if keys[key].scale is None
        else keys[key].scale * float("inf" if value is None else value)
        for key, value in data.items()
        if keys[key].field is not None
    }


#: The ``trap`` config section. A null or "inf" funnel length is a straight trap.
TRAP_KEYS = {
    "n_ions": ConfigKey(INTEGER, "n_ions"),
    "omega_z_hz": ConfigKey(NUMBER, "omega_z", TWO_PI),
    "omega_x0_hz": ConfigKey(NUMBER, "omega_x0", TWO_PI),
    "omega_y0_hz": ConfigKey(NUMBER, "omega_y0", TWO_PI),
    "funnel_length_mm": ConfigKey((*NUMBER, NULL, "inf"), "funnel_length", 1e-3),
    "ion_mass_amu": ConfigKey(NUMBER, "mass", ATOMIC_MASS),
    "charge_multiple": ConfigKey(INTEGER, "charge_number"),
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

    Leading axes are independent chains (a batch), evaluated in one pass. A
    layout wrapper over the package's one force kernel
    (:func:`_acceleration_kernel`): the positions go in component-major as
    displacements from the origin, and the acceleration comes back times -m.
    """
    r = _check_positions(config, positions, batch=True)
    x = np.moveaxis(r, -1, 0)
    origin = np.zeros(x.shape)
    accel = _acceleration_kernel(config, origin, _squared_frequencies(config), x.shape)
    return np.moveaxis(accel(x), 0, -1) * -config.mass


def _squared_frequencies(config: TrapConfig) -> np.ndarray:
    """The trap stiffness per mass ``W = (wx^2, wy^2, wz^2)`` [3] in (rad/s)^2."""
    return np.array([config.omega_x**2, config.omega_y**2, config.omega_z**2])


def _acceleration_kernel(
    config: TrapConfig, origin: np.ndarray, omega_sq: np.ndarray, shape: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """The acceleration -dV/dr / m at ``origin + x``, in component-major layout.

    Displacements ``x`` have ``shape`` (C, ..., N): ``x[c, ..., i]`` is the
    c-th held coordinate of ion i, and any axes in between are a batch of
    chains. The rows are transverse coordinates, then z last: (x, y, z), or
    a subset whose left-out coordinates are exactly zero, such as (x, z) or
    (z,). A zero coordinate adds only +-0.0 to every sum below, so leaving
    it out changes no float. The chains may sit in different traps: ``origin`` broadcasts to
    ``shape``, and ``omega_sq`` holds the stiffness per mass of each held
    row, e.g. ``W = (wx^2, wy^2, wz^2)``, as [C, ...] over the leading batch
    axes (padded with trailing axes to broadcast). ``config`` gives what
    every chain shares: the ion count, the Coulomb coupling per mass and the
    funnel length L. The Coulomb term runs over the fixed list of pairs
    i < j, held as the incidence matrix ``S`` [N, P] whose column p is
    e_i - e_j. With separations ``d = x S + origin S`` and squared
    distances ``s = |d|^2``,

        a_coulomb = (k q^2 / m) (d / (s sqrt(s))) S^T,

    and the trap term is ``-W r`` plus the taper cross terms
    ``-(2 W_c / L) r_c z`` on each transverse row c and
    ``-sum_c (W_c / L) r_c r_c`` on z, each a coefficient times a coordinate
    product. Every constant and work array is built here, once per
    :func:`gradient` call or time-domain lockstep (the kernel's two callers),
    and broadcast to full size. A call is then a short run of array passes:
    the two products with ``S`` each take one 2-D ``np.dot`` over the
    [rows, N] or [rows, P] view, and ``s`` is one ``d * d`` plus row adds
    in row order. With two rows (c, z), the two taper products are the one
    multiply ``r_c (z, r_c)``; more rows form the same products row by row.
    Each taper coefficient is the same float for any set of held rows, so
    two-row and three-row kernels agree bit for bit. N = 1 has no pairs and
    gives the trap term alone. Every call returns a new array and leaves
    ``x`` unchanged. Over-budget pair arrays raise :class:`ConfigError`.
    """
    n = config.n_ions
    check_pair_budget(n, shape[1:-1], shape[0])
    first, second = np.triu_indices(n, 1)
    pairs = np.arange(first.size)
    incidence = np.zeros((n, pairs.size))
    incidence[first, pairs] = 1.0
    incidence[second, pairs] = -1.0
    scatter = (config.coulomb_coupling / config.mass) * np.ascontiguousarray(incidence.T)
    held = shape[0]
    rows = math.prod(shape[:-1])
    r0 = np.broadcast_to(origin, shape).copy()
    d0 = np.dot(r0.reshape(rows, n), incidence)
    omega_sq = np.asarray(omega_sq, dtype=float)
    omega_sq = omega_sq.reshape(omega_sq.shape + (1,) * (len(shape) - omega_sq.ndim))
    stiffness = np.broadcast_to(omega_sq, shape).copy()
    inv_l = 1.0 / config.funnel_length
    tapered = bool(inv_l) and held > 1
    taper = stiffness[:-1] * inv_l  # W_c / L of each transverse row c
    cross = 2.0 * taper
    if held == 2:
        # rows (c, z) times (z, c): both taper products in one multiply
        taper = np.concatenate([cross, taper])

    def accel(x: np.ndarray) -> np.ndarray:
        d = np.dot(x.reshape(rows, n), incidence)
        d += d0
        by_row = d.reshape(held, -1)
        square = by_row * by_row
        s = square[0]
        for row in square[1:]:
            s += row
        s *= np.sqrt(s)
        by_row /= s
        a = np.dot(d, scatter).reshape(shape)
        r = x + r0
        a -= stiffness * r
        if not tapered:
            return a
        if held == 2:
            a -= taper * (r[0] * r[::-1])
            return a
        for c in range(held - 1):
            a[c] -= cross[c] * (r[c] * r[-1])
        for c in range(held - 1):
            a[-1] -= taper[c] * (r[c] * r[c])
        return a

    return accel


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
    inv_l = 1.0 / config.funnel_length

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
