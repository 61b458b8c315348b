"""Driven, damped time-domain dynamics and steady-state spectra.

The equation of motion integrated here is

    m r_i'' = -dV/dr_i - m Gamma r_i' + w_i F0 sin(w_d t) e_d

with per-ion drive weights ``w_i`` along one Cartesian direction ``e_d``.
The weights come from a :class:`BeamSpec`: a broad beam drives every ion
equally, a focused beam drives with a Gaussian profile of its waist.
Integration uses velocity Verlet with the damping applied half explicitly,
half implicitly, which stays second-order accurate and reduces exactly to
standard velocity Verlet at Gamma = 0. The one stepping loop,
:func:`_lockstep_verlet`, runs it in leapfrog form on the displacement
increment ``p = 2 h u`` (half step h, half-step velocity u):

    x += p,   p = decay p + gain a,
    decay = (1 - Gamma h) / (1 + Gamma h),   gain = 2 h^2 (1 + decay),

where ``a`` is the acceleration at the new ``x``, drive included.

The full nonlinear forces come from the package's one force kernel,
``core._acceleration_kernel``. It works on component-major states
[C, ..., N] held as displacements from equilibrium, sums the Coulomb force
over a fixed list of the pairs i < j (an N x P incidence matrix) and builds
its constants and work arrays once per lockstep, not once per step. A step
is a short run of array passes: one 2-D product with the incidence matrix
for the pair separations and one for the Coulomb scatter, the inverse cube
as ``1 / (s sqrt(s))`` of the squared distance s, and each taper term as a
coefficient times one coordinate product. That association is the same
whatever rows are held, so the two-row lockstep kernel and the three-row
one of ``core.gradient`` agree bit for bit.

The time-domain spectra of a whole grid of configurations are integrated in
one lockstep by :func:`synthesize_spectra`. The state is component-major
[C, P, M, N]: the grid points on axis -3 and each point's scan points on
axis -2. Row 0 is the driven direction. The linearized model holds it alone
(C = 1). The full model holds the rows that move: the driven radial axis
and z (C = 2), or z alone for a z drive (C = 1). An on-axis chain driven
along one axis keeps the other radial coordinate exactly zero, and a z
drive keeps both, so leaving them out changes no float. The per-point
constants (equilibrium origin, trap frequencies, time step, drive weights,
damping, blow-up scale) are arrays along the grid axis. Points share a
lockstep only when they share its step schedule: the number of steps per
drive period, which each point derives from its own resolution floor
exactly as it would alone, and the settle and measure cycles. They must
also share the state shape, the driven axis and the force kernel's common
constants (ion count, mass, charge, funnel length). So a grid splits into
one group per distinct schedule, and every point takes exactly the steps it
would take on its own. A group is split further into chunks whose largest
per-step array stays under ``_LOCKSTEP_BLOCK_ELEMENTS``, so a long chain on
a fine grid does not multiply the peak memory by the number of points.
:func:`simulate_spectrum` is a one-element call of the same entry.

Within a point every drive frequency uses the same number of steps per drive
period, so all scan points share one drive phase table and the demodulation
of the driven component over M steps

    Z = (2 / M) sum_k x(t_k) exp(-i w_d t_k)

over an integer number of periods is exact by discrete orthogonality. The
steady state follows the convention  x(t) ~ A sin(w_d t + phi), so
``A = |Z|`` and ``phi = arg Z + pi/2``. A resonantly driven ion therefore
shows ``phi = -pi/2`` and ions moving against the reference ion differ by
``pi`` in phase.

:func:`linear_response_spectrum` gives the same linearized steady state in
closed form as a sum over the normal modes of the drive direction. With the
mass-scaled stiffness ``K/m = A diag(l_k) A^T`` (eigenvalues ``l_k`` and
orthonormal eigenvectors ``A`` of the drive direction alone, from
:func:`tapermode.modes.direction_modes`),

    X(w_d) = A diag(1 / (l_k - w_d^2 + i Gamma w_d)) A^T (F0/m) w,

which is the reference the integrator is validated against.
:func:`synthesize_spectra` picks one of the three models by name.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    TWO_PI,
    TrapConfig,
    _acceleration_kernel,
    _squared_frequencies,
    axis_index,
    check_array_budget,
    check_count,
    check_pair_budget,
    check_real,
)
from .equilibrium import equilibrium_positions
from .errors import ConfigError, SimulationError, TapermodeError
from .modes import ModeTable, compute_modes, coupling_matrix, direction_modes, reference_frequency

#: Hard floor on temporal resolution: the fastest period of the drive and
#: of the modes of the integrated coordinates must be covered by at least
#: this many steps.
MIN_STEPS_PER_FASTEST_PERIOD = 20

#: Steps per drive period used when a scan pins none.
DEFAULT_STEPS_PER_PERIOD = 96

#: Integration aborts when any ion strays this many chain length units
#: from its equilibrium position.
BLOWUP_LENGTH_UNITS = 1e3

#: Settle windows shorter than this many damping times trigger a warning.
MIN_SETTLE_DAMPING_TIMES = 5.0

#: Spectrum models: the closed-form modal response, and the time-domain
#: integration of the linearized or the full equations of motion.
SPECTRUM_SOURCES = ("response", "linearized", "full")

BEAM_KINDS = ("broad", "focused")

#: Cap, in array elements, on the largest per-step array of one lockstep:
#: the state or the full model's pair separations, held rows (``_held_rows``)
#: x scan points x max(N, N(N-1)/2) per grid point. A group of grid points
#: is split into as few equal chunks as keep under it (a single point
#: always runs). It bounds the memory of long chains, and it keeps the
#: dozen or so live state-sized arrays of a step (the state, its increment,
#: the step constants and the force kernel's temporaries) within a core's L2
#: cache: on a 2 MiB-L2 Xeon, the default 12-point, 800-scan-point plan at
#: N = 3 took about 1.8x as long with a cap 4x larger.
_LOCKSTEP_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class BeamSpec:
    """Spatial profile, strength, and polarization of the excitation beam.

    Parameters
    ----------
    kind:
        'broad' illuminates every ion equally; 'focused' weighs ions by a
        Gaussian of the beam's waist centred at ``center_z``.
    force_amplitude:
        Peak modulated force F0 [N] on a fully illuminated ion.
    direction:
        Cartesian direction the force acts along ('x' or 'y' for radial
        spectroscopy; 'z' for axial calibration scans).
    waist_radius:
        Gaussian 1/e^2 intensity radius [m]; required for a focused beam.
    center_z:
        Axial position of the focused beam's centre [m].
    """

    kind: str
    force_amplitude: float
    direction: str = "x"
    waist_radius: float | None = None
    center_z: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BEAM_KINDS:
            raise ConfigError(f"beam kind must be one of {BEAM_KINDS}, got {self.kind!r}")
        for name in ("force_amplitude", "center_z"):
            check_real(name, getattr(self, name))
        if not (np.isfinite(self.force_amplitude) and self.force_amplitude >= 0):
            raise ConfigError("force_amplitude must be finite and non-negative")
        axis_index(self.direction)
        if self.kind == "focused":
            if self.waist_radius is not None:
                check_real("waist_radius", self.waist_radius)
            if self.waist_radius is None or not self.waist_radius > 0:
                raise ConfigError("a focused beam needs a positive waist_radius")
        if not np.isfinite(self.center_z):
            raise ConfigError("center_z must be finite")


def beam_weights(beam: BeamSpec, positions: np.ndarray) -> np.ndarray:
    """Per-ion drive weights in [0, 1] for a chain at ``positions`` [N, 3].

    A broad beam weighs every ion 1; a focused beam weighs ion i by
    ``exp(-2 (z_i - center_z)^2 / waist^2)``, the Gaussian intensity profile
    sampled at the ion's axial position.
    """
    z = np.asarray(positions, dtype=float)[:, 2]
    if beam.kind == "broad":
        return np.ones(z.size)
    return np.exp(-2.0 * (z - beam.center_z) ** 2 / beam.waist_radius**2)


@dataclass(frozen=True, eq=False)
class DriveScan:
    """A steady-state frequency scan of the driven chain.

    Parameters
    ----------
    drive_frequencies:
        Drive angular frequencies [rad/s] to scan.
    damping_rate:
        Velocity damping rate Gamma [1/s] (> 0; the steady state needs it).
    settle_cycles, measure_cycles:
        Drive periods integrated before / during demodulation.
    steps_per_period:
        The one step request: integrator steps per drive period, shared by all
        scan points so demodulation windows close exactly. ``None`` takes
        ``DEFAULT_STEPS_PER_PERIOD`` or the resolution floor, if higher.
    """

    drive_frequencies: np.ndarray
    damping_rate: float
    settle_cycles: int = 30
    measure_cycles: int = 20
    steps_per_period: int | None = None

    def __post_init__(self) -> None:
        try:
            freqs = np.atleast_1d(np.asarray(self.drive_frequencies, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"drive_frequencies must be numbers: {exc}") from None
        if freqs.ndim != 1 or freqs.size == 0 or not np.all(freqs > 0):
            raise ConfigError("drive_frequencies must be positive angular frequencies")
        if not np.all(np.isfinite(freqs)):
            raise ConfigError("drive_frequencies must be finite")
        freqs = freqs.copy()
        freqs.setflags(write=False)
        object.__setattr__(self, "drive_frequencies", freqs)
        check_real("damping_rate", self.damping_rate)
        if not self.damping_rate > 0:
            raise ConfigError("damping_rate must be positive")
        if self.damping_rate == math.inf:
            raise ConfigError("damping_rate must be finite")
        counts = {"settle_cycles": self.settle_cycles, "measure_cycles": self.measure_cycles}
        if self.steps_per_period is not None:
            counts["steps_per_period"] = self.steps_per_period
        for name, value in counts.items():
            check_count(name, value)
        if self.settle_cycles < 0 or self.measure_cycles < 1:
            raise ConfigError("need settle_cycles >= 0 and measure_cycles >= 1")
        if self.steps_per_period is not None:
            if self.steps_per_period < 1:
                raise ConfigError("steps_per_period must be a positive count or None")
            # the integrator's per-period tables: phase, sine and complex exponential
            check_array_budget(f"steps_per_period = {self.steps_per_period}",
                               (4, int(self.steps_per_period)))


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Amplitude and phase of every ion at every scanned drive frequency."""

    drive_frequencies: np.ndarray   #: [M] rad/s
    amplitude: np.ndarray           #: [M, N] m
    phase: np.ndarray               #: [M, N] rad in (-pi, pi]
    direction: str
    damping_rate: float
    model: str
    steps_per_period: int | None
    settle_cycles: int
    measure_cycles: int

    @property
    def n_ions(self) -> int:
        return self.amplitude.shape[1]

    def summed_amplitude(self) -> np.ndarray:
        """Total response per drive frequency (the chain-level spectrum)."""
        return self.amplitude.sum(axis=1)


def wrap_phase(phi: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into (-pi, pi].

    The result is ``(phi + pi) % TWO_PI - pi``, bit for bit, with -pi sent to
    pi. The remainder needs no division while every shifted angle
    ``x = phi + pi`` lies in [0, 4 pi): below 2 pi, x is its own remainder,
    and from 2 pi on, ``x - TWO_PI`` is exact (Sterbenz). Only an input with
    a shifted angle outside [0, 4 pi), or not finite, takes the ``%``. Phases
    from ``np.angle`` and ``np.angle + pi/2`` never do.
    """
    shifted = np.asarray(phi, dtype=float) + np.pi
    if np.all((shifted >= 0.0) & (shifted < 2.0 * TWO_PI)):
        out = np.where(shifted >= TWO_PI, shifted - TWO_PI, shifted) - np.pi
    else:
        out = shifted % TWO_PI - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return float(out) if np.ndim(phi) == 0 else out


def _spectrum(scan: DriveScan, response: np.ndarray, phase: np.ndarray, direction: str,
              model: str, steps_per_period: int | None) -> SpectrumResult:
    """The record of ``scan``'s complex ``response`` [M, N]: its modulus and ``phase`` wrapped."""
    return SpectrumResult(
        drive_frequencies=scan.drive_frequencies.copy(),
        amplitude=np.abs(response),
        phase=wrap_phase(phase),
        direction=direction,
        damping_rate=scan.damping_rate,
        model=model,
        steps_per_period=steps_per_period,
        settle_cycles=scan.settle_cycles,
        measure_cycles=scan.measure_cycles,
    )


def _steps_per_period(scan: DriveScan, omega_fast: float) -> int:
    """Shared step count per drive period satisfying the resolution floor.

    A floor above ``DEFAULT_STEPS_PER_PERIOD`` must fit the per-period tables
    in ``core.MAX_ARRAY_BYTES``; from a drive far below ``omega_fast`` it is
    over the budget, or infinite, and raises :class:`ConfigError`.
    """
    w_min = float(np.min(scan.drive_frequencies))
    floor = MIN_STEPS_PER_FASTEST_PERIOD * omega_fast / w_min
    if floor > DEFAULT_STEPS_PER_PERIOD:
        check_array_budget(f"a resolution floor of {floor:.4g} steps per period (fastest "
                           f"{omega_fast:.4g} rad/s, drive from {w_min:.4g} rad/s)", (4, floor))
    needed = math.ceil(floor)
    if scan.steps_per_period is not None:
        if scan.steps_per_period < needed:
            raise ConfigError(
                f"steps_per_period {scan.steps_per_period} gives fewer than "
                f"{MIN_STEPS_PER_FASTEST_PERIOD} steps per fastest period; "
                f"need at least {needed}"
            )
        return scan.steps_per_period
    return max(DEFAULT_STEPS_PER_PERIOD, needed)


def _warn_short_settle(scan: DriveScan) -> None:
    shortest = scan.settle_cycles * TWO_PI / float(np.max(scan.drive_frequencies))
    if shortest * scan.damping_rate < MIN_SETTLE_DAMPING_TIMES:
        warnings.warn(
            f"settle window ({shortest:.3e} s) is shorter than "
            f"{MIN_SETTLE_DAMPING_TIMES:g} damping times; transients may bias "
            "the demodulated steady state",
            stacklevel=3,
        )


def _held_rows(model: str, direction: str) -> list[int]:
    """The coordinates a time-domain ``model`` integrates, the driven one first.

    The linearized model holds the driven direction alone. The full model
    adds z, where the radial motion pushes the chain through the taper and
    the Coulomb force; a z drive holds z once.
    """
    axis = axis_index(direction)
    return [axis] if model == "linearized" or axis == 2 else [axis, 2]


def _lockstep_verlet(
    force: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, ...],
    push: np.ndarray,
    dt: np.ndarray,
    gamma: np.ndarray,
    blowup: np.ndarray,
    spp: int,
    settle_cycles: int,
    measure_cycles: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate every scan point of every grid point from rest and demodulate.

    The state has the component-major ``shape`` [C, P, M, N]: the P grid
    points, their M scan points and N ions of the C held coordinates of
    :func:`_held_rows`. ``force(x)`` is the undriven acceleration at
    displacements ``x`` from ``force``'s origin, where every run starts at
    rest; ``x[0]`` is the driven direction, which feels the extra
    acceleration ``push`` [P, N] sin(2 pi k / spp) at drive phase index k.
    ``dt`` [P, M] is each scan point's step; ``gamma`` [P] and ``blowup``
    [P] are each grid point's damping rate and largest allowed displacement.

    This is the package's one damped Verlet loop, in leapfrog form on the
    displacement increment ``p = 2 h u`` per step, where ``h`` is the half
    step and ``u`` the half-step velocity:

        x += p,   p = decay p + gain (a(x) + push sin),
        decay = (1 - Gamma h) / (1 + Gamma h),   gain = 2 h^2 (1 + decay),

    from ``p = 2 h^2 a(x0)``. It is velocity Verlet with the damping split
    half explicit, half implicit: the full-step velocity is the mean of the
    two neighbouring half-step velocities, and Gamma = 0 gives plain Verlet.

    Returns the complex amplitudes Z [P, M, N] of ``x[0]`` over the
    measure window and, per grid point, the step after which it diverged (0
    if it did not). Divergence (a displacement beyond ``blowup``, or one
    that is no longer finite) is checked once per drive period, before the
    force is evaluated: a diverged point is set back to rest with its drive
    off, so its rows stay finite and never touch the others, and the run
    ends early once every point has diverged.
    """
    phases = TWO_PI * np.arange(spp) / spp
    sin_tab = np.sin(phases)
    exp_tab = np.exp(-1j * phases)
    n_points, row_size = shape[-3], shape[-2] * shape[-1]
    # Full-size copies: same-shape array operations skip numpy's slow
    # broadcasting loops over the short ion axis.
    half_dt = np.broadcast_to(0.5 * dt[:, :, None], shape).copy()
    damping = gamma[:, None, None] * half_dt
    decay = (1.0 - damping) / (1.0 + damping)
    gain = 2.0 * half_dt**2 * (1.0 + decay)
    drive = gain[0] * push[:, None, :]
    n_steps = (settle_cycles + measure_cycles) * spp
    demod_start = settle_cycles * spp
    diverged = np.zeros(n_points, dtype=int)
    x = np.zeros(shape)
    p = 2.0 * half_dt**2 * force(x)
    accum = np.zeros(shape[-3:], dtype=complex)
    # A diverging row may overflow within one period, before the check below
    # zeroes it; that fails only its own point, so it must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            x += p
            phase_idx = step % spp
            if phase_idx == 0:
                peak = np.abs(x).reshape(-1, n_points, row_size).max(axis=(0, 2))
                fresh = ~(peak <= blowup) & (diverged == 0)
                if np.any(fresh):
                    diverged[fresh] = step
                    if np.all(diverged):
                        break
                    x[..., fresh, :, :] = 0.0
                    p[..., fresh, :, :] = 0.0
                    drive[fresh] = 0.0
            a = force(x)
            a *= gain
            a[0] += sin_tab[phase_idx] * drive
            p *= decay
            p += a
            if step > demod_start:
                accum += x[0] * exp_tab[phase_idx]
    return accum * (2.0 / (measure_cycles * spp)), diverged


def _integrate(
    tables: Sequence[ModeTable],
    scans: Sequence[DriveScan],
    beams: Sequence[BeamSpec],
    model: str,
    spp: int,
) -> list[SpectrumResult | SimulationError]:
    """One lockstep over grid points that share a step schedule and a driven axis."""
    configs = [table.config for table in tables]
    config, scan, direction = configs[0], scans[0], beams[0].direction
    origins = [equilibrium_positions(c) for c in configs]
    wd = np.stack([s.drive_frequencies for s in scans])
    rows = _held_rows(model, direction)
    shape = (len(rows), len(configs), wd.shape[1], config.n_ions)
    if model == "linearized":
        restoring = np.stack([
            -coupling_matrix(c, direction) * reference_frequency(c, direction) ** 2
            for c in configs
        ])

        def force(x: np.ndarray) -> np.ndarray:
            return x @ restoring

    else:
        force = _acceleration_kernel(
            config,
            np.stack([r0.T[rows] for r0 in origins], axis=1)[:, :, None, :],
            np.stack([_squared_frequencies(c)[rows] for c in configs], axis=1),
            shape,
        )
    z, diverged = _lockstep_verlet(
        force, shape,
        np.stack([b.force_amplitude / c.mass * beam_weights(b, r0)
                  for b, c, r0 in zip(beams, configs, origins)]),
        (TWO_PI / wd) / spp,
        np.array([s.damping_rate for s in scans]),
        np.array([BLOWUP_LENGTH_UNITS * c.length_scale for c in configs]),
        spp, scan.settle_cycles, scan.measure_cycles,
    )
    results: list[SpectrumResult | SimulationError] = []
    for p, s in enumerate(scans):
        if diverged[p]:
            results.append(SimulationError(
                f"trajectory diverged after {diverged[p]} steps "
                f"(displacement exceeded {BLOWUP_LENGTH_UNITS:g} length units)"
            ))
            continue
        results.append(_spectrum(s, z[p], np.angle(z[p]) + np.pi / 2, direction, model, spp))
    return results


def _modal_response(config: TrapConfig, values: np.ndarray, vectors: np.ndarray,
                    scan: DriveScan, beam: BeamSpec) -> SpectrumResult:
    """The closed-form modal sum of :func:`linear_response_spectrum`, from the eigenvalues
    ``values`` [N] and eigenvectors ``vectors`` [N, N] of the beam's direction."""
    direction = beam.direction
    stiffness = values * reference_frequency(config, direction) ** 2
    weights = beam_weights(beam, equilibrium_positions(config))
    modal_force = vectors.T @ (beam.force_amplitude / config.mass * weights)
    w = scan.drive_frequencies[:, None]
    solution = (modal_force / (stiffness - w**2 + 1j * scan.damping_rate * w)) @ vectors.T
    return _spectrum(scan, solution, np.angle(solution), direction, "response", None)


def synthesize_spectra(
    tables: Sequence[ModeTable],
    scans: Sequence[DriveScan],
    beams: Sequence[BeamSpec],
    source: str,
) -> list[SpectrumResult | TapermodeError]:
    """Steady-state spectra of many configurations from one of ``SPECTRUM_SOURCES``.

    Entry i drives ``tables[i].config`` with ``beams[i]`` over ``scans[i]``;
    ``tables[i]`` is its solved :func:`tapermode.modes.compute_modes` table,
    whose fastest mode in the coordinates the model integrates
    (:func:`_held_rows`), or the drive if faster, sets the time-domain
    resolution floor. ``'response'`` evaluates the closed-form modal sum
    point by point. ``'linearized'`` and ``'full'`` integrate the equations
    of motion from rest, all grid points in lockstep (see the module
    docstring), with exactly the steps each point would take alone.

    A point that fails (a step request below the resolution floor, full-model
    pair arrays over ``core.MAX_ARRAY_BYTES``, a trajectory that diverges)
    gets its :class:`TapermodeError` in place of its spectrum and leaves the
    other points unchanged. An unknown ``source`` raises :class:`ConfigError`.
    """
    if source not in SPECTRUM_SOURCES:
        raise ConfigError(
            f"unknown spectrum source {source!r}; expected one of {SPECTRUM_SOURCES}"
        )
    results: list[SpectrumResult | TapermodeError | None] = [None] * len(tables)
    groups: dict[tuple, list[int]] = {}
    for i, (table, scan, beam) in enumerate(zip(tables, scans, beams, strict=True)):
        try:
            if source == "response":
                results[i] = _modal_response(table.config, table.eigenvalues(beam.direction),
                                             table.matrix(beam.direction), scan, beam)
                continue
            rows = _held_rows(source, beam.direction)
            if source == "full":
                check_pair_budget(table.config.n_ions, (scan.drive_frequencies.size,), len(rows))
            omega_fast = float(table.all_frequencies[rows].max())
            spp = _steps_per_period(scan, max(omega_fast, float(np.max(scan.drive_frequencies))))
        except TapermodeError as exc:
            results[i] = exc
            continue
        _warn_short_settle(scan)
        config = table.config
        key = (spp, scan.settle_cycles, scan.measure_cycles, scan.drive_frequencies.size,
               beam.direction, config.n_ions, config.mass, config.charge_number,
               config.funnel_length)
        groups.setdefault(key, []).append(i)

    for (spp, _, _, n_scan, direction, n_ions, *_), members in groups.items():
        rows = len(_held_rows(source, direction))
        per_point = rows * n_scan * max(n_ions, n_ions * (n_ions - 1) // 2)
        n_chunks = -(-len(members) * per_point // _LOCKSTEP_BLOCK_ELEMENTS)
        for chunk in np.array_split(members, min(n_chunks, len(members))):
            spectra = _integrate([tables[i] for i in chunk], [scans[i] for i in chunk],
                                 [beams[i] for i in chunk], source, spp)
            for i, spectrum in zip(chunk, spectra):
                results[i] = spectrum
    return results


def simulate_spectrum(
    config: TrapConfig,
    scan: DriveScan,
    beam: BeamSpec,
    model: str = "full",
) -> SpectrumResult:
    """Integrate the driven chain from rest and demodulate each scan point.

    ``model='full'`` integrates the complete nonlinear forces in 3-D (on the
    coordinates that move: the driven one and z);
    ``model='linearized'`` integrates the stiffness-matrix dynamics of the
    driven direction only (the other directions stay zero at linear order
    for an on-axis chain). Raises :class:`SimulationError` if any ion moves
    more than ``BLOWUP_LENGTH_UNITS`` chain length units away from
    equilibrium. A one-point :func:`synthesize_spectra`.
    """
    if model not in ("linearized", "full"):
        raise ConfigError(
            f"unknown model {model!r}; simulate_spectrum integrates 'linearized' or 'full'"
        )
    (result,) = synthesize_spectra([compute_modes(config)], [scan], [beam], model)
    if isinstance(result, TapermodeError):
        raise result
    return result


def linear_response_spectrum(
    config: TrapConfig,
    scan: DriveScan,
    beam: BeamSpec,
) -> SpectrumResult:
    """Closed-form linearized steady state of the same scan, as a modal sum.

    Solves the modes of the beam's direction alone
    (:func:`tapermode.modes.direction_modes`), which are those of
    :func:`tapermode.modes.compute_modes`, so the spectrum is the
    ``'response'`` one of :func:`synthesize_spectra` bit for bit. Raises the
    :class:`SolverError` of :func:`tapermode.modes.compute_modes` when the
    on-axis chain is unstable (e.g. past the radial zigzag instability),
    where no steady state exists, even along a direction the beam does not
    drive.
    """
    return _modal_response(config, *direction_modes(config, beam.direction), scan, beam)
