"""Driven, damped time-domain dynamics and steady-state spectra.

The equation of motion integrated here is

    m r_i'' = -dV/dr_i - m Gamma r_i' + w_i F0 sin(w_d t) e_d

with per-ion drive weights ``w_i`` along one Cartesian direction ``e_d``.
The weights come from a :class:`BeamSpec`: a broad beam drives every ion
equally, a focused beam drives with a Gaussian profile of its waist.
Integration uses velocity Verlet with the damping applied half explicitly,
half implicitly, which stays second-order accurate and reduces exactly to
standard velocity Verlet at Gamma = 0; :func:`ring_down` and the spectra
step with the same scheme.

The full nonlinear forces come from the package's one force kernel,
``core._acceleration_kernel``. It works on component-major states
[3, ..., N] held as displacements from equilibrium, sums the Coulomb force
over a fixed list of the pairs i < j (an N x P incidence matrix) and builds
its constants once per spectrum or ring-down, not once per step.

The time-domain spectra of a whole grid of configurations are integrated in
one lockstep by :func:`synthesize_spectra`. The state holds the grid points
on axis -3 and each point's scan points on axis -2: [P, M, N] for the
linearized model, [3, P, M, N] for the full one. The per-point constants
(equilibrium origin, trap frequencies, time step, drive weights, damping,
blow-up scale) are arrays along the grid axis. Points share a lockstep only
when they share its step schedule: the number of steps per drive period,
which each point derives from its own resolution floor exactly as it would
alone, and the settle and measure cycles. They must also share the state
shape, the driven axis and the force kernel's common constants (ion count,
mass, charge, funnel length). So a grid splits into one group per distinct
schedule, and every point takes exactly the steps it would take on its own.
A group is split further into chunks whose largest per-step array stays
under ``_LOCKSTEP_BLOCK_ELEMENTS``, so a long chain on a fine grid does not
multiply the peak memory by the number of points.
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
orthonormal eigenvectors ``A`` from :func:`tapermode.modes.compute_modes`),

    X(w_d) = A diag(1 / (l_k - w_d^2 + i Gamma w_d)) A^T (F0/m) w,

which is the reference the integrator is validated against.
:func:`synthesize_spectra` picks one of the three models by name.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import EllipsisType
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    TrapConfig,
    _acceleration_kernel,
    _squared_frequencies,
    axis_index,
    potential_energy,
)
from .equilibrium import equilibrium_positions
from .errors import ConfigError, SimulationError, TapermodeError
from .modes import DIRECTIONS, ModeTable, compute_modes, coupling_matrix, reference_frequency

TWO_PI = 2.0 * math.pi

#: Hard floor on temporal resolution: the fastest period in the system
#: (drive or mode) must be covered by at least this many steps.
MIN_STEPS_PER_FASTEST_PERIOD = 20

#: Steps per drive period used when no integrator step is requested.
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
#: the full model's state or pair separations, 3 x scan points x max(N,
#: N(N-1)/2) per grid point. A group of grid points is split into as few
#: equal chunks as keep under it (a single point always runs). It bounds
#: the memory of long chains, and it keeps the ~15 live state-sized arrays
#: of a step within a core's L2 cache: on a 2 MiB-L2 Xeon, the default
#: 12-point, 800-scan-point plan at N = 3 took about 1.8x as long with a
#: cap 4x larger.
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
        if not (np.isfinite(self.force_amplitude) and self.force_amplitude >= 0):
            raise ConfigError("force_amplitude must be finite and non-negative")
        axis_index(self.direction)
        if self.kind == "focused":
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


@dataclass(frozen=True)
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
    integrator_step:
        Requested time step [s]. The actual step is snapped down to an
        integer number per drive period (per scan point) so demodulation
        windows close exactly; ``None`` uses ``DEFAULT_STEPS_PER_PERIOD``.
    steps_per_period:
        Pin the shared per-period step count directly instead (mutually
        exclusive with ``integrator_step``).
    """

    drive_frequencies: np.ndarray
    damping_rate: float
    settle_cycles: int = 30
    measure_cycles: int = 20
    integrator_step: float | None = None
    steps_per_period: int | None = None

    def __post_init__(self) -> None:
        freqs = np.atleast_1d(np.asarray(self.drive_frequencies, dtype=float))
        if freqs.ndim != 1 or freqs.size == 0 or not np.all(freqs > 0):
            raise ConfigError("drive_frequencies must be positive angular frequencies")
        freqs = freqs.copy()
        freqs.setflags(write=False)
        object.__setattr__(self, "drive_frequencies", freqs)
        if not self.damping_rate > 0:
            raise ConfigError("damping_rate must be positive")
        if self.settle_cycles < 0 or self.measure_cycles < 1:
            raise ConfigError("need settle_cycles >= 0 and measure_cycles >= 1")
        if self.integrator_step is not None and self.steps_per_period is not None:
            raise ConfigError("give integrator_step or steps_per_period, not both")
        if self.integrator_step is not None and not self.integrator_step > 0:
            raise ConfigError("integrator_step must be positive or None")
        if self.steps_per_period is not None and self.steps_per_period < 1:
            raise ConfigError("steps_per_period must be a positive count or None")


@dataclass(frozen=True)
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
    """Wrap angles into (-pi, pi]."""
    out = (np.asarray(phi, dtype=float) + np.pi) % TWO_PI - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return float(out) if np.ndim(phi) == 0 else out


def _steps_per_period(scan: DriveScan, omega_fast: float) -> int:
    """Shared step count per drive period satisfying the resolution floor."""
    w_min = float(np.min(scan.drive_frequencies))
    needed = math.ceil(MIN_STEPS_PER_FASTEST_PERIOD * omega_fast / w_min)
    if scan.steps_per_period is not None:
        if scan.steps_per_period < needed:
            raise ConfigError(
                f"steps_per_period {scan.steps_per_period} gives fewer than "
                f"{MIN_STEPS_PER_FASTEST_PERIOD} steps per fastest period; "
                f"need at least {needed}"
            )
        return scan.steps_per_period
    if scan.integrator_step is None:
        return max(DEFAULT_STEPS_PER_PERIOD, needed)
    spp = math.ceil(TWO_PI / (w_min * scan.integrator_step))
    if spp < needed:
        max_step = TWO_PI / (MIN_STEPS_PER_FASTEST_PERIOD * omega_fast)
        raise ConfigError(
            f"integrator_step {scan.integrator_step:.3e} s gives fewer than "
            f"{MIN_STEPS_PER_FASTEST_PERIOD} steps per fastest period; "
            f"use a step <= {max_step:.3e} s"
        )
    return spp


def _warn_short_settle(scan: DriveScan) -> None:
    shortest = scan.settle_cycles * TWO_PI / float(np.max(scan.drive_frequencies))
    if shortest * scan.damping_rate < MIN_SETTLE_DAMPING_TIMES:
        warnings.warn(
            f"settle window ({shortest:.3e} s) is shorter than "
            f"{MIN_SETTLE_DAMPING_TIMES:g} damping times; transients may bias "
            "the demodulated steady state",
            stacklevel=3,
        )


def _verlet(
    accel: Callable[[np.ndarray, int], np.ndarray],
    x: np.ndarray,
    v: np.ndarray,
    half_dt: np.ndarray | float,
    gamma: np.ndarray | float,
    n_steps: int,
) -> Iterator[int]:
    """Damped velocity Verlet on ``x`` and ``v`` in place; yields each step count.

    ``accel(x, k)`` is the acceleration at ``x`` after ``k`` steps, and
    ``half_dt`` (half the step) and ``gamma`` (the damping rate) broadcast
    against ``x``. The damping is split half explicit, half implicit:

        v' = (1 - Gamma h) v + h a(x),   x += 2 h v',
        v  = (v' + h a(x)) / (1 + Gamma h),

    so ``h * a`` is formed once per step and serves both half kicks.
    """
    shrink = 1.0 - gamma * half_dt
    restore = 1.0 / (1.0 + gamma * half_dt)
    dt = 2.0 * half_dt
    kick = half_dt * accel(x, 0)
    for step in range(1, n_steps + 1):
        v *= shrink
        v += kick
        x += dt * v
        kick = half_dt * accel(x, step)
        v += kick
        v *= restore
        yield step


def _lockstep_verlet(
    force: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, ...],
    observed: int | EllipsisType,
    push: np.ndarray,
    dt: np.ndarray,
    gamma: np.ndarray,
    blowup: np.ndarray,
    spp: int,
    settle_cycles: int,
    measure_cycles: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate every scan point of every grid point from rest and demodulate.

    The state has ``shape`` with the P grid points on axis -3 and their M
    scan points on axis -2: [P, M, N] for one direction, [3, P, M, N]
    component-major for the full chain. ``force(x)`` is the undriven
    acceleration at displacements ``x`` from equilibrium; ``x[observed]`` is
    the driven direction, which feels the extra acceleration ``push`` [P, N]
    sin(2 pi k / spp) at drive phase index k. ``dt`` [P, M] is each scan
    point's step; ``gamma`` [P] and ``blowup`` [P] are each grid point's
    damping rate and largest allowed displacement.

    Returns the complex amplitudes Z [P, M, N] of ``x[observed]`` over the
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
    push = np.broadcast_to(push[:, None, :], shape[-3:]).copy()
    half_dt = np.broadcast_to(0.5 * dt[:, :, None], shape).copy()
    damping = np.broadcast_to(gamma[:, None, None], shape)
    n_steps = (settle_cycles + measure_cycles) * spp
    demod_start = settle_cycles * spp
    diverged = np.zeros(n_points, dtype=int)
    x, v = np.zeros(shape), np.zeros(shape)

    def accel(x: np.ndarray, step: int) -> np.ndarray:
        phase_idx = step % spp
        if phase_idx == 0 and step:
            peak = np.abs(x).reshape(-1, n_points, row_size).max(axis=(0, 2))
            fresh = ~(peak <= blowup) & (diverged == 0)
            if np.any(fresh):
                diverged[fresh] = step
                x[..., fresh, :, :] = 0.0
                v[..., fresh, :, :] = 0.0
                push[fresh] = 0.0
        a = force(x)
        a[observed] += sin_tab[phase_idx] * push
        return a

    accum = np.zeros(shape[-3:], dtype=complex)
    for step in _verlet(accel, x, v, half_dt, damping, n_steps):
        if step > demod_start:
            accum += x[observed] * exp_tab[step % spp]
        if step % spp == 0 and np.all(diverged):
            break
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
    shape: tuple[int, ...] = (len(configs), wd.shape[1], config.n_ions)
    if model == "linearized":
        restoring = np.stack([
            -coupling_matrix(c, direction) * reference_frequency(c, direction) ** 2
            for c in configs
        ])
        observed: int | EllipsisType = ...

        def force(x: np.ndarray) -> np.ndarray:
            return x @ restoring

    else:
        shape = (3, *shape)
        observed = axis_index(direction)
        force = _acceleration_kernel(
            config,
            np.stack([r0.T for r0 in origins], axis=1)[:, :, None, :],
            np.stack([_squared_frequencies(c) for c in configs], axis=1),
            shape,
        )
    z, diverged = _lockstep_verlet(
        force, shape, observed,
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
        results.append(SpectrumResult(
            drive_frequencies=s.drive_frequencies.copy(),
            amplitude=np.abs(z[p]),
            phase=wrap_phase(np.angle(z[p]) + np.pi / 2),
            direction=direction,
            damping_rate=s.damping_rate,
            model=model,
            steps_per_period=spp,
            settle_cycles=s.settle_cycles,
            measure_cycles=s.measure_cycles,
        ))
    return results


def _modal_response(table: ModeTable, scan: DriveScan, beam: BeamSpec) -> SpectrumResult:
    """The closed-form modal sum of :func:`linear_response_spectrum` on a solved table."""
    config = table.config
    direction = beam.direction
    vectors = table.matrix(direction)
    stiffness = table.eigenvalues(direction) * reference_frequency(config, direction) ** 2
    weights = beam_weights(beam, equilibrium_positions(config))
    modal_force = vectors.T @ (beam.force_amplitude / config.mass * weights)
    gamma = scan.damping_rate
    wd = scan.drive_frequencies
    w = wd[:, None]
    solution = (modal_force / (stiffness - w**2 + 1j * gamma * w)) @ vectors.T
    return SpectrumResult(
        drive_frequencies=wd.copy(),
        amplitude=np.abs(solution),
        phase=wrap_phase(np.angle(solution)),
        direction=direction,
        damping_rate=gamma,
        model="response",
        steps_per_period=None,
        settle_cycles=scan.settle_cycles,
        measure_cycles=scan.measure_cycles,
    )


def synthesize_spectra(
    tables: Sequence[ModeTable],
    scans: Sequence[DriveScan],
    beams: Sequence[BeamSpec],
    source: str,
) -> list[SpectrumResult | TapermodeError]:
    """Steady-state spectra of many configurations from one of ``SPECTRUM_SOURCES``.

    Entry i drives ``tables[i].config`` with ``beams[i]`` over ``scans[i]``;
    ``tables[i]`` is its solved :func:`tapermode.modes.compute_modes` table,
    with all three directions for the time-domain sources (the fastest mode
    sets the resolution floor). ``'response'`` evaluates the closed-form
    modal sum point by point. ``'linearized'`` and ``'full'`` integrate the
    equations of motion from rest, all grid points in lockstep (see the
    module docstring), with exactly the steps each point would take alone.

    A point that fails (a step request below the resolution floor, a
    trajectory that diverges) gets its :class:`TapermodeError` in place of
    its spectrum and leaves the other points unchanged. An unknown
    ``source`` raises :class:`ConfigError`.
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
                results[i] = _modal_response(table, scan, beam)
                continue
            omega_fast = float(np.max([table.frequencies(d) for d in DIRECTIONS]))
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

    for (spp, _, _, n_scan, _, n_ions, *_), members in groups.items():
        per_point = 3 * n_scan * max(n_ions, n_ions * (n_ions - 1) // 2)
        n_chunks = -(-len(members) * per_point // _LOCKSTEP_BLOCK_ELEMENTS)
        for chunk in np.array_split(members, min(n_chunks, len(members))):
            spectra = _integrate([tables[i] for i in chunk], [scans[i] for i in chunk],
                                 [beams[i] for i in chunk], source, spp)
            for i, spectrum in zip(chunk, spectra):
                results[i] = spectrum
    return results


def _single(results: list[SpectrumResult | TapermodeError]) -> SpectrumResult:
    """The one spectrum of a one-point :func:`synthesize_spectra`, or its error raised."""
    (result,) = results
    if isinstance(result, TapermodeError):
        raise result
    return result


def simulate_spectrum(
    config: TrapConfig,
    scan: DriveScan,
    beam: BeamSpec,
    model: str = "full",
) -> SpectrumResult:
    """Integrate the driven chain from rest and demodulate each scan point.

    ``model='full'`` integrates the complete nonlinear forces in 3-D;
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
    return _single(synthesize_spectra([compute_modes(config)], [scan], [beam], model))


def linear_response_spectrum(
    config: TrapConfig,
    scan: DriveScan,
    beam: BeamSpec,
) -> SpectrumResult:
    """Closed-form linearized steady state of the same scan, as a modal sum.

    Raises :class:`SolverError` when the on-axis chain is unstable (e.g.
    past the radial zigzag instability), where no steady state exists.
    """
    return _modal_response(compute_modes(config), scan, beam)


@dataclass(frozen=True)
class RingDown:
    """Free relaxation of a displaced chain under damping."""

    times: np.ndarray         #: [S] s
    energies: np.ndarray      #: [S] J above the equilibrium energy
    positions: np.ndarray     #: [S, N, 3] m
    velocities: np.ndarray    #: [S, N, 3] m/s


def ring_down(
    config: TrapConfig,
    displacement: np.ndarray,
    damping_rate: float,
    duration: float,
    integrator_step: float | None = None,
) -> RingDown:
    """Relax the chain from ``equilibrium + displacement`` with no drive.

    Samples positions, velocities, and the energy above equilibrium once per
    fastest mode period. Uses the full nonlinear forces.
    """
    if not damping_rate >= 0:
        raise ConfigError("damping_rate must be non-negative")
    if not duration > 0:
        raise ConfigError("duration must be positive")
    table = compute_modes(config)
    omega_fast = float(np.max([m.frequency for m in table.modes]))
    t_fast = TWO_PI / omega_fast
    dt = t_fast / 48.0 if integrator_step is None else float(integrator_step)
    if dt > t_fast / MIN_STEPS_PER_FASTEST_PERIOD:
        raise ConfigError(
            f"integrator_step {dt:.3e} s gives fewer than "
            f"{MIN_STEPS_PER_FASTEST_PERIOD} steps per fastest period "
            f"({t_fast:.3e} s)"
        )
    r0 = equilibrium_positions(config)
    disp = np.asarray(displacement, dtype=float)
    if disp.shape != r0.shape:
        raise ConfigError(f"displacement must have shape {r0.shape}, got {disp.shape}")
    n_steps = math.ceil(duration / dt)
    sample_every = max(1, round(t_fast / dt))
    origin = r0.T
    force = _acceleration_kernel(config, origin, _squared_frequencies(config), origin.shape)
    x, v = disp.T.copy(), np.zeros(r0.T.shape)
    steps, xs, vs = [0], [x.copy()], [v.copy()]
    for step in _verlet(lambda x, _: force(x), x, v, 0.5 * dt, damping_rate, n_steps):
        if step % sample_every == 0 or step == n_steps:
            steps.append(step)
            xs.append(x.copy())
            vs.append(v.copy())
    positions = r0 + np.transpose(xs, (0, 2, 1))
    velocities = np.transpose(vs, (0, 2, 1))
    e0 = potential_energy(config, r0)
    return RingDown(
        times=np.array(steps) * dt,
        energies=np.array([total_energy(config, r, u) - e0 for r, u in zip(positions, velocities)]),
        positions=positions,
        velocities=velocities,
    )


def total_energy(config: TrapConfig, positions: np.ndarray, velocities: np.ndarray) -> float:
    """Kinetic plus potential energy [J] of a chain state."""
    v = np.asarray(velocities, dtype=float)
    return potential_energy(config, positions) + 0.5 * config.mass * float(np.sum(v**2))
