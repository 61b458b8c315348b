"""Closed-loop emulation: plan a frequency sweep, synthesize spectra, refit.

:func:`run_experiment` walks a grid of axial confinements. At every grid
point it computes the mode table once, picks an excitation beam (a broad
uniform drive at low confinement, a focused Gaussian profile centred on the
middle ion once the chain's modes delocalize), synthesizes the driven
response of every ion across a scan window bracketing the predicted
resonances (all grid points in one batch), optionally adds seeded
measurement noise, and then runs the analysis chain — one modal fit of
every ion's response, seeded at the peaks, then signed eigenvectors —
exactly as one would on measured data. Fitted frequencies
and eigenvectors are matched to the predictions by largest overlap
(Hungarian assignment) so the report quantifies how well the measurement
side reproduces the model side.

Failures at individual grid points (a fit that does not converge, an
unstable configuration) are isolated: the point is reported with its reason
and the loop continues. Only when more than half the points fail does the
run abort. Cooling stays on during focused-beam points; its only modeled
effect is the damping term, optionally scaled by ``focused_damping_scale``
to emulate extra damping from the always-on broad beam.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import analyze_spectrum
from .core import TWO_PI, TrapConfig, check_array_budget, check_count, check_pair_budget, check_real
from .dynamics import (
    SPECTRUM_SOURCES,
    BeamSpec,
    DriveScan,
    SpectrumResult,
    _held_rows,
    beam_weights,
    synthesize_spectra,
    wrap_phase,
)
from .equilibrium import equilibrium_positions
from .errors import ConfigError, SolverError, TapermodeError
from .modes import ModeTable, compute_modes
from .sweep import assign_columns

#: Grid [Hz] (lowest, highest, points) when a plan or config sets none: 47-205 kHz.
DEFAULT_GRID_HZ = (47e3, 205e3, 12)
DEFAULT_OMEGA_Z_GRID = TWO_PI * np.linspace(*DEFAULT_GRID_HZ)

#: Components smaller than this in the prediction are excluded from the
#: sign comparison (their fitted sign carries no information).
SIGN_CHECK_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Sweep grid plus every knob of the emulated measurement. The drive takes
    :class:`DriveScan`'s cycle defaults and checks; they run before any point does."""

    omega_z_values: np.ndarray = None  #: axial frequencies [rad/s]
    direction: str = "x"
    damping_rate: float = TWO_PI * 400.0      #: [rad/s]
    force_amplitude: float = 1e-23            #: [N]
    scan_points: int = 800
    beam_crossover: float = TWO_PI * 135e3    #: focused beam at/above this [rad/s]
    beam_waist: float = 17e-6                 #: Gaussian 1/e^2 radius [m]
    settle_cycles: int = DriveScan.settle_cycles
    measure_cycles: int = DriveScan.measure_cycles
    steps_per_period: int | None = None
    spectrum_source: str = "response"
    noise_fraction: float = 0.0
    focused_damping_scale: float = 1.0

    def __post_init__(self) -> None:
        grid = DEFAULT_OMEGA_Z_GRID if self.omega_z_values is None else self.omega_z_values
        try:
            grid = np.atleast_1d(np.asarray(grid, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"omega_z_values must be numbers: {exc}") from None
        if grid.ndim != 1:
            raise ConfigError(f"omega_z_values must be a 1-D grid, got shape {grid.shape}")
        if grid.size < 1 or not np.all(np.isfinite(grid) & (grid > 0)):
            raise ConfigError("omega_z_values must contain positive finite frequencies")
        grid = np.sort(grid)
        grid.flags.writeable = False
        object.__setattr__(self, "omega_z_values", grid)
        if self.direction not in ("x", "y"):
            raise ConfigError("plan direction must be 'x' or 'y'")
        if self.spectrum_source not in SPECTRUM_SOURCES:
            raise ConfigError(
                f"spectrum_source must be one of {SPECTRUM_SOURCES}, "
                f"got {self.spectrum_source!r}"
            )
        for name in ("damping_rate", "force_amplitude", "beam_crossover", "beam_waist",
                     "noise_fraction", "focused_damping_scale"):
            check_real(name, getattr(self, name))
        self._drive(grid)  # any positive frequencies; each point scans its own window
        for name in ("force_amplitude", "beam_crossover", "beam_waist", "focused_damping_scale"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # An infinite crossover (every point broad) or waist is a valid plan.
        for name in ("force_amplitude", "focused_damping_scale"):
            if getattr(self, name) == np.inf:
                raise ConfigError(f"{name} must be finite")
        focused_damping = self.damping_rate * self.focused_damping_scale
        if grid[-1] >= self.beam_crossover and not 0 < focused_damping < np.inf:
            raise ConfigError("damping_rate * focused_damping_scale must be positive and "
                              f"finite when a point is focused, got {focused_damping}")
        check_count("scan_points", self.scan_points)
        if self.scan_points < 16:
            raise ConfigError("scan_points must be at least 16")
        if not 0 <= self.noise_fraction < np.inf:
            raise ConfigError("noise_fraction must be finite and non-negative")

    def _drive(self, drive_frequencies: np.ndarray, damping_scale: float = 1.0) -> DriveScan:
        """The plan's drive over ``drive_frequencies``, its damping times ``damping_scale``."""
        return DriveScan(drive_frequencies, self.damping_rate * damping_scale,
                         self.settle_cycles, self.measure_cycles, self.steps_per_period)

    def to_mapping(self) -> dict:
        """JSON-sendable mapping of the plan (frequencies in Hz)."""
        return {
            "omega_z_hz": [float(w / TWO_PI) for w in self.omega_z_values],
            "direction": self.direction,
            "damping_hz": self.damping_rate / TWO_PI,
            "force_newton": self.force_amplitude,
            "scan_points": self.scan_points,
            "beam_crossover_hz": self.beam_crossover / TWO_PI,
            "beam_waist_m": self.beam_waist,
            "settle_cycles": self.settle_cycles,
            "measure_cycles": self.measure_cycles,
            "steps_per_period": self.steps_per_period,
            "spectrum_source": self.spectrum_source,
            "noise_fraction": self.noise_fraction,
            "focused_damping_scale": self.focused_damping_scale,
        }


@dataclass(frozen=True, eq=False)
class PointResult:
    """Prediction-vs-refit comparison at one axial confinement.

    ``failure`` is ``None`` for a successful point; otherwise it holds the
    reason and the fitted arrays are NaN.
    """

    omega_z: float
    beam: str                       #: "broad" or "focused"
    drive_weights: np.ndarray       #: [N]
    theory_frequencies: np.ndarray  #: [K] ascending [rad/s]
    theory_components: np.ndarray   #: [N, K]
    fitted_frequencies: np.ndarray  #: [K], matched to prediction order
    fitted_hwhms: np.ndarray        #: [K] [rad/s]
    fitted_components: np.ndarray   #: [N, K], sign-aligned to prediction
    frequency_errors: np.ndarray    #: [K] |fitted - predicted| [rad/s]
    component_errors: np.ndarray    #: [N, K] |fitted - predicted|
    sign_matches: np.ndarray        #: [K] bool over components > threshold
    spectrum: SpectrumResult | None
    notes: tuple[str, ...]
    failure: str | None = None


@dataclass(frozen=True, eq=False)
class ReproductionReport:
    """Everything :func:`run_experiment` measured, plus a summary."""

    config: TrapConfig
    plan: ExperimentPlan
    seed: int | None
    points: tuple[PointResult, ...]

    @property
    def succeeded(self) -> tuple[PointResult, ...]:
        return tuple(p for p in self.points if p.failure is None)

    @property
    def summary(self) -> dict:
        good = self.succeeded
        n_ions = self.config.n_ions
        n_modes = self.points[0].theory_frequencies.size
        result = {
            "n_points": len(self.points),
            "n_failed": len(self.points) - len(good),
            "n_modes": n_modes,
            "components_compared": len(good) * n_ions * n_modes,
            "beams": {
                "broad": sum(1 for p in self.points if p.beam == "broad"),
                "focused": sum(1 for p in self.points if p.beam == "focused"),
            },
        }
        if good:
            result.update(
                max_frequency_error_hz=max(
                    float(np.max(p.frequency_errors)) for p in good
                ) / TWO_PI,
                max_frequency_error_hwhm=max(
                    float(np.max(p.frequency_errors / p.fitted_hwhms)) for p in good
                ),
                max_component_error=max(
                    float(np.max(p.component_errors)) for p in good
                ),
                signs_all_match=all(bool(np.all(p.sign_matches)) for p in good),
            )
        return result

    def to_json_dict(self) -> dict:
        """Deterministic plain-Python structure (frequencies in Hz)."""
        return {
            "config": self.config.to_mapping(),
            "plan": self.plan.to_mapping(),
            "seed": self.seed,
            "summary": self.summary,
            "points": [
                {
                    "omega_z_hz": p.omega_z / TWO_PI,
                    "beam": p.beam,
                    "failure": p.failure,
                    "drive_weights": p.drive_weights.tolist(),
                    "theory_frequencies_hz": (p.theory_frequencies / TWO_PI).tolist(),
                    "fitted_frequencies_hz": (p.fitted_frequencies / TWO_PI).tolist(),
                    "fitted_hwhms_hz": (p.fitted_hwhms / TWO_PI).tolist(),
                    "frequency_errors_hz": (p.frequency_errors / TWO_PI).tolist(),
                    "theory_components": p.theory_components.tolist(),
                    "fitted_components": p.fitted_components.tolist(),
                    "component_errors": p.component_errors.tolist(),
                    "sign_matches": [bool(s) for s in p.sign_matches],
                    "notes": list(p.notes),
                }
                for p in self.points
            ],
        }


def scan_window(frequencies: np.ndarray | float, points: int) -> np.ndarray:
    """``points`` drive frequencies from 0.9x the lowest to 1.1x the highest driven mode
    ``frequencies``: the scan of ``simulate`` and of each ``pipeline`` point."""
    return np.linspace(0.9 * np.min(frequencies), 1.1 * np.max(frequencies), points)


def centred_beam(config: TrapConfig, ion: int, **beam) -> BeamSpec:
    """A focused beam centred on ion ``ion`` (0-based) of ``config``'s chain at equilibrium;
    ``beam`` holds the other :class:`BeamSpec` fields."""
    z = equilibrium_positions(config)[ion, 2]
    return BeamSpec(kind="focused", center_z=float(z), **beam)


def _beam_kind(plan: ExperimentPlan, omega_z: float) -> str:
    """'broad' below the plan's crossover, 'focused' at and above it."""
    return "broad" if omega_z < plan.beam_crossover else "focused"


def select_beam(config: TrapConfig, plan: ExperimentPlan, omega_z: float) -> BeamSpec:
    """Excitation beam for one grid point.

    Below the crossover the whole chain is driven by a broad beam; at and
    above it a focused beam of the plan's waist is centred on the middle
    ion (:func:`centred_beam`), whose modes the drive must address individually.
    """
    beam = {"force_amplitude": plan.force_amplitude, "direction": plan.direction}
    if _beam_kind(plan, omega_z) == "broad":
        return BeamSpec(kind="broad", **beam)
    return centred_beam(config.replace(omega_z=omega_z), (config.n_ions - 1) // 2,
                        waist_radius=plan.beam_waist, **beam)


def _add_noise(spectrum: SpectrumResult, fraction: float, rng) -> SpectrumResult:
    if fraction == 0.0:
        return spectrum
    amp = spectrum.amplitude + fraction * spectrum.amplitude.max() * rng.standard_normal(
        spectrum.amplitude.shape
    )
    phase = wrap_phase(spectrum.phase + fraction * rng.standard_normal(spectrum.phase.shape))
    return replace(spectrum, amplitude=np.clip(amp, 0.0, None), phase=phase)


def _failed_point(config, plan, omega_z: float, reason: str) -> PointResult:
    n = config.n_ions
    nan_k = np.full(n, np.nan)
    nan_nk = np.full((n, n), np.nan)
    return PointResult(
        omega_z=omega_z,
        beam=_beam_kind(plan, omega_z),
        drive_weights=np.full(n, np.nan),
        theory_frequencies=nan_k,
        theory_components=nan_nk,
        fitted_frequencies=nan_k.copy(),
        fitted_hwhms=nan_k.copy(),
        fitted_components=nan_nk.copy(),
        frequency_errors=nan_k.copy(),
        component_errors=nan_nk.copy(),
        sign_matches=np.zeros(n, dtype=bool),
        spectrum=None,
        notes=(),
        failure=reason,
    )


def _prepare_point(
    config: TrapConfig, plan: ExperimentPlan, omega_z: float
) -> tuple[ModeTable, DriveScan, BeamSpec]:
    """The mode table (all three directions), drive scan and beam of one point; the
    scan is :func:`scan_window`, damped ``focused_damping_scale`` times more when focused."""
    table = compute_modes(config.replace(omega_z=omega_z))
    beam = select_beam(config, plan, omega_z)
    scan = plan._drive(
        scan_window(table.frequencies(plan.direction), plan.scan_points),
        plan.focused_damping_scale if beam.kind == "focused" else 1.0,
    )
    return table, scan, beam


def _score_point(
    plan: ExperimentPlan,
    table: ModeTable,
    beam: BeamSpec,
    spectrum: SpectrumResult,
    seed_child,
) -> PointResult:
    """Add the point's noise, refit its spectrum and compare with its modes."""
    theory_freqs = table.frequencies(plan.direction)
    theory_matrix = table.matrix(plan.direction)
    spectrum = _add_noise(spectrum, plan.noise_fraction, np.random.default_rng(seed_child))

    result = analyze_spectrum(spectrum, n_modes=theory_freqs.size)
    order, signs, strengths = assign_columns(theory_matrix, result.vectors.components)

    fitted_freqs = result.modes.centers[order]
    fitted_hwhms = result.modes.hwhms[order]
    fitted_matrix = result.vectors.components[:, order] * signs

    component_errors = np.abs(fitted_matrix - theory_matrix)
    checked = np.abs(theory_matrix) > SIGN_CHECK_THRESHOLD
    sign_ok = (np.sign(fitted_matrix) == np.sign(theory_matrix)) | ~checked
    notes = list(result.vectors.ambiguity_notes)
    for j, s in enumerate(strengths):
        if s < 0.8:
            notes.append(f"mode {j}: fitted/predicted overlap only {s:.3f}")

    return PointResult(
        omega_z=table.config.omega_z,
        beam=beam.kind,
        drive_weights=beam_weights(beam, equilibrium_positions(table.config)),
        theory_frequencies=theory_freqs,
        theory_components=theory_matrix,
        fitted_frequencies=fitted_freqs,
        fitted_hwhms=fitted_hwhms,
        fitted_components=fitted_matrix,
        frequency_errors=np.abs(fitted_freqs - theory_freqs),
        component_errors=component_errors,
        sign_matches=np.all(sign_ok, axis=0),
        spectrum=spectrum,
        notes=tuple(notes),
    )


def run_experiment(
    config: TrapConfig,
    plan: ExperimentPlan,
    seed: int | None = None,
) -> ReproductionReport:
    """Run the closed loop over the plan's grid and score the round trip.

    The loop runs in three phases:

    1. Prepare every grid point: its configuration, its mode table (solved
       once for all three directions; it gives the theory columns, the
       integrator's resolution floor and the modal sum), its beam, drive
       window and damping.
    2. Synthesize the spectra of all prepared points in one
       :func:`tapermode.dynamics.synthesize_spectra` call, so the
       time-domain sources integrate the whole grid in one lockstep.
    3. Add seeded noise to each spectrum and analyze it against the point's
       modes. Each grid point draws from an independently spawned child
       stream of ``seed``, so results do not depend on evaluation order.

    A :class:`TapermodeError` in any phase (an invalid configuration, a
    diverged trajectory, a fit that does not converge) fails only its point,
    which is recorded with the reason in its :class:`PointResult`. Raises
    :class:`SolverError` only when more than half the points fail, and
    :class:`ConfigError` for a ``seed`` that is not a non-negative integer,
    a grid whose spectra, grid points x scan points x ions, exceed
    ``core.MAX_ARRAY_BYTES``, or (``spectrum_source='full'``) a point whose
    pair arrays exceed it.
    """
    if seed is not None:
        check_count("noise seed", seed)
        if seed < 0:
            raise ConfigError(f"noise seed must be a non-negative integer, got {seed}")
    shape = (plan.omega_z_values.size, plan.scan_points, config.n_ions)
    check_array_budget(f"spectra of grid x scan points x ions = {shape}", shape)
    if plan.spectrum_source == "full":
        check_pair_budget(config.n_ions, (plan.scan_points,), len(_held_rows("full", plan.direction)))
    grid = [float(w) for w in plan.omega_z_values]
    children = np.random.SeedSequence(seed).spawn(len(grid))
    points: list[PointResult | None] = [None] * len(grid)
    prepared: dict[int, tuple[ModeTable, DriveScan, BeamSpec]] = {}
    for i, omega_z in enumerate(grid):
        try:
            prepared[i] = _prepare_point(config, plan, omega_z)
        except TapermodeError as exc:
            points[i] = _failed_point(config, plan, omega_z, str(exc))

    columns = tuple(zip(*prepared.values())) or ((), (), ())
    spectra = synthesize_spectra(*columns, plan.spectrum_source)
    for (i, (table, _, beam)), spectrum in zip(prepared.items(), spectra):
        if isinstance(spectrum, TapermodeError):
            points[i] = _failed_point(config, plan, grid[i], str(spectrum))
            continue
        try:
            points[i] = _score_point(plan, table, beam, spectrum, children[i])
        except TapermodeError as exc:
            points[i] = _failed_point(config, plan, grid[i], str(exc))

    failures = [p for p in points if p.failure is not None]
    if 2 * len(failures) > len(points):
        detail = "; ".join(
            f"{p.omega_z / TWO_PI:.4g} Hz: {p.failure}" for p in failures[:5]
        )
        raise SolverError(
            f"{len(failures)} of {len(points)} sweep points failed ({detail})"
        )
    return ReproductionReport(config=config, plan=plan, seed=seed, points=tuple(points))

