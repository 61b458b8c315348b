"""Command-line interface: JSON configs in, CSV/JSON artifacts out.

Subcommands mirror the library layers: ``equilibrium`` (chain positions),
``modes`` (eigenmode table), ``sweep`` (modes vs axial confinement),
``simulate`` (driven spectra), ``fit`` (analysis chain on a spectrum CSV),
and ``pipeline`` (the closed synthesize-and-refit loop).

Conventions
-----------
* Files (configs and outputs) carry ordinary frequencies in Hz, lengths in
  the unit named by the column; the library itself works in rad/s and SI.
* Ion and mode indices in files are 1-based.
* CSV output is RFC-4180 (header row, CRLF line endings); JSON output has
  sorted keys. Identical config and seed give byte-identical artifacts.
* Exit codes: 0 success, 2 configuration/input error, 3 solver or
  simulation error, 4 fit error.

The config file is a JSON object with optional sections ``trap``,
``sweep``, ``drive``, ``beam``, ``analysis``, and ``pipeline``; every
omitted key falls back to a documented default, and unknown keys are
rejected by name.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .analysis import analyze_spectrum
from .core import TWO_PI, TrapConfig
from .dynamics import (
    SPECTRUM_SOURCES,
    BeamSpec,
    DriveScan,
    SpectrumResult,
    synthesize_spectrum,
)
from .equilibrium import chain_positions_dimensionless, equilibrium_positions
from .errors import (
    AnalysisError,
    ConfigError,
    SimulationError,
    SolverError,
)
from .modes import compute_modes
from .pipeline import ExperimentPlan, run_experiment
from .sweep import run_sweep

log = logging.getLogger("tapermode")

#: Significant digits written to CSV/JSON artifacts.
FLOAT_FORMAT = ".12g"

_SECTIONS = {"trap", "sweep", "drive", "beam", "analysis", "pipeline"}

_SWEEP_KEYS = {"omega_z_min_hz", "omega_z_max_hz", "points", "linear_reference"}
_DRIVE_KEYS = {
    "gamma_hz", "force_amplitude_n", "settle_cycles", "measure_cycles",
    "steps_per_period", "scan_points", "model",
}
_BEAM_KEYS = {"kind", "waist_um", "center_ion_index", "center_z_um", "axis"}
_ANALYSIS_KEYS = {"n_peaks", "noise_seed"}
_PIPELINE_KEYS = {
    "beam_crossover_hz", "spectrum_source", "noise_fraction", "focused_damping_scale",
}

DEFAULT_GAMMA_HZ = 1000.0
DEFAULT_FORCE_N = 1e-23
DEFAULT_WAIST_UM = 17.0
DEFAULT_SCAN_POINTS = 200


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _check_keys(section: str, data: Mapping, known: set) -> None:
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")


def load_config(path: str | None) -> dict:
    """Read and structurally validate the JSON config file."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config top level must be a JSON object")
    _check_keys("top-level", data, _SECTIONS)
    for name, section in data.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    return data


def trap_config(data: Mapping) -> TrapConfig:
    return TrapConfig.from_mapping(data.get("trap", {}))


def sweep_settings(data: Mapping) -> tuple[np.ndarray, bool]:
    """Axial-frequency grid [rad/s] and the linear-reference flag."""
    section = data.get("sweep", {})
    _check_keys("sweep", section, _SWEEP_KEYS)
    lo = float(section.get("omega_z_min_hz", 47e3))
    hi = float(section.get("omega_z_max_hz", 205e3))
    n = int(section.get("points", 12))
    if not 0 < lo <= hi:
        raise ConfigError("need 0 < omega_z_min_hz <= omega_z_max_hz")
    if n < 1 or (n == 1 and lo != hi):
        raise ConfigError("sweep points must be >= 1 (and > 1 unless min == max)")
    return TWO_PI * np.linspace(lo, hi, n), bool(section.get("linear_reference", True))


def drive_settings(data: Mapping) -> dict:
    section = data.get("drive", {})
    _check_keys("drive", section, _DRIVE_KEYS)
    model = section.get("model", "full")
    if model not in SPECTRUM_SOURCES:
        raise ConfigError(f"drive model must be one of {SPECTRUM_SOURCES}, got {model!r}")
    return {
        "gamma": TWO_PI * float(section.get("gamma_hz", DEFAULT_GAMMA_HZ)),
        "force": float(section.get("force_amplitude_n", DEFAULT_FORCE_N)),
        "settle_cycles": int(section.get("settle_cycles", 30)),
        "measure_cycles": int(section.get("measure_cycles", 20)),
        "steps_per_period": (
            int(section["steps_per_period"]) if "steps_per_period" in section else None
        ),
        "scan_points": int(section.get("scan_points", DEFAULT_SCAN_POINTS)),
        "model": model,
    }


def beam_axis(data: Mapping) -> str:
    """The radial axis ('x' or 'y') that every command drives, sweeps or fits along."""
    axis = data.get("beam", {}).get("axis", "x")
    if axis not in ("x", "y"):
        raise ConfigError(f"beam axis must be 'x' or 'y', got {axis!r}")
    return axis


def beam_spec(data: Mapping, config: TrapConfig, force: float) -> BeamSpec:
    """Build the excitation beam from the ``beam`` config section."""
    section = data.get("beam", {})
    _check_keys("beam", section, _BEAM_KEYS)
    kind = section.get("kind", "broad")
    axis = beam_axis(data)
    if kind == "broad":
        return BeamSpec(kind="broad", force_amplitude=force, direction=axis)
    if kind != "focused":
        raise ConfigError(f"beam kind must be 'broad' or 'focused', got {kind!r}")
    if "center_ion_index" in section and "center_z_um" in section:
        raise ConfigError("give center_ion_index or center_z_um, not both")
    if "center_z_um" in section:
        center_z = 1e-6 * float(section["center_z_um"])
    else:
        index = int(section.get("center_ion_index", (config.n_ions + 1) // 2))
        if not 1 <= index <= config.n_ions:
            raise ConfigError(
                f"center_ion_index must be in 1..{config.n_ions}, got {index}"
            )
        center_z = float(equilibrium_positions(config)[index - 1, 2])
    return BeamSpec(
        kind="focused",
        force_amplitude=force,
        direction=axis,
        waist_radius=1e-6 * float(section.get("waist_um", DEFAULT_WAIST_UM)),
        center_z=center_z,
    )


def analysis_settings(data: Mapping, n_ions: int) -> dict:
    section = data.get("analysis", {})
    _check_keys("analysis", section, _ANALYSIS_KEYS)
    seed = section.get("noise_seed")
    return {
        "n_peaks": int(section.get("n_peaks", n_ions)),
        "noise_seed": None if seed is None else int(seed),
    }


def experiment_plan(data: Mapping, grid: np.ndarray, direction: str) -> ExperimentPlan:
    """Assemble the pipeline plan from the drive/beam/pipeline sections."""
    drive = drive_settings(data)
    beam_section = data.get("beam", {})
    _check_keys("beam", beam_section, _BEAM_KEYS)
    section = data.get("pipeline", {})
    _check_keys("pipeline", section, _PIPELINE_KEYS)
    kwargs: dict[str, Any] = {
        "omega_z_values": grid,
        "direction": direction,
        "force_amplitude": drive["force"],
        "settle_cycles": drive["settle_cycles"],
        "measure_cycles": drive["measure_cycles"],
        "steps_per_period": drive["steps_per_period"],
        "beam_waist": 1e-6 * float(beam_section.get("waist_um", DEFAULT_WAIST_UM)),
    }
    if "gamma_hz" in data.get("drive", {}):
        kwargs["damping_rate"] = drive["gamma"]
    if "scan_points" in data.get("drive", {}):
        kwargs["scan_points"] = drive["scan_points"]
    if "beam_crossover_hz" in section:
        kwargs["beam_crossover"] = TWO_PI * float(section["beam_crossover_hz"])
    if "spectrum_source" in section:
        kwargs["spectrum_source"] = section["spectrum_source"]
    if "noise_fraction" in section:
        kwargs["noise_fraction"] = float(section["noise_fraction"])
    if "focused_damping_scale" in section:
        kwargs["focused_damping_scale"] = float(section["focused_damping_scale"])
    return ExperimentPlan(**kwargs)


# -- output helpers -----------------------------------------------------------

class _CsvTarget:
    """Write one CSV either to a path or to stdout."""

    def __init__(self, out: str | None):
        self.out = out

    def __enter__(self):
        if self.out is None:
            self._fh = None
            return csv.writer(sys.stdout)
        self._fh = open(self.out, "w", encoding="utf-8", newline="")
        return csv.writer(self._fh)

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
        return False


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(obj: dict, out: str | None) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _spectrum_csv(spectrum: SpectrumResult) -> str:
    """The spectrum as CSV text, one row per (drive frequency, ion).

    Formatted in one pass; the bytes equal a ``csv.writer`` row loop's,
    since no formatted number needs quoting.
    """
    rows = [
        f"{freq},{i},{amp:{FLOAT_FORMAT}},{phase:{FLOAT_FORMAT}}"
        for freq, amps, phases in zip(
            map(_fmt, (spectrum.drive_frequencies / TWO_PI).tolist()),
            (spectrum.amplitude * 1e6).tolist(),
            spectrum.phase.tolist(),
        )
        for i, amp, phase in zip(range(1, spectrum.n_ions + 1), amps, phases)
    ]
    return "\r\n".join(["omega_d_hz,ion_index,amplitude_um,phase_rad", *rows, ""])


# -- subcommands --------------------------------------------------------------

def cmd_equilibrium(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    u = chain_positions_dimensionless(config.n_ions)
    scale = config.length_scale
    log.info("solved %d-ion chain, length scale %.6g um", config.n_ions, scale * 1e6)
    with _CsvTarget(args.out) as writer:
        writer.writerow(["ion_index", "u", "z0_um"])
        for i, ui in enumerate(u):
            writer.writerow([i + 1, _fmt(ui), _fmt(ui * scale * 1e6)])
    return 0


def cmd_modes(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    table = compute_modes(config)
    with _CsvTarget(args.out) as writer:
        writer.writerow(
            ["direction", "mode_index", "gamma", "frequency_hz", "PR"]
            + [f"a_{i + 1}" for i in range(config.n_ions)]
        )
        for mode in table.modes:
            writer.writerow(
                [mode.direction, mode.index, _fmt(mode.eigenvalue),
                 _fmt(mode.frequency / TWO_PI), _fmt(mode.participation)]
                + [_fmt(a) for a in mode.vector]
            )
    return 0


def cmd_sweep(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    grid, linear_reference = sweep_settings(data)
    result = run_sweep(config, grid, direction=beam_axis(data))
    with _CsvTarget(args.out) as writer:
        writer.writerow(
            ["omega_z_hz", "mode_label", "frequency_hz"]
            + [f"a_{i + 1}" for i in range(config.n_ions)]
            + ["PR", "linear_reference_frequency_hz"]
        )
        for point in result.points:
            for mode in point.modes:
                writer.writerow(
                    [_fmt(point.omega_z / TWO_PI), mode.label, _fmt(mode.frequency / TWO_PI)]
                    + [_fmt(a) for a in mode.vector]
                    + [_fmt(mode.participation),
                       _fmt(mode.linear_frequency / TWO_PI) if linear_reference else ""]
                )
    return 0


def _synthesize_cli(config: TrapConfig, data: Mapping) -> SpectrumResult:
    drive = drive_settings(data)
    beam = beam_spec(data, config, drive["force"])
    table = compute_modes(config, directions=(beam.direction,))
    freqs = table.frequencies(beam.direction)
    scan = DriveScan(
        drive_frequencies=np.linspace(
            0.9 * freqs.min(), 1.1 * freqs.max(), drive["scan_points"]
        ),
        damping_rate=drive["gamma"],
        settle_cycles=drive["settle_cycles"],
        measure_cycles=drive["measure_cycles"],
        steps_per_period=drive["steps_per_period"],
    )
    return synthesize_spectrum(config, scan, beam, drive["model"])


def cmd_simulate(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    spectrum = _synthesize_cli(config, data)
    log.info(
        "synthesized %d-point %s spectrum along %s",
        spectrum.drive_frequencies.size, spectrum.model, spectrum.direction,
    )
    _write_text(_spectrum_csv(spectrum), args.out)
    return 0


def _read_spectrum_csv(path: str, direction: str) -> SpectrumResult:
    """Load a spectrum written by ``simulate``, driven along ``direction``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"omega_d_hz", "ion_index", "amplitude_um", "phase_rad"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ConfigError(
                    f"{path} must have columns {sorted(required)}, "
                    f"got {reader.fieldnames}"
                )
            cells: dict[tuple[float, int], tuple[float, float]] = {}
            for row in reader:
                try:
                    key = (float(row["omega_d_hz"]), int(row["ion_index"]))
                    cells[key] = (float(row["amplitude_um"]), float(row["phase_rad"]))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}: malformed row {row}: {exc}") from exc
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc
    if not cells:
        raise ConfigError(f"{path} contains no data rows")
    freqs = sorted({k[0] for k in cells})
    ions = sorted({k[1] for k in cells})
    if ions != list(range(1, len(ions) + 1)):
        raise ConfigError(f"{path}: ion_index values must be 1..N, got {ions}")
    amplitude = np.empty((len(freqs), len(ions)))
    phase = np.empty_like(amplitude)
    for k, f in enumerate(freqs):
        for i, ion in enumerate(ions):
            try:
                amp, ph = cells[(f, ion)]
            except KeyError as exc:
                raise ConfigError(
                    f"{path}: missing row for omega_d_hz={f:g}, ion_index={ion}"
                ) from exc
            amplitude[k, i] = amp * 1e-6
            phase[k, i] = ph
    return SpectrumResult(
        drive_frequencies=TWO_PI * np.asarray(freqs),
        amplitude=amplitude,
        phase=phase,
        direction=direction,
        damping_rate=float("nan"),
        model="loaded",
        steps_per_period=None,
        settle_cycles=0,
        measure_cycles=1,
    )


def cmd_fit(args) -> int:
    data = load_config(args.config)
    spectrum = _read_spectrum_csv(args.input, beam_axis(data))
    settings = analysis_settings(data, spectrum.n_ions)
    result = analyze_spectrum(spectrum, n_modes=settings["n_peaks"])
    free, per_ion, vectors = result.lorentzians, result.per_ion, result.vectors
    _write_json(
        {
            "lorentzians": {
                "centers_hz": [_f(v / TWO_PI) for v in free.centers],
                "center_errors_hz": [_f(v / TWO_PI) for v in free.center_errors],
                "hwhms_hz": [_f(v / TWO_PI) for v in free.hwhms],
                "hwhm_errors_hz": [_f(v / TWO_PI) for v in free.hwhm_errors],
                "heights_um": [_f(v * 1e6) for v in free.heights],
                "height_errors_um": [_f(v * 1e6) for v in free.height_errors],
                "offset_um": _f(free.offset * 1e6),
                "offset_error_um": _f(free.offset_error * 1e6),
            },
            "per_ion": {
                "heights_um": _grid(per_ion.heights * 1e6),
                "height_errors_um": _grid(per_ion.height_errors * 1e6),
                "hwhms_hz": [_f(v / TWO_PI) for v in per_ion.hwhms],
            },
            "eigenvectors": {
                "frequencies_hz": [_f(v / TWO_PI) for v in vectors.frequencies],
                "components": _grid(vectors.components),
                "component_errors": _grid(vectors.component_errors),
            },
            "warnings": list(vectors.ambiguity_notes),
        },
        args.out,
    )
    return 0


def _f(value: float) -> float:
    """Round-trip floats through the artifact precision so JSON is stable."""
    return float(_fmt(value))


def _grid(matrix: np.ndarray) -> list[list[float]]:
    return [[_f(v) for v in row] for row in matrix]


def cmd_pipeline(args) -> int:
    if args.out is None:
        raise ConfigError("pipeline needs --out DIRECTORY for its artifacts")
    data = load_config(args.config)
    config = trap_config(data)
    grid, _ = sweep_settings(data)
    plan = experiment_plan(data, grid, beam_axis(data))
    settings = analysis_settings(data, config.n_ions)
    seed = args.seed if args.seed is not None else settings["noise_seed"]
    report = run_experiment(config, plan, seed=seed)
    summary = report.summary
    log.info(
        "pipeline: %d points (%d failed), max frequency error %.3g Hz",
        summary["n_points"], summary["n_failed"],
        summary.get("max_frequency_error_hz", float("nan")),
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report.to_json_dict(), str(out_dir / "report.json"))

    n = config.n_ions
    with open(out_dir / "fits.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["omega_z_hz", "beam", "mode_index", "frequency_hz", "hwhm_hz"]
            + [f"a_{i + 1}" for i in range(n)]
        )
        for point in report.points:
            for j in range(point.fitted_frequencies.size):
                writer.writerow(
                    [_fmt(point.omega_z / TWO_PI), point.beam, j + 1,
                     _fmt(point.fitted_frequencies[j] / TWO_PI),
                     _fmt(point.fitted_hwhms[j] / TWO_PI)]
                    + [_fmt(a) for a in point.fitted_components[:, j]]
                )
    with open(out_dir / "theory.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["omega_z_hz", "mode_index", "frequency_hz"]
            + [f"a_{i + 1}" for i in range(n)]
        )
        for point in report.points:
            for j in range(point.theory_frequencies.size):
                writer.writerow(
                    [_fmt(point.omega_z / TWO_PI), j + 1,
                     _fmt(point.theory_frequencies[j] / TWO_PI)]
                    + [_fmt(a) for a in point.theory_components[:, j]]
                )
    for k, point in enumerate(report.points):
        if point.spectrum is None:
            continue
        _write_text(_spectrum_csv(point.spectrum), str(out_dir / f"spectrum_{k:03d}.csv"))
    return 0


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="PATH", help="output file (or directory for pipeline); stdout when omitted")
    common.add_argument("--seed", type=int, metavar="N", help="noise seed (overrides analysis.noise_seed)")
    common.add_argument("--threads", type=int, metavar="N",
                        help="ignored; accepted for compatibility, every command runs serially")
    common.add_argument("--verbose", action="store_true", help="log progress to stderr")

    parser = argparse.ArgumentParser(
        prog="tapermode",
        description="Normal modes and driven spectra of ion chains in tapered traps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    handlers = {
        "equilibrium": (cmd_equilibrium, "solve chain equilibrium positions"),
        "modes": (cmd_modes, "compute the normal-mode table"),
        "sweep": (cmd_sweep, "track modes across an axial-frequency sweep"),
        "simulate": (cmd_simulate, "synthesize a driven amplitude/phase spectrum"),
        "fit": (cmd_fit, "run the analysis chain on a spectrum CSV"),
        "pipeline": (cmd_pipeline, "closed-loop synthesize-and-refit over a sweep"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "fit":
            p.add_argument("input", metavar="SPECTRUM_CSV",
                           help="spectrum file produced by the simulate command")
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
