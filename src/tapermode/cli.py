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

The config file is a JSON object with optional sections ``trap``, ``sweep``,
``drive``, ``beam``, ``analysis`` and ``pipeline``, checked whole against
:data:`SCHEMA`: unknown keys are rejected by name, and each value must have
its key's JSON type. An integer is a JSON integer (not ``12.0``), a number an
integer or float, neither a bool or a string; only ``trap.funnel_length_mm``
(also ``"inf"``), ``drive.steps_per_period`` and ``analysis.noise_seed`` take
null. Omitted keys take the library's defaults, except that ``simulate``
drives at Γ = 2π·1000 Hz over 200 scan points, ``pipeline`` at 400 Hz over 800.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .analysis import analyze_spectrum
from .core import BOOLEAN, INTEGER, NULL, NUMBER, TRAP_KEYS, TWO_PI, TrapConfig
from .core import ConfigKey as Key, check_section, section_fields
from .dynamics import (
    BEAM_KINDS,
    SPECTRUM_SOURCES,
    BeamSpec,
    DriveScan,
    SpectrumResult,
    synthesize_spectra,
)
from .equilibrium import chain_positions_dimensionless, equilibrium_positions
from .errors import (
    AnalysisError,
    ConfigError,
    SimulationError,
    SolverError,
    TapermodeError,
)
from .modes import compute_modes
from .pipeline import ExperimentPlan, run_experiment
from .sweep import run_sweep

log = logging.getLogger("tapermode")

#: Significant digits written to CSV/JSON artifacts.
FLOAT_FORMAT = ".12g"

#: Config section -> key -> its JSON types and, for the drive, beam and
#: pipeline sections, the ExperimentPlan field it sets.
SCHEMA = {
    "trap": TRAP_KEYS,
    "sweep": {
        "omega_z_min_hz": Key(NUMBER), "omega_z_max_hz": Key(NUMBER),
        "points": Key(INTEGER), "linear_reference": Key(BOOLEAN),
    },
    "drive": {
        "gamma_hz": Key(NUMBER, "damping_rate", TWO_PI),
        "force_amplitude_n": Key(NUMBER, "force_amplitude", 1.0),
        "settle_cycles": Key(INTEGER, "settle_cycles"),
        "measure_cycles": Key(INTEGER, "measure_cycles"),
        "steps_per_period": Key((int, NULL), "steps_per_period"),
        "scan_points": Key(INTEGER, "scan_points"), "model": Key(SPECTRUM_SOURCES),
    },
    "beam": {
        "kind": Key(BEAM_KINDS), "waist_um": Key(NUMBER, "beam_waist", 1e-6),
        "center_ion_index": Key(INTEGER), "center_z_um": Key(NUMBER),
        "axis": Key(("x", "y")),
    },
    "analysis": {"n_peaks": Key(INTEGER), "noise_seed": Key((int, NULL))},
    "pipeline": {
        "beam_crossover_hz": Key(NUMBER, "beam_crossover", TWO_PI),
        "spectrum_source": Key(SPECTRUM_SOURCES, "spectrum_source"),
        "noise_fraction": Key(NUMBER, "noise_fraction", 1.0),
        "focused_damping_scale": Key(NUMBER, "focused_damping_scale", 1.0),
    },
}


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def load_config(path: str | None) -> dict:
    """Read the JSON config file and check every section and value against :data:`SCHEMA`."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config top level must be a JSON object")
    check_section("top-level", data, {name: Key((dict,)) for name in SCHEMA})
    for name, section in data.items():
        check_section(name, section, SCHEMA[name])
    return data


def _plan_fields(data: Mapping) -> dict:
    """The ExperimentPlan fields that the config sets, in SI units."""
    fields = {}
    for name in ("drive", "beam", "pipeline"):
        fields.update(section_fields(data.get(name, {}), SCHEMA[name]))
    return fields


def trap_config(data: Mapping) -> TrapConfig:
    return TrapConfig.from_mapping(data.get("trap", {}))


def sweep_settings(data: Mapping) -> tuple[np.ndarray, bool]:
    """Axial-frequency grid [rad/s] and the linear-reference flag."""
    section = data.get("sweep", {})
    lo = section.get("omega_z_min_hz", 47e3)
    hi = section.get("omega_z_max_hz", 205e3)
    n = section.get("points", 12)
    if not 0 < lo <= hi:
        raise ConfigError("need 0 < omega_z_min_hz <= omega_z_max_hz")
    if n < 1 or (n == 1 and lo != hi):
        raise ConfigError("sweep points must be >= 1 (and > 1 unless min == max)")
    return TWO_PI * np.linspace(lo, hi, n), section.get("linear_reference", True)


def drive_settings(data: Mapping) -> dict:
    """``simulate``'s drive as SI ExperimentPlan fields, plus ``model``; cycles
    left out of the config take DriveScan's defaults."""
    return {
        "damping_rate": TWO_PI * 1000.0,
        "scan_points": 200,
        "force_amplitude": ExperimentPlan.force_amplitude,
        "beam_waist": ExperimentPlan.beam_waist,
        "model": data.get("drive", {}).get("model", "full"),
        **_plan_fields(data),
    }


def beam_axis(data: Mapping) -> str:
    """The radial axis ('x' or 'y') that every command drives, sweeps or fits along."""
    return data.get("beam", {}).get("axis", "x")


def beam_spec(data: Mapping, config: TrapConfig, drive: Mapping) -> BeamSpec:
    """Build the excitation beam from the ``beam`` section and :func:`drive_settings`."""
    section = data.get("beam", {})
    force, axis = drive["force_amplitude"], beam_axis(data)
    if section.get("kind", "broad") == "broad":
        return BeamSpec(kind="broad", force_amplitude=force, direction=axis)
    if "center_ion_index" in section and "center_z_um" in section:
        raise ConfigError("give center_ion_index or center_z_um, not both")
    if "center_z_um" in section:
        center_z = 1e-6 * section["center_z_um"]
    else:
        index = section.get("center_ion_index", (config.n_ions + 1) // 2)
        if not 1 <= index <= config.n_ions:
            raise ConfigError(
                f"center_ion_index must be in 1..{config.n_ions}, got {index}"
            )
        center_z = float(equilibrium_positions(config)[index - 1, 2])
    return BeamSpec(
        kind="focused",
        force_amplitude=force,
        direction=axis,
        waist_radius=drive["beam_waist"],
        center_z=center_z,
    )


def analysis_settings(data: Mapping, n_ions: int) -> dict:
    section = data.get("analysis", {})
    n_peaks = section.get("n_peaks", n_ions)
    if n_peaks < 1:
        raise ConfigError(f"analysis.n_peaks must be at least 1, got {n_peaks}")
    return {"n_peaks": n_peaks, "noise_seed": section.get("noise_seed")}


def experiment_plan(data: Mapping, grid: np.ndarray, direction: str) -> ExperimentPlan:
    """The pipeline plan: the fields the config sets, ExperimentPlan's defaults for the rest."""
    return ExperimentPlan(omega_z_values=grid, direction=direction, **_plan_fields(data))


# -- output helpers -----------------------------------------------------------

def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(obj: dict, out: str | None) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _csv_text(header: list[str], lines: Iterable[str]) -> str:
    """CSV text: the header row, then the comma-joined data ``lines``, CRLF-terminated.

    Nothing is quoted. No column name, label or ``_fmt`` number holds a
    comma, quote or line break, so the bytes equal what ``csv.writer`` writes.
    """
    return "\r\n".join([",".join(header), *lines, ""])


def _ion_columns(n_ions: int) -> list[str]:
    return [f"a_{i + 1}" for i in range(n_ions)]


def _spectrum_csv(spectrum: SpectrumResult) -> str:
    """The spectrum as CSV text, one row per (drive frequency, ion), one f-string each."""
    rows = [
        f"{freq},{i},{amp:{FLOAT_FORMAT}},{phase:{FLOAT_FORMAT}}"
        for freq, amps, phases in zip(
            map(_fmt, (spectrum.drive_frequencies / TWO_PI).tolist()),
            (spectrum.amplitude * 1e6).tolist(),
            spectrum.phase.tolist(),
        )
        for i, amp, phase in zip(range(1, spectrum.n_ions + 1), amps, phases)
    ]
    return _csv_text(["omega_d_hz", "ion_index", "amplitude_um", "phase_rad"], rows)


# -- subcommands --------------------------------------------------------------

def cmd_equilibrium(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    u = chain_positions_dimensionless(config.n_ions)
    scale = config.length_scale
    log.info("solved %d-ion chain, length scale %.6g um", config.n_ions, scale * 1e6)
    lines = (f"{i + 1},{_fmt(ui)},{_fmt(ui * scale * 1e6)}" for i, ui in enumerate(u))
    _write_text(_csv_text(["ion_index", "u", "z0_um"], lines), args.out)
    return 0


def cmd_modes(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    table = compute_modes(config)
    lines = (
        ",".join([mode.direction, str(mode.index), _fmt(mode.eigenvalue),
                  _fmt(mode.frequency / TWO_PI), _fmt(mode.participation),
                  *map(_fmt, mode.vector)])
        for mode in table.modes
    )
    header = ["direction", "mode_index", "gamma", "frequency_hz", "PR",
              *_ion_columns(config.n_ions)]
    _write_text(_csv_text(header, lines), args.out)
    return 0


def cmd_sweep(args) -> int:
    data = load_config(args.config)
    config = trap_config(data)
    grid, linear_reference = sweep_settings(data)
    result = run_sweep(config, grid, direction=beam_axis(data))
    lines = (
        ",".join([_fmt(point.omega_z / TWO_PI), mode.label, _fmt(mode.frequency / TWO_PI),
                  *map(_fmt, mode.vector), _fmt(mode.participation),
                  _fmt(mode.linear_frequency / TWO_PI) if linear_reference else ""])
        for point in result.points
        for mode in point.modes
    )
    header = ["omega_z_hz", "mode_label", "frequency_hz", *_ion_columns(config.n_ions),
              "PR", "linear_reference_frequency_hz"]
    _write_text(_csv_text(header, lines), args.out)
    return 0


def _synthesize_cli(config: TrapConfig, data: Mapping) -> SpectrumResult:
    """The ``simulate`` spectrum; one all-direction mode table serves scan window and synthesis."""
    drive = drive_settings(data)
    beam = beam_spec(data, config, drive)
    table = compute_modes(config)
    freqs = table.frequencies(beam.direction)
    scan = DriveScan(
        drive_frequencies=np.linspace(
            0.9 * freqs.min(), 1.1 * freqs.max(), drive["scan_points"]
        ),
        **{field: drive[field] for field in
           ("damping_rate", "settle_cycles", "measure_cycles", "steps_per_period")
           if field in drive},
    )
    (spectrum,) = synthesize_spectra([table], [scan], [beam], drive["model"])
    if isinstance(spectrum, TapermodeError):
        raise spectrum
    return spectrum


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from exc
    if not cells:
        raise ConfigError(f"{path} contains no data rows")
    freqs = sorted({k[0] for k in cells})
    ions = sorted({k[1] for k in cells})
    if ions != list(range(1, len(ions) + 1)):
        raise ConfigError(f"{path}: ion_index values must be 1..N, got {ions}")
    missing = next(((f, ion) for f in freqs for ion in ions if (f, ion) not in cells), None)
    if missing:
        f, ion = missing
        raise ConfigError(f"{path}: missing row for omega_d_hz={f:g}, ion_index={ion}")
    table = np.array([[cells[(f, ion)] for ion in ions] for f in freqs])  # [F, N, 2]
    return SpectrumResult(
        drive_frequencies=TWO_PI * np.asarray(freqs),
        amplitude=table[..., 0] * 1e-6,
        phase=table[..., 1].copy(),
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

    ions = _ion_columns(config.n_ions)
    fits = (
        ",".join([_fmt(point.omega_z / TWO_PI), point.beam, str(j + 1),
                  _fmt(point.fitted_frequencies[j] / TWO_PI),
                  _fmt(point.fitted_hwhms[j] / TWO_PI),
                  *map(_fmt, point.fitted_components[:, j])])
        for point in report.points
        for j in range(point.fitted_frequencies.size)
    )
    _write_text(
        _csv_text(["omega_z_hz", "beam", "mode_index", "frequency_hz", "hwhm_hz", *ions], fits),
        str(out_dir / "fits.csv"),
    )
    theory = (
        ",".join([_fmt(point.omega_z / TWO_PI), str(j + 1),
                  _fmt(point.theory_frequencies[j] / TWO_PI),
                  *map(_fmt, point.theory_components[:, j])])
        for point in report.points
        for j in range(point.theory_frequencies.size)
    )
    _write_text(
        _csv_text(["omega_z_hz", "mode_index", "frequency_hz", *ions], theory),
        str(out_dir / "theory.csv"),
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
