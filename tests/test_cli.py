"""Command-line interface: artifacts, config handling, exit codes."""
import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tapermode import cli, modes
from tapermode.core import TWO_PI, TrapConfig
from tapermode.dynamics import SpectrumResult
from tapermode.equilibrium import chain_positions_dimensionless
from tapermode.modes import compute_modes
from tapermode.pipeline import ExperimentPlan, run_experiment
from tapermode.sweep import run_sweep


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestEquilibriumCommand:
    def test_default_chain_to_stdout(self, capsys):
        assert cli.main(["equilibrium"]) == 0
        out = capsys.readouterr().out
        assert "\r\n" in out  # RFC-4180 line endings
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["ion_index", "u", "z0_um"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        u = [float(r[1]) for r in rows[1:]]
        assert u == pytest.approx([-1.077217345015942, 0.0, 1.077217345015942], abs=1e-9)
        z_um = [float(r[2]) for r in rows[1:]]
        assert z_um[2] == pytest.approx(22.238, abs=2e-3)

    def test_single_ion(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": {"n_ions": 1}})
        assert cli.main(["equilibrium", "--config", config]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 2
        assert rows[1] == ["1", "0", "0"]

    def test_file_output_matches_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "eq.csv"
        assert cli.main(["equilibrium", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert cli.main(["equilibrium"]) == 0
        assert out_path.read_bytes().decode("utf-8") == capsys.readouterr().out


class TestModesCommand:
    def test_table_layout(self, tmp_path):
        out_path = tmp_path / "modes.csv"
        assert cli.main(["modes", "--out", str(out_path)]) == 0
        rows = read_csv(str(out_path))
        assert rows[0] == [
            "direction", "mode_index", "gamma", "frequency_hz", "PR", "a_1", "a_2", "a_3",
        ]
        assert len(rows) == 1 + 9
        assert [r[0] for r in rows[1:]] == ["x"] * 3 + ["y"] * 3 + ["z"] * 3
        assert [r[1] for r in rows[1:4]] == ["1", "2", "3"]

    def test_straight_trap_closed_forms(self, tmp_path):
        config = write_config(tmp_path, {"trap": {"funnel_length_mm": None}})
        out_path = tmp_path / "modes.csv"
        assert cli.main(["modes", "--config", config, "--out", str(out_path)]) == 0
        rows = read_csv(str(out_path))
        trap = TrapConfig.from_mapping({"funnel_length_mm": None})
        beta = trap.beta("x")
        x_rows = [r for r in rows[1:] if r[0] == "x"]
        gammas = [float(r[2]) for r in x_rows]
        assert gammas == pytest.approx(
            [1.0 - 2.4 * beta**2, 1.0 - beta**2, 1.0], abs=1e-9
        )
        com = x_rows[2]
        assert float(com[3]) == pytest.approx(trap.omega_x / TWO_PI, rel=1e-9)
        assert [float(a) for a in com[5:8]] == pytest.approx([1 / math.sqrt(3)] * 3)
        z_com = [r for r in rows[1:] if r[0] == "z"][0]
        assert float(z_com[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(z_com[3]) == pytest.approx(100e3, rel=1e-9)

    def test_unstable_configuration_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": {"omega_z_hz": 700e3}})
        assert cli.main(["modes", "--config", config]) == 3
        assert "unstable" in capsys.readouterr().err


class TestSweepCommand:
    CONFIG = {
        "sweep": {"omega_z_min_hz": 47e3, "omega_z_max_hz": 100e3, "points": 3},
    }

    def test_labels_and_reference_column(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", config, "--out", str(out_path)]) == 0
        rows = read_csv(str(out_path))
        assert rows[0] == [
            "omega_z_hz", "mode_label", "frequency_hz",
            "a_1", "a_2", "a_3", "PR", "linear_reference_frequency_hz",
        ]
        assert len(rows) == 1 + 3 * 3
        assert {r[1] for r in rows[1:]} == {"zigzag", "rocking", "com"}
        assert rows[1][0] == "47000"
        assert all(float(r[7]) > 0 for r in rows[1:])

    def test_reference_column_can_be_disabled(self, tmp_path):
        data = {"sweep": dict(self.CONFIG["sweep"], linear_reference=False)}
        config = write_config(tmp_path, data)
        out_path = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", config, "--out", str(out_path)]) == 0
        rows = read_csv(str(out_path))
        assert all(r[7] == "" for r in rows[1:])

    def test_axial_beam_axis_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"beam": {"axis": "z"}})
        assert cli.main(["sweep", "--config", config]) == 2
        assert 'beam.axis must be "x" or "y"' in capsys.readouterr().err

    def test_thread_environment_is_ignored(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["sweep", "--config", config]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("TAPERMODE_THREADS", "many")
        assert cli.main(["sweep", "--config", config]) == 0
        assert capsys.readouterr().out == serial

    def test_thread_flag_is_accepted_and_ignored(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["sweep", "--config", config]) == 0
        serial = capsys.readouterr().out
        assert cli.main(["sweep", "--config", config, "--threads", "2"]) == 0
        assert capsys.readouterr().out == serial


def csv_writer_text(header, rows):
    """The row-by-row ``csv.writer`` rendering every CSV artifact was defined by."""
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(header)
    writer.writerows(rows)
    return reference.getvalue()


def csv_writer_spectrum_rows(spectrum):
    return csv_writer_text(
        ["omega_d_hz", "ion_index", "amplitude_um", "phase_rad"],
        (
            [cli._fmt(wd / TWO_PI), i + 1, cli._fmt(spectrum.amplitude[k, i] * 1e6),
             cli._fmt(spectrum.phase[k, i])]
            for k, wd in enumerate(spectrum.drive_frequencies)
            for i in range(spectrum.n_ions)
        ),
    )


def ion_columns(n_ions):
    return [f"a_{i + 1}" for i in range(n_ions)]


class TestTableArtifactsMatchTheCsvWriter:
    """``equilibrium``, ``modes`` and ``sweep`` write what ``csv.writer`` would."""

    TRAP = {"n_ions": 4, "omega_z_hz": 120e3}

    def run_command(self, tmp_path, command, data):
        config = write_config(tmp_path, data)
        out_path = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", config, "--out", str(out_path)]) == 0
        return out_path.read_bytes()

    def test_equilibrium(self, tmp_path):
        trap = TrapConfig.from_mapping(self.TRAP)
        u = chain_positions_dimensionless(trap.n_ions)
        expected = csv_writer_text(
            ["ion_index", "u", "z0_um"],
            ([i + 1, cli._fmt(v), cli._fmt(v * trap.length_scale * 1e6)]
             for i, v in enumerate(u)),
        )
        assert self.run_command(tmp_path, "equilibrium", {"trap": self.TRAP}) == expected.encode()

    def test_modes(self, tmp_path):
        trap = TrapConfig.from_mapping(self.TRAP)
        expected = csv_writer_text(
            ["direction", "mode_index", "gamma", "frequency_hz", "PR", *ion_columns(4)],
            ([m.direction, m.index, cli._fmt(m.eigenvalue), cli._fmt(m.frequency / TWO_PI),
              cli._fmt(m.participation), *(cli._fmt(a) for a in m.vector)]
             for m in compute_modes(trap).modes),
        )
        assert self.run_command(tmp_path, "modes", {"trap": self.TRAP}) == expected.encode()

    def test_sweep_without_linear_reference(self, tmp_path):
        """The disabled reference column is an empty cell in every row."""
        sweep = {"omega_z_min_hz": 47e3, "omega_z_max_hz": 205e3, "points": 5,
                 "linear_reference": False}
        data = {"trap": self.TRAP, "sweep": sweep, "beam": {"axis": "y"}}
        result = run_sweep(TrapConfig.from_mapping(self.TRAP),
                           TWO_PI * np.linspace(47e3, 205e3, 5), direction="y")
        expected = csv_writer_text(
            ["omega_z_hz", "mode_label", "frequency_hz", *ion_columns(4),
             "PR", "linear_reference_frequency_hz"],
            ([cli._fmt(point.omega_z / TWO_PI), m.label, cli._fmt(m.frequency / TWO_PI),
              *(cli._fmt(a) for a in m.vector), cli._fmt(m.participation), ""]
             for point in result.points for m in point.modes),
        )
        written = self.run_command(tmp_path, "sweep", data)
        assert b",\r\n" in written
        assert written == expected.encode()


@pytest.mark.parametrize("n_ions", [1, 3, 7])
def test_spectrum_csv_matches_the_csv_writer_loop(n_ions):
    rng = np.random.default_rng(n_ions)
    amplitude = 10.0 ** rng.uniform(-12.0, -5.0, (40, n_ions))
    amplitude[0, 0] = 0.0
    phase = rng.uniform(-math.pi, math.pi, (40, n_ions))
    phase[1, -1] = math.pi
    spectrum = SpectrumResult(
        drive_frequencies=TWO_PI * np.linspace(40e3, 2.1e6, 40),
        amplitude=amplitude, phase=phase, direction="x", damping_rate=1.0,
        model="response", steps_per_period=None, settle_cycles=0, measure_cycles=1,
    )
    assert cli._spectrum_csv(spectrum).encode() == csv_writer_spectrum_rows(spectrum).encode()


class TestSimulateAndFit:
    CONFIG = {
        "trap": {"omega_z_hz": 47e3},
        "drive": {"gamma_hz": 2000.0, "scan_points": 400, "model": "response"},
    }

    def test_round_trip_recovers_modes(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        spectrum_path = tmp_path / "spectrum.csv"
        fit_path = tmp_path / "fit.json"
        assert cli.main(["simulate", "--config", config, "--out", str(spectrum_path)]) == 0

        rows = read_csv(str(spectrum_path))
        assert rows[0] == ["omega_d_hz", "ion_index", "amplitude_um", "phase_rad"]
        assert len(rows) == 1 + 400 * 3

        assert cli.main([
            "fit", str(spectrum_path), "--config", config, "--out", str(fit_path),
        ]) == 0
        result = json.loads(fit_path.read_text(encoding="utf-8"))
        assert set(result) == {"lorentzians", "per_ion", "eigenvectors", "warnings"}

        trap = TrapConfig.from_mapping(self.CONFIG["trap"])
        table = compute_modes(trap, ("x",))
        theory_hz = table.frequencies("x") / TWO_PI
        centers = np.array(result["lorentzians"]["centers_hz"])
        hwhm_hz = 2000.0 / 2.0
        assert np.max(np.abs(centers - theory_hz)) < hwhm_hz / 2

        fitted = np.array(result["eigenvectors"]["components"])
        theory = table.matrix("x")
        assert np.max(np.abs(fitted - theory)) < 0.02
        # localized regime: each mode has a distinct loudest ion
        assert list(np.argmax(np.abs(fitted), axis=0)) == [0, 1, 2]

    def test_simulate_solves_the_modes_once(self, tmp_path, monkeypatch):
        """One all-direction table gives both the scan window and the spectrum."""
        calls = []

        def counted(config, *args, **kwargs):
            calls.append(config)
            return modes.compute_modes(config, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_modes", counted)
        monkeypatch.setattr("tapermode.dynamics.compute_modes", counted)
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 1

    def test_fit_carries_the_beam_axis(self, tmp_path, monkeypatch):
        data = {**self.CONFIG, "beam": {"axis": "y"}}
        config = write_config(tmp_path, data)
        spectrum_path = tmp_path / "spectrum.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(spectrum_path)]) == 0
        loaded, analyze_spectrum = [], cli.analyze_spectrum

        def analyze(spectrum, n_modes=None):
            loaded.append(spectrum)
            return analyze_spectrum(spectrum, n_modes)

        monkeypatch.setattr(cli, "analyze_spectrum", analyze)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(spectrum_path), "--config", config, "--out", str(out)]) == 0
        assert [s.direction for s in loaded] == ["y"]

    def test_fit_rejects_axial_beam_axis(self, tmp_path, capsys):
        spectrum_path = tmp_path / "spectrum.csv"
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["simulate", "--config", config, "--out", str(spectrum_path)]) == 0
        axial = write_config(tmp_path, {**self.CONFIG, "beam": {"axis": "z"}}, "axial.json")
        assert cli.main(["fit", str(spectrum_path), "--config", axial]) == 2
        assert 'beam.axis must be "x" or "y"' in capsys.readouterr().err

    def test_simulate_rejects_axial_beam_axis(self, tmp_path, capsys):
        """An axial spectrum is refused where it would be written, not only by fit."""
        spectrum_path = tmp_path / "spectrum.csv"
        axial = write_config(tmp_path, {**self.CONFIG, "beam": {"axis": "z"}})
        assert cli.main(["simulate", "--config", axial, "--out", str(spectrum_path)]) == 2
        assert 'beam.axis must be "x" or "y"' in capsys.readouterr().err
        assert not spectrum_path.exists()

    def test_flat_spectrum_exits_4(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega_d_hz", "ion_index", "amplitude_um", "phase_rad"])
            for k in range(16):
                writer.writerow([1000.0 + k, 1, 1.0, 0.0])
        assert cli.main(["fit", str(path)]) == 4
        assert "local maxima" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert cli.main(["fit", str(tmp_path / "absent.csv")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_spectrum_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text(
            "omega_d_hz,ion_index,amplitude_um,phase_rad\r\n"
            "1000,1,1,0\r\n1000,2,1,0\r\n1001,1,1,0\r\n", encoding="utf-8",
        )
        assert cli.main(["fit", str(path)]) == 2
        assert "missing row for omega_d_hz=1001, ion_index=2" in capsys.readouterr().err

    def test_bad_spectrum_columns_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,stuff\r\n1,2\r\n", encoding="utf-8")
        assert cli.main(["fit", str(path)]) == 2
        assert "columns" in capsys.readouterr().err


class TestPipelineCommand:
    CONFIG = {
        "sweep": {"omega_z_min_hz": 47e3, "omega_z_max_hz": 100e3, "points": 2},
        "drive": {"gamma_hz": 400.0, "scan_points": 240, "model": "response"},
        "pipeline": {"noise_fraction": 1e-4, "spectrum_source": "response"},
        "analysis": {"noise_seed": 5},
    }

    def run_pipeline(self, tmp_path, out_name, extra_args=()):
        config = write_config(tmp_path, self.CONFIG)
        out_dir = tmp_path / out_name
        rc = cli.main(
            ["pipeline", "--config", config, "--out", str(out_dir), *extra_args]
        )
        assert rc == 0
        return out_dir

    def test_artifacts_and_determinism(self, tmp_path):
        first = self.run_pipeline(tmp_path, "run1", ("--seed", "5"))
        second = self.run_pipeline(tmp_path, "run2", ("--seed", "5"))
        from_config_seed = self.run_pipeline(tmp_path, "run3")

        names = ["report.json", "fits.csv", "theory.csv",
                 "spectrum_000.csv", "spectrum_001.csv"]
        for name in names:
            blob = (first / name).read_bytes()
            assert blob == (second / name).read_bytes()
            # --seed and analysis.noise_seed are the same seed channel
            assert blob == (from_config_seed / name).read_bytes()

        report = json.loads((first / "report.json").read_text(encoding="utf-8"))
        assert report["seed"] == 5
        assert report["summary"]["n_points"] == 2
        assert report["summary"]["n_failed"] == 0
        fits = read_csv(str(first / "fits.csv"))
        assert fits[0] == [
            "omega_z_hz", "beam", "mode_index", "frequency_hz", "hwhm_hz",
            "a_1", "a_2", "a_3",
        ]
        assert len(fits) == 1 + 2 * 3
        assert {r[1] for r in fits[1:]} == {"broad"}
        theory = read_csv(str(first / "theory.csv"))
        assert len(theory) == 1 + 2 * 3

    def test_different_seed_changes_artifacts(self, tmp_path):
        first = self.run_pipeline(tmp_path, "a", ("--seed", "5"))
        other = self.run_pipeline(tmp_path, "b", ("--seed", "6"))
        assert (first / "report.json").read_bytes() != (other / "report.json").read_bytes()

    def test_failed_point_tables_match_the_csv_writer(self, tmp_path):
        """``fits.csv`` and ``theory.csv`` keep a failed point's NaN rows, as ``csv.writer`` would."""
        data = {
            "trap": {"n_ions": 4},
            "sweep": {"omega_z_min_hz": 60e3, "omega_z_max_hz": 1.6e6, "points": 2},
            "drive": {"scan_points": 240},
            "pipeline": {"spectrum_source": "response", "noise_fraction": 1e-4,
                         "beam_crossover_hz": 50e3},
        }
        config = write_config(tmp_path, data)
        out_dir = tmp_path / "run"
        assert cli.main(["pipeline", "--config", config, "--out", str(out_dir), "--seed", "4"]) == 0
        plan = cli.experiment_plan(data, cli.sweep_settings(data)[0], "x")
        report = run_experiment(cli.trap_config(data), plan, seed=4)
        assert report.summary["n_failed"] == 1
        points = report.points
        fits = csv_writer_text(
            ["omega_z_hz", "beam", "mode_index", "frequency_hz", "hwhm_hz", *ion_columns(4)],
            ([cli._fmt(p.omega_z / TWO_PI), p.beam, j + 1,
              cli._fmt(p.fitted_frequencies[j] / TWO_PI), cli._fmt(p.fitted_hwhms[j] / TWO_PI),
              *(cli._fmt(a) for a in p.fitted_components[:, j])]
             for p in points for j in range(p.fitted_frequencies.size)),
        )
        theory = csv_writer_text(
            ["omega_z_hz", "mode_index", "frequency_hz", *ion_columns(4)],
            ([cli._fmt(p.omega_z / TWO_PI), j + 1, cli._fmt(p.theory_frequencies[j] / TWO_PI),
              *(cli._fmt(a) for a in p.theory_components[:, j])]
             for p in points for j in range(p.theory_frequencies.size)),
        )
        assert b"nan" in (out_dir / "fits.csv").read_bytes()
        assert (out_dir / "fits.csv").read_bytes() == fits.encode()
        assert (out_dir / "theory.csv").read_bytes() == theory.encode()
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "fits.csv", "report.json", "spectrum_000.csv", "theory.csv",
        ]

    def test_requires_output_directory(self, capsys):
        assert cli.main(["pipeline"]) == 2
        assert "--out" in capsys.readouterr().err


class TestConfigErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["equilibrium", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["equilibrium", "--config", str(tmp_path / "none.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trapp": {}})
        assert cli.main(["equilibrium", "--config", config]) == 2
        assert "trapp" in capsys.readouterr().err

    def test_unknown_trap_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": {"typo_key": 3}})
        assert cli.main(["equilibrium", "--config", config]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_trap_values(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": {"omega_z_hz": 1.6e6}})
        assert cli.main(["modes", "--config", config]) == 2
        assert "configuration invalid" in capsys.readouterr().err

    def test_non_object_top_level(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert cli.main(["equilibrium", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_verbose_flag_accepted(self, capsys):
        assert cli.main(["equilibrium", "--verbose"]) == 0
        capsys.readouterr()


#: The type of every key, written out independently of ``cli.SCHEMA``.
SCHEMA_KEY_TYPES = {
    "trap": {
        "n_ions": "integer", "omega_z_hz": "number", "omega_x0_hz": "number",
        "omega_y0_hz": "number", "funnel_length_mm": "length", "ion_mass_amu": "number",
        "charge_multiple": "integer",
    },
    "sweep": {
        "omega_z_min_hz": "number", "omega_z_max_hz": "number", "points": "integer",
        "linear_reference": "boolean",
    },
    "drive": {
        "gamma_hz": "number", "force_amplitude_n": "number", "settle_cycles": "integer",
        "measure_cycles": "integer", "steps_per_period": "integer or null",
        "scan_points": "integer", "model": "choice",
    },
    "beam": {
        "kind": "choice", "waist_um": "number", "center_ion_index": "integer",
        "center_z_um": "number", "axis": "choice",
    },
    "analysis": {"n_peaks": "integer", "noise_seed": "integer or null"},
    "pipeline": {
        "beam_crossover_hz": "number", "spectrum_source": "choice",
        "noise_fraction": "number", "focused_damping_scale": "number",
    },
}
#: Values of the wrong JSON type for each kind of key.
WRONG_VALUES = {
    "integer": ["3", 2.5, 12.0, True, None, [1]],
    "integer or null": ["3", 2.5, True, [1]],
    "number": ["30", True, None, [1.0]],
    "length": ["1.81", "Infinity", True, [1.81]],
    "boolean": ["false", 1, None, [True]],
    "choice": ["bogus", 1, True, None, ["x"]],
}
WRONG_TYPE_CASES = [
    pytest.param(section, key, value, id=f"{section}.{key}={json.dumps(value)}")
    for section, keys in SCHEMA_KEY_TYPES.items()
    for key, kind in keys.items()
    for value in WRONG_VALUES[kind]
]


class TestConfigSchema:
    """Every config value is checked against its key's JSON type before any command runs."""

    def test_schema_covers_exactly_these_keys(self):
        assert {name: set(keys) for name, keys in cli.SCHEMA.items()} == {
            name: set(keys) for name, keys in SCHEMA_KEY_TYPES.items()
        }

    @pytest.mark.parametrize("section, key, value", WRONG_TYPE_CASES)
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        config = write_config(tmp_path, {section: {key: value}})
        runs = [
            [command, "--config", config]
            for command in ("equilibrium", "modes", "sweep", "simulate")
        ] + [
            ["fit", str(tmp_path / "absent.csv"), "--config", config],
            ["pipeline", "--config", config, "--out", str(tmp_path / "run")],
        ]
        for argv in runs:
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert f"error: {section}.{key} must be " in err
            assert f"got {json.dumps(value)}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [1.81, 2, None, "inf"])
    def test_funnel_length_takes_numbers_null_and_inf(self, tmp_path, value):
        config = write_config(tmp_path, {"trap": {"funnel_length_mm": value}})
        assert cli.main(["equilibrium", "--config", config, "--out", str(tmp_path / "e.csv")]) == 0

    def test_nulls_select_the_defaults(self, tmp_path):
        data = cli.load_config(write_config(
            tmp_path, {"drive": {"steps_per_period": None}, "analysis": {"noise_seed": None}}))
        assert cli.drive_settings(data)["steps_per_period"] is None
        assert cli.analysis_settings(data, 3)["noise_seed"] is None

    def test_non_object_section(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trap": [1]})
        assert cli.main(["equilibrium", "--config", config]) == 2
        assert "top-level.trap must be a JSON object, got [1]" in capsys.readouterr().err

    def test_zero_peaks_is_a_config_error(self, tmp_path, capsys):
        spectrum_path = tmp_path / "spectrum.csv"
        config = write_config(tmp_path, {"drive": {"model": "response"}})
        assert cli.main(["simulate", "--config", config, "--out", str(spectrum_path)]) == 0
        zero = write_config(tmp_path, {"analysis": {"n_peaks": 0}}, "zero.json")
        assert cli.main(["fit", str(spectrum_path), "--config", zero]) == 2
        assert "analysis.n_peaks must be at least 1, got 0" in capsys.readouterr().err


class TestCommandDefaults:
    """``simulate`` and ``pipeline`` differ in damping and scan points, and in nothing else."""

    GRID = TWO_PI * np.array([50e3, 60e3])

    def test_simulate_and_pipeline_defaults(self):
        drive = cli.drive_settings({})
        plan = cli.experiment_plan({}, self.GRID, "x")
        assert drive["damping_rate"] == TWO_PI * 1000.0
        assert drive["scan_points"] == 200
        assert drive["model"] == "full"
        assert plan.damping_rate == TWO_PI * 400.0
        assert plan.scan_points == 800
        assert (drive["force_amplitude"], drive["beam_waist"]) == (
            plan.force_amplitude, plan.beam_waist)
        assert cli.experiment_plan({}, self.GRID, "x").to_mapping() == ExperimentPlan(
            omega_z_values=self.GRID).to_mapping()

    def test_plan_keys_convert_to_si(self):
        data = {
            "drive": {"gamma_hz": 500, "force_amplitude_n": 2e-23, "settle_cycles": 40,
                      "measure_cycles": 12, "steps_per_period": 64, "scan_points": 300},
            "beam": {"waist_um": 20},
            "pipeline": {"beam_crossover_hz": 90e3, "spectrum_source": "linearized",
                         "noise_fraction": 0, "focused_damping_scale": 2},
        }
        plan = cli.experiment_plan(data, self.GRID, "y")
        assert plan.to_mapping() == ExperimentPlan(
            omega_z_values=self.GRID, direction="y", damping_rate=TWO_PI * 500.0,
            force_amplitude=2e-23, settle_cycles=40, measure_cycles=12, steps_per_period=64,
            scan_points=300, beam_waist=1e-6 * 20, beam_crossover=TWO_PI * 90e3,
            spectrum_source="linearized", noise_fraction=0.0, focused_damping_scale=2.0,
        ).to_mapping()


class TestUnreadableInput:
    """Input files that cannot be read as UTF-8 text are configuration errors, not crashes."""

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"trap": {"n_ions": 3}} é'.encode("latin-1"))
        assert cli.main(["equilibrium", "--config", str(path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert cli.main(["equilibrium", "--config", str(tmp_path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_spectrum_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            "omega_d_hz,ion_index,amplitude_um,phase_rad\r\n1000,1,1,0 é\r\n".encode("latin-1")
        )
        assert cli.main(["fit", str(path)]) == 2
        assert "cannot read input file" in capsys.readouterr().err

    def test_spectrum_is_a_directory(self, tmp_path, capsys):
        assert cli.main(["fit", str(tmp_path)]) == 2
        assert "cannot read input file" in capsys.readouterr().err


def test_readme_config_runs_every_command(tmp_path):
    """The README's "full set" config block is accepted by every command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config file\n.*?```json\n(.*?)```", readme, re.S)
    assert block is not None
    config = write_config(tmp_path, json.loads(block.group(1)))
    for command in ("equilibrium", "modes", "sweep"):
        assert cli.main([command, "--config", config, "--out", str(tmp_path / command)]) == 0
    spectrum = str(tmp_path / "spectrum.csv")
    with pytest.warns(UserWarning, match="settle window"):
        assert cli.main(["simulate", "--config", config, "--out", spectrum]) == 0
    assert cli.main(["fit", spectrum, "--config", config, "--out", str(tmp_path / "f.json")]) == 0
    assert cli.main(["pipeline", "--config", config, "--out", str(tmp_path / "run")]) == 0
