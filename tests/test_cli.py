"""Command-line interface: artifacts, config handling, exit codes."""
import csv
import io
import json
import math

import numpy as np
import pytest

from tapermode import cli
from tapermode.core import TWO_PI, TrapConfig
from tapermode.dynamics import SpectrumResult
from tapermode.modes import compute_modes


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
        assert "must be 'x' or 'y'" in capsys.readouterr().err

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


def csv_writer_spectrum_rows(writer, spectrum):
    """The row-by-row ``csv.writer`` loop the spectrum CSV format was defined by."""
    writer.writerow(["omega_d_hz", "ion_index", "amplitude_um", "phase_rad"])
    for k, wd in enumerate(spectrum.drive_frequencies):
        for i in range(spectrum.n_ions):
            writer.writerow([
                cli._fmt(wd / TWO_PI),
                i + 1,
                cli._fmt(spectrum.amplitude[k, i] * 1e6),
                cli._fmt(spectrum.phase[k, i]),
            ])


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
    reference = io.StringIO(newline="")
    csv_writer_spectrum_rows(csv.writer(reference), spectrum)
    assert cli._spectrum_csv(spectrum).encode() == reference.getvalue().encode()


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
        assert "must be 'x' or 'y'" in capsys.readouterr().err

    def test_simulate_rejects_axial_beam_axis(self, tmp_path, capsys):
        """An axial spectrum is refused where it would be written, not only by fit."""
        spectrum_path = tmp_path / "spectrum.csv"
        axial = write_config(tmp_path, {**self.CONFIG, "beam": {"axis": "z"}})
        assert cli.main(["simulate", "--config", axial, "--out", str(spectrum_path)]) == 2
        assert "beam axis must be 'x' or 'y'" in capsys.readouterr().err
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
