"""Closed-loop sweep: synthesize spectra, refit, compare with predictions."""
import math
import re
import warnings

import numpy as np
import pytest

from tapermode import modes, pipeline
from tapermode.analysis import analyze_spectrum, fit_modal_sum
from tapermode.core import TWO_PI, TrapConfig
from tapermode.dynamics import (
    BeamSpec,
    DriveScan,
    beam_weights,
    linear_response_spectrum,
    synthesize_spectra,
)
from tapermode.equilibrium import equilibrium_positions
from scipy.optimize import linear_sum_assignment

from tapermode.errors import AnalysisError, ConfigError, SolverError
from tapermode.modes import compute_modes
from tapermode.sweep import assign_columns, run_sweep
from tapermode.pipeline import (
    DEFAULT_OMEGA_Z_GRID,
    SIGN_CHECK_THRESHOLD,
    ExperimentPlan,
    PointResult,
    ReproductionReport,
    run_experiment,
    scan_window,
    select_beam,
    _add_noise,
)

CONFIG = TrapConfig()

FAST_PLAN_KWARGS = dict(scan_points=800, spectrum_source="response")


class TestExperimentPlan:
    def test_default_grid(self):
        plan = ExperimentPlan()
        assert np.array_equal(plan.omega_z_values, DEFAULT_OMEGA_Z_GRID)
        assert plan.omega_z_values.size == 12
        assert plan.omega_z_values[0] == pytest.approx(TWO_PI * 47e3)
        assert plan.omega_z_values[-1] == pytest.approx(TWO_PI * 205e3)

    def test_grid_is_sorted_and_frozen(self):
        plan = ExperimentPlan(omega_z_values=TWO_PI * np.array([100e3, 47e3]))
        assert np.all(np.diff(plan.omega_z_values) > 0)
        with pytest.raises(ValueError):
            plan.omega_z_values[0] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(direction="z")
        with pytest.raises(ConfigError):
            ExperimentPlan(spectrum_source="verlet")
        with pytest.raises(ConfigError):
            ExperimentPlan(scan_points=8)
        with pytest.raises(ConfigError):
            ExperimentPlan(noise_fraction=-0.1)
        with pytest.raises(ConfigError):
            ExperimentPlan(damping_rate=0.0)
        with pytest.raises(ConfigError):
            ExperimentPlan(omega_z_values=np.array([0.0, 1e5]))
        with pytest.raises(ConfigError, match="^scan_points must be an integer, got 800.0$"):
            ExperimentPlan(scan_points=800.0)
        assert ExperimentPlan(scan_points=np.int64(800)).scan_points == 800
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="^noise_fraction must be finite and non-negative$"):
                ExperimentPlan(noise_fraction=bad)
            with pytest.raises(ConfigError,
                               match="^omega_z_values must contain positive finite frequencies$"):
                ExperimentPlan(omega_z_values=np.array([bad, 1e5]))
        for name in ("force_amplitude", "focused_damping_scale"):
            with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
                ExperimentPlan(**{name: np.inf})
        assert ExperimentPlan(beam_crossover=np.inf).beam_crossover == np.inf  # every point broad
        with pytest.raises(ConfigError, match=r"^omega_z_values must be a 1-D grid, got shape \(2, 2\)$"):
            ExperimentPlan(omega_z_values=np.full((2, 2), 1e5))
        assert ExperimentPlan(omega_z_values=1e5).omega_z_values.shape == (1,)  # a scalar is one point

    @pytest.mark.parametrize("field, value", [
        ("noise_fraction", "0.1"), ("force_amplitude", None), ("damping_rate", "1"),
        ("beam_crossover", None), ("beam_waist", "17e-6"), ("focused_damping_scale", True),
    ])
    def test_non_numbers_are_config_errors(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
            ExperimentPlan(**{field: value})

    def test_focused_damping_must_stay_finite(self):
        """The focused points' damping is the product of two finite values; when it
        overflows or underflows, the plan is rejected when it is built, not point by point."""
        def message(product):
            return "^" + re.escape("damping_rate * focused_damping_scale must be positive and "
                                   f"finite when a point is focused, got {product}") + "$"

        for grid_hz in ([100e3, 150e3, 160e3], [47e3, 135e3]):
            with pytest.raises(ConfigError, match=message("inf")):
                ExperimentPlan(omega_z_values=TWO_PI * np.array(grid_hz),
                               damping_rate=TWO_PI * 400.0, focused_damping_scale=1e308)
        with pytest.raises(ConfigError, match=message("0.0")):
            ExperimentPlan(damping_rate=1e-300, focused_damping_scale=1e-300)
        broad = ExperimentPlan(omega_z_values=TWO_PI * np.array([47e3, 134e3]),
                               damping_rate=TWO_PI * 400.0, focused_damping_scale=1e308)
        assert broad.focused_damping_scale == 1e308  # no point is focused

    @pytest.mark.parametrize("drive, message", [
        ({"settle_cycles": -1}, "need settle_cycles >= 0 and measure_cycles >= 1"),
        ({"measure_cycles": 0}, "need settle_cycles >= 0 and measure_cycles >= 1"),
        ({"steps_per_period": 0}, "steps_per_period must be a positive count or None"),
        ({"damping_rate": 0.0}, "damping_rate must be positive"),
    ])
    def test_drive_checks_are_drive_scans(self, drive, message):
        """Building a plan runs DriveScan's drive checks, with DriveScan's messages."""
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentPlan(**drive)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DriveScan(**{"drive_frequencies": [1.0], "damping_rate": 1.0, **drive})

    def test_mapping_uses_plain_units(self):
        plan = ExperimentPlan()
        mapping = plan.to_mapping()
        assert mapping["damping_hz"] == pytest.approx(400.0)
        assert mapping["beam_crossover_hz"] == pytest.approx(135e3)
        assert mapping["omega_z_hz"][0] == pytest.approx(47e3)
        assert mapping["spectrum_source"] == "response"


class TestSelectBeam:
    def test_crossover_switches_beam_kind(self):
        plan = ExperimentPlan()
        below = select_beam(CONFIG, plan, TWO_PI * 100e3)
        assert below.kind == "broad"
        at = select_beam(CONFIG, plan, plan.beam_crossover)
        assert at.kind == "focused"
        above = select_beam(CONFIG, plan, TWO_PI * 205e3)
        assert above.kind == "focused"
        assert above.waist_radius == plan.beam_waist

    def test_focused_beam_sits_on_the_middle_ion(self):
        config = CONFIG.replace(n_ions=4)
        plan = ExperimentPlan()
        omega_z = TWO_PI * 180e3
        beam = select_beam(config, plan, omega_z)
        z = equilibrium_positions(config.replace(omega_z=omega_z))[:, 2]
        assert beam.center_z == pytest.approx(z[1], rel=1e-12)
        assert beam.center_z < 0.0  # the middle of an even chain is off-centre


def loop_match_to_theory(fitted, theory):
    """The pipeline's own assignment loop from before it shared the sweep's core."""
    overlap = fitted.T @ theory
    rows, cols = linear_sum_assignment(-np.abs(overlap))
    order = np.empty(theory.shape[1], dtype=int)
    signs = np.empty(theory.shape[1])
    strengths = np.empty(theory.shape[1])
    for r, c in zip(rows, cols):
        order[c] = r
        s = np.sign(overlap[r, c])
        signs[c] = s if s != 0 else 1.0
        strengths[c] = abs(overlap[r, c])
    return order, signs, strengths


class TestMatchToTheory:
    @pytest.mark.parametrize("seed", range(8))
    def test_unchanged_on_permuted_noisy_frames(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        theory, _ = np.linalg.qr(rng.normal(size=(n, n)))
        perm = rng.permutation(n)
        flips = rng.choice([-1.0, 1.0], size=n)
        noise = 0.05 * rng.normal(size=(n, n))
        fitted, _ = np.linalg.qr(theory[:, perm] * flips + noise)
        order, signs, strengths = assign_columns(theory, fitted)
        ref_order, ref_signs, ref_strengths = loop_match_to_theory(fitted, theory)
        assert np.array_equal(order, ref_order)
        assert np.array_equal(signs, ref_signs)
        assert strengths == pytest.approx(ref_strengths, abs=1e-14)

    def test_recovers_permutation_and_signs(self):
        theory = compute_modes(CONFIG).matrix("x")
        perm = np.array([2, 0, 1])
        flips = np.array([-1.0, 1.0, -1.0])
        fitted = theory[:, perm] * flips
        order, signs, strengths = assign_columns(theory, fitted)
        assert np.allclose(fitted[:, order] * signs, theory, atol=1e-12)
        assert strengths == pytest.approx(np.ones(3), abs=1e-12)


def array_records():
    """One record of every frozen type that holds arrays, from fresh solves."""
    grid = TWO_PI * np.array([60e3, 120e3])
    table = compute_modes(CONFIG)
    sweep = run_sweep(CONFIG, grid)
    report = run_experiment(CONFIG, ExperimentPlan(omega_z_values=grid, **FAST_PLAN_KWARGS))
    point = report.points[0]
    fits = analyze_spectrum(point.spectrum, n_modes=3)
    return [
        table, sweep, sweep.points[0], sweep.points[0].modes[0],
        DriveScan(table.frequencies("x"), damping_rate=1.0), point.spectrum,
        report.plan, point, report, fits.modes, fits.vectors, fits,
    ]


def test_array_records_compare_by_identity():
    """A generated ``__eq__`` over ndarray fields raises instead of answering."""
    first, second = array_records(), array_records()
    assert [type(r).__name__ for r in first] == [
        "ModeTable", "SweepResult", "SweepPoint", "TrackedMode", "DriveScan",
        "SpectrumResult", "ExperimentPlan", "PointResult",
        "ReproductionReport", "ModalFit", "ModeVectorEstimate",
        "SpectrumAnalysis",
    ]
    for a, b in zip(first, second):
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestAxialComCheck:
    """A uniform z drive couples only to the axial centre-of-mass mode, whose frequency
    is the axial confinement exactly for any ion number and taper: an end-to-end
    calibration of the synthesis-plus-modal-fit loop."""

    @staticmethod
    def fitted_com(config):
        scan = DriveScan(scan_window(config.omega_z, 201), damping_rate=TWO_PI * 200.0)
        beam = BeamSpec(kind="broad", force_amplitude=1e-23, direction="z")
        spectrum = linear_response_spectrum(config, scan, beam)
        response = spectrum.amplitude * np.exp(1j * spectrum.phase)
        return fit_modal_sum(spectrum.drive_frequencies, response, 1).centers[0]

    @pytest.mark.parametrize("n_ions", [1, 3, 10])
    def test_matches_the_confinement_exactly(self, n_ions):
        fitted = self.fitted_com(CONFIG.replace(n_ions=n_ions))
        assert fitted == pytest.approx(CONFIG.omega_z, rel=1e-12, abs=0.0)

    def test_taper_does_not_shift_the_axial_com(self):
        straight = self.fitted_com(CONFIG.replace(funnel_length=math.inf))
        assert straight == pytest.approx(CONFIG.omega_z, rel=1e-12, abs=0.0)


class TestRunExperiment:
    def test_oversize_spectra_rejected_before_preparing(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_prepare_point", None)  # never reached
        plan = ExperimentPlan(omega_z_values=TWO_PI * np.array([47e3, 100e3]),
                              scan_points=1 << 27)
        with pytest.raises(ConfigError, match=r"\(2, 134217728, 3\) needs a 6 GiB array"):
            run_experiment(CONFIG, plan)

    def test_oversize_pair_arrays_rejected_before_preparing(self, monkeypatch):
        """800 scan points of 411 ions ask for 1 GiB of full-model pair separations
        in the two rows an x drive holds, x and z."""
        monkeypatch.setattr(pipeline, "_prepare_point", None)  # never reached
        plan = ExperimentPlan(spectrum_source="full")
        with pytest.raises(ConfigError, match="800 chains of 411 ions needs a 1 GiB array"):
            run_experiment(TrapConfig(n_ions=411), plan)

    def test_three_point_loop_report(self):
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 205e3]),
            **FAST_PLAN_KWARGS,
        )
        report = run_experiment(CONFIG, plan)
        summary = report.summary
        assert summary["n_points"] == 3
        assert summary["n_failed"] == 0
        assert summary["n_modes"] == 3
        assert summary["components_compared"] == 27
        assert summary["beams"] == {"broad": 2, "focused": 1}
        assert summary["max_frequency_error_hwhm"] < 0.5
        assert summary["max_component_error"] < 0.05
        assert summary["signs_all_match"] is True
        for point in report.points:
            assert point.failure is None
            assert point.spectrum is not None
            window = point.spectrum.drive_frequencies
            assert window[0] == pytest.approx(0.9 * point.theory_frequencies.min())
            assert window[-1] == pytest.approx(1.1 * point.theory_frequencies.max())
        broad = report.points[0]
        assert np.array_equal(broad.drive_weights, np.ones(3))
        focused = report.points[2]
        assert focused.drive_weights[1] == pytest.approx(1.0)
        # 13.8 um spacing at 205 kHz against the 17 um waist
        assert np.all(focused.drive_weights[[0, 2]] < 0.35)
        assert focused.drive_weights[0] == pytest.approx(focused.drive_weights[2])

    def test_fitted_spread_reproduces_the_low_end_reversal(self):
        """The fitted mode-frequency spread falls from 47 to 63 kHz in the
        tapered trap although it rises in the equivalent straight trap."""
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 63e3]),
            **FAST_PLAN_KWARGS,
        )
        report = run_experiment(CONFIG, plan)
        spreads = [
            float(p.fitted_frequencies.max() - p.fitted_frequencies.min())
            for p in report.points
        ]
        assert spreads[1] < spreads[0]
        for omega_z, fitted_spread in zip(plan.omega_z_values, spreads):
            table = compute_modes(CONFIG.replace(omega_z=omega_z))
            freqs = table.frequencies("x")
            assert fitted_spread == pytest.approx(freqs.max() - freqs.min(), rel=0.02)

        straight = CONFIG.replace(funnel_length=math.inf)
        straight_spreads = []
        for omega_z in plan.omega_z_values:
            freqs = compute_modes(straight.replace(omega_z=omega_z)).frequencies("x")
            straight_spreads.append(float(freqs.max() - freqs.min()))
        assert straight_spreads[1] > straight_spreads[0]

    def test_time_domain_point_agrees_with_theory(self):
        """One fully integrated measurement point closes the loop."""
        plan = ExperimentPlan(
            omega_z_values=np.array([TWO_PI * 47e3]),
            spectrum_source="linearized",
            damping_rate=TWO_PI * 4e3,
            scan_points=201,
            steps_per_period=128,
            settle_cycles=360,
            measure_cycles=40,
        )
        report = run_experiment(CONFIG, plan)
        summary = report.summary
        assert summary["n_failed"] == 0
        assert summary["max_frequency_error_hwhm"] < 0.5
        assert summary["max_component_error"] < 0.05
        assert summary["signs_all_match"] is True

    def test_low_end_default_point_needs_no_phase_rule(self):
        """At 47 kHz a phase difference to the loudest ion sits near pi/2.

        A sign read off a pi/2 phase threshold is ambiguous there; the
        residue signs are not, so the point fits cleanly and without warnings.
        """
        plan = ExperimentPlan(omega_z_values=DEFAULT_OMEGA_Z_GRID[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = run_experiment(CONFIG, plan).points[0]
        assert point.failure is None
        assert point.notes == ()
        assert np.all(point.sign_matches)
        assert np.max(point.component_errors) <= 0.01

    def test_noise_is_seed_deterministic(self):
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 205e3]),
            noise_fraction=1e-4,
            scan_points=200,
        )
        first = run_experiment(CONFIG, plan, seed=42)
        second = run_experiment(CONFIG, plan, seed=42)
        assert first.to_json_dict() == second.to_json_dict()
        other_seed = run_experiment(CONFIG, plan, seed=43)
        assert first.to_json_dict() != other_seed.to_json_dict()

    def test_single_bad_point_is_isolated(self):
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 1.6e6]),
            **FAST_PLAN_KWARGS,
        )
        report = run_experiment(CONFIG, plan)
        assert report.summary["n_failed"] == 1
        assert len(report.succeeded) == 2
        bad = report.points[-1]
        assert bad.failure is not None
        assert "configuration invalid" in bad.failure
        assert np.all(np.isnan(bad.fitted_frequencies))
        json_dict = report.to_json_dict()
        assert json_dict["points"][-1]["failure"] == bad.failure
        assert json_dict["points"][0]["failure"] is None

    def test_diverging_full_model_point_fails_alone(self):
        """A drive that a broad-beam point cannot hold, and its damped focused points can.

        At one ion the weakly confined broad point, with an eighth of the
        focused points' damping, is pushed past the funnel and diverges; the
        others refit.
        """
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 150e3, 205e3]), spectrum_source="full",
            force_amplitude=1.7e-17, scan_points=40, settle_cycles=100, measure_cycles=4,
            damping_rate=TWO_PI * 10e3, focused_damping_scale=8.0,
        )
        report = run_experiment(TrapConfig(n_ions=1), plan, seed=1)
        assert [p.beam for p in report.points] == ["broad", "focused", "focused"]
        assert report.points[0].failure.startswith("trajectory diverged after")
        assert report.points[0].spectrum is None
        assert [p.failure for p in report.points[1:]] == [None, None]

    def test_fit_error_becomes_the_point_failure(self, monkeypatch):
        calls = []

        def analyze(spectrum, n_modes):
            calls.append(spectrum)
            if len(calls) == 2:
                raise AnalysisError("fit did not converge")
            return analyze_spectrum(spectrum, n_modes)

        monkeypatch.setattr(pipeline, "analyze_spectrum", analyze)
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 205e3]), **FAST_PLAN_KWARGS
        )
        report = run_experiment(CONFIG, plan)
        assert [p.failure for p in report.points] == [None, "fit did not converge", None]
        assert np.all(np.isnan(report.points[1].fitted_frequencies))

    @pytest.mark.parametrize("seed", [1.5, "1", np.float64(2.0)])
    def test_seed_must_be_an_integer(self, seed):
        plan = ExperimentPlan(omega_z_values=TWO_PI * np.array([47e3]), **FAST_PLAN_KWARGS)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'noise seed must be an integer, got {seed!r}')}$"):
            run_experiment(CONFIG, plan, seed=seed)
        assert run_experiment(CONFIG, plan, seed=np.int64(1)).seed == 1

    def test_point_beyond_float_range_fails_alone(self):
        """At 1e-300 Hz the chain length unit is out of float range: that point
        fails with a ConfigError's reason, and the others run."""
        plan = ExperimentPlan(omega_z_values=TWO_PI * np.array([1e-300, 47e3, 100e3]),
                              **FAST_PLAN_KWARGS)
        report = run_experiment(CONFIG, plan)
        assert report.summary["n_failed"] == 1
        assert report.points[0].failure == (
            "configuration invalid: omega_z = 6.28319e-300 rad/s gives a radial frequency, "
            "beta or chain length unit that is zero or out of float range")

    def test_majority_failure_aborts(self):
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 1.5e6, 1.6e6]),
            **FAST_PLAN_KWARGS,
        )
        with pytest.raises(SolverError, match="sweep points failed"):
            run_experiment(CONFIG, plan)


def per_point_experiment(config, plan, seed):
    """The report of :func:`run_experiment`, one grid point after another.

    The loop from before the grid was batched: per point, the plan
    direction's modes, the beam, the drive window, a one-point
    ``synthesize_spectra`` call on its own all-direction mode solve, the
    seeded noise and the refit. Every point must succeed.
    """
    children = np.random.SeedSequence(seed).spawn(plan.omega_z_values.size)
    points = []
    for omega_z, child in zip(plan.omega_z_values, children):
        omega_z = float(omega_z)
        point_config = config.replace(omega_z=omega_z)
        table = compute_modes(point_config)
        theory_freqs = table.frequencies(plan.direction)
        theory_matrix = table.matrix(plan.direction)
        beam = select_beam(config, plan, omega_z)
        scan = DriveScan(
            np.linspace(0.9 * theory_freqs.min(), 1.1 * theory_freqs.max(), plan.scan_points),
            damping_rate=plan.damping_rate * (
                plan.focused_damping_scale if beam.kind == "focused" else 1.0
            ),
            settle_cycles=plan.settle_cycles,
            measure_cycles=plan.measure_cycles,
            steps_per_period=plan.steps_per_period,
        )
        (spectrum,) = synthesize_spectra(
            [compute_modes(point_config)], [scan], [beam], plan.spectrum_source
        )
        spectrum = _add_noise(spectrum, plan.noise_fraction, np.random.default_rng(child))
        result = analyze_spectrum(spectrum, n_modes=theory_freqs.size)
        order, signs, strengths = assign_columns(theory_matrix, result.vectors.components)
        fitted_freqs = result.modes.centers[order]
        fitted_matrix = result.vectors.components[:, order] * signs
        checked = np.abs(theory_matrix) > SIGN_CHECK_THRESHOLD
        sign_ok = (np.sign(fitted_matrix) == np.sign(theory_matrix)) | ~checked
        notes = list(result.vectors.ambiguity_notes) + [
            f"mode {j}: fitted/predicted overlap only {s:.3f}"
            for j, s in enumerate(strengths) if s < 0.8
        ]
        points.append(PointResult(
            omega_z=omega_z,
            beam=beam.kind,
            drive_weights=beam_weights(beam, equilibrium_positions(point_config)),
            theory_frequencies=theory_freqs,
            theory_components=theory_matrix,
            fitted_frequencies=fitted_freqs,
            fitted_hwhms=result.modes.hwhms[order],
            fitted_components=fitted_matrix,
            frequency_errors=np.abs(fitted_freqs - theory_freqs),
            component_errors=np.abs(fitted_matrix - theory_matrix),
            sign_matches=np.all(sign_ok, axis=0),
            spectrum=spectrum,
            notes=tuple(notes),
        ))
    return ReproductionReport(config=config, plan=plan, seed=seed, points=tuple(points))


class TestBatchedGrid:
    @pytest.mark.filterwarnings("ignore:settle window")
    @pytest.mark.parametrize("source, settings", [
        ("full", dict(damping_rate=TWO_PI * 4e3, scan_points=60, settle_cycles=40,
                      measure_cycles=8)),
        ("response", dict(scan_points=200)),
    ])
    def test_report_equals_the_per_point_loop(self, source, settings):
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 205e3]),
            spectrum_source=source,
            noise_fraction=1e-3,
            **settings,
        )
        batched = run_experiment(CONFIG, plan, seed=3)
        expected = per_point_experiment(CONFIG, plan, seed=3)
        assert batched.summary["n_failed"] == 0
        assert batched.to_json_dict() == expected.to_json_dict()
        for got, want in zip(batched.points, expected.points):
            assert np.array_equal(got.spectrum.amplitude, want.spectrum.amplitude)
            assert np.array_equal(got.spectrum.phase, want.spectrum.phase)

    def test_each_point_solves_its_modes_once(self, monkeypatch):
        calls = []

        def counted(config, *args, **kwargs):
            calls.append(config.omega_z)
            return modes.compute_modes(config, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_modes", counted)
        monkeypatch.setattr("tapermode.dynamics.compute_modes", counted)
        plan = ExperimentPlan(
            omega_z_values=TWO_PI * np.array([47e3, 100e3, 205e3]), **FAST_PLAN_KWARGS
        )
        run_experiment(CONFIG, plan)
        assert calls == list(plan.omega_z_values)
