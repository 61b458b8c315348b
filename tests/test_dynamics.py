"""Driven-chain integrator versus the closed-form linear response."""
import math

import numpy as np
import pytest

from tapermode.core import TWO_PI, TrapConfig, hessian
from tapermode.dynamics import (
    BeamSpec,
    DriveScan,
    beam_weights,
    linear_response_spectrum,
    ring_down,
    simulate_spectrum,
    total_energy,
    wrap_phase,
)
from tapermode.equilibrium import equilibrium_positions
from tapermode.errors import ConfigError, SimulationError, SolverError
from tapermode.modes import compute_modes

CONFIG = TrapConfig()
GAMMA = TWO_PI * 15e3
FORCE = 1e-23

# The amplitude envelope settles as exp(-Gamma t / 2), so ~140 drive cycles
# at this damping leaves a transient below 0.2 percent.
SETTLE, MEASURE, SPP = 140, 16, 128


@pytest.fixture(scope="module")
def scan():
    freqs = compute_modes(CONFIG, ("x",)).frequencies("x")
    grid = np.linspace(0.97 * freqs[0], 1.03 * freqs[-1], 7)
    return DriveScan(
        grid,
        damping_rate=GAMMA,
        settle_cycles=SETTLE,
        measure_cycles=MEASURE,
        steps_per_period=SPP,
    )


@pytest.fixture(scope="module")
def beam():
    return BeamSpec("broad", force_amplitude=FORCE, direction="x")


@pytest.fixture(scope="module")
def reference(scan, beam):
    return linear_response_spectrum(CONFIG, scan, beam)


@pytest.fixture(scope="module")
def linearized(scan, beam):
    return simulate_spectrum(CONFIG, scan, beam, model="linearized")


@pytest.fixture(scope="module")
def full(scan, beam):
    return simulate_spectrum(CONFIG, scan, beam, model="full")


class TestBeamWeights:
    def test_broad_beam_is_uniform(self):
        positions = equilibrium_positions(CONFIG)
        beam = BeamSpec("broad", 1e-23)
        assert np.array_equal(beam_weights(beam, positions), np.ones(3))

    def test_focused_beam_gaussian_profile(self):
        positions = equilibrium_positions(CONFIG)
        spacing = positions[2, 2] - positions[1, 2]
        beam = BeamSpec("focused", 1e-23, waist_radius=17e-6, center_z=0.0)
        weights = beam_weights(beam, positions)
        expected_outer = math.exp(-2.0 * (spacing / 17e-6) ** 2)
        assert weights[1] == pytest.approx(1.0)
        assert weights[0] == pytest.approx(expected_outer, rel=1e-9)
        assert weights[2] == pytest.approx(expected_outer, rel=1e-9)
        # 22.24 um spacing against a 17 um waist barely grazes the neighbours
        assert expected_outer == pytest.approx(0.0326, abs=2e-4)

    def test_tight_focus_selects_one_ion(self):
        positions = equilibrium_positions(CONFIG)
        beam = BeamSpec("focused", 1e-23, waist_radius=1e-7, center_z=positions[1, 2])
        weights = beam_weights(beam, positions)
        assert weights[1] == pytest.approx(1.0)
        assert max(weights[0], weights[2]) < 1e-12

    def test_beam_validation(self):
        with pytest.raises(ConfigError):
            BeamSpec("narrow", 1e-23)
        with pytest.raises(ConfigError):
            BeamSpec("focused", 1e-23)  # missing waist
        with pytest.raises(ConfigError):
            BeamSpec("focused", 1e-23, waist_radius=-1e-6)
        with pytest.raises(ConfigError):
            BeamSpec("broad", -1e-23)
        with pytest.raises(ConfigError):
            BeamSpec("broad", 1e-23, direction="q")
        with pytest.raises(ConfigError):
            BeamSpec("broad", 1e-23, center_z=math.nan)


class TestDriveScanValidation:
    def test_rejects_bad_frequencies(self):
        with pytest.raises(ConfigError):
            DriveScan(np.array([]), damping_rate=1.0)
        with pytest.raises(ConfigError):
            DriveScan(np.array([0.0, 1e6]), damping_rate=1.0)

    def test_rejects_bad_windows(self):
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=-1.0)
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=1.0, measure_cycles=0)
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=1.0, settle_cycles=-1)

    def test_step_controls_are_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            DriveScan(
                np.array([1e6]),
                damping_rate=1.0,
                integrator_step=1e-8,
                steps_per_period=96,
            )


class TestSingleIon:
    """One ion is an exactly solvable driven damped oscillator."""

    def closed_form(self, config, grid, gamma, force):
        omega0 = config.omega_x
        return (force / config.mass) / np.sqrt(
            (omega0**2 - grid**2) ** 2 + (gamma * grid) ** 2
        )

    def test_all_three_models_match_the_oscillator(self):
        config = CONFIG.replace(n_ions=1)
        omega0 = config.omega_x
        grid = omega0 * np.array([0.95, 0.99, 1.0, 1.01, 1.05])
        scan = DriveScan(
            grid,
            damping_rate=GAMMA,
            settle_cycles=SETTLE,
            measure_cycles=MEASURE,
            steps_per_period=SPP,
        )
        beam = BeamSpec("broad", FORCE)
        expected = self.closed_form(config, grid, GAMMA, FORCE)

        ref = linear_response_spectrum(config, scan, beam)
        assert ref.amplitude[:, 0] == pytest.approx(expected, rel=1e-12)
        assert ref.model == "response"
        assert ref.steps_per_period is None

        for model in ("linearized", "full"):
            sim = simulate_spectrum(config, scan, beam, model=model)
            assert sim.amplitude[:, 0] == pytest.approx(expected, rel=0.01)
            assert sim.model == model
            assert sim.steps_per_period == SPP

    def test_resonant_phase_is_quarter_cycle_lag(self):
        config = CONFIG.replace(n_ions=1)
        grid = np.array([config.omega_x])
        scan = DriveScan(
            grid,
            damping_rate=GAMMA,
            settle_cycles=SETTLE,
            measure_cycles=MEASURE,
            steps_per_period=SPP,
        )
        beam = BeamSpec("broad", FORCE)
        ref = linear_response_spectrum(config, scan, beam)
        assert ref.phase[0, 0] == pytest.approx(-math.pi / 2, abs=1e-9)
        sim = simulate_spectrum(config, scan, beam, model="full")
        assert sim.phase[0, 0] == pytest.approx(-math.pi / 2, abs=0.05)


class TestChainSpectra:
    def test_linearized_matches_response(self, reference, linearized):
        scale = float(np.max(reference.amplitude))
        assert np.max(np.abs(linearized.amplitude - reference.amplitude)) < 0.02 * scale
        strong = reference.amplitude > 0.05 * scale
        dphi = wrap_phase(linearized.phase - reference.phase)
        assert np.max(np.abs(dphi[strong])) < 0.05

    def test_full_matches_linearized_at_small_drive(self, linearized, full):
        scale = float(np.max(linearized.amplitude))
        assert np.max(np.abs(full.amplitude - linearized.amplitude)) < 0.01 * scale

    def test_phases_stay_wrapped(self, linearized, full, reference):
        for spectrum in (linearized, full, reference):
            assert np.all(spectrum.phase > -math.pi)
            assert np.all(spectrum.phase <= math.pi)

    def test_summed_amplitude_is_row_sum(self, reference):
        assert np.allclose(
            reference.summed_amplitude(), reference.amplitude.sum(axis=1)
        )

    def test_zero_force_gives_zero_spectrum(self, scan):
        quiet = BeamSpec("broad", 0.0)
        sim = simulate_spectrum(CONFIG, scan, quiet, model="linearized")
        assert np.all(sim.amplitude == 0.0)
        sim_full = simulate_spectrum(CONFIG, scan, quiet, model="full")
        assert np.max(sim_full.amplitude) < 1e-14

    @pytest.mark.parametrize("direction", ["x", "z"])
    @pytest.mark.parametrize("kind", ["broad", "focused"])
    def test_response_matches_dense_solve(self, direction, kind):
        """The modal sum equals a per-frequency solve with the full Hessian."""
        config = CONFIG.replace(n_ions=7)
        r0 = equilibrium_positions(config)
        a = "xyz".index(direction)
        stiffness = hessian(config, r0)[a::3, a::3] / config.mass
        omega = np.sqrt(np.linalg.eigvalsh(stiffness))
        grid = np.linspace(0.9 * omega[0], 1.1 * omega[-1], 101)
        scan = DriveScan(grid, damping_rate=GAMMA)
        beam = BeamSpec(kind, FORCE, direction=direction, waist_radius=17e-6,
                        center_z=float(r0[2, 2]))
        rhs = FORCE / config.mass * beam_weights(beam, r0)
        identity = np.eye(config.n_ions)
        expected = np.array([
            np.linalg.solve(stiffness - w**2 * identity + 1j * GAMMA * w * identity, rhs)
            for w in grid
        ])
        got = linear_response_spectrum(config, scan, beam)
        measured = got.amplitude * np.exp(1j * got.phase)
        assert np.max(np.abs(measured - expected)) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("direction", ["x", "z"])
    def test_response_past_zigzag_raises(self, direction):
        """Three ions with beta^2 > 5/12 have no stable on-axis steady state."""
        beta, omega_x0 = 0.7, TWO_PI * 1e6
        config = TrapConfig(
            omega_z=beta * omega_x0 / math.sqrt(1.0 + beta**2 / 2.0),
            omega_x0=omega_x0,
            omega_y0=omega_x0,
            funnel_length=math.inf,
        )
        assert config.beta("x") ** 2 > 5.0 / 12.0
        scan = DriveScan(np.linspace(0.5, 1.5, 11) * config.omega_x, damping_rate=GAMMA)
        with pytest.raises(SolverError, match="unstable"):
            linear_response_spectrum(config, scan, BeamSpec("broad", FORCE, direction=direction))

    def test_unknown_model_rejected(self, scan, beam):
        with pytest.raises(ConfigError, match="model"):
            simulate_spectrum(CONFIG, scan, beam, model="nonlinear")


class TestStepControl:
    def test_pinned_steps_too_coarse_for_fast_modes(self, beam):
        # driving far below the mode frequencies demands a larger per-period
        # step count than requested
        scan = DriveScan(
            np.array([0.1 * CONFIG.omega_x]),
            damping_rate=GAMMA,
            steps_per_period=96,
        )
        with pytest.raises(ConfigError, match="need at least"):
            simulate_spectrum(CONFIG, scan, beam, model="linearized")

    def test_integrator_step_too_coarse(self, beam):
        scan = DriveScan(
            np.array([CONFIG.omega_x]),
            damping_rate=GAMMA,
            integrator_step=1e-6,
        )
        with pytest.raises(ConfigError, match="use a step"):
            simulate_spectrum(CONFIG, scan, beam, model="linearized")

    def test_integrator_step_snaps_to_whole_periods(self, beam):
        omega = CONFIG.omega_x
        step = 2e-8
        scan = DriveScan(
            np.array([omega]),
            damping_rate=GAMMA,
            settle_cycles=0,
            measure_cycles=1,
            integrator_step=step,
        )
        with pytest.warns(UserWarning, match="settle window"):
            sim = simulate_spectrum(CONFIG, scan, beam, model="linearized")
        assert sim.steps_per_period == math.ceil(TWO_PI / (omega * step))

    def test_short_settle_warns(self, beam):
        scan = DriveScan(
            np.array([CONFIG.omega_x]),
            damping_rate=TWO_PI * 100.0,
            settle_cycles=1,
            measure_cycles=1,
        )
        with pytest.warns(UserWarning, match="damping times"):
            simulate_spectrum(CONFIG, scan, beam, model="linearized")

    def test_runaway_drive_raises(self):
        config = CONFIG.replace(n_ions=1)
        scan = DriveScan(
            np.array([config.omega_x]),
            damping_rate=1.0,
            settle_cycles=0,
            measure_cycles=400,
        )
        strong = BeamSpec("broad", 1e-15)
        with pytest.warns(UserWarning):
            with pytest.raises(SimulationError, match="diverged"):
                simulate_spectrum(config, scan, strong, model="linearized")


class TestRingDown:
    def test_energy_decays_to_equilibrium(self):
        displacement = np.zeros((3, 3))
        displacement[0, 0] = 1e-6
        duration = 10.0 / GAMMA
        result = ring_down(CONFIG, displacement, GAMMA, duration)
        energies = result.energies
        assert energies[0] > 0
        # continuous-time energy is non-increasing; allow integrator jitter
        assert np.all(np.diff(energies) <= 5e-3 * energies[:-1] + 1e-30)
        assert energies[-1] < 1e-3 * energies[0]
        r0 = equilibrium_positions(CONFIG)
        assert np.max(np.abs(result.positions[-1] - r0)) < 2e-8
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(duration, rel=0.01)

    def test_undamped_chain_conserves_energy(self):
        displacement = np.zeros((3, 3))
        displacement[0, 0] = 1e-8  # small enough to stay nearly harmonic
        period = TWO_PI / compute_modes(CONFIG).frequencies("x")[-1]
        result = ring_down(CONFIG, displacement, 0.0, 20 * period)
        # velocity Verlet has no secular energy drift; the residual is the
        # bounded shadow-energy wiggle, ~(omega dt)^2/8 of the total
        drift = np.abs(result.energies - result.energies[0])
        assert np.max(drift) < 1e-2 * result.energies[0]

    def test_total_energy_helper(self):
        r0 = equilibrium_positions(CONFIG)
        v = np.zeros_like(r0)
        v[0, 0] = 0.1
        kinetic = total_energy(CONFIG, r0, v) - total_energy(CONFIG, r0, 0 * v)
        assert kinetic == pytest.approx(0.5 * CONFIG.mass * 0.01, rel=1e-9)

    def test_validation(self):
        displacement = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            ring_down(CONFIG, displacement, -1.0, 1e-5)
        with pytest.raises(ConfigError):
            ring_down(CONFIG, displacement, GAMMA, 0.0)
        with pytest.raises(ConfigError):
            ring_down(CONFIG, displacement, GAMMA, 1e-5, integrator_step=1e-6)
        with pytest.raises(ConfigError):
            ring_down(CONFIG, np.zeros((2, 3)), GAMMA, 1e-5)


class TestWrapPhase:
    def test_interval_is_half_open(self):
        assert wrap_phase(-math.pi) == math.pi
        assert wrap_phase(math.pi) == math.pi
        assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_phase(0.1) == pytest.approx(0.1)
        assert isinstance(wrap_phase(0.1), float)

    def test_array_input(self):
        values = np.array([-math.pi, 0.0, math.pi, 2 * math.pi + 0.3])
        wrapped = wrap_phase(values)
        assert wrapped == pytest.approx([math.pi, 0.0, math.pi, 0.3])
