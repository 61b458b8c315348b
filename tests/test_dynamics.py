"""Driven-chain integrator versus the closed-form linear response."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tapermode import core, dynamics
from tapermode.core import (
    TWO_PI,
    TrapConfig,
    _acceleration_kernel,
    _squared_frequencies,
    hessian,
)
from tapermode.dynamics import (
    BLOWUP_LENGTH_UNITS,
    BeamSpec,
    DriveScan,
    beam_weights,
    linear_response_spectrum,
    simulate_spectrum,
    synthesize_spectra,
    wrap_phase,
)
from tapermode.equilibrium import equilibrium_positions
from tapermode.errors import ConfigError, SimulationError, SolverError
from tapermode.modes import compute_modes, coupling_matrix, reference_frequency
from test_core import dense_gradient

CONFIG = TrapConfig()
GAMMA = TWO_PI * 15e3
FORCE = 1e-23

# The amplitude envelope settles as exp(-Gamma t / 2), so ~140 drive cycles
# at this damping leaves a transient below 0.2 percent.
SETTLE, MEASURE, SPP = 140, 16, 128


@pytest.fixture(scope="module")
def scan():
    freqs = compute_modes(CONFIG).frequencies("x")
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
        with pytest.raises(ConfigError, match="^drive_frequencies must be finite$"):
            DriveScan(np.array([6e5, np.inf]), damping_rate=10.0)
        with pytest.raises(ConfigError, match="^drive_frequencies must be numbers: could not convert"):
            DriveScan(np.array(["a"]), damping_rate=1.0)

    def test_rejects_bad_windows(self):
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=-1.0)
        with pytest.raises(ConfigError, match="finite"):
            DriveScan(np.array([1e6]), damping_rate=math.inf)
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=1.0, measure_cycles=0)
        with pytest.raises(ConfigError):
            DriveScan(np.array([1e6]), damping_rate=1.0, settle_cycles=-1)

    @pytest.mark.parametrize("field, value", [
        ("settle_cycles", 2.5),
        ("settle_cycles", 3.0),
        ("settle_cycles", True),
        ("measure_cycles", 1.5),
        ("measure_cycles", np.float64(2.0)),
        ("steps_per_period", 96.5),
        ("steps_per_period", 96.0),
        ("steps_per_period", np.True_),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            DriveScan(np.array([1e6]), damping_rate=1.0, **{field: value})

    @pytest.mark.parametrize("kind, args, field", [
        (DriveScan, ([1e6], "1"), "damping_rate"),
        (DriveScan, ([1e6], None), "damping_rate"),
        (BeamSpec, ("broad", "1"), "force_amplitude"),
        (BeamSpec, ("broad", 1e-23, "x", None, None), "center_z"),
        (BeamSpec, ("focused", 1e-23, "x", "17e-6"), "waist_radius"),
    ])
    def test_non_numbers_are_config_errors(self, kind, args, field):
        with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
            kind(*args)

    def test_steps_per_period_over_the_array_budget(self):
        """The integrator's per-period tables are checked when the scan is built,
        not left to fail in ``np.arange``."""
        with pytest.raises(ConfigError, match=re.escape(
                f"steps_per_period = {10**30} needs a 2.98e+22 GiB array, over the 1 GiB")):
            DriveScan(np.array([1e6]), 1.0, steps_per_period=10**30)
        assert DriveScan(np.array([1e6]), 1.0, steps_per_period=2**20).steps_per_period == 2**20

    def test_accepts_numpy_integer_counts(self):
        scan = DriveScan(np.array([1e6]), damping_rate=1.0, settle_cycles=np.int64(3),
                         measure_cycles=np.int32(2), steps_per_period=np.int64(96))
        assert (scan.settle_cycles, scan.measure_cycles, scan.steps_per_period) == (3, 2, 96)


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

    @pytest.mark.parametrize("n_ions", [1, 3, 30])
    @pytest.mark.parametrize("funnel_length", [core.DEFAULT_FUNNEL_LENGTH, math.inf])
    @pytest.mark.parametrize("direction", ["x", "y", "z"])
    @pytest.mark.parametrize("kind", ["broad", "focused"])
    def test_response_equals_the_tabled_modal_sum(self, n_ions, funnel_length, direction, kind):
        """One direction's solve gives the spectrum of the three-direction table bit for bit."""
        config = TrapConfig(n_ions=n_ions, omega_z=TWO_PI * 47e3, funnel_length=funnel_length,
                            omega_y0=TWO_PI * 0.9e6)
        table = compute_modes(config)
        omega = table.frequencies(direction)
        scan = DriveScan(np.linspace(0.9 * omega[0], 1.1 * omega[-1], 301), damping_rate=GAMMA)
        beam = BeamSpec(kind, FORCE, direction=direction, waist_radius=17e-6,
                        center_z=float(equilibrium_positions(config)[0, 2]))
        got = linear_response_spectrum(config, scan, beam)
        (expected,) = synthesize_spectra([table], [scan], [beam], "response")
        for name in ("drive_frequencies", "amplitude", "phase"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert (got.direction, got.model, got.steps_per_period) == (direction, "response", None)

    @pytest.mark.parametrize("direction", ["x", "y", "z"])
    def test_response_names_the_first_unstable_direction(self, direction):
        """Every drive raises the error of the whole table: y is unstable here,
        also under an x or z drive, which solves y for its eigenvalues alone."""
        config = TrapConfig(n_ions=3, omega_y0=TWO_PI * 150e3)
        scan = DriveScan(np.linspace(0.9, 1.1, 11) * config.omega_x, damping_rate=GAMMA)
        message = ("direction 'y' has non-positive stiffness eigenvalue -0.37168: "
                   "the on-axis chain is unstable for this configuration")
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            compute_modes(config)
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            linear_response_spectrum(config, scan, BeamSpec("broad", FORCE, direction=direction))

    def test_unknown_model_rejected(self, scan, beam):
        with pytest.raises(ConfigError, match="model"):
            simulate_spectrum(CONFIG, scan, beam, model="nonlinear")


def reference_full_spectrum(config, scan, beam):
    """Complex amplitudes [M, N] of the full model, integrated the earlier way.

    An ion-major [M, N, 3] state, the dense pair-tensor gradient, and the
    split-damping Verlet loop with every component demodulated: the
    full-model path from before the component-major pair-list kernel.
    ``scan`` must pin ``steps_per_period``.
    """
    r0 = equilibrium_positions(config)
    axis = "xyz".index(beam.direction)
    spp, gamma = scan.steps_per_period, scan.damping_rate
    phases = TWO_PI * np.arange(spp) / spp
    drive = (beam.force_amplitude / config.mass * np.sin(phases))[:, None] * beam_weights(beam, r0)
    dt = (TWO_PI / scan.drive_frequencies / spp)[:, None, None]
    shape = (scan.drive_frequencies.size, config.n_ions, 3)
    x, v, accum = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=complex)

    def accel(x, k):
        a = dense_gradient(config, r0 + x) / -config.mass
        a[..., axis] += drive[k]
        return a

    force = accel(x, 0)
    for step in range(1, (scan.settle_cycles + scan.measure_cycles) * spp + 1):
        v_half = v + 0.5 * dt * (force - gamma * v)
        x += dt * v_half
        force = accel(x, step % spp)
        v = (v_half + 0.5 * dt * force) / (1.0 + 0.5 * gamma * dt)
        if step > scan.settle_cycles * spp:
            accum += x * np.exp(-1j * phases[step % spp])
    return accum[..., axis] * (2.0 / (scan.measure_cycles * spp))


@pytest.mark.filterwarnings("ignore:settle window")
class TestFullModelKernel:
    """The component-major full model against the earlier ion-major path."""

    @staticmethod
    def short_scan(config, direction, steps_per_period=96):
        freqs = compute_modes(config).frequencies(direction)
        grid = np.linspace(0.97 * freqs[0], 1.03 * freqs[-1], 5)
        return DriveScan(grid, damping_rate=GAMMA, settle_cycles=10, measure_cycles=4,
                         steps_per_period=steps_per_period)

    @pytest.mark.parametrize("n_ions, direction, kind, funnel_length", [
        (3, "x", "broad", CONFIG.funnel_length),
        (3, "y", "focused", CONFIG.funnel_length),
        (3, "x", "focused", math.inf),
        (7, "x", "focused", CONFIG.funnel_length),
        (7, "y", "broad", CONFIG.funnel_length),
        (7, "y", "broad", math.inf),
        (3, "z", "broad", CONFIG.funnel_length),
        (3, "z", "focused", math.inf),
        (5, "z", "focused", CONFIG.funnel_length),
    ])
    def test_matches_reference_path(self, n_ions, direction, kind, funnel_length):
        # distinct radial frequencies, so a drive on the wrong axis shows
        config = CONFIG.replace(
            n_ions=n_ions, funnel_length=funnel_length, omega_y0=1.2 * CONFIG.omega_x0
        )
        # a z drive pins 288 steps per period, over its axial modes' floor
        scan = self.short_scan(config, direction, 288 if direction == "z" else 96)
        beam = BeamSpec(kind, FORCE, direction=direction, waist_radius=17e-6)
        expected = reference_full_spectrum(config, scan, beam)
        got = simulate_spectrum(config, scan, beam, model="full")
        measured = got.amplitude * np.exp(1j * (got.phase - math.pi / 2))
        assert np.max(np.abs(measured - expected)) <= 1e-11 * np.max(np.abs(expected))

    @settings(max_examples=50, deadline=None)
    @given(
        n_ions=st.integers(1, 10),
        tapered=st.booleans(),
        direction=st.sampled_from(["x", "y", "z"]),
        omega_z_khz=st.floats(47.0, 205.0),
        data=st.data(),
    )
    def test_held_rows_are_the_three_row_kernel(self, n_ions, tapered, direction,
                                                 omega_z_khz, data):
        """With the idle rows zero, the kernel on the rows the full model holds gives
        the three-row kernel's rows bit for bit."""
        config = CONFIG.replace(
            n_ions=n_ions, omega_z=TWO_PI * omega_z_khz * 1e3, omega_y0=1.2 * CONFIG.omega_x0,
            funnel_length=CONFIG.funnel_length if tapered else math.inf,
        )
        rows = dynamics._held_rows("full", direction)
        shape = (3, 4, n_ions)
        x = np.zeros(shape)
        x[rows] = config.length_scale * data.draw(hnp.arrays(
            np.float64, (len(rows), *shape[1:]), elements=st.floats(-1e-2, 1e-2)))
        origin = equilibrium_positions(config).T[:, None, :]
        omega_sq = _squared_frequencies(config)
        every = _acceleration_kernel(config, origin, omega_sq, shape)(x, np.empty(shape))
        held_shape = (len(rows), *shape[1:])
        held = _acceleration_kernel(config, origin[rows], omega_sq[rows],
                                    held_shape)(x[rows], np.empty(held_shape))
        assert np.array_equal(held, every[rows])

    @pytest.mark.parametrize("n_ions", [1, 2, 5])
    @pytest.mark.parametrize("rows", [[0, 2], [0, 1, 2]])
    @pytest.mark.parametrize("tapered", [True, False])
    def test_results_never_alias_the_work_arrays(self, n_ions, rows, tapered):
        """A kernel writes each result into the caller's ``out``, as two fresh kernels
        would, leaves x as it was, and keeps no result in its own work arrays."""
        config = CONFIG.replace(
            n_ions=n_ions, funnel_length=CONFIG.funnel_length if tapered else math.inf
        )
        shape = (len(rows), 2, 3, n_ions)
        origin = equilibrium_positions(config).T[rows][:, None, None, :]
        omega_sq = _squared_frequencies(config)[rows]

        def kernel():
            return _acceleration_kernel(config, origin, omega_sq, shape)

        rng = np.random.default_rng(n_ions)
        first, second = (1e-3 * config.length_scale * rng.standard_normal(shape) for _ in range(2))
        inputs = first.copy(), second.copy()
        expected = kernel()(inputs[0], np.empty(shape)), kernel()(inputs[1], np.empty(shape))
        force = kernel()
        outs = np.empty(shape), np.empty(shape)
        # the same two arrays again after a switch: the kernel's views follow the caller's arrays
        for x, out, want in [(first, outs[0], expected[0]), (second, outs[1], expected[1]),
                             (first, outs[0], expected[0])]:
            assert force(x, out) is out
            assert np.array_equal(out, want)
        assert np.array_equal(first, inputs[0]) and np.array_equal(second, inputs[1])
        assert not np.shares_memory(outs[0], outs[1])
        work = [cell.cell_contents for cell in force.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert len(work) >= 8
        for out in outs:
            assert not any(np.shares_memory(out, array) for array in work)
        positions = equilibrium_positions(config)
        gradients = core.gradient(config, positions), core.gradient(config, positions)
        assert np.array_equal(*gradients)
        assert not np.shares_memory(*gradients)
        assert not np.shares_memory(gradients[0], positions)

    @pytest.mark.parametrize("model", ["linearized", "full"])
    def test_z_drive_floor_ignores_the_radial_modes(self, model):
        """A z drive integrates z alone, so the radial modes, about ten times
        faster than the axial ones, set no floor: it keeps the default steps."""
        config = CONFIG.replace(n_ions=3, omega_y0=1.2 * CONFIG.omega_x0)
        assert config.omega_z == TWO_PI * 100e3
        assert np.max(compute_modes(config).all_frequencies) > 5 * config.omega_z
        scan = self.short_scan(config, "z", None)
        beam = BeamSpec("broad", FORCE, direction="z")
        got = simulate_spectrum(config, scan, beam, model=model)
        assert got.steps_per_period == dynamics.DEFAULT_STEPS_PER_PERIOD == 96

    def test_single_ion_is_the_damped_oscillator(self):
        """One ion: the full model is the linearized oscillator, step for step.

        Its only nonlinearity is the taper's: the radial motion pushes the ion
        along z by about (wx / wz)^2 x^2 / L, which stiffens the radial trap
        by 2 z / L, about 4e-12 at this drive.
        """
        config = CONFIG.replace(n_ions=1)
        scan = self.short_scan(config, "x")
        beam = BeamSpec("broad", FORCE)
        oscillator = simulate_spectrum(config, scan, beam, model="linearized")
        full = simulate_spectrum(config, scan, beam, model="full")
        expected = oscillator.amplitude * np.exp(1j * oscillator.phase)
        measured = full.amplitude * np.exp(1j * full.phase)
        assert np.max(np.abs(measured - expected)) <= 1e-11 * np.max(np.abs(expected))


def per_point_spectrum(config, scan, beam, model):
    """Complex amplitudes Z [M, N] of one point, integrated on its own.

    The per-point ``simulate_spectrum`` from before grid points were batched:
    the scan points in lockstep on axis -2, every constant a scalar or an
    [M, N] array of this one point, the same folded damped-Verlet step on the
    displacement increment ``p``, and a :class:`SimulationError` at the first
    drive period that ends beyond the blow-up scale.
    """
    r0 = equilibrium_positions(config)
    table = compute_modes(config)
    omega_fast = max(
        float(np.max(table.all_frequencies[dynamics._held_rows(model, beam.direction)])),
        float(np.max(scan.drive_frequencies)),
    )
    spp = dynamics._steps_per_period(scan, omega_fast)
    wd = scan.drive_frequencies
    if model == "linearized":
        restoring = (
            -coupling_matrix(config, beam.direction)
            * reference_frequency(config, beam.direction) ** 2
        )
        shape, observed = (wd.size, config.n_ions), ...

        def force(x):
            return x @ restoring

    else:
        shape, observed = (3, wd.size, config.n_ions), "xyz".index(beam.direction)
        kernel = _acceleration_kernel(
            config, r0.T[:, None, :], _squared_frequencies(config), shape
        )

        def force(x):
            return kernel(x, np.empty(shape))
    phases = TWO_PI * np.arange(spp) / spp
    sin_tab, exp_tab = np.sin(phases), np.exp(-1j * phases)
    push = np.broadcast_to(
        beam.force_amplitude / config.mass * beam_weights(beam, r0), shape[-2:]
    )
    half_dt = np.broadcast_to(0.5 * ((TWO_PI / wd) / spp)[:, None], shape).copy()
    damping = scan.damping_rate * half_dt
    decay = (1.0 - damping) / (1.0 + damping)
    gain = 2.0 * half_dt**2 * (1.0 + decay)
    drive = gain[observed] * push

    x = np.zeros(shape)
    p = 2.0 * half_dt**2 * force(x)
    accum = np.zeros(shape[-2:], dtype=complex)
    for step in range(1, (scan.settle_cycles + scan.measure_cycles) * spp + 1):
        x += p
        a = force(x) * gain
        a[observed] += sin_tab[step % spp] * drive
        p = decay * p + a
        if step > scan.settle_cycles * spp:
            accum += x[observed] * exp_tab[step % spp]
        if step % spp == 0 and np.max(np.abs(x)) > BLOWUP_LENGTH_UNITS * config.length_scale:
            raise SimulationError(f"trajectory diverged after {step} steps")
    return accum * (2.0 / (scan.measure_cycles * spp))


def complex_amplitude(spectrum):
    """The demodulated Z of a time-domain spectrum (phase = arg Z + pi/2)."""
    return spectrum.amplitude * np.exp(1j * (spectrum.phase - math.pi / 2))


def grid_point(omega_z_khz, direction="x", kind="broad", damping=GAMMA, scan_points=3,
               n_ions=3, force=FORCE, trap=CONFIG, **scan_kwargs):
    """Mode table, drive scan and beam of one grid point with distinct ωx0, ωy0."""
    config = trap.replace(
        n_ions=n_ions, omega_z=TWO_PI * omega_z_khz * 1e3, omega_y0=1.2 * trap.omega_x0
    )
    table = compute_modes(config)
    freqs = table.frequencies(direction)
    scan = DriveScan(
        np.linspace(0.97 * freqs[0], 1.03 * freqs[-1], scan_points),
        damping_rate=damping,
        **{"settle_cycles": 3, "measure_cycles": 2, **scan_kwargs},
    )
    z = equilibrium_positions(config)[:, 2]
    beam = BeamSpec(kind, force, direction=direction, waist_radius=17e-6,
                    center_z=float(z[(n_ions - 1) // 2]))
    return table, scan, beam


@pytest.mark.filterwarnings("ignore:settle window")
class TestGridBatch:
    """All grid points in one lockstep against each point integrated alone."""

    @staticmethod
    def assert_matches_per_point(points, spectra, model):
        for (table, scan, beam), got in zip(points, spectra):
            expected = per_point_spectrum(table.config, scan, beam, model)
            measured = complex_amplitude(got)
            assert np.max(np.abs(measured - expected)) <= 1e-13 * np.max(np.abs(expected))

    @settings(max_examples=25, deadline=None)
    @given(
        n_ions=st.integers(1, 7),
        direction=st.sampled_from(["x", "y"]),
        model=st.sampled_from(["linearized", "full"]),
        scan_points=st.integers(1, 4),
        grid=st.lists(
            st.tuples(
                st.floats(47.0, 205.0),
                st.sampled_from(["broad", "focused"]),
                st.sampled_from([0.5, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_batch_matches_per_point_integration(
        self, n_ions, direction, model, scan_points, grid
    ):
        points = [
            grid_point(omega_z, direction, kind, scale * GAMMA, scan_points, n_ions)
            for omega_z, kind, scale in grid
        ]
        spectra = synthesize_spectra(*zip(*points), model)
        self.assert_matches_per_point(points, spectra, model)
        for got in spectra:
            assert got.model == model
            assert got.steps_per_period == dynamics.DEFAULT_STEPS_PER_PERIOD

    @pytest.mark.parametrize("model", ["linearized", "full"])
    def test_mixed_steps_per_period(self, model):
        """Pinned step counts and driven axes: one lockstep per distinct pair, in one call."""
        points = [
            grid_point(47, steps_per_period=96),
            grid_point(205, kind="focused", steps_per_period=128),
            grid_point(120, damping=2 * GAMMA, steps_per_period=192),
            grid_point(150, "y", kind="focused", steps_per_period=128),
            grid_point(90, "y", steps_per_period=128),
            grid_point(100, "z", steps_per_period=288),
            grid_point(180, "z", kind="focused", steps_per_period=288),
        ]
        spectra = synthesize_spectra(*zip(*points), model)
        assert [s.steps_per_period for s in spectra] == [96, 128, 192, 128, 128, 288, 288]
        assert [s.direction for s in spectra] == list("xxxyyzz")
        self.assert_matches_per_point(points, spectra, model)
        for (table, scan, beam), got in zip(points, spectra):
            solo = simulate_spectrum(table.config, scan, beam, model)
            assert np.array_equal(got.amplitude, solo.amplitude)
            assert np.array_equal(got.phase, solo.phase)

    @pytest.mark.parametrize("model", ["linearized", "full"])
    def test_diverging_point_fails_alone(self, model):
        """A resonant drive with almost no damping grows past the blow-up scale.

        A straight trap keeps the one-ion full model linear, so the runaway
        grows steadily, like the linearized one, instead of overflowing.
        """
        straight = CONFIG.replace(funnel_length=math.inf)
        kwargs = dict(n_ions=1, trap=straight, settle_cycles=20, measure_cycles=20)
        points = [
            grid_point(47, **kwargs),
            grid_point(100, damping=1.0, force=1e-15, **kwargs),
            grid_point(205, kind="focused", **kwargs),
        ]
        spectra = synthesize_spectra(*zip(*points), model)
        assert isinstance(spectra[1], SimulationError)
        assert "diverged after" in str(spectra[1])
        for i in (0, 2):
            solo = simulate_spectrum(points[i][0].config, points[i][1], points[i][2], model)
            assert np.array_equal(spectra[i].amplitude, solo.amplitude)
            assert np.array_equal(spectra[i].phase, solo.phase)

    def test_diverging_tapered_point_fails_alone(self):
        """In the funnel a hard drive turns the radial confinement negative.

        The one-ion state then overflows within one drive period, before the
        once-per-period check zeroes it. That fails only its own point,
        without a floating-point warning.
        """
        kwargs = dict(n_ions=1, settle_cycles=20, measure_cycles=20)
        points = [
            grid_point(47, **kwargs),
            grid_point(100, damping=1.0, force=1e-13, **kwargs),
            grid_point(205, kind="focused", **kwargs),
        ]
        spectra = synthesize_spectra(*zip(*points), "full")
        assert isinstance(spectra[1], SimulationError)
        assert "diverged after" in str(spectra[1])
        for i in (0, 2):
            solo = simulate_spectrum(points[i][0].config, points[i][1], points[i][2], "full")
            assert np.array_equal(spectra[i].amplitude, solo.amplitude)
            assert np.array_equal(spectra[i].phase, solo.phase)

    def test_oversize_full_point_fails_alone(self, monkeypatch):
        """Full-model pair arrays over the budget fail their point, before allocating."""
        points = [grid_point(47), grid_point(100, scan_points=40), grid_point(205)]
        # room for 3 rows x 2 points x 3 scan points x 3 pairs; the x-driven
        # lockstep holds 2 rows (x, z), and the 40-point one alone needs 2 x 40 x 3
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 8 * 3 * 2 * 3 * 3)
        spectra = synthesize_spectra(*zip(*points), "full")
        assert isinstance(spectra[1], ConfigError)
        assert "pair separations of 40 chains of 3 ions" in str(spectra[1])
        for i in (0, 2):
            solo = simulate_spectrum(points[i][0].config, points[i][1], points[i][2], "full")
            assert np.array_equal(spectra[i].amplitude, solo.amplitude)
        # the linearized model has no pair arrays
        assert not isinstance(synthesize_spectra(*zip(*points), "linearized")[1], ConfigError)

    def test_pair_budget_counts_the_held_rows(self, monkeypatch):
        """An x-driven full-model point holds x and z: two rows of pair separations, not three."""
        point = grid_point(47)
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 8 * 2 * 3 * 3)  # 2 rows x 3 scan points x 3 pairs
        (spectrum,) = synthesize_spectra(*zip(point), "full")
        solo = simulate_spectrum(point[0].config, point[1], point[2], "full")
        assert np.array_equal(spectrum.amplitude, solo.amplitude)
        monkeypatch.setattr(core, "MAX_ARRAY_BYTES", 8 * 2 * 3 * 3 - 1)
        (spectrum,) = synthesize_spectra(*zip(point), "full")
        assert isinstance(spectrum, ConfigError)
        assert "pair separations of 3 chains of 3 ions" in str(spectrum)

    def test_chunked_batch_equals_one_lockstep(self, monkeypatch):
        points = [grid_point(omega_z, kind=kind) for omega_z, kind in
                  [(47, "broad"), (100, "focused"), (150, "broad"), (205, "focused")]]
        chunks = []
        integrate = dynamics._integrate

        def counted(tables, *args):
            chunks.append(len(tables))
            return integrate(tables, *args)

        monkeypatch.setattr(dynamics, "_integrate", counted)
        whole = synthesize_spectra(*zip(*points), "full")
        # two points of 2 rows (x, z) x 3 scan points x 3 pairs
        monkeypatch.setattr(dynamics, "_LOCKSTEP_BLOCK_ELEMENTS", 2 * 2 * 3 * 3)
        chunked = synthesize_spectra(*zip(*points), "full")
        assert chunks == [4, 2, 2]
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.amplitude, b.amplitude)
            assert np.array_equal(a.phase, b.phase)

    def test_short_settle_point_warns(self):
        points = [
            grid_point(47, settle_cycles=200),
            grid_point(205, damping=TWO_PI * 100.0, settle_cycles=1, measure_cycles=1),
        ]
        with pytest.warns(UserWarning, match="damping times"):
            spectra = synthesize_spectra(*zip(*points), "linearized")
        assert all(s.model == "linearized" for s in spectra)

    def test_response_source_is_the_modal_sum(self):
        points = [grid_point(47), grid_point(205, direction="y", kind="focused")]
        for (table, scan, beam), got in zip(points, synthesize_spectra(*zip(*points), "response")):
            expected = linear_response_spectrum(table.config, scan, beam)
            assert np.array_equal(got.amplitude, expected.amplitude)
            assert np.array_equal(got.phase, expected.phase)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError, match="spectrum source"):
            synthesize_spectra(*zip(grid_point(47)), "verlet")


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

    def test_an_infinite_resolution_floor_is_a_config_error(self):
        """A drive far below the modes: 20 steps per fastest period overflow to an
        infinite count, which fails as a typed error, not an ``OverflowError``."""
        scan = DriveScan(np.array([1e-310, 1.0]), 1.0, 1, 1)
        with pytest.raises(ConfigError, match=r"^a resolution floor of inf steps per period "
                                              r"\(.*\) needs a inf GiB array, over the 1 GiB budget$"):
            simulate_spectrum(TrapConfig(), scan, BeamSpec("broad", 1e-23), "linearized")

    @pytest.mark.filterwarnings("ignore:settle window")
    def test_a_floor_over_the_array_budget_fails_its_point_alone(self):
        """A finite floor above the default is checked against the array budget
        before its per-period tables are made; the other points still run."""
        points = [grid_point(47), grid_point(100), grid_point(205)]
        far = (points[1][0], DriveScan(np.array([1.0, 2.0]), GAMMA, 3, 2), points[1][2])
        spectra = synthesize_spectra(*zip(points[0], far, points[2]), "linearized")
        floor = 20.0 * points[1][0].frequencies("x")[-1]
        assert isinstance(spectra[1], ConfigError)
        assert re.fullmatch(re.escape(f"a resolution floor of {floor:.4g} steps per period ")
                            + r"\(.*\) needs a 3\.\d+ GiB array, over the 1 GiB budget",
                            str(spectra[1]))
        for i in (0, 2):
            solo = simulate_spectrum(points[i][0].config, points[i][1], points[i][2], "linearized")
            assert np.array_equal(spectra[i].amplitude, solo.amplitude)

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


def allocating_kernel(config, origin, omega_sq, shape):
    """``core._acceleration_kernel`` as written before it reused its buffers: the
    same arithmetic in the same order, with a new array for every intermediate
    and a new result per call."""
    n, held, rows = config.n_ions, shape[0], math.prod(shape[:-1])
    first, second = np.triu_indices(n, 1)
    incidence = np.zeros((n, first.size))
    incidence[first, np.arange(first.size)] = 1.0
    incidence[second, np.arange(first.size)] = -1.0
    scatter = (config.coulomb_coupling / config.mass) * np.ascontiguousarray(incidence.T)
    r0 = np.broadcast_to(origin, shape).copy()
    d0 = np.dot(r0.reshape(rows, n), incidence)
    omega_sq = np.asarray(omega_sq, dtype=float)
    omega_sq = omega_sq.reshape(omega_sq.shape + (1,) * (len(shape) - omega_sq.ndim))
    stiffness = np.broadcast_to(omega_sq, shape).copy()
    inv_l = 1.0 / config.funnel_length
    taper = stiffness[:-1] * inv_l
    cross = 2.0 * taper
    if held == 2:
        taper = np.concatenate([cross, taper])

    def accel(x):
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
        if not inv_l or held == 1:
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


def allocating_lockstep(force, shape, push, dt, gamma, blowup, spp, settle_cycles,
                        measure_cycles):
    """``dynamics._lockstep_verlet`` as written before it reused its buffers: every
    step makes a new acceleration, drive kick and increment, with the once-per-period
    divergence reset. ``force(x)`` returns a new array."""
    phases = TWO_PI * np.arange(spp) / spp
    sin_tab, exp_tab = np.sin(phases), np.exp(-1j * phases)
    n_points = shape[-3]
    half_dt = np.broadcast_to(0.5 * dt[:, :, None], shape).copy()
    damping = gamma[:, None, None] * half_dt
    decay = (1.0 - damping) / (1.0 + damping)
    gain = 2.0 * half_dt**2 * (1.0 + decay)
    drive = gain[0] * push[:, None, :]
    diverged = np.zeros(n_points, dtype=int)
    x = np.zeros(shape)
    p = 2.0 * half_dt**2 * force(x)
    accum = np.zeros(shape[-3:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, (settle_cycles + measure_cycles) * spp + 1):
            x += p
            k = step % spp
            if k == 0:
                peak = np.abs(x).reshape(-1, n_points, shape[-2] * shape[-1]).max(axis=(0, 2))
                fresh = ~(peak <= blowup) & (diverged == 0)
                diverged[fresh] = step
                if np.all(diverged):
                    break
                x[..., fresh, :, :] = 0.0
                p[..., fresh, :, :] = 0.0
                drive[fresh] = 0.0
            a = force(x) * gain
            a[0] += sin_tab[k] * drive
            p = decay * p + a
            if step > settle_cycles * spp:
                accum += x[0] * exp_tab[k]
    return accum * (2.0 / (measure_cycles * spp)), diverged


class TestInPlaceLockstep:
    """The in-place lockstep and force kernel against their allocating forms, bit for bit."""

    SPP, SETTLE, MEASURE = 32, 3, 2

    @classmethod
    def lockstep(cls, model, rows, n_ions, tapered, diverging):
        """The in-place and the allocating force of a three-point lockstep on ``rows``,
        and the lockstep's arguments after the force. The points in ``diverging`` are
        driven far past the blow-up scale within their first drive period."""
        configs = [
            CONFIG.replace(n_ions=n_ions, omega_z=TWO_PI * khz * 1e3,
                           omega_y0=1.2 * CONFIG.omega_x0,
                           funnel_length=CONFIG.funnel_length if tapered else math.inf)
            for khz in (47.0, 120.0, 205.0)
        ]
        direction = "xyz"[rows[0]]
        origins = [equilibrium_positions(c) for c in configs]
        wd = np.stack([np.linspace(0.97, 1.03, 3) * compute_modes(c).frequencies(direction)[0]
                       for c in configs])
        shape = (len(rows), len(configs), wd.shape[1], n_ions)
        if model == "linearized":
            restoring = np.stack([
                -coupling_matrix(c, direction) * reference_frequency(c, direction) ** 2
                for c in configs
            ])

            def in_place(x, out):
                return np.matmul(x, restoring, out=out)

            def allocating(x):
                return x @ restoring
        else:
            origin = np.stack([r0.T[rows] for r0 in origins], axis=1)[:, :, None, :]
            omega_sq = np.stack([_squared_frequencies(c)[rows] for c in configs], axis=1)
            in_place = _acceleration_kernel(configs[0], origin, omega_sq, shape)
            allocating = allocating_kernel(configs[0], origin, omega_sq, shape)
        beam = BeamSpec("focused", FORCE, direction, waist_radius=17e-6)
        push = np.stack([FORCE / c.mass * beam_weights(beam, r0)
                         for c, r0 in zip(configs, origins)])
        blowup = np.array([BLOWUP_LENGTH_UNITS * c.length_scale for c in configs])
        dt = (TWO_PI / wd) / cls.SPP
        for p in diverging:
            push[p] = 1e6 * blowup[p] / dt[p, 0] ** 2
        gamma = np.array([GAMMA, 2.0 * GAMMA, 0.5 * GAMMA])
        return in_place, allocating, (shape, push, dt, gamma, blowup,
                                      cls.SPP, cls.SETTLE, cls.MEASURE)

    @pytest.mark.parametrize("model, rows", [
        ("linearized", [0]), ("linearized", [1]), ("linearized", [2]),
        ("full", [2]), ("full", [0, 2]), ("full", [1, 2]), ("full", [0, 1, 2]),
    ])
    @pytest.mark.parametrize("n_ions", [1, 2, 5])
    @pytest.mark.parametrize("tapered", [True, False])
    def test_bits_equal_the_allocating_step(self, model, rows, n_ions, tapered):
        in_place, allocating, args = self.lockstep(model, rows, n_ions, tapered, [1])
        z, diverged = dynamics._lockstep_verlet(in_place, *args)
        expected, expected_diverged = allocating_lockstep(allocating, *args)
        assert np.array_equal(diverged, expected_diverged)
        assert list(diverged) == [0, self.SPP, 0]
        assert np.array_equal(z, expected)
        assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("model, rows", [("linearized", [0]), ("full", [0, 2])])
    def test_every_point_diverging_ends_the_run(self, model, rows):
        in_place, allocating, args = self.lockstep(model, rows, 3, True, [0, 1, 2])
        z, diverged = dynamics._lockstep_verlet(in_place, *args)
        expected, expected_diverged = allocating_lockstep(allocating, *args)
        assert list(diverged) == list(expected_diverged) == [self.SPP] * 3
        assert np.array_equal(z, expected)


class TestModeRingDown:
    """A chain released at rest along one x mode, stepped by the lockstep loop.

    The force kernel's origin is the displaced start r0 + A b_k, so the loop
    starts there at rest, with no drive. Demodulated at the mode frequency over
    whole periods, the constant offset -A b_k cancels exactly and |Z| is the
    mode's amplitude A |b_k|: constant without damping, and times the mean of
    exp(-Gamma t / 2) over the measure window with it.
    """

    AMPLITUDE = 1e-8  # m, small enough to stay nearly harmonic
    SETTLE, MEASURE, SPP = 4, 16, 96

    def ring_down(self, mode, gamma):
        """|Z| [N] of the released chain, its mode amplitude A |b_k| [N] and the
        times [s] of the measure window."""
        table = compute_modes(CONFIG)
        vector, omega = table.matrix("x")[:, mode], table.frequencies("x")[mode]
        rows = dynamics._held_rows("full", "x")
        origin = equilibrium_positions(CONFIG).T[rows]
        origin[0] += self.AMPLITUDE * vector
        shape = (len(rows), 1, 1, CONFIG.n_ions)
        force = _acceleration_kernel(CONFIG, origin[:, None, None, :],
                                     _squared_frequencies(CONFIG)[rows][:, None], shape)
        dt = TWO_PI / omega / self.SPP
        z, diverged = dynamics._lockstep_verlet(
            force, shape, np.zeros((1, CONFIG.n_ions)), np.array([[dt]]),
            np.array([gamma]), np.array([BLOWUP_LENGTH_UNITS * CONFIG.length_scale]),
            self.SPP, self.SETTLE, self.MEASURE,
        )
        assert not diverged.any()
        steps = np.arange(self.SETTLE * self.SPP, (self.SETTLE + self.MEASURE) * self.SPP) + 1
        return np.abs(z[0, 0]), self.AMPLITUDE * np.abs(vector), dt * steps

    @pytest.mark.parametrize("mode", [0, CONFIG.n_ions - 1])
    def test_undamped_mode_keeps_its_amplitude(self, mode):
        measured, expected, _ = self.ring_down(mode, 0.0)
        assert np.max(np.abs(measured - expected)) <= 5e-3 * np.max(expected)

    @pytest.mark.parametrize("mode", [0, CONFIG.n_ions - 1])
    def test_damped_mode_decays_at_half_gamma(self, mode):
        measured, amplitude, times = self.ring_down(mode, GAMMA)
        envelope = np.mean(np.exp(-0.5 * GAMMA * times))
        assert envelope < 0.7  # the window sees a strong decay
        expected = amplitude * envelope
        assert np.max(np.abs(measured - expected)) <= 5e-3 * np.max(expected)


def modulo_wrap(phi):
    """The definition of :func:`wrap_phase`: ``(phi + pi) % TWO_PI - pi``, -pi sent to pi."""
    out = (np.asarray(phi, dtype=float) + np.pi) % TWO_PI - np.pi
    return np.where(out == -np.pi, np.pi, out)


#: The ends of both ranges, the quarter turns and the neighbours of -pi, pi and 3 pi.
#: At phi = pi the shifted angle is exactly 2 pi, where both branches of the
#: exact path give pi.
EDGE_ANGLES = [math.pi, -math.pi, math.pi / 2, -math.pi / 2, 1.5 * math.pi, 0.0, -0.0] + [
    float(np.nextafter(angle, side)) for angle in (-math.pi, math.pi, 3 * math.pi)
    for side in (-math.inf, math.inf)
]
ANGLES = (st.floats(allow_nan=False, allow_infinity=False) | st.floats(-4.0, 10.0)
          | st.sampled_from(EDGE_ANGLES))


class TestWrapPhase:
    @settings(max_examples=500)
    @given(ANGLES | hnp.arrays(float, hnp.array_shapes(max_dims=2, min_side=0, max_side=6),
                               elements=ANGLES))
    def test_bits_equal_the_modulo_form(self, phi):
        got = np.asarray(wrap_phase(phi))
        assert np.array_equal(got.view(np.int64), modulo_wrap(phi).view(np.int64))

    def test_edge_angles_bits_equal_the_modulo_form(self):
        for phi in EDGE_ANGLES + [np.array(EDGE_ANGLES), np.array(EDGE_ANGLES + [-4.0])]:
            got = np.asarray(wrap_phase(phi))
            assert np.array_equal(got.view(np.int64), modulo_wrap(phi).view(np.int64)), phi

    @given(st.floats(allow_nan=False, allow_infinity=False)
           | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(np.array))
    def test_any_finite_angle_lands_in_the_half_open_interval(self, phi):
        wrapped = wrap_phase(phi)
        assert isinstance(wrapped, float) == (np.ndim(phi) == 0)
        assert np.all((-math.pi < np.asarray(wrapped)) & (np.asarray(wrapped) <= math.pi))
        if np.all(np.abs(phi) <= 1e6):
            # the same angle: cos and sin agree to the rounding of phi + pi
            assert np.allclose(np.cos(wrapped), np.cos(phi), rtol=0, atol=1e-9)
            assert np.allclose(np.sin(wrapped), np.sin(phi), rtol=0, atol=1e-9)

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
