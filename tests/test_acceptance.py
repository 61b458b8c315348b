"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (to the real stdout,
past pytest's capture) and then asserts, so the run log always carries a
complete scoreboard.
"""
import json
import sys
import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh
from scipy.optimize import minimize_scalar

from tapermode import analysis, cli
from tapermode.analysis import fit_profile
from tapermode.core import TWO_PI, TrapConfig, gradient, hessian, potential_energy
from tapermode.dynamics import (
    BeamSpec,
    DriveScan,
    linear_response_spectrum,
    simulate_spectrum,
    wrap_phase,
)
from tapermode.equilibrium import chain_positions_dimensionless
from tapermode.modes import compute_modes, site_frequencies
from tapermode.pipeline import ExperimentPlan, run_experiment


_CAPTURE = None


@pytest.fixture(autouse=True)
def _scoreboard_past_capture(capfd):
    """Let the ACCEPTANCE lines through pytest's fd-level capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def brute_force_chain(n_ions: int) -> np.ndarray:
    """Coordinate-descent minimizer of the dimensionless axial energy.

    Independent of the package's Newton solver: sweeps one coordinate at a
    time with a bounded scalar minimizer until the largest move in a full
    sweep falls below 1e-9. The bounded method is accurate to about 1e-8
    relative, so a tighter stop rule would never trigger and every call
    would run the 500-sweep cap. Each scalar problem minimizes the part of
    the energy that depends on the moving ion, ``t^2/2 + sum_j 1/|t - u_j|``;
    the rest is constant along that coordinate.
    """
    u = np.linspace(-0.5 * (n_ions - 1), 0.5 * (n_ions - 1), n_ions).tolist()

    for _ in range(500):
        moved = 0.0
        for i in range(n_ions):
            lo = u[i - 1] + 1e-9 if i > 0 else u[i] - 2.0
            hi = u[i + 1] - 1e-9 if i < n_ions - 1 else u[i] + 2.0
            others = u[:i] + u[i + 1:]

            def marginal(t: float) -> float:
                return 0.5 * t * t + sum(1.0 / abs(t - v) for v in others)

            best = minimize_scalar(
                marginal, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-14},
            )
            moved = max(moved, abs(best.x - u[i]))
            u[i] = float(best.x)
        if moved < 1e-9:
            break
    return np.asarray(u)


def predicted_radial_frequencies(config: TrapConfig) -> np.ndarray:
    """Closed-form radial coupling matrix diagonalized independently."""
    u = chain_positions_dimensionless(config.n_ions)
    taper = 2.0 * config.length_scale / config.funnel_length
    beta = config.beta("x")
    gaps = np.abs(u[:, None] - u[None, :])
    inv3 = np.zeros_like(gaps)
    off_axis = gaps > 0
    inv3[off_axis] = 1.0 / gaps[off_axis] ** 3
    coupling = -2.0 * inv3
    coupling[np.diag_indices_from(coupling)] = 1.0 + 2.0 * inv3.sum(axis=1)
    matrix = (
        np.eye(config.n_ions)
        + taper * np.diag(u)
        - 0.5 * beta**2 * (coupling - np.eye(config.n_ions))
    )
    return config.omega_x * np.sqrt(eigvalsh(matrix))


def test_01_equilibrium_against_brute_force():
    start = time.perf_counter()
    exact_two = (0.5) ** (2.0 / 3.0)
    solver_two = chain_positions_dimensionless(2)
    solver_three = chain_positions_dimensionless(3)
    err_two = np.max(np.abs(solver_two - [-exact_two, exact_two]))
    err_three = np.max(np.abs(np.abs(solver_three[[0, 2]]) - 1.0772))
    brute_two = brute_force_chain(2)
    brute_three = brute_force_chain(3)
    cross_two = np.max(np.abs(brute_two - solver_two))
    cross_three = np.max(np.abs(brute_three - solver_three))
    elapsed = time.perf_counter() - start
    report(
        1,
        err_two < 1e-9
        and err_three < 1e-4
        and cross_two < 1e-7
        and cross_three < 1e-7
        and elapsed < 1.0,
        f"N=2 closed-form gap {err_two:.2e}, N=3 gap {err_three:.2e}, "
        f"coordinate-descent cross-check {max(cross_two, cross_three):.2e}, "
        f"{elapsed:.2f} s",
    )


def test_02_straight_trap_closed_forms():
    worst_eig = 0.0
    worst_com = 0.0
    for beta in (0.05, 0.1, 0.2):
        omega_x0 = TWO_PI * 1e6
        config = TrapConfig(
            omega_z=beta * omega_x0 / np.sqrt(1.0 + beta**2 / 2.0),
            omega_x0=omega_x0,
            omega_y0=omega_x0,
            funnel_length=np.inf,
        )
        table = compute_modes(config)
        eigenvalues = table.eigenvalues("x")
        expected = np.array([1.0 - 2.4 * beta**2, 1.0 - beta**2, 1.0])
        worst_eig = max(worst_eig, float(np.max(np.abs(eigenvalues - expected))))
        com = table.matrix("x")[:, -1]
        worst_com = max(worst_com, float(np.max(np.abs(com - 1.0 / np.sqrt(3.0)))))
    report(
        2,
        worst_eig < 1e-9 and worst_com < 1e-9,
        f"eigenvalue gap {worst_eig:.2e}, COM uniformity gap {worst_com:.2e} "
        f"over beta in {{0.05, 0.1, 0.2}}",
    )


def test_03_derivatives_match_finite_differences():
    config = TrapConfig()
    scale = config.length_scale
    rng = np.random.default_rng(3)
    worst_grad = 0.0
    worst_hess = 0.0
    states = 0
    while states < 100:
        positions = scale * rng.uniform(-2.0, 2.0, (3, 3))
        gaps = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
        if np.min(gaps[np.triu_indices(3, 1)]) < 0.3 * scale:
            continue
        states += 1

        h = 3e-6 * scale
        grad = gradient(config, positions)
        grad_fd = np.zeros_like(grad)
        hess = hessian(config, positions)
        hess_fd = np.zeros_like(hess)
        for i in range(3):
            for a in range(3):
                bump = np.zeros_like(positions)
                bump[i, a] = h
                grad_fd[i, a] = (
                    potential_energy(config, positions + bump)
                    - potential_energy(config, positions - bump)
                ) / (2.0 * h)
                hess_fd[3 * i + a] = (
                    gradient(config, positions + bump)
                    - gradient(config, positions - bump)
                ).ravel() / (2.0 * h)
        worst_grad = max(
            worst_grad,
            float(np.max(np.abs(grad_fd - grad)) / np.max(np.abs(grad))),
        )
        worst_hess = max(
            worst_hess,
            float(np.max(np.abs(hess_fd - hess)) / np.max(np.abs(hess))),
        )
    report(
        3,
        worst_grad < 1e-6 and worst_hess < 1e-5,
        f"gradient FD error {worst_grad:.2e} (< 1e-6), "
        f"Hessian FD error {worst_hess:.2e} (< 1e-5) over 100 random states",
    )


def test_04_localization_transition():
    start = time.perf_counter()
    config_local = TrapConfig(omega_z=TWO_PI * 47e3)
    table_local = compute_modes(config_local)
    prs = table_local.participation("x")
    freqs_local = table_local.frequencies("x")
    site = np.sort(site_frequencies(config_local, "x"))
    site_gap = float(np.max(np.abs(freqs_local - site) / site))

    config_coll = TrapConfig(omega_z=TWO_PI * 205e3)
    table_coll = compute_modes(config_coll)
    min_component = float(np.min(np.abs(table_coll.matrix("x"))))
    freqs_coll = table_coll.frequencies("x")

    spread_local = float(freqs_local.max() - freqs_local.min())
    spread_coll = float(freqs_coll.max() - freqs_coll.min())
    factor = spread_coll / spread_local

    pred_local = predicted_radial_frequencies(config_local)
    pred_coll = predicted_radial_frequencies(config_coll)
    factor_pred = float(
        (pred_coll.max() - pred_coll.min()) / (pred_local.max() - pred_local.min())
    )
    elapsed = time.perf_counter() - start
    report(
        4,
        np.all(prs < 1.05)
        and site_gap < 0.005
        and min_component > 0.1
        and abs(factor - factor_pred) < 1e-9
        and abs(factor - 1.209547) < 1e-3
        and elapsed < 10.0,
        f"47 kHz: PR <= {prs.max():.4f}, site-frequency gap {site_gap:.2e}; "
        f"205 kHz: min |component| {min_component:.3f}; spread ratio "
        f"205/47 = {factor:.6f} matches the independent eigen-solve "
        f"(frequency spread grows toward the collective regime), {elapsed:.2f} s",
    )


def test_05_highest_mode_sits_at_the_wide_spacing_end():
    config = TrapConfig(omega_z=TWO_PI * 205e3)
    table = compute_modes(config)
    top = table.matrix("x")[:, -1]
    u = chain_positions_dimensionless(config.n_ions)
    factors = 1.0 + (2.0 * config.length_scale / config.funnel_length) * u
    loudest = int(np.argmax(np.abs(top)))
    expected = int(np.argmax(factors))
    report(
        5,
        loudest == expected,
        f"highest 205 kHz mode is loudest on ion {loudest + 1} "
        f"(largest local confinement factor {factors[expected]:.4f})",
    )


def test_06_time_domain_matches_linear_response():
    start = time.perf_counter()
    gamma = TWO_PI * 15e3
    beam = BeamSpec("broad", 1e-23)
    worst_amp = 0.0
    worst_phase = 0.0
    for omega_z_hz in (47e3, 135e3, 205e3):
        config = TrapConfig(omega_z=TWO_PI * omega_z_hz)
        freqs = compute_modes(config).frequencies("x")
        scan = DriveScan(
            np.linspace(0.97 * freqs.min(), 1.03 * freqs.max(), 60),
            damping_rate=gamma,
            settle_cycles=180,
            measure_cycles=32,
            steps_per_period=192,
        )
        simulated = simulate_spectrum(config, scan, beam, model="linearized")
        reference = linear_response_spectrum(config, scan, beam)
        peak = float(reference.amplitude.max())
        worst_amp = max(
            worst_amp,
            float(np.max(np.abs(simulated.amplitude - reference.amplitude))) / peak,
        )
        mask = reference.amplitude > 0.05 * peak
        worst_phase = max(
            worst_phase,
            float(
                np.max(np.abs(wrap_phase(simulated.phase[mask] - reference.phase[mask])))
            ),
        )
    elapsed = time.perf_counter() - start
    report(
        6,
        worst_amp < 0.02 and worst_phase < 0.05 and elapsed < 60.0,
        f"amplitude error {worst_amp:.4f} of peak (< 0.02), phase error "
        f"{worst_phase:.4f} rad (< 0.05) over 60-point scans at three "
        f"axial frequencies, {elapsed:.1f} s",
    )


def test_07_closed_loop_recovery_on_the_default_grid():
    start = time.perf_counter()
    plan = ExperimentPlan(beam_crossover=TWO_PI * 110e3)
    result = run_experiment(TrapConfig(), plan)
    summary = result.summary
    elapsed = time.perf_counter() - start
    report(
        7,
        summary["n_failed"] == 0
        and summary["max_frequency_error_hwhm"] <= 0.5
        and summary["max_component_error"] <= 0.05
        and summary["signs_all_match"]
        and elapsed < 180.0,
        f"12-point grid: frequency error {summary['max_frequency_error_hwhm']:.3f} "
        f"half-widths (<= 0.5), component error "
        f"{summary['max_component_error']:.4f} (<= 0.05), sign patterns all "
        f"match, {elapsed:.1f} s",
    )


def test_08_global_drive_cannot_reach_the_alternating_mode():
    gamma = TWO_PI * 400.0
    ratios = {}
    for label, config in (
        ("straight", TrapConfig(funnel_length=np.inf)),
        ("tapered-205kHz", TrapConfig(omega_z=TWO_PI * 205e3)),
    ):
        table = compute_modes(config)
        alternating = None
        for k, vector in enumerate(table.matrix("x").T):
            signs = np.sign(vector[np.abs(vector) > 1e-12])
            if np.count_nonzero(np.diff(signs)) == 2:
                alternating = k
        assert alternating is not None
        positions = chain_positions_dimensionless(config.n_ions) * config.length_scale
        loudest = int(np.argmax(np.abs(table.matrix("x")[:, alternating])))
        scan = DriveScan(table.frequencies("x")[[alternating]], damping_rate=gamma)
        broad = linear_response_spectrum(config, scan, BeamSpec("broad", 1e-23))
        focused = linear_response_spectrum(
            config,
            scan,
            BeamSpec(
                "focused", 1e-23, waist_radius=17e-6, center_z=float(positions[loudest])
            ),
        )
        ratios[label] = float(
            broad.summed_amplitude()[0] / focused.summed_amplitude()[0]
        )
    report(
        8,
        all(0.0 < r < 0.10 for r in ratios.values()),
        "global/focused response at the alternating-mode frequency: "
        + ", ".join(f"{k} {v:.4f}" for k, v in ratios.items())
        + " (each < 0.10)",
    )


def test_09_profile_amplitudes_from_monte_carlo_counts(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    sigma = 1.0
    results = {}
    solves = []  # (nfev, evaluation cap) of each least-squares solve
    solver = analysis.least_squares

    def counted(fun, x0, jac, **kwargs):
        result = solver(fun, x0, jac, **kwargs)
        solves.append((result.nfev, 100 * len(x0)))
        return result

    monkeypatch.setattr(analysis, "least_squares", counted)

    for amplitude, n_samples in ((0.0, 40_000_000), (1.0, 10_000_000), (3.0, 10_000_000)):
        half = amplitude + 4.5 * sigma
        edges = np.linspace(-half, half, 102)
        counts = np.zeros(101)
        remaining = n_samples
        while remaining:
            chunk = min(remaining, 10_000_000)
            x = rng.normal(0.0, sigma, chunk)
            if amplitude > 0:
                x += amplitude * np.sin(rng.uniform(0.0, TWO_PI, chunk))
            counts += np.histogram(x, bins=edges)[0]
            remaining -= chunk
        centers = 0.5 * (edges[:-1] + edges[1:])
        density = counts / (edges[1] - edges[0])
        fit = fit_profile(centers, density, psf_sigma=sigma)
        results[amplitude] = fit.amplitude

    elapsed = time.perf_counter() - start
    ok_zero = results[0.0] < 0.05 * sigma
    rel_one = abs(results[1.0] - 1.0)
    rel_three = abs(results[3.0] - 3.0) / 3.0
    under_cap = len(solves) == 3 and all(nfev < cap for nfev, cap in solves)
    report(
        9,
        ok_zero and rel_one < 0.02 and rel_three < 0.02 and elapsed < 30.0 and under_cap,
        f"A=0 fitted {results[0.0]:.4f} (< 0.05), A=1 error {rel_one:.4f}, "
        f"A=3 relative error {rel_three:.4f} (each < 0.02), {elapsed:.1f} s, "
        f"nfev {[nfev for nfev, _ in solves]} (each below its cap)",
    )


def test_10_pipeline_runs_are_byte_identical(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "sweep": {"omega_z_min_hz": 47e3, "omega_z_max_hz": 205e3, "points": 3},
                "drive": {"gamma_hz": 400.0, "scan_points": 800},
                "pipeline": {
                    "noise_fraction": 1e-4,
                    "spectrum_source": "response",
                    "beam_crossover_hz": 110e3,
                },
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        code = cli.main(
            [
                "pipeline",
                "--config", str(config_path),
                "--out", str(out_dir),
                "--seed", "42",
            ]
        )
        assert code == 0
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    same_names = set(outputs[0]) == set(outputs[1])
    same_bytes = same_names and all(
        outputs[0][name] == outputs[1][name] for name in outputs[0]
    )
    summary = json.loads(outputs[0]["report.json"].decode("utf-8"))["summary"]
    report(
        10,
        same_names and same_bytes and len(outputs[0]) == 6
        and summary["n_failed"] == 0,
        f"two seeded pipeline runs ({summary['n_points']} sweep points, "
        f"{summary['n_failed']} failed) produced {len(outputs[0])} identical "
        f"artifacts ({', '.join(sorted(outputs[0]))})",
    )
