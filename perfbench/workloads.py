"""The four benchmark workloads, driven only through tapermode's public API.

Each workload makes its inputs from the seed in :meth:`prepare` (untimed),
makes the first call a fresh interpreter pays in :meth:`setup`, runs one
timed iteration in :meth:`iterate`, and checks that iteration's outputs in
:meth:`check`. The reasons each workload exists are in README.md.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import tapermode
from tapermode import cli

TWO_PI = 2.0 * math.pi

#: Acceptance-07 bound on the fitted frequency error, in fitted half-widths.
FREQ_ERR_HWHM_MAX = 0.5
#: Acceptance-07 bound on eigenvector component errors.
COMPONENT_ERR_MAX = 0.05
#: Acceptance-09 bound on the fixed-sigma relative amplitude error.
PROFILE_AMP_ERR_MAX = 0.02
#: Agreement required between tapermode and the closed-form references.
REFERENCE_RTOL = 1e-8


@dataclass
class Outcome:
    """What one timed iteration did: work done, operations tried and failed."""

    items: int                 #: work units completed (points, sweep values, profiles)
    attempted: int
    failed: int
    fingerprint: str           #: digest of every output, for the repeatability check
    accuracy: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    bytes_written: int = 0     #: artifact bytes the CLI wrote (loops only)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Loop:
    """``tapermode pipeline`` through :func:`tapermode.cli.main`, artifacts and all."""

    def __init__(self, name: str, config: dict, smoke_sections: dict, gate_components: bool):
        self.name = name
        self.config = config
        self.smoke_sections = smoke_sections
        self.gate_components = gate_components

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> dict:
        config = {**self.config, **self.smoke_sections} if smoke else self.config
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        return {"seed": seed, "workdir": workdir, "out": workdir / "artifacts"}

    @staticmethod
    def setup(workdir: Path, smoke: bool) -> None:
        data = cli.load_config(str(workdir / "config.json"))
        config = cli.trap_config(data)
        grid, _ = cli.sweep_settings(data)
        cli.experiment_plan(data, grid, "x")
        tapermode.equilibrium_positions(config)

    @staticmethod
    def iterate(inputs: dict) -> int:
        return cli.main([
            "pipeline", "--config", str(inputs["workdir"] / "config.json"),
            "--out", str(inputs["out"]), "--seed", str(inputs["seed"]), "--threads", "1",
        ])

    def check(self, inputs: dict, code: int) -> Outcome:
        out: Path = inputs["out"]
        files = sorted(out.iterdir()) if out.is_dir() else []
        blobs = [f.read_bytes() for f in files]
        fingerprint = hashlib.sha256(b"".join(
            f.name.encode() + b"\0" + blob for f, blob in zip(files, blobs))).hexdigest()
        if code != 0:
            return Outcome(0, 1, 1, fingerprint, failures=[f"cli.main exited with {code}"])
        summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
        points, failed = summary["n_points"], summary["n_failed"]
        accuracy = {
            "max_freq_err_hwhm": summary.get("max_frequency_error_hwhm", math.inf),
            "max_component_err": summary.get("max_component_error", math.inf),
        }
        checks = {
            "all signs match": summary.get("signs_all_match", False),
            f"max_freq_err_hwhm {accuracy['max_freq_err_hwhm']:.4g} <= {FREQ_ERR_HWHM_MAX}":
                accuracy["max_freq_err_hwhm"] <= FREQ_ERR_HWHM_MAX,
        }
        if self.gate_components:
            checks[f"max_component_err {accuracy['max_component_err']:.4g} <= "
                   f"{COMPONENT_ERR_MAX}"] = accuracy["max_component_err"] <= COMPONENT_ERR_MAX
        failures = [f"{failed} of {points} grid points failed"] if failed else []
        failures += [f"check failed: {name}" for name, ok in checks.items() if not ok]
        return Outcome(
            items=points - failed,
            attempted=points + len(checks),
            failed=failed + sum(not ok for ok in checks.values()),
            fingerprint=fingerprint,
            accuracy=accuracy,
            failures=failures,
            bytes_written=sum(len(b) for b in blobs),
        )


class Survey:
    """Long-chain mode survey: :func:`run_sweep` plus closed-form x spectra."""

    name = "survey-longchain"
    GAMMA = TWO_PI * 400.0
    WAIST = 17e-6
    FORCE = 1e-23

    #: (ions, sweep points, spectra, lowest and highest omega_z [Hz]) by smoke flag
    SIZES = {False: (30, 400, 24, 21e3, 81e3), True: (8, 40, 4, 40e3, 120e3)}

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> dict:
        n, n_points, n_spectra, lo, hi = self.SIZES[smoke]
        trap = {"n_ions": n}
        grid_hz = np.linspace(lo, hi, n_points)
        rng = np.random.default_rng(seed)
        u = reference.chain_u(n)
        chains = [reference.RadialChain(trap, w, u) for w in grid_hz]
        spectra = []
        for k in np.sort(rng.choice(n_points, size=n_spectra, replace=False)):
            chain = chains[k]
            f = chain.frequencies
            drive = np.linspace(0.9 * f[0], 1.1 * f[-1], 800)
            if rng.random() < 0.5:
                beam = tapermode.BeamSpec("broad", self.FORCE)
                weights = np.ones(n)
            else:
                center = float(chain.z[rng.integers(n)])
                beam = tapermode.BeamSpec("focused", self.FORCE, waist_radius=self.WAIST,
                                          center_z=center)
                weights = reference.gaussian_weights(chain.z, center, self.WAIST)
            spectra.append({
                "config": tapermode.TrapConfig(n_ions=n, omega_z=TWO_PI * grid_hz[k]),
                "scan": tapermode.DriveScan(drive, self.GAMMA),
                "beam": beam,
                "expected": chain.response(drive, self.GAMMA, self.FORCE * weights),
            })
        return {
            "config": tapermode.TrapConfig(n_ions=n),
            "grid": TWO_PI * grid_hz,
            "reference_freqs": [c.frequencies for c in chains],
            "spectra": spectra,
        }

    def setup(self, workdir: Path, smoke: bool) -> None:
        tapermode.equilibrium_positions(tapermode.TrapConfig(n_ions=self.SIZES[smoke][0]))

    @staticmethod
    def iterate(inputs: dict) -> tuple:
        try:
            sweep = tapermode.run_sweep(inputs["config"], inputs["grid"], "x", threads=1)
        except tapermode.TapermodeError as exc:
            sweep = exc
        spectra = []
        for s in inputs["spectra"]:
            try:
                spectra.append(tapermode.linear_response_spectrum(s["config"], s["scan"], s["beam"]))
            except tapermode.TapermodeError as exc:
                spectra.append(exc)
        return sweep, spectra

    def check(self, inputs: dict, result: tuple) -> Outcome:
        sweep, spectra = result
        n_points, n_spectra = len(inputs["grid"]), len(inputs["spectra"])
        failures = []
        if isinstance(sweep, Exception):
            failures.append(f"run_sweep raised {sweep!r}")
            sweep_failed, freqs, vectors = n_points, np.zeros(0), np.zeros(0)
        else:
            freqs = np.array([[m.frequency for m in p.modes] for p in sweep.points])
            vectors = np.array([[m.vector for m in p.modes] for p in sweep.points])
            ref = np.array(inputs["reference_freqs"])
            err = np.abs(np.sort(freqs, axis=1) - ref) / ref
            sweep_failed = int(np.count_nonzero(np.any(err > REFERENCE_RTOL, axis=1)))
            if sweep_failed:
                failures.append(f"{sweep_failed} sweep points differ from the reference "
                                f"modes (worst relative error {err.max():.3g})")
        spectra_failed, worst = 0, 0.0
        for s, got in zip(inputs["spectra"], spectra):
            if isinstance(got, Exception):
                failures.append(f"linear_response_spectrum raised {got!r}")
                spectra_failed += 1
                continue
            expected = s["expected"]
            measured = got.amplitude * np.exp(1j * got.phase)
            err = float(np.max(np.abs(measured - expected)) / np.max(np.abs(expected)))
            worst = max(worst, err)
            if not err <= REFERENCE_RTOL:
                spectra_failed += 1
                failures.append(f"spectrum differs from the modal sum by {err:.3g}")
        good = [g for g in spectra if not isinstance(g, Exception)]
        return Outcome(
            items=n_points - sweep_failed,
            attempted=n_points + n_spectra,
            failed=sweep_failed + spectra_failed,
            fingerprint=_digest(freqs, vectors, *(g.amplitude for g in good),
                                *(g.phase for g in good)),
            accuracy={"max_spectrum_rel_err": worst},
            failures=failures,
        )


class Profiles:
    """Fluorescence-profile amplitude fits on Poisson-sampled blurred arcsines."""

    name = "profile-fits"
    SIGMA = 1.0
    AMPLITUDES = (0.5, 1.0, 2.0, 3.0)   #: in units of SIGMA
    COUNTS = 1e7                        #: expected photons per profile
    BINS = 101

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        per_amplitude = 1 if smoke else 10
        profiles = []
        for amplitude in self.AMPLITUDES:
            half = amplitude + 4.5 * self.SIGMA
            edges = np.linspace(-half, half, self.BINS + 1)
            expected = reference.binned_counts(edges, amplitude, self.SIGMA, self.COUNTS)
            centers = 0.5 * (edges[:-1] + edges[1:])
            width = edges[1] - edges[0]
            for _ in range(per_amplitude):
                profiles.append((amplitude, centers, rng.poisson(expected) / width))
        return {"profiles": profiles}

    def setup(self, workdir: Path, smoke: bool) -> None:
        tapermode.blurred_arcsine(np.linspace(-3.0, 3.0, 8), 1.0, self.SIGMA)

    def iterate(self, inputs: dict) -> list:
        fits = []
        for amplitude, x, density in inputs["profiles"]:
            pair = []
            for sigma in (self.SIGMA, None) if amplitude >= self.SIGMA else (self.SIGMA,):
                try:
                    pair.append(tapermode.fit_profile(x, density, psf_sigma=sigma))
                except tapermode.TapermodeError as exc:
                    pair.append(exc)
            fits.append(pair)
        return fits

    def check(self, inputs: dict, fits: list) -> Outcome:
        failures, fixed_errors, free_errors, values = [], [], [], []
        attempted = failed = 0
        for (amplitude, _, _), pair in zip(inputs["profiles"], fits):
            for fit in pair:
                attempted += 1
                if isinstance(fit, Exception):
                    failed += 1
                    failures.append(f"fit_profile raised {fit!r} at A = {amplitude}")
                    continue
                values.append(fit.amplitude)
                error = abs(fit.amplitude - amplitude) / amplitude
                (fixed_errors if fit.sigma_was_fixed else free_errors).append(error)
        worst = max(fixed_errors, default=math.inf)
        ok = worst < PROFILE_AMP_ERR_MAX
        if not ok:
            failures.append(f"check failed: profile_amp_err {worst:.4g} < {PROFILE_AMP_ERR_MAX}")
        return Outcome(
            items=len(inputs["profiles"]) - sum(any(isinstance(f, Exception) for f in p)
                                                for p in fits),
            attempted=attempted + 1,
            failed=failed + (not ok),
            fingerprint=_digest(np.array(values)),
            accuracy={"profile_amp_err": worst,
                      "profile_amp_err_free_sigma": max(free_errors, default=0.0)},
            failures=failures,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Loop(
            "loop-response",
            config={"pipeline": {"spectrum_source": "response", "noise_fraction": 1e-3,
                                 "beam_crossover_hz": 135e3}},
            smoke_sections={"sweep": {"omega_z_min_hz": 47e3, "omega_z_max_hz": 205e3,
                                      "points": 2}},
            gate_components=True,
        ),
        Loop(
            "loop-timedomain",
            config={"sweep": {"omega_z_min_hz": 47e3, "omega_z_max_hz": 205e3, "points": 2},
                    "drive": {"gamma_hz": 4000.0, "scan_points": 100,
                              "settle_cycles": 100, "measure_cycles": 16},
                    "pipeline": {"spectrum_source": "full", "noise_fraction": 1e-3,
                                 "beam_crossover_hz": 110e3}},
            smoke_sections={"drive": {"gamma_hz": 4000.0, "scan_points": 80,
                                      "settle_cycles": 80, "measure_cycles": 8}},
            gate_components=False,
        ),
        Survey(),
        Profiles(),
    )
}
