"""Spans around tapermode's public functions, recorded from outside the package.

:class:`Tracer` wraps each function named in ``TRACED`` and rebinds the
wrapper under every name that any loaded ``tapermode`` module holds for the
original (``compute_modes``, for instance, is bound in ``modes``, ``sweep``,
``dynamics``, ``pipeline``, ``cli`` and the package itself), so calls made
inside the package are seen too. Each call becomes one span: name, start,
end, parent span, whether it raised, and the counts read off its result.
Spans stay in memory until :meth:`Tracer.write` saves them at the end of the
run; :func:`layer_metrics` turns them into the per-module figures.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _scan_points(result) -> dict:
    return {"freq_points": int(result.drive_frequencies.size)}


def _integrator_steps(result) -> dict:
    steps = (result.settle_cycles + result.measure_cycles) * result.steps_per_period
    return {"steps": steps, "ion_steps": steps * result.amplitude.size}


def _sweep_points(result) -> dict:
    return {"points": len(result.points)}


def _experiment_points(result) -> dict:
    return {"points": len(result.points), "points_failed": result.summary["n_failed"]}


def _nfev(result) -> dict:
    return {"nfev": int(result.nfev)}


#: (module, function, counts read off the return value) for every traced call.
TRACED = (
    ("tapermode.cli", "main", None),
    ("tapermode.pipeline", "run_experiment", _experiment_points),
    ("tapermode.equilibrium", "equilibrium_positions", None),
    ("tapermode.equilibrium", "chain_positions_dimensionless", None),
    ("tapermode.core", "hessian", None),
    ("tapermode.modes", "compute_modes", None),
    ("tapermode.sweep", "run_sweep", _sweep_points),
    ("tapermode.dynamics", "linear_response_spectrum", _scan_points),
    ("tapermode.dynamics", "simulate_spectrum", _integrator_steps),
    ("tapermode.analysis", "fit_lorentzian_sum", None),
    ("tapermode.analysis", "fit_fixed_centers", None),
    ("tapermode.analysis", "reconstruct_eigenvectors", None),
    ("tapermode.analysis", "fit_profile", None),
    ("tapermode.analysis", "least_squares", _nfev),
    ("tapermode.analysis", "quad_vec", None),
)


class Tracer:
    """Records one span per traced call while installed (a context manager)."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, raised, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, False, None])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                spans[index][5] = counts(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tapermode" or key.startswith("tapermode."))]
        for module_name, attr, counts in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> bool:
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()
        return False

    def write(self, path: Path) -> None:
        """Save every span (times relative to the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "raised": r,
             **({"counts": c} if c else {})}
            for n, s, e, p, r, c in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def layer_metrics(spans: list[list], iterations: int) -> dict[str, float]:
    """Per-module figures per traced iteration, from the recorded spans.

    A module's time ``<module>.s`` sums its outermost spans only (a span
    whose ancestors include a span of the same name group is nested and
    already covered); ``self_s`` is a span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(names: set[str]):
        for i, span in enumerate(spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                yield i

    def total(*names: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outermost(set(names)))

    def calls(*names: str) -> int:
        return sum(1 for _ in outermost(set(names)))

    def self_time(name: str) -> float:
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def count(name: str, key: str) -> int:
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    analysis = {"analysis.fit_lorentzian_sum", "analysis.fit_fixed_centers",
                "analysis.reconstruct_eigenvectors", "analysis.fit_profile"}
    points = count("pipeline.run_experiment", "points")
    response_s = total("dynamics.linear_response_spectrum")
    freq_points = count("dynamics.linear_response_spectrum", "freq_points")
    integrate_s = total("dynamics.simulate_spectrum")
    ion_steps = count("dynamics.simulate_spectrum", "ion_steps")
    metrics = {
        "cli.self_s": self_time("cli.main"),
        "pipeline.self_s": self_time("pipeline.run_experiment"),
        "pipeline.points": points,
        "pipeline.points_failed": count("pipeline.run_experiment", "points_failed"),
        "pipeline.point_s": total("pipeline.run_experiment") / points if points else 0.0,
        "equilibrium.calls": calls("equilibrium.equilibrium_positions",
                                   "equilibrium.chain_positions_dimensionless"),
        "equilibrium.s": total("equilibrium.equilibrium_positions",
                               "equilibrium.chain_positions_dimensionless"),
        "core.hessian.calls": calls("core.hessian"),
        "core.hessian.s": total("core.hessian"),
        "modes.compute_modes.calls": calls("modes.compute_modes"),
        "modes.compute_modes.s": total("modes.compute_modes"),
        "sweep.run_sweep.s": total("sweep.run_sweep"),
        "sweep.self_s": self_time("sweep.run_sweep"),
        "sweep.points": count("sweep.run_sweep", "points"),
        "dynamics.response.s": response_s,
        "dynamics.response.freq_points": freq_points,
        "dynamics.response.us_per_point": 1e6 * response_s / freq_points if freq_points else 0.0,
        "dynamics.integrate.s": integrate_s,
        "dynamics.integrate.steps": count("dynamics.simulate_spectrum", "steps"),
        "dynamics.integrate.ion_steps": ion_steps,
        "dynamics.integrate.ns_per_ion_step": 1e9 * integrate_s / ion_steps if ion_steps else 0.0,
        "analysis.fit_free.s": total("analysis.fit_lorentzian_sum"),
        "analysis.fit_fixed.s": total("analysis.fit_fixed_centers"),
        "analysis.reconstruct.s": total("analysis.reconstruct_eigenvectors"),
        "analysis.lsq.calls": calls("analysis.least_squares"),
        "analysis.lsq.nfev": count("analysis.least_squares", "nfev"),
        "analysis.errors": sum(1 for s in spans if s[0] in analysis and s[4]),
        "analysis.fit_profile.s": total("analysis.fit_profile"),
        "analysis.fit_profile.calls": calls("analysis.fit_profile"),
        "analysis.quad.calls": calls("analysis.quad_vec"),
    }
    # Ratios are already per call; everything else is averaged per iteration.
    per_call = {"pipeline.point_s", "dynamics.response.us_per_point",
                "dynamics.integrate.ns_per_ion_step"}
    return {k: v if k in per_call else v / iterations for k, v in metrics.items()}
