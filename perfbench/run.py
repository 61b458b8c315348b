"""tapermode benchmark: one workload per invocation, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload loop-response --seed 1 --seconds 24 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
iterations, reports the per-module metrics and the tracing overhead, and
saves the spans under ``.perfbench_out/``. ``--smoke`` shrinks every
workload to a few seconds (see selftest.py). The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a human-readable
summary of the same run precedes it.

The times reported are host-corrected: a fixed reference job of
calibrate.py runs before and after every timed iteration and set-up
interpreter, and each time is rescaled by the host's pace beside it to
seconds on the reference host. The raw medians are in the summary line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# calibrate is imported only where it is used: it loads numpy and scipy, and
# the --setup-only interpreters must load no more than tapermode itself does.
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("loop-response", "loop-timedomain", "survey-longchain", "profile-fits")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 3
#: Share of an iteration's time spent measuring the host's pace after it.
PACE_SHARE = 0.08
#: Timed iterations made even when one iteration outlasts ``--seconds``.
MIN_ITERATIONS = 3


def import_tapermode():
    """Import tapermode from this checkout's ``src/`` and nowhere else."""
    package = SRC / "tapermode"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a tapermode checkout")
    sys.path.insert(0, str(SRC))
    import tapermode

    if Path(tapermode.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tapermode from {tapermode.__file__}, not {package}")
    return tapermode


def machine() -> dict:
    """Hardware and library versions the figures were taken on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


def corrected(samples: list, paces: list, reference_s: float) -> list:
    """Each time [s] rescaled to the reference host's pace.

    ``paces[i]`` is the mean of a reference job's times just before and just
    after ``samples[i]``; ``reference_s`` is that job's time on the reference
    host.
    """
    return [reference_s * t / pace for t, pace in zip(samples, paces)]


def time_setup(workload: str, seed: int, smoke: bool, workdir: Path) -> tuple:
    """Fresh interpreters that import, parse and make the first call.

    Returns the host-corrected median [s], the raw median [s] and the
    host pace beside each interpreter [s].
    """
    import calibrate

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    samples, paces = [], []
    before = calibrate.startup()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command + (["--smoke"] if smoke else []), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
        after = calibrate.startup()
        paces.append(0.5 * (before + after))
        before = after
    setup_s = statistics.median(corrected(samples, paces, calibrate.REFERENCE_STARTUP_S))
    return setup_s, statistics.median(samples), paces


def measure(workload, inputs, seconds: float, trace: bool):
    """Run timed iterations for about ``seconds``; trace every other one if asked.

    The reference job runs before the first iteration and after each one,
    for about ``PACE_SHARE`` of the iteration's time; the mean of the two
    paces around an iteration is that iteration's host pace, kept apart for
    plain and traced iterations.
    """
    import calibrate

    tracer = Tracer() if trace else None
    plain, traced, outcomes, traced_outcomes = [], [], [], []
    paces = {False: [], True: []}
    first_fingerprint = None
    run_start = time.perf_counter()
    before = calibrate.pace(0.0)
    while True:
        k = len(plain) + len(traced)
        with_trace = trace and k % 2 == 1
        start = time.perf_counter()
        if with_trace:
            with tracer:
                result = workload.iterate(inputs)
        else:
            result = workload.iterate(inputs)
        elapsed = time.perf_counter() - start
        after = calibrate.pace(PACE_SHARE * elapsed)
        (traced if with_trace else plain).append(elapsed)
        paces[with_trace].append(0.5 * (before + after))
        before = after

        outcome = workload.check(inputs, result)
        first_fingerprint = first_fingerprint or outcome.fingerprint
        outcome.attempted += 1
        if outcome.fingerprint != first_fingerprint:
            outcome.failed += 1
            outcome.failures.append(f"iteration {k} outputs differ from iteration 0")
        for message in outcome.failures:
            print(f"perfbench: {workload.name}: {message}", file=sys.stderr)
        outcomes.append(outcome)
        if with_trace:
            traced_outcomes.append(outcome)

        done = len(plain) + len(traced)
        spent = time.perf_counter() - run_start
        if done >= MIN_ITERATIONS and (not trace or traced) and spent + spent / done > seconds:
            return plain, traced, paces, outcomes, traced_outcomes, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tapermode()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.workdir, args.smoke)
        return 0

    import calibrate

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, args.smoke, workdir)
        setup_s, raw_setup_s, setup_paces = time_setup(args.workload, args.seed, args.smoke,
                                                       workdir)
        workload.setup(workdir, args.smoke)
        plain, traced, paces, outcomes, traced_outcomes, tracer = measure(
            workload, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    iteration_s = corrected(plain, paces[False], calibrate.REFERENCE_S)
    wall_s = statistics.median(iteration_s)
    accuracy = outcomes[-1].accuracy
    items = statistics.median(o.items for o in outcomes)
    # The eight end-to-end figures of README.md, by name and unit; accuracy
    # figures a workload does not produce are null.
    report = {
        "setup_s": [setup_s, "s"],
        "wall_s": [wall_s, "s"],
        "work_per_s": [items / wall_s, "1/s"],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"],
        "fail_ratio": [failed / attempted, "1"],
        "max_freq_err_hwhm": [accuracy.get("max_freq_err_hwhm"), "hwhm"],
        "max_component_err": [accuracy.get("max_component_err"), "1"],
        "profile_amp_err": [accuracy.get("profile_amp_err"), "1"],
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "report": report,
        "iterations": len(plain), "work_items_per_iteration": items,
        "wall_s_quartiles": (statistics.quantiles(iteration_s, n=4) if len(plain) > 1
                             else [wall_s] * 3),
        "raw_wall_s": statistics.median(plain), "raw_setup_s": raw_setup_s,
        "host_pace_s": statistics.median(paces[False]),
        "host_startup_pace_s": statistics.median(setup_paces),
        "accuracy": accuracy, "machine": machine(),
    }
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["cli.bytes_written"] = statistics.mean(o.bytes_written for o in traced_outcomes)
        traced_s = corrected(traced, paces[True], calibrate.REFERENCE_S)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - wall_s
        metrics["pipeline.max_freq_err_hwhm"] = accuracy.get("max_freq_err_hwhm", 0.0)
        metrics["pipeline.max_component_err"] = accuracy.get("max_component_err", 0.0)
        metrics["analysis.profile_amp_err"] = accuracy.get("profile_amp_err", 0.0)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        summary.update(traced_iterations=len(traced), spans=len(tracer.spans),
                       trace_file=str(trace_path.relative_to(ROOT)))
    else:
        metrics = {name: value for name, (value, _) in report.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("perfbench: " + json.dumps(summary, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
