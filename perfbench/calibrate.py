"""Fixed reference jobs that measure how fast the host runs right now.

The benchmark's machine is shared: the same tapermode iteration runs 20 to
50 % slower for minutes at a time when other tenants are busy, and work
that does not touch tapermode slows down with it. Two jobs that never
change measure the host's pace, and ``run.py`` times one of them next to
every timed sample and divides, so a slow spell cancels out of the
reported times:

- :func:`run` does, in this process, the kinds of work tapermode's
  iterations do: interpreted Python with dicts, strings and JSON, CSV
  formatting, small numpy element-wise operations, a small symmetric
  eigensolve and a small ``least_squares`` fit. It paces the iterations.
- :func:`startup` starts a fresh interpreter that imports a fixed set of
  standard-library modules. It paces the set-up interpreters, whose time
  goes to loading modules and tracks the host differently from compute.

Nothing here imports tapermode, so no change to tapermode can move either
reference. Their inputs are fixed; they do not depend on the workload seed.
"""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import least_squares

#: Durations of :func:`run` and :func:`startup` on the reference host [s]:
#: the machine in README.md, median over its quiet and busy spells.
#: Host-corrected times are quoted as seconds on a host that runs the jobs
#: in these times.
REFERENCE_S = 0.090
REFERENCE_STARTUP_S = 0.185

_STARTUP = [sys.executable, "-c",
            "import argparse, asyncio, concurrent.futures, csv, decimal, email.mime.multipart, "
            "http.server, json, logging, multiprocessing, pydoc, sqlite3, ssl, tarfile, "
            "unittest, xml.dom.minidom, zipfile"]

_RNG = np.random.default_rng(20260101)
_MATRIX = _RNG.random((40, 40))
_MATRIX = _MATRIX + _MATRIX.T
_X = np.linspace(-5.0, 5.0, 400)
_Y = 1.0 / (1.0 + ((_X - 0.3) / 0.7) ** 2) + 0.01 * _RNG.standard_normal(_X.size)
_ROWS = _RNG.random((800, 6)).tolist()
_SMALL = _RNG.random(8)


def _python() -> None:
    counts: dict = {}
    for i in range(60_000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    json.loads(json.dumps([counts] * 50))


def _csv() -> None:
    for _ in range(3):
        writer = csv.writer(io.StringIO())
        for row in _ROWS:
            writer.writerow([f"{v:.12g}" for v in row])


def _elementwise() -> None:
    v = _SMALL
    for _ in range(5_000):
        v = np.sqrt(v * v + 1.0) - np.abs(v) * 0.5


def _eigensolve() -> None:
    for _ in range(100):
        np.linalg.eigh(_MATRIX)


def _fit() -> None:
    def residual(p):
        return p[0] / (1.0 + ((_X - p[1]) / p[2]) ** 2) - _Y

    for _ in range(6):
        least_squares(residual, [0.5, 0.0, 1.5])


def run() -> float:
    """Wall time of one pass of the in-process reference job [s]."""
    start = time.perf_counter()
    for part in (_python, _csv, _elementwise, _eigensolve, _fit):
        part()
    return time.perf_counter() - start


def pace(at_least: float) -> float:
    """Mean time of one :func:`run` pass [s], over passes lasting ``at_least`` seconds.

    At least one pass runs, so ``pace(0.0)`` is a single pass.
    """
    passes = [run()]
    while sum(passes) < at_least:
        passes.append(run())
    return sum(passes) / len(passes)


def startup() -> float:
    """Wall time of one fresh interpreter that imports the reference modules [s]."""
    start = time.perf_counter()
    subprocess.run(_STARTUP, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start
