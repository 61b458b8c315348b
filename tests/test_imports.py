"""What ``import tapermode`` loads, and the names the benchmark tracer needs from it.

A subprocess is used so that modules imported by other tests (the
references here import ``scipy.optimize``, ``scipy.signal`` and
``scipy.integrate``) cannot hide an import the package itself makes.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import sys
import tapermode
print(tapermode.__file__)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_import_loads_no_scipy_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    location, loaded = result.stdout.split("\n")[:2]
    assert Path(location).resolve().parent == (SRC / "tapermode").resolve()
    assert loaded == ""


def test_every_traced_name_resolves():
    """``perfbench/spans.py`` rebinds each ``(module, name)`` of ``TRACED`` and fails on a
    missing one, so a rename in the package must fail here first."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, name, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.TRACED and missing == []


def test_every_exported_name_resolves():
    """``from tapermode import *`` fails on a name left in ``__all__`` after its import is gone."""
    import tapermode

    missing = [name for name in tapermode.__all__ if not hasattr(tapermode, name)]
    assert missing == []
    assert "fit_lorentzian_sum" not in tapermode.__all__
