"""What ``import tapermode`` loads, checked in a fresh interpreter.

A subprocess is used so that modules imported by other tests (the
references here import ``scipy.optimize``, ``scipy.signal`` and
``scipy.integrate``) cannot hide an import the package itself makes.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
