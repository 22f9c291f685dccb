"""Importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import mwright


def _loaded_after_import(module):
    """Whether a fresh `import mwright` loads the named module."""
    src = str(Path(mwright.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, mwright; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_import_does_not_load_scipy_stats():
    # scipy.stats is most of the import time; only the verify suites use it
    assert not _loaded_after_import("scipy.stats")


def test_import_does_not_load_scipy_linalg():
    # the Volterra solver works in the sine basis, so nothing needs LAPACK
    assert not _loaded_after_import("scipy.linalg")
