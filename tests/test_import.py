"""Importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import mwright


def test_import_does_not_load_scipy_stats():
    # scipy.stats is most of the import time; only the verify suites use it
    src = str(Path(mwright.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, mwright; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
