"""Importing the package, and running a subcommand, stays light."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mwright


def _fresh(code, cwd=None):
    """The stdout of code run in a fresh interpreter that imports mwright
    from this tree."""
    src = str(Path(mwright.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=cwd).stdout


def _loaded_after_import(module):
    """Whether a fresh `import mwright` loads the named module."""
    code = f"import sys, mwright; print({module!r} in sys.modules)"
    return _fresh(code).strip() == "True"


def _stats_after_commands(commands, cwd):
    """Per command, run in turn through cli.main in one fresh interpreter
    (stdout swallowed): its exit code and whether scipy.stats is loaded
    after it."""
    code = "\n".join([
        "import contextlib, io, json, sys",
        "from mwright import cli",
        "seen = []",
        f"for argv in {commands!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        rc = cli.main(argv)",
        "    seen.append([rc, 'scipy.stats' in sys.modules])",
        "print(json.dumps(seen))"])
    return json.loads(_fresh(code, cwd=cwd))


def test_import_does_not_load_scipy_stats():
    # scipy.stats would be most of the import time, and nothing uses it
    assert not _loaded_after_import("scipy.stats")


def test_import_does_not_load_scipy_linalg():
    # the Volterra solver works in the sine basis, so nothing needs LAPACK
    assert not _loaded_after_import("scipy.linalg")


def test_cli_import_loads_neither_scipy_stats_nor_verification():
    code = ("import json, sys, mwright.cli; print(json.dumps([m in "
            "sys.modules for m in ('scipy.stats', 'mwright.verification')]))")
    assert json.loads(_fresh(code)) == [False, False]


def test_verification_stays_an_attribute_of_the_package():
    # mwright.verification loads on first use, still without scipy.stats
    code = ("import sys, mwright; suites = mwright.verification.SUITES; "
            "print(sorted(suites), 'scipy.stats' in sys.modules)")
    assert _fresh(code).split("\n")[0] == (
        "['fraccalc', 'ggbm', 'greens', 'pairs', 'specfun'] False")


def test_subcommands_but_verify_do_not_load_scipy_stats(tmp_path):
    commands = [
        ["eval", "--function", "mwright", "--nu", "0.3", "--x", "2"],
        ["tabulate", "--function", "mwright", "--params", "0.3,0.7",
         "--xmin", "0", "--xmax", "8", "--step", "0.5", "--out", "t.csv"],
        ["green", "--alpha", "1.2", "--beta", "0.6", "--t", "1",
         "--out", "g.csv"],
        ["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1",
         "--nt", "16", "--out", "s.csv"],
        ["simulate", "--alpha", "1.2", "--beta", "0.6", "--n-paths", "200",
         "--out", "sim"],
    ]
    assert _stats_after_commands(commands, tmp_path) == [[0, False]] * 5
    # simulate's 200 paths also wrote statistics
    assert {p.name for p in tmp_path.iterdir()} >= {
        "t.csv", "g.csv", "s.csv", "sim_stats.json"}


def test_verify_never_loads_scipy_stats(tmp_path):
    # the ggBm suite's KS tests take their p-values from mwright._kstest
    assert _stats_after_commands(
        [["verify", "--suite", "all", "--out", "v.json"]],
        tmp_path) == [[0, False]]
