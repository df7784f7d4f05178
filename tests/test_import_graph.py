"""The import graph of a launch: a `series` export or `--help` loads the
series, forms, partitions and cache modules, and none of the check modules
or the standard-library modules only they use."""

# standard library
import ast
import os
import subprocess
import sys
from pathlib import Path
# test framework
from pytest import mark

parametrize = mark.parametrize

ROOT = Path(__file__).resolve().parent.parent

CHECK_ONLY = ("sptlab.verifier", "sptlab.hecke", "sptlab.gamma0", "sptlab.reports",
              "logging", "json", "fractions")

# runs `python -m sptlab.cli ARGS` in this interpreter, then prints the exit
# code and the CHECK_ONLY modules loaded, as a Python literal
LAUNCH = """
import runpy, sys
sys.argv = ["sptlab"] + sys.argv[1:]
try:
    runpy.run_module("sptlab.cli", run_name="__main__")
    rc = 0
except SystemExit as exc:
    rc = exc.code
sys.stderr.write(repr((rc, [m for m in %r if m in sys.modules])))
""" % (CHECK_ONLY,)


def launch(*args):
    """(exit code, stdout, loaded CHECK_ONLY modules) of one fresh launch."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH] + list(args), capture_output=True, text=True,
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    rc, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    return rc, proc.stdout, loaded


@parametrize('args', [["series", "p", "--n", "5"], ["series", "G", "--t", "5", "--n", "5"]],
             ids=["p", "G"])
def test_series_export_loads_no_check_module(tmp_path, args):
    rc, out, loaded = launch(*args, "--out", str(tmp_path))
    assert rc == 0 and loaded == []
    assert Path(out.strip()).parent == tmp_path


def test_help_loads_no_check_module():
    rc, out, loaded = launch("--help")
    assert rc == 0 and loaded == []
    assert "series" in out and "check" in out


def test_check_help_lists_the_registry():
    rc, out, loaded = launch("check", "--help")
    assert rc == 0 and "sptlab.verifier" in loaded
    assert "classical" in out and "e46d" in out


def test_check_still_runs_and_loads_the_check_modules():
    rc, out, loaded = launch("check", "classical")
    assert rc == 0 and "10 checks: 10 pass, 0 fail, 0 skipped" in out
    assert set(loaded) >= {"sptlab.verifier", "sptlab.hecke", "sptlab.gamma0", "sptlab.reports"}
