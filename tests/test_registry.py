# standard library
import importlib.util
import inspect
import json
from pathlib import Path
# test framework
from pytest import mark, raises
# local package
from sptlab import cli
from sptlab.reports import CongruenceReport
from sptlab.verifier import REGISTRY, CheckOptions, run_checks

parametrize = mark.parametrize

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "capture_check_overrides", ROOT / "scripts" / "capture_check_overrides.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

with open(ROOT / "tests" / "data" / "check_overrides.json") as _fh:
    FIXTURE = json.load(_fh)

CASES = capture.cases()


def test_fixture_covers_every_case():
    assert set(FIXTURE) == set(CASES)
    assert {key.split()[0] for key in CASES} == set(REGISTRY) | {"all"}


@parametrize("key", sorted(CASES))
def test_check_under_overrides_matches_the_fixture(bank_guard, key):
    """Exit code, stderr and report digest of `check <name> <overrides>`."""
    assert capture.outcome(CASES[key]) == FIXTURE[key]


@parametrize("name", list(REGISTRY))
def test_row_returns_zero_argument_tasks_of_reports(bank_guard, name):
    """What run_checks and perfbench's tracer rely on: a registry value called
    with CheckOptions returns zero-argument callables, each returning a list
    of reports."""
    tasks = REGISTRY[name](CheckOptions())
    assert isinstance(tasks, list) and tasks
    for task in tasks:
        inspect.signature(task).bind()
        reports = task()
        assert isinstance(reports, list) and reports
        assert all(isinstance(r, CongruenceReport) for r in reports)


@parametrize("name, flag, value", [
    ("classical", "mod", "72"),
    ("level1", "nmax", "12"),
    ("e46d", "ell", "11"),
    ("zell", "t", "7"),
])
def test_single_check_rejects_an_override_it_does_not_read(capsys, name, flag, value):
    assert cli.main(["check", name, "--" + flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == "sptlab: check %s takes no --%s\n" % (name, flag)
    assert captured.out == ""


def test_mod_exact_and_unknown_names_are_not_override_errors(bank_guard, capsys):
    assert cli.main(["check", "e46d", "--mod", "exact"]) == 0
    assert cli.main(["check", "no-such-check", "--ell", "11"]) == 2
    assert "unknown check 'no-such-check'" in capsys.readouterr().err


@parametrize("name", ["spt-prime-powers", "a-atkin", "a-atkin-beta", "atkin-gamma"])
def test_a_level_outside_the_theorem_is_an_error(name):
    """The CLI offers only --t 5, 7 or 13; a caller of run_checks gets an
    error for any other level, not an empty grid."""
    with raises(ValueError, match="t must be one of"):
        run_checks([name], CheckOptions(t=11))


@parametrize("name, ell", [("spt-hecke", 25), ("mell", 49)])
def test_a_bad_ell_is_an_error_before_any_table_is_built(bank_guard, capsys, name, ell):
    """The master prewarm reads the largest l^2 n of the grid, so a bad --ell
    must be rejected before it: ell = 49 would build p, spt and a to 520,000."""
    bank_guard.clear()
    assert cli.main(["check", name, "--ell", str(ell)]) == 2
    assert capsys.readouterr().err == "sptlab: ell must be a prime >= 5, got %d\n" % ell
    assert not bank_guard
