"""Write tests/data/check_overrides.json from the program in this checkout.

    PYTHONPATH=src python3 scripts/capture_check_overrides.py

Run it from the root of a checkout, and only at a parent commit, before the
change that the fixture is meant to hold fixed: the fixture records what
`sptlab check` does for every registry name under each override set in
OVERRIDES (and `all` under ALL_OVERRIDES), and tests/test_registry.py holds
every later commit to it.  Each case keeps the exit code, stderr, and the
SHA-256 of the report JSON without `elapsed_ms`.  Every case starts on an
empty memo bank.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from sptlab import cli, forms
from sptlab.verifier import REGISTRY

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "tests", "data", "check_overrides.json")

OVERRIDES = (
    (),
    ("--ell", "11"),
    ("--ell", "5,7"),
    ("--t", "7"),
    ("--t", "13", "--ell", "13"),
    ("--nmax", "12"),
    ("--mod", "exact", "--nmax", "8"),
    ("--mod", "72"),
    ("--mod", "7", "--ell", "11"),
    ("--ell", "17", "--nmax", "6"),
)
# `check all` runs every row, so it takes only two sets that narrow the grids
ALL_OVERRIDES = (("--t", "7"), ("--mod", "72"))


def cases():
    """The argv of every case, keyed by name and overrides."""
    grid = [(name, extra) for name in REGISTRY for extra in OVERRIDES]
    grid += [("all", extra) for extra in ALL_OVERRIDES]
    return {" ".join((name,) + extra): ["check", name, "--format", "json", *extra]
            for name, extra in grid}


def outcome(argv):
    """[exit code, stderr, SHA-256 of the reports without elapsed_ms or None]
    of one `sptlab` run in this process, on an empty memo bank."""
    forms._bank.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    digest = None
    if out.getvalue():
        reports = json.loads(out.getvalue())
        for r in reports:
            del r["elapsed_ms"]
        text = json.dumps(reports, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
    return [rc, err.getvalue(), digest]


def main():
    table = {key: outcome(argv) for key, argv in cases().items()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(" %s: %s" % (json.dumps(k), json.dumps(v))
                            for k, v in sorted(table.items())))
        fh.write("\n}\n")
    print("wrote %d cases to %s" % (len(table), os.path.normpath(FIXTURE)))


if __name__ == "__main__":
    main()
