"""Write the golden references in golden/ from the program in this checkout.

    python3 perfbench/capture_golden.py

Run it from the root of a checkout only at a commit whose outputs are
trusted: the references define what every later benchmark run must
reproduce.  The exported tables are also checked against oracle.py here,
so a wrong table cannot become a reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK, prefix="golden-")
    try:
        proc = run.launch(["check", "all", "--format", "json", "--cache-dir",
                           os.path.join(workdir, "cache")], workdir)
        reports = [run.strip_report(r) for r in json.loads(proc.stdout)]
        if proc.rc != 0 or any(r["status"] != "pass" for r in reports):
            sys.exit("check all did not pass; refusing to capture")
        digests, tables = {}, {}
        for key, args in run.SERIES_EXACT:
            outdir = os.path.join(workdir, key)
            os.makedirs(outdir)
            table = run.exported_table(
                run.launch(["series"] + args + ["--out", outdir], workdir), outdir)
            if table is None:
                sys.exit("series %s failed; refusing to capture" % " ".join(args))
            digests[key], tables[args[0]] = table
        bad = run.oracle.check_tables(tables)
        if bad:
            sys.exit("oracle disagrees: %s" % "; ".join(bad.values()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(run.GOLDEN_CHECKS), exist_ok=True)
    with open(run.GOLDEN_CHECKS, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(run.GOLDEN_SERIES, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d report lines and %d table digests" % (len(reports), len(digests)))


if __name__ == "__main__":
    main()
