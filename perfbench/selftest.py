"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py        # from the root of a checkout, a few seconds

They check the tracer's self-time arithmetic, that one wrong report line or
table row is counted as exactly one failed op, that consecutive runs of the
program share no memo bank, and that the benchmark refuses a directory
without the program.  They are not part of the repository's test suite.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_parent_duration(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def leaf():
            clock.advance(2.0)

        def middle():
            clock.advance(1.0)
            t_leaf()
            clock.advance(0.5)
            t_leaf()

        def root():
            clock.advance(0.25)
            t_middle()
            t_leaf()

        t_leaf = tr.wrap(leaf, "leaf")
        t_middle = tr.wrap(middle, "middle")
        tr.wrap(root, "root")()

        for sid, parent, _name, start, end, own in tr.spans:
            children = [s for s in tr.spans if s[1] == sid]
            self.assertAlmostEqual(own, (end - start) - sum(c[4] - c[3] for c in children))
        (root_span,) = [s for s in tr.spans if s[1] == -1]
        self.assertAlmostEqual(sum(s[5] for s in tr.spans), root_span[4] - root_span[3])
        self.assertAlmostEqual(root_span[4] - root_span[3], 7.75)
        self.assertEqual(sorted(s[2] for s in tr.spans), ["leaf"] * 3 + ["middle", "root"])
        self.assertEqual(len({s[0] for s in tr.spans}), 5)

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def boom():
            clock.advance(1.0)
            raise ValueError("no")

        t_boom = tr.wrap(boom, "boom")

        def outer():
            try:
                t_boom()
            except ValueError:
                clock.advance(3.0)

        tr.wrap(outer, "outer")()
        own = {s[2]: s[5] for s in tr.spans}
        self.assertEqual(own, {"boom": 1.0, "outer": 3.0})


class OpsTest(unittest.TestCase):
    def setUp(self):
        with open(run.GOLDEN_CHECKS) as fh:
            self.golden = json.load(fh)
        self.reports = [dict(rep, elapsed_ms=1.0) for rep in copy.deepcopy(self.golden)]

    def score(self, reports, rc=0):
        return run.score_reports(json.dumps(reports), rc, self.golden)

    def test_golden_reports_pass(self):
        self.assertEqual(len(self.golden), 81)
        self.assertEqual(self.score(self.reports), (81, 0))

    def test_one_changed_n_verified_fails_one_op(self):
        self.reports[40]["n_verified"] += 1
        self.assertEqual(self.score(self.reports), (81, 1))

    def test_one_changed_status_fails_one_op(self):
        self.reports[7]["status"] = "fail"
        self.assertEqual(self.score(self.reports, rc=1), (81, 1))

    def test_crash_fails_every_op(self):
        self.assertEqual(run.score_reports("Traceback", 1, self.golden), (81, 81))

    def test_one_wrong_table_row_fails_one_op(self):
        with open(run.GOLDEN_SERIES) as fh:
            golden = json.load(fh)
        # every other table as the golden digest and the oracle's values
        p, spt = run.oracle.partition_counts(60), run.oracle.spt_counts(60)
        oracle_rows = {
            "spt": dict(enumerate(spt)),
            "a": {i: 12 * spt[i] + (24 * i - 1) * p[i] for i in range(61)},
            "delta": dict(enumerate(run.oracle.tau_values(30))),
            "j": dict(run.oracle.J_COEFFS),
        }
        tables = {key: (golden[key], oracle_rows.get(args[0], {}))
                  for key, args in run.SERIES_EXACT}
        os.makedirs(run.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.WORK, prefix="selftest-")
        try:
            proc = run.launch(["series", "p", "--n", "5000", "--out", workdir], workdir)
            tables["p"] = run.exported_table(proc, workdir)
            self.assertEqual(run.score_tables(run.SERIES_EXACT, tables, golden), (10, 0))
            path = proc.stdout.strip().splitlines()[-1]
            with open(path) as fh:
                text = fh.read()
            bad_row = text.replace("\n100 190569292\n", "\n100 190569293\n")
            bad_header = text.replace("nmax=5000", "nmax=5001")
            for bad in (bad_row, bad_header):
                self.assertNotEqual(bad, text)
                with open(path, "w") as fh:
                    fh.write(bad)
                tables["p"] = run.exported_table(proc, workdir)
                self.assertEqual(run.score_tables(run.SERIES_EXACT, tables, golden), (10, 1))
            # the oracle catches the row on its own, without the digest
            self.assertIn("p(100)", run.oracle.check_tables({"p": run.read_rows(bad_row)})["p"])
        finally:
            shutil.rmtree(workdir)


class FreshProcessTest(unittest.TestCase):
    def test_consecutive_runs_share_no_bank(self):
        os.makedirs(run.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.WORK, prefix="selftest-")
        try:
            for _ in range(2):
                proc = run.launch(["series", "a", "--n", "300", "--out", workdir], workdir, trace=True)
                self.assertEqual(proc.rc, 0)
                values = run.layer_values(run.Round([proc], 1, 0, True))
                # a, p and spt are all built again: nothing survived the last process
                self.assertEqual(values["partitions.stream.builds"], 3)
                self.assertEqual(values["partitions.stream.hits"], 0)
        finally:
            shutil.rmtree(workdir)


class RefusalTest(unittest.TestCase):
    def test_no_result_without_the_program(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK, prefix="selftest-")
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "series-exact",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
