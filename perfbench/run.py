"""sptlab benchmark: `check all` cold and warm, and an exact series export.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-all-cold --seed 1 --seconds 30 --trace 0

Every timed `sptlab` call is a fresh interpreter with `src/` on its path and
no `--jobs`, so one process and one thread: `forms._bank` and
`partitions._tables` memoise within a process and must not carry over.
A run sets up, then repeats the workload's round for as many rounds as fit
in `--seconds` (at least one; a traced run does at least one traced and one
untraced round).  Every output is checked against the golden references in
`golden/` and, for the exported tables, against `oracle.py`.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer ones
with `--trace 1`.  See README.md for the workloads and rules.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACER = os.path.join(HERE, "tracer.py")
GOLDEN_CHECKS = os.path.join(HERE, "golden", "check_all.json")
GOLDEN_SERIES = os.path.join(HERE, "golden", "series_exact.json")

# (kind, arguments) per exported table; each is its own `sptlab series` call
SERIES_EXACT = [
    ("G5", ["G", "--t", "5", "--n", "1200"]),
    ("G13", ["G", "--t", "13", "--n", "1200"]),
    ("phi7", ["phi", "--t", "7", "--n", "1200"]),
    ("E2t13", ["E2t", "--t", "13", "--n", "1200"]),
    ("j", ["j", "--n", "2000"]),
    ("e14_over_delta", ["e14_over_delta", "--n", "2000"]),
    ("delta", ["delta", "--n", "3000"]),
    ("p", ["p", "--n", "5000"]),
    ("spt", ["spt", "--n", "3000"]),
    ("a", ["a", "--n", "3000"]),
]

PREFLIGHT_REPEATS = 11

REGISTRY_NAMES = [
    "classical", "zell", "xi", "mell", "spt-hecke", "spt-ell-square",
    "spt-prime-powers", "a-atkin", "a-atkin-beta", "level1", "atkin-gamma",
    "s-forms", "beta-vanish", "lemma-congruences", "e46d",
]

# per-layer metrics: (name, unit); names are <module>.<function>.<stat>
PER_LAYER = (
    [("partitions.%s.%s" % (f, s), u)
     for f in ("spt_stream_mod", "spt_stream_exact", "partition_stream")
     for s, u in (("calls", "count"), ("self_s", "s"), ("coeffs", "count"))]
    + [("partitions.stream.%s" % s, "count") for s in ("calls", "hits", "reductions", "builds")]
    + [("partitions.stream.reuse_ratio", "ratio")]
    + [("series.%s.%s" % (f, s), u)
       for f in ("invert_mod", "mul_mod", "mul_exact", "invert_exact")
       for s, u in (("calls", "count"), ("self_s", "s"), ("coeffs", "count"))]
    + [("series.mul_mod.bytes_computed", "B")]
    + [("forms.%s.self_s" % f, "s")
       for f in ("euler_product", "eisenstein", "delta_series", "j_series",
                 "e14_over_delta", "eta_pow")]
    + [("forms.form.%s" % s, "count") for s in ("calls", "hits", "builds")]
    + [("gamma0.%s.self_s" % f, "s")
       for f in ("hauptmodul", "e2t", "phi_t", "beta_stream", "decompose_gamma0")]
    + [("cache.scan.calls", "count"), ("cache.scan.self_s", "s")]
    + [("cache.%s.%s" % (f, s), u)
       for f in ("load", "store")
       for s, u in (("calls", "count"), ("self_s", "s"), ("bytes", "B"), ("rows", "count"))]
    + [("cache.load.misses", "count")]
    + [("hecke.hecke_combo.calls", "count"), ("hecke.hecke_combo.self_s", "s"),
       ("hecke.hecke_combo.terms", "count"), ("hecke.decompose_level1.self_s", "s")]
    + [("verifier.sweep.self_s", "s")]
    + [("verifier.check.%s.wall_s" % name, "s") for name in REGISTRY_NAMES]
    + [("reports.elapsed_coverage", "ratio"), ("cli.startup_s", "s"), ("cli.import_s", "s"),
       ("cli.main.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.accounted_share", "ratio"), ("trace.overhead_s", "s")]
)


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- launching sptlab ----------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Proc:
    """One finished sptlab process: exit code, output and its own resource use."""

    def __init__(self, rc, stdout, start, wall_s, cpu_s, rss_mb, spans):
        self.rc, self.stdout, self.start = rc, stdout, start
        self.wall_s, self.cpu_s, self.rss_mb = wall_s, cpu_s, rss_mb
        self.spans = spans


def launch(args, workdir, trace=False):
    """Run `sptlab <args>` in a fresh interpreter; time it from launch to exit."""
    fd, out_path = tempfile.mkstemp(dir=workdir, suffix=".out")
    os.close(fd)
    spans_path = out_path[:-4] + ".spans.json"
    if trace:
        argv = [sys.executable, TRACER, spans_path] + list(args)
    else:
        argv = [sys.executable, "-m", "sptlab.cli"] + list(args)
    env = _child_env()
    with open(out_path, "w") as out, open(os.devnull, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    os.unlink(out_path)
    spans = None
    if trace and os.path.exists(spans_path):
        with open(spans_path) as fh:
            spans = json.load(fh)
        os.unlink(spans_path)
    return Proc(proc.returncode, stdout, start, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, spans)


# -- correctness ---------------------------------------------------------------


def strip_report(rep):
    """A report line without its timing: the behavioural contract."""
    return {k: v for k, v in rep.items() if k != "elapsed_ms"}


def score_reports(stdout, rc, golden):
    """(attempted, failed) for one `check all --format json` process.

    One op per report line; a line fails unless it equals its golden line
    and reads PASS.  Output that does not parse, or an exit code other
    than 0/1, fails every line; exit 1 with no failing line counts once.
    """
    try:
        got = json.loads(stdout)
    except ValueError:
        got = None
    if not isinstance(got, list) or rc not in (0, 1):
        return len(golden), len(golden)
    attempted = max(len(got), len(golden))
    good = sum(
        1 for rep, want in zip(got, golden)
        if isinstance(rep, dict) and strip_report(rep) == want and rep.get("status") == "pass"
    )
    failed = attempted - good
    if failed == 0 and rc != 0:
        failed = 1
    return attempted, failed


def read_rows(text):
    """{index: value} from an exported table: every line holding two integers."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                rows[int(parts[0])] = int(parts[1])
            except ValueError:
                continue
    return rows


def exported_table(proc, outdir):
    """(SHA-256 of the whole file, its rows) for the table a `series --out`
    call wrote, or None.  The digest covers the header too."""
    lines = proc.stdout.strip().splitlines()
    if proc.rc != 0 or not lines:
        return None
    path = os.path.abspath(lines[-1])
    if os.path.dirname(path) != os.path.abspath(outdir) or not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), read_rows(data.decode("ascii", "replace"))


def score_tables(order, tables, golden):
    """(attempted, failed) for one series round: one op per exported table.

    `tables` maps each key of `order` to exported_table's result.  A table
    fails when it is missing, its digest differs from the golden one, or
    the independent oracle disagrees with its kind.
    """
    wrong = oracle.check_tables(
        {args[0]: tables[key][1] for key, args in order if tables[key] is not None})
    failed = sum(
        1 for key, args in order
        if tables[key] is None or tables[key][0] != golden.get(key) or args[0] in wrong
    )
    return len(order), failed


# -- rounds --------------------------------------------------------------------


class Round:
    """One repetition of a workload: its processes, summed or maxed."""

    def __init__(self, procs, attempted, failed, traced):
        self.procs = procs
        self.attempted, self.failed, self.traced = attempted, failed, traced
        self.wall_s = sum(p.wall_s for p in procs)
        self.cpu_s = sum(p.cpu_s for p in procs)
        self.rss_mb = max(p.rss_mb for p in procs)


def check_round(workdir, cache_dir, golden, trace=False):
    proc = launch(["check", "all", "--format", "json", "--cache-dir", cache_dir], workdir, trace)
    attempted, failed = score_reports(proc.stdout, proc.rc, golden)
    return Round([proc], attempted, failed, trace)


def series_round(workdir, order, golden, trace=False):
    outdir = tempfile.mkdtemp(dir=workdir, prefix="tables-")
    procs, tables = [], {}
    for key, args in order:
        proc = launch(["series"] + args + ["--out", outdir], workdir, trace)
        procs.append(proc)
        tables[key] = exported_table(proc, outdir)
    shutil.rmtree(outdir)
    return Round(procs, *score_tables(order, tables, golden), trace)


class Workload:
    """Set-up and one round for a named workload."""

    def __init__(self, name, workdir, seed):
        self.name, self.workdir = name, workdir
        self.setup_rounds = []  # rounds run during set-up, also checked
        if name == "series-exact":
            with open(GOLDEN_SERIES) as fh:
                self.golden = json.load(fh)
            self.order = list(SERIES_EXACT)
            random.Random(seed).shuffle(self.order)
        else:
            with open(GOLDEN_CHECKS) as fh:
                self.golden = json.load(fh)

    def setup(self):
        """Returns the set-up time to report.

        Each workload starts the program once to show that it runs; the cold
        and series workloads repeat that and report the median.  The warm
        workload's set-up is a cold `check all` of the code under test into
        the cache dir that every warm round then reads, done once because it
        costs a whole cold run.
        """
        times = []
        for _ in range(1 if self.name == "check-all-warm" else PREFLIGHT_REPEATS):
            start = time.perf_counter()
            proc = launch(["--help"], self.workdir)
            if proc.rc != 0:
                raise BenchError("sptlab does not start in this checkout (exit %d)" % proc.rc)
            times.append(time.perf_counter() - start)
        setup_s = statistics.median(times)
        if self.name == "check-all-warm":
            start = time.perf_counter()
            self.cache_dir = tempfile.mkdtemp(dir=self.workdir, prefix="cache-")
            self.setup_rounds.append(check_round(self.workdir, self.cache_dir, self.golden))
            setup_s += time.perf_counter() - start
        return setup_s

    def round(self, trace):
        if self.name == "series-exact":
            return series_round(self.workdir, self.order, self.golden, trace)
        if self.name == "check-all-cold":
            cache_dir = tempfile.mkdtemp(dir=self.workdir, prefix="cache-")
            rnd = check_round(self.workdir, cache_dir, self.golden, trace)
            shutil.rmtree(cache_dir)
            return rnd
        return check_round(self.workdir, self.cache_dir, self.golden, trace)


WORKLOADS = ("check-all-cold", "check-all-warm", "series-exact")


def measure(workload, seconds, trace):
    """Repeat rounds while the next one should still end within `seconds`
    (at least one).  A traced run alternates traced and untraced rounds, at
    least one of each, so the tracing overhead comes from the same run."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and not any(r.traced for r in rounds[-1:])
        rounds.append(workload.round(traced))
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(rounds)
        if next_end > seconds and (not trace or {r.traced for r in rounds} == {True, False}):
            return rounds


# -- metrics -------------------------------------------------------------------


def end_to_end(rounds, setup_s):
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "cpu_s": (med(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (med(r.rss_mb for r in rounds), "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_values(rnd):
    """Per-layer values of one traced round, summed over its processes."""
    calls, self_s, total_s, counts = {}, {}, {}, {}
    startup_s = import_s = elapsed_s = 0.0
    for proc in rnd.procs:
        trace = proc.spans or {"t0": proc.start, "import_s": 0.0, "spans": [], "counts": {}}
        startup_s += trace["t0"] - proc.start
        import_s += trace["import_s"]
        for _sid, _parent, name, start, end, own in trace["spans"]:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
        try:
            reports = json.loads(proc.stdout)
            elapsed_s += sum(r.get("elapsed_ms", 0.0) for r in reports) / 1000.0
        except (ValueError, AttributeError, TypeError):
            pass
    values = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif stat == "wall_s":
            values[name] = total_s.get(layer, 0.0)
        elif unit != "ratio" and not name.startswith(("trace.", "cli.")):
            values[name] = counts.get(name, 0)
    served = counts.get("partitions.stream.hits", 0) + counts.get("partitions.stream.reductions", 0)
    values["partitions.stream.reuse_ratio"] = served / max(1, values["partitions.stream.calls"])
    values["verifier.sweep.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("verifier.check.")
    )
    values["reports.elapsed_coverage"] = elapsed_s / rnd.wall_s
    values["cli.startup_s"] = startup_s
    values["cli.import_s"] = import_s
    values["trace.wall_s"] = rnd.wall_s
    values["trace.accounted_share"] = (startup_s + import_s + sum(self_s.values())) / rnd.wall_s
    return values


def per_layer(rounds):
    traced = [layer_values(r) for r in rounds if r.traced]
    plain = [r.wall_s for r in rounds if not r.traced]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(v["trace.wall_s"] for v in traced) - statistics.median(plain)
        else:
            value = statistics.median(v[name] for v in traced)
        out[name] = (value, unit)
    return out


def machine_info():
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return "nproc=%d python=%s numpy=%s" % (os.cpu_count() or 0, platform.python_version(), numpy)


def run(workload_name, seed, seconds, trace):
    for path in (os.path.join(SRC, "sptlab", "cli.py"), GOLDEN_CHECKS, GOLDEN_SERIES):
        if not os.path.isfile(path):
            raise BenchError("missing %s; run from the root of an sptlab checkout" % path)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=workload_name + "-")
    try:
        workload = Workload(workload_name, workdir, seed)
        setup_s = workload.setup()
        rounds = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checked = workload.setup_rounds + rounds
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    metrics = per_layer(rounds) if trace else end_to_end(rounds, setup_s)
    print("workload=%s seed=%d seconds=%d trace=%d %s"
          % (workload_name, seed, seconds, trace, machine_info()))
    for r in rounds:
        print("  round%s wall_s %.4f cpu_s %.4f"
              % (" (traced)" if r.traced else "", r.wall_s, r.cpu_s))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6f %s" % (name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its child and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
