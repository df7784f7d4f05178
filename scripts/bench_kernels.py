"""Time the series kernels on fixed operands, alternating checkouts case by case.

The cases are the two Newton inversions behind the modular p tables (p mod
360360 at 40,001 terms, the master table of `check all`, and p mod 169 at
18,584 terms, for the 13^2 sweep) and ten exact products, all taken by the
limb-column kernel: the eight largest shapes that `check all` and the ten
`series --out` exports of the benchmark multiply, a long operand of few bits
(3,001 terms at 22 bits, from the delta export) and a short operand of many
bits (111 terms at 155 and 192 bits, from `check all`).  Each is
regenerated from a fixed seed as random signed ints of the same lengths and
bit sizes.  Three pairs of eta-quotient builds follow, each pair one series
by two paths: the exact factor (q)_inf^-6 of the G_5 export (1,200 terms,
so 242 terms before the dilation q -> q^5) by Miller's recurrence and as
the sixth power of the bank's p, whose build the minimum leaves out; the
(eta/eta(5z))^6 of the s-forms display to q^104, as a product of its two
factors and as the inverse of its reciprocal eta(5z)^6/eta^6; and G_5^-3
mod 5^6 at 110 terms, as the eta-quotient (eta(5z)/eta)^18 and as the cube
of the inverted hauptmodul.  Then come the polynomial family A_0..A_7 of
hecke.ono_poly_A and two Gamma0(t) solves: e46d_decompose(13), E4^2
E6/Delta over E2,13 G_13^j for j = -13..1, and the a = 8 step of the epsilon
ladder, (E4^2 E6/Delta) j^7 mod 5^6 to q^43 over E2,5 G_5^j for j = -40..8.
The last case is a launch: a fresh `python -m sptlab.cli series p --n 0
--out DIR`, timed by the child's CPU seconds (user plus system, from
os.wait4) rather than by wall time.  It measures what every `series` export
pays before its table: interpreter start-up, numpy and the sptlab modules
the export imports.  The child writes no bytecode, so on a tree without
__pycache__ directories, such as a fresh checkout, each launch compiles
those modules from source.

    python scripts/bench_kernels.py --side parent=../parent/src --side change=src

Each --side LABEL=SRC starts one worker process that imports sptlab from SRC
(default: one side, "change", this checkout's src).  In each of ROUNDS
rounds every case is timed in every worker in turn, the first worker
rotating from round to round, so drift of the host lands in each side's
spread rather than between the sides.  A sample is the minimum of --repeat
calls; each side reports the median of its samples and their range.  The
figures go under each label into --out (default: BENCH_kernels.json at the
checkout root), next to the labels already there.  A SHA-256 of each result
shows whether two sides computed the same coefficients.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 7

# (name, modulus, terms) of the Newton inversions of the Euler product
INVERSIONS = [("invert_mod 360360 x 40001", 360360, 40001),
              ("invert_mod 169 x 18584", 169, 18584)]

# (name, terms of each operand, bits of a, bits of b); n_out is the length
PRODUCTS = [
    ("check all: 2175^2 at 7/159 bits", 2175, 7, 159),
    ("check all: 2531^2 at 16/173 bits", 2531, 16, 173),
    ("check all: 4956^2 at 16/246 bits", 4956, 16, 246),
    ("series j: 2002^2 at 128/737 bits", 2002, 128, 737),
    ("series e14_over_delta: 2003^2 at 86/64 bits", 2003, 86, 64),
    ("series e14_over_delta: 2002^2 at 148/737 bits", 2002, 148, 737),
    ("series spt: 3001^2 at 8/189 bits", 3001, 8, 189),
    ("series a: 3001^2 at 8/189 bits", 3001, 8, 189),
    ("series delta: 3001^2 at 22/22 bits", 3001, 22, 22),
    ("check all: 111^2 at 155/192 bits", 111, 155, 192),
]


def operand(rng, terms, bits):
    """terms random signed ints below 2^bits in absolute value, the first of
    exactly bits bits."""
    out = [rng.randrange(-(1 << bits) + 1, 1 << bits) for _ in range(terms)]
    out[0] = (1 << bits) - 1
    return out


LAUNCH = "launch: series p --n 0 --out DIR (child CPU)"


def best_of(repeat, fn, self_timed=False):
    """The least of repeat timings of fn, and its last result: wall time, or
    the seconds a self-timed fn returns with its result as (seconds, result)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if self_timed:
            dt, out = out
        times.append(dt)
    return min(times), out


def launch_cpu(src):
    """(CPU seconds, lines of the file written) of one fresh `python -m
    sptlab.cli series p --n 0 --out DIR` importing sptlab from src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sptlab.cli", "series", "p", "--n", "0", "--out", out],
            cwd=out, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise SystemExit("the launch exited with %d" % proc.returncode)
        with open(os.path.join(out, "p_n0_m0.qsc")) as fh:
            return usage.ru_utime + usage.ru_stime, fh.read().splitlines()


def digest(values):
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


def case_table(src):
    """(name, build) of every case, from sptlab functions every checkout has;
    each build returns the coefficients as a flat list, or a tuple of them,
    except the launch, which returns (CPU seconds, lines)."""
    from sptlab import series
    from sptlab.forms import (_euler_power, e14_over_delta, eta_quotient, euler_product,
                              inverse_euler, j_series)
    from sptlab.gamma0 import e46d_decompose, hauptmodul, solve_in_e2t_basis
    from sptlab.hecke import ono_poly_A
    from sptlab.series import Series

    cases = []
    for name, m, terms in INVERSIONS:
        a = euler_product(terms - 1, m).coeffs
        cases.append((name, lambda a=a, m=m: series._invert_mod(a, m, 1).tolist()))
    for seed, (name, terms, bits_a, bits_b) in enumerate(PRODUCTS):
        rng = random.Random(seed)
        a, b = operand(rng, terms, bits_a), operand(rng, terms, bits_b)
        cases.append((name, lambda a=a, b=b, n=terms: series._conv_exact(a, b, n)))

    g5 = -(-1201 // 5) + 1  # terms of (q^5)_inf^-6 in G_5 to q^1200

    def direct():  # (q)^6 (q^5)^-6 through q^105, as forms.eta_quotient builds it
        return (euler_product(105) ** 6).mul(Series(_euler_power(-6, 21)).dilate(5))

    def inverted():  # the reciprocal at the length the s-forms display used to build it
        recip = Series(_euler_power(-6, 145)).mul((euler_product(29) ** 6).dilate(5))
        return recip.invert().truncate(105)

    def g5_cubed():  # (1/G_5)^3 mod 5^6 on q^3..q^112
        return hauptmodul(5, 108, 5**6).invert() ** 3

    ladder = e14_over_delta(60, 5**6).mul(j_series(60, 5**6) ** 7).truncate(43)

    return cases + [
        ("G5 factor (q)^-6 x %d: Miller recurrence" % g5,
         lambda: _euler_power(-6, g5 - 1)),
        ("G5 factor (q)^-6 x %d: power of p" % g5,
         lambda: (inverse_euler(g5 - 1) ** 6).coeffs.tolist()),
        ("s-forms (eta/eta(5z))^6 x 106: direct", lambda: direct().coeffs.tolist()),
        ("s-forms (eta/eta(5z))^6 x 106: inverted reciprocal",
         lambda: inverted().coeffs.tolist()),
        ("G5^-3 mod 5^6 x 110: (eta(5z)/eta)^18",
         lambda: eta_quotient({1: -18, 5: 18}, 112, 5**6).coeffs.tolist()),
        ("G5^-3 mod 5^6 x 110: inverted hauptmodul cubed",
         lambda: g5_cubed().coeffs.tolist()),
        ("ono_poly_A(7)", lambda: ono_poly_A(7)),
        ("e46d_decompose(13)", lambda: e46d_decompose(13).coeffs),
        ("epsilon ladder a = 8: solve mod 5^6 to q^43",
         lambda: solve_in_e2t_basis(ladder, 5, 8).coeffs),
        (LAUNCH, lambda: launch_cpu(src)),
    ]


def worker(src):
    """Serve timing requests on stdin, one JSON [name, repeat] a line, with
    sptlab imported from src: first the case names, then one {ms, sha256}
    line per request."""
    sys.path.insert(0, os.path.abspath(src))
    table = dict(case_table(src))
    print(json.dumps(list(table)), flush=True)
    for line in sys.stdin:
        name, repeat = json.loads(line)
        dt, out = best_of(repeat, table[name], self_timed=name == LAUNCH)
        print(json.dumps({"ms": 1e3 * dt, "sha256": digest(out)}), flush=True)


def ask(proc, name, repeat):
    proc.stdin.write(json.dumps([name, repeat]) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def summary(samples):
    ms = sorted(samples)
    return {"ms": round(statistics.median(ms), 3),
            "range_ms": [round(ms[0], 3), round(ms[-1], 3)],
            "samples_ms": [round(x, 3) for x in samples]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", metavar="LABEL=SRC",
                    help="a label and the src directory to import sptlab from")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernels.json"))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    sides = [side.split("=", 1) for side in args.side or ["change=" + os.path.join(ROOT, "src")]]
    labels = [label for label, _ in sides]
    procs = {label: subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for label, src in sides}
    try:
        names = [json.loads(procs[label].stdout.readline()) for label in labels]
        if any(n != names[0] for n in names):
            raise SystemExit("the sides define different cases")
        samples = {label: {name: [] for name in names[0]} for label in labels}
        sha = {label: {} for label in labels}
        for r in range(ROUNDS):
            order = labels[r % len(labels):] + labels[:r % len(labels)]
            for name in names[0]:
                for label in order:
                    got = ask(procs[label], name, args.repeat)
                    samples[label][name].append(got["ms"])
                    sha[label][name] = got["sha256"]
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()

    cases = {label: {name: dict(summary(xs), sha256=sha[label][name])
                      for name, xs in samples[label].items()} for label in labels}
    print("%-52s %s" % ("ms: median [min, max] of %d rounds" % ROUNDS,
                        "  ".join("%-26s" % label for label in labels)))
    for name in names[0]:
        cells = ["%8.2f [%7.2f, %7.2f]" % ((cases[label][name]["ms"],)
                                         + tuple(cases[label][name]["range_ms"]))
                 for label in labels]
        shas = {sha[label][name] for label in labels}
        print("%-52s %s  %s" % (name, "  ".join(cells), shas.pop() if len(shas) == 1 else "DIFFER"))

    import numpy as np
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    for label in labels:
        doc.setdefault("runs", {})[label] = {
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version(), "numpy": np.__version__},
            "repeat": args.repeat,
            "rounds": ROUNDS,
            "alternated_with": [other for other in labels if other != label],
            "cases": cases[label],
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
