"""Time the three series kernels on fixed operands.

The cases are the two Newton inversions behind the modular p tables (p mod
360360 at 40,001 terms, the master table of `check all`, and p mod 169 at
18,584 terms, for the 13^2 sweep) and ten exact products, all taken by the
limb-column kernel: the eight largest shapes that `check all` and the ten
`series --out` exports of the benchmark multiply, a long operand of few bits
(3,001 terms at 22 bits, from the delta export) and a short operand of many
bits (111 terms at 155 and 192 bits, from `check all`).  Each is
regenerated from a fixed seed as random signed ints of the same lengths and
bit sizes.  Two pairs of eta-quotient builds follow, each pair one series
by two paths: the exact factor (q)_inf^-6 of the G_5 export (1,200 terms,
so 242 terms before the dilation q -> q^5) by Miller's recurrence and as
the sixth power of the bank's p, whose build the minimum leaves out; and
the (eta/eta(5z))^6 of the s-forms display to q^104, as a product of its
two factors and as the inverse of its reciprocal eta(5z)^6/eta^6.

    python scripts/bench_kernels.py --label change
    python scripts/bench_kernels.py --label parent --src ../parent/src

sptlab is imported from --src (default: this checkout's src).  Each case is
timed as the minimum of --repeat calls, and the figures go under --label into
--out (default: BENCH_kernels.json at the checkout root), next to the labels
already there.  A SHA-256 of each result shows whether two labels computed
the same coefficients.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def digest(values):
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


def eta_cases(Series, euler_product, inverse_euler, euler_power):
    """(name, build) of the eta-quotient pairs; each build returns the
    coefficients as ints, from sptlab functions every checkout has."""
    g5 = -(-1201 // 5) + 1  # terms of (q^5)_inf^-6 in G_5 to q^1200

    def direct():  # (q)^6 (q^5)^-6 through q^105, as forms.eta_quotient builds it
        return (euler_product(105) ** 6).mul(Series(euler_power(-6, 21)).dilate(5))

    def inverted():  # the reciprocal at the length the s-forms display used to build it
        recip = Series(euler_power(-6, 145)).mul((euler_product(29) ** 6).dilate(5))
        return recip.invert().truncate(105)

    return [
        ("G5 factor (q)^-6 x %d: Miller recurrence" % g5,
         lambda: euler_power(-6, g5 - 1)),
        ("G5 factor (q)^-6 x %d: power of p" % g5,
         lambda: (inverse_euler(g5 - 1) ** 6).coeffs.tolist()),
        ("s-forms (eta/eta(5z))^6 x 106: direct", lambda: direct().coeffs.tolist()),
        ("s-forms (eta/eta(5z))^6 x 106: inverted reciprocal",
         lambda: inverted().coeffs.tolist()),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernels.json"))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from sptlab import series
    from sptlab.forms import _euler_power, euler_product, inverse_euler
    from sptlab.series import Series

    cases = {}
    for name, m, terms in INVERSIONS:
        a = euler_product(terms - 1, m).coeffs
        dt, out = best_of(args.repeat, lambda: series._invert_mod(a, m, 1))
        cases[name] = {"ms": round(1e3 * dt, 2), "sha256": digest(out.tolist())}
    for seed, (name, terms, bits_a, bits_b) in enumerate(PRODUCTS):
        rng = random.Random(seed)
        a, b = operand(rng, terms, bits_a), operand(rng, terms, bits_b)
        dt, out = best_of(args.repeat, lambda: series._conv_exact(a, b, terms))
        cases[name] = {"ms": round(1e3 * dt, 2), "sha256": digest(out)}
    for name, fn in eta_cases(Series, euler_product, inverse_euler, _euler_power):
        dt, out = best_of(args.repeat, fn)
        cases[name] = {"ms": round(1e3 * dt, 2), "sha256": digest(out)}
    for name, case in cases.items():
        print("%-52s %9.2f ms  %s" % (name, case["ms"], case["sha256"]))

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "repeat": args.repeat,
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
