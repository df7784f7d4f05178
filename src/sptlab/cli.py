"""Command-line front end: named congruence checks and series dumps."""

from __future__ import annotations

import argparse
import sys
import time

from . import cache, partitions
from .forms import (delta_series, e2t, e14_over_delta, eisenstein, euler_product, hauptmodul,
                    j_series, phi_t)
from .series import ValidityError

# `series` loads only forms, partitions and cache; the check modules
# (verifier, hecke, gamma0, reports) load when a check runs or its help shows

_STREAM_KINDS = ("p", "spt", "d", "a")
# kind -> builder(n, modulus), or builder(t, n, modulus) at a level
_FORM_KINDS = {"euler": euler_product, "E2": lambda n, m: eisenstein(2, n, m),
               "E4": lambda n, m: eisenstein(4, n, m), "E6": lambda n, m: eisenstein(6, n, m),
               "delta": delta_series, "j": j_series, "e14_over_delta": e14_over_delta}
_LEVEL_KINDS = {"G": hauptmodul, "E2t": e2t, "phi": phi_t}


def _parse_ells(text):
    try:
        ells = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    if not ells:
        raise argparse.ArgumentTypeError("empty ell list")
    return ells


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sptlab",
        description="exact-arithmetic q-series laboratory: congruence sweeps "
        "over partition and smallest-parts coefficient streams",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run named congruence checks")
    chk.add_argument("name", help="registry name or 'all'; the names are listed below")
    chk.add_argument("--ell", type=_parse_ells, default=None, metavar="L1,L2,...")
    chk.add_argument("--t", type=int, choices=(5, 7, 13), default=None)
    chk.add_argument("--nmax", type=int, default=None, help="sweep bound override")
    chk.add_argument("--mod", default=None,
                     help="'exact' to keep streams in exact arithmetic, or a modulus override")
    chk.add_argument("--cache-dir", default=None)
    chk.add_argument("--format", choices=("text", "json"), default="text")

    def check_help(format_help=chk.format_help):
        from .verifier import REGISTRY

        chk.epilog = "check names: all, " + ", ".join(REGISTRY)
        return format_help()

    chk.format_help = check_help

    ser = sub.add_parser("series", help="print or store one coefficient stream")
    ser.add_argument("kind", choices=[*_STREAM_KINDS, *_FORM_KINDS, *_LEVEL_KINDS])
    ser.add_argument("--n", type=int, required=True)
    ser.add_argument("--mod", type=int, default=0)
    ser.add_argument("--t", type=int, choices=(5, 7, 13), default=None)
    ser.add_argument("--out", default=None, help="directory to export the table file into")
    return ap


def _check_options(args):
    """The CheckOptions fields that the check flags set."""
    exact = False
    modulus = None
    if args.mod is not None:
        if args.mod == "exact":
            exact = True
        else:
            try:
                modulus = int(args.mod)
            except ValueError:
                raise ValueError("--mod wants 'exact' or an integer, got %r" % args.mod)
            if modulus < 2:
                raise ValueError("--mod must be at least 2")
    return dict(ells=args.ell, t=args.t, nmax=args.nmax, modulus=modulus, exact=exact,
                cache_dir=args.cache_dir)


def _run_check(args):
    import json

    from .verifier import REGISTRY, CheckOptions, run_checks

    opts = CheckOptions(**_check_options(args))
    names = list(REGISTRY) if args.name == "all" else [args.name]
    # a single check must not print a PASS for an override it never read
    given = {"ell": opts.ells, "t": opts.t, "nmax": opts.nmax, "mod": opts.modulus}
    for flag, value in given.items():
        if value is not None and args.name in REGISTRY and flag not in REGISTRY[args.name].reads:
            raise ValueError("check %s takes no --%s" % (args.name, flag))
    t0 = time.perf_counter()
    reports = run_checks(names, opts)
    elapsed = time.perf_counter() - t0
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.summary_line())
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in reports:
            counts[r.status] += 1
        print(
            "%d checks: %d pass, %d fail, %d skipped (%.1f s)"
            % (len(reports), counts["pass"], counts["fail"], counts["skipped"], elapsed)
        )
    return 1 if any(r.status == "fail" for r in reports) else 0


def _series_values(args):
    kind, n, mod, t = args.kind, args.n, args.mod, args.t
    if n < 0:
        raise ValueError("--n must be nonnegative")
    if kind in _LEVEL_KINDS:
        if t is None:
            raise ValueError("kind %r needs --t" % kind)
        ser = _LEVEL_KINDS[kind](t, n, mod)
    elif t is not None:
        raise ValueError("kind %s takes no --t" % kind)
    else:
        t = 0
        ser = (partitions.stream(kind, n, mod) if kind in _STREAM_KINDS
               else _FORM_KINDS[kind](n, mod))
    if ser.valid_to < n:
        raise ValidityError("%s valid to q^%d, short of --n %d" % (kind, ser.valid_to, n))
    return ser.coeffs[: n - ser.lo + 1], ser.lo, ser.frac24, t


def _run_series(args):
    values, lo, frac24, t = _series_values(args)
    if args.out:
        sk = cache.SeriesKind(args.kind, args.n, t, args.mod, frac24)
        path = cache.store(args.out, sk, values, lo)
        print(path)
    else:
        for i, v in enumerate(values):
            print("%d %d" % (lo + i, v))
    return 0


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        return _run_series(args)
    except (ValueError, OSError) as exc:  # a bad argument, or a path that cannot be used
        print("sptlab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
