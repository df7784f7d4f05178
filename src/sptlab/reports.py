"""Uniform pass/fail reporting for congruence and identity checks."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class CongruenceReport:
    check: str
    params: dict = field(default_factory=dict)
    n_verified: int = 0
    status: str = "pass"
    first_failure: dict | None = None
    elapsed_ms: float = 0.0

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        return asdict(self)

    def passed(self, n_verified):
        self.n_verified = n_verified
        self.status = "pass"

    def fail(self, n, lhs, rhs, n_verified=0, modulus=None):
        if modulus is None:
            modulus = self.params.get("modulus", 0)
        self.status = "fail"
        self.n_verified = n_verified
        self.first_failure = {
            "n": n,
            "lhs": int(lhs) if not isinstance(lhs, str) else lhs,
            "rhs": int(rhs) if not isinstance(rhs, str) else rhs,
            "modulus": modulus,
        }

    def skip(self, reason):
        self.status = "skipped"
        self.params["reason"] = reason

    def summary_line(self):
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        extras = " ".join(
            "%s=%s" % (k, v) for k, v in self.params.items() if k != "statement"
        )
        line = "%-4s %-28s %s  verified=%d  (%.0f ms)" % (
            tag,
            self.check,
            extras,
            self.n_verified,
            self.elapsed_ms,
        )
        if self.first_failure:
            line += "  first_failure=%r" % (self.first_failure,)
        return line


@contextmanager
def timed_report(check, params):
    rep = CongruenceReport(check=check, params=dict(params))
    t0 = time.perf_counter()
    try:
        yield rep
    finally:
        rep.elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)


def sweep(rep, idx, lhs, rhs=0, modulus=0, n_verified=None):
    """Record whether lhs[i] == rhs[i], modulo modulus when it is nonzero, for
    every i.  The first i that differs fails at n = idx[i] with both sides
    (reduced) and n_verified = i, or the count given; else len(idx) pass.
    An array keeps its dtype; a list or a scalar is read exactly, as an
    object array.  Returns whether all pass."""
    lhs, rhs = (np.asarray(v, dtype=getattr(v, "dtype", object)) for v in (lhs, rhs))
    rhs = np.broadcast_to(rhs, np.shape(lhs))
    diff = lhs - rhs
    bad = np.flatnonzero(diff % modulus if modulus else diff)
    if len(bad) == 0:
        rep.passed(len(idx))
        return True
    i = int(bad[0])
    left, right = (lhs[i] % modulus, rhs[i] % modulus) if modulus else (lhs[i], rhs[i])
    rep.fail(int(idx[i]), left, right, i if n_verified is None else n_verified, modulus)
    return False


def decomposed(rep, expect, solve, *args):
    """solve(*args), or None once rep fails at n = 0 with the ValueError of
    the solve against expect, the solution the line asked for."""
    try:
        return solve(*args)
    except ValueError as exc:
        rep.fail(0, "decomposition: %s" % exc, expect)
        return None


def identity_report(check, lhs, rhs, params=None, lo=None, hi=None):
    """Compare two Series over their shared window and report."""
    params = dict(params or {})
    if lhs.modulus:
        params.setdefault("modulus", lhs.modulus)
    params.setdefault("grid24", lhs.frac24)
    with timed_report(check, params) as rep:
        w_lo = max(lhs.lo, rhs.lo) if lo is None else lo
        w_hi = min(lhs.valid_to, rhs.valid_to) if hi is None else hi
        diff = lhs.first_difference(rhs, w_lo, w_hi)
        if diff is None:
            rep.passed(max(0, w_hi - w_lo + 1))
        else:
            rep.fail(diff[0], diff[1], diff[2], n_verified=diff[0] - w_lo)
    return rep
