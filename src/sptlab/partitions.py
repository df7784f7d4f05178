"""Coefficient streams for the partition function p(n), the smallest-parts
count spt(n), and the weighted combinations built from them.

spt(n) counts parts equal to the smallest part, summed over partitions of n.
Andrews (The number of smallest parts in the partitions of n, J. reine
angew. Math. 624 (2008)) writes its generating function through the Euler
product (q)_inf = prod_{r>=1} (1 - q^r):

    (q)_inf * sum spt(n) q^n
        = sum sigma(n) q^n + sum_{k>=1} (-1)^k q^(k(3k+1)/2) (1 + q^k) / (1 - q^k)^2.

The tail sum costs O(N/k) per k; one product with the partition table
p = 1/(q)_inf finishes it.  The same Series expression
serves the exact and the modular backend.
"""

from __future__ import annotations

import numpy as np

from .forms import (
    _bank,
    _build_p,
    _divisor_power_sums,
    euler_product,
    inverse_euler,
    memo,
)
from .series import CoeffStream, Series

EXACT_CAP = 5000
MODULAR_CAP = 200000


def _check_cap(n, modulus, cap):
    default = MODULAR_CAP if modulus else EXACT_CAP
    limit = cap if cap is not None else default
    if n > limit:
        raise ValueError(
            "n=%d beyond the %s cap %d (pass cap= to override)"
            % (n, "modular" if modulus else "exact", limit)
        )


def partition_stream(n, modulus=0, cap=None):
    """p(0..n), read from the bank's p table (forms.inverse_euler)."""
    _check_cap(n, modulus, cap)
    return CoeffStream(inverse_euler(n, modulus).coeffs, "p", 0, modulus)


def _andrews_rhs(n, modulus=0):
    """The right side of Andrews' identity through q^n (module docstring).

    (1 + q^k) / (1 - q^k)^2 = sum_j (2j + 1) q^(jk), so each k term is one
    strided add; every entry stays below sum_k (2n/k + 1) in absolute value.
    """
    tail = np.zeros(n + 1, dtype=np.int64)
    k = 1
    while k * (3 * k + 1) // 2 <= n:
        seg = tail[k * (3 * k + 1) // 2 :: k]
        seg += (-1) ** k * (2 * np.arange(len(seg), dtype=np.int64) + 1)
        k += 1
    sigma = Series(_divisor_power_sums(1, n, modulus), 0, 0, modulus)
    return sigma + Series(tail, 0, 0, modulus)


def spt_stream(n, modulus=0, cap=None):
    """spt(0..n) from Andrews' identity: one product of its right side with
    the bank's p table divides by the Euler product."""
    _check_cap(n, modulus, cap)
    p = inverse_euler(n, modulus)
    return CoeffStream(_andrews_rhs(n, modulus).mul(p).coeffs, "spt", 0, modulus)


def spt_bruteforce(n):
    """spt(n) by enumerating partitions; guarded to n <= 45."""
    if not 0 <= n <= 45:
        raise ValueError("brute-force spt is guarded to 0 <= n <= 45")
    if n == 0:
        return 0
    total = 0
    # ascending-composition enumeration: a[0] is the smallest part
    a = [0] * (n + 1)
    k = 1
    a[0] = 0
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        part = a[: k + 1]
        smallest = part[0]
        total += part.count(smallest)
    return total


# -- the p/spt/d/a tables in the shared bank -----------------------------------

def _build(kind, n, modulus):
    if kind == "p":
        # the bank's own p table, so the memo stores it once
        return _build_p(n, modulus)
    if kind == "spt":
        return spt_stream(n, modulus, cap=n)
    # d and a live on the q^(n - 1/24) grid; they are formed on the integer
    # grid and tagged 23 at the end
    if kind == "d":
        # d(n) = (24n - 1) p(n), i.e. D = 24 q dP/dq - P
        p = inverse_euler(n, modulus)
        out = p.qderiv().lincomb(p, 24, -1)
    elif kind == "a":
        # a(n) = 12 spt(n) + d(n), i.e. A = 12 SPT + D
        d = stream("d", n, modulus)
        spt = stream("spt", n, modulus).to_series().truncate(n)
        out = spt.lincomb(Series(d.values, 0, 0, modulus), 12, 1)
    else:
        raise KeyError(kind)
    return CoeffStream(out.coeffs, kind, 23, modulus)


def stream(kind, n, modulus=0):
    """Cached access to p/spt/d/a tables through the shared bank (forms.memo),
    which also serves a modulus from a stored table modulo a multiple of it."""
    return memo(kind, n, modulus, lambda n, modulus: _build(kind, n, modulus))


def prewarm(n, modulus):
    """Force one master build of p/spt/d/a at (n, modulus)."""
    stream("p", n, modulus)
    stream("spt", n, modulus)
    stream("a", n, modulus)


_STREAM_FRAC = {"p": 0, "spt": 0, "d": 23, "a": 23}


def seed(kind, values, modulus=0):
    """Install a precomputed table of kind(0), kind(1), ... into the bank,
    e.g. from an on-disk cache.

    Kept only if it extends further than what is already stored."""
    if modulus:
        vals = np.asarray(values, dtype=np.int64) % modulus
    else:
        vals = [int(v) for v in values]
    tab = CoeffStream(vals, kind, _STREAM_FRAC[kind], modulus)
    got = _bank.get((kind, modulus))
    if got is None or got.hi < tab.hi:
        _bank[(kind, modulus)] = tab
    return _bank[(kind, modulus)]


def first_violation(kind, values, modulus=0):
    """First n at which the table kind(0), kind(1), ... breaks the identity
    that defines it, or None if it holds throughout:

        p:    p (q)_inf = 1
        spt:  (q)_inf spt = the right side of Andrews' identity
        d, a: the table equals its build from the bank's p (d) or spt and d (a)
    """
    n = len(values) - 1
    got = Series(values, 0, 0, modulus)
    if kind == "p":
        lhs, rhs = got.mul(euler_product(n, modulus)), Series.one(n, modulus)
    elif kind == "spt":
        lhs, rhs = got.mul(euler_product(n, modulus)), _andrews_rhs(n, modulus)
    else:
        lhs, rhs = got, _build(kind, n, modulus).to_series()
    bad = np.flatnonzero(np.asarray(lhs.coeffs) != np.asarray(rhs.coeffs))
    return int(bad[0]) if len(bad) else None


def bank_tables():
    """Snapshot of the shared bank, keyed by (tag, modulus)."""
    return dict(_bank)
