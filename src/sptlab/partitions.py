"""Coefficient streams for the partition function p(n), the smallest-parts
count spt(n), and the weighted combinations built from them.

spt(n) counts parts equal to the smallest part, summed over partitions of n.
Andrews (The number of smallest parts in the partitions of n, J. reine
angew. Math. 624 (2008)) writes its generating function through the Euler
product (q)_inf = prod_{r>=1} (1 - q^r):

    (q)_inf * sum spt(n) q^n
        = sum sigma(n) q^n + sum_{k>=1} (-1)^k q^(k(3k+1)/2) (1 + q^k) / (1 - q^k)^2.

The tail sum costs O(N/k) per k.  Dividing it by the Euler product
finishes it: exactly, one product with the bank's partition table
p = 1/(q)_inf; modulo m, the blocked division of series._euler_quotient,
seeded by the bank's p(0..B-1), which is also how the modular p table
continues past its first B terms (forms._build_p).
"""

from __future__ import annotations

import numpy as np

from . import series
from .forms import _build_p, _divisor_power_sums, inverse_euler, memo
from .series import Series

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


def spt_stream(n, modulus=0):
    """spt(0..n) from Andrews' identity: its right side divided by the Euler
    product, exactly as one product with the bank's p table, modulo m block
    by block from the bank's p(0..B-1) (module docstring)."""
    rhs = _andrews_rhs(n, modulus)
    if not modulus:
        return rhs.mul(inverse_euler(n))
    p = inverse_euler(min(n, series._EULER_BLOCK - 1), modulus).coeffs
    return Series._wrap(series._euler_quotient(rhs.coeffs, modulus, p), 0, 0, modulus)


# -- the p/spt/d/a tables in the shared bank -----------------------------------

def _build(kind, n, modulus):
    if kind == "p":
        # the bank's own p table, so the memo stores it once
        return _build_p(n, modulus)
    if kind == "spt":
        return spt_stream(n, modulus)
    if kind not in ("d", "a"):
        raise KeyError(kind)
    # d and a live on the q^(n - 1/24) grid; they are formed on the integer
    # grid from the bank's p and tagged 23 at the end, and a stores no d.
    # d(n) = (24n - 1) p(n), i.e. D = 24 q dP/dq - P
    p = stream("p", n, modulus).truncate(n)
    out = p.qderiv().lincomb(p, 24, -1)
    if kind == "a":
        # a(n) = 12 spt(n) + d(n), i.e. A = 12 SPT + D
        out = stream("spt", n, modulus).truncate(n).lincomb(out, 12, 1)
    return Series._wrap(out.coeffs, 0, 23, modulus)


def stream(kind, n, modulus=0):
    """Cached access to p/spt/d/a tables through the shared bank (forms.memo),
    which also serves a modulus from a stored table modulo a multiple of it."""
    return memo(kind, n, modulus, lambda n, modulus: _build(kind, n, modulus))
