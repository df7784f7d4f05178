"""Independent reference values for the exported tables.

Shares no code with sptlab: plain counting recurrences over Python ints,
small enough to run in well under a second.
"""

from __future__ import annotations

# Klein's j = q^-1 + 744 + 196884 q + 21493760 q^2 + ...
J_COEFFS = {-1: 1, 0: 744, 1: 196884, 2: 21493760}


def partition_counts(n):
    """p(0..n) by the coin-change recurrence over part sizes."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for r in range(part, n + 1):
            p[r] += p[r - part]
    return p


def spt_counts(n):
    """spt(0..n): a partition whose smallest part m occurs k times adds k,
    and the rest is a partition of the remainder into parts larger than m."""
    # above[m][r] = number of partitions of r into parts > m
    above = [[0] * (n + 1) for _ in range(n + 2)]
    above[n + 1][0] = 1
    for m in range(n, -1, -1):
        row, prev, part = above[m], above[m + 1], m + 1
        for r in range(n + 1):
            row[r] = prev[r] + (row[r - part] if r >= part else 0)
    spt = [0] * (n + 1)
    for total in range(1, n + 1):
        for m in range(1, total + 1):
            for k in range(1, total // m + 1):
                spt[total] += k * above[m][total - k * m]
    return spt


def tau_values(n):
    """Ramanujan's tau(1..n) from q * prod (1 - q^k)^24, index 0 unused."""
    prod = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(24):
            for r in range(n, k - 1, -1):
                prod[r] -= prod[r - k]
    return [0] + prod[:n]


def check_tables(tables, n_p=200, n_spt=60, n_tau=30):
    """Compare exported tables (kind -> {index: value}) with the oracle.

    Returns {kind: first mismatch} for each kind that disagrees or is
    missing; empty means every value agrees.
    """
    bad = {}
    p = partition_counts(n_p)
    spt = spt_counts(n_spt)
    tau = tau_values(n_tau)
    want = {
        "p": {i: p[i] for i in range(n_p + 1)},
        "spt": {i: spt[i] for i in range(n_spt + 1)},
        "a": {i: 12 * spt[i] + (24 * i - 1) * p[i] for i in range(n_spt + 1)},
        "delta": {i: tau[i] for i in range(1, n_tau + 1)},
        "j": J_COEFFS,
    }
    for kind, values in want.items():
        got = tables.get(kind, {})
        for i, v in values.items():
            if got.get(i) != v:
                bad[kind] = "%s(%d): got %r, oracle %d" % (kind, i, got.get(i), v)
                break
    return bad
