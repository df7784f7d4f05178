"""Classical level-one q-expansions: Euler product, Eisenstein series,
discriminant, j-function, and the weight-14-over-discriminant combination,
plus the small-modulus Eisenstein congruences used by the verifier, and the
memo bank every module shares, with the one p = 1/(q)_inf per modulus."""

from __future__ import annotations

import math

import numpy as np

from .reports import CongruenceReport, identity_report
from .series import CoeffStream, Series, sgn24


def euler_product(n, modulus=0):
    """prod_{k>=1} (1 - q^k) truncated at q^n, via pentagonal numbers."""
    if modulus:
        out = np.zeros(n + 1, dtype=np.int64)
    else:
        out = [0] * (n + 1)
    k = 0
    while True:
        g = k * (3 * k - 1) // 2
        if g > n:
            break
        sign = 1 if k % 2 == 0 else -1
        out[g] = sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= n:
            out[g2] = sign
        k += 1
    return Series(out, 0, 0, modulus, copy=False)


def _divisor_power_sums(weight, n, modulus=0):
    """sigma_{weight}(m) for 1 <= m <= n (index 0 unused)."""
    if modulus:
        dk = np.ones(n + 1, dtype=np.int64)
        base = np.arange(n + 1, dtype=np.int64) % modulus
        for _ in range(weight):
            dk *= base
            dk %= modulus
        sig = np.zeros(n + 1, dtype=np.int64)
        # every divisor pair d * j = m has d <= sqrt(n) or j <= n / (r + 1):
        # the small d one strided add each, the large d one per cofactor j
        r = math.isqrt(n)
        for d in range(1, r + 1):
            sig[d::d] += dk[d]
        for j in range(1, n // (r + 1) + 1):
            sig[j * (r + 1) :: j] += dk[r + 1 : n // j + 1]
        return sig % modulus
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**weight
        for m in range(d, n + 1, d):
            sig[m] += dk
    return sig


_EIS_SCALE = {2: -24, 4: 240, 6: -504}


def eisenstein(weight, n, modulus=0):
    """Normalized Eisenstein series E_weight for weight in {2, 4, 6}."""
    if weight not in _EIS_SCALE:
        raise ValueError("weight must be one of 2, 4, 6")
    c = _EIS_SCALE[weight]
    sig = _divisor_power_sums(weight - 1, n, modulus)
    if modulus:
        out = (sig * (c % modulus)) % modulus
        out[0] = 1 % modulus
        return Series(out, 0, 0, modulus, copy=False)
    out = [c * s for s in sig]
    out[0] = 1
    return Series(out, 0, 0, 0, copy=False)


def _euler_power(k, n):
    """(q)_inf^k through q^n, exact, by J.C.P. Miller's recurrence for a power
    of a series with constant term 1: with (q)_inf = sum e_g q^g,

        i c_i = sum_{g=1}^{i} ((k + 1) g - i) e_g c_{i-g},

    one pass over the pentagonal g <= i per coefficient; the division by i
    is exact, which a composite modulus would not allow.
    """
    e = euler_product(n).coeffs
    terms = [(g, (k + 1) * g * e[g], e[g]) for g in range(1, n + 1) if e[g]]
    c = [1] + [0] * n
    for i in range(1, n + 1):
        s = 0
        for g, kg, eg in terms:
            if g > i:
                break
            s += (kg - eg * i) * c[i - g]
        c[i] = s // i
    return c


def eta_pow(k, n, modulus=0):
    """eta(z)^k = q^(k/24) prod (1-q^m)^k as a Series on the k mod 24 grid.
    k = -1 is the bank's p; exact k <= -2 comes from Miller's recurrence
    (_euler_power), modular k <= -2 as a power of the bank's p."""
    frac = k % 24
    lo = (k - sgn24(frac)) // 24
    top = n - min(lo, 0) + abs(lo) + 1
    if k < -1 and not modulus:
        body = _euler_power(k, top)
    elif k < 0:
        body = (inverse_euler(top, modulus) ** -k).coeffs
    else:
        body = (euler_product(top, modulus) ** k).coeffs
    return Series(body, lo, frac, modulus, copy=False).truncate(n)


def delta_series(n, modulus=0):
    """Discriminant q-expansion q prod (1-q^m)^24."""
    return (euler_product(n, modulus) ** 24).shift(1).truncate(n)


def _inverse_delta(n, modulus=0):
    """1/Delta = eta^-24 = q^-1 (q)_inf^-24 through q^n, without inverting
    the dense Delta."""
    return eta_pow(-24, n, modulus)


def j_series(n, modulus=0):
    """Klein j-function expansion q^-1 + 744 + 196884 q + ..."""
    e4 = eisenstein(4, n + 2, modulus)
    return (e4 ** 3 * _inverse_delta(n, modulus)).truncate(n)


def e14_over_delta(n, modulus=0):
    """E4^2 E6 / Delta = q^-1 - 196884 q - 42987520 q^2 - ..."""
    e4 = eisenstein(4, n + 2, modulus)
    e6 = eisenstein(6, n + 2, modulus)
    return (e4 * e4 * e6 * _inverse_delta(n, modulus)).truncate(n)


# -- the memo bank -----------------------------------------------------------

# (tag, modulus) -> the longest table built so far: a Series for the forms
# below, a CoeffStream for p/spt/d/a (partitions.stream)
_bank: dict = {}


def memo(tag, n, modulus, build):
    """The bank's (tag, modulus) table, valid at least to q^n: the stored one,
    else one reduced from a table of the same tag that is exact or modulo a
    multiple of modulus (one master serves many sweeps), else build(n, modulus).
    """
    key = (tag, modulus)
    got = _bank.get(key)
    if got is not None and got.valid_to >= n:
        return got
    if modulus:
        for (t, m), tab in _bank.items():
            refines = m == 0 or (m != modulus and m % modulus == 0)
            if t == tag and refines and tab.valid_to >= n:
                _bank[key] = tab.reduce_mod(modulus)
                return _bank[key]
    _bank[key] = build(n, modulus)
    return _bank[key]


def _build_p(n, modulus):
    """p(0..n) = 1/(q)_inf, continuing the bank's shorter table if it has one."""
    got = _bank.get(("p", modulus))
    inv = euler_product(n, modulus).invert(got.values if got is not None else None)
    return CoeffStream(inv.coeffs, "p", 0, modulus)


def inverse_euler(n, modulus=0):
    """1/(q)_inf = sum p(k) q^k through q^n from the bank's p table; every
    Euler-product inverse reads it, so each p(k) is computed once per modulus."""
    tab = memo("p", n, modulus, _build_p)
    return Series._wrap(tab.values[: n + 1], 0, 0, modulus)


_BUILDERS = {
    "euler": euler_product,
    "E2": lambda n, m=0: eisenstein(2, n, m),
    "E4": lambda n, m=0: eisenstein(4, n, m),
    "E6": lambda n, m=0: eisenstein(6, n, m),
    "delta": delta_series,
    "j": j_series,
    "e14_over_delta": e14_over_delta,
}


def form(tag, n, modulus=0):
    """Cached access to a named classical expansion, valid to q^n."""
    return memo(tag, n, modulus, _BUILDERS[tag]).truncate(n)


# -- classical congruence checks -----------------------------------------------


def classical_congruence_reports(n=500):
    """All displayed Eisenstein/discriminant/j identities and congruences; each
    congruence is computed in its modulus (reduction is a ring map)."""
    e2 = form("E2", n)
    e4 = form("E4", n)
    e6 = form("E6", n)
    delta = form("delta", n)
    j = form("j", n)
    e4sq = e4 * e4
    e4cube = e4sq * e4
    reports = []

    def identity(name, lhs, rhs, statement):
        reports.append(
            identity_report(name, lhs, rhs, {"n": n, "statement": statement})
        )

    identity(
        "j-times-delta",
        j * delta,
        e4cube,
        "j(z) * Delta(z) == E4(z)^3",
    )
    identity(
        "qderiv-delta",
        delta.qderiv(),
        delta * e2,
        "q d/dq Delta == Delta * E2",
    )
    identity(
        "qderiv-j",
        j.qderiv() * delta,
        -e4sq * e6,
        "(q d/dq j) * Delta == -E4^2 * E6",
    )
    identity(
        "e4cube-e6square",
        e4cube - e6 ** 2,
        delta.scale(1728),
        "E4^3 - E6^2 == 1728 * Delta",
    )

    def forms_mod(mod):
        return [form(tag, n, mod) for tag in ("E2", "E4", "E6", "delta")] + [
            Series.one(n, mod)
        ]

    e2m, e4m, e6m, dm, one = forms_mod(65520)
    identity(
        "e4cube-mod-65520",
        e4m ** 3 - dm.scale(720),
        one,
        "E4^3 - 720 Delta == 1 (mod 65520)",
    )
    identity("e2-mod-65520", e2m, e4m * e4m * e6m, "E2 == E4^2 E6 (mod 65520)")
    e2m, e4m, e6m, dm, one = forms_mod(32)
    identity("e2-mod-32", e2m, e4m * e6m + dm.scale(16), "E2 == E4 E6 + 16 Delta (mod 32)")
    identity("e4sq-mod-32", e4m * e4m, one, "E4^2 == 1 (mod 32)")
    e2m, e4m, e6m, dm, one = forms_mod(27)
    identity("e2-mod-27", e2m, e4m ** 5 + dm.scale(18), "E2 == E4^5 + 18 Delta (mod 27)")
    identity("e6-mod-27", e6m, e4m ** 6, "E6 == E4^6 (mod 27)")
    return reports


def check_classical_congruences(n=500):
    """Aggregate report over classical_congruence_reports."""
    subs = classical_congruence_reports(n)
    return CongruenceReport.merge("classical", {"n": n}, subs)
