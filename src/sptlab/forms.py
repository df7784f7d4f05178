"""Classical q-expansions: Euler product, Eisenstein series, discriminant,
j-function, the weight-14-over-discriminant combination and, at level t in
{5, 7, 13}, the hauptmodul G_t, E2,t and Phi_t; plus the memo bank of the
p/spt/d/a tables, with the one p = 1/(q)_inf per modulus."""

from __future__ import annotations

import math

import numpy as np

from . import series
from .series import Series, coeff_dtype, reduce, split_e24


def euler_product(n, modulus=0):
    """prod_{k>=1} (1 - q^k) truncated at q^n, via pentagonal numbers."""
    out = np.zeros(n + 1, dtype=coeff_dtype(modulus))
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
    return Series(out, 0, 0, modulus)


def _divisor_power_sums(weight, n, modulus=0):
    """sigma_{weight}(m) for 1 <= m <= n (index 0 unused), weight >= 1."""
    dtype = coeff_dtype(modulus)
    base = reduce(np.arange(n + 1, dtype=dtype), modulus)
    dk = base
    for _ in range(weight - 1):
        dk = reduce(dk * base, modulus)
    sig = np.zeros(n + 1, dtype=dtype)
    # every divisor pair d * j = m has d <= sqrt(n) or j <= n / (r + 1):
    # the small d one strided add each, the large d one per cofactor j
    r = math.isqrt(n)
    for d in range(1, r + 1):
        sig[d::d] += dk[d]
    for j in range(1, n // (r + 1) + 1):
        sig[j * (r + 1) :: j] += dk[r + 1 : n // j + 1]
    return reduce(sig, modulus)


_EIS_SCALE = {2: -24, 4: 240, 6: -504}


def eisenstein(weight, n, modulus=0):
    """Normalized Eisenstein series E_weight for weight in {2, 4, 6}."""
    if weight not in _EIS_SCALE:
        raise ValueError("weight must be one of 2, 4, 6")
    out = reduce(_divisor_power_sums(weight - 1, n, modulus) * _EIS_SCALE[weight], modulus)
    out[0] = 1
    return Series._wrap(out, 0, 0, modulus)


def _euler_power(k, n):
    """(q)_inf^k through q^n, exact, by J.C.P. Miller's recurrence for a power
    of a series with constant term 1: with (q)_inf = sum e_g q^g,

        i c_i = sum_{g=1}^{i} ((k + 1) g - i) e_g c_{i-g},

    one pass over the pentagonal g <= i per coefficient; the division by i
    is exact, which a composite modulus would not allow.
    """
    e = euler_product(n).coeffs.tolist()
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


def eta_quotient(exps, n, modulus=0):
    """prod_d eta(d z)^(r_d) for a nonempty exps = {d: r_d} through q^n, on
    the grid and lowest index of q^(sum d r_d / 24).  Each factor
    (q^d)_inf^(r_d) is built at the length it is read, then dilated: the
    bank's p at r = -1, Miller's recurrence (_euler_power) for exact
    r <= -2, a power of the bank's p for modular r <= -2, a power of the
    Euler product for r >= 0."""
    lo, frac = split_e24(sum(d * r for d, r in exps.items()))
    top = max(n - lo, 0)
    body = None
    for d, r in sorted(exps.items()):
        k = -(-top // d)
        if r == -1:
            f = inverse_euler(k, modulus)
        elif r < -1 and not modulus:
            f = Series(_euler_power(r, k))
        elif r < 0:
            f = inverse_euler(k, modulus) ** -r
        else:
            f = euler_product(k, modulus) ** r
        f = f.dilate(d)
        body = f if body is None else body.mul(f)
    return Series._wrap(body.coeffs, lo, frac, modulus).truncate(n)


def delta_series(n, modulus=0):
    """Discriminant q-expansion q prod (1-q^m)^24 = eta^24."""
    return eta_quotient({1: 24}, n, modulus)


def j_series(n, modulus=0):
    """Klein j-function expansion q^-1 + 744 + 196884 q + ..."""
    e4 = eisenstein(4, n + 2, modulus)
    return (e4 ** 3 * eta_quotient({1: -24}, n, modulus)).truncate(n)


def e14_over_delta(n, modulus=0):
    """E4^2 E6 / Delta = q^-1 - 196884 q - 42987520 q^2 - ..."""
    e4 = eisenstein(4, n + 2, modulus)
    e6 = eisenstein(6, n + 2, modulus)
    return (e4 * e4 * e6 * eta_quotient({1: -24}, n, modulus)).truncate(n)


# -- the level-t forms, t in {5, 7, 13} ----------------------------------------

LEVELS = (5, 7, 13)


def _eta_exponent(t):
    if t not in LEVELS:
        raise ValueError("level must be one of %s, got %r" % (LEVELS, t))
    return 24 // (t - 1)


def hauptmodul(t, n, modulus=0):
    """G_t = (eta(z)/eta(tz))^(24/(t-1)) = q^-1 (1 + ...) on Gamma0(t)."""
    e = _eta_exponent(t)
    return eta_quotient({1: e, t: -e}, n, modulus)


def e2t(t, n, modulus=0):
    """The weight-2 Eisenstein series (t E2(tz) - E2(z))/(t - 1) on Gamma0(t)."""
    _eta_exponent(t)
    e2 = eisenstein(2, n)
    num = e2.dilate(t).scale(t) - e2
    bad = np.flatnonzero(num.coeffs % (t - 1))
    if len(bad):
        raise ArithmeticError("E2 combination not divisible by %d at q^%d" % (t - 1, bad[0]))
    out = Series._wrap(num.coeffs // (t - 1), 0, 0, 0)
    return out.reduce_mod(modulus) if modulus else out


def phi_t(t, n, modulus=0):
    """Phi_t = eta(z)/eta(t^2 z) = q^(-s) (1 + ...), s = (t^2 - 1)/24."""
    _eta_exponent(t)
    return eta_quotient({1: 1, t * t: -1}, n, modulus)


# -- the memo bank -----------------------------------------------------------

# (tag, modulus) -> the longest Series built so far, for the p/spt/d/a
# tables (partitions.stream); the forms above are built per request
_bank: dict = {}


def memo(tag, n, modulus, build):
    """The bank's (tag, modulus) table, valid at least to q^n: the stored one,
    else one reduced from a table of the same tag that is exact or modulo a
    multiple of modulus (one master serves many sweeps), else build(n, modulus).
    A reduction of a modular table is made per request (0.13 ms at 40,001
    terms), not held for the run; one of an exact table is stored.
    """
    key = (tag, modulus)
    got = _bank.get(key)
    if got is not None and got.valid_to >= n:
        return got
    if modulus:
        for (t, m), tab in _bank.items():
            refines = m == 0 or (m != modulus and m % modulus == 0)
            if t == tag and refines and tab.valid_to >= n:
                got = tab.reduce_mod(modulus)
                if not m:
                    _bank[key] = got
                return got
    _bank[key] = build(n, modulus)
    return _bank[key]


def _build_p(n, modulus):
    """p(0..n) = 1/(q)_inf, continuing the bank's shorter table if it has one.
    Exact, by the recurrence of Series.invert.  Modulo m, its first
    series._EULER_BLOCK terms come from the Newton inverse of Series.invert,
    the bank's one from-scratch inversion per modulus, and the rest from
    dividing 1 by the Euler product block by block (series._euler_quotient)."""
    got = _bank.get(("p", modulus))
    known = got.coeffs if got is not None else None
    if not modulus:
        return euler_product(n).invert(known)
    head = min(n + 1, series._EULER_BLOCK)
    if known is None or len(known) < head:
        known = euler_product(head - 1, modulus).invert(known).coeffs
    one = np.zeros(n + 1, dtype=np.int64)
    one[0] = 1
    return Series._wrap(series._euler_quotient(one, modulus, known, known), 0, 0, modulus)


def inverse_euler(n, modulus=0):
    """1/(q)_inf = sum p(k) q^k through q^n from the bank's p table; every
    Euler-product inverse, and the p(0..B-1) that divides by the Euler
    product modulo m, reads it, so each p(k) is computed once per modulus."""
    tab = memo("p", n, modulus, _build_p)
    return Series._wrap(tab.coeffs[: n + 1], 0, 0, modulus)
