"""Theorem-scale congruence sweeps, displayed-expansion reproductions, and
the named check registry behind the CLI."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cache
from .forms import _bank, delta_series, eisenstein, eta_quotient, euler_product, form
from .gamma0 import (
    LEVELS,
    TC,
    GPoly,
    atkin_gamma_constant,
    atkin_solve_k,
    beta_stream,
    check_lemma_congruences,
    decompose_gamma0,
    e2t,
    e46d_decompose,
    psi_form,
    s_form,
    verify_beta_vanish,
)
from .hecke import (
    HeckeParams,
    decompose_level1,
    hecke_combo,
    is_odd_prime,
    legendre_class,
    s_ell,
    verify_xi,
    verify_zell,
)
from .partitions import prewarm, stream
from .reports import identity_report, sweep, timed_report
from .series import Series

DESK_ELLS = (5, 7, 11, 13)
ATKIN_PAIRS = ((5, 7), (7, 5), (13, 5))

# one table modulo this master serves every sweep modulus that divides it
MASTER_MODULUS = 2**3 * 3**2 * 5 * 7 * 11 * 13


def inv24(m):
    """The least nonnegative x with 24 x == 1 (mod m)."""
    if math.gcd(24, m) != 1:
        raise ValueError("24 is not invertible mod %d" % m)
    return pow(24, -1, m)


def _require_ell(ell, t=None):
    if not is_odd_prime(ell) or ell < 5:
        raise ValueError("ell must be a prime >= 5, got %r" % (ell,))
    if t is not None and ell == t:
        raise ValueError("ell = t = %d is excluded" % t)


def _require_level(t):
    if t not in LEVELS:
        raise ValueError("t must be one of %s" % (LEVELS,))


def _require_hecke_modulus(ell, modulus):
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if modulus == 32760 and ell in (5, 7, 13):
        raise ValueError("modulus 32760 needs ell coprime to it, got %d" % ell)
    if modulus in LEVELS and ell == modulus:
        raise ValueError("modulus t = %d needs ell != t" % modulus)
    if 32760 % modulus or math.gcd(modulus, ell) > 1:
        raise ValueError(
            "modulus %d is outside the theorem: it must divide 32760 and be coprime"
            " to ell = %d" % (modulus, ell)
        )


def _require_power(a):
    if a < 3:
        raise ValueError("power must be at least 3, got %d" % a)


# -- the theorem families: "this sum is == 0 (mod M)" for each m ---------------


def _sweep_report(check, params, f, m, lhs):
    """Report whether lhs(f), the family's sum read from the table f at each
    entry of m, vanishes mod params["modulus"].  When 3 divides it the same
    sweep is repeated mod 3 on an independently reduced table, which can only
    fail on an arithmetic bug."""
    mod = params["modulus"]
    with timed_report(check, params) as rec:
        if sweep(rec, m, lhs(f), modulus=mod) and mod % 3 == 0:
            sweep(rec, m, lhs(f.reduce_mod(3)), modulus=3, n_verified=len(m))
    return rec.report


def _combo(ell, lo, n, m):
    """The three-halves combo (weights 1, 1, l) over lo..n of a table, read at m."""
    params = HeckeParams.weight_three_half(ell)
    return lambda f: hecke_combo(f, params, n, lo=lo).gather(m)


def verify_mell_cong(ell, n):
    """Every coefficient of the three-halves combo on a(n), from the
    principal part -s on, vanishes mod l."""
    s = s_ell(ell)
    f = stream("a", ell * ell * n - s, ell)
    params = {"ell": ell, "n": n, "modulus": ell, "statement":
              "three-halves combo of a(n)=12spt(n)+(24n-1)p(n) == 0 (mod l)"}
    m = np.arange(-s, n + 1)
    return _sweep_report("mell-cong", params, f, m, _combo(ell, -s, n, m))


def check_spt_hecke(ell, modulus, n, exact=False):
    """spt(l^2 m - s) + chi12(l)((1-24m|l) - 1 - l) spt(m) + l spt((m+s)/l^2)
    over 1 <= m <= n vanishes mod the requested modulus.  Valid moduli: 72 and
    3 for any prime l >= 5; t in {5, 7, 13} when l != t; their product 32760
    when l is coprime to it; so every divisor of 32760 coprime to l, and no
    other."""
    _require_ell(ell)
    _require_hecke_modulus(ell, modulus)
    f = stream("spt", ell * ell * n - s_ell(ell), 0 if exact else modulus)
    params = {"ell": ell, "modulus": modulus, "n": n, "statement":
              "spt(l^2 n - s) + chi12(l)((1-24n|l)-1-l) spt(n) + l spt((n+s)/l^2)"
              " == 0 (mod %d)" % modulus}
    m = np.arange(1, n + 1)
    return _sweep_report("spt-hecke", params, f, m, _combo(ell, 1, n, m))


def check_spt_ell_square(ell, n, exact=False):
    """spt(l^2 m - s_l) == 0 (mod l) whenever legendre(1-24m|l) = 1."""
    _require_ell(ell)
    s = s_ell(ell)
    f = stream("spt", ell * ell * n - s, 0 if exact else ell)
    params = {"ell": ell, "modulus": ell, "n": n,
              "statement": "spt(l^2 n - s_l) == 0 (mod l) on (1-24n|l) = 1"}
    m = np.arange(1, n + 1)
    m = m[legendre_class(m, ell) == 1]
    return _sweep_report("spt-ell-square", params, f, m, lambda g: g.gather(ell * ell * m - s))


def check_spt_prime_powers(t, a, n=None, exact=False):
    """spt(t^a m + r_a) +/- t spt(t^(a-2) m + r_(a-2)) == 0 over 0 <= m <= n at
    the prime-power modulus 5^(2a-3) / 7^((3a-2)//2) / 13^(a-1), where r_k =
    inv24(t^k); a must be at least 3, and the 13 family carries the minus sign."""
    _require_level(t)
    _require_power(a)
    n = n or {5: 30, 7: 20, 13: 8}[t]
    mod = t ** {5: 2 * a - 3, 7: (3 * a - 2) // 2, 13: a - 1}[t]
    hi, lo = t**a, t ** (a - 2)
    r_hi, r_lo, w = inv24(hi), inv24(lo), -t if t == 13 else t
    f = stream("spt", hi * n + r_hi, 0 if exact else mod)
    params = {"t": t, "a": a, "modulus": mod, "n": n, "statement":
              "spt(%d^%d n + %d) %s %d spt(%d^%d n + %d) == 0 (mod %d)"
              % (t, a, r_hi, "-" if w < 0 else "+", t, t, a - 2, r_lo, mod)}
    m = np.arange(0, n + 1)
    return _sweep_report("spt-prime-powers", params, f, m,
                         lambda g: g.gather(hi * m + r_hi) + w * g.gather(lo * m + r_lo))


def check_a_atkin(t, ell, n, exact=False):
    """On the class legendre(1-24m|t) = -1 the three-halves combination of
    a(n) = 12 spt(n) + (24n-1) p(n) vanishes mod t^c, c = 6/4/2 for t = 5/7/13."""
    _require_level(t)
    _require_ell(ell, t)
    mod = t ** TC[t]
    f = stream("a", ell * ell * n - s_ell(ell), 0 if exact else mod)
    params = {"t": t, "ell": ell, "modulus": mod, "n": n, "statement":
              "a(l^2 n - s) + chi12(l)((1-24n|l)-1-l) a(n) + l a((n+s)/l^2)"
              " == 0 (mod %d) on (1-24n|%d) = -1" % (mod, t)}
    m = np.arange(1, n + 1)
    m = m[legendre_class(m, t) == -1]
    return _sweep_report("a-atkin", params, f, m, _combo(ell, 1, n, m))


def a_atkin_worked_instance():
    """The exact t=5, l=7, n=1 instance: a(47) + a(1) = 149077845, which is
    -280 = -8 a(1) plus 5^6 * 9541, so the shifted combination vanishes mod 5^6."""
    f = stream("a", 47)
    combo = hecke_combo(f, HeckeParams.weight_three_half(7), 1, lo=1)
    mod = 5**6
    with timed_report(
        "a-atkin-instance",
        {
            "t": 5,
            "ell": 7,
            "modulus": mod,
            "statement": "a(47) + a(1) == 149077845 == -8 a(1) (mod 5^6)",
        },
    ) as rec:
        total = f.coeff(47) + f.coeff(1)
        if total != 149077845:
            rec.fail(1, total, 149077845)
        elif total % mod != (-8 * f.coeff(1)) % mod:
            rec.fail(1, total % mod, (-8 * f.coeff(1)) % mod)
        elif combo.coeff(1) % mod:
            rec.fail(1, combo.coeff(1) % mod, 0)
        else:
            rec.ok(3)
    return rec.report


def a_atkin_beta_crosscheck(t, ell, n=None):
    """Exact structure behind the admissible-class vanishing: the combination
    series F satisfies F * eta = E2t sum_{a=-ts..s} d_a G_t^a with integer d_a,
    d_a == 0 (mod t^c) for a <= 0; with K = the positive part, beta = E2t K(G)/eta
    matches F exactly on -s..-1 (value -l at -s), matches F mod t^c everywhere,
    and vanishes exactly on the class legendre(1-24n|t) = -1."""
    _require_level(t)
    _require_ell(ell, t)
    s = s_ell(ell)
    # decompose_gamma0 needs F * eta, valid to min(n, n + 2 - s), past q^(t s);
    # the default t s + 6 covers every l <= 13
    least = t * s + max(1, s - 1)
    if n is None:
        n = max(t * s + 6, least)
    if n < least:
        raise ValueError(
            "a-atkin-beta at t = %d, ell = %d needs n >= %d, got %d" % (t, ell, least, n)
        )
    mod = t ** TC[t]
    f = stream("a", ell * ell * n - s)
    combo = hecke_combo(f, HeckeParams.weight_three_half(ell), n)
    with timed_report(
        "a-atkin-beta",
        {
            "t": t,
            "ell": ell,
            "modulus": mod,
            "n": n,
            "statement": "combo * eta == sum d_a E2t G^a, d_(a<=0) == 0 (mod t^c),"
            " combo == beta mod t^c with beta == 0 on (1-24n|t) = -1",
        },
    ) as rec:
        try:
            d = decompose_gamma0(combo, t, s)
        except ValueError as exc:
            rec.fail(0, "decomposition: %s" % exc, "integer d_a")
            return rec.report
        low = range(-t * s, 1)
        if not sweep(rec, low, [d.coeff(a) for a in low], modulus=mod):
            return rec.report
        count = len(low)
        kpoly = GPoly(t, tuple((a, c) for a, c in d.coeffs if a > 0))
        beta = beta_stream(t, kpoly, n)
        m = np.arange(-s, n + 1)
        b, c = beta.gather(m), combo.gather(m)
        if b[0] != -ell or c[0] != -ell:
            rec.fail(-s, b[0], -ell, n_verified=count)
            return rec.report
        # exact agreement on the principal part, then, index by index, the
        # residue mod t^c before the vanishing on the class (1-24m|t) = -1
        head = np.flatnonzero(b[1:s] != c[1:s])
        if len(head):
            i = int(head[0]) + 1
            rec.fail(int(m[i]), b[i], c[i], n_verified=count + i)
            return rec.report
        count += s
        off = (c - b) % mod != 0
        bad = np.flatnonzero(off | ((legendre_class(m, t) == -1) & (b != 0)))
        if len(bad):
            i = int(bad[0])
            if off[i]:
                rec.fail(int(m[i]), c[i] % mod, b[i] % mod, n_verified=count + i)
            else:
                rec.fail(int(m[i]), b[i], 0, n_verified=count + i)
            return rec.report
        rec.ok(count + len(m))
    return rec.report


def check_level1_b(ell):
    """The combination series times eta Delta^s decomposes over E4^(3k-1) E6
    Delta^(s-k) with b_s = -l, and b_1 == 0 (mod 5) whenever l != 5."""
    _require_ell(ell)
    s = s_ell(ell)
    n = 2 * s + 8
    a = stream("a", ell * ell * n - s + 1)
    combo = hecke_combo(a, HeckeParams.weight_three_half(ell), n)
    f = combo * eta_quotient({1: 1 + 24 * s}, n + s + 2)
    with timed_report(
        "level1-b",
        {
            "ell": ell,
            "statement": "combo * eta * Delta^s = sum b_k E4^(3k-1) E6 Delta^(s-k),"
            " b_s = -l, b_1 == 0 (mod 5) for l != 5",
        },
    ) as rec:
        try:
            b = decompose_level1(f.truncate(n), s)
        except ValueError as exc:
            rec.fail(0, "decomposition: %s" % exc, "integer b_k")
            return rec.report
        if b[s - 1] != -ell:
            rec.fail(s, b[s - 1], -ell)
        elif ell != 5 and b[0] % 5:
            rec.fail(1, b[0] % 5, 0, n_verified=1)
        else:
            rec.ok(s + 1)
        rec.report.params["b"] = b
    return rec.report


# -- displayed q-expansions ----------------------------------------------------


def classical_congruence_reports(n=500):
    """All displayed Eisenstein/discriminant/j identities and congruences; each
    congruence is computed in its modulus (reduction is a ring map)."""
    e2, e4, e6, delta, j = (form(tag, n) for tag in ("E2", "E4", "E6", "delta", "j"))
    e4sq = e4 * e4
    e4cube = e4sq * e4
    reports = []

    def identity(name, lhs, rhs, statement):
        reports.append(identity_report(name, lhs, rhs, {"n": n, "statement": statement}))

    identity("j-times-delta", j * delta, e4cube, "j(z) * Delta(z) == E4(z)^3")
    identity("qderiv-delta", delta.qderiv(), delta * e2, "q d/dq Delta == Delta * E2")
    identity("qderiv-j", j.qderiv() * delta, -e4sq * e6, "(q d/dq j) * Delta == -E4^2 * E6")
    identity("e4cube-e6square", e4cube - e6 ** 2, delta.scale(1728), "E4^3 - E6^2 == 1728 * Delta")

    def forms_mod(mod):
        return [form(tag, n, mod) for tag in ("E2", "E4", "E6", "delta")] + [Series.one(n, mod)]

    e2m, e4m, e6m, dm, one = forms_mod(65520)
    identity("e4cube-mod-65520", e4m ** 3 - dm.scale(720), one, "E4^3 - 720 Delta == 1 (mod 65520)")
    identity("e2-mod-65520", e2m, e4m * e4m * e6m, "E2 == E4^2 E6 (mod 65520)")
    e2m, e4m, e6m, dm, one = forms_mod(32)
    identity("e2-mod-32", e2m, e4m * e6m + dm.scale(16), "E2 == E4 E6 + 16 Delta (mod 32)")
    identity("e4sq-mod-32", e4m * e4m, one, "E4^2 == 1 (mod 32)")
    e2m, e4m, e6m, dm, one = forms_mod(27)
    identity("e2-mod-27", e2m, e4m ** 5 + dm.scale(18), "E2 == E4^5 + 18 Delta (mod 27)")
    identity("e6-mod-27", e6m, e4m ** 6, "E6 == E4^6 (mod 27)")
    return reports


def s_psi_display_reports(n=100):
    """The six displayed weight-3/2 constructions at t in {5, 7} with K = 1:
    the direct S forms, the U_t images of beta, and the Psi forms."""
    reps = []
    k5 = GPoly.from_dict(5, {0: 1})
    k7 = GPoly.from_dict(7, {0: 1})

    lhs = s_form(5, k5, n)
    rhs = e2t(5, n + 4).mul(eta_quotient({1: 6, 5: -6}, n + 4))
    reps.append(
        identity_report(
            "s-display-5",
            lhs,
            rhs,
            {"t": 5, "statement": "S (K=1) == E2t(5) (eta/eta(5z))^6"},
            hi=n,
        )
    )

    lhs = s_form(7, k7, n)
    r8 = eta_quotient({1: 8, 7: -8}, n + 4)
    r4 = eta_quotient({1: 4, 7: -4}, n + 4)
    rhs = e2t(7, n + 4).mul(r8 + r4.scale(3))
    reps.append(
        identity_report(
            "s-display-7",
            lhs,
            rhs,
            {"t": 7, "statement": "S (K=1) == E2t(7) ((eta/eta(7z))^8 + 3 (eta/eta(7z))^4)"},
            hi=n,
        )
    )

    beta5 = beta_stream(5, k5, 5 * n + 6)
    lhs = beta5.sift(5, -1)
    rhs = e2t(5, n + 6).mul(eta_quotient({1: -6, 5: 5}, n + 6)).scale(125)
    reps.append(
        identity_report(
            "s-sift-display-5",
            lhs,
            rhs,
            {"t": 5, "statement": "sum beta(5n-1) q^(n-5/24) == 5^3 E2t(5) eta(5z)^5/eta^6"},
            lo=1,
            hi=n,
        )
    )

    beta7 = beta_stream(7, k7, 7 * n + 8)
    lhs = beta7.sift(7, -2)
    r3, r7 = eta_quotient({1: -4, 7: 3}, n + 6), eta_quotient({1: -8, 7: 7}, n + 6)
    rhs = e2t(7, n + 6).mul(r3.scale(3) + r7.scale(49)).scale(49)
    reps.append(
        identity_report(
            "s-sift-display-7",
            lhs,
            rhs,
            {
                "t": 7,
                "statement": "sum beta(7n-2) q^(n-7/24) == 7^2 E2t(7)"
                " (3 eta(7z)^3/eta^4 + 49 eta(7z)^7/eta^8)",
            },
            lo=1,
            hi=n,
        )
    )

    hi = n + 10
    e4, e6 = eisenstein(4, hi), eisenstein(6, hi)
    lhs = psi_form(5, k5, n)
    rhs = e4**2 * e6 * eta_quotient({1: -25}, hi)
    reps.append(
        identity_report(
            "psi-display-5",
            lhs,
            rhs,
            {"t": 5, "statement": "Psi (K=1) == E4^2 E6 / eta^25"},
            hi=n,
        )
    )

    lhs = psi_form(7, k7, n)
    num = e4**5 * e6 - (e4**2 * e6 * delta_series(hi)).scale(745)
    rhs = num * eta_quotient({1: -49}, hi)
    reps.append(
        identity_report(
            "psi-display-7",
            lhs,
            rhs,
            {"t": 7, "statement": "Psi (K=1) == (E4^5 E6 - 745 E4^2 E6 Delta) / eta^49"},
            hi=n,
        )
    )
    return reps


_BETA5_TABLE = {
    -2: 1, -1: 0, 0: 1, 1: 0, 2: 0,
    3: -379, 4: 625, 5: 869, 8: -20125, 9: 23125, 10: 25636, 13: -329236,
}
_BETA7_TABLE = {
    -1: 1, 0: 1, 1: 0, 2: -15, 3: 0, 4: 0,
    5: 49, 6: -24, 7: 88, 9: -311, 12: 392, 13: -182, 14: 811, 16: -1886,
}


def beta_display_reports(n=200):
    """The two displayed beta tables (t=5 solved at m=-2, t=7 at m=-1)
    and the vanishing of beta on the complementary Legendre class."""
    reps = []
    for t, m, table in ((5, -2, _BETA5_TABLE), (7, -1, _BETA7_TABLE)):
        k = atkin_solve_k(t, m)
        beta = beta_stream(t, k, max(table) + 2)
        idx = sorted(table)
        with timed_report(
            "beta-table",
            {
                "t": t,
                "m": m,
                "statement": "displayed coefficients of E2t K(G)/eta at t=%d" % t,
            },
        ) as rec:
            sweep(rec, idx, beta.gather(idx), [table[i] for i in idx])
        reps.append(rec.report)
        reps.append(verify_beta_vanish(t, m, n))
    return reps


_E46D5_VALUES = {
    1: 1,
    0: 0,
    -1: -(3**2 * 5**5 * 7),
    -2: -(2**3 * 5**8 * 13),
    -3: -(3**3 * 5**10 * 7),
    -4: -(3 * 2**3 * 5**13),
    -5: -(5**16),
}


def e46d_reports():
    """E4^2 E6/Delta lies in the span of E2t G_t^j for -t <= j <= 1; the t=5
    coefficients match the displayed prime factorizations."""
    reps = []
    for t in LEVELS:
        with timed_report(
            "e46d",
            {
                "t": t,
                "statement": "E4^2 E6/Delta == E2t sum_{j=-t..1} a_j G_t^j",
            },
        ) as rec:
            try:
                k = e46d_decompose(t)
            except ValueError as exc:
                rec.fail(0, "decomposition: %s" % exc, "integer a_j")
                reps.append(rec.report)
                continue
            if t == 5:
                idx = sorted(_E46D5_VALUES)
                sweep(rec, idx, [k.coeff(a) for a in idx], [_E46D5_VALUES[a] for a in idx])
            else:
                rec.ok(t + 2)
        reps.append(rec.report)
    return reps


# -- the registry --------------------------------------------------------------


@dataclass
class CheckOptions:
    """Parameter overrides shared by every registry entry; None keeps the
    per-check desk-scale default."""

    ells: tuple | None = None
    t: int | None = None
    nmax: int | None = None
    modulus: int | None = None
    exact: bool = False
    cache_dir: str | None = None

    def __post_init__(self):
        if self.nmax is not None and self.nmax < 1:
            raise ValueError("nmax must be at least 1, got %d" % self.nmax)


def _seed_from_cache(cache_dir):
    """Install the cached p mod MASTER_MODULUS into the bank if it holds
    p (q)_inf = 1, which a table of wrong values, all zeros included, breaks.
    Returns the nmax of the file installed, or -1 if none was."""
    best = cache.scan(cache_dir, "p", MASTER_MODULUS)
    got = cache.load(cache_dir, best) if best else None
    if got is None:
        return -1
    values, lo = got
    if lo != 0:
        # p starts at n = 0; the bank would read the missing rows as zeros
        cache.warn("treating cache file %s as a miss: rows start at %d, not 0",
                   best.filename(), lo)
        return -1
    n = best.nmax
    p = Series(values, 0, 0, MASTER_MODULUS)
    bad = p.mul(euler_product(n, MASTER_MODULUS)).first_difference(
        Series.one(n, MASTER_MODULUS))
    if bad is not None:
        cache.warn("treating cache file %s as a miss: its p table breaks its "
                   "defining identity at n = %d", best.filename(), bad[0])
        return -1
    _bank[("p", MASTER_MODULUS)] = p
    return n


def _prewarm(n_need, opts):
    """Build one master table that every divisor-modulus sweep can reuse.

    The size is rounded up so different checks agree on a single build.
    With a cache dir, the run's first master build starts from the cached
    p, and a p that the build made or extended is written back, so a run
    that builds no master table reads and writes nothing."""
    if opts.exact:
        return
    key = ("p", MASTER_MODULUS)
    if opts.cache_dir and key not in _bank:
        _seed_from_cache(opts.cache_dir)
    before = _bank.get(key)
    prewarm(-(-n_need // 40000) * 40000, MASTER_MODULUS)
    p = _bank[key]
    if opts.cache_dir and p is not before:
        cache.store(opts.cache_dir, cache.SeriesKind("p", p.valid_to, modulus=MASTER_MODULUS),
                    p.coeffs)


@dataclass(frozen=True)
class Check:
    """One registry entry.  Called with CheckOptions, it returns one
    zero-argument task per point of its grid; each returns a list of reports.

    A point is run's leading arguments: (l,), (t, a), an Atkin pair (t, l),
    or (); a task calls run(*point, n) with n = --nmax or the default n, or
    run(*point) if the row does not read --nmax.  A row reads only the
    overrides it names: --ell replaces the grid's l (an Atkin pair then takes
    the --t given, or each level t != l; a --t among the ells is an error),
    --t alone keeps the points at level t, and "exact" passes --mod exact on
    to run.  spt-hecke crosses its ells
    with --mod, or else with the moduli of its theorem."""

    run: object  # makes the report lines at one point: a report or a list of them
    grid: tuple = ((),)  # the default points; a bare l stands for (l,)
    n: int | None = None  # the default n; None leaves it to run
    master: bool = False  # prewarm the master table to the grid's largest l^2 n
    reads: tuple = ("nmax",)  # of "ell", "t", "nmax", "mod" and "exact"
    then: object = None  # one more task after the grid: a callable returning a report

    def points(self, opts):
        """The argument tuples of the row's tasks under opts."""
        ells = opts.ells if "ell" in self.reads else None
        t = opts.t if "t" in self.reads else None
        # before any table is built: the master prewarm reads the largest l
        for ell in ells or ():
            _require_ell(ell)
        n = (opts.nmax or self.n,) if "nmax" in self.reads else ()
        if ells and t in ells:
            raise ValueError("ell = t = %d is excluded" % t)
        if "mod" in self.reads:
            ells = ells or self.grid
            if opts.modulus:
                return [(ell, opts.modulus) + n for ell in ells]
            levels = (t,) if t else LEVELS
            return ([(ell, 72) + n for ell in ells]
                    + [(ell, lv) + n for lv in levels for ell in ells if ell != lv]
                    + [(ell, 32760, opts.nmax or 100) for ell in ells if ell not in (5, 7, 13)])
        if ells and t:
            grid = [(t, ell) for ell in ells]
        elif t:
            _require_level(t)
            grid = [p for p in self.grid if p[0] == t]
        elif ells and "t" in self.reads:
            grid = [(lv, ell) for lv in LEVELS for ell in ells if ell != lv]
        else:
            grid = ells or self.grid
        return [(p if isinstance(p, tuple) else (p,)) + n for p in grid]

    def __call__(self, opts):
        points = self.points(opts)
        # an integer --mod that the row reads is its sweep modulus
        if self.master and not (opts.modulus and "mod" in self.reads):
            _prewarm(max(p[0] ** 2 * p[-1] for p in points), opts)
        exact = {"exact": opts.exact} if "exact" in self.reads else {}
        tasks = [functools.partial(self._task, p, exact) for p in points]
        return tasks + [lambda: [self.then()]] if self.then else tasks

    def _task(self, point, exact):
        out = self.run(*point, **exact)
        return out if isinstance(out, list) else [out]


REGISTRY = {
    "classical": Check(classical_congruence_reports, n=500),
    "zell": Check(verify_zell, DESK_ELLS, n=50, reads=("ell", "nmax")),
    "xi": Check(verify_xi, (5, 7, 11), n=40, reads=("ell", "nmax")),
    # the sweep is mod l, so its table is mod l under --mod exact too
    "mell": Check(verify_mell_cong, DESK_ELLS, n=200, master=True, reads=("ell", "nmax")),
    "spt-hecke": Check(check_spt_hecke, DESK_ELLS, n=200, master=True,
                       reads=("ell", "t", "nmax", "mod", "exact")),
    "spt-ell-square": Check(check_spt_ell_square, (5, 7, 11), n=300, master=True,
                            reads=("ell", "nmax", "exact")),
    "spt-prime-powers": Check(check_spt_prime_powers, tuple((t, 3) for t in LEVELS),
                              reads=("t", "nmax", "exact")),
    "a-atkin": Check(check_a_atkin, ATKIN_PAIRS, n=50, reads=("ell", "t", "nmax", "exact"),
                     then=a_atkin_worked_instance),
    "a-atkin-beta": Check(a_atkin_beta_crosscheck, ATKIN_PAIRS, reads=("ell", "t", "nmax")),
    "level1": Check(check_level1_b, (5, 7, 11), reads=("ell",)),
    "atkin-gamma": Check(lambda t, ell, n: atkin_gamma_constant(t, ell, n)[1], ATKIN_PAIRS,
                         n=60, reads=("ell", "t", "nmax")),
    "s-forms": Check(s_psi_display_reports, n=100),
    "beta-vanish": Check(beta_display_reports, n=200),
    "lemma-congruences": Check(check_lemma_congruences, n=100),
    "e46d": Check(e46d_reports, reads=()),
}


def run_checks(names, opts=None):
    """Expand the named checks into their rows' tasks, then run the tasks in
    order, returning their reports in that order."""
    opts = opts or CheckOptions()
    thunks = []
    for name in names:
        if name not in REGISTRY:
            raise ValueError("unknown check %r (have: %s)" % (name, ", ".join(REGISTRY)))
        thunks.extend(REGISTRY[name](opts))
    return [rep for thunk in thunks for rep in thunk()]
