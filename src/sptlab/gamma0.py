"""Level-t machinery for t in {5, 7, 13}, over the hauptmodul G_t, E2,t and
Phi_t of `forms`: beta series with their vanishing patterns,
Fricke-involution bookkeeping on hauptmodul polynomials, and basis
decompositions of weight-2 objects over Gamma0(t)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (LEVELS, _eta_exponent, e2t, e14_over_delta, eta_quotient, hauptmodul,
                    j_series, phi_t)
from .hecke import HeckeParams, chi12, hecke_combo, legendre, legendre_class, peel, s_ell
from .partitions import stream
from .reports import identity_report, sweep, timed_report
from .series import Series

# -- polynomials in the hauptmodul ---------------------------------------------


@dataclass(frozen=True)
class GPoly:
    """A Laurent polynomial in the hauptmodul G_t, with integer coefficients
    or residues."""

    t: int
    coeffs: tuple  # tuple of (exponent, coefficient), sorted by exponent

    @classmethod
    def from_dict(cls, t, d):
        return cls(t, tuple((int(j), c) for j, c in sorted(d.items()) if c != 0))

    def as_dict(self):
        return dict(self.coeffs)

    def coeff(self, j):
        return dict(self.coeffs).get(j, 0)

    @property
    def support(self):
        return tuple(j for j, _ in self.coeffs)

    def fricke(self):
        """Image under z -> -1/(tz): G^j picks up t^(12j/(t-1)) G^-j.  For
        j < 0 that factor divides; a ValueError if it does not."""
        e = 12 // (self.t - 1)
        d = {}
        for j, c in self.coeffs:
            scale = self.t ** (e * abs(j))
            if j < 0 and c % scale:
                raise ValueError("Fricke image of %d G^%d is not integral" % (c, j))
            d[-j] = c * scale if j >= 0 else c // scale
        return GPoly.from_dict(self.t, d)

    def eval(self, g):
        """Evaluate at the hauptmodul Series g, each G^j read from one
        _GPowers of g."""
        if not self.coeffs:
            return Series.zero(g.valid_to, 0, g.modulus)
        powers = _GPowers(self.t, g)
        acc = None
        for j, c in self.coeffs:
            term = powers[j].scale(c)
            acc = term if acc is None else acc + term
        return acc


class _GPowers(dict):
    """G_t^j for the hauptmodul Series g, each on g's relative window
    q^-j..q^(g.valid_to - g.lo - j) and built on first use: G^-1 is the
    eta-quotient (eta(tz)/eta(z))^(24/(t-1)), and every other power the
    product of its neighbour towards G^0 with G or G^-1."""

    def __init__(self, t, g):
        super().__init__({1: g, 0: Series.one(g.valid_to - g.lo, g.modulus)})
        self.t = t

    def __missing__(self, j):
        if j == -1:
            g, e = self[1], _eta_exponent(self.t)
            self[j] = eta_quotient({1: -e, self.t: e}, g.valid_to - g.lo + 1, g.modulus)
            return self[j]
        step = 1 if j > 0 else -1
        # a loop, not recursion: a solve at t = 13, l = 37 reads G^-741
        for i in range(2 * step, j + step, step):
            if i not in self:
                self[i] = self[i - step].mul(self[step])
        return self[j]


# -- beta series ----------------------------------------------------------------


def beta_stream(t, k, n, modulus=0):
    """E2t * K(G_t) / eta through q^(n - 1/24): the Series of the beta(n)."""
    prec = n + max(0, max((j for j, _ in k.coeffs), default=0)) + 2
    body = e2t(t, prec, modulus)
    if any(j for j, _ in k.coeffs):
        body = body.mul(k.eval(hauptmodul(t, prec, modulus)))
    else:
        body = body.scale(k.coeff(0))
    return body.mul(eta_quotient({1: -1}, prec, modulus)).truncate(n)


def atkin_solve_k(t, m):
    """For m < 0 with 24m != 1 mod t: the monic K = G^-m + sum_{j=1}^{-m-1} k_j G^j
    with beta(n) = 0 for m < n < 0.  Solved for exact coefficients top-down."""
    if m >= 0:
        raise ValueError("m must be negative")
    if (1 - 24 * m) % t == 0:
        raise ValueError("24m == 1 mod t is excluded")
    k = {-m: 1}
    prec = -m + 4
    for j in range(-m - 1, 0, -1):
        beta = beta_stream(t, GPoly.from_dict(t, k), prec)
        bad = beta.coeff(-j)
        if bad:
            k[j] = -bad
    return GPoly.from_dict(t, k)


def verify_beta_vanish(t, m, n):
    """beta(n) vanishes whenever legendre(1-24n|t) = -legendre(1-24m|t)."""
    k = atkin_solve_k(t, m)
    beta = beta_stream(t, k, n)
    target = -legendre(1 - 24 * m, t)
    idx = np.arange(m, n + 1)
    idx = idx[legendre_class(idx, t) == target]
    with timed_report(
        "beta-vanish",
        {
            "t": t,
            "m": m,
            "n": n,
            "statement": "beta_t(n) == 0 when legendre(1-24n|t) == -legendre(1-24m|t)",
        },
    ) as rec:
        sweep(rec, idx, beta.gather(idx))
    return rec.report


# -- the S and Psi constructions ------------------------------------------------


def s_form(t, k, n):
    """S = E2t(tz) K*(G)(tz) Phi_t(z) - chi12(t) eta(z) sum_n (1-24n|t) beta(n) q^(n-1/24).

    K must be supported in nonnegative powers so K* has integral coefficients."""
    if min(k.support, default=0) < 0:
        raise ValueError("S construction needs K supported in G^j, j >= 0")
    kstar = k.fricke()
    prec = n + t * max((abs(j) for j in k.support), default=0) + s_ell(t) + 4
    g = hauptmodul(t, prec)
    inner = e2t(t, prec).mul(kstar.eval(g))
    term1 = inner.dilate(t).truncate(prec).mul(phi_t(t, prec))
    beta = beta_stream(t, k, prec)
    twisted = _legendre_twist(beta, t)
    term2 = eta_quotient({1: 1}, prec).mul(twisted).scale(chi12(t))
    return (term1 - term2).truncate(n)


def _legendre_twist(beta, t):
    leg = legendre_class(np.arange(beta.lo, beta.valid_to + 1), t)
    return Series(leg * beta.coeffs, beta.lo, 23, beta.modulus)


def psi_form(t, k, n):
    """Psi = E2t(tz) K*(G)(tz)/eta(t^2 z)
          - chi12(t) sum (1-24n|t) beta(n) q^(n-1/24)
          - sum beta(t^2 n - s) q^(n-1/24),  s = (t^2 - 1)/24."""
    if min(k.support, default=0) < 0:
        raise ValueError("Psi construction needs K supported in G^j, j >= 0")
    kstar = k.fricke()
    s = s_ell(t)
    jmax = max((abs(j) for j in k.support), default=0)
    # only the sifted third term needs coefficients near t^2 n; the direct
    # terms are assembled at a precision just past n
    need = n + s + 6
    prec1 = need // t + jmax + 4
    g = hauptmodul(t, prec1)
    inner = e2t(t, prec1).mul(kstar.eval(g))
    inv_eta_t2 = eta_quotient({t * t: -1}, need)
    term1 = inner.dilate(t).mul(inv_eta_t2).truncate(need)
    beta = beta_stream(t, k, t * t * (n + 1) + s + 2)
    term2 = _legendre_twist(beta, t).scale(chi12(t))
    term3 = beta.sift(t * t, -s)
    return (term1 - term2 - term3).truncate(n)


# -- decompositions over Gamma0(t) ------------------------------------------------


def solve_in_e2t_basis(h, t, s):
    """The GPoly K with integer-grid h = E2t K(G_t), K supported in G^-ts..G^s,
    solved unitriangularly.

    h must have lowest exponent >= -s and be valid past q^(t*s); the residual
    beyond the solved window must vanish through h's validity."""
    if h.frac24 != 0:
        raise ValueError("basis solve needs the integer grid")
    if h.lo < -s:
        raise ValueError("pole order exceeds s: lowest exponent %d < -%d" % (h.lo, s))
    ts = t * s
    if h.valid_to <= ts:
        raise ValueError("need validity beyond q^%d, have q^%d" % (ts, h.valid_to))
    prec = h.valid_to + s + 4
    powers = _GPowers(t, hauptmodul(t, prec, h.modulus))
    e2 = e2t(t, prec, h.modulus)
    leads = range(-s, ts + 1)  # E2t G^a leads at q^-a
    coeffs = peel(h, leads, lambda e: e2.mul(powers[-e]))
    return GPoly.from_dict(t, {-e: c for e, c in zip(leads, coeffs)})


def decompose_gamma0(f, t, s):
    """Decompose a q^(n-1/24)-grid stream F: F * eta = E2t K(G_t), returning K."""
    h = f.mul(eta_quotient({1: 1}, f.valid_to + 2, f.modulus))
    return solve_in_e2t_basis(h, t, s)


def e46d_decompose(t):
    """E4^2 E6/Delta = E2t * sum_{j=-t..1} a_j G_t^j: returns that GPoly."""
    h = e14_over_delta(t + 9)
    return solve_in_e2t_basis(h, t, 1)


# -- congruence lemmas for the weight-14 combination and powers of j --------------

# (line, t, modulus, K, statement): an "e46d" line compares E4^2 E6/Delta,
# times j in "e46d-j2", with E2t K(G_t); a "j" line compares j with K(G_t).
# The left sides are read mod 5^8, 7^4 or 13^2 and reduced to the modulus.
_LEMMA_ROWS = (
    ("e46d-mod-5^8", 5, 5**8, {1: 1, -1: 2 * 31 * 5**5},
     "E4^2 E6/Delta == E2,5 (G5 + 2*31*5^5 G5^-1) (mod 5^8)"),
    ("e46d-mod-7^4", 7, 7**4, {1: 1}, "E4^2 E6/Delta == E2,7 G7 (mod 7^4)"),
    ("e46d-mod-13^2", 13, 13**2, {1: 1}, "E4^2 E6/Delta == E2,13 G13 (mod 13^2)"),
    ("j-mod-5^8", 5, 5**8, {1: 1, 0: 750, -1: 3**2 * 7 * 5**5},
     "j == G5 + 750 + 3^2*7*5^5 G5^-1 (mod 5^8)"),
    ("j-mod-7^4", 7, 7**4, {1: 1, 0: 748}, "j == G7 + 748 (mod 7^4)"),
    ("j-mod-13^2", 13, 13**2, {1: 1, 0: 70}, "j == G13 + 70 (mod 13^2)"),
    ("e46d-mod-5^6", 5, 5**6, {1: 1, -1: 2 * 5**5},
     "(E6/E4) j == E2,5 (G5 + 2*5^5 G5^-1) (mod 5^6)"),
    ("e46d-j2-mod-5^6", 5, 5**6, {1: 2 * 3 * 5**3, 2: 1},
     "(E6/E4) j^2 == E2,5 (2*3*5^3 G5 + G5^2) (mod 5^6)"),
)


def check_lemma_congruences(n=100):
    """The displayed mod 5^8 / 7^4 / 13^2 / 5^6 reductions of E4^2 E6/Delta,
    of j, and of (E6/E4) j^a = (E4^2 E6/Delta) j^(a-1) in the hauptmodul
    basis, one line per _LEMMA_ROWS row, then the epsilon ladder."""
    prec = n + 8
    table_mod = {5: 5**8, 7: 7**4, 13: 13**2}
    e14 = {t: e14_over_delta(prec, m) for t, m in table_mod.items()}
    j = {t: j_series(prec, m) for t, m in table_mod.items()}
    reports = []
    for line, t, mod, k, statement in _LEMMA_ROWS:
        rhs = GPoly.from_dict(t, k).eval(hauptmodul(t, n + 6, mod))
        if line.startswith("j-"):
            lhs = j[t]
        else:
            lhs = e14[t].mul(j[t]) if line.startswith("e46d-j2") else e14[t]
            rhs = e2t(t, n + 6, mod).mul(rhs)
        params = {"t": t, "modulus": mod, "n": n, "statement": statement}
        reports.append(identity_report(line, lhs.reduce_mod(mod), rhs, params, hi=n))
    return reports + epsilon_ladder_reports(3, 8)


def epsilon_ladder_reports(a_min=3, a_max=8):
    """For a_min <= a <= a_max: (E6/E4) j^a = (E4^2 E6/Delta) j^(a-1) mod 5^6
    is supported on the top three hauptmodul powers, with eps_1 = 0 mod 5^5
    and eps_2 = 0 mod 5^3."""
    reports = []
    modulus = 5**6
    prec = 5 * a_max + a_max + 12
    jj = j_series(prec, modulus)
    f = e14_over_delta(prec, modulus)
    for _ in range(a_min - 1):
        f = f.mul(jj)
    for a in range(a_min, a_max + 1):
        h = f.truncate(5 * a + 3)
        if a < a_max:
            f = f.mul(jj)
        with timed_report(
            "epsilon-ladder-a=%d" % a,
            {
                "t": 5,
                "a": a,
                "modulus": modulus,
                "statement": "(E6/E4) j^a == E2,5 (eps1 G^(a-2) + eps2 G^(a-1) + G^a) (mod 5^6), eps1 == 0 mod 5^5, eps2 == 0 mod 5^3",
            },
        ) as rec:
            try:
                k = solve_in_e2t_basis(h, 5, a)
            except ValueError as exc:
                rec.fail(0, "decomposition: %s" % exc, "K(G5) mod 5^6")
                reports.append(rec.report)
                continue
            lead = k.coeff(a)
            eps2 = k.coeff(a - 1)
            eps1 = k.coeff(a - 2)
            low = [j for j in k.support if j < a - 2]
            bad = None
            if lead != 1 % modulus:
                bad = (a, lead, 1)
            if bad is None and eps1 % 5**5:
                bad = (a - 2, eps1 % 5**5, 0)
            if bad is None and eps2 % 5**3:
                bad = (a - 1, eps2 % 5**3, 0)
            if bad is None and low:
                bad = (low[0], k.coeff(low[0]), 0)
            if bad is None:
                rec.ok(6 * a + 1)  # the powers G^-5a .. G^a
            else:
                rec.fail(*bad)
        reports.append(rec.report)
    return reports


# -- the Atkin-style gamma constants ------------------------------------------------


TC = {5: 6, 7: 4, 13: 2}


def atkin_gamma_constant(t, ell, n):
    """Scan the weight-neg-half combo of p(n) over n with legendre(1-24n|t) = -1:
    it should equal a single constant gamma times p(n) mod t^c.

    Returns (gamma, report); gamma is None when the sweep fails."""
    if ell == t or ell in (2, 3):
        raise ValueError("need a prime ell >= 5 different from t")
    mod = t ** TC[t]
    s = s_ell(ell)
    f = stream("p", ell * ell * n - s + 1, mod)
    combo = hecke_combo(f, HeckeParams.weight_neg_half(ell), n)
    gamma = None
    with timed_report(
        "atkin-gamma",
        {
            "t": t,
            "ell": ell,
            "n": n,
            "modulus": mod,
            "statement": "l^3 p(l^2 n - s) + l chi12(l) (1-24n|l) p(n) + p((n+s)/l^2) == gamma_t p(n) (mod t^c) on (1-24n|t) = -1",
        },
    ) as rec:
        idx = np.arange(1, n + 1)
        idx = idx[legendre_class(idx, t) == -1]
        pm, lhs = f.gather(idx), combo.gather(idx)
        units = np.flatnonzero(pm % t)
        if len(units) == 0:
            rec.skip("no admissible n with p(n) invertible mod %d" % t)
        else:
            i = units[0]
            gamma = int(lhs[i]) * pow(int(pm[i]), -1, mod) % mod
            if sweep(rec, idx, lhs, gamma * pm, mod):
                rec.report.params["gamma"] = gamma
            else:
                gamma = None
    return gamma, rec.report
