"""Level-t machinery for t in {5, 7, 13}: the eta-quotient hauptmodul, the
weight-2 Eisenstein series, beta coefficient streams with their vanishing
patterns, Fricke-involution bookkeeping on hauptmodul polynomials, and
basis decompositions of weight-2 objects over Gamma0(t)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import (
    e14_over_delta,
    eisenstein,
    eta_pow,
    euler_product,
    inverse_euler,
    j_series,
)
from .hecke import chi12, legendre
from .reports import CongruenceReport, identity_report, timed_report
from .series import Series

LEVELS = (5, 7, 13)


def _eta_exponent(t):
    if t not in LEVELS:
        raise ValueError("level must be one of %s, got %r" % (LEVELS, t))
    return 24 // (t - 1)


def s_t(t):
    """(t^2 - 1)/24: the pole order of eta(z)/eta(t^2 z)."""
    _eta_exponent(t)
    return (t * t - 1) // 24


def hauptmodul(t, n, modulus=0):
    """G_t = (eta(z)/eta(tz))^(24/(t-1)) = q^-1 (1 + ...) on Gamma0(t)."""
    e = _eta_exponent(t)
    top = n + e + 1
    eu = euler_product(top, modulus)
    # dilation is a ring map: raise to -e before dilating, at the length read
    body = eu**e * (inverse_euler(-(-top // t), modulus) ** e).dilate(t)
    return body.shift(-1).truncate(n)


def e2t(t, n, modulus=0):
    """The weight-2 Eisenstein series (t E2(tz) - E2(z))/(t - 1) on Gamma0(t)."""
    _eta_exponent(t)
    e2 = eisenstein(2, n)
    num = e2.dilate(t).scale(t) - e2
    for i, c in enumerate(num.coeffs):
        if c % (t - 1):
            raise ArithmeticError("E2 combination not divisible by %d at q^%d" % (t - 1, i))
    vals = [c // (t - 1) for c in num.coeffs]
    out = Series(vals, 0, 0, 0, copy=False)
    return out.reduce_mod(modulus) if modulus else out


def phi_t(t, n, modulus=0):
    """Phi_t = eta(z)/eta(t^2 z) = q^(-s_t) (1 + ...)."""
    s = s_t(t)
    top = n + s + 1
    eu = euler_product(top, modulus)
    body = eu * inverse_euler(-(-top // (t * t)), modulus).dilate(t * t)
    return body.shift(-s).truncate(n)


# -- polynomials in the hauptmodul ---------------------------------------------


@dataclass(frozen=True)
class GPoly:
    """A Laurent polynomial in the hauptmodul G_t with exact coefficients."""

    t: int
    coeffs: tuple  # tuple of (exponent, coefficient), sorted by exponent

    @classmethod
    def from_dict(cls, t, d):
        items = tuple(
            (int(j), _norm_coeff(c)) for j, c in sorted(d.items()) if c != 0
        )
        return cls(t, items)

    def as_dict(self):
        return dict(self.coeffs)

    def coeff(self, j):
        return dict(self.coeffs).get(j, 0)

    @property
    def support(self):
        return tuple(j for j, _ in self.coeffs)

    def is_integral(self):
        return all(not isinstance(c, Fraction) for _, c in self.coeffs)

    def __add__(self, other):
        d = self.as_dict()
        for j, c in other.coeffs:
            d[j] = d.get(j, 0) + c
        return GPoly.from_dict(self.t, d)

    def scale(self, c):
        return GPoly.from_dict(self.t, {j: c * v for j, v in self.coeffs})

    def fricke(self):
        """Image under z -> -1/(tz): G^j picks up t^(12j/(t-1)) G^-j."""
        e = 12 // (self.t - 1)
        d = {}
        for j, c in self.coeffs:
            d[-j] = c * Fraction(self.t) ** (e * j)
        return GPoly.from_dict(self.t, d)

    def eval(self, g):
        """Evaluate at a hauptmodul Series g (positive and negative powers)."""
        if not self.coeffs:
            return Series.zero(g.valid_to, 0, g.modulus)
        ginv = None
        acc = None
        for j, c in self.coeffs:
            if j == 0:
                term = Series.one(g.valid_to - g.lo, g.modulus)
            elif j > 0:
                term = g**j
            else:
                if ginv is None:
                    ginv = g.invert()
                term = ginv ** (-j)
            term = term.scale(c)
            acc = term if acc is None else acc + term
        return acc


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# -- beta streams ---------------------------------------------------------------


@dataclass(eq=False)
class BetaStream:
    """Coefficients beta(n) of E2t(z) K(G_t(z)) / eta(z) on the q^(n-1/24) grid."""

    t: int
    source: GPoly
    series: Series

    @property
    def lo(self):
        return self.series.lo

    @property
    def hi(self):
        return self.series.valid_to

    def at(self, n):
        return self.series.coeff(n)


def beta_stream(t, k, n, modulus=0):
    """Expand E2t * K(G_t) / eta through q^(n - 1/24)."""
    if not k.is_integral() and modulus:
        raise ValueError("modular beta stream needs an integral K")
    prec = n + max(0, max((j for j, _ in k.coeffs), default=0)) + 2
    body = e2t(t, prec, modulus)
    if any(j for j, _ in k.coeffs):
        body = body.mul(k.eval(hauptmodul(t, prec, modulus)))
    else:
        body = body.scale(k.coeff(0))
    ser = body.mul(eta_pow(-1, prec, modulus)).truncate(n)
    return BetaStream(t, k, ser)


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
        bad = beta.at(-j)
        if bad:
            k[j] = -bad
    return GPoly.from_dict(t, k)


def verify_beta_vanish(t, m, n):
    """beta(n) vanishes whenever legendre(1-24n|t) = -legendre(1-24m|t)."""
    k = atkin_solve_k(t, m)
    beta = beta_stream(t, k, n)
    target = -legendre(1 - 24 * m, t)
    with timed_report(
        "beta-vanish",
        {
            "t": t,
            "m": m,
            "n": n,
            "statement": "beta_t(n) == 0 when legendre(1-24n|t) == -legendre(1-24m|t)",
        },
    ) as rec:
        count = 0
        for i in range(m, n + 1):
            if legendre(1 - 24 * i, t) != target:
                continue
            count += 1
            if beta.at(i) != 0:
                rec.fail(i, beta.at(i), 0, n_verified=count - 1)
                break
        else:
            rec.ok(count)
    return rec.report


# -- the S and Psi constructions ------------------------------------------------


def s_form(t, k, n):
    """S = E2t(tz) K*(G)(tz) Phi_t(z) - chi12(t) eta(z) sum_n (1-24n|t) beta(n) q^(n-1/24).

    K must be supported in nonnegative powers so K* has integral coefficients."""
    if min(k.support, default=0) < 0:
        raise ValueError("S construction needs K supported in G^j, j >= 0")
    kstar = k.fricke()
    if not kstar.is_integral():
        raise ValueError("Fricke image has non-integral coefficients")
    prec = n + t * max((abs(j) for j in k.support), default=0) + s_t(t) + 4
    g = hauptmodul(t, prec)
    inner = e2t(t, prec).mul(kstar.eval(g))
    term1 = inner.dilate(t).truncate(prec).mul(phi_t(t, prec))
    beta = beta_stream(t, k, prec)
    twisted = _legendre_twist(beta, t)
    term2 = eta_pow(1, prec).mul(twisted).scale(chi12(t))
    return (term1 - term2).truncate(n)


def _legendre_twist(beta, t):
    ser = beta.series
    leg = [legendre(1 - 24 * r, t) for r in range(t)]  # (1-24i|t) has period t
    vals = [leg[i % t] * c for i, c in enumerate(ser.coeffs, ser.lo)]
    return Series(vals, ser.lo, 23, ser.modulus, copy=False)


def psi_form(t, k, n):
    """Psi = E2t(tz) K*(G)(tz)/eta(t^2 z)
          - chi12(t) sum (1-24n|t) beta(n) q^(n-1/24)
          - sum beta(t^2 n - s_t) q^(n-1/24)."""
    if min(k.support, default=0) < 0:
        raise ValueError("Psi construction needs K supported in G^j, j >= 0")
    kstar = k.fricke()
    s = s_t(t)
    jmax = max((abs(j) for j in k.support), default=0)
    # only the sifted third term needs coefficients near t^2 n; the direct
    # terms are assembled at a precision just past n
    need = n + s + 6
    prec1 = need // t + jmax + 4
    g = hauptmodul(t, prec1)
    inner = e2t(t, prec1).mul(kstar.eval(g))
    inv_eta_t2 = eta_pow(-1, need // (t * t) + 4).dilate(t * t)
    term1 = inner.dilate(t).mul(inv_eta_t2).truncate(need)
    beta = beta_stream(t, k, t * t * (n + 1) + s + 2)
    term2 = _legendre_twist(beta, t).scale(chi12(t))
    term3 = beta.series.sift(t * t, -s)
    return (term1 - term2 - term3).truncate(n)


# -- decompositions over Gamma0(t) ------------------------------------------------


@dataclass(eq=False)
class Gamma0Basis:
    """Coefficients d_a of a decomposition F = sum_a d_a E2t G_t^a, a in [-t*s, s]."""

    t: int
    s: int
    d: list
    modulus: int = 0

    @property
    def support(self):
        return range(-self.t * self.s, self.s + 1)

    def coeff(self, a):
        if a < -self.t * self.s or a > self.s:
            return 0
        return self.d[a + self.t * self.s]


def solve_in_e2t_basis(h, t, s, prec_margin=4):
    """Solve integer-grid h = sum_{a=-ts..s} d_a E2t G_t^a, unitriangularly.

    h must have lowest exponent >= -s and be valid past q^(t*s); the residual
    beyond the solved window must vanish through h's validity."""
    if h.frac24 != 0:
        raise ValueError("basis solve needs the integer grid")
    if h.lo < -s:
        raise ValueError("pole order exceeds s: lowest exponent %d < -%d" % (h.lo, s))
    ts = t * s
    if h.valid_to <= ts:
        raise ValueError("need validity beyond q^%d, have q^%d" % (ts, h.valid_to))
    prec = h.valid_to + s + prec_margin
    g = hauptmodul(t, prec, h.modulus)
    e2 = e2t(t, prec, h.modulus)
    ginv = g.invert()
    d = [0] * (ts + s + 1)
    residual = h
    for e in range(-s, ts + 1):
        a = -e
        coeff = residual.coeff(e)
        if coeff == 0:
            continue
        power = g**a if a > 0 else (ginv ** (-a) if a < 0 else Series.one(prec, h.modulus))
        elt = e2.mul(power)
        lead = elt.coeff(e)
        if h.modulus:
            bk = (coeff * pow(lead, -1, h.modulus)) % h.modulus
        else:
            if coeff % lead:
                raise ValueError("non-integer coefficient d_%d" % a)
            bk = coeff // lead
        d[a + ts] = bk
        residual = residual.lincomb(elt, 1, -bk)
    if not residual.is_zero():
        raise ValueError("residual nonzero: input outside the E2t G^a span")
    return Gamma0Basis(t, s, d, h.modulus)


def decompose_gamma0(f, t, s):
    """Decompose a q^(n-1/24)-grid stream F: F * eta = sum d_a E2t G_t^a."""
    h = f.mul(eta_pow(1, f.valid_to + 2, f.modulus))
    return solve_in_e2t_basis(h, t, s)


def e46d_decompose(t, prec_extra=8):
    """E4^2 E6/Delta = E2t * sum_{j=-t..1} a_j G_t^j: returns the Gamma0Basis."""
    h = e14_over_delta(t + 1 + prec_extra)
    return solve_in_e2t_basis(h, t, 1)


# -- congruence lemmas for the weight-14 combination and powers of j --------------


def _gpoly_reduction_report(name, lhs, t, kdict, modulus, n, statement):
    """lhs == E2t * K(G_t) (mod modulus) through q^n."""
    g = hauptmodul(t, n + 6, modulus)
    rhs = e2t(t, n + 6, modulus).mul(GPoly.from_dict(t, kdict).eval(g))
    return identity_report(
        name,
        lhs if lhs.modulus == modulus else lhs.reduce_mod(modulus),
        rhs,
        {"t": t, "modulus": modulus, "n": n, "statement": statement},
        hi=n,
    )


def check_lemma_congruences(n=100):
    """The displayed mod 5^8 / 7^4 / 13^2 / 5^6 reductions of E4^2 E6/Delta,
    of j, and of (E6/E4) j^a in the hauptmodul basis, each computed in its
    modulus (5^6 reduced from 5^8)."""
    reports = []
    prec = n + 8
    e14 = {m: e14_over_delta(prec, m) for m in (5**8, 7**4, 13**2)}
    reports.append(
        _gpoly_reduction_report(
            "e46d-mod-5^8",
            e14[5**8],
            5,
            {1: 1, -1: 2 * 31 * 5**5},
            5**8,
            n,
            "E4^2 E6/Delta == E2,5 (G5 + 2*31*5^5 G5^-1) (mod 5^8)",
        )
    )
    reports.append(
        _gpoly_reduction_report(
            "e46d-mod-7^4",
            e14[7**4],
            7,
            {1: 1},
            7**4,
            n,
            "E4^2 E6/Delta == E2,7 G7 (mod 7^4)",
        )
    )
    reports.append(
        _gpoly_reduction_report(
            "e46d-mod-13^2",
            e14[13**2],
            13,
            {1: 1},
            13**2,
            n,
            "E4^2 E6/Delta == E2,13 G13 (mod 13^2)",
        )
    )

    # plain-j reductions: j == G + 750 + 3^2*7*5^5/G (mod 5^8) and friends
    j = {m: j_series(prec, m) for m in (5**8, 7**4, 13**2)}
    for t, mod, kdict, stmt in (
        (5, 5**8, {1: 1, 0: 750, -1: 3**2 * 7 * 5**5}, "j == G5 + 750 + 3^2*7*5^5 G5^-1 (mod 5^8)"),
        (7, 7**4, {1: 1, 0: 748}, "j == G7 + 748 (mod 7^4)"),
        (13, 13**2, {1: 1, 0: 70}, "j == G13 + 70 (mod 13^2)"),
    ):
        g = hauptmodul(t, n + 6, mod)
        rhs = GPoly.from_dict(t, kdict).eval(g)
        reports.append(
            identity_report(
                "j-mod-%d^%d" % (t, {5: 8, 7: 4, 13: 2}[t]),
                j[mod],
                rhs,
                {"t": t, "modulus": mod, "n": n, "statement": stmt},
                hi=n,
            )
        )

    # mod 5^6 ladder: (E6/E4) j^a for a = 1, 2, then the epsilon pattern a >= 3
    reports.append(
        _gpoly_reduction_report(
            "e46d-mod-5^6",
            e14[5**8],
            5,
            {1: 1, -1: 2 * 5**5},
            5**6,
            n,
            "(E6/E4) j == E2,5 (G5 + 2*5^5 G5^-1) (mod 5^6)",
        )
    )
    e4 = eisenstein(4, prec, 5**6)
    e6 = eisenstein(6, prec, 5**6)
    jj = j[5**8].reduce_mod(5**6)
    base = e6.mul(e4.invert())
    reports.append(
        _gpoly_reduction_report(
            "e46d-j2-mod-5^6",
            base.mul(jj).mul(jj),
            5,
            {1: 2 * 3 * 5**3, 2: 1},
            5**6,
            n,
            "(E6/E4) j^2 == E2,5 (2*3*5^3 G5 + G5^2) (mod 5^6)",
        )
    )
    reports.extend(epsilon_ladder_reports(3, 8))
    return reports


def epsilon_ladder_reports(a_min=3, a_max=8, modulus=5**6):
    """For a_min <= a <= a_max: (E6/E4) j^a mod 5^6 is supported on the top
    three hauptmodul powers, with eps_1 = 0 mod 5^5 and eps_2 = 0 mod 5^3."""
    reports = []
    prec = 5 * a_max + a_max + 12
    e4 = eisenstein(4, prec, modulus)
    e6 = eisenstein(6, prec, modulus)
    jj = j_series(prec, modulus)
    f = e6.mul(e4.invert())
    for _ in range(a_min):
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
            basis = solve_in_e2t_basis(h, 5, a)
            lead = basis.coeff(a)
            eps2 = basis.coeff(a - 1)
            eps1 = basis.coeff(a - 2)
            bad = None
            if lead != 1 % modulus:
                bad = (a, lead, 1)
            if bad is None and eps1 % 5**5:
                bad = (a - 2, eps1 % 5**5, 0)
            if bad is None and eps2 % 5**3:
                bad = (a - 1, eps2 % 5**3, 0)
            if bad is None:
                for other in basis.support:
                    if other < a - 2 and basis.coeff(other):
                        bad = (other, basis.coeff(other), 0)
                        break
            if bad is None:
                rec.ok(len(list(basis.support)))
            else:
                rec.fail(*bad)
        reports.append(rec.report)
    return reports


# -- the Atkin-style gamma constants ------------------------------------------------


TC = {5: 6, 7: 4, 13: 2}


def atkin_gamma_constant(t, ell, n, p_stream=None):
    """Scan the weight-neg-half combo of p(n) over n with legendre(1-24n|t) = -1:
    it should equal a single constant gamma times p(n) mod t^c.

    Returns (gamma, report); gamma is None when the sweep fails."""
    from .hecke import HeckeParams, hecke_combo, s_ell
    from .partitions import stream

    if ell == t or ell in (2, 3):
        raise ValueError("need a prime ell >= 5 different from t")
    mod = t ** TC[t]
    s = s_ell(ell)
    f = p_stream if p_stream is not None else stream("p", ell * ell * n - s + 1, mod)
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
        admissible = [
            (m, f.at(m) % mod, combo.at(m) % mod)
            for m in range(1, n + 1)
            if legendre(1 - 24 * m, t) == -1
        ]
        for m, pm, lhs in admissible:
            if pm % t:
                gamma = (lhs * pow(pm, -1, mod)) % mod
                break
        if gamma is None:
            rec.skip("no admissible n with p(n) invertible mod %d" % t)
        else:
            for i, (m, pm, lhs) in enumerate(admissible):
                if (gamma * pm - lhs) % mod:
                    rec.fail(m, lhs, (gamma * pm) % mod, n_verified=i)
                    gamma = None
                    break
            else:
                rec.ok(len(admissible))
        if gamma is not None:
            rec.report.params["gamma"] = gamma
    return gamma, rec.report
