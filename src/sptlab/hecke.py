"""Hecke-type three-term coefficient combinations on the q^(n - 1/24) grid,
the polynomial family attached to the j-function that generates them, and
the level-one basis decompositions used to certify their congruences."""

from __future__ import annotations

from dataclasses import dataclass

from .forms import delta_series, eisenstein, eta_pow, euler_product, e14_over_delta, j_series
from .partitions import stream
from .reports import CongruenceReport, identity_report, timed_report
from .series import CoeffStream, Series

_CHI12 = {1: 1, 11: 1, 5: -1, 7: -1}


def chi12(n):
    """The quadratic character mod 12: +1 at +-1, -1 at +-5, else 0."""
    return _CHI12.get(n % 12, 0)


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def legendre(a, p):
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    if not is_odd_prime(p):
        raise ValueError("legendre symbol needs an odd prime, got %d" % p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def s_ell(ell):
    """(ell^2 - 1)/24, integral for every prime ell >= 5."""
    if ell < 5 or not is_odd_prime(ell) or ell % 2 == 0 or ell % 3 == 0:
        raise ValueError("need a prime ell >= 5 coprime to 6, got %d" % ell)
    return (ell * ell - 1) // 24


@dataclass(frozen=True)
class HeckeParams:
    """Weights (u, v, w, shift) of the combination

    g(n) = u f(ell^2 n - s) + chi12(ell) (legendre(1-24n | ell) + shift) v f(n)
           + w f((n + s)/ell^2),   s = (ell^2-1)/24,

    where the last term is read as 0 unless ell^2 divides n + s.
    """

    ell: int
    u: int
    v: int
    w: int
    shift: int = 0

    @property
    def s(self):
        return s_ell(self.ell)

    @classmethod
    def weight_neg_half(cls, ell):
        """T(ell^2) action on 1/eta: weights (ell^3, ell, 1), no shift."""
        return cls(ell, ell**3, ell, 1, 0)

    @classmethod
    def weight_three_half(cls, ell):
        """T(ell^2) action minus its eigenvalue chi12(ell)(1+ell): (1, 1, ell)."""
        return cls(ell, 1, 1, ell, -(1 + ell))


def hecke_combo(f, params, n, lo=None):
    """Apply a Hecke-type combination to a stream, for lo <= m <= n."""
    ell, s = params.ell, params.s
    if lo is None:
        lo = -s
    need = ell * ell * n - s
    if f.hi < need:
        raise ValueError("stream %s must reach %d for the combo at n=%d" % (f.kind, need, n))
    mod = f.modulus
    e2 = ell * ell
    # the weight of f(m), which depends on m only through (1-24m|ell), m mod ell
    mid = [
        chi12(ell) * (legendre(1 - 24 * r, ell) + params.shift) * params.v
        for r in range(ell)
    ]
    out = []
    for m in range(lo, n + 1):
        v = params.u * f.at(e2 * m - s)
        v += mid[m % ell] * f.at(m)
        if (m + s) % e2 == 0:
            v += params.w * f.at((m + s) // e2)
        out.append(v % mod if mod else v)
    return CoeffStream(out, "hecke[%s,l=%d]" % (f.kind, ell), 23, mod, lo)


# -- the polynomial family A_m(x) ---------------------------------------------


def _padd(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pscale(a, c):
    return tuple(c * v for v in a)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return tuple(out)


def _ptrim(a):
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return tuple(a[:n])


def ono_poly_A(m_max, n=None):
    """The tuple (A_0, ..., A_m_max) of integer polynomials in x, each a
    tuple of coefficients from x^0 up, defined by
    sum_m A_m(x) q^m = E(q) (E4^2 E6/Delta) / (j - x).

    A_0 = 1, A_1 = x - 745, and A_m is monic of degree m.
    """
    if n is None:
        n = m_max
    if n < m_max:
        raise ValueError("precision n must be at least m_max")
    j = j_series(m_max + 1)
    # u = q (j - x), a unit power series over Z[x]
    u = [(j.coeff(k - 1),) for k in range(m_max + 1)]
    if m_max >= 1:
        u[1] = (744, -1)
    binv = [(1,)] + [(0,)] * m_max
    for i in range(1, m_max + 1):
        acc = (0,)
        for k in range(1, i + 1):
            if u[k] != (0,):
                acc = _padd(acc, _pmul(u[k], binv[i - k]))
        binv[i] = _ptrim(_pscale(acc, -1))
    g = euler_product(m_max + 1) * e14_over_delta(m_max + 1)
    gq = [g.coeff(k - 1) for k in range(m_max + 1)]
    polys = []
    for m in range(m_max + 1):
        acc = (0,)
        for k in range(m + 1):
            if gq[k]:
                acc = _padd(acc, _pscale(binv[m - k], gq[k]))
        acc = _ptrim(acc)
        assert len(acc) == m + 1 and acc[m] == 1, "A_%d is not monic of degree %d" % (m, m)
        polys.append(acc)
    return tuple(polys)


def c_ell(ell):
    """The monic degree-s polynomial ell*chi12(ell) + A_s(x), s = (ell^2-1)/24."""
    s = s_ell(ell)
    a = list(ono_poly_A(s)[s])
    a[0] += ell * chi12(ell)
    out = _ptrim(tuple(a))
    assert len(out) == s + 1 and out[s] == 1
    return out


def poly_at_series(poly, x):
    """Evaluate an integer polynomial at a Series by Horner's rule."""
    deg = len(poly) - 1
    acc = Series.one(x.valid_to, x.modulus).scale(poly[deg])
    for k in range(deg - 1, -1, -1):
        acc = acc.mul(x)
        if poly[k]:
            acc = acc.lincomb(Series.one(acc.valid_to, x.modulus), 1, poly[k])
    return acc


# -- verification of the generating identities ---------------------------------


def verify_zell(ell, n):
    """The weight-neg-half combo on p, times eta, equals C_ell(j)."""
    s = s_ell(ell)
    p = stream("p", ell * ell * n - s + 1)
    combo = hecke_combo(p, HeckeParams.weight_neg_half(ell), n)
    lhs = combo.to_series() * eta_pow(1, n + s + 2)
    rhs = poly_at_series(c_ell(ell), j_series(n + s + 2))
    return identity_report(
        "zell",
        lhs,
        rhs,
        {
            "ell": ell,
            "n": n,
            "statement": "(T(l^2) acting on 1/eta, weights l^3,l,1) * eta == C_l(j)",
        },
        lo=-s,
        hi=n,
    )


def verify_xi(ell, n):
    """ell * (three-halves combo on d) * eta * Delta^s against the
    explicit Eisenstein-side expansion in the C_ell coefficients."""
    s = s_ell(ell)
    prec = n + s + 4
    d = stream("d", ell * ell * n - s + 1)
    combo = hecke_combo(d, HeckeParams.weight_three_half(ell), n)
    delta = delta_series(prec)
    lhs = (combo.to_series() * eta_pow(1, prec) * delta**s).scale(ell)
    e2 = eisenstein(2, prec)
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    c = c_ell(ell)
    rhs = None
    for k in range(0, s + 1):
        term = (e4 ** (3 * k - 1)) * (delta ** (s - k)) if k else (
            e4.invert() * delta**s
        )
        inner = e4 * e2 if k == 0 else e6.scale(24 * k) + e4 * e2
        term = term.mul(inner).scale(-c[k])
        rhs = term if rhs is None else rhs + term
    rhs = rhs + (e2 * delta**s).scale(chi12(ell) * ell * (1 + ell))
    return identity_report(
        "xi",
        lhs,
        rhs,
        {
            "ell": ell,
            "n": n,
            "statement": "l*Xi_combo(d)*eta*Delta^s == -sum_k c_k E4^(3k-1) Delta^(s-k) (24k E6 + E4 E2) + chi12(l) l(l+1) E2 Delta^s",
        },
        lo=0,
        hi=n,
    )


def level1_basis(s, prec, modulus=0):
    """Basis elements E4^(3k-1) E6 Delta^(s-k), k = 1..s; element k leads at q^(s-k)."""
    e4 = eisenstein(4, prec, modulus)
    e6 = eisenstein(6, prec, modulus)
    delta = delta_series(prec, modulus)
    out = []
    for k in range(1, s + 1):
        out.append((e4 ** (3 * k - 1) * e6 * delta ** (s - k)).truncate(prec))
    return out


def decompose_level1(f, s):
    """Solve f = sum_k b_k E4^(3k-1) E6 Delta^(s-k) with integer b_k.

    f must be on the integer grid with lowest exponent >= 0 and valid to at
    least q^(2s); a nonzero residual or non-integer solve raises ValueError.
    """
    if f.frac24 != 0:
        raise ValueError("level-one decomposition needs the integer grid")
    if f.lo < 0:
        raise ValueError("input has a pole; lowest exponent must be >= 0")
    if f.valid_to < 2 * s:
        raise ValueError("need validity through q^%d, have q^%d" % (2 * s, f.valid_to))
    basis = level1_basis(s, f.valid_to, f.modulus)
    residual = f
    b = [0] * (s + 1)
    for e in range(0, s):
        k = s - e
        elt = basis[k - 1]
        lead = elt.coeff(e)
        coeff = residual.coeff(e)
        if f.modulus:
            bk = (coeff * pow(lead, -1, f.modulus)) % f.modulus
        else:
            if coeff % lead:
                raise ValueError("non-integer coefficient b_%d" % k)
            bk = coeff // lead
        b[k] = bk
        if bk:
            residual = residual.lincomb(elt, 1, -bk)
    if not residual.truncate(f.valid_to).is_zero():
        raise ValueError("residual is nonzero: input outside the basis span")
    return b[1:]


def verify_mell_cong(ell, n):
    """Every coefficient of the three-halves combo on a(n) vanishes mod ell."""
    s = s_ell(ell)
    a = stream("a", ell * ell * n - s + 1, ell)
    combo = hecke_combo(a, HeckeParams.weight_three_half(ell), n)
    with timed_report(
        "mell-cong",
        {
            "ell": ell,
            "n": n,
            "modulus": ell,
            "statement": "three-halves combo of a(n)=12spt(n)+(24n-1)p(n) == 0 (mod l)",
        },
    ) as rec:
        for m in range(-s, n + 1):
            if combo.at(m) % ell:
                rec.fail(m, combo.at(m) % ell, 0, n_verified=m + s)
                break
        else:
            rec.ok(n + s + 1)
    return rec.report
