"""Hecke-type three-term coefficient combinations on the q^(n - 1/24) grid,
the polynomial family attached to the j-function that generates them, and
the level-one basis decompositions used to certify their congruences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import delta_series, eisenstein, eta_quotient, euler_product, e14_over_delta, j_series
from .partitions import stream
from .reports import identity_report
from .series import Series, reduce

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


def legendre_class(m, p):
    """(1-24m|p) for each entry of an integer array m, as an int64 array: the
    symbol has period p in m, so one table of p values serves every m."""
    period = np.array([legendre(1 - 24 * r, p) for r in range(p)], dtype=np.int64)
    return period[np.asarray(m) % p]


def s_ell(ell):
    """(ell^2 - 1)/24, integral for every prime ell >= 5."""
    if ell < 5 or not is_odd_prime(ell):
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
    """Apply a Hecke-type combination to a table f, for lo <= m <= n, as a
    Series on the q^(m - 1/24) grid."""
    ell, s = params.ell, params.s
    if lo is None:
        lo = -s
    e2 = ell * ell
    if f.valid_to < e2 * n - s:
        raise ValueError("table must reach %d for the combo at n=%d" % (e2 * n - s, n))
    m = np.arange(lo, n + 1, dtype=np.int64)
    mid = chi12(ell) * (legendre_class(m, ell) + params.shift) * params.v
    # the last term reads index f.lo - 1, a zero, unless ell^2 divides m + s
    back = np.where((m + s) % e2 == 0, (m + s) // e2, f.lo - 1)
    out = params.u * f.gather(e2 * m - s) + mid * f.gather(m) + params.w * f.gather(back)
    return Series._wrap(reduce(out, f.modulus), lo, 23, f.modulus)


# -- the polynomial family A_m(x) ---------------------------------------------


def ono_poly_A(m_max):
    """The tuple (A_0, ..., A_m_max) of integer polynomials in x, each a
    tuple of coefficients from x^0 up, defined by
    sum_m A_m(x) q^m = E(q) (E4^2 E6/Delta) / (j - x).

    Since 1/(j - x) = sum_k x^k j^-(k+1), the x^k coefficient of A_m is the
    q^m coefficient of E (E4^2 E6/Delta) j^-(k+1), which starts at q^k.
    A_0 = 1, A_1 = x - 745, and A_m is monic of degree m.
    """
    jinv = j_series(m_max + 1).invert()
    h = euler_product(m_max + 1) * e14_over_delta(m_max + 1)
    powers = []  # E (E4^2 E6/Delta) j^-(k+1), k = 0..m_max
    for _ in range(m_max + 1):
        h = h.mul(jinv)
        powers.append(h)
    polys = []
    for m in range(m_max + 1):
        poly = tuple(powers[k].coeff(m) for k in range(m + 1))
        assert poly[m] == 1, "A_%d is not monic of degree %d" % (m, m)
        polys.append(poly)
    return tuple(polys)


def c_ell(ell):
    """The monic degree-s polynomial ell*chi12(ell) + A_s(x), s = (ell^2-1)/24."""
    s = s_ell(ell)
    a = list(ono_poly_A(s)[s])
    a[0] += ell * chi12(ell)
    return tuple(a)


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
    lhs = combo * eta_quotient({1: 1}, n + s + 2)
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
    lhs = (combo * eta_quotient({1: 1 + 24 * s}, prec)).scale(ell)
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
    # element k leads at q^(s-k), so b_s .. b_1 come out in that order
    return peel(f, range(s), lambda e: basis[s - e - 1])[::-1]


def peel(f, leads, element):
    """Coefficients c_e of f = sum_e c_e element(e) over a unitriangular basis,
    e in leads ascending, with element(e) leading at q^e; integers when f is
    exact, residues when it is modular.  Each c_e is read off the residual
    at q^e, and element(e) is built only when c_e != 0.  A non-integer c_e,
    or a residual left nonzero through f's validity, raises ValueError.
    """
    out = []
    residual = f
    for e in leads:
        coeff = residual.coeff(e)
        if coeff == 0:
            out.append(0)
            continue
        elt = element(e)
        lead = elt.coeff(e)
        if f.modulus:
            c = coeff * pow(lead, -1, f.modulus) % f.modulus
        elif coeff % lead:
            raise ValueError("non-integer coefficient at q^%d" % e)
        else:
            c = coeff // lead
        out.append(c)
        residual = residual.lincomb(elt, 1, -c)
    if not residual.truncate(f.valid_to).is_zero():
        raise ValueError("residual is nonzero: input outside the basis span")
    return out
