# standard library
import math
import random
from fractions import Fraction
from unittest import mock
# third party
import numpy as np
# test framework
from pytest import raises, mark
from hypothesis import given, settings
import hypothesis.strategies as st
# local package
from sptlab import __version__, Series, GridError, UnitError, ValidityError
from sptlab import series
from sptlab.series import (
    sgn24,
    split_e24,
    _conv_schoolbook,
    _check_conv_bound,
    _conv_columns,
    _conv_exact,
    _conv_mod,
    _FFT_CUTOFF,
    _LIMB_BUDGET,
    _limbs,
)
from sptlab.forms import euler_product

parametrize = mark.parametrize

CASES = settings(max_examples=50, deadline=None)


def test_version():
    assert __version__ == '0.1.0'


# -- grid bookkeeping ---------------------------------------------------------

@parametrize('f,s', [(0, 0), (1, 1), (12, 12), (13, -11), (23, -1)])
def test_sgn24(f, s):
    assert sgn24(f) == s


@parametrize('e,carry,frac', [
    (0, 0, 0),
    (23, 1, 23),  # 23/24 stores as frac 23 on index 1 (sgn -1)
    (-1, 0, 23),
    (25, 1, 1),
    (-13, -1, 11),
    (12, 0, 12),
])
def test_split_e24(e, carry, frac):
    assert split_e24(e) == (carry, frac)
    assert 24 * carry + sgn24(frac) == e


def test_exponent_is_fraction():
    s = Series([1, 2, 3], lo=2, frac24=23)
    assert s.exponent(2) == Fraction(47, 24)
    assert s.exponent(0) == Fraction(-1, 24)


# -- windows and accessors ----------------------------------------------------

def test_coeff_window():
    s = Series([5, 0, -7], lo=3)
    assert s.coeff(3) == 5
    assert s.coeff(5) == -7
    assert s.coeff(0) == 0  # below lo: known zero
    assert s.coeff(-10) == 0
    with raises(ValidityError):
        s.coeff(6)


def test_truncate_and_strip():
    s = Series([0, 0, 4, 1], lo=-1)
    assert s.strip().lo == 1
    assert s.strip().coeff(1) == 4
    t = s.truncate(1)
    assert t.valid_to == 1
    with raises(ValidityError):
        t.coeff(2)
    assert s.truncate(99) is s


def test_add_requires_matching_grid():
    a = Series([1, 1], frac24=0)
    b = Series([1, 1], frac24=23)
    with raises(GridError):
        a + b
    c = Series([1, 1], modulus=7)
    with raises(GridError):
        a + c


def test_mul_adds_grid_with_carry():
    # q^(1/2) * q^(1/2) = q, so the product lands on the integer grid
    # one index up; q^(-1/24) * q^(-1/24) stays at index 0 on frac 22
    a = Series([1, 0, 0], frac24=12)
    p = a.mul(a)
    assert p.frac24 == 0
    assert p.lo == 1
    assert p.coeff(1) == 1
    b = Series([1, 0, 0], frac24=23)
    pb = b.mul(b)
    assert pb.frac24 == 22
    assert pb.lo == 0
    assert pb.exponent(0) == 2 * b.exponent(0)


def test_mul_validity_window():
    # validity of a product is limited by the shorter factor shifted by
    # the other factor's lowest exponent
    a = Series([1] * 10, lo=0)
    b = Series([1] * 4, lo=2)
    p = a.mul(b)
    assert p.lo == 2
    assert p.valid_to == min(9 + 2, 5 + 0)
    assert p.coeff(2) == 1
    assert p.coeff(5) == 4


def test_pow_zero_is_one():
    s = Series([2, 3, 4], lo=1)
    one = s ** 0
    assert one.coeff(0) == 1
    assert all(one.coeff(n) == 0 for n in range(1, one.valid_to + 1))


# -- scalar ops and reduction -------------------------------------------------

@parametrize('modulus', [0, 97])
def test_gather_reads_as_coeff_does(modulus):
    s = Series([3, -1, 4, 1, -5, 9], lo=-2, modulus=modulus)
    assert s.gather([]).tolist() == []
    idx = [3, -7, -3, -2, 0, 3, 1]
    assert s.gather(idx).tolist() == [s.coeff(i) for i in idx]
    assert s.gather([-100, -3]).tolist() == [0, 0]
    assert s.gather([s.valid_to]).tolist() == [s.coeff(s.valid_to)]
    with raises(ValidityError):
        s.gather([0, s.valid_to + 1])
    with raises(ValidityError):
        s.coeff(s.valid_to + 1)


def test_gather_keeps_exact_values():
    big = 3**90
    got = Series([big, -big, 3], lo=1).gather([3, 2, 1, 0])
    assert got.dtype == object and got.tolist() == [3, -big, big, 0]
    assert type(got[0]) is int


@parametrize('c', [Fraction(7, 2), 0.5, 2.0])
def test_exact_series_rejects_a_non_integer_coefficient(c):
    # reduce_mod would truncate it: Fraction(7, 2) would read as 3 mod 5
    with raises(ValueError, match="integer"):
        Series([c, 1])
    assert Series([np.int64(7), 2**70]).coeffs.tolist() == [7, 2**70]


def test_exact_numpy_integers_multiply_as_python_ints():
    # in int64 the square's leading 2^80 would wrap to 0
    s = Series([np.int64(2**40), np.int64(3)])
    assert s.mul(s).coeffs.tolist() == [2**80, 6 * 2**40]
    assert {type(c) for c in Series([True, np.uint8(2), np.int32(-1)]).coeffs} == {int}


def test_exact_inverse_of_numpy_integers():
    # 1/(1 - 2^40 q) = sum 2^(40 k) q^k passes int64 at k = 2
    s = Series([np.int64(1), np.int64(-2**40)] + [np.int64(0)] * 3)
    assert s.invert().coeffs.tolist() == [2 ** (40 * k) for k in range(5)]


def test_reduce_mod_of_a_long_exact_table_matches_python():
    p = euler_product(3000).invert()
    got = p.reduce_mod(360360)
    assert got.coeffs.dtype == np.int64
    assert got.coeffs.tolist() == [c % 360360 for c in p.coeffs]
    assert got.reduce_mod(360360) is got


def test_reduce_mod_guards():
    s = Series([3, 4], lo=0)
    with raises(ValueError):
        s.reduce_mod(1)
    with raises(GridError):
        s.reduce_mod(6).reduce_mod(4)  # 4 does not divide 6
    r = s.reduce_mod(6).reduce_mod(3)
    assert r.coeff(0) == 0 and r.coeff(1) == 1


def test_conv_bound_guard():
    with raises(ValueError):
        _check_conv_bound(2**31 - 1, 10**7)


# -- inversion ----------------------------------------------------------------

def test_invert_needs_unit():
    with raises(UnitError):
        Series([2, 1], lo=0).invert()
    with raises(UnitError):
        Series([0, 0], lo=0).invert()
    with raises(UnitError):
        Series([3, 1], lo=0, modulus=6).invert()


def test_invert_laurent_lo():
    # 1 / (q^-2 (1 - q)) = q^2 (1 + q + ...)
    s = Series([1, -1, 0, 0, 0], lo=-2)
    inv = s.invert()
    assert inv.lo == 2
    assert inv.gather(range(2, 6)).tolist() == [1, 1, 1, 1]


# -- dilate / sift / qderiv ---------------------------------------------------

def test_dilate_spaces_coefficients():
    s = Series([1, 2, 3], lo=0)
    d = s.dilate(3)
    assert d.gather(range(0, 7)).tolist() == [1, 0, 0, 2, 0, 0, 3]
    assert s.dilate(1) is s
    with raises(ValueError):
        s.dilate(0)


def test_dilate_carries_fractional_grid():
    # q^(-1/24) -> q^(-5/24): still index 0, now on frac 19
    s = Series([1, 1], lo=0, frac24=23)
    d = s.dilate(5)
    assert d.frac24 == 19
    assert d.lo == 0
    assert d.exponent(d.lo) == 5 * s.exponent(s.lo)
    # q^(-11/24) -> q^(-33/24) = q^(-2) q^(15/24): the carry moves lo down
    u = Series([1], lo=0, frac24=13)
    assert u.dilate(3).lo == -1
    assert u.dilate(3).exponent(-1) == 3 * u.exponent(0)


def test_sift_plain_stride():
    s = Series(list(range(12)), lo=0)
    t = s.sift(3, 1)
    assert t.gather(range(0, 4)).tolist() == [1, 4, 7, 10]
    assert s.sift(3).gather(range(0, 4)).tolist() == [0, 3, 6, 9]


def test_sift_grid_rule():
    # on frac 23 the exponent of index n is n - 1/24, so a stride-5 sift
    # needs 24*offset - 1 divisible by 5: offset 4 works, offset 0 does not
    s = Series(list(range(1, 30)), lo=0, frac24=23)
    with raises(GridError):
        s.sift(5)
    t = s.sift(5, 4)
    assert t.lo == 1
    assert t.exponent(1) == s.exponent(4) / 5
    assert [t.coeff(m) for m in range(t.lo, t.valid_to + 1)] == [5, 10, 15, 20, 25]


def test_sift_negative_lo():
    s = Series([7, 0, 0, 0, 0, 9, 0], lo=-5)
    t = s.sift(5)
    assert t.lo == -1
    assert t.coeff(-1) == 7 and t.coeff(0) == 9


def test_qderiv_integer_grid_only():
    s = Series([4, 5, 6], lo=-1)
    assert s.qderiv().gather(range(-1, 2)).tolist() == [-4, 0, 6]
    with raises(GridError):
        Series([1], frac24=23).qderiv()


def test_first_difference_reporting():
    a = Series([1, 2, 3], lo=0)
    b = Series([1, 5, 3], lo=0)
    assert a.first_difference(b) == (1, 2, 5)
    assert a.first_difference(b, lo=0, hi=0) is None
    with raises(ValidityError):
        a.first_difference(b, hi=10)


@CASES
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 8), st.integers(-6, 8),
       st.sampled_from([0, 5]))
def test_first_difference_matches_a_coefficient_scan(c1, c2, lo1, lo2, lo, hi, m):
    # the whole-window compare against a per-index scan, zero below each lo
    a, b = Series(c1, lo=lo1, modulus=m), Series(c2, lo=lo2, modulus=m)
    if hi > min(a.valid_to, b.valid_to):
        with raises(ValidityError):
            a.first_difference(b, lo, hi)
        return
    want = next(((k, a.coeff(k), b.coeff(k)) for k in range(lo, hi + 1)
                 if a.coeff(k) != b.coeff(k)), None)
    got = a.first_difference(b, lo, hi)
    assert got == want
    assert got is None or all(type(v) is int for v in got)


# -- randomized algebra laws --------------------------------------------------

coeffs = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30)


def series_pair(c1, c2, lo1, lo2, frac):
    return (Series(c1, lo=lo1, frac24=frac), Series(c2, lo=lo2, frac24=frac))


@CASES
@given(coeffs, coeffs, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(0, 23))
def test_add_commutes(c1, c2, lo1, lo2, frac):
    a, b = series_pair(c1, c2, lo1, lo2, frac)
    assert (a + b).first_difference(b + a) is None


@CASES
@given(coeffs, coeffs, st.integers(-3, 3), st.integers(-3, 3),
       st.integers(0, 23), st.integers(0, 23))
def test_mul_commutes(c1, c2, lo1, lo2, f1, f2):
    a = Series(c1, lo=lo1, frac24=f1)
    b = Series(c2, lo=lo2, frac24=f2)
    assert a.mul(b).first_difference(b.mul(a)) is None


@CASES
@given(coeffs, coeffs, coeffs)
def test_mul_associates(c1, c2, c3):
    a, b, c = Series(c1), Series(c2), Series(c3)
    hi = min(a.mul(b).mul(c).valid_to, a.mul(b.mul(c)).valid_to)
    assert a.mul(b).mul(c).first_difference(a.mul(b.mul(c)), hi=hi) is None


@CASES
@given(coeffs, coeffs, coeffs)
def test_mul_distributes(c1, c2, c3):
    a = Series(c1)
    n = min(len(c2), len(c3))
    b, c = Series(c2[:n]), Series(c3[:n])
    lhs = a.mul(b + c)
    rhs = a.mul(b) + a.mul(c)
    assert lhs.first_difference(rhs, hi=min(lhs.valid_to, rhs.valid_to)) is None


@CASES
@given(coeffs, st.integers(0, 23), st.sampled_from([1, -1]))
def test_invert_roundtrip(c, frac, lead):
    f = Series([lead] + c, lo=0, frac24=frac)
    prod = f.mul(f.invert())
    assert prod.frac24 == 0
    assert prod.coeff(0) == 1
    assert all(prod.coeff(n) == 0 for n in range(1, prod.valid_to + 1))


@CASES
@given(coeffs, st.integers(2, 10**6))
def test_invert_roundtrip_mod(c, m):
    f = Series([1] + c, lo=0).reduce_mod(m)
    prod = f.mul(f.invert())
    assert prod.coeff(0) == 1
    assert all(prod.coeff(n) == 0 for n in range(1, prod.valid_to + 1))


@CASES
@given(coeffs, st.sampled_from([1, -1]), st.sampled_from([0, 2, 169, 360360]), st.data())
def test_invert_continues_a_known_prefix(c, lead, m, data):
    # the recurrence (exact) or Newton iteration (modular) started from any
    # prefix of the inverse, even an empty or over-long one, gives the inverse
    f = Series([lead] + c, lo=0)
    if m:
        f = f.reduce_mod(m)
    full = f.invert()
    k = data.draw(st.integers(0, len(full.coeffs) + 2))
    got = f.invert(full.coeffs[:k])
    assert list(map(int, got.coeffs)) == list(map(int, full.coeffs))
    assert (got.lo, got.frac24) == (full.lo, full.frac24)


def _is_inverse(a, inv):
    """a * inv == 1 through the shared length, by the double loop."""
    for i in range(len(a)):
        got = sum(a[j] * inv[i - j] for j in range(i + 1) if a[j])
        if got != (1 if i == 0 else 0):
            return False
    return True


B = series._INV_BLOCK


@parametrize('c0', [1, -1])
@parametrize('n', [1, B - 1, B, B + 1, 3 * B + 7])
def test_blocked_inverse_matches_the_product_oracle(n, c0):
    # a term below the block length, one at it and one two blocks on
    rng = random.Random(n)
    a = [c0] + [rng.choice([0, 0, 0, 0, 0, 1, -1, rng.randint(-50, 50)])
                for _ in range(n - 1)]
    for k in (B - 1, B, 2 * B + 3):
        if k < n:
            a[k] = rng.choice([1, -1, 7])
    full = Series(a).invert().coeffs
    assert len(full) == n and _is_inverse(a, full)
    # a resumed inverse keeps its prefix and recomputes the rest; the prefix
    # ends around each block edge and, at lengths up to B + 1, at every
    # offset of the first block
    ends = {0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, n - 1, n}
    if n <= B + 1:
        ends |= set(range(n + 1))
    for k in sorted(e for e in ends if e <= n):
        got = Series(a).invert(full[:k]).coeffs
        assert got.tolist() == full.tolist(), k
        assert all(x is y for x, y in zip(got[:k], full))


@CASES
@given(coeffs, coeffs, st.integers(-4, 4), st.integers(-4, 4))
def test_qderiv_leibniz(c1, c2, lo1, lo2):
    a = Series(c1, lo=lo1)
    b = Series(c2, lo=lo2)
    lhs = a.mul(b).qderiv()
    rhs = a.qderiv().mul(b) + a.mul(b.qderiv())
    assert lhs.first_difference(rhs) is None


@CASES
@given(coeffs, coeffs, st.integers(2, 10**6))
def test_reduce_mod_is_homomorphism(c1, c2, m):
    a, b = Series(c1), Series(c2)
    am, bm = a.reduce_mod(m), b.reduce_mod(m)
    assert a.mul(b).reduce_mod(m).first_difference(am.mul(bm)) is None
    n = min(len(c1), len(c2))
    assert (a.truncate(n - 1) + b.truncate(n - 1)).reduce_mod(m).first_difference(
        am.truncate(n - 1) + bm.truncate(n - 1)
    ) is None


@CASES
@given(coeffs, st.integers(2, 7))
def test_dilate_then_sift_roundtrip(c, t):
    s = Series(c, lo=0)
    assert s.dilate(t).sift(t).first_difference(s) is None


# small values and values just past +-2^63, where an int64 would overflow
edge_int = st.one_of(st.integers(-10, 10),
                     st.builds(lambda d, sign: sign * (2**63 + d),
                               st.integers(-2, 2), st.sampled_from([1, -1])))
edge_coeffs = st.lists(edge_int, min_size=1, max_size=12)


def python_ints(s):
    """The coefficients of an exact Series, checked to be Python ints."""
    assert s.coeffs.dtype == object
    values = s.coeffs.tolist()
    assert all(type(v) is int for v in values)
    return values


@CASES
@given(edge_coeffs, edge_coeffs, st.integers(-3, 3), st.integers(-3, 3), edge_int, edge_int,
       st.integers(2, 4), st.integers(-3, 3))
def test_exact_ops_past_int64_match_python(c1, c2, lo1, lo2, k1, k2, t, off):
    a, b = Series(c1, lo=lo1), Series(c2, lo=lo2)

    def at(c, lo, n):
        return c[n - lo] if 0 <= n - lo < len(c) else 0

    s = a.lincomb(b, k1, k2)
    lo, hi = min(lo1, lo2), min(lo1 + len(c1), lo2 + len(c2)) - 1
    assert (s.lo, s.valid_to) == (lo, hi)
    assert python_ints(s) == [k1 * at(c1, lo1, n) + k2 * at(c2, lo2, n)
                              for n in range(lo, hi + 1)]
    assert python_ints(a.lincomb(a, k1, k2)) == [(k1 + k2) * c for c in c1]
    assert python_ints(a.scale(k1)) == [k1 * c for c in c1]
    assert python_ints(a.qderiv()) == [(lo1 + i) * c for i, c in enumerate(c1)]
    d = a.dilate(t)
    assert (d.lo, d.valid_to) == (t * lo1, t * (lo1 + len(c1) - 1))
    assert python_ints(d) == [0 if n % t else c1[n // t - lo1] for n in range(d.lo, d.valid_to + 1)]
    # the sift keeps each index n = off (mod t) of a, at exponent n / t
    f = a.sift(t, off)
    kept = [t * f.exponent(k) for k in range(f.lo, f.valid_to + 1)]
    assert kept == [n for n in range(lo1, lo1 + len(c1)) if (n - off) % t == 0]
    assert python_ints(f) == [at(c1, lo1, int(n)) for n in kept]


def columns_product(a, b, n_out):
    """_conv_columns on its own, with the bounds the dispatcher would pass."""
    return _conv_columns(a, b, n_out, max(map(abs, a)), max(map(abs, b)))


@CASES
@given(coeffs, coeffs)
def test_conv_columns_and_exact_match_schoolbook(c1, c2):
    # the limb-column FFT product, alone and dispatched
    a = c1 * 5
    b = c2 * 5
    n_out = len(a) + len(b) - 1
    want = _conv_schoolbook(a, b, n_out)
    if any(a) and any(b):
        assert columns_product(a, b, n_out) == want
    assert _conv_exact(a, b, n_out) == want


def test_conv_columns_and_exact_large_coefficients():
    a = [(-3) ** i for i in range(80)]
    b = [7 ** (i % 40) - 2 ** i for i in range(70)]
    assert columns_product(a, b, 149) == _conv_schoolbook(a, b, 149)
    assert _conv_exact(a, b, 149) == _conv_schoolbook(a, b, 149)


# -- the modular product kernel -------------------------------------------------

def schoolbook_mod(a, b, m, n_out):
    """Truncated product mod m in plain ints; shares no code with sptlab."""
    out = [0] * n_out
    for i, x in enumerate(a[:n_out]):
        for j in range(min(len(b), n_out - i)):
            out[i + j] += x * b[j]
    return [v % m for v in out]


MODULI = [2, 72, 169, 343, 15625, 360360, 2**31 - 1]


@st.composite
def mod_operands(draw):
    m = draw(st.sampled_from(MODULI))
    # the shorter side lands below or at/above the np.convolve cutoff
    la = draw(st.one_of(st.integers(1, _FFT_CUTOFF - 1),
                        st.integers(_FFT_CUTOFF, _FFT_CUTOFF + 80)))
    lb = la + draw(st.integers(1, 300))
    if draw(st.booleans()):
        la, lb = lb, la
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, m, la, dtype=np.int64)
    b = rng.integers(0, m, lb, dtype=np.int64)
    # n_out below, at and above the full product length
    full = la + lb - 1
    n_out = draw(st.sampled_from([1, full // 2, full - 1, full, full + 7]))
    return a, b, m, n_out


@settings(max_examples=40, deadline=None)
@given(mod_operands())
def test_conv_mod_matches_schoolbook(case):
    a, b, m, n_out = case
    got = _conv_mod(a, b, m, n_out)
    assert got.dtype == np.int64
    assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), m, n_out)


def test_conv_mod_extreme_residues():
    # every limb at its maximum: the largest exact limb sums the kernel sees
    for m in (2**20 - 1, 2**20, 2**31 - 1):
        a = np.full(700, m - 1, dtype=np.int64)
        b = np.full(900, m - 1, dtype=np.int64)
        got = _conv_mod(a, b, m, 1599)
        assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), m, 1599)


@parametrize('la, lb', [(3, 5), (_FFT_CUTOFF, _FFT_CUTOFF + 9)], ids=["convolve", "fft"])
def test_conv_mod_pads_a_short_product_to_n_out(la, lb):
    # the product has la + lb - 1 terms; asked for more, it comes back zero-padded
    rng = np.random.default_rng(la)
    a = rng.integers(0, 360360, la, dtype=np.int64)
    b = rng.integers(0, 360360, lb, dtype=np.int64)
    full = la + lb - 1
    got = _conv_mod(a, b, 360360, full + 20)
    assert got.dtype == np.int64 and len(got) == full + 20
    assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), 360360, full + 20)
    assert _conv_mod(a, b, 360360, full).tolist() == got[:full].tolist()


@parametrize('noise', [0.3, 0.7])
def test_conv_mod_rounding_guard(monkeypatch, noise):
    # noise on every inverse transform must trip the guard and fall back to
    # np.convolve; at 0.7 rounding alone would give wrong residues
    irfft, convolve = np.fft.irfft, np.convolve
    fallbacks = []
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + noise)
    monkeypatch.setattr(np, "convolve", lambda *args: fallbacks.append(1) or convolve(*args))
    rng = np.random.default_rng(7)
    a = rng.integers(0, 360360, 600, dtype=np.int64)
    b = rng.integers(0, 360360, 500, dtype=np.int64)
    got = _conv_mod(a, b, 360360, 1099)
    assert fallbacks == [1]
    assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), 360360, 1099)


# (length of a, length of b, n_out, whether _conv_fft splits b): a product
# truncated to n splits its shorter operand at h = ceil(n/2) when the part
# past h has at least _FFT_CUTOFF terms, whichever operand comes first
C = _FFT_CUTOFF
SPLIT_SHAPES = [
    (2 * C, 2 * C, 2 * C, True),  # even n, b[h:] exactly at the cutoff
    (2 * C - 1, 2 * C - 1, 2 * C - 1, False),  # odd n, b[h:] one short of it
    (2 * C + 1, 2 * C + 1, 2 * C + 1, True),  # odd n, b[h:] at the cutoff
    (4 * C, 3 * C, 4 * C, True),  # unequal operands, the longer first
    (3 * C, 4 * C - 1, 4 * C - 1, True),  # the longer second, odd n
    (4 * C, 3 * C, 5 * C, False),  # b[h:] too short to split off
    (3 * C, 2 * C, 5 * C - 1, False),  # the whole product: nothing truncated
]


@parametrize('m', [169, 360360, 2**31 - 1])
@parametrize('la, lb, n_out, split', SPLIT_SHAPES)
def test_split_conv_mod_matches_schoolbook(monkeypatch, m, la, lb, n_out, split):
    calls, product = [], series._fft_product
    monkeypatch.setattr(series, "_fft_product",
                        lambda a, b, m, n: calls.append((len(a), len(b), n)) or product(a, b, m, n))
    rng = np.random.default_rng(la * lb + n_out)
    a = rng.integers(0, m, la, dtype=np.int64)
    b = rng.integers(0, m, lb, dtype=np.int64)
    a[:5] = m - 1  # residues at their maximum as well
    got = _conv_mod(a, b, m, n_out)
    assert got.dtype == np.int64 and len(got) == n_out
    assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), m, n_out)
    h = -(-n_out // 2)
    short = min(la, lb)
    if split:
        assert calls == [(max(la, lb), h, n_out), (n_out - h, short - h, n_out - h)]
    else:
        assert calls == [(max(la, lb), short, min(n_out, la + lb - 1))]


@parametrize('half', [0, 1], ids=["low", "high"])
def test_split_conv_mod_falls_back_when_one_half_trips(monkeypatch, half):
    # a tripped rounding guard in either half sends the whole product on to
    # np.convolve, which still returns it exactly
    limb_columns, convolve = series._limb_columns, np.convolve
    calls, fallbacks = [], []

    def spy(*args):
        calls.append(args[2])
        if len(calls) - 1 == half:
            yield None
            return
        yield from limb_columns(*args)

    monkeypatch.setattr(series, "_limb_columns", spy)
    monkeypatch.setattr(np, "convolve", lambda *args: fallbacks.append(1) or convolve(*args))
    rng = np.random.default_rng(11)
    a = rng.integers(0, 360360, 4 * C, dtype=np.int64)
    b = rng.integers(0, 360360, 4 * C, dtype=np.int64)
    got = _conv_mod(a, b, 360360, 4 * C)
    # the high half is not computed once the low half has tripped
    assert len(calls) == half + 1 and fallbacks == [1]
    assert got.tolist() == schoolbook_mod(a.tolist(), b.tolist(), 360360, 4 * C)


def test_master_spt_product_transforms_at_most_62208_points(bank_guard, monkeypatch):
    # a long truncated product: 40,001 terms of Andrews' right side times p,
    # both mod 360360, which the master spt build took before it divided by
    # the Euler product in blocks; unsplit it would transform at 82,944 points
    from sptlab.forms import inverse_euler
    from sptlab.partitions import _andrews_rhs

    p = inverse_euler(40000, 360360)
    rhs = _andrews_rhs(40000, 360360)
    rfft, sizes = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda x, n=None, *args, **kw: sizes.append(n)
                        or rfft(x, n, *args, **kw))
    spt = rhs.mul(p)
    assert max(sizes) == series._fft_size(60001) == 62208
    assert series._fft_size(80001) == 82944
    assert spt.valid_to == 40000 and spt.coeffs[:8].tolist() == [0, 1, 3, 5, 10, 14, 26, 35]


def test_master_inverse_is_exact():
    e = euler_product(40000, 360360)
    prod = e.invert().mul(e)
    assert prod.valid_to == 40000
    assert prod.coeffs[0] == 1
    assert not prod.coeffs[1:].any()


# -- the exact product kernels ------------------------------------------------

def schoolbook_exact(a, b, n_out):
    """Truncated product in plain ints; shares no code with sptlab."""
    out = [0] * n_out
    for i, x in enumerate(a[:n_out]):
        for j in range(min(len(b), n_out - i)):
            out[i + j] += x * b[j]
    return out


# constants that force each path of _conv_exact for a nonzero product
PATHS = {
    "int64": dict(_FFT_CUTOFF=10**9),
    "schoolbook": dict(_FFT_CUTOFF=0, _SCHOOLBOOK_CUTOFF=10**9),
    "columns": dict(_FFT_CUTOFF=0, _SCHOOLBOOK_CUTOFF=0),
}


@st.composite
def exact_operands(draw):
    path = draw(st.sampled_from(sorted(PATHS)))
    # int64 needs max|a| max|b| short < 2^63: at most 28 bits for 40 terms
    widths = [7, 8, 9, 15, 16, 17] + ([] if path == "int64" else [62, 63, 200, 1000])
    bits = draw(st.sampled_from(widths))
    # -2^bits is the one value of its width whose top byte is a bare sign
    coeff = st.one_of(st.just(0), st.just(-2**bits), st.just(2**bits - 1),
                      st.integers(-2**bits, 2**bits))
    a = draw(st.lists(coeff, min_size=1, max_size=40))
    b = a if draw(st.booleans()) else draw(st.lists(coeff, min_size=1, max_size=40))
    full = len(a) + len(b) - 1
    n_out = draw(st.sampled_from([1, max(1, full // 2), max(1, full - 1), full, full + 5]))
    return path, a, b, n_out


def conv_exact_taking(a, b, n_out, **constants):
    """_conv_exact under patched constants, and the paths it took or that
    declined (returned None); np.convolve is the int64 path, as no other path
    of an exact product calls it."""
    taken = []

    def spy(name, fn):
        def run(*args):
            out = fn(*args)
            taken.append(name if out is not None else name + " declined")
            return out
        return run

    constants = {"_FFT_CUTOFF": series._FFT_CUTOFF, **constants}
    with mock.patch.multiple(series, **constants), \
            mock.patch.object(np, "convolve", spy("int64", np.convolve)), \
            mock.patch.object(series, "_conv_schoolbook",
                              spy("schoolbook", series._conv_schoolbook)), \
            mock.patch.object(series, "_conv_columns", spy("columns", series._conv_columns)):
        got = _conv_exact(a, b, n_out)
    return got, taken


@settings(max_examples=80, deadline=None)
@given(exact_operands())
def test_conv_exact_dispatch_matches_schoolbook(case):
    path, a, b, n_out = case
    got, taken = conv_exact_taking(a, b, n_out, **PATHS[path])
    assert got == schoolbook_exact(a, b, n_out)
    assert taken == ([path] if any(a[:n_out]) and any(b[:n_out]) else [])


@parametrize('bound, path', [(2**63 - 1, "int64"), (2**63, "schoolbook")])
@parametrize('sign', [-1, 1])
def test_conv_exact_int64_bound(bound, path, sign):
    # max|a| max|b| short == bound; the default constants send 7 x 7 terms
    # to int64 only below 2^63, and the middle coefficient reaches the bound
    top = -(-bound // 7)
    a = [bound - 6 * top] + [top] * 6
    b = [sign] * 7
    assert max(map(abs, a)) * 7 == 7 * top and sum(a) == bound
    got, taken = conv_exact_taking(a, b, 13)
    assert taken == [path]
    assert got == schoolbook_exact(a, b, 13)
    assert got[6] == sign * bound


def test_conv_exact_wide_product_takes_columns():
    # 512 x 513 terms of 255 bits, past the int64 and schoolbook paths
    a = [(-1) ** i * (2**255 - 1 - i) for i in range(512)]
    b = [2**254 + 3 * i for i in range(513)]
    got, taken = conv_exact_taking(a, b, 1024)
    assert taken == ["columns"]
    assert got == schoolbook_exact(a, b, 1024)


# values of each width drawn for the column kernel: around limb and int64
# edges, and 2^63 +- 2
NEAR_2_63 = [2**63 - 2, 2**63 + 2, -(2**63) + 2, -(2**63) - 2]


@st.composite
def column_operands(draw):
    def side():
        bits = draw(st.sampled_from([1, 7, 8, 16, 17, 62, 63, 64, 200, 1000]))
        coeff = st.one_of(st.just(0), st.just(2**bits - 1), st.just(-(2**bits)),
                          st.sampled_from(NEAR_2_63), st.integers(-(2**bits), 2**bits))
        # at least one nonzero term, as the dispatcher guarantees
        return draw(st.lists(coeff, min_size=1, max_size=60).filter(any))

    a = side()
    b = a if draw(st.booleans()) else side()
    full = len(a) + len(b) - 1
    n_out = draw(st.sampled_from([1, max(1, full // 2), full, full + 5]))
    return a, b, n_out


@settings(max_examples=80, deadline=None)
@given(column_operands())
def test_conv_columns_matches_schoolbook(case):
    # thin and thick, squares, signs and zeros, each width against the oracle
    a, b, n_out = case
    a_in = a[:n_out]
    b_in = a_in if b is a else b[:n_out]
    got = _conv_columns(a_in, b_in, n_out, max(map(abs, a_in)) or 1, max(map(abs, b_in)) or 1)
    assert got == schoolbook_exact(a, b, n_out)


def column_width(bits_a, bits_b, length):
    """(w, thin limbs) by the rule _conv_columns documents: the widest w <= 24
    whose bound min(ka, kb) length 2^(2w) is at most 3 * 200001 * 2^22, for
    ka, kb the w-bit limbs of (bits + 1)-bit two's complement values."""
    for w in range(24, 0, -1):
        k = min(-(-(bits_a + 1) // w), -(-(bits_b + 1) // w))
        if k * length * 4**w <= 3 * 200001 * 2**22:
            return w, k


@parametrize('k', [1, 2, 5])
@parametrize('side', [-1, 1])
@parametrize('sign', [-1, 1])
def test_conv_columns_at_a_limb_count_boundary(k, side, sign):
    # the widest thin operand that still takes k limbs (side -1), whose top
    # limb holds both signed extremes, and one bit wider (side 1); the thick
    # operand carries the sign
    length = 9
    top = max(bits for bits in range(1, 400) if column_width(bits, 400, length)[1] == k)
    bits = top if side < 0 else top + 1
    w, ka = column_width(bits, 400, length)
    assert ka == k if side < 0 else ka > k
    if side < 0:
        assert bits + 1 == w * k
    a = [2**bits - 1, -(2**bits - 1)] * 4 + [2**bits - 1]
    b = [sign * (2**400 - 1 - i) for i in range(length)]
    cut = []
    spectra = series._int_spectra
    with mock.patch.object(series, "_int_spectra",
                           lambda c, w, k, size: cut.append((w, k)) or spectra(c, w, k, size)):
        got = _conv_columns(a, b, 2 * length + 3, 2**bits - 1, 2**400 - 1)
    assert cut == [(w, ka), (w, -(-401 // w))]
    assert got == schoolbook_exact(a, b, 2 * length + 3)


def is_prime(n):
    # deterministic Miller-Rabin for n < 2^32
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def operands_with_bound(bound, length, sign):
    """a, b of the given length whose product has a coefficient of exactly
    sign * L * A * B, where L * A * B is the smallest such product >= bound."""
    a_val = math.isqrt(bound // length) + 1
    b_val = -(-bound // (length * a_val))
    return [a_val] * length, [sign * b_val] * length, length * a_val * b_val


@parametrize('k', [1, 2, 5])
@parametrize('side', [-1, 1])
@parametrize('sign', [-1, 1])
def test_conv_crt_at_a_prime_count_boundary(k, side, sign):
    # the bounds just below and just above M / 4, for M the product of the k
    # largest primes below 2^31, where a multi-modular product switches from
    # k to k + 1 primes and the middle coefficient sits at the edge of the
    # balanced residue; the limb-column kernel and the dispatcher must give
    # the exact product there too
    primes = []
    n = 2**31 - 1
    while len(primes) < k:
        if is_prime(n):
            primes.append(n)
        n -= 2
    m = math.prod(primes)
    length = 9
    target = m // 4 - 3 * length * math.isqrt(m) if side < 0 else m // 4 + 1
    a, b, bound = operands_with_bound(target, length, sign)
    assert (bound < m // 4) if side < 0 else (bound > m // 4)
    want = schoolbook_exact(a, b, 2 * length + 3)
    assert want[length - 1] == sign * bound
    assert _conv_columns(a, b, 2 * length + 3, a[0], abs(b[0])) == want
    assert _conv_exact(a, b, 2 * length + 3) == want


def test_conv_columns_falls_back_when_the_guard_trips(monkeypatch):
    # a tripped rounding guard in the column kernel sends the exact product
    # on to schoolbook
    a = [(-7) ** i for i in range(300)]
    b = [5 ** (i % 90) - 3 ** i for i in range(400)]
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    got, taken = conv_exact_taking(a, b, 699)
    assert taken == ["columns declined", "schoolbook"]
    assert got == schoolbook_exact(a, b, 699)


# -- the limb rule of the float64 kernels -------------------------------------

@parametrize('m', [2, 169, 360360, 2**20, 2**31 - 1])
def test_limb_rule_at_its_boundaries(m):
    # the fewest limbs k of w = ceil(bits/k) bits with k L 2^(2w) within the
    # budget: at the longest L a limb count allows it is kept, one term more
    # takes the next count
    bits = (m - 1).bit_length()
    assert _LIMB_BUDGET == 3 * 200001 * 2**22
    for k in range(1, bits):
        w = -(-bits // k)
        longest = _LIMB_BUDGET // (k * 4**w)
        # a count that fewer limbs beat at its own longest L is never taken
        if all(j * longest * 4 ** -(-bits // j) > _LIMB_BUDGET for j in range(1, k)):
            assert _limbs(m, longest) == (k, w)
            assert _limbs(m, longest + 1)[0] > k
    # the cases the kernels meet, at the modular cap of 200000 terms plus one
    assert _limbs(169, 200001) == (1, 8)
    assert _limbs(360360, 200001) == (2, 10)
    assert _limbs(360360, 40001)[0] == 2
    assert _limbs(2**31 - 1, 200001) == (3, 11)
