# standard library
import math
import os
import subprocess
import sys
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
    _conv_kronecker,
    _check_conv_bound,
    _conv_crt,
    _conv_exact,
    _conv_mod,
    _crt_primes,
    _FFT_CUTOFF,
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


def test_shift():
    m = Series([-2, 0, 0, 0, 0, 0], lo=3)
    assert m.shift(2).coeff(5) == -2
    assert m.shift(2).coeff(4) == 0
    assert m.shift(2).valid_to == 10


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

def test_scale_fraction_exact_only():
    s = Series([2, 4], lo=0)
    assert s.scale(Fraction(1, 2)).coeff(1) == 2
    with raises(ValueError):
        s.reduce_mod(7).scale(Fraction(1, 2))


def test_reduce_mod_guards():
    s = Series([3, 4], lo=0)
    with raises(ValueError):
        s.reduce_mod(1)
    with raises(GridError):
        s.reduce_mod(6).reduce_mod(4)  # 4 does not divide 6
    r = s.reduce_mod(6).reduce_mod(3)
    assert r.coeff(0) == 0 and r.coeff(1) == 1
    f = Series([Fraction(1, 2)], lo=0)
    with raises(ValueError):
        f.reduce_mod(5)


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
    assert inv.coeff_range(2, 5) == [1, 1, 1, 1]


def test_invert_fraction_leading():
    s = Series([Fraction(1, 2), 1], lo=0)
    inv = s.invert()
    assert inv.coeff(0) == 2
    assert inv.coeff(1) == -4


# -- dilate / sift / qderiv ---------------------------------------------------

def test_dilate_spaces_coefficients():
    s = Series([1, 2, 3], lo=0)
    d = s.dilate(3)
    assert d.coeff_range(0, 6) == [1, 0, 0, 2, 0, 0, 3]
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
    assert t.coeff_range(0, 3) == [1, 4, 7, 10]
    assert s.sift(3).coeff_range(0, 3) == [0, 3, 6, 9]


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
    assert s.qderiv().coeff_range(-1, 1) == [-4, 0, 6]
    with raises(GridError):
        Series([1], frac24=23).qderiv()


def test_first_difference_reporting():
    a = Series([1, 2, 3], lo=0)
    b = Series([1, 5, 3], lo=0)
    assert a.first_difference(b) == (1, 2, 5)
    assert a.agrees(b, lo=0, hi=0)
    with raises(ValidityError):
        a.agrees(b, hi=10)


# -- randomized algebra laws --------------------------------------------------

coeffs = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30)


def series_pair(c1, c2, lo1, lo2, frac):
    return (Series(c1, lo=lo1, frac24=frac), Series(c2, lo=lo2, frac24=frac))


@CASES
@given(coeffs, coeffs, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(0, 23))
def test_add_commutes(c1, c2, lo1, lo2, frac):
    a, b = series_pair(c1, c2, lo1, lo2, frac)
    assert (a + b).agrees(b + a)


@CASES
@given(coeffs, coeffs, st.integers(-3, 3), st.integers(-3, 3),
       st.integers(0, 23), st.integers(0, 23))
def test_mul_commutes(c1, c2, lo1, lo2, f1, f2):
    a = Series(c1, lo=lo1, frac24=f1)
    b = Series(c2, lo=lo2, frac24=f2)
    assert a.mul(b).agrees(b.mul(a))


@CASES
@given(coeffs, coeffs, coeffs)
def test_mul_associates(c1, c2, c3):
    a, b, c = Series(c1), Series(c2), Series(c3)
    hi = min(a.mul(b).mul(c).valid_to, a.mul(b.mul(c)).valid_to)
    assert a.mul(b).mul(c).agrees(a.mul(b.mul(c)), hi=hi)


@CASES
@given(coeffs, coeffs, coeffs)
def test_mul_distributes(c1, c2, c3):
    a = Series(c1)
    n = min(len(c2), len(c3))
    b, c = Series(c2[:n]), Series(c3[:n])
    lhs = a.mul(b + c)
    rhs = a.mul(b) + a.mul(c)
    assert lhs.agrees(rhs, hi=min(lhs.valid_to, rhs.valid_to))


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


@CASES
@given(coeffs, coeffs, st.integers(-4, 4), st.integers(-4, 4))
def test_qderiv_leibniz(c1, c2, lo1, lo2):
    a = Series(c1, lo=lo1)
    b = Series(c2, lo=lo2)
    lhs = a.mul(b).qderiv()
    rhs = a.qderiv().mul(b) + a.mul(b.qderiv())
    assert lhs.agrees(rhs)


@CASES
@given(coeffs, coeffs, st.integers(2, 10**6))
def test_reduce_mod_is_homomorphism(c1, c2, m):
    a, b = Series(c1), Series(c2)
    am, bm = a.reduce_mod(m), b.reduce_mod(m)
    assert a.mul(b).reduce_mod(m).agrees(am.mul(bm))
    n = min(len(c1), len(c2))
    assert (a.truncate(n - 1) + b.truncate(n - 1)).reduce_mod(m).agrees(
        am.truncate(n - 1) + bm.truncate(n - 1)
    )


@CASES
@given(coeffs, st.integers(2, 7))
def test_dilate_then_sift_roundtrip(c, t):
    s = Series(c, lo=0)
    assert s.dilate(t).sift(t).agrees(s)


@CASES
@given(coeffs, coeffs)
def test_kronecker_matches_schoolbook(c1, c2):
    # pad so the packed path is exercised alongside the reference loop
    a = c1 * 5
    b = c2 * 5
    n_out = len(a) + len(b) - 1
    assert _conv_kronecker(a, b, n_out) == _conv_schoolbook(a, b, n_out)


def test_kronecker_large_coefficients():
    a = [(-3) ** i for i in range(80)]
    b = [7 ** (i % 40) - 2 ** i for i in range(70)]
    assert _conv_kronecker(a, b, 149) == _conv_schoolbook(a, b, 149)


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


def test_master_inverse_is_exact():
    e = euler_product(40000, 360360)
    prod = e.invert().mul(e)
    assert prod.valid_to == 40000
    assert prod.coeffs[0] == 1
    assert not prod.coeffs[1:].any()


# -- the multi-modular exact product --------------------------------------------

def schoolbook_exact(a, b, n_out):
    """Truncated product in plain ints; shares no code with sptlab."""
    out = [0] * n_out
    for i, x in enumerate(a[:n_out]):
        for j in range(min(len(b), n_out - i)):
            out[i + j] += x * b[j]
    return out


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


def test_crt_prime_table():
    primes = _crt_primes().tolist()
    lo = 2**31 - 2**17
    assert primes == sorted(primes, reverse=True)
    assert primes == [n for n in range(2**31 - 1, lo - 1, -2) if is_prime(n)]
    assert len(primes) == 6121


def test_import_leaves_prime_table_unbuilt():
    code = "import sptlab.cli, sptlab.series; print(sptlab.series._PRIMES is None)"
    src = os.path.dirname(os.path.dirname(series.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "True"


@st.composite
def exact_operands(draw):
    bits = draw(st.sampled_from([1, 30, 31, 62, 200, 1000]))
    coeff = st.one_of(st.just(0), st.integers(-2**bits, 2**bits))
    a = draw(st.lists(coeff, min_size=1, max_size=40))
    b = draw(st.lists(coeff, min_size=1, max_size=40))
    full = len(a) + len(b) - 1
    n_out = draw(st.sampled_from([1, max(1, full // 2), full, full + 5]))
    return a, b, n_out


@settings(max_examples=60, deadline=None)
@given(exact_operands())
def test_conv_exact_multimodular_matches_schoolbook(case):
    # with every threshold at zero, each nonzero product takes the CRT path
    a, b, n_out = case
    calls = []
    crt = series._conv_crt
    with mock.patch.multiple(series, _SCHOOLBOOK_CUTOFF=0, _FFT_CUTOFF=1, _CRT_MIN_BITS=0,
                             _conv_crt=lambda *args: calls.append(1) or crt(*args)):
        got = _conv_exact(a, b, n_out)
    assert got == schoolbook_exact(a, b, n_out)
    assert calls == ([1] if any(a[:n_out]) and any(b[:n_out]) else [])


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
    # the product of the primes used must exceed 4 * bound; a bound just below
    # or just above M / 4 for M the product of the first k primes takes k or
    # k + 1 primes, and the middle coefficient sits at the edge of the
    # balanced residue, sign * bound ~ +-M / 4
    primes = _crt_primes().tolist()
    m = math.prod(primes[:k])
    length = 9
    target = m // 4 - 3 * length * math.isqrt(m) if side < 0 else m // 4 + 1
    a, b, bound = operands_with_bound(target, length, sign)
    assert (bound < m // 4) if side < 0 else (bound > m // 4)
    used = []
    lift = series._crt_lift
    with mock.patch.object(series, "_crt_lift",
                           lambda res, ps, mm: used.append(len(ps)) or lift(res, ps, mm)):
        got = _conv_crt(a, b, 2 * length + 3, bound)
    assert used == [k if side < 0 else k + 1]
    assert got[length - 1] == sign * bound
    assert got == schoolbook_exact(a, b, 2 * length + 3)


def test_conv_crt_declines_beyond_the_prime_table():
    assert _conv_crt([2**200000], [3], 1, 2**200001) is None


def test_conv_crt_falls_back_when_the_guard_trips():
    # a tripped rounding guard sends the exact product back to Kronecker
    a = [(-7) ** i for i in range(300)]
    b = [5 ** (i % 90) - 3 ** i for i in range(400)]
    with mock.patch.object(series, "_conv_fft", lambda *args: None):
        assert _conv_crt(a, b, 699, 10**400) is None
        got = _conv_exact(a, b, 699)
    assert got == schoolbook_exact(a, b, 699)
