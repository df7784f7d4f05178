# test framework
from pytest import raises, mark
from hypothesis import given, settings
import hypothesis.strategies as st
# local package
from sptlab.hecke import (
    HeckeParams,
    c_ell,
    chi12,
    decompose_level1,
    hecke_combo,
    is_odd_prime,
    legendre,
    level1_basis,
    ono_poly_A,
    poly_at_series,
    s_ell,
    verify_xi,
    verify_zell,
)
from sptlab.partitions import stream
from sptlab.series import Series
from sptlab.verifier import verify_mell_cong

parametrize = mark.parametrize


# -- characters and small arithmetic -------------------------------------------

@parametrize('n,val', [
    (1, 1), (11, 1), (13, 1), (23, 1),
    (5, -1), (7, -1), (17, -1), (19, -1),
    (0, 0), (2, 0), (3, 0), (4, 0), (6, 0), (8, 0), (9, 0), (10, 0), (12, 0),
    (-1, 1), (-5, -1),
])
def test_chi12(n, val):
    assert chi12(n) == val


def test_is_odd_prime():
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert [p for p in range(50) if is_odd_prime(p)] == odd_primes


@parametrize('p', [5, 7, 11, 13, 17, 19, 23])
def test_legendre_euler_criterion(p):
    for a in range(-30, 31):
        if a % p == 0:
            assert legendre(a, p) == 0
        else:
            expect = 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1
            assert legendre(a, p) == expect


def test_legendre_needs_odd_prime():
    with raises(ValueError):
        legendre(3, 9)
    with raises(ValueError):
        legendre(3, 2)


@parametrize('ell,s', [(5, 1), (7, 2), (11, 5), (13, 7), (17, 12), (19, 15)])
def test_s_ell(ell, s):
    assert s_ell(ell) == s
    assert 24 * s == ell * ell - 1


def test_s_ell_guards():
    for bad in (2, 3, 4, 9, 15):
        with raises(ValueError):
            s_ell(bad)


def test_params_constructors():
    w = HeckeParams.weight_neg_half(5)
    assert (w.u, w.v, w.w, w.shift) == (125, 5, 1, 0)
    t = HeckeParams.weight_three_half(7)
    assert (t.u, t.v, t.w, t.shift) == (1, 1, 7, -8)
    assert t.s == 2


# -- the combination operator ---------------------------------------------------

def combo_oracle(values, params, m):
    """The defining formula, evaluated directly on a value table."""
    ell, s = params.ell, params.s

    def f(k):
        return values[k] if 0 <= k < len(values) else 0

    v = params.u * f(ell * ell * m - s)
    v += chi12(ell) * (legendre(1 - 24 * m, ell) + params.shift) * params.v * f(m)
    if (m + s) % (ell * ell) == 0:
        v += params.w * f((m + s) // (ell * ell))
    return v


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-999, 999), min_size=130, max_size=130),
       st.sampled_from([5, 7]), st.booleans())
def test_hecke_combo_matches_formula(values, ell, three_half):
    params = (HeckeParams.weight_three_half(ell) if three_half
              else HeckeParams.weight_neg_half(ell))
    f = Series(values)
    n = (len(values) - 1 + params.s) // (ell * ell)
    combo = hecke_combo(f, params, n)
    assert combo.lo == -params.s
    for m in range(-params.s, n + 1):
        assert combo.coeff(m) == combo_oracle(values, params, m)


def test_hecke_combo_needs_long_stream():
    f = Series(list(range(10)))
    with raises(ValueError):
        hecke_combo(f, HeckeParams.weight_neg_half(5), 10)


def test_hecke_combo_third_term_sites():
    # for ell=5, s=1 the backward term fires exactly when 25 | m+1
    values = [0] * 700
    values[3] = 1  # f supported at a single point
    f = Series(values)
    combo = hecke_combo(f, HeckeParams.weight_neg_half(5), 27)
    hits = [m for m in range(-1, 28) if combo.coeff(m)]
    # m=74 would hit the forward term; only m=3 (direct) and m=74? no:
    # 25m-1=3 has no integer solution, so the direct site m=3 and the
    # backward site m = 25*3 - 1 = 74 > 27 leave just the character term
    assert hits == [3]
    combo_wide = hecke_combo(f, HeckeParams.weight_neg_half(5), 27, lo=-1)
    assert combo_wide.coeff(3) == combo.coeff(3)



# -- hecke_combo against its per-m definition on the bank's tables --------------

def _chi12_oracle(k):
    return {1: 1, 11: 1, 5: -1, 7: -1}.get(k % 12, 0)


def _symbol_oracle(a, p):
    """(a|p) by counting square roots: no Euler criterion, no shared code."""
    a %= p
    return 0 if a == 0 else (1 if any(x * x % p == a for x in range(1, p)) else -1)


def _combo_by_definition(values, ell, u, v, w, shift, m, modulus):
    s = (ell * ell - 1) // 24

    def f(k):
        return values[k] if k >= 0 else 0

    g = u * f(ell * ell * m - s)
    g += _chi12_oracle(ell) * (_symbol_oracle(1 - 24 * m, ell) + shift) * v * f(m)
    if (m + s) % (ell * ell) == 0:
        g += w * f((m + s) // (ell * ell))
    return g % modulus if modulus else g


@parametrize('kind', ['p', 'spt', 'a'])
@parametrize('modulus', [0, 5**6])
def test_hecke_combo_matches_its_definition_on_bank_tables(bank_guard, kind, modulus):
    n = 12
    table = stream(kind, 13 * 13 * n, modulus)
    values = [int(x) for x in table.coeffs]
    for ell in (5, 7, 11, 13):
        s = (ell * ell - 1) // 24
        for params in (HeckeParams.weight_neg_half(ell), HeckeParams.weight_three_half(ell)):
            for lo in (-s, 1):
                combo = hecke_combo(table, params, n, lo=lo)
                assert (combo.lo, combo.valid_to, combo.modulus) == (lo, n, modulus)
                want = [_combo_by_definition(values, ell, params.u, params.v, params.w,
                                             params.shift, m, modulus) for m in range(lo, n + 1)]
                assert [int(x) for x in combo.coeffs] == want, (ell, params, lo)


# -- the polynomial family -------------------------------------------------------

def test_poly_family_first_terms():
    fam = ono_poly_A(2)
    assert fam[0] == (1,)
    assert fam[1] == (-745, 1)
    assert fam[2] == (160511, -1489, 1)


def test_poly_family_monic():
    fam = ono_poly_A(7)
    for m in range(8):
        poly = fam[m]
        assert len(poly) == m + 1
        assert poly[m] == 1


# Python-int power series from q^0, as coefficient lists truncated at q^n (the
# inverse needs constant term 1); they share no code with sptlab.

def _series_mul(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def _series_inv(a, n):
    out = [1]
    for k in range(1, n + 1):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _euler_by_pentagonals(n):
    out = [0] * (n + 1)
    for k in range(-n, n + 1):
        g = k * (3 * k - 1) // 2
        if 0 <= g <= n:
            out[g] += (-1) ** (k % 2)
    return out


def _eisenstein_by_sigma(scale, power, n):
    return [1] + [scale * sum(d**power for d in range(1, m + 1) if m % d == 0)
                  for m in range(1, n + 1)]


@parametrize('x', [0, 1, 744, -745])
def test_poly_family_satisfies_its_generating_identity(x):
    # with J = q j = E4^3/(q)_inf^24 and R = q E E4^2 E6/Delta = E E4^2 E6/(q)_inf^24,
    # (sum A_m(x) q^m)(j - x) = E E4^2 E6/Delta through q^(m_max - 1) reads
    # sum_(i<=k) A_i(x) J_(k-i) - x A_(k-1)(x) = R_k for k <= m_max
    n = m_max = 8
    euler = _euler_by_pentagonals(n)
    e4 = _eisenstein_by_sigma(240, 3, n)
    e6 = _eisenstein_by_sigma(-504, 5, n)
    inv_euler24 = [1] + [0] * n
    for _ in range(24):
        inv_euler24 = _series_mul(inv_euler24, euler, n)
    inv_euler24 = _series_inv(inv_euler24, n)
    e4sq = _series_mul(e4, e4, n)
    big_j = _series_mul(_series_mul(e4sq, e4, n), inv_euler24, n)
    rhs = _series_mul(_series_mul(_series_mul(euler, e4sq, n), e6, n), inv_euler24, n)
    at_x = [sum(c * x**i for i, c in enumerate(poly)) for poly in ono_poly_A(m_max)]
    assert len(at_x) == m_max + 1
    for k in range(n + 1):
        lhs = sum(at_x[i] * big_j[k - i] for i in range(k + 1))
        if k:
            lhs -= x * at_x[k - 1]
        assert lhs == rhs[k], (x, k)


@parametrize('ell,poly', [
    (5, (-750, 1)),
    (7, (160504, -1489, 1)),
])
def test_c_ell_small(ell, poly):
    assert c_ell(ell) == poly


def test_c_ell_eleven_thirteen_shape():
    for ell in (11, 13):
        c = c_ell(ell)
        assert len(c) == s_ell(ell) + 1
        assert c[-1] == 1
        assert c[0] == ono_poly_A(s_ell(ell))[s_ell(ell)][0] + ell * chi12(ell)


def test_poly_at_series_horner():
    x = Series([2, 1, 0, 0], lo=0)  # x = 2 + q
    val = poly_at_series((1, -3, 1), x)  # x^2 - 3x + 1 at x
    assert val.coeff(0) == 4 - 6 + 1
    assert val.coeff(1) == 2 * 2 - 3


# -- generating-function identities ----------------------------------------------

@parametrize('ell', [5, 7])
def test_zell_small(ell):
    r = verify_zell(ell, 12)
    assert r.ok, r.summary_line()


@parametrize('ell', [5, 7])
def test_xi_small(ell):
    r = verify_xi(ell, 8)
    assert r.ok, r.summary_line()


def test_mell_small():
    r = verify_mell_cong(5, 40)
    assert r.ok, r.summary_line()
    assert r.params["modulus"] == 5


# -- level-one decomposition -----------------------------------------------------

def test_level1_basis_leading_terms():
    basis = level1_basis(3, 10)
    for k, elt in enumerate(basis, start=1):
        assert elt.lo == 3 - k or elt.coeff(3 - k) != 0
        assert elt.coeff(3 - k) == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6))
def test_level1_roundtrip(b):
    s = len(b)
    basis = level1_basis(s, 2 * s + 4)
    f = None
    for bk, elt in zip(b, basis):
        term = elt.scale(bk)
        f = term if f is None else f + term
    assert decompose_level1(f, s) == b


def test_level1_rejects_outside_span():
    # q^s E2 is weight 2 short of the basis span for s=1
    from sptlab.forms import eisenstein
    f = Series(eisenstein(2, 8).coeffs, lo=1)
    with raises(ValueError):
        decompose_level1(f, 1)


def test_level1_input_guards():
    f = Series([1, 0, 0, 0, 0], lo=0)
    with raises(ValueError):
        decompose_level1(Series([1], lo=0, frac24=3), 1)
    with raises(ValueError):
        decompose_level1(Series([1, 0], lo=-1), 1)
    with raises(ValueError):
        decompose_level1(f.truncate(1), 1)
    # one coefficient off a decomposable input leaves a residual
    g = level1_basis(2, 8)
    bumped = (g[0].scale(3) - g[1]).coeffs.tolist()
    bumped[5] += 1
    with raises(ValueError):
        decompose_level1(Series(bumped, lo=0), 2)
