# standard library
from math import comb
# test framework
from pytest import raises, mark
from hypothesis import given, settings
import hypothesis.strategies as st
# local package
from sptlab import forms, series, verifier
from sptlab.forms import (
    _divisor_power_sums,
    _euler_power,
    delta_series,
    e14_over_delta,
    eisenstein,
    eta_quotient,
    euler_product,
    inverse_euler,
    j_series,
)
from sptlab.partitions import stream
from sptlab.series import Series
from sptlab.verifier import classical_congruence_reports

parametrize = mark.parametrize


# -- reference oracles, written against the definitions -----------------------

def poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def euler_oracle(n):
    out = [1] + [0] * n
    for k in range(1, n + 1):
        factor = [0] * (n + 1)
        factor[0] = 1
        factor[k] = -1
        out = poly_mul(out, factor, n)
    return out


def sigma(weight, m):
    return sum(d**weight for d in range(1, m + 1) if m % d == 0)


def test_euler_product_matches_expansion():
    n = 60
    assert euler_product(n).gather(range(0, n + 1)).tolist() == euler_oracle(n)


@parametrize('weight,scale', [(2, -24), (4, 240), (6, -504)])
def test_eisenstein_against_divisor_sums(weight, scale):
    e = eisenstein(weight, 40)
    assert e.coeff(0) == 1
    for m in range(1, 41):
        assert e.coeff(m) == scale * sigma(weight - 1, m)


@parametrize('n', [1, 2, 3, 4, 99, 100, 101, 40000])
@parametrize('weight', [1, 3, 5])
def test_modular_divisor_sums_match_exact(weight, n):
    # the modular sieve splits divisors at sqrt(n); n on and around squares
    exact = _divisor_power_sums(weight, n)
    got = _divisor_power_sums(weight, n, 360360)
    assert got.tolist() == [v % 360360 for v in exact]


def test_eisenstein_modular_agrees_with_exact():
    e = eisenstein(4, 100)
    em = eisenstein(4, 100, modulus=65520)
    assert e.reduce_mod(65520).first_difference(em) is None


def test_eisenstein_rejects_other_weights():
    with raises(ValueError):
        eisenstein(8, 10)


def test_delta_tau_values():
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643]
    d = delta_series(9)
    assert d.lo == 1 or d.coeff(0) == 0
    assert d.gather(range(1, 10)).tolist() == tau


def test_j_expansion():
    j = j_series(3)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760


@parametrize('n,modulus', [(0, 0), (7, 0), (2002, 0), (3000, 360360)])
def test_inverse_delta_times_delta_is_one(n, modulus):
    inv = eta_quotient({1: -24}, n, modulus)
    assert (inv.lo, inv.valid_to, inv.frac24) == (-1, n, 0)
    prod = inv.mul(delta_series(n + 2, modulus))
    assert prod.valid_to == n + 1
    assert prod.first_difference(Series.one(n + 1, modulus)) is None


def test_e14_over_delta_identity():
    n = 40
    lhs = e14_over_delta(n) * delta_series(n + 2)
    e4 = eisenstein(4, n)
    rhs = e4 * e4 * eisenstein(6, n)
    assert lhs.first_difference(rhs, lo=0, hi=n - 2) is None
    assert e14_over_delta(5).coeff(-1) == 1
    assert e14_over_delta(5).coeff(1) == -196884


def test_eta_pow_grid_and_partitions():
    p = inverse_euler(30)
    inv = eta_quotient({1: -1}, 30)
    assert inv.frac24 == 23
    assert all(inv.coeff(n) == p.coeff(n) for n in range(31))
    assert eta_quotient({1: 24}, 20).first_difference(delta_series(20)) is None
    e = eta_quotient({1: 1}, 20)
    assert e.frac24 == 1
    assert e.gather(range(0, 4)).tolist() == [1, -1, -1, 0]


def test_eta_pow_negative_grid():
    # eta^-6 sits at q^(-6/24) = q^(-1/4): frac 18, starting index 0
    s = eta_quotient({1: -6}, 10)
    assert s.frac24 == 18
    assert s.lo == 0
    assert s.coeff(0) == 1
    assert s.coeff(1) == 6
    # eta(5z)^5 / eta^6 = q^(19/24) (1 + 6 q + 27 q^2 + ...): frac 19, from index 1
    q = eta_quotient({5: 5, 1: -6}, 3)
    assert (q.frac24, q.lo, q.coeffs.tolist()) == (19, 1, [1, 6, 27])


def test_miller_powers_match_repeated_products():
    # (q)_inf^k for k = -2 .. -49 by schoolbook products of the inverse of
    # the expanded product, itself inverted by the textbook double loop
    n = 80
    euler = euler_oracle(n)
    p = [1] + [0] * n
    for i in range(1, n + 1):
        p[i] = -sum(euler[g] * p[i - g] for g in range(1, i + 1))
    power = p
    for k in range(-2, -50, -1):
        power = poly_mul(power, p, n)
        for m in (0, 1, 7, n):
            assert _euler_power(k, m) == power[: m + 1], (k, m)


def test_miller_inverse_delta_is_bit_identical_to_the_power_of_p():
    assert _euler_power(-24, 2002) == (inverse_euler(2002) ** 24).coeffs.tolist()


def test_exact_negative_eta_powers_multiply_nothing(monkeypatch):
    # exact 1/Delta and eta^-25 come from Miller's recurrence, not from
    # products of the bank's p
    def product(*args):
        raise AssertionError("an exact product was formed")

    monkeypatch.setattr(series, "_conv_exact", product)
    assert eta_quotient({1: -24}, 4).gather(range(-1, 5)).tolist() == [1, 24, 324, 3200, 25650, 176256]
    assert eta_quotient({1: -25}, 300).valid_to == 300


@parametrize('modulus', [0, 169])
def test_eta_pow_minus_one_is_the_banks_p(bank_guard, monkeypatch, modulus):
    bank_guard.clear()
    p = stream("p", 300, modulus)

    def recompute(*args):
        raise AssertionError("eta^-1 recomputed the p table")

    for name in ("_invert", "_euler_quotient"):
        monkeypatch.setattr(series, name, recompute)
    monkeypatch.setattr(forms, "_euler_power", recompute)
    got = eta_quotient({1: -1}, 250, modulus)
    assert (got.lo, got.valid_to, got.frac24) == (0, 250, 23)
    assert list(map(int, got.coeffs)) == list(map(int, p.coeffs[:251]))
    if not modulus:
        # the bank's own int objects, not a recomputation of equal values
        assert all(x is y for x, y in zip(got.coeffs, p.coeffs))


def eta_quotient_oracle(exps, n):
    """(lo, frac24, [c_lo .. c_n]) of prod_d eta(d z)^(r_d) in Python ints:
    q^(sum d r_d / 24) times each (1 - q^(d m))^r_d, m >= 1, as a
    schoolbook binomial product, or for r_d < 0 the |r_d|-fold geometric
    series sum_j C(|r_d| + j - 1, j) q^(d m j)."""
    e24 = sum(d * r for d, r in exps.items())
    frac = e24 % 24
    lo = (e24 - (frac if frac <= 12 else frac - 24)) // 24
    top = n - lo
    c = [1] + [0] * max(top, 0)
    for d, r in exps.items():
        for step in range(d, top + 1, d):
            w = [(-1) ** j * comb(r, j) if r >= 0 else comb(-r + j - 1, j)
                 for j in range(top // step + 1)]
            c = [sum(w[j] * c[i - j * step] for j in range(i // step + 1))
                 for i in range(top + 1)]
    return lo, frac, c[: top + 1]


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from([1, 2, 5, 7, 13, 25, 49, 169]),
                       st.integers(-30, 30), min_size=1, max_size=3),
       st.integers(0, 40))
def test_eta_quotient_matches_an_integer_oracle(exps, n):
    lo, frac, want = eta_quotient_oracle(exps, n)
    for modulus in (0, 360360, 5**8):
        got = eta_quotient(exps, n, modulus)
        assert (got.lo, got.frac24, got.valid_to) == (lo, frac, max(n, lo - 1))
        assert [int(x) for x in got.coeffs] == [
            x % modulus if modulus else x for x in want]


def test_classical_reports_all_pass():
    reports = classical_congruence_reports(n=120)
    assert len(reports) == 10
    for r in reports:
        assert r.ok, r.summary_line()


def test_classical_congruence_lines_are_the_exact_expressions_reduced(bank_guard,
                                                                    identity_lines):
    # each congruence line is computed in its modulus; reduction is a ring map,
    # so it must equal the exact expression reduced
    n = 60
    seen = identity_lines(verifier)
    classical_congruence_reports(n)
    e2, e4, e6 = (eisenstein(k, n) for k in (2, 4, 6))
    d = delta_series(n)
    one = Series.one(n)
    e4cube = e4 * e4 * e4
    exact = {
        "e4cube-mod-65520": (65520, e4cube - d.scale(720), one),
        "e2-mod-65520": (65520, e2, e4 * e4 * e6),
        "e2-mod-32": (32, e2, e4 * e6 + d.scale(16)),
        "e4sq-mod-32": (32, e4 * e4, one),
        "e2-mod-27": (27, e2, e4cube * e4 * e4 + d.scale(18)),
        "e6-mod-27": (27, e6, e4cube * e4cube),
    }
    for name, (m, lhs, rhs) in exact.items():
        for got, want in zip(seen[name], (lhs, rhs)):
            assert got.modulus == m, name
            window = range(0, n + 1)
            assert got.gather(window).tolist() == [c % m for c in want.gather(window).tolist()], name

