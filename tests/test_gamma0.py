# standard library
from fractions import Fraction
# test framework
from pytest import raises, mark
from hypothesis import given, settings
import hypothesis.strategies as st
# local package
from sptlab import cli, forms, gamma0
from sptlab.forms import delta_series, eisenstein, eta_quotient, euler_product
from sptlab.gamma0 import (
    GPoly,
    LEVELS,
    TC,
    atkin_gamma_constant,
    atkin_solve_k,
    beta_stream,
    check_lemma_congruences,
    decompose_gamma0,
    e2t,
    e46d_decompose,
    epsilon_ladder_reports,
    hauptmodul,
    phi_t,
    psi_form,
    s_form,
    solve_in_e2t_basis,
    verify_beta_vanish,
    _legendre_twist,
)
from sptlab.hecke import chi12, s_ell
from sptlab.series import GridError, Series

parametrize = mark.parametrize


# -- hauptmodul and Eisenstein data ---------------------------------------------

def test_levels_and_pole_orders():
    assert LEVELS == (5, 7, 13)
    assert [s_ell(t) for t in LEVELS] == [1, 2, 7]


def test_hauptmodul_pinned():
    g5 = hauptmodul(5, 4)
    assert g5.gather(range(-1, 5)).tolist() == [1, -6, 9, 10, -30, 6]
    g7 = hauptmodul(7, 4)
    assert g7.gather(range(-1, 5)).tolist() == [1, -4, 2, 8, -5, -4]
    assert hauptmodul(13, 2).coeff(-1) == 1


def test_hauptmodul_level_guard():
    with raises(ValueError):
        hauptmodul(11, 5)


def sigma_prime_to(t, n):
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % t)


@parametrize('t', LEVELS)
def test_e2t_divisor_oracle(t):
    e = e2t(t, 30)
    scale = 24 // (t - 1)
    assert e.coeff(0) == 1
    for n in range(1, 31):
        assert e.coeff(n) == scale * sigma_prime_to(t, n)


def test_e2t_rejects_a_combination_not_divisible_by_t_minus_one(monkeypatch):
    # E2 off by one at q^3: t E2(tz) - E2(z) there is 95, not divisible by 4
    real = forms.eisenstein

    def bumped(weight, n, modulus=0):
        e = real(weight, n, modulus)
        e.coeffs[3] += 1
        return e

    monkeypatch.setattr(forms, "eisenstein", bumped)
    with raises(ArithmeticError, match=r"divisible by 4 at q\^3"):
        e2t(5, 10)


@parametrize('t', LEVELS)
def test_phi_eta_quotient(t):
    n = 20
    s = s_ell(t)
    phi = phi_t(t, n)
    assert phi.lo == -s and phi.coeff(-s) == 1
    eta_sq = eta_quotient({1: 1}, (n + s + 2) * t * t).dilate(t * t)
    assert phi.mul(eta_sq).first_difference(eta_quotient({1: 1}, n), hi=n - s) is None


# The builders invert and raise to powers before dilating q -> q^t; these are
# the definitions with the dilation first, at t times the length.

def same_series(a, b):
    return (a.lo, a.valid_to, a.frac24, [int(c) for c in a.coeffs]) == (
        b.lo, b.valid_to, b.frac24, [int(c) for c in b.coeffs])


def hauptmodul_dilated_first(t, n, modulus=0):
    e = 24 // (t - 1)
    eu = euler_product(n + e + 1, modulus)
    g = eu**e * eu.dilate(t) ** (-e)
    return Series(g.coeffs, g.lo - 1, g.frac24, modulus).truncate(n)


def phi_dilated_first(t, n, modulus=0):
    s = s_ell(t)
    eu = euler_product(n + s + 1, modulus)
    phi = eu * eu.dilate(t * t).invert()
    return Series(phi.coeffs, phi.lo - s, phi.frac24, modulus).truncate(n)


def psi_dilated_first(t, k, n):
    s = s_ell(t)
    need = n + s + 6
    prec1 = need // t + max(abs(j) for j in k.support) + 4
    inner = e2t(t, prec1).mul(k.fricke().eval(hauptmodul(t, prec1)))
    eta_t2 = eta_quotient({1: 1}, need // (t * t) + 4).dilate(t * t)
    term1 = inner.dilate(t).mul(eta_t2.invert()).truncate(need)
    beta = beta_stream(t, k, t * t * (n + 1) + s + 2)
    term2 = _legendre_twist(beta, t).scale(chi12(t))
    term3 = beta.sift(t * t, -s)
    return (term1 - term2 - term3).truncate(n)


@parametrize('modulus', [0, 5**6])
@parametrize('n', [0, 1, 40])
@parametrize('t', LEVELS)
def test_level_builders_match_dilation_first(t, n, modulus):
    assert same_series(hauptmodul(t, n, modulus), hauptmodul_dilated_first(t, n, modulus))
    assert same_series(phi_t(t, n, modulus), phi_dilated_first(t, n, modulus))


@parametrize('t', LEVELS)
def test_psi_form_matches_dilation_first(t):
    k = GPoly.from_dict(t, {1: 1, 0: 3})
    assert same_series(psi_form(t, k, 4), psi_dilated_first(t, k, 4))


# -- Laurent polynomials in the hauptmodul ---------------------------------------

def test_gpoly_roundtrip_and_coeff():
    k = GPoly.from_dict(5, {2: 3, -1: 7, 0: 0})
    assert dict(k.coeffs) == {2: 3, -1: 7}
    assert k.support == (-1, 2)
    assert k.coeff(0) == 0


def test_gpoly_fricke_involution():
    k = GPoly.from_dict(5, {1: 1})
    assert dict(k.fricke().coeffs) == {-1: 125}
    assert k.fricke().fricke().coeffs == k.coeffs
    k7 = GPoly.from_dict(7, {2: 3, 0: -1})
    assert dict(k7.fricke().coeffs) == {-2: 3 * 7**4, 0: -1}


def test_gpoly_fricke_rejects_a_non_integral_image():
    # G^-1 maps to 5^-3 G: only a coefficient divisible by 125 has an image
    assert dict(GPoly.from_dict(5, {-1: 250}).fricke().coeffs) == {1: 2}
    with raises(ValueError, match="not integral"):
        GPoly.from_dict(5, {-1: 1}).fricke()


# (t, K, (lo, valid_to) of K(G_t) evaluated at G_t through q^12)
GPOLY_EVAL_CASES = [
    (5, {1: 1, 0: 750, -1: 3**2 * 7 * 5**5}, (-1, 12)),
    (5, {2: 1, -3: 2, -5: -7}, (-2, 11)),
    (7, {1: 1, -2: 5, -4: -3}, (-1, 12)),
    (13, {0: 1, -1: 4, -2: 1}, (0, 13)),
    (13, {-3: 1}, (3, 16)),
]


def test_gpoly_eval_matches_powers():
    g = hauptmodul(5, 12)
    k = GPoly.from_dict(5, {2: 1, 1: 5})
    val = k.eval(g)
    expect = g.mul(g) + g.scale(5)
    assert val.first_difference(expect, hi=10) is None
    # negative powers against powers of the inverted hauptmodul, exact and
    # mod 5^6, on the window those powers have
    for modulus in (0, 5**6):
        for t, kdict, window in GPOLY_EVAL_CASES:
            g = hauptmodul(t, 12, modulus)
            ginv = g.invert()
            expect = None
            for j, c in sorted(kdict.items()):
                if j > 0:
                    term = g**j
                elif j < 0:
                    term = ginv ** -j
                else:
                    term = Series.one(g.valid_to - g.lo, modulus)
                term = term.scale(c)
                expect = term if expect is None else expect + term
            val = GPoly.from_dict(t, kdict).eval(g)
            assert (val.lo, val.valid_to) == (expect.lo, expect.valid_to) == window
            assert val.modulus == modulus
            assert val.first_difference(expect) is None, (t, kdict, modulus)


def test_g_powers_reach_deep_powers_as_eta_quotients():
    # G^-j is (eta(5z)/eta)^(6j), and G^1500 a power of g, far past the
    # recursion limit of a memo that calls itself
    g = hauptmodul(5, 20, 5**6)
    powers = gamma0._GPowers(5, g)
    deep = eta_quotient({1: -6 * 1500, 5: 6 * 1500}, 1521, 5**6)
    assert (powers[-1500].lo, powers[-1500].valid_to) == (1500, 1521)
    assert powers[-1500].first_difference(deep) is None
    assert powers[1500].first_difference(g ** 1500) is None


# -- beta streams and the Atkin solve ---------------------------------------------

BETA5 = {-2: 1, -1: 0, 0: 1, 1: 0, 2: 0, 3: -379, 4: 625, 5: 869,
         8: -20125, 9: 23125, 10: 25636, 13: -329236}
BETA7 = {-1: 1, 0: 1, 1: 0, 2: -15, 3: 0, 4: 0, 5: 49, 6: -24, 7: 88,
         9: -311, 12: 392, 13: -182, 14: 811, 16: -1886}


def test_atkin_solve_pinned():
    assert dict(atkin_solve_k(5, -2).coeffs) == {1: 5, 2: 1}
    assert dict(atkin_solve_k(7, -1).coeffs) == {1: 1}
    assert dict(atkin_solve_k(13, -1).coeffs) == {1: 1}


def test_atkin_solve_guards():
    with raises(ValueError):
        atkin_solve_k(5, 0)
    with raises(ValueError):
        atkin_solve_k(5, -1)  # 1 - 24m == 25 == 0 mod 5 is excluded


def test_beta_values_match_tables():
    b5 = beta_stream(5, atkin_solve_k(5, -2), 14)
    for n, v in BETA5.items():
        assert b5.coeff(n) == v, (n, b5.coeff(n), v)
    b7 = beta_stream(7, atkin_solve_k(7, -1), 17)
    for n, v in BETA7.items():
        assert b7.coeff(n) == v, (n, b7.coeff(n), v)


def test_beta_stream_window_and_grid():
    b = beta_stream(5, GPoly.from_dict(5, {2: 1, 1: 5}), 10)
    assert b.lo == -2 and b.valid_to == 10
    assert b.frac24 == 23
    assert b.exponent(1) == Fraction(23, 24)


def test_beta_stream_modular():
    k = atkin_solve_k(5, -2)
    exact = beta_stream(5, k, 30)
    modular = beta_stream(5, k, 30, modulus=5**6)
    assert exact.reduce_mod(5**6).first_difference(modular) is None


@parametrize('t,m,n', [(5, -2, 80), (7, -1, 60), (13, -1, 40)])
def test_beta_vanishing_classes(t, m, n):
    r = verify_beta_vanish(t, m, n)
    assert r.ok, r.summary_line()
    assert r.n_verified > 10


# -- decompositions ----------------------------------------------------------------

def test_e46d_pinned_level5():
    basis = e46d_decompose(5)
    expect = {
        1: 1,
        0: 0,
        -1: -(3**2) * 5**5 * 7,
        -2: -(2**3) * 5**8 * 13,
        -3: -(3**3) * 5**10 * 7,
        -4: -3 * 2**3 * 5**13,
        -5: -(5**16),
    }
    for a, v in expect.items():
        assert basis.coeff(a) == v, (a, basis.coeff(a), v)
    assert basis.coeff(2) == 0 and basis.coeff(-6) == 0


@parametrize('t', LEVELS)
def test_e46d_builds_two_eta_quotients(t, monkeypatch):
    # the hauptmodul (built in forms) and G_t^-1; every other power of G_t is
    # a product, and E4^2 E6/Delta's eta^-24 is no level-t quotient
    calls = []
    real = forms.eta_quotient

    def spy(exps, n, modulus=0):
        if t in exps:
            calls.append(exps)
        return real(exps, n, modulus)

    monkeypatch.setattr(forms, "eta_quotient", spy)
    monkeypatch.setattr(gamma0, "eta_quotient", spy)
    e46d_decompose(t)
    assert len(calls) <= 2, calls


@parametrize('t', [7, 13])
def test_e46d_other_levels_unitriangular(t):
    basis = e46d_decompose(t)
    assert basis.coeff(1) == 1
    assert max(basis.support) == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-10**4, 10**4), min_size=7, max_size=7),
       st.sampled_from([5, 7]))
def test_e2t_basis_roundtrip(d, t):
    s = 1
    prec = t * s + s + 6
    g = hauptmodul(t, prec)
    e2 = e2t(t, prec)
    ginv = g.invert()
    h = None
    for i, da in enumerate(d):  # powers a = -ts .. s with ts + s + 1 = 7
        a = i - t * s
        if da == 0:
            continue
        if a == 0:
            pw = Series.one(prec)
        elif a > 0:
            pw = g**a
        else:
            pw = ginv ** (-a)
        term = e2.mul(pw).scale(da)
        h = term if h is None else h + term
    if h is None:
        h = Series.zero(prec, lo=-s)
    recovered = solve_in_e2t_basis(h.truncate(t * s + 2), t, s)
    assert [recovered.coeff(i - t * s) for i in range(len(d))] == d


def test_e2t_basis_guards():
    h = Series([1] * 10, lo=-3)
    with raises(ValueError):
        solve_in_e2t_basis(h, 5, 2)  # pole order 3 > s = 2
    with raises(ValueError):
        solve_in_e2t_basis(Series([1] * 4, lo=0), 5, 1)  # too short
    with raises(ValueError):
        solve_in_e2t_basis(Series([1] * 10, lo=0, frac24=3), 5, 1)
    # one coefficient off a decomposable input leaves a residual
    h = e2t(5, 12).mul(hauptmodul(5, 12))
    bumped = h.coeffs.tolist()
    bumped[4] += 1
    with raises(ValueError):
        solve_in_e2t_basis(Series(bumped, lo=h.lo).truncate(8), 5, 1)


def test_decompose_gamma0_from_fractional_grid():
    # F = E2,5 * G_5 / eta lives on the q^(n-1/24) grid; decomposing
    # F * eta must recover exactly the G^1 coordinate
    prec = 14
    f = e2t(5, prec).mul(hauptmodul(5, prec)).mul(eta_quotient({1: 1}, prec).invert())
    assert f.frac24 == 23
    basis = decompose_gamma0(f.truncate(8), 5, 1)
    assert basis.coeff(1) == 1
    assert all(basis.coeff(a) == 0 for a in range(-5, 1))


# -- S and Psi constructions --------------------------------------------------------

def test_s_form_rejects_negative_support():
    with raises(ValueError):
        s_form(5, GPoly.from_dict(5, {-1: 1}), 5)


def test_psi_form_rejects_negative_support():
    with raises(ValueError):
        psi_form(5, GPoly.from_dict(5, {-1: 1}), 5)


def test_s_and_psi_grids():
    one = GPoly.from_dict(5, {0: 1})
    s = s_form(5, one, 6)
    assert s.frac24 == 0  # eta * (beta twist) lands back on the integer grid
    assert s.lo <= 0
    psi = psi_form(5, one, 6)
    assert psi.frac24 == 23  # 1/eta(t^2 z) keeps the -1/24 tail


# -- congruence lemma sweeps ---------------------------------------------------------

def test_lemma_congruences_all_pass():
    reports = check_lemma_congruences(n=40)
    assert len(reports) >= 4
    for r in reports:
        assert r.ok, r.summary_line()


def test_lemma_congruence_lines_are_the_exact_expressions_reduced(identity_lines):
    # the left sides are computed in their modulus; reduction is a ring map,
    # so each must equal the exact expression reduced
    n = 20
    seen = identity_lines(gamma0)
    check_lemma_congruences(n)
    prec = n + 8
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    inv_delta = delta_series(prec + 2).invert()
    e14 = e4 * e4 * e6 * inv_delta
    j = e4 * e4 * e4 * inv_delta
    exact = {
        "e46d-mod-5^8": (5**8, e14),
        "e46d-mod-7^4": (7**4, e14),
        "e46d-mod-13^2": (13**2, e14),
        "j-mod-5^8": (5**8, j),
        "j-mod-7^4": (7**4, j),
        "j-mod-13^2": (13**2, j),
        "e46d-mod-5^6": (5**6, e14),
        "e46d-j2-mod-5^6": (5**6, e6 * e4.invert() * j * j),
    }
    for name, (m, want) in exact.items():
        got = seen[name][0]
        assert got.modulus == m, name
        window = range(-1, n + 1)
        assert got.gather(window).tolist() == [c % m for c in want.gather(window).tolist()], name


def test_epsilon_ladder_all_pass():
    reports = epsilon_ladder_reports(3, 5)
    assert [r.params["a"] for r in reports] == [3, 4, 5]
    for r in reports:
        assert r.ok, r.summary_line()


def _bump_j(monkeypatch, modulus, index):
    """gamma0.j_series with +1 at q^index of every table mod modulus."""
    real = gamma0.j_series

    def bumped(n, m=0):
        out = real(n, m)
        if m == modulus:
            out = Series(out.coeffs.copy(), out.lo, 0, m)
            out.coeffs[index - out.lo] = (out.coeffs[index - out.lo] + 1) % m
        return out

    monkeypatch.setattr(gamma0, "j_series", bumped)


def test_a_broken_ladder_solve_fails_its_lines(monkeypatch, capsys):
    # +1 at q^44 of the ladder's j mod 5^6 leaves a residual in the a = 7
    # solve; the line FAILs and the other lines still report
    _bump_j(monkeypatch, 5**6, 44)
    reports = check_lemma_congruences()
    assert len(reports) == 14
    failed = [r.check for r in reports if not r.ok]
    assert failed and all(name.startswith("epsilon-ladder-") for name in failed)
    broken = next(r for r in reports if r.check == "epsilon-ladder-a=7")
    assert broken.first_failure["lhs"].startswith("decomposition: residual is nonzero")
    assert cli.main(["check", "lemma-congruences"]) == 1
    assert "FAIL epsilon-ladder-a=7" in capsys.readouterr().out


# n_verified counts the entries checked before the failing one: the lead
# G^a, eps1, eps2, then the powers G^-5a .. G^(a-3) in order
@parametrize('a,j,failure,n_verified', [
    (3, 3, dict(n=3, lhs=2, rhs=1, modulus=5**6), 0),  # the lead G^a, 1 + 1
    (4, 2, dict(n=2, lhs=1, rhs=0, modulus=5**6), 1),  # eps1 + 1, not 0 mod 5^5
    (5, 4, dict(n=4, lhs=1, rhs=0, modulus=5**6), 2),  # eps2 + 1, not 0 mod 5^3
    (6, 0, dict(n=0, lhs=1, rhs=0, modulus=5**6), 33),  # G^0, below the top three
], ids=["lead", "eps1", "eps2", "lower-power"])
def test_a_ladder_solve_off_its_shape_fails_its_line(monkeypatch, a, j, failure, n_verified):
    real = gamma0.solve_in_e2t_basis

    def faulty(h, t, s):
        k = real(h, t, s)
        return GPoly.from_dict(t, {**dict(k.coeffs), j: k.coeff(j) + 1}) if s == a else k

    monkeypatch.setattr(gamma0, "solve_in_e2t_basis", faulty)
    got = [(r.params["a"], r.first_failure, r.n_verified)
           for r in epsilon_ladder_reports(3, 6) if not r.ok]
    assert got == [(a, failure, n_verified)]


def test_a_fault_in_j_mod_5_8_fails_only_its_readers(monkeypatch):
    # the j-mod-5^8 line compares j mod 5^8 with G5 + 750 + 3^2*7*5^5 G5^-1
    # from q^-1; the only other reader of that table is e46d-j2-mod-5^6
    _bump_j(monkeypatch, 5**8, 2)
    reports = {r.check: r for r in check_lemma_congruences()}
    line = reports.pop("j-mod-5^8")
    assert line.status == "fail" and line.n_verified == 3
    assert line.first_failure["n"] == 2
    assert reports.pop("e46d-j2-mod-5^6").status == "fail"
    assert len(reports) == 12
    for r in reports.values():
        assert r.ok, r.summary_line()


# -- gamma constants -----------------------------------------------------------------

@parametrize('t,ell,gamma', [(5, 7, 9379), (7, 5, 2399), (13, 5, 165)])
def test_gamma_constant_pinned(t, ell, gamma):
    got, report = atkin_gamma_constant(t, ell, 16)
    assert report.ok, report.summary_line()
    assert got == gamma
    assert got % t ** TC[t] == got


def test_gamma_constant_guard():
    with raises(ValueError):
        atkin_gamma_constant(5, 5, 10)
    with raises(ValueError):
        atkin_gamma_constant(5, 3, 10)
