# standard library
import json
import re
from pathlib import Path
# third party
import numpy as np
# test framework
from pytest import raises, mark
from hypothesis import given, settings
import hypothesis.strategies as st
# local package
from sptlab import verifier
from sptlab.gamma0 import GPoly, atkin_gamma_constant
from sptlab.reports import sweep, timed_report
from sptlab.series import Series
from sptlab.verifier import (
    ATKIN_PAIRS,
    CheckOptions,
    DESK_ELLS,
    MASTER_MODULUS,
    REGISTRY,
    a_atkin_beta_crosscheck,
    a_atkin_worked_instance,
    beta_display_reports,
    check_a_atkin,
    check_level1_b,
    check_spt_ell_square,
    check_spt_hecke,
    check_spt_prime_powers,
    e46d_reports,
    inv24,
    run_checks,
    s_psi_display_reports,
)

parametrize = mark.parametrize


# -- small arithmetic helpers -----------------------------------------------------

@parametrize('m,inv', [(5, 4), (125, 99), (7**4, 2301), (13**2, 162), (77, 61)])
def test_inv24(m, inv):
    assert inv24(m) == inv
    assert (24 * inv) % m == 1


def test_inv24_needs_coprime():
    for bad in (2, 3, 12, 24, 360360):
        with raises(ValueError):
            inv24(bad)


def test_master_modulus_serves_every_sweep():
    assert MASTER_MODULUS == 2**3 * 3**2 * 5 * 7 * 11 * 13
    for m in (72, 5, 7, 13, 32760):
        assert MASTER_MODULUS % m == 0


# -- argument guards ----------------------------------------------------------------

GUARD_CASES = [
    (check_spt_hecke, (4, 72), "ell must be a prime >= 5, got 4"),
    (check_spt_hecke, (5, 5), "modulus t = 5 needs ell != t"),
    (check_spt_hecke, (7, 32760), "modulus 32760 needs ell coprime to it, got 7"),
    (check_spt_hecke, (13, 32760), "modulus 32760 needs ell coprime to it, got 13"),
    (check_spt_hecke, (5, 1), "modulus must be at least 2"),
    (check_spt_prime_powers, (5, 2), "power must be at least 3, got 2"),
    (check_spt_prime_powers, (11, 3), "t must be one of (5, 7, 13)"),
    (check_a_atkin, (5, 5), "ell = t = 5 is excluded"),
    (check_a_atkin, (11, 7), "t must be one of (5, 7, 13)"),
    (check_spt_ell_square, (9,), "ell must be a prime >= 5, got 9"),
    (check_spt_hecke, (5, 25),
     "modulus 25 is outside the theorem: it must divide 32760 and be coprime to ell = 5"),
]
# ids name the check and number the case
GUARD_IDS = ["%s-args%d" % (fn.__name__, i) for i, (fn, _, _) in enumerate(GUARD_CASES)]


@parametrize('fn,args,message', GUARD_CASES, ids=GUARD_IDS)
def test_check_guards(fn, args, message):
    # the CLI prints these texts on its exit-2 path, so they are pinned whole
    with raises(ValueError, match="^%s$" % re.escape(message)):
        fn(*args, n=5)


# -- individual checks at desk scale --------------------------------------------------

def test_spt_hecke_mod72_with_companion():
    r = check_spt_hecke(5, 72, n=30)
    assert r.ok, r.summary_line()
    assert r.params["modulus"] == 72
    assert r.n_verified == 30


def test_spt_hecke_companion_sweep_can_fail(bank_guard, monkeypatch):
    # +1 at spt(25 * 7 - 1) in the mod-3 reduction alone: the mod-72 sweep
    # passes, and its companion fails at m = 7, the first m that reads it
    real = Series.reduce_mod

    def faulty(self, m):
        out = real(self, m)
        if m != 3:
            return out
        coeffs = out.coeffs.copy()
        coeffs[174 - out.lo] = (coeffs[174 - out.lo] + 1) % 3
        return Series._wrap(coeffs, out.lo, out.frac24, 3)

    monkeypatch.setattr(Series, "reduce_mod", faulty)
    r = check_spt_hecke(5, 72, n=30)
    assert r.status == "fail"
    assert r.first_failure == {"n": 7, "lhs": 1, "rhs": 0, "modulus": 3}
    assert r.n_verified == 30


def test_spt_hecke_exact_small():
    r = check_spt_hecke(5, 72, n=12, exact=True)
    assert r.ok, r.summary_line()


@parametrize('t,ell', [(5, 7), (7, 5), (13, 5)])
def test_spt_hecke_mod_t(t, ell):
    r = check_spt_hecke(ell, t, n=20)
    assert r.ok, r.summary_line()


def test_spt_hecke_mod_32760():
    r = check_spt_hecke(11, 32760, n=20)
    assert r.ok, r.summary_line()


@parametrize('ell', [5, 7])
def test_spt_ell_square(ell):
    r = check_spt_ell_square(ell, n=60)
    assert r.ok, r.summary_line()
    assert r.n_verified > 0


@parametrize('t,a,mod', [(5, 3, 5**3), (7, 3, 7**3), (13, 3, 13**2), (5, 4, 5**5)])
def test_spt_prime_powers(t, a, mod):
    r = check_spt_prime_powers(t, a, n=4)
    assert r.ok, r.summary_line()
    assert r.params["modulus"] == mod


@parametrize('t,ell', ATKIN_PAIRS)
def test_a_atkin_sweeps(t, ell):
    r = check_a_atkin(t, ell, n=8)
    assert r.ok, r.summary_line()


def test_a_atkin_worked_instance():
    r = a_atkin_worked_instance()
    assert r.ok, r.summary_line()
    assert "149077845" in r.params["statement"]


def test_a_atkin_beta_crosscheck():
    r = a_atkin_beta_crosscheck(13, 5)
    assert r.ok, r.summary_line()


@parametrize('t,ell,least', [(7, 11, 39), (5, 7, 11), (13, 5, 14)])
def test_a_atkin_beta_needs_n_past_the_decomposition(t, ell, least):
    # F * eta is valid to min(n, n + 2 - s) and the Gamma0(t) solve reads it
    # past q^(t s): one n less is a usage error naming the least valid n
    assert a_atkin_beta_crosscheck(t, ell, least).ok
    message = "a-atkin-beta at t = %d, ell = %d needs n >= %d, got %d" % (t, ell, least, least - 1)
    with raises(ValueError, match="^%s$" % re.escape(message)):
        a_atkin_beta_crosscheck(t, ell, least - 1)


def test_a_atkin_beta_default_n_reaches_the_decomposition():
    # t s + 6 for l <= 13; l = 17 (s = 12) needs t s + 11
    r = a_atkin_beta_crosscheck(5, 17)
    assert r.ok and r.params["n"] == 71, r.summary_line()


@parametrize('ell,b', [
    (7, [5215, -7]),
    (11, [-544243553590, 8939544152, -30060745, 32747, -11]),
])
def test_level1_b_vectors(ell, b):
    r = check_level1_b(ell)
    assert r.ok, r.summary_line()
    assert r.params["b"] == b
    assert r.params["b"][-1] == -ell
    assert r.params["b"][0] % 5 == 0


def test_level1_b_at_five():
    r = check_level1_b(5)
    assert r.ok, r.summary_line()
    assert r.params["b"] == [-5]


def test_gamma_constants_small():
    reports = [atkin_gamma_constant(t, ell, 12)[1] for t, ell in ATKIN_PAIRS]
    gammas = {(r.params["t"], r.params["ell"]): r.params["gamma"] for r in reports}
    assert gammas == {(5, 7): 9379, (7, 5): 2399, (13, 5): 165}


def test_display_reports_small():
    for r in s_psi_display_reports(n=30):
        assert r.ok, r.summary_line()
    for r in beta_display_reports(n=40):
        assert r.ok, r.summary_line()
    for r in e46d_reports():
        assert r.ok, r.summary_line()


# -- one fault per hand-built line -------------------------------------------------

def _plus_one_at(real, index):
    """real with +1 at q^index(*args) of the exact Series it returns, or
    unchanged where index(*args) is None."""

    def faulty(*args):
        out = real(*args)
        k = index(*args)
        if k is None:
            return out
        values = [int(v) for v in out.coeffs]
        values[k - out.lo] += 1
        return Series(values, out.lo, out.frac24, out.modulus)

    return faulty


# (name in verifier, the q^k it is faulted at as a function of its
# arguments, the s-forms lines that must fail as (check, first_failure,
# n_verified))
DISPLAY_FAULTS = [
    ("s_form", lambda t, k, n: 3, [
        ("s-display-5", dict(n=3, lhs=91, rhs=90, modulus=0), 4),
        ("s-display-7", dict(n=3, lhs=-50, rhs=-51, modulus=0), 5),
    ]),
    # beta(5 * 3 - 1) and beta(7 * 3 - 2) are the sifted q^3 coefficients
    ("beta_stream", lambda t, k, n: 3 * t - {5: 1, 7: 2}[t], [
        ("s-sift-display-5", dict(n=3, lhs=10126, rhs=10125, modulus=0), 2),
        ("s-sift-display-7", dict(n=3, lhs=34987, rhs=34986, modulus=0), 2),
    ]),
    ("psi_form", lambda t, k, n: 3, [
        ("psi-display-5", dict(n=3, lhs=-2636281192, rhs=-2636281193, modulus=0), 4),
        ("psi-display-7",
         dict(n=3, lhs=-12793968516003, rhs=-12793968516004, modulus=0), 5),
    ]),
]


@parametrize('name,index,failing', DISPLAY_FAULTS, ids=[c[0] for c in DISPLAY_FAULTS])
def test_one_display_fault_fails_exactly_its_lines(monkeypatch, name, index, failing):
    monkeypatch.setattr(verifier, name, _plus_one_at(getattr(verifier, name), index))
    reports = run_checks(["s-forms"])
    assert len(reports) == 6
    got = [(r.check, r.first_failure, r.n_verified) for r in reports if not r.ok]
    assert got == failing, [r.summary_line() for r in reports if not r.ok]


@parametrize('entry,failure,n_verified', [
    (-1, dict(n=2, lhs=-6, rhs=-7, modulus=0), 0),  # b_s = -l + 1
    (0, dict(n=1, lhs=1, rhs=0, modulus=0), 1),  # b_1 = 5215 + 1, not 0 mod 5
], ids=["b_s", "b_1"])
def test_a_level1_b_off_its_shape_fails_its_line(monkeypatch, entry, failure, n_verified):
    real = verifier.decompose_level1

    def faulty(f, s):
        b = list(real(f, s))
        b[entry] += 1
        return b

    monkeypatch.setattr(verifier, "decompose_level1", faulty)
    r = check_level1_b(7)
    assert r.status == "fail", r.summary_line()
    assert r.first_failure == failure and r.n_verified == n_verified, r.summary_line()


def test_a_fault_in_a47_fails_the_worked_instance(monkeypatch):
    at47 = lambda kind, n, *modulus: 47 if (kind, n) == ("a", 47) else None
    monkeypatch.setattr(verifier, "stream", _plus_one_at(verifier.stream, at47))
    r = a_atkin_worked_instance()
    assert r.status == "fail", r.summary_line()
    # the sum is compared exactly, so its failure carries no modulus
    assert r.first_failure == dict(n=1, lhs=149077846, rhs=149077845, modulus=0)
    assert r.n_verified == 0


def test_a_fault_in_the_e46d_table_fails_only_t5(monkeypatch):
    real = verifier.e46d_decompose

    def faulty(t):
        k = real(t)
        return GPoly.from_dict(t, {**dict(k.coeffs), -3: k.coeff(-3) + 1}) if t == 5 else k

    monkeypatch.setattr(verifier, "e46d_decompose", faulty)
    got = [(r.params["t"], r.first_failure, r.n_verified) for r in e46d_reports() if not r.ok]
    a3 = -(3**3 * 5**10 * 7)
    assert got == [(5, dict(n=-3, lhs=a3 + 1, rhs=a3, modulus=0), 2)]


@parametrize('run,name,expect,modulus', [
    (lambda: [check_level1_b(7)], "decompose_level1", "integer b_k", 0),
    (e46d_reports, "e46d_decompose", "integer a_j", 0),
    (lambda: [a_atkin_beta_crosscheck(13, 5)], "decompose_gamma0", "integer d_a", 13**2),
], ids=["level1-b", "e46d", "a-atkin-beta"])
def test_a_failed_decomposition_fails_its_lines(monkeypatch, run, name, expect, modulus):
    def broken(*args):
        raise ValueError("residual is nonzero: input outside the basis span")

    monkeypatch.setattr(verifier, name, broken)
    reports = run()
    assert reports
    for r in reports:
        assert r.status == "fail" and r.n_verified == 0, r.summary_line()
        assert r.first_failure == dict(
            n=0, lhs="decomposition: residual is nonzero: input outside the basis span",
            rhs=expect, modulus=modulus)


# -- the registry -----------------------------------------------------------------------

def test_registry_names():
    assert list(REGISTRY) == [
        "classical",
        "zell",
        "xi",
        "mell",
        "spt-hecke",
        "spt-ell-square",
        "spt-prime-powers",
        "a-atkin",
        "a-atkin-beta",
        "level1",
        "atkin-gamma",
        "s-forms",
        "beta-vanish",
        "lemma-congruences",
        "e46d",
    ]


def test_desk_constants():
    assert DESK_ELLS == (5, 7, 11, 13)
    assert ATKIN_PAIRS == ((5, 7), (7, 5), (13, 5))


def test_run_checks_unknown_name():
    with raises(ValueError):
        run_checks(["no-such-check"])


def test_run_checks_classical():
    reports = run_checks(["classical"], CheckOptions(nmax=80))
    assert len(reports) == 10
    for r in reports:
        assert r.ok
        assert "statement" in r.params


GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "check_all.json"

# text mode prints params in dict order, which the sort_keys golden file cannot see
FAMILY_PARAM_KEYS = {
    "spt-hecke": ["ell", "modulus", "n", "statement"],
    "spt-ell-square": ["ell", "modulus", "n", "statement"],
    "spt-prime-powers": ["t", "a", "modulus", "n", "statement"],
    "a-atkin": ["t", "ell", "modulus", "n", "statement"],
    "mell-cong": ["ell", "n", "modulus", "statement"],
}


def _assert_golden(reports):
    got = [r.to_dict() for r in reports]
    for line in got:
        del line["elapsed_ms"]
    with open(GOLDEN_REPORT) as fh:
        assert json.loads(json.dumps(got)) == json.load(fh)


def test_check_all_matches_the_golden_report():
    reports = run_checks(list(REGISTRY))
    _assert_golden(reports)
    seen = set()
    for r in reports:
        if r.check in FAMILY_PARAM_KEYS:
            assert list(r.params) == FAMILY_PARAM_KEYS[r.check], r.summary_line()
            seen.add(r.check)
    assert seen == set(FAMILY_PARAM_KEYS)


def test_check_all_exact_matches_the_golden_report(bank_guard):
    # the sweeps that read --mod exact build their tables exactly, not as
    # reductions of the master table, and must report the same lines
    _assert_golden(run_checks(list(REGISTRY), CheckOptions(exact=True)))


def test_options_defaults():
    opts = CheckOptions()
    assert opts.ells is None and opts.t is None and opts.nmax is None
    assert opts.modulus is None and opts.exact is False and opts.cache_dir is None
    with raises(ValueError):
        CheckOptions(nmax=0)


# -- the sweep primitive against a hand-written loop -------------------------------

def _hand_sweep(rep, idx, lhs, rhs, modulus, n_verified):
    for i, (n, x, y) in enumerate(zip(idx, lhs, rhs)):
        if (x - y) % modulus if modulus else x != y:
            rep.fail(n, x % modulus if modulus else x, y % modulus if modulus else y,
                     n_verified=i if n_verified is None else n_verified, modulus=modulus)
            return False
    rep.passed(len(idx))
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_reports_as_a_hand_loop(data):
    size = data.draw(st.integers(0, 12))
    modulus = data.draw(st.sampled_from([0, 2, 3, 72, 5**6]))
    big = data.draw(st.booleans())
    bound = 2**80 if big else 2**40
    # past int64, and just past it, where np.asarray would read floats
    edge = st.sampled_from([2**63, 2**63 + 1, 2**64 - 1, -2**63 - 1])
    value = st.one_of(st.integers(-bound, bound), edge) if big else st.integers(-bound, bound)
    ints = st.lists(value, min_size=size, max_size=size)
    lhs, rhs = data.draw(ints), data.draw(ints)
    # mostly-equal sides, so first failures land anywhere in the window
    rhs = [x if data.draw(st.integers(0, 3)) else y for x, y in zip(lhs, rhs)]
    idx = sorted(data.draw(st.sets(st.integers(-50, 500), min_size=size, max_size=size)))
    as_array = data.draw(st.booleans()) and not big
    n_verified = data.draw(st.sampled_from([None, 7]))
    reports = []
    for run, args in ((sweep, (np.array(lhs), np.array(rhs)) if as_array else (lhs, rhs)),
                      (_hand_sweep, (lhs, rhs))):
        with timed_report("x", {"modulus": modulus}) as rep:
            passed = run(rep, np.array(idx) if as_array else idx, *args,
                         modulus=modulus, n_verified=n_verified)
        got = rep.to_dict()
        got.pop("elapsed_ms")
        reports.append((passed, got))
    assert reports[0] == reports[1]


def test_sweep_scalar_rhs_and_empty_window():
    with timed_report("x", {}) as rep:
        assert sweep(rep, [4, 9, 16], np.array([72, 144, 5], dtype=np.int64), modulus=72) is False
    assert rep.first_failure == {"n": 16, "lhs": 5, "rhs": 0, "modulus": 72}
    assert rep.n_verified == 2
    with timed_report("x", {}) as rep:
        assert sweep(rep, [], []) is True
    assert rep.ok and rep.n_verified == 0
