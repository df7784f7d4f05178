"""Acceptance sweep: one timed pass/fail line per criterion.

Each test prints its line through the capture so the checklist is visible in
a plain `pytest -v` run; budgets are asserted, so a slow machine fails loudly
rather than silently."""

# standard library
import random
from fractions import Fraction
from time import perf_counter
# local package
from sptlab.gamma0 import GPoly, e2t, hauptmodul, solve_in_e2t_basis
from sptlab.hecke import decompose_level1, level1_basis, ono_poly_A
from sptlab.partitions import (
    spt_bruteforce,
    spt_stream,
)
from sptlab.series import Series
from sptlab.verifier import CheckOptions, classical_congruence_reports, run_checks

_shared = {}


def _line(capsys, num, ok, elapsed, label):
    with capsys.disabled():
        print("criterion %02d %s (%5.1fs)  %s" % (num, "PASS" if ok else "FAIL",
                                                  elapsed, label))


def _spt_hecke_reports():
    if "spt-hecke" not in _shared:
        t0 = perf_counter()
        _shared["spt-hecke"] = run_checks(["spt-hecke"])
        _shared["spt-hecke-elapsed"] = perf_counter() - t0
    return _shared["spt-hecke"]


def test_criterion_01_polynomial_family(capsys):
    t0 = perf_counter()
    fam = ono_poly_A(2)
    ok = (fam[0] == (1,)
          and fam[1] == (-745, 1)
          and fam[2] == (160511, -1489, 1))
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(capsys, 1, ok, elapsed, "A_0, A_1, A_2 pinned, under 1s")
    assert ok


def test_criterion_02_zell_identities(capsys):
    t0 = perf_counter()
    reports = run_checks(["zell"])
    elapsed = perf_counter() - t0
    ok = (len(reports) == 4
          and all(r.ok for r in reports)
          and sorted(r.params["ell"] for r in reports) == [5, 7, 11, 13]
          and all(r.params["n"] == 50 for r in reports)
          and elapsed < 30.0)
    _line(capsys, 2, ok, elapsed,
          "combo(p) * eta == C_l(j) to q^50 for l in {5,7,11,13}, under 30s")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_03_xi_identities(capsys):
    t0 = perf_counter()
    reports = run_checks(["xi"])
    elapsed = perf_counter() - t0
    ok = (len(reports) == 3
          and all(r.ok for r in reports)
          and sorted(r.params["ell"] for r in reports) == [5, 7, 11]
          and all(r.params["n"] == 40 for r in reports)
          and elapsed < 60.0)
    _line(capsys, 3, ok, elapsed,
          "Eisenstein-side expansion of combo(d) to q^40 for l in {5,7,11}, under 60s")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_04_classical_layer(capsys):
    t0 = perf_counter()
    reports = classical_congruence_reports(n=500)
    elapsed = perf_counter() - t0
    names = [r.check for r in reports]
    ok = (all(r.ok for r in reports)
          and "e4cube-mod-65520" in names
          and "e2-mod-32" in names
          and "e2-mod-27" in names
          and len(reports) == 10
          and elapsed < 10.0)
    _line(capsys, 4, ok, elapsed,
          "classical identities and congruences to q^500, under 10s")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_05_spt_combo_sweeps(capsys):
    reports = _spt_hecke_reports()
    elapsed = _shared["spt-hecke-elapsed"]
    mod72 = [r for r in reports if r.params["modulus"] == 72]
    modt = [r for r in reports if r.params["modulus"] in (5, 7, 13)]
    pairs = sorted((r.params["modulus"], r.params["ell"]) for r in modt)
    want = sorted((t, l) for t in (5, 7, 13) for l in (5, 7, 11, 13) if l != t)
    ok = (sorted(r.params["ell"] for r in mod72) == [5, 7, 11, 13]
          and all(r.ok and r.params["n"] == 200 for r in mod72)
          and pairs == want
          and all(r.ok for r in modt)
          and elapsed < 300.0)
    _line(capsys, 5, ok, elapsed,
          "combo(spt) == 0 mod 72 (l in {5,7,11,13}) and mod t (all pairs), n <= 200, under 5min")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_06_large_composite_modulus(capsys):
    t0 = perf_counter()
    reports = [r for r in _spt_hecke_reports() if r.params["modulus"] == 32760]
    elapsed = perf_counter() - t0 + _shared["spt-hecke-elapsed"]
    ok = (len(reports) == 1
          and reports[0].ok
          and reports[0].params["ell"] == 11
          and reports[0].params["n"] >= 100)
    _line(capsys, 6, ok, elapsed,
          "combo(spt) == 0 mod 32760 for l = 11, n <= 100")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_07_spt_square_classes(capsys):
    t0 = perf_counter()
    reports = run_checks(["spt-ell-square"])
    elapsed = perf_counter() - t0
    ok = (sorted(r.params["ell"] for r in reports) == [5, 7, 11]
          and all(r.ok and r.params["n"] == 300 for r in reports))
    _line(capsys, 7, ok, elapsed,
          "spt(l^2 n - s) == 0 mod l on the admissible class, n <= 300, l in {5,7,11}")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_08_prime_power_families(capsys):
    t0 = perf_counter()
    reports = run_checks(["spt-prime-powers"])
    elapsed = perf_counter() - t0
    by_t = {r.params["t"]: r for r in reports}
    ok = (set(by_t) == {5, 7, 13}
          and all(r.ok for r in reports)
          and by_t[5].params["modulus"] == 5**3 and by_t[5].params["n"] == 30
          and by_t[7].params["modulus"] == 7**3 and by_t[7].params["n"] == 20
          and by_t[13].params["modulus"] == 13**2 and by_t[13].params["n"] == 8)
    _line(capsys, 8, ok, elapsed,
          "three-term prime-power recurrences mod 5^3 / 7^3 / 13^2")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_09_a_combo_sweeps(capsys):
    t0 = perf_counter()
    reports = run_checks(["a-atkin"])
    elapsed = perf_counter() - t0
    inst = [r for r in reports if r.check == "a-atkin-instance"]
    sweeps = [r for r in reports if r.check == "a-atkin"]
    pairs = sorted((r.params["t"], r.params["ell"]) for r in sweeps)
    ok = (len(inst) == 1 and inst[0].ok
          and "149077845" in inst[0].params["statement"]
          and pairs == [(5, 7), (7, 5), (13, 5)]
          and all(r.ok and r.params["n"] == 50 for r in sweeps)
          and elapsed < 300.0)
    _line(capsys, 9, ok, elapsed,
          "worked a(47) instance plus admissible sweeps mod 5^6 / 7^4 / 13^2, n <= 50, under 5min")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_10_displays_and_beta_tables(capsys):
    t0 = perf_counter()
    displays = run_checks(["s-forms"])
    beta = run_checks(["beta-vanish"])
    elapsed = perf_counter() - t0
    names = sorted(r.check for r in displays)
    ok = (len(displays) == 6
          and all(r.ok and r.n_verified >= 100 for r in displays)
          and names == sorted(["s-display-5", "s-display-7", "s-sift-display-5",
                               "s-sift-display-7", "psi-display-5", "psi-display-7"])
          and all(r.ok for r in beta)
          and sorted(r.params["t"] for r in beta if r.check == "beta-table") == [5, 7]
          and all(r.params["n"] == 200 for r in beta if r.check == "beta-vanish"))
    _line(capsys, 10, ok, elapsed,
          "six displayed expansions exact to q^100, beta tables exact, vanishing to n = 200")
    assert ok, [r.summary_line() for r in displays + beta]


def test_criterion_11_lemma_congruences(capsys):
    t0 = perf_counter()
    reports = run_checks(["lemma-congruences", "e46d"])
    elapsed = perf_counter() - t0
    ladder = [r for r in reports if r.check.startswith("epsilon-ladder")]
    moduli = {r.params.get("modulus") for r in reports if r.check.startswith("e46d-mod")}
    pinned5 = [r for r in reports if r.check == "e46d" and r.params["t"] == 5]
    ok = (all(r.ok for r in reports)
          and {5**8, 7**4, 13**2, 5**6} <= moduli
          and sorted(r.params["a"] for r in ladder) == [3, 4, 5, 6, 7, 8]
          and len(pinned5) == 1 and pinned5[0].n_verified == 7)
    _line(capsys, 11, ok, elapsed,
          "hauptmodul reductions mod 5^8 / 7^4 / 13^2 / 5^6, ladder a = 3..8, pinned level-5 table")
    assert ok, [r.summary_line() for r in reports]


def test_criterion_12_gamma_constancy(capsys):
    t0 = perf_counter()
    reports = run_checks(["atkin-gamma"])
    elapsed = perf_counter() - t0
    gammas = {(r.params["t"], r.params["ell"]): r.params.get("gamma") for r in reports}
    ok = (all(r.ok and r.params["n"] == 60 for r in reports)
          and gammas == {(5, 7): 9379, (7, 5): 2399, (13, 5): 165})
    _line(capsys, 12, ok, elapsed,
          "one gamma constant per (t, l) pair over admissible n <= 60")
    assert ok, [r.summary_line() for r in reports]


def _random_series(rng, lo_range=3, length=24, bound=10**6, frac=0):
    n = rng.randint(1, length)
    return Series([rng.randint(-bound, bound) for _ in range(n)],
                  lo=rng.randint(-lo_range, lo_range), frac24=frac)


def test_criterion_13_property_suites(capsys):
    t0 = perf_counter()
    rng = random.Random(0x5B7)
    ok = True

    for _ in range(50):  # ring laws
        a, b, c = (_random_series(rng) for _ in range(3))
        ok = ok and a.mul(b).first_difference(b.mul(a)) is None
        lhs, rhs = a.mul(b).mul(c), a.mul(b.mul(c))
        ok = ok and lhs.first_difference(rhs, hi=min(lhs.valid_to, rhs.valid_to)) is None
        ok = ok and (a + b).first_difference(b + a) is None

    for _ in range(50):  # inverse round-trips
        f = Series([rng.choice([1, -1])]
                   + [rng.randint(-99, 99) for _ in range(rng.randint(1, 24))],
                   lo=0, frac24=rng.randrange(24))
        prod = f.mul(f.invert())
        ok = ok and prod.coeff(0) == 1
        ok = ok and all(prod.coeff(n) == 0 for n in range(1, prod.valid_to + 1))

    for _ in range(50):  # product rule for q d/dq
        a, b = _random_series(rng), _random_series(rng)
        ok = ok and a.mul(b).qderiv().first_difference(a.qderiv().mul(b) + a.mul(b.qderiv())) is None

    for _ in range(50):  # reduction commutes with multiplication
        a, b = _random_series(rng), _random_series(rng)
        m = rng.randint(2, 10**6)
        ok = ok and a.mul(b).reduce_mod(m).first_difference(a.reduce_mod(m).mul(b.reduce_mod(m))) is None

    spt = spt_stream(35)
    ok = ok and all(spt.coeff(n) == spt_bruteforce(n) for n in range(36))

    for _ in range(12):  # decomposition round-trips, level one
        s = rng.randint(1, 5)
        basis = level1_basis(s, 2 * s + 4)
        b = [rng.randint(-10**6, 10**6) for _ in range(s)]
        f = None
        for bk, elt in zip(b, basis):
            f = elt.scale(bk) if f is None else f + elt.scale(bk)
        ok = ok and decompose_level1(f, s) == b

    for _ in range(12):  # decomposition round-trips, eta-quotient basis
        t = rng.choice([5, 7])
        d = {a: rng.randint(-10**4, 10**4) for a in range(-t, 2)}
        prec = t + 8
        g = hauptmodul(t, prec)
        h = e2t(t, prec).mul(GPoly.from_dict(t, d).eval(g))
        got = solve_in_e2t_basis(h.truncate(t + 2), t, 1)
        ok = ok and all(got.coeff(a) == d[a] for a in d)

    mell = run_checks(["mell"])
    ok = (ok and sorted(r.params["ell"] for r in mell) == [5, 7, 11, 13]
          and all(r.ok and r.params["n"] == 200 for r in mell))

    elapsed = perf_counter() - t0
    _line(capsys, 13, ok, elapsed,
          "randomized algebra suites (50 cases each), spt oracle to 35, decomposition round-trips, combo(a) mod l to n = 200")
    assert ok


def test_criterion_14_desk_scale_only(capsys):
    t0 = perf_counter()
    # the analytic statements behind these sweeps (completions, shadows,
    # holomorphic projection) have no finite computation attached; their
    # coefficient-level consequences are exactly what criteria 5-13 sweep.
    sample = Series([1, 2, 3], lo=0, frac24=23)
    ok = sample.exponent(0) == Fraction(-1, 24)
    elapsed = perf_counter() - t0
    _line(capsys, 14, ok, elapsed,
          "non-computational statements excluded by design")
    assert ok
