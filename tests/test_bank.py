# standard library
import ast
import hashlib
import sys
import tracemalloc
from pathlib import Path
# third party
import numpy as np
# test framework
from pytest import MonkeyPatch, fixture, mark
# local package
from sptlab import cache, cli, forms, series, verifier
from sptlab.forms import euler_product
from sptlab.hecke import legendre
from sptlab.partitions import spt_stream, stream
from sptlab.series import Series
from sptlab.verifier import MASTER_MODULUS, REGISTRY, CheckOptions, _prewarm, inv24, run_checks

# d is banked only exact: xi reads it, and a is formed without storing one
STREAM_KEYS = [(kind, m) for kind in ("p", "spt", "a") for m in (0, MASTER_MODULUS)] + [("d", 0)]


def _digest(tab):
    # an object array's bytes are pointers, so an exact table hashes its values
    data = tab.coeffs.tobytes() if tab.modulus else repr(tab.coeffs.tolist()).encode()
    return hashlib.sha256(data).hexdigest()


@fixture(scope="module")
def cold_run():
    """run_checks over the whole registry on an empty bank, recording each
    Series.invert as (modulus, length, whether it inverts an Euler-product
    prefix), and each blocked division by the Euler product as (modulus,
    length, length of the prefix it continued, code of its caller)."""
    saved = dict(forms._bank)
    forms._bank.clear()
    calls, divisions = [], []

    def invert(inner):
        def call(a, c0_inv, m):
            euler = np.array_equal(np.asarray(a, dtype=object),
                                   np.asarray(euler_product(len(a) - 1, m).coeffs, dtype=object))
            calls.append((m, len(a), euler))
            return inner(a, c0_inv, m)
        return call

    def divide(inner):
        def call(f, m, p, prefix=None):
            divisions.append((m, len(f), 0 if prefix is None else len(prefix),
                              sys._getframe(1).f_code))
            return inner(f, m, p, prefix)
        return call

    with MonkeyPatch.context() as mp:
        mp.setattr(series, "_invert", invert(series._invert))
        mp.setattr(series, "_euler_quotient", divide(series._euler_quotient))
        reports = run_checks(list(REGISTRY))
    yield reports, calls, divisions
    forms._bank.clear()
    forms._bank.update(saved)


def test_cold_check_all_divides_each_table_once_per_domain(cold_run):
    reports, calls, divisions = cold_run
    assert len(reports) == 81 and all(r.ok for r in reports)
    # no Euler product is inverted in either domain, and every inverse is
    # short: p is divided, not inverted
    assert not any(euler for *_, euler in calls)
    assert max(n for _, n, _ in calls) < series._INV_BLOCK
    # only p and spt divide, and in each domain each is divided from scratch
    # once (p from p(0) = 1, spt from nothing) and then only grown, so each
    # p(k) and spt(k) is divided once
    build_p, spt = forms._build_p.__code__, spt_stream.__code__
    first = {build_p: 1, spt: 0}
    assert {code for *_, code in divisions} == set(first)
    for code, modulus in {(code, m) for m, *_, code in divisions}:
        runs = [(n, start) for m, n, start, c in divisions if (c, m) == (code, modulus)]
        assert [start for _, start in runs].count(first[code]) == 1, (code.co_name, modulus)
        assert sum(n - start for n, start in runs) == max(n for n, _ in runs) - first[code]
    # both domains divide both tables, among them the exact p to q^8444 for
    # zell and the master p, doubled to B terms and divided once more
    assert {(m, code) for m, *_, code in divisions} >= {
        (m, code) for m in (0, MASTER_MODULUS) for code in first}
    assert max(n for m, n, _, code in divisions if (m, code) == (0, build_p)) == 8445
    assert (MASTER_MODULUS, 40001, series._EULER_BLOCK, build_p) in divisions


def test_check_all_does_not_mutate_shared_tables(cold_run):
    bank = forms._bank
    tables = {key: bank[key] for key in STREAM_KEYS}
    digests = {key: _digest(tab) for key, tab in tables.items()}
    assert all(r.ok for r in run_checks(list(REGISTRY)))
    for key, tab in tables.items():
        assert bank[key] is tab and _digest(tab) == digests[key], key
    # each also equals a fresh build, so the cold run wrote into none either
    saved = dict(bank)
    bank.clear()
    try:
        for (kind, m), tab in tables.items():
            fresh = stream(kind, tab.valid_to, m).coeffs[: len(tab.coeffs)]
            assert list(map(int, fresh)) == list(map(int, tab.coeffs)), (kind, m)
    finally:
        bank.clear()
        bank.update(saved)


@fixture
def limb_products(monkeypatch):
    """Spy on every float64 limb product: the modular FFT products, the
    blocks of the Euler division and the exact column kernel, which all
    invert through _limb_columns.  Yields (products, tripped, exact): the arguments of each
    product, of each whose rounding guard tripped, and the length of each
    exact column product."""
    limb_columns, columns = series._limb_columns, series._conv_columns
    products, tripped, exact = [], [], []

    def spy(*args):
        products.append(args[2:])
        for col in limb_columns(*args):
            if col is None:
                tripped.append(args[2:])
            yield col

    monkeypatch.setattr(series, "_limb_columns", spy)
    monkeypatch.setattr(series, "_conv_columns",
                        lambda *args: exact.append(len(args[0])) or columns(*args))
    yield products, tripped, exact


def test_cold_check_all_trips_no_rounding_guard(bank_guard, limb_products):
    # a trip would silently send the product to a slower fallback
    products, tripped, exact = limb_products
    bank_guard.clear()
    reports = run_checks(list(REGISTRY))
    assert len(reports) == 81 and all(r.ok for r in reports)
    assert len(products) > 50 and len(exact) >= 3
    assert tripped == []


def _series_exact_exports():
    """The (key, arguments) of the exact table exports that the benchmark's
    series-exact workload runs, read from perfbench/run.py without importing
    it."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text()
    node = next(n for n in ast.parse(source).body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "SERIES_EXACT")
    return ast.literal_eval(node.value)


SERIES_EXACT = _series_exact_exports()

# exports whose products are all short enough for np.convolve or schoolbook
# (the exact p is an inverse recurrence); every other export multiplies
# through the column kernel
NO_COLUMN_PRODUCT = {"E2t13", "p"}


@mark.parametrize("key, args", SERIES_EXACT, ids=[key for key, _ in SERIES_EXACT])
def test_cold_series_export_trips_no_rounding_guard(key, args, bank_guard, limb_products):
    # each export runs in a fresh process, so on an empty bank; a trip would
    # silently send an exact product to schoolbook
    _, tripped, exact = limb_products
    bank_guard.clear()
    values, *_ = cli._series_values(cli.build_parser().parse_args(["series"] + args))
    assert len(values) > 1000
    assert exact or key in NO_COLUMN_PRODUCT
    assert tripped == []


def _assert_one_array_per_table(bank):
    """Every bank table holds a 1-D array of its domain: int64 residues in
    [0, M), or Python objects with no numpy integer among them."""
    for (tag, m), tab in bank.items():
        c = tab.coeffs
        assert isinstance(c, np.ndarray) and c.ndim == 1, (tag, m)
        if m:
            assert c.dtype == np.int64, (tag, m)
            assert c.size == 0 or (c.min() >= 0 and c.max() < m), (tag, m)
        else:
            assert c.dtype == object, (tag, m)
            assert not any(isinstance(v, np.integer) for v in c.tolist()), (tag, m)


def test_bank_tables_are_one_array_of_their_domain(cold_run, bank_guard):
    assert {m for _, m in bank_guard} >= {0, MASTER_MODULUS}
    _assert_one_array_per_table(bank_guard)
    # the sweep families that take an exact table under --mod exact
    exact = ["spt-hecke", "spt-ell-square", "spt-prime-powers", "a-atkin"]
    bank_guard.clear()
    assert all(r.ok for r in run_checks(exact, CheckOptions(exact=True, t=5, nmax=10)))
    assert {"p", "spt", "a"} <= {tag for tag, m in bank_guard if m == 0}
    _assert_one_array_per_table(bank_guard)


def test_one_wrong_master_spt_fails_exactly_its_readers(bank_guard):
    # a fault in the master spt at l^2 17 - s (l = 11, s = 5) after the
    # master build: every spt-hecke l = 11 line fails at n = 17, and the a
    # table, built before the fault, keeps mell and a-atkin passing
    bank_guard.clear()
    _prewarm(40000, CheckOptions())
    key = ("spt", MASTER_MODULUS)
    values = bank_guard[key].coeffs.copy()
    values[11 * 11 * 17 - 5] = (values[11 * 11 * 17 - 5] + 1) % MASTER_MODULUS
    bank_guard[key] = Series(values, 0, 0, MASTER_MODULUS)
    reports = run_checks(["spt-hecke", "mell", "a-atkin"], CheckOptions(ells=(11,)))
    hecke = [r for r in reports if r.check == "spt-hecke"]
    assert sorted(r.params["modulus"] for r in hecke) == [5, 7, 13, 72, 32760]
    for r in hecke:
        assert r.status == "fail" and r.first_failure["n"] == 17, r.summary_line()
        assert r.first_failure["lhs"] == 1 and r.n_verified == 16, r.summary_line()
    mell = [r for r in reports if r.check == "mell-cong"]
    atkin = [r for r in reports if r.check == "a-atkin"]
    assert [r.params["ell"] for r in mell] == [11]
    assert sorted(r.params["t"] for r in atkin) == [5, 7, 13]
    assert all(r.params["ell"] == 11 for r in atkin)
    assert all(r.ok for r in mell + atkin)


# -- one fault per bank table, each caught by exactly its reader ---------------

# the checks that sweep a p/spt/a table, at l = 11 and t = 5: spt-hecke
# (72, 5, 32760), spt-ell-square, spt-prime-powers, a-atkin (and its exact
# worked instance), mell-cong and atkin-gamma
TABLE_SWEEPS = ["spt-hecke", "spt-ell-square", "spt-prime-powers", "a-atkin", "mell", "atkin-gamma"]


def _partitions_upto(n):
    ways = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            ways[i] += ways[i - k]
    return ways


def _admissible(t, eps, lo, hi):
    """m in lo..valid_to with (1-24m|t) = eps, in order."""
    return [m for m in range(lo, hi + 1) if legendre(1 - 24 * m, t) == eps]


def _fault_cases():
    """(table key, index, check, params it is picked out by, first_failure,
    n_verified): the index is where the check reads the table for its m."""
    cases = []
    # spt(121 m - 5) enters the three-halves combo at m with weight 1
    cases.append((("spt", 72), 121 * 17 - 5, "spt-hecke", {"modulus": 72},
                  dict(n=17, lhs=1, rhs=0, modulus=72), 16))
    m = _admissible(11, 1, 1, 300)[6]
    cases.append((("spt", 11), 121 * m - 5, "spt-ell-square", {},
                  dict(n=m, lhs=1, rhs=0, modulus=11), 6))
    cases.append((("spt", 125), 125 * 4 + inv24(125), "spt-prime-powers", {},
                  dict(n=4, lhs=1, rhs=0, modulus=125), 4))
    m = _admissible(5, -1, 1, 50)[3]
    cases.append((("a", 5**6), 121 * m - 5, "a-atkin", {},
                  dict(n=m, lhs=1, rhs=0, modulus=5**6), 3))
    cases.append((("a", 11), 121 * 30 - 5, "mell-cong", {},
                  dict(n=30, lhs=1, rhs=0, modulus=11), 35))
    # weight l^3 = 1331 on p(121 m - 5); rhs is gamma p(m), filled in below
    m = _admissible(5, -1, 1, 60)[2]
    cases.append((("p", 5**6), 121 * m - 5, "atkin-gamma", {},
                  dict(n=m, lhs=1331, rhs=0, modulus=5**6), 2))
    return cases


@fixture(scope="module")
def master_bank():
    """The bank holding just the master p/spt/a mod MASTER_MODULUS."""
    saved = dict(forms._bank)
    forms._bank.clear()
    _prewarm(40000, CheckOptions())
    snap = dict(forms._bank)
    forms._bank.clear()
    forms._bank.update(saved)
    return snap


@mark.parametrize("key,index,check,pick,failure,n_verified", _fault_cases(),
                  ids=[c[2] for c in _fault_cases()])
def test_one_fault_fails_its_reader_at_the_predicted_index(
        bank_guard, master_bank, monkeypatch, key, index, check, pick, failure, n_verified):
    opts = CheckOptions(ells=(11,), t=5)
    bank_guard.clear()
    bank_guard.update(master_bank)
    clean = run_checks(TABLE_SWEEPS, opts)
    assert len(clean) == 9 and all(r.ok for r in clean)
    tag, modulus = key
    if MASTER_MODULUS % modulus:
        # the clean run stored the table the check reads, at its full length
        tab = bank_guard[key]
        values = tab.coeffs.copy()
        values[index] = (values[index] + 1) % modulus
        bank_guard[key] = Series(values, 0, tab.frac24, modulus)
    else:
        # the bank reduces the master for each request and stores no
        # reduction, so the fault goes into every reduction of the master
        assert key not in bank_guard
        master, real = bank_guard[(tag, MASTER_MODULUS)], Series.reduce_mod

        def faulty(self, m):
            out = real(self, m)
            if self is not master or m != modulus:
                return out
            values = out.coeffs.copy()
            values[index] = (values[index] + 1) % modulus
            return Series._wrap(values, out.lo, out.frac24, modulus)

        monkeypatch.setattr(Series, "reduce_mod", faulty)
    failure = dict(failure)
    if check == "atkin-gamma":
        gamma = next(r for r in clean if r.check == check).params["gamma"]
        failure["rhs"] = gamma * _partitions_upto(failure["n"])[failure["n"]] % modulus
        failure["lhs"] = (failure["rhs"] + failure["lhs"]) % modulus
    reports = run_checks(TABLE_SWEEPS, opts)
    assert [r.check for r in reports] == [r.check for r in clean]
    failing = [r for r in reports if not r.ok]
    assert [r.check for r in failing] == [check], [r.summary_line() for r in failing]
    (bad,) = failing
    assert all(bad.params[k] == v for k, v in pick.items())
    assert bad.first_failure == failure and bad.n_verified == n_verified, bad.summary_line()


# -- faults in tables that no sweep reads --------------------------------------

# (bank key, exponent q^k faulted, the lines that must fail as (check, ell
# or None, first_failure, n_verified)); the exact d feeds only xi.  The
# forms are not banked: classical builds E2, E4, Delta and j once, exactly,
# and reduces them for its congruences, and the psi displays build E4 and
# Delta, so a fault in what a builder returns fails all of these readers
OUTSIDE_CASES = [
    (("d", 0), 99, [
        ("xi", 5, dict(n=5, lhs=709274970005, rhs=709274970000, modulus=0), 5),
    ]),
    (("E4", 0), 7, [
        ("j-times-delta", None, dict(n=7, lhs=187477879680, rhs=187477879683, modulus=0), 7),
        ("qderiv-j", None, dict(n=7, lhs=2325336249792, rhs=2325336249790, modulus=0), 7),
        ("e4cube-e6square", None, dict(n=7, lhs=-28933629, rhs=-28933632, modulus=0), 6),
        ("e4cube-mod-65520", None, dict(n=7, lhs=3, rhs=0, modulus=65520), 7),
        ("e2-mod-65520", None, dict(n=7, lhs=65328, rhs=65330, modulus=65520), 7),
        ("e2-mod-32", None, dict(n=7, lhs=0, rhs=1, modulus=32), 7),
        ("e4sq-mod-32", None, dict(n=7, lhs=2, rhs=0, modulus=32), 7),
        ("e2-mod-27", None, dict(n=7, lhs=24, rhs=2, modulus=27), 7),
        ("e6-mod-27", None, dict(n=7, lhs=18, rhs=24, modulus=27), 7),
        ("psi-display-5", None,
         dict(n=6, lhs=-27348114869127, rhs=-27348114869125, modulus=0), 7),
        ("psi-display-7", None,
         dict(n=5, lhs=-114466811548202256, rhs=-114466811548202251, modulus=0), 7),
    ]),
    (("delta", 0), 7, [
        ("j-times-delta", None, dict(n=6, lhs=34413301441, rhs=34413301440, modulus=0), 6),
        ("qderiv-delta", None, dict(n=7, lhs=-117201, rhs=-117207, modulus=0), 6),
        ("qderiv-j", None, dict(n=6, lhs=313495116767, rhs=313495116768, modulus=0), 6),
        ("e4cube-e6square", None, dict(n=7, lhs=-28933632, rhs=-28931904, modulus=0), 6),
        ("e4cube-mod-65520", None, dict(n=7, lhs=64800, rhs=0, modulus=65520), 7),
        ("e2-mod-32", None, dict(n=7, lhs=0, rhs=16, modulus=32), 7),
        ("e2-mod-27", None, dict(n=7, lhs=24, rhs=15, modulus=27), 7),
        ("psi-display-7", None,
         dict(n=5, lhs=-114466811548202256, rhs=-114466811548203001, modulus=0), 7),
    ]),
    (("j", 0), 7, [
        ("j-times-delta", None, dict(n=8, lhs=814940600401, rhs=814940600400, modulus=0), 8),
        ("qderiv-j", None, dict(n=8, lhs=13195750342687, rhs=13195750342680, modulus=0), 8),
    ]),
    (("E2", 0), 7, [
        ("qderiv-delta", None, dict(n=8, lhs=675840, rhs=675841, modulus=0), 7),
        ("e2-mod-65520", None, dict(n=7, lhs=65329, rhs=65328, modulus=65520), 7),
        ("e2-mod-32", None, dict(n=7, lhs=1, rhs=0, modulus=32), 7),
        ("e2-mod-27", None, dict(n=7, lhs=25, rhs=24, modulus=27), 7),
    ]),
]


def _plus_one(tab, k):
    """The exact Series tab with its q^k coefficient raised by 1."""
    values = [int(v) for v in tab.coeffs]
    values[k - tab.lo] += 1
    return Series(values, tab.lo, tab.frac24, tab.modulus)


@fixture(scope="module")
def registry_bank():
    """The bank a cold run of the whole registry leaves behind."""
    saved = dict(forms._bank)
    forms._bank.clear()
    reports = run_checks(list(REGISTRY))
    assert len(reports) == 81 and all(r.ok for r in reports)
    snap = dict(forms._bank)
    forms._bank.clear()
    forms._bank.update(saved)
    return snap


def test_cold_check_all_banks_only_the_partition_tables(registry_bank):
    # no form table: each is built once by its one reader; and d only
    # exact, for xi, since a is formed from p and spt without storing a d
    assert {tag for tag, _ in registry_bank} == {"p", "spt", "d", "a"}
    assert {m for tag, m in registry_bank if tag == "d"} == {0}


def test_cold_check_all_stores_no_reduction_of_the_master(registry_bank):
    # every sweep modulus that divides the master is reduced from it per
    # request; the bank keeps only the master and tables of other moduli
    divisors = {m for _, m in registry_bank if m and m != MASTER_MODULUS and MASTER_MODULUS % m == 0}
    assert divisors == set()
    assert {("p", MASTER_MODULUS), ("spt", MASTER_MODULUS), ("a", MASTER_MODULUS)} <= set(registry_bank)


@mark.parametrize("key,k,failing", OUTSIDE_CASES, ids=[c[0][0] for c in OUTSIDE_CASES])
def test_one_fault_outside_the_sweeps_fails_exactly_its_readers(
        bank_guard, registry_bank, monkeypatch, key, k, failing):
    bank_guard.clear()
    bank_guard.update(registry_bank)
    tag = key[0]
    if key in bank_guard:
        bank_guard[key] = _plus_one(bank_guard[key], k)
    else:
        # a form is built per call, so the fault goes into what its builder returns
        name = {"delta": "delta_series", "j": "j_series"}.get(tag, "eisenstein")
        real = getattr(verifier, name)

        def faulty(*args):
            out = real(*args)
            # eisenstein(weight, n) is faulted at the tag's weight only
            return _plus_one(out, k) if name != "eisenstein" or "E%d" % args[0] == tag else out

        monkeypatch.setattr(verifier, name, faulty)
    reports = run_checks(list(REGISTRY))
    assert len(reports) == 81
    got = [(r.check, r.params.get("ell"), r.first_failure, r.n_verified)
           for r in reports if not r.ok]
    assert got == failing, [r.summary_line() for r in reports if not r.ok]


def test_master_build_and_store_stay_in_bounded_memory(bank_guard, tmp_path):
    # p, spt and a mod 360360 at 40,001 terms from an empty bank, then the
    # cache file of that p, under tracemalloc.  Dividing by the Euler product
    # in blocks keeps no transform of the whole table, and store formats its
    # rows a chunk at a time: the peaks read about 2.0 MB and 0.5 MB, against
    # 5.7 MB and 5.2 MB for a Newton p, a full-length spt product and one
    # joined text of the file
    bank_guard.clear()
    tracemalloc.start()
    try:
        p = stream("p", 40000, MASTER_MODULUS)
        stream("spt", 40000, MASTER_MODULUS)
        stream("a", 40000, MASTER_MODULUS)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        cache.store(tmp_path, cache.SeriesKind("p", 40000, modulus=MASTER_MODULUS), p.coeffs)
        store = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build < 2.5e6, build
    assert store < 1e6, store
