# standard library
import hashlib
import sys
from collections import Counter
# third party
import numpy as np
# test framework
from pytest import MonkeyPatch, fixture
# local package
from sptlab import forms, series
from sptlab.forms import euler_product
from sptlab.partitions import prewarm, stream
from sptlab.series import CoeffStream
from sptlab.verifier import MASTER_MODULUS, REGISTRY, CheckOptions, run_checks

STREAM_KEYS = [(kind, m) for kind in ("p", "spt", "d", "a") for m in (0, MASTER_MODULUS)]


def _digest(tab):
    if isinstance(tab.values, np.ndarray):
        return hashlib.sha256(tab.values.tobytes()).hexdigest()
    return hashlib.sha256(repr(tab.values).encode()).hexdigest()


@fixture(scope="module")
def cold_run():
    """run_checks over the whole registry on an empty bank, recording each
    inversion of an Euler-product prefix as (modulus, length, length of the
    prefix it continued, code of the caller of Series.invert)."""
    saved = dict(forms._bank)
    forms._bank.clear()
    calls = []

    def spy(inner, modulus_of):
        def call(a, *args):
            m = modulus_of(args)
            if np.array_equal(np.asarray(a, dtype=object),
                              np.asarray(euler_product(len(a) - 1, m).coeffs, dtype=object)):
                prefix = args[-1]
                calls.append((m, len(a), 0 if prefix is None else len(prefix),
                              sys._getframe(2).f_code))
            return inner(a, *args)
        return call

    with MonkeyPatch.context() as mp:
        mp.setattr(series, "_invert_exact", spy(series._invert_exact, lambda args: 0))
        mp.setattr(series, "_invert_mod", spy(series._invert_mod, lambda args: args[0]))
        reports = run_checks(list(REGISTRY))
    yield reports, calls
    forms._bank.clear()
    forms._bank.update(saved)


def test_cold_check_all_inverts_the_euler_product_once_per_modulus(cold_run):
    reports, calls = cold_run
    assert len(reports) == 81 and all(r.ok for r in reports)
    from_scratch = Counter(m for m, _, start, _ in calls if start == 0)
    assert from_scratch[0] == 1 and from_scratch[MASTER_MODULUS] == 1
    assert max(from_scratch.values()) == 1
    # the exact p is grown, never recomputed: p(0..8444) once in total
    assert sum(n - start for m, n, start, _ in calls if m == 0) <= 8445
    # and every Euler-product inverse is the bank's p
    assert {code for *_, code in calls} == {forms._build_p.__code__}


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
            fresh = stream(kind, tab.hi, m).values[: len(tab.values)]
            assert list(map(int, fresh)) == list(map(int, tab.values)), (kind, m)
    finally:
        bank.clear()
        bank.update(saved)


def test_one_wrong_master_spt_fails_exactly_its_readers(bank_guard):
    # a fault in the master spt at l^2 17 - s (l = 11, s = 5) after the
    # master build: every spt-hecke l = 11 line fails at n = 17, and the a
    # table, built before the fault, keeps mell and a-atkin passing
    bank_guard.clear()
    prewarm(40000, MASTER_MODULUS)
    key = ("spt", MASTER_MODULUS)
    values = bank_guard[key].values.copy()
    values[11 * 11 * 17 - 5] = (values[11 * 11 * 17 - 5] + 1) % MASTER_MODULUS
    bank_guard[key] = CoeffStream(values, "spt", 0, MASTER_MODULUS)
    reports = run_checks(["spt-hecke", "mell", "a-atkin"], CheckOptions(ells=(11,)))
    hecke = [r for r in reports if r.check == "spt-hecke"]
    assert sorted(r.params["modulus"] for r in hecke) == [5, 7, 13, 72, 32760]
    for r in hecke:
        assert r.status == "fail" and r.first_failure["n"] == 17, r.summary_line()
    mell = [r for r in reports if r.check == "mell-cong"]
    atkin = [r for r in reports if r.check == "a-atkin"]
    assert [r.params["ell"] for r in mell] == [11]
    assert sorted(r.params["t"] for r in atkin) == [5, 7, 13]
    assert all(r.params["ell"] == 11 for r in atkin)
    assert all(r.ok for r in mell + atkin)
