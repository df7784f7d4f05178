# standard library
import inspect
from functools import lru_cache
# third party
import numpy as np
# test framework
import hypothesis.strategies as st
from hypothesis import given, settings
from pytest import MonkeyPatch, fixture, raises, mark
# local package
from sptlab import ValidityError, series
from sptlab.forms import euler_product, inverse_euler
from sptlab.series import Series
from sptlab.partitions import _andrews_rhs, spt_stream, stream
# test helpers
from oracles import partition_oracle, spt_bruteforce

parametrize = mark.parametrize


# -- reference oracles ---------------------------------------------------------

def all_partitions(n):
    if n == 0:
        yield []
        return
    stack = [(n, 1, [])]
    while stack:
        rest, least, acc = stack.pop()
        if rest == 0:
            yield acc
            continue
        for part in range(least, rest + 1):
            stack.append((rest - part, part, acc + [part]))


def spt_oracle(n):
    return sum(p.count(min(p)) for p in all_partitions(n) if p)


@lru_cache(maxsize=None)
def spt_tail_oracle(n):
    """spt(0..n) by the backward tail-product recurrence, in plain ints.

    T_m = q^m/(1-q^m) + (1-q^m) T_{m+1} accumulates the tail products, so
    T_1 = (q)_inf * sum spt(n) q^n; a pentagonal-number division by the
    Euler product finishes it.  Shares no code with sptlab."""
    t = [0] * (n + 1)
    for m in range(n, 0, -1):
        for i in range(n, m - 1, -1):
            t[i] -= t[i - m]
        for j in range(m, n + 1, m):
            t[j] += 1
    pents = []  # (g, sign) for the terms of (q)_inf with 1 <= g <= n
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 == 0 else -1
        pents.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= n:
            pents.append((k * (3 * k + 1) // 2, sign))
        k += 1
    pents.sort()
    vals = [0] * (n + 1)
    for i in range(1, n + 1):
        vals[i] = t[i] - sum(e * vals[i - g] for g, e in pents if g <= i)
    return tuple(vals)


# -- partition and spt values ----------------------------------------------------

def test_partition_values():
    p = stream("p", 100)
    assert [p.coeff(i) for i in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert p.coeff(100) == 190569292


def test_partition_against_oracle():
    p = inverse_euler(200)
    assert list(p.coeffs) == partition_oracle(200)


def test_partition_modular_matches_exact():
    pm = inverse_euler(300, modulus=360360)
    pe = partition_oracle(300)
    assert all(int(pm.coeff(i)) == pe[i] % 360360 for i in range(301))


@parametrize('n', range(0, 19))
def test_spt_bruteforce_against_enumeration(n):
    assert spt_bruteforce(n) == spt_oracle(n)


def test_spt_stream_against_bruteforce():
    s = spt_stream(35)
    assert [s.coeff(n) for n in range(36)] == [spt_bruteforce(n) for n in range(36)]


def test_spt_tail_oracle_against_bruteforce():
    assert list(spt_tail_oracle(35)) == [spt_bruteforce(n) for n in range(36)]


def test_spt_stream_against_tail_oracle_exact(bank_guard):
    assert spt_stream(600).coeffs.tolist() == list(spt_tail_oracle(600))


@parametrize('modulus', [360360, 343, 169])
def test_spt_stream_against_tail_oracle_modular(bank_guard, modulus):
    got = spt_stream(2000, modulus=modulus)
    assert [int(v) for v in got.coeffs] == [v % modulus for v in spt_tail_oracle(2000)]


def test_spt_modular_master_matches_exact(bank_guard):
    # above the FFT cutoff: the p inversion and the final product mod 360360
    # against the exact product path
    exact = spt_stream(5000)
    got = spt_stream(5000, modulus=360360)
    assert [int(v) for v in got.coeffs] == [v % 360360 for v in exact.coeffs]


def test_spt_bruteforce_guard():
    with raises(ValueError):
        spt_bruteforce(46)
    with raises(ValueError):
        spt_bruteforce(-1)


def test_spt_modular_matches_exact():
    se = spt_stream(150)
    sm = spt_stream(150, modulus=5 * 7 * 13)
    assert all(sm.coeff(n) == se.coeff(n) % (5 * 7 * 13) for n in range(151))


@parametrize('t,r', [(5, 4), (7, 5), (13, 6)])
def test_spt_linear_congruences(t, r):
    # spt(t n + r) == 0 mod t for the three linear progressions
    s = spt_stream(13 * 12 + 6)
    assert all(s.coeff(t * k + r) % t == 0 for k in range(12))


def test_weighted_streams(bank_guard):
    n = 40
    d, a = stream("d", n), stream("a", n)
    p = stream("p", n)
    s = spt_stream(n)
    assert d.frac24 == 23 and a.frac24 == 23
    for m in range(n + 1):
        assert d.coeff(m) == (24 * m - 1) * p.coeff(m)
        assert a.coeff(m) == 12 * s.coeff(m) + d.coeff(m)
    assert a.coeff(0) == -1
    assert a.coeff(1) == 12 + 23 * 1


# -- stream windows and caps -----------------------------------------------------

def test_stream_read_window():
    st = Series([4, 5, 6], lo=2)
    assert st.coeff(1) == 0
    assert st.coeff(4) == 6
    assert st.valid_to == 4
    with raises(ValidityError):
        st.coeff(5)


def test_reduce_to_needs_divisor():
    st = Series([10, 11], modulus=10)
    assert st.reduce_mod(5).coeff(1) == 1
    assert st.reduce_mod(10) is st
    with raises(ValueError):
        st.reduce_mod(3)
    exact = Series([10, 11])
    assert exact.reduce_mod(7).coeff(0) == 3


# -- the shared bank --------------------------------------------------------------

def test_bank_reuses_and_reduces(bank_guard):
    exact = stream("p", 80)
    again = stream("p", 50)
    assert again is exact
    reduced = stream("p", 50, modulus=11)
    assert reduced.valid_to == exact.valid_to  # derived from the exact table, not rebuilt
    assert all(reduced.coeff(n) == exact.coeff(n) % 11 for n in range(51))
    sub = stream("p", 50, modulus=11)
    assert sub is reduced


def test_bank_divisor_modulus_reuse(bank_guard):
    master = stream("spt", 60, modulus=360360)
    small = stream("spt", 40, modulus=72)
    assert small.valid_to == master.valid_to
    assert all(small.coeff(n) == master.coeff(n) % 72 for n in range(41))


def test_bank_builds_a_without_d(bank_guard):
    bank_guard.clear()  # force the build path under the guard
    stream("a", 30, modulus=97)
    assert set(bank_guard) == {("p", 97), ("spt", 97), ("a", 97)}
    for kind in ("p", "spt", "a"):
        stream(kind, 25, modulus=97)  # already warm; must not shrink anything
    assert bank_guard[("a", 97)].valid_to >= 30


def test_d_build_reads_only_p(bank_guard):
    bank_guard.clear()
    d = stream("d", 30, modulus=97)
    assert d.valid_to == 30 and d.frac24 == 23
    assert ("p", 97) in bank_guard
    assert ("spt", 97) not in bank_guard


def _spy_starts(inner, starts):
    """inner, recording the length of the prefix each call continues."""
    signature = inspect.signature(inner)

    def call(*args):
        prefix = signature.bind(*args).arguments.get("prefix")
        starts.append(0 if prefix is None else len(prefix))
        return inner(*args)
    return call


def test_p_table_grows_from_its_prefix(bank_guard, monkeypatch):
    # p to 100, then to 3000: the second build continues the stored 101
    # values, and both backends match a fresh build and the coin-counting DP.
    # Modulo m, the Newton inverse makes the first `block` terms and the
    # blocked division the rest; at 64 the stored 101 values are past the
    # Newton head, at 1024 the Newton inverse itself resumes from them
    want = partition_oracle(3000)
    inverted, divided = [], []
    monkeypatch.setattr(series, "_invert_exact", _spy_starts(series._invert_exact, inverted))
    monkeypatch.setattr(series, "_invert_mod", _spy_starts(series._invert_mod, inverted))
    monkeypatch.setattr(series, "_euler_quotient", _spy_starts(series._euler_quotient, divided))
    for block, modulus in ((64, 0), (64, 169), (1024, 169)):
        monkeypatch.setattr(series, "_EULER_BLOCK", block)
        bank_guard.clear()
        del inverted[:], divided[:]
        small = stream("p", 100, modulus)
        grown = stream("p", 3000, modulus)
        if modulus:
            assert inverted == [0] + ([101] if block > 101 else [])
            assert divided == [min(101, block), max(101, block)]
            assert grown.coeffs[:101].tolist() == small.coeffs.tolist()
        else:
            assert inverted == [0, 101] and divided == []
            # the same int objects: indices 0..100 were copied, not recomputed
            assert all(x is y for x, y in zip(grown.coeffs, small.coeffs))
        bank_guard.clear()
        fresh = stream("p", 3000, modulus)
        assert list(map(int, grown.coeffs)) == list(map(int, fresh.coeffs))
        assert [grown.coeff(k) for k in range(3001)] == [
            v % modulus if modulus else v for v in want
        ]


@parametrize('m', [2, 169, 360360, 2**31 - 1])
def test_newton_inverse_matches_coin_counting_from_every_prefix(monkeypatch, m):
    # 1/(q)_inf mod m by the middle-product Newton steps, from scratch at a
    # length whose last steps transform, then continued from every prefix of
    # p with the transform cutoff lowered so that nearly every step takes it
    want = [v % m for v in partition_oracle(1100)]
    a = euler_product(1100, m).coeffs
    assert series._invert_mod(a, m, 1).tolist() == want
    monkeypatch.setattr(series, "_FFT_CUTOFF", 8)
    want, a = want[:400], a[:400]
    for h in range(401):
        got = series._invert_mod(a, m, 1, want[:h] if h else None)
        assert got.tolist() == want, h


@parametrize('modulus', [0, 169])
def test_p_is_stored_once_on_a_miss(bank_guard, monkeypatch, modulus):
    # the bank keeps the table the inversion (exact) or the blocked division
    # (modular, here past its Newton head of 64 terms) returned, not a copy
    made = []

    def spy(inner):
        def call(*args):
            made.append(inner(*args))
            return made[-1]
        return call

    monkeypatch.setattr(series, "_EULER_BLOCK", 64)
    monkeypatch.setattr(series, "_invert_exact", spy(series._invert_exact))
    monkeypatch.setattr(series, "_euler_quotient", spy(series._euler_quotient))
    bank_guard.clear()
    got = stream("p", 200, modulus)
    assert len(made) == 1
    assert bank_guard[("p", modulus)] is got and got.coeffs is made[0]


# -- the blocked division by the Euler product ---------------------------------

MODULI = [2, 169, 360360, 2**31 - 1]


@parametrize('m', MODULI)
def test_modular_p_and_spt_match_the_oracles_across_blocks(bank_guard, monkeypatch, m):
    # blocks of 16 put many block edges under the oracles: spt first, so that
    # it seeds p from scratch, then p grown by division from its 16 terms.
    # The brute-force spt is guarded to n <= 45
    monkeypatch.setattr(series, "_EULER_BLOCK", 16)
    bank_guard.clear()
    assert stream("spt", 45, m).coeffs.tolist() == [spt_bruteforce(n) % m for n in range(46)]
    assert stream("p", 200, m).coeffs.tolist() == [v % m for v in partition_oracle(200)]


@fixture(scope="module")
def exact_p_spt():
    """The exact p and spt to 2B + 1 for the block length B, by the exact
    backend and outside the bank: the inverse's recurrence and one product."""
    n = 2 * series._EULER_BLOCK + 1
    p = euler_product(n).invert()
    return p.coeffs, _andrews_rhs(n).mul(p).coeffs


@parametrize('m', MODULI)
def test_modular_p_and_spt_match_the_exact_tables_at_block_edges(bank_guard, exact_p_spt, m):
    b = series._EULER_BLOCK
    for n in (b - 1, b, b + 1, 2 * b + 1):
        bank_guard.clear()
        for kind, exact in zip(("p", "spt"), exact_p_spt):
            got = stream(kind, n, m)
            assert got.valid_to == n
            assert got.coeffs.tolist() == [v % m for v in exact[: n + 1]], (kind, n)


def _quotient_oracle(f, m):
    """f/(q)_inf mod m by the pentagonal recurrence, one index at a time."""
    pents = [(k * (3 * k + s) // 2, (-1) ** k) for k in range(1, len(f) + 1) for s in (-1, 1)]
    x = []
    for i, fi in enumerate(f):
        x.append((fi - sum(e * x[i - g] for g, e in pents if g <= i)) % m)
    return x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODULI), st.integers(1, 40), st.data())
def test_euler_quotient_continues_from_every_prefix(m, block, data):
    # from scratch, and from every prefix of the quotient, the empty one
    # included, the blocked division gives the pointwise recurrence
    f = data.draw(st.lists(st.integers(0, m - 1), max_size=120))
    want = _quotient_oracle(f, m)
    p = np.array([v % m for v in partition_oracle(block)][:block], dtype=np.int64)
    with MonkeyPatch.context() as mp:
        mp.setattr(series, "_EULER_BLOCK", block)
        assert series._euler_quotient(np.array(f, dtype=np.int64), m, p).tolist() == want
        for h in range(len(f) + 1):
            got = series._euler_quotient(np.array(f, dtype=np.int64), m, p, want[:h])
            assert got.tolist() == want, h
