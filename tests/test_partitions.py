# standard library
from functools import lru_cache
# test framework
from pytest import raises, mark
# local package
from sptlab import ValidityError, series
from sptlab.partitions import (
    CoeffStream,
    EXACT_CAP,
    MODULAR_CAP,
    bank_tables,
    partition_stream,
    prewarm,
    seed,
    spt_bruteforce,
    spt_stream,
    stream,
)

parametrize = mark.parametrize


# -- reference oracles ---------------------------------------------------------

def partition_oracle(n):
    """p(0..n) by the textbook coin-counting recurrence."""
    ways = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            ways[i] += ways[i - k]
    return ways


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
    p = partition_stream(100)
    assert [p.at(i) for i in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert p.at(100) == 190569292


def test_partition_against_oracle():
    p = partition_stream(200)
    assert list(p.values) == partition_oracle(200)


def test_partition_modular_matches_exact():
    pm = partition_stream(300, modulus=360360)
    pe = partition_oracle(300)
    assert all(int(pm.at(i)) == pe[i] % 360360 for i in range(301))


@parametrize('n', range(0, 19))
def test_spt_bruteforce_against_enumeration(n):
    assert spt_bruteforce(n) == spt_oracle(n)


def test_spt_stream_against_bruteforce():
    s = spt_stream(35)
    assert [s.at(n) for n in range(36)] == [spt_bruteforce(n) for n in range(36)]


def test_spt_tail_oracle_against_bruteforce():
    assert list(spt_tail_oracle(35)) == [spt_bruteforce(n) for n in range(36)]


def test_spt_stream_against_tail_oracle_exact(bank_guard):
    assert spt_stream(600).values == list(spt_tail_oracle(600))


@parametrize('modulus', [360360, 343, 169])
def test_spt_stream_against_tail_oracle_modular(bank_guard, modulus):
    got = spt_stream(2000, modulus=modulus)
    assert [int(v) for v in got.values] == [v % modulus for v in spt_tail_oracle(2000)]


def test_spt_modular_master_matches_exact(bank_guard):
    # above the FFT cutoff: the p inversion and the final product mod 360360
    # against the exact product path
    exact = spt_stream(5000)
    got = spt_stream(5000, modulus=360360)
    assert [int(v) for v in got.values] == [v % 360360 for v in exact.values]


def test_spt_bruteforce_guard():
    with raises(ValueError):
        spt_bruteforce(46)
    with raises(ValueError):
        spt_bruteforce(-1)


def test_spt_modular_matches_exact():
    se = spt_stream(150)
    sm = spt_stream(150, modulus=5 * 7 * 13)
    assert all(sm.at(n) == se.at(n) % (5 * 7 * 13) for n in range(151))


@parametrize('t,r', [(5, 4), (7, 5), (13, 6)])
def test_spt_linear_congruences(t, r):
    # spt(t n + r) == 0 mod t for the three linear progressions
    s = spt_stream(13 * 12 + 6)
    assert all(s.at(t * k + r) % t == 0 for k in range(12))


def test_weighted_streams(bank_guard):
    n = 40
    d, a = stream("d", n), stream("a", n)
    p = partition_stream(n)
    s = spt_stream(n)
    assert d.frac24 == 23 and a.frac24 == 23
    for m in range(n + 1):
        assert d.at(m) == (24 * m - 1) * p.at(m)
        assert a.at(m) == 12 * s.at(m) + d.at(m)
    assert a.at(0) == -1
    assert a.at(1) == 12 + 23 * 1


# -- stream windows and caps -----------------------------------------------------

def test_stream_read_window():
    st = CoeffStream([4, 5, 6], "x", lo=2)
    assert st.at(1) == 0
    assert st.at(4) == 6
    assert st.hi == 4
    with raises(ValidityError):
        st.at(5)


def test_reduce_to_needs_divisor():
    st = CoeffStream([10, 11], "x", modulus=10)
    assert st.reduce_to(5).at(1) == 1
    assert st.reduce_to(10) is st
    with raises(ValueError):
        st.reduce_to(3)
    exact = CoeffStream([10, 11], "x")
    assert exact.reduce_to(7).at(0) == 3


def test_caps_guard_and_override():
    with raises(ValueError):
        partition_stream(EXACT_CAP + 1)
    with raises(ValueError):
        spt_stream(MODULAR_CAP + 1, modulus=5)
    assert partition_stream(EXACT_CAP + 1, cap=EXACT_CAP + 1).at(EXACT_CAP) > 0


# -- the shared bank --------------------------------------------------------------

def test_bank_reuses_and_reduces(bank_guard):
    exact = stream("p", 80)
    again = stream("p", 50)
    assert again is exact
    reduced = stream("p", 50, modulus=11)
    assert reduced.hi == exact.hi  # derived from the exact table, not rebuilt
    assert all(reduced.at(n) == exact.at(n) % 11 for n in range(51))
    sub = stream("p", 50, modulus=11)
    assert sub is reduced


def test_bank_divisor_modulus_reuse(bank_guard):
    master = stream("spt", 60, modulus=360360)
    small = stream("spt", 40, modulus=72)
    assert small.hi == master.hi
    assert all(small.at(n) == master.at(n) % 72 for n in range(41))


def test_bank_builds_d_and_a_together(bank_guard):
    bank_guard.clear()  # force the build path under the guard
    stream("a", 30, modulus=97)
    tabs = bank_tables()
    assert ("d", 97) in tabs
    assert ("a", 97) in tabs
    prewarm(25, 97)  # already warm; must not shrink anything
    assert bank_tables()[("a", 97)].hi >= 30


def test_d_build_reads_only_p(bank_guard):
    bank_guard.clear()
    d = stream("d", 30, modulus=97)
    assert d.hi == 30 and d.frac24 == 23
    tabs = bank_tables()
    assert ("p", 97) in tabs
    assert ("spt", 97) not in tabs


def test_p_table_grows_from_its_prefix(bank_guard, monkeypatch):
    # p to 100, then to 3000: the second build continues the stored 101
    # values, and both backends match a fresh build and the coin-counting DP
    want = partition_oracle(3000)
    starts = []

    def spy(inner):
        def call(a, *args):
            prefix = args[-1]
            starts.append(0 if prefix is None else len(prefix))
            return inner(a, *args)
        return call

    newton_lengths = []
    conv_mod = series._conv_mod

    def conv_spy(a, b, m, n_out):
        newton_lengths.append(n_out)
        return conv_mod(a, b, m, n_out)

    monkeypatch.setattr(series, "_invert_exact", spy(series._invert_exact))
    monkeypatch.setattr(series, "_invert_mod", spy(series._invert_mod))
    monkeypatch.setattr(series, "_conv_mod", conv_spy)
    for modulus in (0, 169):
        bank_guard.clear()
        del starts[:]
        small = stream("p", 100, modulus)
        del newton_lengths[:]
        grown = stream("p", 3000, modulus)
        assert starts == [0, 101]
        if modulus:
            # Newton's first step doubles the stored 101 terms
            assert min(newton_lengths) == 202
        else:
            # the same int objects: indices 0..100 were copied, not recomputed
            assert all(x is y for x, y in zip(grown.values, small.values))
        bank_guard.clear()
        fresh = stream("p", 3000, modulus)
        assert list(map(int, grown.values)) == list(map(int, fresh.values))
        assert [grown.at(k) for k in range(3001)] == [
            v % modulus if modulus else v for v in want
        ]


@parametrize('modulus', [0, 169])
def test_p_is_stored_once_on_a_miss(bank_guard, monkeypatch, modulus):
    # the bank keeps the table the inversion returned, not a copy of it
    made = []

    def spy(inner):
        def call(*args):
            made.append(inner(*args))
            return made[-1]
        return call

    monkeypatch.setattr(series, "_invert_exact", spy(series._invert_exact))
    monkeypatch.setattr(series, "_invert_mod", spy(series._invert_mod))
    bank_guard.clear()
    got = stream("p", 200, modulus)
    assert len(made) == 1
    assert bank_guard[("p", modulus)] is got and got.values is made[0]


def test_seed_keeps_longest(bank_guard):
    seeded = seed("spt", list(range(50)), modulus=999983)
    assert seeded.hi == 49
    shorter = seed("spt", list(range(10)), modulus=999983)
    assert shorter.hi == 49  # the longer table stays
    got = stream("spt", 30, modulus=999983)
    assert got.at(30) == 30
    assert got.frac24 == 0


def test_seed_frac_defaults(bank_guard):
    assert seed("a", [1, 2], modulus=999979).frac24 == 23
    assert seed("p", [1, 1], modulus=999979).frac24 == 0
