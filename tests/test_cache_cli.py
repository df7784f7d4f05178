# standard library
import json
import logging
import os
import subprocess
import sys
# third party
import numpy as np
# test framework
from pytest import mark, param, raises
# local package
from sptlab import cache, partitions
from sptlab.cache import SeriesKind, load, scan, store
from sptlab.cli import _seed_from_cache, main
from sptlab.reports import CongruenceReport
from sptlab import verifier

parametrize = mark.parametrize

MASTER = verifier.MASTER_MODULUS


# -- the on-disk format -------------------------------------------------------

def test_store_load_roundtrip(tmp_path):
    kind = SeriesKind("spt", 9, modulus=360360, frac24=0)
    path = store(tmp_path, kind, list(range(10)))
    assert path.endswith("spt_n9_m360360.qsc")
    # a modular table comes back as the int64 array the bank holds
    values, lo = load(tmp_path, kind)
    assert values.dtype == np.int64 and values.tolist() == list(range(10))
    assert lo == 0


def test_store_writes_the_exact_bytes(tmp_path):
    # a modular table as the bank holds it (int64 array) and an exact one
    # with a negative start and an entry past int64
    path = store(tmp_path, SeriesKind("spt", 3, modulus=72),
                 np.array([0, 1, 3, 71], dtype=np.int64))
    with open(path, "rb") as fh:
        assert fh.read() == (
            b"QSCACHE v1\n"
            b"kind=spt params=- nmax=3 mod=72 frac24=0\n"
            b"rows=4\n"
            b"0 0\n1 1\n2 3\n3 71\n"
            b"end\n"
        )
    path = store(tmp_path, SeriesKind("G", 2, t=5), [1, -6, 9, 10**30], lo=-1)
    with open(path, "rb") as fh:
        assert fh.read() == (
            b"QSCACHE v1\n"
            b"kind=G params=t=5 nmax=2 mod=0 frac24=0\n"
            b"rows=4\n"
            b"-1 1\n0 -6\n1 9\n2 1000000000000000000000000000000\n"
            b"end\n"
        )


def test_store_load_negative_lo_and_t(tmp_path):
    kind = SeriesKind("G", 5, t=7)
    store(tmp_path, kind, [1, -4, 2, 8, -5, -4, -10], lo=-1)
    assert kind.filename() == "G_t7_n5_m0.qsc"
    values, lo = load(tmp_path, kind)
    assert lo == -1
    assert values == [1, -4, 2, 8, -5, -4, -10]


def test_load_missing_is_none(tmp_path):
    assert load(tmp_path, SeriesKind("p", 5)) is None


def test_load_kind_mismatch_is_miss(tmp_path, caplog):
    kind = SeriesKind("p", 5, modulus=7)
    store(tmp_path, kind, [1, 1, 2, 3, 5, 0])
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert load(tmp_path, SeriesKind("spt", 5, modulus=7)) is None
        wrong_mod = SeriesKind("p", 5, modulus=11)
        store(tmp_path, SeriesKind("p", 5, modulus=11), [0] * 6)
        # overwrite with the mod-7 contents so the metadata disagrees
        import shutil, os
        shutil.copy(os.path.join(tmp_path, kind.filename()),
                    os.path.join(tmp_path, wrong_mod.filename()))
        assert load(tmp_path, wrong_mod) is None
    assert "miss" in caplog.text


@parametrize('breakage', [
    lambda text: "BADMAGIC\n" + text.split("\n", 1)[1],
    lambda text: text.replace("end", "", 1),
    lambda text: text.replace("rows=6", "rows=9"),
    lambda text: text.replace("\n3 3\n", "\n7 3\n"),  # non-contiguous
    lambda text: text.replace("\n3 3\n", "\n3 x\n"),  # non-integer
    param(lambda text: text.replace("\n3 3\n", "\n3 3 3\n"), id="three-tokens"),
    param(lambda text: text.replace("\n3 3\n", "\n3\n"), id="one-token"),
    param(lambda text: text.replace("\n3 3\n", "\n3 3\n\n"), id="blank-line"),
    param(lambda text: text.replace("\nend", "\n6 11\nend"), id="extra-row"),
    param(lambda text: text + "6 11\n", id="text-after-end"),
    # the token counts hold; only the line structure is wrong
    param(lambda text: text.replace("\n3 3\n4 5\n", "\n3 3 4\n5\n"), id="row-across-lines"),
    # numpy's parser reads a lone sign at the end as 0, a residue
    param(lambda text: text.replace("\n5 7\n", "\n5 -\n"), id="lone-sign"),
    param(lambda text: text.replace("\n3 3\n", "\n3 3-\n"), id="trailing-sign"),
])
def test_corrupt_files_are_misses(tmp_path, caplog, breakage):
    # both backends: an exact file is read row by row, a modular one by
    # whole-array numpy operations
    for modulus in (0, MASTER):
        kind = SeriesKind("p", 5, modulus=modulus)
        path = store(tmp_path, kind, [1, 1, 2, 3, 5, 7])
        with open(path) as fh:
            text = fh.read()
        assert breakage(text) != text
        with open(path, "w") as fh:
            fh.write(breakage(text))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
            assert load(tmp_path, kind) is None, modulus
        assert "corrupt" in caplog.text, modulus


def test_rows_short_of_nmax_are_a_miss(tmp_path, caplog):
    kind = SeriesKind("spt", 5000, modulus=MASTER)
    store(tmp_path, kind, list(range(10)))
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert load(tmp_path, kind) is None
    assert "miss" in caplog.text and "nmax 5000" in caplog.text


def test_scan_picks_largest(tmp_path):
    for n in (5, 40, 12):
        store(tmp_path, SeriesKind("spt", n, modulus=72), [0] * (n + 1))
    store(tmp_path, SeriesKind("spt", 99, modulus=5), [0] * 100)
    store(tmp_path, SeriesKind("p", 200, modulus=72), [0] * 201)
    best = scan(tmp_path, "spt", 72)
    assert best == SeriesKind("spt", 40, 0, 72)
    assert scan(tmp_path, "a", 72) is None
    assert scan(tmp_path / "nowhere", "spt", 72) is None


def test_store_is_atomic_replace(tmp_path):
    import os
    kind = SeriesKind("p", 2)
    store(tmp_path, kind, [1, 1, 2])
    store(tmp_path, kind, [1, 1, 2])
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


# -- command-line surface -------------------------------------------------------

def test_check_exit_codes(capsys):
    assert main(["check", "classical", "--nmax", "50"]) == 0
    out = capsys.readouterr().out
    assert "PASS j-times-delta" in out
    assert "10 checks: 10 pass, 0 fail" in out
    assert main(["check", "no-such-thing"]) == 2
    assert "unknown check" in capsys.readouterr().err
    assert main(["check", "spt-hecke", "--mod", "1"]) == 2
    assert main(["check", "a-atkin", "--t", "5", "--ell", "5", "--nmax", "4"]) == 2


@parametrize('argv, message', [
    ("check spt-hecke --ell 5 --mod 25 --nmax 10",
     "modulus 25 is outside the theorem: it must divide 32760 and be coprime to ell = 5"),
    ("check a-atkin-beta --t 7 --ell 11 --nmax 15",
     "a-atkin-beta at t = 7, ell = 11 needs n >= 39, got 15"),
])
def test_check_out_of_range_arguments_are_usage_errors(capsys, argv, message):
    # a claim outside the theorem, or a window too short to decide it, is no FAIL
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == "sptlab: %s\n" % message
    assert captured.out == ""


def test_check_json_format(capsys):
    assert main(["check", "e46d", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    for row in payload:
        assert row["status"] == "pass"
        assert "statement" in row["params"]


@parametrize('nmax', ["-3", "0"])
def test_check_rejects_nmax_below_one(capsys, nmax):
    assert main(["check", "spt-hecke", "--ell", "5", "--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert "nmax must be at least 1, got %s" % nmax in captured.err
    assert "PASS" not in captured.out


@parametrize('flag', ["--prec", "--jobs"])
def test_check_removed_flags(capsys, flag):
    with raises(SystemExit) as exc:
        main(["check", "e46d", flag, "2"])
    assert exc.value.code == 2


def test_check_failure_exit_code(capsys, monkeypatch):
    broken = CongruenceReport(
        "broken", {"n": 1}, 0, "fail", first_failure=(1, 2, 3)
    )
    monkeypatch.setitem(verifier.REGISTRY, "broken", lambda opts: [lambda: [broken]])
    assert main(["check", "broken"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_series_stdout(capsys):
    assert main(["series", "p", "--n", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "0 1"
    assert [int(l.split()[1]) for l in lines] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_series_modular(capsys):
    assert main(["series", "spt", "--n", "6", "--mod", "5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [int(l.split()[1]) for l in lines] == [0, 1, 3, 0, 0, 4, 1]


def test_series_level_kind_needs_t(capsys):
    assert main(["series", "G", "--n", "4"]) == 2
    assert main(["series", "G", "--n", "4", "--t", "7"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("-1 1")


def test_series_out_roundtrip(tmp_path, capsys):
    assert main(["series", "j", "--n", "3", "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    assert path.startswith(str(tmp_path))
    values, lo = load(tmp_path, SeriesKind("j", 3))
    assert lo == -1
    assert values == [1, 744, 196884, 21493760, 864299970]


def test_check_cache_dir_roundtrip(tmp_path, capsys, bank_guard):
    # plant a small master-modulus table, run a cheap check to flush it to
    # disk, then clear the bank and confirm a second run seeds from the file
    spt = partitions.stream("spt", 60, MASTER)
    assert main(["check", "e46d", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    stored = scan(tmp_path, "spt", MASTER)
    assert stored is not None and stored.nmax >= 60
    bank_guard.clear()
    assert main(["check", "e46d", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    seeded = partitions.bank_tables()[("spt", MASTER)]
    assert seeded.valid_to == spt.valid_to
    assert seeded.frac24 == 0
    assert [seeded.coeff(i) for i in range(10)] == [spt.coeff(i) for i in range(10)]


def test_seed_rejects_rows_not_starting_at_zero(tmp_path, caplog, bank_guard):
    store(tmp_path, SeriesKind("p", 10, modulus=MASTER), list(range(1, 11)), lo=1)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        _seed_from_cache(tmp_path)
    assert "rows start at 1" in caplog.text
    assert ("p", MASTER) not in partitions.bank_tables()
    assert partitions.stream("p", 10, MASTER).coeff(0) == 1


def test_seeded_d_and_a_keep_their_grid(tmp_path, bank_guard):
    bank_guard.clear()
    for kind in ("d", "a"):
        tab = partitions.stream(kind, 20, MASTER)
        store(tmp_path, SeriesKind(kind, 20, modulus=MASTER), list(tab.coeffs))
    bank_guard.clear()
    _seed_from_cache(tmp_path)
    tabs = partitions.bank_tables()
    assert tabs[("d", MASTER)].frac24 == 23
    assert tabs[("a", MASTER)].frac24 == 23


def test_cached_zero_tables_are_misses(tmp_path, caplog, bank_guard):
    # well-formed files whose values are all zero satisfy every "== 0 mod m"
    # sweep; each must fail its defining identity and be rebuilt instead
    for kind in ("p", "spt", "d", "a"):
        store(tmp_path, SeriesKind(kind, 30, modulus=MASTER), [0] * 31)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        _seed_from_cache(tmp_path)
    rejected = [r for r in caplog.records if "defining identity" in r.getMessage()]
    assert len(rejected) == 4
    exact = {kind: partitions.stream(kind, 30) for kind in ("p", "spt", "d", "a")}
    for kind, tab in exact.items():
        got = partitions.stream(kind, 30, MASTER)
        assert [got.coeff(n) for n in range(31)] == [tab.coeff(n) % MASTER for n in range(31)]
        assert any(got.coeff(n) for n in range(31))


def test_cached_p_with_one_wrong_coefficient_is_rejected(tmp_path, caplog, bank_guard):
    good = [v % MASTER for v in partitions.partition_stream(50).coeffs]
    bad = list(good)
    bad[17] = (bad[17] + 1) % MASTER
    store(tmp_path, SeriesKind("p", 50, modulus=MASTER), bad)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        _seed_from_cache(tmp_path)
    assert "p table breaks its defining identity at n = 17" in caplog.text
    assert ("p", MASTER) not in partitions.bank_tables()
    assert list(partitions.stream("p", 50, MASTER).coeffs) == good


@parametrize('value', [10**30, -(MASTER - 3)])
def test_cached_values_outside_the_residues_are_misses(tmp_path, capsys, caplog, bank_guard, value):
    # p(3) = 3; 10^30 does not fit int64 and -360357 is 3 mod 360360, but
    # neither is a residue in [0, 360360), so both files are corrupt
    kind = SeriesKind("p", 3, modulus=MASTER)
    path = store(tmp_path, kind, [1, 1, 2, 3])
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("\n3 3\n", "\n3 %d\n" % value))
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert main(["check", "e46d", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert "not a residue mod 360360" in caplog.text
    assert ("p", MASTER) not in partitions.bank_tables()
    assert [partitions.stream("p", 3, MASTER).coeff(n) for n in range(4)] == [1, 1, 2, 3]


def test_traced_check_reads_values_of_the_traced_results(tmp_path):
    # the traced benchmark mode reads out.values off partition_stream,
    # spt_stream and hecke_combo results
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"), str(spans),
         "check", "a-atkin", "--t", "5", "--ell", "7", "--nmax", "10"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    assert counts["hecke.hecke_combo.terms"] == 11
    assert counts["partitions.spt_stream_mod.coeffs"] == 489
