# standard library
import json
import logging
import os
import subprocess
import sys
from pathlib import Path
# third party
import numpy as np
# test framework
from pytest import mark, param, raises
# local package
from sptlab import cache, partitions
from sptlab.cache import SeriesKind, load, scan, store
from sptlab.cli import main
from sptlab.forms import inverse_euler
from sptlab.reports import CongruenceReport
from sptlab import verifier
from sptlab.verifier import _seed_from_cache

parametrize = mark.parametrize

MASTER = verifier.MASTER_MODULUS
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_REPORT = ROOT / "perfbench" / "golden" / "check_all.json"


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
    kind = SeriesKind("G", 5, t=7, modulus=97)
    store(tmp_path, kind, [1, 93, 2, 8, 92, 93, 87], lo=-1)
    assert kind.filename() == "G_t7_n5_m97.qsc"
    values, lo = load(tmp_path, kind)
    assert lo == -1
    assert values.tolist() == [1, 93, 2, 8, 92, 93, 87]


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
    # blanks and signs that store never writes, though numpy reads them
    param(lambda text: text.replace("\n3 3\n", "\n3 +3\n"), id="plus-sign"),
    param(lambda text: text.replace("\n3 3\n", "\n3\t3\n"), id="tab"),
    param(lambda text: text.replace("\n3 3\n", "\n3  3\n"), id="two-spaces"),
    param(lambda text: text.replace("\n3 3\n", "\n 3 3\n"), id="leading-space"),
    param(lambda text: text.replace("\n3 3\n", "\n+3 3\n"), id="plus-on-index"),
    param(lambda text: text.replace("\n3 3\n", "\n3 3\r\n"), id="crlf-row"),
    param(lambda text: text.replace("\n", "\r\n"), id="crlf-file"),
    # header lines that int() and a whitespace split read, but store never writes
    param(lambda text: text.replace("rows=6", "rows= +6"), id="signed-row-count"),
    param(lambda text: text.replace("mod=360360", "mod=+360360"), id="signed-modulus"),
    param(lambda text: text.replace("nmax=5", "nmax=0005"), id="zero-padded-nmax"),
    param(lambda text: text.replace("kind=p ", "kind=p\tkind=p ", 1), id="tab-joined-kind"),
])
def test_corrupt_files_are_misses(tmp_path, caplog, breakage):
    kind = SeriesKind("p", 5, modulus=MASTER)
    path = store(tmp_path, kind, [1, 1, 2, 3, 5, 7])
    with open(path) as fh:
        text = fh.read()
    assert breakage(text) != text
    with open(path, "w") as fh:
        fh.write(breakage(text))
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert load(tmp_path, kind) is None
    assert "corrupt" in caplog.text


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


def test_scan_ignores_names_without_ascii_digits(tmp_path, capsys):
    # str.isdigit accepts '²', which int() refuses
    (tmp_path / "p_n\u00b2_m360360.qsc").write_text("")
    (tmp_path / "p_n\u0663_m360360.qsc").write_text("")  # Arabic-Indic three
    assert scan(tmp_path, "p", MASTER) is None
    assert main(["check", "e46d", "--cache-dir", str(tmp_path)]) == 0
    assert "3 checks: 3 pass" in capsys.readouterr().out


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


@mark.parametrize('kind', ["p", "j", "E4", "euler"])
def test_series_rejects_t_for_a_kind_that_does_not_read_it(capsys, kind):
    # only G, E2t and phi are built at a level; any other kind given --t is
    # a usage error, not a table printed with --t unread
    assert main(["series", kind, "--n", "3", "--t", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sptlab: kind %s takes no --t\n" % kind


@parametrize('argv', ["check spt-hecke --ell 5 --nmax 5 --cache-dir", "series p --n 5 --out"])
def test_unusable_directory_is_a_usage_error(tmp_path, capsys, bank_guard, argv):
    # a regular file where the cache or export directory should be; on an
    # empty bank the check builds the master table, then writes p
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    bank_guard.clear()
    assert main(argv.split() + [str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sptlab: ") and str(blocker) in err and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_series_out_roundtrip(tmp_path, capsys):
    assert main(["series", "j", "--n", "3", "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    assert path == str(tmp_path / "j_n3_m0.qsc")
    with open(path) as fh:
        assert fh.read() == (
            "QSCACHE v1\n"
            "kind=j params=- nmax=3 mod=0 frac24=0\n"
            "rows=5\n"
            "-1 1\n0 744\n1 196884\n2 21493760\n3 864299970\n"
            "end\n"
        )


def _golden_lines(out):
    got = json.loads(out)
    for line in got:
        del line["elapsed_ms"]
    return got


def test_check_all_cache_dir_writes_only_p(tmp_path, capsys, bank_guard):
    bank_guard.clear()
    assert main(["check", "all", "--format", "json", "--cache-dir", str(tmp_path)]) == 0
    with open(GOLDEN_REPORT) as fh:
        assert _golden_lines(capsys.readouterr().out) == json.load(fh)
    assert os.listdir(tmp_path) == ["p_n40000_m360360.qsc"]


def test_warm_check_all_reads_only_the_p_file(tmp_path, capsys, caplog, monkeypatch,
                                              bank_guard):
    # a cache dir as older versions left it: p, spt, d and a mod 360360, the
    # a table all zero; only p is read, and nothing is written
    bank_guard.clear()
    for kind, frac24 in (("p", 0), ("spt", 0), ("d", 23)):
        tab = partitions.stream(kind, 40000, MASTER)
        store(tmp_path, SeriesKind(kind, 40000, 0, MASTER, frac24), tab.coeffs)
    store(tmp_path, SeriesKind("a", 40000, 0, MASTER, 23), [0] * 40001)
    loaded, stored = [], []
    monkeypatch.setattr(cache, "load", lambda d, kind: loaded.append(kind.filename())
                        or load(d, kind))
    monkeypatch.setattr(cache, "store", lambda *args: stored.append(args))
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert main(["check", "all", "--format", "json", "--cache-dir", str(tmp_path)]) == 0
    with open(GOLDEN_REPORT) as fh:
        assert _golden_lines(capsys.readouterr().out) == json.load(fh)
    assert caplog.text == ""
    assert loaded == ["p_n40000_m360360.qsc"] and stored == []


def test_check_cache_dir_roundtrip(tmp_path, capsys, monkeypatch, bank_guard):
    # a run that builds the master table writes p; a second run seeds from
    # the file and writes nothing back; a check that builds no master table
    # neither reads nor writes the cache dir
    argv = ["check", "spt-hecke", "--ell", "5", "--nmax", "10", "--cache-dir", str(tmp_path)]
    bank_guard.clear()
    assert main(argv) == 0
    p = bank_guard[("p", MASTER)]
    path = tmp_path / "p_n40000_m360360.qsc"
    assert os.listdir(tmp_path) == [path.name]
    os.utime(path, ns=(0, 0))
    loaded = []
    monkeypatch.setattr(cache, "load", lambda d, kind: loaded.append(kind.filename())
                        or load(d, kind))
    bank_guard.clear()
    assert main(argv) == 0
    seeded = bank_guard[("p", MASTER)]
    assert loaded == [path.name]
    assert seeded.valid_to == 40000 and seeded.frac24 == 0
    assert seeded.coeffs.tolist() == p.coeffs.tolist()
    assert os.stat(path).st_mtime_ns == 0
    touched = []
    for name in ("scan", "load", "store"):
        monkeypatch.setattr(cache, name, lambda *args, name=name: touched.append(name))
    bank_guard.clear()
    assert main(["check", "e46d", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert touched == [] and ("p", MASTER) not in bank_guard


def test_seed_rejects_rows_not_starting_at_zero(tmp_path, caplog, bank_guard):
    store(tmp_path, SeriesKind("p", 10, modulus=MASTER), list(range(1, 11)), lo=1)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert _seed_from_cache(tmp_path) == -1
    assert "rows start at 1" in caplog.text
    assert ("p", MASTER) not in bank_guard
    assert partitions.stream("p", 10, MASTER).coeff(0) == 1


def test_cached_zero_tables_are_misses(tmp_path, caplog, bank_guard):
    # a well-formed p file whose values are all zero would make every table
    # built from it zero, and so satisfy every "== 0 mod m" sweep; it must
    # fail p (q)_inf = 1 and be rebuilt instead
    store(tmp_path, SeriesKind("p", 30, modulus=MASTER), [0] * 31)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert _seed_from_cache(tmp_path) == -1
    assert "p table breaks its defining identity at n = 0" in caplog.text
    assert ("p", MASTER) not in bank_guard
    exact = inverse_euler(30)
    got = partitions.stream("p", 30, MASTER)
    assert got.coeffs.tolist() == [v % MASTER for v in exact.coeffs.tolist()]


def test_cached_p_with_one_wrong_coefficient_is_rejected(tmp_path, caplog, bank_guard):
    good = [v % MASTER for v in inverse_euler(50).coeffs.tolist()]
    bad = list(good)
    bad[17] = (bad[17] + 1) % MASTER
    store(tmp_path, SeriesKind("p", 50, modulus=MASTER), bad)
    bank_guard.clear()
    with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
        assert _seed_from_cache(tmp_path) == -1
    assert "p table breaks its defining identity at n = 17" in caplog.text
    assert ("p", MASTER) not in bank_guard
    assert partitions.stream("p", 50, MASTER).coeffs.tolist() == good


def test_rejected_cache_file_is_rewritten(tmp_path, capsys, caplog, bank_guard):
    argv = ["check", "spt-hecke", "--ell", "5", "--nmax", "10", "--cache-dir", str(tmp_path)]
    bank_guard.clear()
    assert main(argv) == 0
    path = tmp_path / "p_n40000_m360360.qsc"
    good = path.read_text()
    # p(100) = 190569292
    bad = good.replace("\n100 %d\n" % (190569292 % MASTER),
                       "\n100 %d\n" % (190569292 % MASTER + 1))
    assert bad != good
    path.write_text(bad)
    for expect_miss in (True, False):
        bank_guard.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sptlab.cache"):
            assert main(argv) == 0
        missed = "breaks its defining identity at n = 100" in caplog.text
        assert missed == expect_miss, caplog.text
        assert path.read_text() == good
        assert os.listdir(tmp_path) == [path.name]
    capsys.readouterr()


@parametrize('value', [10**30, -(MASTER - 3)])
def test_cached_values_outside_the_residues_are_misses(tmp_path, caplog, bank_guard, value):
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
        assert _seed_from_cache(tmp_path) == -1
    assert "not a residue mod 360360" in caplog.text
    assert ("p", MASTER) not in bank_guard
    assert [partitions.stream("p", 3, MASTER).coeff(n) for n in range(4)] == [1, 1, 2, 3]


def test_traced_check_reads_values_of_the_traced_results(tmp_path):
    # the traced benchmark mode reads out.values off spt_stream and
    # hecke_combo results
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


def test_benchmark_selftest_passes():
    # the benchmark's own checks run the program, so a change under src/ can
    # break them
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
