"""On-disk coefficient tables (QSCACHE v1): plain text, one row per index,
atomic single-writer replacement.

`store` writes any table, exact or modular: `series --out` exports and the
p mod 360360 that `check --cache-dir` keeps.  `load` reads modular files
only, the one kind a check reads back.  numpy's lenient text parser reads
only rows of the form `store` writes, and index and residue checks catch
its saturation past int64; a file that fails is logged and read as a miss."""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

MAGIC = "QSCACHE v1"


def warn(msg, *args):
    """Log on the sptlab.cache logger; logging loads only when a miss is logged."""
    import logging

    logging.getLogger("sptlab.cache").warning(msg, *args)


@dataclass(frozen=True)
class SeriesKind:
    """Identifies a canonical stream: generator tag plus parameters."""

    tag: str
    nmax: int
    t: int = 0
    modulus: int = 0
    frac24: int = 0

    def filename(self):
        mid = "_t%d" % self.t if self.t else ""
        return "%s%s_n%d_m%d.qsc" % (self.tag, mid, self.nmax, self.modulus)

    def metadata(self):
        """The file's second line, which load reads back whole."""
        params = "t=%d" % self.t if self.t else "-"
        return "kind=%s params=%s nmax=%d mod=%d frac24=%d" % (
            self.tag, params, self.nmax, self.modulus, self.frac24)


# rows formatted and written per chunk, so no text of the whole table is held
_STORE_CHUNK = 4096


def store(cache_dir, kind, values, lo=0):
    """Write rows lo..lo+len(values)-1 atomically; returns the path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, kind.filename())
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write("%s\n%s\nrows=%d\n" % (MAGIC, kind.metadata(), len(values)))
            for i in range(0, len(values), _STORE_CHUNK):
                chunk = values[i : i + _STORE_CHUNK]
                if isinstance(chunk, np.ndarray):
                    chunk = chunk.tolist()  # Python ints format faster than numpy scalars
                fh.write("".join(map("%d %d\n".__mod__, enumerate(chunk, lo + i))))
            fh.write("end\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# up to 1000 row lines as store writes them, or the end marker that closes the
# file; CPython's re keeps about 300 bytes of state a row until a match ends
# (13 MB for the cached p's 40,001 rows in one match), so load reads in blocks
_ROWS = re.compile(r"(?:-?[0-9]+ -?[0-9]+\n){1,1000}|end\n\Z")
# the rows= line as store writes it: %d of a count, with no sign or leading zero
_COUNT = re.compile(r"rows=(0|[1-9][0-9]*)")


def load(cache_dir, kind):
    """Read a modular table; returns (values, lo), values an int64 array of
    residues, or None on miss/corruption."""
    path = os.path.join(cache_dir, kind.filename())
    if not os.path.exists(path):
        return None
    try:
        with open(path, newline="") as fh:  # a '\r\n' row is not the form store writes
            text = fh.read()
        header, meta_line, rows_line, body = text.split("\n", 3)
        if header != MAGIC:
            raise ValueError("bad magic %r" % header)
        if meta_line != kind.metadata():
            raise ValueError("metadata %r, not %r" % (meta_line, kind.metadata()))
        count = _COUNT.fullmatch(rows_line)
        if not count:
            raise ValueError("bad row count line %r" % rows_line)
        rows = int(count[1])
        pos = 0
        while (block := _ROWS.match(body, pos)) and block[0] != "end\n":
            pos = block.end()
        if not block:
            raise ValueError("the rows are not lines of two integers closed by 'end'")
        table = np.fromstring(body[: -len("end\n")], dtype=np.int64, sep=" ").reshape(-1, 2)
        if len(table) != rows:
            raise ValueError("%d row lines, not rows=%d" % (len(table), rows))
        lo = int(table[0, 0]) if rows else 0
        if abs(lo) >= 1 << 62 or (table[:, 0] != lo + np.arange(rows)).any():
            raise ValueError("non-contiguous rows")
        values = table[:, 1].copy()
        bad = np.flatnonzero((values < 0) | (values >= kind.modulus))
        if len(bad):
            raise ValueError("row %d value is not a residue mod %d" % (lo + bad[0], kind.modulus))
        if lo + rows - 1 != kind.nmax:
            raise ValueError("rows end at %d, not at nmax %d" % (lo + rows - 1, kind.nmax))
        return values, lo
    except (ValueError, IndexError, OSError) as exc:
        warn("treating corrupt cache file %s as a miss: %s", path, exc)
        return None


def scan(cache_dir, tag, modulus):
    """Stored SeriesKind for (tag, modulus) with the largest nmax, or None."""
    if not os.path.isdir(cache_dir):
        return None
    best = None
    # [0-9], not str.isdigit, which also accepts digits such as '²' that int() refuses
    name_form = re.compile(r"%s_n([0-9]+)_m%d\.qsc" % (re.escape(tag), modulus))
    for name in os.listdir(cache_dir):
        found = name_form.fullmatch(name)
        if found and (best is None or int(found[1]) > best.nmax):
            best = SeriesKind(tag, int(found[1]), modulus=modulus)
    return best
