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


def store(cache_dir, kind, values, lo=0):
    """Write rows lo..lo+len(values)-1 atomically; returns the path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, kind.filename())
    params = "t=%d" % kind.t if kind.t else "-"
    lines = [
        MAGIC,
        "kind=%s params=%s nmax=%d mod=%d frac24=%d"
        % (kind.tag, params, kind.nmax, kind.modulus, kind.frac24),
        "rows=%d" % len(values),
    ]
    if isinstance(values, np.ndarray):
        values = values.tolist()  # Python ints format faster than numpy scalars
    lines.extend(map("%d %d".__mod__, enumerate(values, lo)))
    lines.append("end")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
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
        meta = dict(item.split("=", 1) for item in meta_line.split() if "=" in item)
        if meta.get("kind") != kind.tag or int(meta.get("mod", -1)) != kind.modulus:
            raise ValueError("metadata mismatch: %r" % meta)
        if int(meta.get("nmax", -1)) != kind.nmax:
            raise ValueError("nmax mismatch")
        rows = int(rows_line.split("=", 1)[1])
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
