"""On-disk coefficient tables (QSCACHE v1): plain text, one row per index,
atomic single-writer replacement.

`store` writes any table, exact or modular: `series --out` exports and the
p mod 360360 that `check --cache-dir` keeps.  `load` reads modular files
only, the one kind a check reads back; a file that fails to parse is
logged and treated as a miss."""

from __future__ import annotations

import os
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
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load(cache_dir, kind):
    """Read a modular table; returns (values, lo), values an int64 array of
    residues, or None on miss/corruption."""
    path = os.path.join(cache_dir, kind.filename())
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            text = fh.read()
        header, meta_line, rows_line, rest = text.split("\n", 3)
        if header != MAGIC:
            raise ValueError("bad magic %r" % header)
        meta = dict(item.split("=", 1) for item in meta_line.split() if "=" in item)
        if meta.get("kind") != kind.tag or int(meta.get("mod", -1)) != kind.modulus:
            raise ValueError("metadata mismatch: %r" % meta)
        if int(meta.get("nmax", -1)) != kind.nmax:
            raise ValueError("nmax mismatch")
        rows = int(rows_line.split("=", 1)[1])
        body, end, tail = rest.rpartition("end")
        if not end:
            raise ValueError("missing end marker")
        if tail.strip():
            raise ValueError("text after the end marker")
        if body[-1:] not in ("", "\n"):
            raise ValueError("the last row line has no newline")
        values, lo = _residue_rows(body, rows, kind.modulus)
        if lo + rows - 1 != kind.nmax:
            raise ValueError("rows end at %d, not at nmax %d" % (lo + rows - 1, kind.nmax))
        return values, lo
    except (ValueError, IndexError, OSError) as exc:
        warn("treating corrupt cache file %s as a miss: %s", path, exc)
        return None


def _residue_rows(body, rows, modulus):
    """(values, lo) from the `rows` row lines of a modular file, values an
    int64 array, from whole-array numpy operations and one np.fromstring.

    numpy's text parser is lenient (it reads a lone '-' as 0) and on older
    versions reads up to a bad token with only a warning, so it is given
    only text whose structure is checked first: `rows` lines of two tokens,
    each a digit string with at most a leading sign.  Beyond int64 it
    saturates, which the index and residue range checks then reject.
    """
    raw = body.encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = b - ord("0") < 10  # uint8 wraps below '0'
    sign = (b == ord("-")) | (b == ord("+"))
    newline = b == ord("\n")
    if not (digit | sign | newline | (b == ord(" ")) | (b == ord("\t"))).all():
        raise ValueError("a row holds a byte other than a digit, sign or blank")
    tok = digit | sign
    if (sign[1:] & tok[:-1]).any() or (sign[:-1] & ~digit[1:]).any():
        raise ValueError("a sign that does not lead a number")
    ends = np.flatnonzero(newline)
    if len(ends) != rows:
        raise ValueError("%d row lines, not rows=%d" % (len(ends), rows))
    starts = np.flatnonzero(tok[1:] > tok[:-1]) + 1
    if len(b) and tok[0]:
        starts = np.concatenate(([0], starts))
    if len(starts) != 2 * rows:
        raise ValueError("%d numbers in %d row lines" % (len(starts), rows))
    # tokens 2r and 2r + 1 lie between newlines r - 1 and r
    pairs = starts.reshape(rows, 2)
    if (pairs[1:, 0] < ends[:-1]).any() or (pairs[:, 1] > ends).any():
        raise ValueError("a row line without exactly two numbers")
    table = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(rows, 2)
    lo = int(table[0, 0]) if rows else 0
    if abs(lo) >= 1 << 62 or (table[:, 0] != lo + np.arange(rows)).any():
        raise ValueError("non-contiguous rows")
    values = table[:, 1].copy()
    bad = np.flatnonzero((values < 0) | (values >= modulus))
    if len(bad):
        raise ValueError(
            "row %d value is not a residue mod %d" % (lo + bad[0], modulus)
        )
    return values, lo


def scan(cache_dir, tag, modulus):
    """Stored SeriesKind for (tag, modulus) with the largest nmax, or None."""
    if not os.path.isdir(cache_dir):
        return None
    best = None
    prefix = "%s_n" % tag
    suffix = "_m%d.qsc" % modulus
    for name in os.listdir(cache_dir):
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        middle = name[len(prefix) : -len(suffix)]
        # str.isdigit also accepts digits such as '²' that int() refuses
        if not (middle.isascii() and middle.isdigit()):
            continue
        n = int(middle)
        if best is None or n > best.nmax:
            best = SeriesKind(tag, n, modulus=modulus)
    return best
