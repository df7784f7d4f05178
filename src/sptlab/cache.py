"""On-disk coefficient cache (QSCACHE v1): plain text, one row per index,
atomic single-writer replacement, corrupt files treated as misses."""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("sptlab.cache")

MAGIC = "QSCACHE v1"


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
    """Read a cached stream; returns (values, lo) or None on miss/corruption."""
    path = os.path.join(cache_dir, kind.filename())
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != MAGIC:
                raise ValueError("bad magic %r" % header)
            meta = dict(
                item.split("=", 1) for item in fh.readline().split() if "=" in item
            )
            if meta.get("kind") != kind.tag or int(meta.get("mod", -1)) != kind.modulus:
                raise ValueError("metadata mismatch: %r" % meta)
            if int(meta.get("nmax", -1)) != kind.nmax:
                raise ValueError("nmax mismatch")
            rows = int(fh.readline().split("=", 1)[1])
            values = []
            lo = 0
            for i in range(rows):
                n_s, c_s = fh.readline().split()
                if i == 0:
                    lo = int(n_s)
                elif int(n_s) != lo + i:
                    raise ValueError("non-contiguous rows")
                v = int(c_s)
                if kind.modulus and not 0 <= v < kind.modulus:
                    raise ValueError("row %s value is not a residue mod %d" % (n_s, kind.modulus))
                values.append(v)
            if fh.readline().strip() != "end":
                raise ValueError("missing end marker")
        if lo + rows - 1 != kind.nmax:
            raise ValueError("rows end at %d, not at nmax %d" % (lo + rows - 1, kind.nmax))
        return values, lo
    except (ValueError, IndexError, OSError) as exc:
        log.warning("treating corrupt cache file %s as a miss: %s", path, exc)
        return None


def scan(cache_dir, tag, modulus, t=0):
    """Best stored SeriesKind for (tag, modulus, t) with the largest nmax."""
    if not os.path.isdir(cache_dir):
        return None
    best = None
    mid = "_t%d" % t if t else ""
    prefix = "%s%s_n" % (tag, mid)
    suffix = "_m%d.qsc" % modulus
    for name in os.listdir(cache_dir):
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        middle = name[len(prefix) : -len(suffix)]
        if not middle.isdigit():
            continue
        n = int(middle)
        if best is None or n > best.nmax:
            best = SeriesKind(tag, n, t, modulus)
    return best
