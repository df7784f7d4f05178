"""Truncated Laurent q-expansions on the 1/24 exponent grid.

A Series holds coefficients for q^(n + s/24) where n runs over a window of
integers [lo, valid_to] and s is the signed representative of a fixed
fractional tag frac24 in [0, 24) (s = frac24 for frac24 <= 12, else
frac24 - 24).  Coefficients below lo are known to vanish; coefficients
above valid_to are unknown and reading them is a hard error.

Two coefficient domains are supported: exact (python ints, with Fractions
tolerated where linear algebra produces them) and residues modulo M >= 2
stored in numpy int64 arrays.  A CoeffStream is the same window read as a
table of arithmetic-function values f(lo..hi), such as p(n) or spt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class GridError(ValueError):
    """Fractional-exponent tags or moduli do not match."""


class ValidityError(ValueError):
    """A coefficient beyond the trusted truncation window was requested."""


class UnitError(ValueError):
    """Leading coefficient is not invertible in the coefficient domain."""


def sgn24(frac24):
    """Signed representative of a fractional tag: in (-12, 12]."""
    return frac24 if frac24 <= 12 else frac24 - 24


def split_e24(e24):
    """Decompose a total exponent in 24ths into (integer index, frac24)."""
    f = e24 % 24
    return (e24 - sgn24(f)) // 24, f


def _is_exact_value(c):
    return isinstance(c, (int, np.integer, Fraction))


class Series:
    __slots__ = ("frac24", "lo", "coeffs", "modulus")

    def __init__(self, coeffs, lo=0, frac24=0, modulus=0, copy=True):
        if not 0 <= frac24 < 24:
            raise GridError("frac24 must lie in [0, 24)")
        if modulus == 1 or modulus < 0:
            raise ValueError("modulus must be 0 (exact) or >= 2")
        if modulus >= 1 << 31:
            raise ValueError("modulus too large for the int64 backend")
        self.frac24 = int(frac24)
        self.lo = int(lo)
        self.modulus = int(modulus)
        if modulus:
            arr = np.asarray(coeffs, dtype=np.int64)
            arr = arr % modulus
            self.coeffs = arr
        else:
            if copy or not isinstance(coeffs, list):
                coeffs = [int(c) if isinstance(c, np.integer) else c for c in coeffs]
            self.coeffs = coeffs

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _wrap(cls, coeffs, lo, frac24, modulus):
        s = object.__new__(cls)
        s.frac24 = frac24
        s.lo = lo
        s.modulus = modulus
        s.coeffs = coeffs
        return s

    @classmethod
    def zero(cls, valid_to, frac24=0, modulus=0, lo=0):
        n = max(0, valid_to - lo + 1)
        if modulus:
            return cls._wrap(np.zeros(n, dtype=np.int64), lo, frac24, modulus)
        return cls._wrap([0] * n, lo, frac24, modulus)

    @classmethod
    def one(cls, valid_to, modulus=0):
        s = cls.zero(valid_to, 0, modulus, 0)
        if valid_to >= 0:
            s.coeffs[0] = 1 % modulus if modulus else 1
        return s

    # -- basic accessors -----------------------------------------------------

    @property
    def valid_to(self):
        return self.lo + len(self.coeffs) - 1

    def exponent(self, n):
        """True exponent of index n, as a Fraction."""
        return Fraction(24 * n + sgn24(self.frac24), 24)

    def coeff(self, n):
        if n > self.valid_to:
            raise ValidityError(
                "coefficient q^[%d] beyond validity (valid_to=%d)" % (n, self.valid_to)
            )
        if n < self.lo:
            return 0
        c = self.coeffs[n - self.lo]
        return int(c) if isinstance(c, np.integer) else c

    def coeff_range(self, lo, hi):
        """Coefficients for indices lo..hi inclusive as a plain list."""
        return [self.coeff(n) for n in range(lo, hi + 1)]

    def is_zero(self):
        if self.modulus:
            return not self.coeffs.any()
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        dom = "mod %d" % self.modulus if self.modulus else "exact"
        return "Series(frac24=%d, q^[%d..%d], %s)" % (
            self.frac24,
            self.lo,
            self.valid_to,
            dom,
        )

    # -- window handling -----------------------------------------------------

    def truncate(self, new_valid_to):
        """Shrink the validity window; never extends it."""
        if new_valid_to >= self.valid_to:
            return self
        n = max(0, new_valid_to - self.lo + 1)
        return Series._wrap(self.coeffs[:n], self.lo, self.frac24, self.modulus)

    def shift(self, d):
        """Multiply by q^d for integer d (index shift)."""
        return Series._wrap(self.coeffs, self.lo + d, self.frac24, self.modulus)

    def strip(self):
        """Drop leading zero coefficients, raising lo accordingly."""
        n = len(self.coeffs)
        if self.modulus:
            nz = np.nonzero(self.coeffs)[0]
            i = int(nz[0]) if len(nz) else n
        else:
            i = 0
            while i < n and self.coeffs[i] == 0:
                i += 1
        if i == 0 or i == n:
            return self
        return Series._wrap(self.coeffs[i:], self.lo + i, self.frac24, self.modulus)

    # -- linear combinations ---------------------------------------------

    def lincomb(self, other, c1=1, c2=1):
        """c1*self + c2*other; grids and moduli must agree."""
        if self.frac24 != other.frac24:
            raise GridError("frac24 mismatch in add")
        if self.modulus != other.modulus:
            raise GridError("modulus mismatch in add")
        lo = min(self.lo, other.lo)
        hi = min(self.valid_to, other.valid_to)
        m = self.modulus
        if m:
            out = np.zeros(max(0, hi - lo + 1), dtype=np.int64)
            for s, c in ((self, c1 % m), (other, c2 % m)):
                if len(s.coeffs) == 0 or hi < s.lo:
                    continue
                seg = s.coeffs[: hi - s.lo + 1]
                out[s.lo - lo : s.lo - lo + len(seg)] += (seg * c) % m
            return Series._wrap(out % m, lo, self.frac24, m)
        out = [0] * max(0, hi - lo + 1)
        for s, c in ((self, c1), (other, c2)):
            if hi < s.lo:
                continue
            for i in range(min(len(s.coeffs), hi - s.lo + 1)):
                v = s.coeffs[i]
                if v:
                    out[s.lo - lo + i] += c * v
        return Series._wrap(out, lo, self.frac24, 0)

    def __add__(self, other):
        return self.lincomb(other, 1, 1)

    def __sub__(self, other):
        return self.lincomb(other, 1, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if self.modulus:
            if isinstance(c, Fraction):
                raise ValueError("Fraction scalar on a modular series")
            return Series._wrap(
                (self.coeffs * (c % self.modulus)) % self.modulus,
                self.lo,
                self.frac24,
                self.modulus,
            )
        return Series._wrap([c * v for v in self.coeffs], self.lo, self.frac24, 0)

    # -- multiplication --------------------------------------------------

    def __mul__(self, other):
        if _is_exact_value(other):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if _is_exact_value(other):
            return self.scale(other)
        return NotImplemented

    def mul(self, other):
        if self.modulus != other.modulus:
            raise GridError("modulus mismatch in mul")
        e24 = sgn24(self.frac24) + sgn24(other.frac24)
        carry, frac = split_e24(e24)
        lo = self.lo + other.lo + carry
        hi = min(self.valid_to + other.lo, other.valid_to + self.lo) + carry
        n_out = max(0, hi - lo + 1)
        m = self.modulus
        if n_out == 0 or len(self.coeffs) == 0 or len(other.coeffs) == 0:
            return Series.zero(hi, frac, m, lo=lo)
        if m:
            conv = _conv_mod(self.coeffs, other.coeffs, m, n_out)
            return Series._wrap(conv, lo, frac, m)
        out = _conv_exact(self.coeffs, other.coeffs, n_out)
        return Series._wrap(out, lo, frac, 0)

    def __pow__(self, k):
        if k == 0:
            return Series.one(self.valid_to - self.lo, self.modulus)
        base = self.invert() if k < 0 else self
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    # -- inversion ---------------------------------------------------------

    def invert(self, prefix=None):
        """Laurent inverse; leading retained coefficient must be a unit.  A known
        leading part of the inverse (prefix) is continued, not recomputed."""
        a = self.strip()
        if len(a.coeffs) == 0:
            raise UnitError("cannot invert a series with no retained terms")
        frac = (-sgn24(a.frac24)) % 24
        lo = -a.lo - (sgn24(a.frac24) + sgn24(frac)) // 24
        m = a.modulus
        if m:
            c0 = int(a.coeffs[0])
            try:
                c0_inv = pow(c0, -1, m)
            except ValueError:
                raise UnitError("leading coefficient %d is not a unit mod %d" % (c0, m))
            inv = _invert_mod(a.coeffs, m, c0_inv, prefix)
            return Series._wrap(inv, lo, frac, m)
        c0 = a.coeffs[0]
        if isinstance(c0, Fraction) or any(isinstance(c, Fraction) for c in a.coeffs):
            c0_inv = Fraction(1, 1) / c0
        elif c0 == 1 or c0 == -1:
            c0_inv = c0
        else:
            raise UnitError("exact inversion needs leading coefficient +-1, got %r" % (c0,))
        inv = _invert_exact(a.coeffs, c0_inv, prefix)
        return Series._wrap(inv, lo, frac, 0)

    # -- reindexing operations ---------------------------------------------

    def dilate(self, t):
        """Substitute z -> t z, i.e. q -> q^t, preserving exactness of grid."""
        if t < 1:
            raise ValueError("dilation factor must be >= 1")
        if t == 1:
            return self
        s = sgn24(self.frac24)
        carry, frac = split_e24(t * s)
        new_lo = t * self.lo + carry
        n = len(self.coeffs)
        if n == 0:
            # highest known exponent in 24ths maps to t * (24*valid_to + s)
            hi, _ = split_e24(t * (24 * self.valid_to + s))
            return Series.zero(hi, frac, self.modulus, lo=new_lo)
        if self.modulus:
            out = np.zeros(t * (n - 1) + 1, dtype=np.int64)
            out[::t] = self.coeffs
        else:
            out = [0] * (t * (n - 1) + 1)
            out[::t] = self.coeffs
        return Series._wrap(out, new_lo, frac, self.modulus)

    def qderiv(self):
        """Apply q d/dq; requires the integer grid (frac24 == 0)."""
        if self.frac24 != 0:
            raise GridError("qderiv needs frac24 == 0; dilate by 24 first")
        m = self.modulus
        if m:
            idx = np.arange(self.lo, self.lo + len(self.coeffs), dtype=np.int64) % m
            return Series._wrap((self.coeffs * idx) % m, self.lo, 0, m)
        return Series._wrap(
            [(self.lo + i) * c for i, c in enumerate(self.coeffs)], self.lo, 0, 0
        )

    def sift(self, stride, offset=0):
        """Keep coefficients at indices stride*m + offset: new[m] = old[stride*m + offset].

        The exponent of the new index m is the old exponent divided by the
        stride, so 24*offset + sgn24(frac24) must be a multiple of the stride
        for the result to stay on the 1/24 grid."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        e24 = 24 * offset + sgn24(self.frac24)
        if e24 % stride:
            raise GridError(
                "sift by %d at offset %d leaves the 1/24 grid" % (stride, offset)
            )
        carry, frac = split_e24(e24 // stride)
        new_lo = -((-(self.lo - offset)) // stride) + carry  # ceil div
        new_hi = (self.valid_to - offset) // stride + carry  # floor div
        n = max(0, new_hi - new_lo + 1)
        if n == 0:
            return Series.zero(new_hi, frac, self.modulus, lo=new_lo)
        start = stride * (new_lo - carry) + offset - self.lo
        if self.modulus:
            out = self.coeffs[start : start + stride * (n - 1) + 1 : stride].copy()
        else:
            out = self.coeffs[start : start + stride * (n - 1) + 1 : stride]
        return Series._wrap(out, new_lo, frac, self.modulus)

    def reduce_mod(self, m):
        """Map into the mod-m domain; exact input, or a modulus m divides."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if self.modulus:
            if self.modulus % m:
                raise GridError(
                    "cannot reduce mod %d from mod %d" % (m, self.modulus)
                )
            return Series._wrap(self.coeffs % m, self.lo, self.frac24, m)
        if any(isinstance(c, Fraction) for c in self.coeffs):
            raise ValueError("cannot reduce a series with Fraction coefficients")
        arr = np.array([c % m for c in self.coeffs], dtype=np.int64)
        return Series._wrap(arr, self.lo, self.frac24, m)

    # -- comparisons ---------------------------------------------------------

    def first_difference(self, other, lo=None, hi=None):
        """First (n, self[n], other[n]) disagreement over the shared window, or None."""
        if self.frac24 != other.frac24:
            raise GridError("frac24 mismatch in comparison")
        if self.modulus != other.modulus:
            raise GridError("modulus mismatch in comparison")
        if lo is None:
            lo = min(self.lo, other.lo)
        if hi is None:
            hi = min(self.valid_to, other.valid_to)
        if hi > min(self.valid_to, other.valid_to):
            raise ValidityError("comparison window exceeds validity")
        a, b = self._window(lo, hi), other._window(lo, hi)
        if self.modulus:
            idx = np.flatnonzero(a != b)
            if len(idx) == 0:
                return None
            i = int(idx[0])
            return lo + i, int(a[i]), int(b[i])
        for n, x, y in zip(range(lo, hi + 1), a, b):
            if x != y:
                return n, x, y
        return None

    def _window(self, lo, hi):
        """Coefficients of indices lo..hi (hi <= valid_to), zero below self.lo."""
        pad = max(0, min(self.lo, hi + 1) - lo)
        seg = self.coeffs[max(0, lo - self.lo) : max(0, hi - self.lo + 1)]
        if self.modulus:
            return np.concatenate([np.zeros(pad, dtype=np.int64), seg])
        return [0] * pad + seg

    def agrees(self, other, lo=None, hi=None):
        return self.first_difference(other, lo, hi) is None


@dataclass(eq=False)
class CoeffStream:
    """Arithmetic-function values f(lo), ..., f(hi) with a fractional tag.

    Reads below lo return 0 (the function vanishes there); reads above hi
    raise, so truncation errors can never masquerade as zeros.
    """

    values: object
    kind: str
    frac24: int = 0
    modulus: int = 0
    lo: int = 0

    @property
    def hi(self):
        return self.lo + len(self.values) - 1

    def at(self, n):
        if n > self.hi:
            raise ValidityError("%s(%d) beyond computed range %d" % (self.kind, n, self.hi))
        if n < self.lo:
            return 0
        return int(self.values[n - self.lo])

    def to_series(self):
        return Series(self.values, self.lo, self.frac24, self.modulus)

    def reduce_to(self, m):
        """View this stream modulo m (m must divide the stored modulus)."""
        if self.modulus == m:
            return self
        if self.modulus % m:
            raise ValueError("cannot reduce mod %d from mod %d" % (m, self.modulus))
        vals = self.values if self.modulus else [int(v) % m for v in self.values]
        vals = np.asarray(vals, dtype=np.int64) % m
        return CoeffStream(vals, self.kind, self.frac24, m, self.lo)

    # the names Series uses, so one memo bank serves both types
    valid_to = hi
    reduce_mod = reduce_to


# -- low-level coefficient kernels -------------------------------------------

_SCHOOLBOOK_CUTOFF = 64 * 64

# Largest 2-D transform, rows x columns, that _conv_bytes takes; bigger
# products go multi-modular (_conv_crt), whose memory does not grow with the
# coefficient size.  Measured on a 2-core x86-64 host with numpy 2.4, peak
# RSS of the exact `series j --n 2000` and `series e14_over_delta --n 2000`
# exports (2002 x 2002-term products): 34.9 and 34.3 MB at 2^16, 35.0 and
# 36.3 MB at 2^17, 56.0 MB each with no cap.
_BYTES_POINTS = 1 << 16


def _conv_exact(a, b, n_out):
    """Exact truncated convolution of coefficient lists.

    Python-int operands go to np.convolve on int64 when the shorter one has
    fewer than _FFT_CUTOFF terms and no partial sum can reach 2^63, else to
    schoolbook when tiny, else to _conv_bytes or, past its point cap or when
    its rounding guard trips, to the multi-modular _conv_crt.  Fractions
    always take schoolbook.
    """
    square = a is b
    a = a[:n_out]
    b = a if square else b[:n_out]
    if all(type(c) is int for c in a) and (square or all(type(c) is int for c in b)):
        max_a = max(max(a), -min(a))
        max_b = max_a if square else max(max(b), -min(b))
        if max_a == 0 or max_b == 0:
            return [0] * n_out
        short = min(len(a), len(b))
        bound = max_a * max_b * short
        if short < _FFT_CUTOFF and bound < 1 << 63:
            va = np.array(a, dtype=np.int64)
            out = np.convolve(va, va if square else np.array(b, dtype=np.int64))
            out = out[:n_out].tolist()
            out.extend([0] * (n_out - len(out)))
            return out
        if len(a) * len(b) > _SCHOOLBOOK_CUTOFF:
            out = _conv_bytes(a, b, n_out, max_a, max_b)
            if out is None:
                out = _conv_crt(a, b, n_out, bound)
            if out is not None:
                return out
    return _conv_schoolbook(a, b, n_out)


def _conv_schoolbook(a, b, n_out):
    if len(a) > len(b):
        a, b = b, a
    out = [0] * n_out
    for i, ai in enumerate(a):
        if not ai or i >= n_out:
            continue
        jmax = min(len(b), n_out - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _byte_limbs(coeffs, nb):
    """The nb-byte two's complement digits of each int, as a (len, nb) float64
    matrix whose last column is read signed: c = sum_j limb_j 256^j."""
    raw = b"".join(c.to_bytes(nb, "little", signed=True) for c in coeffs)
    limbs = np.frombuffer(raw, dtype=np.uint8).reshape(len(coeffs), nb).astype(np.float64)
    limbs[:, -1] = np.frombuffer(raw, dtype=np.int8)[nb - 1 :: nb]
    return limbs


def _conv_bytes(a, b, n_out, max_a, max_b):
    """Exact a*b truncated to n_out (nonzero Python ints, max_a >= max|a|,
    max_b >= max|b|) from one 2-D float64 FFT of their byte limbs.

    Row i of a's limb matrix holds the la = bits(max_a)//8 + 1 bytes of a[i];
    the 2-D linear convolution of the two matrices, at R x C =
    _fft_size(len a + len b - 1) x _fft_size(la + lb - 1) so nothing wraps,
    gives the product's coefficient i as sum_j X[i, j] 256^j.  Each X[i, j]
    sums at most min(len a, len b) min(la, lb) <= (R + 1)(C + 1)/4 limb
    products of absolute value below 2^16, so under the cap R C <=
    _BYTES_POINTS = 2^16 every sum is below 2^31 and the float64 error (about
    2^-53 log2(R C) ||x|| ||y||, with ||x|| ||y|| < 2^32) is far below 1/4.
    Returns None past the cap, or, as _conv_fft's guard does, when a float
    lies 1/4 or more from its rounding.  The base-256 carry runs in int64
    over W = bits(max_a max_b min(len a, len b))//8 + 1 digit rows, enough
    bytes to hold every product coefficient signed.
    """
    la = max_a.bit_length() // 8 + 1
    lb = max_b.bit_length() // 8 + 1
    cols = la + lb - 1
    shape = (_fft_size(len(a) + len(b) - 1), _fft_size(cols))
    if shape[0] * shape[1] > _BYTES_POINTS:
        return None
    spec = np.fft.rfft2(_byte_limbs(a, la), shape)
    if b is a:
        spec *= spec
    else:
        spec *= np.fft.rfft2(_byte_limbs(b, lb), shape)
    n = min(n_out, len(a) + len(b) - 1)
    x = np.fft.irfft2(spec, shape)[:n, :cols]
    del spec
    r = np.rint(x)
    x -= r
    if np.abs(x, out=x).max() >= 0.25:
        return None
    del x
    w = (max_a * max_b * min(len(a), len(b))).bit_length() // 8 + 1
    k = min(w, cols)
    # digit rows at and above W only add multiples of 256^W: dropped
    digits = np.zeros((w, n), dtype=np.int64)
    digits[:k] = r[:, :k].T
    for d in range(w - 1):
        digits[d + 1] += digits[d] >> 8
        digits[d] &= 255
    raw = digits.astype(np.uint8).T.tobytes()
    out = [int.from_bytes(raw[i * w : (i + 1) * w], "little", signed=True) for i in range(n)]
    out.extend([0] * (n_out - n))
    return out


_PRIMES = None


def _crt_primes():
    """The primes in [2^31 - 2^17, 2^31), largest first (6121 of them, enough
    for a modulus of about 190 000 bits); sieved on first use."""
    global _PRIMES
    if _PRIMES is None:
        lo, hi = (1 << 31) - (1 << 17), 1 << 31
        root = math.isqrt(hi) + 1
        small = np.ones(root, dtype=bool)
        small[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if small[p]:
                small[p * p :: p] = False
        seg = np.ones(hi - lo, dtype=bool)
        for p in np.flatnonzero(small).tolist():
            seg[(-lo) % p :: p] = False
        _PRIMES = (lo + np.flatnonzero(seg)[::-1]).astype(np.int64)
    return _PRIMES


def _conv_crt(a, b, n_out, bound):
    """Exact a*b truncated to n_out, from its residues modulo primes below 2^31.

    bound must be at least every |coefficient| of the product.  The fewest
    primes whose product M exceeds 4 bound are used; each residue product is
    one limb-split FFT (_conv_fft), and _crt_lift recovers the integers.
    Returns None, so the caller can fall back, when the prime table is too
    short or an FFT's rounding guard trips.
    """
    primes = []
    m = 1
    for p in _crt_primes().tolist():
        if m > 4 * bound:
            break
        primes.append(p)
        m *= p
    if m <= 4 * bound:
        return None
    n = min(n_out, len(a) + len(b) - 1)
    ra = _residues(a, primes)
    rb = ra if b is a else _residues(b, primes)
    res = np.empty((len(primes), n), dtype=np.int64)
    for i, p in enumerate(primes):
        x = ra[i]
        conv = _conv_fft(x, x if rb is ra else rb[i], p, n)
        if conv is None:
            return None
        res[i] = conv
    del ra, rb
    out = _crt_lift(res, primes, m)
    out.extend([0] * (n_out - n))
    return out


def _residues(coeffs, primes):
    """coeffs mod each prime, as a (len(primes), len(coeffs)) int64 array.

    |c| is cut into L 16-bit limbs and multiplied by the matrix of 2^(16 l)
    mod p; each sum is below L 2^47, exact in int64 for L < 2^16 (a million
    bits, far beyond the prime table).
    """
    nl = (max(abs(c) for c in coeffs).bit_length() + 15) // 16
    raw = b"".join(abs(c).to_bytes(2 * nl, "little") for c in coeffs)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(coeffs), nl).astype(np.int64)
    del raw
    ps = np.array(primes, dtype=np.int64)
    pw = np.empty((nl, len(primes)), dtype=np.int64)
    pw[0] = 1
    for i in range(1, nl):
        pw[i] = (pw[i - 1] << 16) % ps
    res = limbs @ pw
    del limbs
    res %= ps
    neg = np.array([c < 0 for c in coeffs])
    res[neg] = (ps - res[neg]) % ps
    return res.T


def _crt_lift(res, primes, m):
    """The integers x with |x| < m/4 and x = res[i] mod primes[i] (m their
    product); res is overwritten.

    This is the explicit CRT: with u_i = res_i (m/p_i)^-1 mod p_i, the sum
    S = sum u_i m/p_i is x plus a multiple t m, and t is the nearest integer
    to sum u_i/p_i, which float64 finds because x/m lies within 1/4 of it.
    The base-256 digits of S come from a float64 matrix product of the u_i
    with the bytes of the m/p_i, exact since every entry is below
    k 2^39 < 2^53 for the k <= 6121 primes, and one carry pass; S < k m
    fits in two bytes more than m.
    """
    k, n = res.shape
    ps = np.array(primes, dtype=np.int64)[:, None]
    cof = [m // p for p in primes]
    inv = np.array([pow(c % p, -1, p) for c, p in zip(cof, primes)], dtype=np.int64)
    res *= inv[:, None]
    res %= ps
    nb = (m.bit_length() + 7) // 8
    cb = np.frombuffer(b"".join(c.to_bytes(nb, "little") for c in cof), dtype=np.uint8)
    cb = cb.reshape(k, nb).T.astype(np.float64)
    w = nb + 2
    # blocks of coefficients keep the digit matrix near 256 KiB
    step = max(64, (1 << 15) // w)
    out = []
    for lo in range(0, n, step):
        u = res[:, lo : lo + step].astype(np.float64)
        t = np.rint((u / ps).sum(axis=0)).astype(np.int64).tolist()
        digits = np.zeros((w, u.shape[1]), dtype=np.int64)
        digits[:nb] = cb @ u
        del u
        for d in range(w - 1):
            digits[d + 1] += digits[d] >> 8
            digits[d] &= 255
        raw = digits.astype(np.uint8).T.tobytes()
        out.extend(
            int.from_bytes(raw[i * w : (i + 1) * w], "little") - ti * m
            for i, ti in enumerate(t)
        )
    return out


def _check_conv_bound(m, n):
    if (m - 1) * (m - 1) * n >= 2**63:
        raise ValueError(
            "modulus %d too large for int64 convolution at length %d" % (m, n)
        )


# Below this length of the shorter operand np.convolve beats the FFT path:
# on a 2-core x86-64 host with numpy 2.4 the two cross between 200 (longer
# operand 5000) and 350 (equal lengths), at about 0.3 ms a product.
_FFT_CUTOFF = 256


def _conv_mod(a, b, m, n_out):
    """a*b mod m truncated to n_out coefficients; entries lie in [0, m)."""
    a, b = a[:n_out], b[:n_out]
    short = min(len(a), len(b))
    conv = None
    # the FFT also takes short operands whose int64 np.convolve could overflow
    if short >= _FFT_CUTOFF or (m - 1) * (m - 1) * short >= 2**63:
        conv = _conv_fft(a, b, m, n_out)
    if conv is None:
        _check_conv_bound(m, short)
        conv = np.convolve(a, b)[:n_out] % m
    if len(conv) < n_out:
        conv = np.concatenate([conv, np.zeros(n_out - len(conv), dtype=np.int64)])
    return conv


def _fft_size(n):
    """Smallest 2^i 3^j >= n: a fast pocketfft length that pads far less
    than the next power of two."""
    best = 1 << (n - 1).bit_length()
    p3 = 3
    while p3 < best:
        p = p3
        while p < n:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best


def _conv_fft(a, b, m, n_out):
    """Exact a*b mod m from float64 FFTs of the w-bit limbs of a and b.

    A residue below m < 2^31 splits into k limbs of w = ceil(bits(m-1)/k)
    bits: k = 2 (w <= 10) for m < 2^20, else k = 3 (w <= 11).  The limb
    products with i + j = s are summed as spectra and rounded after one
    inverse transform.  For operands of at most L terms each such sum is
    below k L 2^(2w), exact in float64 and int64.  Percival's bound for a
    float64 FFT product of length up to 2^19, about 230 ulp of
    ||x|| ||y|| < L 2^(2w), puts the error below k L 2^(2w) 2^-45: 0.07 at
    L = MODULAR_CAP + 1 for k = 3, and 0.012 for k = 2.  That bound is for
    radix-2 transforms and these are mixed radix 2/3, so a guard measures
    the error instead: if any float lies 1/4 or more from its rounding,
    the result is None and the caller uses np.convolve.
    """
    k = 2 if m < 1 << 20 else 3
    w = -(-(m - 1).bit_length() // k)
    mask = (1 << w) - 1
    size = _fft_size(len(a) + len(b) - 1)
    n = min(n_out, len(a) + len(b) - 1)
    fa = [np.fft.rfft((a >> (w * i)) & mask, size) for i in range(k)]
    fb = fa if b is a else [np.fft.rfft((b >> (w * i)) & mask, size) for i in range(k)]
    out = np.zeros(n, dtype=np.int64)
    for s in range(2 * k - 1):
        lo, hi = max(0, s - k + 1), min(s, k - 1)
        spec = fa[lo] * fb[s - lo]
        for i in range(lo + 1, hi + 1):
            spec += fa[i] * fb[s - i]
        if lo + k - 1 == s:
            # the last limb-sum to read fa[lo] and fb[lo]
            fa[lo] = fb[lo] = None
        x = np.fft.irfft(spec, size)[:n]
        del spec
        r = np.rint(x)
        x -= r
        if np.abs(x, out=x).max() >= 0.25:
            return None
        del x
        c = r.astype(np.int64)
        del r
        c %= m
        c *= pow(2, w * s, m)
        c %= m
        out += c
    out %= m
    return out


# Block length of _invert_exact.  Measured on a 2-core x86-64 host with
# numpy 2.4, p(0..8444) = 1/(q)_inf (median of 5): 0.20 s unblocked; 0.11 s
# at 48, 0.095 s at 96, 0.09 s at 128, 0.095 s at 192 and 256.
_INV_BLOCK = 128


def _invert_exact(a, c0_inv, prefix=None):
    """Power-series inverse of an exact coefficient list (a[0] a unit); out[i]
    reads only out[:i], so a known prefix is kept and the recurrence resumes.

    The recurrence runs in blocks of _INV_BLOCK indices.  A term a[k] with
    k >= _INV_BLOCK reads only finished blocks, so its share of a block is one
    object-array add; only the terms below the block length are summed
    index by index.
    """
    n = len(a)
    nz = [(k, a[k]) for k in range(1, n) if a[k]]
    near = [(k, ak) for k, ak in nz if k < _INV_BLOCK]
    far = nz[len(near) :]
    out = list(prefix[:n]) if prefix is not None and len(prefix) else [c0_inv]
    start = len(out)
    out.extend([0] * (n - start))
    done = np.array(out, dtype=object)  # out[:b0] for the block adds
    neg = c0_inv == -1
    frac = isinstance(c0_inv, Fraction)
    for b0 in range(start, n, _INV_BLOCK):
        b1 = min(b0 + _INV_BLOCK, n)
        acc = np.zeros(b1 - b0, dtype=object)
        for k, ak in far:
            if k >= b1:
                break
            lo = max(b0, k)
            src = done[lo - k : b1 - k]
            if ak == 1:
                acc[lo - b0 :] += src
            elif ak == -1:
                acc[lo - b0 :] -= src
            else:
                acc[lo - b0 :] += ak * src
        acc = acc.tolist()
        for i in range(b0, b1):
            s = acc[i - b0]
            for k, ak in near:
                if k > i:
                    break
                s += ak * out[i - k]
            if frac:
                out[i] = -s * c0_inv
            else:
                out[i] = s if neg else -s
        done[b0:b1] = out[b0:b1]
    return out


def _invert_mod(a, m, c0_inv, prefix=None):
    """Newton iteration x <- x(2 - ax) mod (m, q^n), from a known prefix of
    the inverse if given (each step doubles the correct length)."""
    n = len(a)
    known = prefix is not None and len(prefix)
    x = np.array(prefix[:n] if known else [c0_inv], dtype=np.int64)
    prec = len(x)
    while prec < n:
        prec = min(2 * prec, n)
        t = (-_conv_mod(a, x, m, prec)) % m
        t[0] = (t[0] + 2) % m
        x = _conv_mod(x, t, m, prec)
    return x
