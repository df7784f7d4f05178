"""Truncated Laurent q-expansions on the 1/24 exponent grid.

A Series holds coefficients for q^(n + s/24) where n runs over a window of
integers [lo, valid_to] and s is the signed representative of a fixed
fractional tag frac24 in [0, 24) (s = frac24 for frac24 <= 12, else
frac24 - 24).  Coefficients below lo are known to vanish; coefficients
above valid_to are unknown and reading them is a hard error.

The coefficients are one 1-D numpy array in either of two domains: exact
(modulus 0), an object array of Python ints, or residues modulo
2 <= M < 2^31, an int64 array with entries in [0, M), whose products the
int64 kernels sum.  Every operation is one array expression for both,
reduced mod M when there is a modulus; only the products choose a kernel
by domain.  A table of arithmetic-function values f(0..N), such as p(n) or
spt(n), is a Series too.
"""

from __future__ import annotations

import itertools

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


def coeff_dtype(modulus):
    """The array dtype of a domain: int64 residues mod a modulus, Python
    objects when exact (modulus 0)."""
    return np.int64 if modulus else object


def check_modulus(modulus):
    """Raise ValueError unless modulus names a domain (module docstring)."""
    if modulus == 1 or not 0 <= modulus < 1 << 31:
        raise ValueError("modulus must be 0 (exact) or 2 <= M < 2^31, got %d" % modulus)


def reduce(x, modulus):
    """x (a value or an array) reduced into the domain: x % modulus, or x
    itself when exact."""
    return x % modulus if modulus else x


class Series:
    __slots__ = ("frac24", "lo", "coeffs", "modulus")

    def __init__(self, coeffs, lo=0, frac24=0, modulus=0):
        if not 0 <= frac24 < 24:
            raise GridError("frac24 must lie in [0, 24)")
        check_modulus(modulus)
        self.frac24 = int(frac24)
        self.lo = int(lo)
        self.modulus = int(modulus)
        coeffs = np.asarray(coeffs, dtype=coeff_dtype(modulus))
        if not modulus and set(map(type, coeffs)) - {int}:
            # an exact entry is a Python int: a numpy integer would multiply
            # in int64, and a non-integer would be truncated by reduce_mod
            if not all(isinstance(c, (int, np.integer)) for c in coeffs):
                raise ValueError("an exact coefficient must be an integer")
            coeffs = np.array([int(c) for c in coeffs], dtype=object)
        self.coeffs = reduce(coeffs, modulus)

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
        return cls._wrap(np.zeros(n, dtype=coeff_dtype(modulus)), lo, frac24, modulus)

    @classmethod
    def one(cls, valid_to, modulus=0):
        s = cls.zero(valid_to, 0, modulus, 0)
        if valid_to >= 0:
            s.coeffs[0] = 1
        return s

    # -- basic accessors -----------------------------------------------------

    @property
    def valid_to(self):
        return self.lo + len(self.coeffs) - 1

    def exponent(self, n):
        """True exponent of index n, as a Fraction."""
        from fractions import Fraction

        return Fraction(24 * n + sgn24(self.frac24), 24)

    def coeff(self, n):
        if n > self.valid_to:
            raise ValidityError(
                "coefficient q^[%d] beyond validity (valid_to=%d)" % (n, self.valid_to)
            )
        if n < self.lo:
            return 0
        return self.coeffs.item(n - self.lo)

    def gather(self, idx):
        """The coefficients at an array of indices, read as coeff reads them:
        0 below lo, ValidityError past valid_to; an array of the Series'
        dtype."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and idx.max() > self.valid_to:
            raise ValidityError(
                "coefficient q^[%d] beyond validity (valid_to=%d)" % (idx.max(), self.valid_to)
            )
        pos = idx - self.lo
        keep = pos >= 0
        out = np.zeros(idx.shape, dtype=self.coeffs.dtype)
        out[keep] = self.coeffs[pos[keep]]
        return out

    @property
    def values(self):
        # read as out.values by perfbench/tracer.py; goes with the perfbench
        # update of ROADMAP item 1
        return self.coeffs

    def is_zero(self):
        return not np.count_nonzero(self.coeffs)

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

    def strip(self):
        """Drop leading zero coefficients, raising lo accordingly."""
        nz = np.flatnonzero(self.coeffs)
        i = int(nz[0]) if len(nz) else 0
        if i == 0:
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
        out = np.zeros(max(0, hi - lo + 1), dtype=self.coeffs.dtype)
        for k, (s, c) in enumerate(((self, c1), (other, c2))):
            # residues times residues stay below 2^62, so two sum in int64.
            # The first term is stored, not added to zeros, and a weight of
            # -1 subtracts in place: neither makes a temporary of big ints
            seg = s.coeffs[: max(0, hi - s.lo + 1)]
            part = out[s.lo - lo : s.lo - lo + len(seg)]
            if k == 0:
                part[:] = seg if c == 1 else seg * reduce(c, m)
            elif c == -1:
                part -= seg
            else:
                part += seg if c == 1 else seg * reduce(c, m)
        return Series._wrap(reduce(out, m), lo, self.frac24, m)

    def __add__(self, other):
        return self.lincomb(other, 1, 1)

    def __sub__(self, other):
        return self.lincomb(other, 1, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        m = self.modulus
        return Series._wrap(reduce(self.coeffs * reduce(c, m), m), self.lo, self.frac24, m)

    # -- multiplication --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.scale(other)
        return self.mul(other)

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
        else:
            # the exact kernels work on lists; a square stays one operand
            a = self.coeffs[:n_out].tolist()
            b = a if other.coeffs is self.coeffs else other.coeffs[:n_out].tolist()
            conv = np.array(_conv_exact(a, b, n_out), dtype=object)
        return Series._wrap(conv, lo, frac, m)

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

    def invert(self):
        """Laurent inverse; leading retained coefficient must be a unit."""
        a = self.strip()
        if len(a.coeffs) == 0:
            raise UnitError("cannot invert a series with no retained terms")
        frac = (-sgn24(a.frac24)) % 24
        lo = -a.lo - (sgn24(a.frac24) + sgn24(frac)) // 24
        m = a.modulus
        coeffs = a.coeffs.tolist()
        c0 = coeffs[0]
        if not m and c0 != 1 and c0 != -1:
            raise UnitError("exact inversion needs leading coefficient +-1, got %r" % (c0,))
        try:
            c0_inv = pow(c0, -1, m) if m else c0
        except ValueError:
            raise UnitError("leading coefficient %d is not a unit mod %d" % (c0, m))
        return Series._wrap(_invert(coeffs, c0_inv, m), lo, frac, m)

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
        out = np.zeros(t * (n - 1) + 1, dtype=self.coeffs.dtype)
        out[::t] = self.coeffs
        return Series._wrap(out, new_lo, frac, self.modulus)

    def qderiv(self):
        """Apply q d/dq; requires the integer grid (frac24 == 0)."""
        if self.frac24 != 0:
            raise GridError("qderiv needs frac24 == 0; dilate by 24 first")
        m = self.modulus
        idx = reduce(np.arange(self.lo, self.lo + len(self.coeffs), dtype=np.int64), m)
        return Series._wrap(reduce(self.coeffs * idx, m), self.lo, 0, m)

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
        out = self.coeffs[start : start + stride * (n - 1) + 1 : stride].copy()
        return Series._wrap(out, new_lo, frac, self.modulus)

    def reduce_mod(self, m):
        """Map into the mod-m domain; exact input, or a modulus m divides."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if self.modulus == m:
            return self
        if self.modulus % m:
            raise GridError("cannot reduce mod %d from mod %d" % (m, self.modulus))
        res = (self.coeffs % m).astype(np.int64, copy=False)
        return Series._wrap(res, self.lo, self.frac24, m)

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
        window = np.arange(lo, hi + 1)
        a, b = self.gather(window), other.gather(window)
        idx = np.flatnonzero(a != b)
        if len(idx) == 0:
            return None
        i = int(idx[0])
        return lo + i, a.item(i), b.item(i)


# -- low-level coefficient kernels -------------------------------------------

_SCHOOLBOOK_CUTOFF = 64 * 64

# The limb-sum bound k L 2^(2w) that _conv_fft proves exact (error below
# 0.07), at k = 3 limbs of w = 11 bits and L = 200001 terms.
_LIMB_BUDGET = 3 * 200001 << 22


def _conv_exact(a, b, n_out):
    """Exact truncated convolution of lists of Python ints (Series keeps
    its exact coefficients as such).

    The operands go to np.convolve on int64 when the shorter one has fewer
    than _FFT_CUTOFF terms and no partial sum can reach 2^63, else to
    schoolbook when tiny, else to _conv_columns; a product whose column
    guard trips takes schoolbook.
    """
    square = a is b
    a = a[:n_out]
    b = a if square else b[:n_out]
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
        out = _conv_columns(a, b, n_out, max_a, max_b)
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


def _conv_columns(a, b, n_out, max_a, max_b):
    """Exact a*b truncated to n_out (nonzero Python ints, max_a >= max|a|,
    max_b >= max|b|) from float64 FFTs of w-bit limb columns: a = sum_i A_i
    2^(w i), and the product's column C_s = sum_(i+j=s) A_i B_j
    (_limb_columns) is added at bit offset w s (_assemble).  The operand with
    fewer limbs is transformed once; the other's columns stream past it.  w
    is the widest whose bound min(ka, kb) L 2^(2w), for ka and kb limbs and L
    the longer operand, is within _LIMB_BUDGET.  Returns None, for the
    caller's schoolbook, when no width fits or the rounding guard trips.
    """
    bits_a, bits_b = max_a.bit_length() + 1, max_b.bit_length() + 1
    length = max(len(a), len(b))
    for w in range(20, 0, -1):  # the budget allows no more than 20 bits
        ka, kb = -(-bits_a // w), -(-bits_b // w)
        if min(ka, kb) * length << 2 * w <= _LIMB_BUDGET:
            break
    else:
        return None
    if kb < ka:
        a, b, ka, kb = b, a, kb, ka
    size = _fft_size(len(a) + len(b) - 1)
    n = min(n_out, len(a) + len(b) - 1)
    thin = np.array(list(_int_spectra(a, w, ka, size)))
    thick = thin if b is a else _int_spectra(b, w, kb, size)
    columns = _limb_columns(thin, thick, size, 0, n)
    # bytes enough for every coefficient of a*b in two's complement
    nb = (max_a * max_b * min(len(a), len(b))).bit_length() // 8 + 1
    return _assemble(columns, ka + kb - 1, w, nb, n, n_out)


def _int_spectra(coeffs, w, k, size):
    """Yield the rfft, at length size, of each of the k w-bit limb columns
    of a list of ints (w <= 24, 2^(w k) > 2 max|c|): c = sum_i limb_i 2^(w i)
    in two's complement, the last limb signed."""
    nb = (w * k + 7) // 8 + 3  # each limb reads a 4-byte window
    raw = b"".join(c.to_bytes(nb, "little", signed=True) for c in coeffs)
    for i in range(k):
        q, t = divmod(w * i, 8)
        win = np.ndarray(len(coeffs), "<i4", raw, q, (nb,))
        # the top limb is sign-extended by an arithmetic shift
        limb = win << (32 - t - w) >> (32 - w) if i == k - 1 else win >> t & (1 << w) - 1
        yield np.fft.rfft(limb, size)


def _limb_columns(fa, fb, size, lo, hi):
    """Yield coefficients lo..hi-1, rounded to int64, of the limb columns
    C_s = sum_(i+j=s) A_i B_j, s = 0, 1, ..., from the limb spectra of a (the
    k rows of fa) and of b (fb, read once) at cyclic length size.  Each b
    spectrum adds into a window of the k columns it reaches, and the lowest
    is inverted once complete.  Yields None and stops when a float lies 1/4
    or more from its rounding.

    The window adds one row at a time, so no temporary is as large as the
    window: that keeps 0.3 MB off the peak memory of an exact export such as
    `series e14_over_delta --n 2000`, at no cost in time.
    """
    k = len(fa)
    window = np.zeros_like(fa)
    for s, fbs in enumerate(itertools.chain(fb, [None] * (k - 1))):
        row = s % k
        if fbs is not None:
            # column s + i sits in row (s + i) mod k
            for i in range(k):
                window[(row + i) % k] += fa[i] * fbs
        x = np.fft.irfft(window[row], size)[lo:hi]
        window[row] = 0
        r = np.rint(x)
        x -= r
        if np.abs(x, out=x).max() >= 0.25:
            yield None
            return
        yield r.astype(np.int64)


def _assemble(columns, count, w, nb, n, n_out):
    """The n ints sum_s columns[s] 2^(w s), read as nb-byte two's complement
    and padded with zeros to n_out, from the count int64 columns yielded in
    order of s; None if a column is None.

    Byte j is final once the columns starting in it are added, so one int64
    accumulator carries the rest; it stays below 2^8 times the largest
    column.  Columns at or past 8 nb bits add multiples of 2^(8 nb) only and
    are not read.
    """
    out = np.empty((nb, n), dtype=np.uint8)
    acc = np.zeros(n, dtype=np.int64)
    s = 0
    for j in range(nb):
        while s < count and w * s < 8 * j + 8:
            col = next(columns)
            if col is None:
                return None
            acc += col << (w * s - 8 * j)
            s += 1
        out[j] = acc & 255
        acc >>= 8
    raw = out.T.tobytes()
    ints = [int.from_bytes(raw[i * nb : (i + 1) * nb], "little", signed=True) for i in range(n)]
    return ints + [0] * (n_out - n)


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
    return conv if len(conv) == n_out else np.pad(conv, (0, n_out - len(conv)))


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


def _limbs(m, length):
    """(k, w) for residues mod m in operands of at most length terms: the
    fewest limbs k, of w = ceil(bits(m - 1)/k) bits, whose limb-sum bound
    k length 2^(2w) is within _LIMB_BUDGET."""
    bits = (m - 1).bit_length()
    k = 1
    while k < bits and k * length << 2 * -(-bits // k) > _LIMB_BUDGET:
        k += 1
    return k, -(-bits // k)


def _residue_spectra(a, k, w, size):
    """The rfft, at length size, of the k w-bit limbs of an int64 residue
    array: row i for limb i."""
    return np.fft.rfft((a >> w * np.arange(k)[:, None]) & ((1 << w) - 1), size)


def _mod_columns(fa, fb, w, m, size, lo, hi):
    """Coefficients lo..hi-1 mod m of the cyclic length-size product whose
    w-bit limb spectra are fa and fb (as _limb_columns takes them), or None
    if the rounding guard trips."""
    out = np.zeros(hi - lo, dtype=np.int64)
    for s, c in enumerate(_limb_columns(fa, fb, size, lo, hi)):
        if c is None:
            return None
        out += c % m * pow(2, w * s, m) % m
    out %= m
    return out


def _conv_fft(a, b, m, n_out):
    """Exact a*b mod m truncated to n_out, from float64 FFTs of the w-bit
    limbs of a and b.

    A residue below m < 2^31 splits into k limbs of w = ceil(bits(m-1)/k)
    bits, and each limb column sum_(i+j=s) A_i B_j is rounded after one
    inverse transform.  For operands of at most L terms each such sum is
    below k L 2^(2w), exact in float64 and int64.  Percival's bound for a
    float64 FFT product of length up to 2^19, about 230 ulp of
    ||x|| ||y|| < L 2^(2w), puts the error below k L 2^(2w) 2^-45: 0.07 for
    k = 3 at w = 11 and L = 200001, which is _LIMB_BUDGET.  _limbs takes the
    fewest limbs whose bound stays within it: one for m = 169 up to
    L = 200001, two for m = 360360 past 9 terms, three for m near 2^31 at
    L = 200001.
    That bound is for radix-2 transforms and these are mixed radix 2/3, so a
    guard measures the error instead: if any float lies 1/4 or more from its
    rounding, the result is None and the caller uses np.convolve.
    """
    k, w = _limbs(m, max(len(a), len(b)))
    size = _fft_size(len(a) + len(b) - 1)
    fa = _residue_spectra(a, k, w, size)
    n = min(n_out, len(a) + len(b) - 1)
    return _mod_columns(fa, _residue_spectra(b, k, w, size), w, m, size, 0, n)


# Block length of _invert, which `check all` runs on 50 terms at most.  Medians
# at blocks of 32, 128 and 512 (2-core x86-64, numpy 2.4): 2.6, 1.0 and 1.0 ms
# for the kernel bench's exact 146-term reciprocal; 1.2, 0.44 and 0.42 ms for
# its G_5 mod 5^6 of 110 terms; 170, 118 and 119 ms for the tests' p(0..16385).
_INV_BLOCK = 128


def _invert(a, c0_inv, m):
    """Power-series inverse of a coefficient list a in the domain of modulus
    m, for c0_inv = 1/a[0] there (a[0] = +-1 when exact), as an array of that
    domain.

    The recurrence runs in blocks of _INV_BLOCK indices.  A term a[k] with
    k >= _INV_BLOCK reads only finished blocks, so its share of a block is one
    array add; only the terms below the block length are summed index by
    index.  Modulo m such a term other than +-1 is reduced before it is
    added, so a block's int64 sum stays below (number of terms) m.  The cost
    is n times the number of nonzero terms of a: the Euler product is
    divided by, not inverted (_euler_quotient), so every inverse in sptlab
    is short.
    """
    n = len(a)
    nz = [(k, a[k]) for k in range(1, n) if a[k]]
    near = [(k, ak) for k, ak in nz if k < _INV_BLOCK]
    far = nz[len(near) :]
    minus_one = reduce(-1, m)
    dtype = coeff_dtype(m)
    # Python ints, so that the index-by-index sums cannot overflow
    out = [c0_inv] + [0] * (n - 1)
    done = np.array(out, dtype=dtype)  # out[:b0] for the block adds
    for b0 in range(1, n, _INV_BLOCK):
        b1 = min(b0 + _INV_BLOCK, n)
        acc = np.zeros(b1 - b0, dtype=dtype)
        for k, ak in far:
            if k >= b1:
                break
            lo = max(b0, k)
            src = done[lo - k : b1 - k]
            if ak == 1:
                acc[lo - b0 :] += src
            elif ak == minus_one:
                acc[lo - b0 :] -= src
            else:
                acc[lo - b0 :] += reduce(ak * src, m)
        acc = acc.tolist()
        for i in range(b0, b1):
            s = acc[i - b0]
            for k, ak in near:
                if k > i:
                    break
                s += ak * out[i - k]
            out[i] = reduce(-c0_inv * s, m)
        done[b0:b1] = out[b0:b1]
    return done


# The longest block of _euler_quotient, and so the longest p(0..B-1) seed
# its callers pass.  Measured on a 2-core x86-64 host with numpy 2.4, p and
# spt mod 360360 from an empty bank (min of 9): 23.9 ms at 4096 and 22.2 ms
# at 8192 for 40,001 terms, 174 and 147 ms for 200,001 terms.
_EULER_BLOCK = 8192


def _euler_quotient(f, m, p, prefix=None):
    """f/(q)_inf through the length of f, an array of the domain of modulus m,
    written over f, which is returned.  p holds p(0..L-1) = 1/(q)_inf there,
    and the blocks are B = min(L, _EULER_BLOCK) indices long; a known leading
    part of the quotient (prefix, any length) is copied, not recomputed.  So
    p(0..L-1) with a prefix of L terms fills [L, 2L) of a table of 2L: p
    doubles itself from p(0) = 1 (forms._build_p).

    With (q)_inf = sum_g e_g q^g over the generalised pentagonal numbers g,
    x = f/(q)_inf has x[i] = f[i] - sum_(g>=1) e_g x[i-g].  Each block
    [b0, b1) first takes, for each g < b1, the terms x[i-g] with i - g < b0,
    which are finished: one slice add per g, and modulo m the int64 sum
    stays below (1 + #g) m.  What is left is the same recurrence inside the
    block, that sum divided by (q)_inf, so the block is p(0..b1-b0-1) times
    the sum, truncated to the block: exactly, one _conv_exact; modulo m,
    every block multiplies by the same p, so its limb spectra (as _conv_fft
    takes them) are computed once, and short blocks, or a block whose
    rounding guard trips, take _conv_mod.
    """
    n = len(f)
    start = 0 if prefix is None else min(len(prefix), n)
    if start:
        f[:start] = prefix[:start]
    pents = []  # (g, e_g) for g = k(3k -+ 1)/2 < n, k >= 1, in increasing order
    k = 1
    while k * (3 * k - 1) // 2 < n:
        pents += [(g, (-1) ** k) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g < n]
        k += 1
    block = min(len(p), _EULER_BLOCK)
    width = min(block, n - start)
    fp = None
    if m and width >= _FFT_CUTOFF:
        limbs, w = _limbs(m, width)
        size = _fft_size(2 * width - 1)
        fp = _residue_spectra(p[:width], limbs, w, size)
    for b0 in range(start, n, block):
        b1 = min(b0 + block, n)
        r = f[b0:b1]
        for g, e in pents:
            if g >= b1:
                break
            lo, hi = max(b0, g), min(b1, b0 + g)
            if e > 0:
                r[lo - b0 : hi - b0] -= f[lo - g : hi - g]
            else:
                r[lo - b0 : hi - b0] += f[lo - g : hi - g]
        if not m:
            f[b0:b1] = _conv_exact(p[: b1 - b0].tolist(), r.tolist(), b1 - b0)
            continue
        r %= m
        x = None
        if fp is not None:
            x = _mod_columns(fp, _residue_spectra(r, limbs, w, size), w, m, size, 0, b1 - b0)
        f[b0:b1] = _conv_mod(p[: b1 - b0], r, m, b1 - b0) if x is None else x
    return f
