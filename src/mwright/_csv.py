"""Exact CSV encoding of float64 arrays, byte for byte as "%.17g".

`encode_rows` turns a 2-D float64 array into CSV text: every value as
"%.17g" % v prints it, ',' between columns and '\n' after each row, so
the text parses back to the same bits. `write_rows` writes it to a file
block by block. Every CSV writer of the package goes through them. The
encoder runs in three vectorized stages instead of one dtoa call per
value.

1. Digits. With a = m 2^e (m in [0.5, 1)) the decimal exponent X of a is
   one of two values fixed by e; a comparison with the least double at or
   above the power of ten in [2^(e-1), 2^e) picks it. 10^(16 - X) is held
   in double-double, (hi + lo) 2^p with a mantissa of about 106 bits, and
   m (hi + lo) is formed with Dekker's exact two-product. Its error is
   below 2^-47 in n = round(a 10^(16 - X)), the 17 significant digits.
   Where the fraction lies within 2^-30 of 1/2 (exact ties such as 2^-25,
   and near ties) or n rounds up to 10^17, the digits come from
   "%.16e" % a instead, which rounds exactly and ties to even.
2. Layout. Each value gets a 32-byte row of four little-endian words:
   the sign, a "0.000" prefix for exponents -4..-1, the first digit and
   a slot for a point after it; the other 16 digits from a table of
   4-digit groups; a byte for the digit the point pushes out, the
   exponent field and the separator. Tables indexed by the exponent give
   the prefix, the point after the first digit and the exponent field
   (fixed notation for -4 <= X <= 16, else scientific). Where the point
   falls inside the 16 digits (1 <= X <= 15), the digits after it move
   up a byte. Trailing zeros after the point become pad bytes, and so
   does a point with nothing after it. Deleting the pad bytes leaves the
   text.
3. Special values. +-0, +-inf and nan print as 0, -0, inf, -inf and nan.
"""

from __future__ import annotations

import functools
import io
import math
from typing import NamedTuple

import numpy as np

_EMIN, _EMAX = -1073, 1024  # frexp exponents of the nonzero doubles
_KMIN, _KMAX = -323, 340  # powers 10^k the tables need
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_TIE = 2.0 ** -30  # fractions this close to 1/2 take the dtoa path
_BLOCK = 8192  # values per block: temporaries stay below 128 kB, which
# malloc recycles; larger blocks fault in fresh pages (1.6x slower)
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)
_BYTE, _WORD = np.uint64(8), np.uint64(56)  # shifts by a byte, a word less


class _Tables(NamedTuple):
    ten: np.ndarray  # per e: least double >= the power of ten in the binade
    # per row t = 2 (e - _EMIN) + (a >= ten[e]), that is per (e, X):
    x: np.ndarray  # the decimal exponent X
    hi: np.ndarray  # hi + lo = 10^(16 - X) 2^e, |lo| <= ulp(hi) / 2, so
    # m (hi + lo) = a 10^(16 - X)
    hi_hi: np.ndarray  # hi split into 26 and 27 bits (Dekker)
    hi_lo: np.ndarray
    lo: np.ndarray
    head: np.ndarray  # word 0: the "0.000" prefix, or the point at byte 7
    tail: np.ndarray  # word 3: the exponent field "e+XX" or "e+XXX"
    whole: np.ndarray  # index of the last digit before the point
    inner: np.ndarray  # whether the point falls inside words 1-2
    stay: np.ndarray  # 2 words: the digit bytes before that point
    dot: np.ndarray  # 2 words: that point
    # digit tables
    quads: np.ndarray  # "0000".."9999" as the low half of a word
    last: np.ndarray  # per 4-digit group: index of its last nonzero digit
    keep: np.ndarray  # per cut 0..16: 2 words keeping digits 1..cut


def _powers():
    """Per k in _KMIN.._KMAX: 10^k = (hi + lo) 2^p with hi in [1, 2) and
    |lo| <= ulp(hi) / 2, and the least double >= 10^k (inf past 1e308)."""
    hi, lo, p2, ceil = [], [], [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        p = num.bit_length() - den.bit_length()
        if (num << max(-p, 0)) < (den << max(p, 0)):
            p -= 1
        n, d = num << max(-p, 0), den << max(p, 0)  # n / d in [1, 2)
        h = n / d  # int true division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((n * b - a * d) / (d * b))
        p2.append(p)
        c = num / den if k <= 308 else math.inf
        if c < math.inf:
            a, b = c.as_integer_ratio()
            c = c if a * den >= num * b else math.nextafter(c, math.inf)
        ceil.append(c)
    return np.array(hi), np.array(lo), np.array(p2), np.array(ceil)


def _words(mask):
    """Rows of 8 k booleans as k little-endian words of 0xFF bytes."""
    return (mask * np.uint8(255)).view(np.uint64)


@functools.cache
def _tables() -> _Tables:
    """All lookup tables, built on first use."""
    hi, lo, p2, ceil = _powers()
    e = np.arange(_EMIN, _EMAX + 1)
    # floor(log10 2^(e-1)): (e - 1) log10(2) stays 4.5e-4 or more from
    # every integer but 0 in this range, so rounding cannot move it
    x0 = np.floor((e - 1) * math.log10(2.0)).astype(np.int64)
    up = x0 + 1 - _KMIN  # 10^(x0 + 1) is in the binade iff 2^e exceeds it
    ten = np.where(p2[up] + 1 == e, ceil[up], np.inf)
    x = np.stack([x0, x0 + 1], axis=1).ravel()
    k = 16 - x - _KMIN
    scale = np.ldexp(1.0, np.repeat(e, 2) + p2[k])  # exact powers of two
    hi, lo = hi[k] * scale, lo[k] * scale
    split = _SPLIT * hi
    split -= split - hi

    fixed = (x >= -4) & (x <= 16)
    head = np.zeros((x.size, 8), np.uint8)
    for z in range(1, 5):  # X = -z: "0." and z - 1 zeros
        head[x == -z, 1:2 + z] = np.frombuffer(b"0." + b"0" * (z - 1),
                                               np.uint8)
    head[~fixed | (x == 0), 7] = ord(".")  # after the first digit
    tail = np.zeros((x.size, 8), np.uint8)
    field = np.array([f"e{v:+03d}" for v in x.tolist()], "S5")  # NUL-padded
    tail[~fixed, 1:6] = field.view(np.uint8).reshape(-1, 5)[~fixed]
    whole = np.where(fixed, np.maximum(x, -1), 0)
    # digit j >= 1 at byte j - 1 of words 1-2; a point after digit X in
    # 1..15 goes to byte X and the digits after it one byte up
    inner = fixed & (x >= 1) & (x <= 15)
    byte = np.arange(16)
    stay = _words(byte < np.where(inner, x, 0)[:, None])
    dot = ((byte == np.where(inner, x, -1)[:, None])
           * np.uint8(ord("."))).view(np.uint64)

    digit = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (digit + ord("0")).astype(np.uint8).view(np.uint32)
    quads = quads.ravel().astype(np.uint64)
    last = np.full(10000, -99)  # far below any cut when the group is 0
    for i in range(4):
        last[digit[:, i] != 0] = i
    keep = _words(byte < np.arange(17)[:, None])
    return _Tables(ten, x, hi, split, hi - split, lo,
                   head.view(np.uint64).ravel(),
                   tail.view(np.uint64).ravel(), whole, inner, stay, dot,
                   quads, last, keep)


def _significands(a, tab):
    """17-digit integers n and table rows t (per (e, X)) of finite a > 0."""
    m, e = np.frexp(a)
    i = np.subtract(e, _EMIN, dtype=np.intp)  # intp indexes fastest
    t = 2 * i + (a >= tab.ten[i])
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    hh, hl = tab.hi_hi[t], tab.hi_lo[t]
    prod = m * tab.hi[t]  # at least 1e16 > 2^53, so an integer
    err = ((mh * hh - prod) + mh * hl + ml * hh) + ml * hl + m * tab.lo[t]
    near = np.rint(err)
    n = prod.astype(np.int64) + near.astype(np.int64)
    for j in np.flatnonzero((np.abs(err - near) > 0.5 - _TIE)
                            | (n == 10 ** 17)):
        s = "%.16e" % a[j]
        n[j] = int(s[0] + s[2:18])
        t[j] += int(s[19:]) - tab.x[t[j]]
    return n, t


def encode_rows(values: np.ndarray) -> bytes:
    """CSV bytes of a 2-D float64 array: "%.17g" per value, ',' between
    columns, '\\n' after each row."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    tab = _tables()
    v = values.ravel()
    a = np.abs(v)
    special = np.flatnonzero(~((a > 0.0) & (a < np.inf)))
    a[special] = 1.0
    n, t = _significands(a, tab)

    top = n // 10 ** 8
    bottom = n - top * 10 ** 8
    lead = top // 10 ** 8
    mid = top - lead * 10 ** 8
    groups = []
    for eight in (mid, bottom):
        four = eight // 10 ** 4
        groups += [four, eight - four * 10 ** 4]
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = tab.head[t]
    byte = out.view(np.uint8)
    byte[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    byte[:, 6] = lead + ord("0")
    for w in (1, 2):
        out[:, w] = tab.quads[groups[2 * w - 2]] \
            | tab.quads[groups[2 * w - 1]] << np.uint64(32)
    out[:, 3] = tab.tail[t]
    sep = out[:, 3].reshape(rows, cols)
    sep[:, :-1] |= _COMMA
    sep[:, -1] |= _NEWLINE

    # trailing zeros after the point become pads; only rows whose last
    # digit is 0 have any, and only those can lose the point
    inner = tab.inner[t]
    ends = np.flatnonzero(tab.last[groups[3]] < 3)
    if ends.size:
        last = np.maximum.reduce(
            [np.zeros(ends.size, np.int64)]
            + [4 * w + 1 + tab.last[g[ends]] for w, g in enumerate(groups)])
        whole = tab.whole[t[ends]]
        out[ends, 1:3] &= tab.keep[np.maximum(last, whole)]
        bare = ends[last <= whole]
        byte[bare, 7] = 0
        inner[bare] = False
    # the point inside the 16 digits: those after it move up a byte
    at = np.flatnonzero(inner)
    if at.size:
        stay, dot = tab.stay[t[at]], tab.dot[t[at]]
        word = out[at, 1:3]
        move = word & ~stay
        out[at, 1:3] = word & stay | move << _BYTE | dot
        out[at, 2] |= move[:, 0] >> _WORD
        out[at, 3] |= move[:, 1] >> _WORD
    for j in special:
        word = b"nan" if np.isnan(v[j]) else b"inf" if v[j] else b"0"
        out[j, 0] = word[0] << 48
        byte[j, 0] = ord("-") if word != b"nan" and np.signbit(v[j]) else 0
        out[j, 1] = int.from_bytes(word[1:], "little")
        out[j, 2] = 0
        out[j, 3] &= _NEWLINE | _COMMA  # the separator only
    return out.tobytes().translate(None, b"\0")


def write_rows(fh, values: np.ndarray) -> None:
    """Write `encode_rows` of a 2-D array to fh, max(1, _BLOCK // columns)
    rows at a time (256 rows of 32 columns); text files get ASCII text."""
    values = np.asarray(values, dtype=np.float64)
    rows = max(1, _BLOCK // values.shape[1])
    text = isinstance(fh, io.TextIOBase)
    for start in range(0, len(values), rows):
        chunk = encode_rows(values[start:start + rows])
        fh.write(chunk.decode("ascii") if text else chunk)
