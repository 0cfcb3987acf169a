"""The rows of samples.csv, formatted from raw (re, im) float64 pairs.

`rows` gives the bytes csv.writer gives: each float in its shortest
round-trip `repr`, "re,im" and a CRLF per row.  It computes those digits
with numpy for a whole block at once (the shortest-digit search of Ryu,
Adams, PLDI 2018, done in exact integer arithmetic):

* A float takes the fast path when it is normal, not a power of two and
  1e-4 <= |x| < 1e4; `repr` writes it in fixed notation with at most four
  integer and twenty fraction digits.  Every other float (0, -0,
  subnormals, powers of two, inf, nan, large or tiny magnitudes) is
  formatted by `repr` itself.
* Write |x| = m 2^e and scale by 10^q, q = 16 - floor(log10 |x|), so that
  |x| 10^q = N / 2^s with N = m 5^q and s = -(q + e) lies in
  [10^16, 10^17).  The floats that round to x fill the interval
  (2N -+ 5^q) / 2^(s+1), whose ends are never integers because 5^q is odd.
* The shortest digits are the multiple of 10^k nearest |x| 10^q (ties to
  even) for the largest k whose multiples meet that interval; |x| then has
  q - k fraction digits.
* Each field is laid out in fixed slots: an 8-byte "[-]int." word and five
  4-digit fraction words, with zero bytes for blanks (leading zeros of the
  integer part, trailing zeros of the fraction), which one
  `bytes.translate` per block removes.
"""

import functools

import numpy as np

from .quadrature import BLOCK

_U64 = np.uint64
_MANTISSA = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_LOW32 = _U64((1 << 32) - 1)
# floor(log10 |x|) = searchsorted(_DECADES, |x|, "right") - 5.  The double
# nearest 10^j (j < 0) lies above 10^j, so |x| >= 1e-3 holds exactly when
# |x| >= 10^-3.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4])
_POW5 = np.array([5 ** j for j in range(21)], dtype=_U64)
_POW10 = np.array([10 ** j for j in range(19)], dtype=np.int64)


@functools.cache
def _tables():
    """(words, intpart), built on the first `rows` call: importing the
    package builds no table."""
    w = np.arange(10_000)
    d = ((w[:, None] // np.array([1000, 100, 10, 1])) % 10 + ord("0")).astype(np.uint8)
    # words[n, w]: the first n of the four digits of w, then blanks; "0"
    # for n = 1, w = 0 is an integer's fraction
    words = np.where(np.arange(4) < np.arange(5)[:, None, None], d, np.uint8(0))
    # "[-]int." in 8 bytes: blank, blank, the sign, the four digits with
    # leading zeros (but the last) blanked, the point
    leading = np.logical_and.accumulate(d == ord("0"), axis=1)
    leading[:, 3] = False
    intpart = np.zeros((2, 10_000, 8), dtype=np.uint8)
    intpart[1, :, 2] = ord("-")
    intpart[:, :, 3:7] = np.where(leading, np.uint8(0), d)
    intpart[:, :, 7] = ord(".")
    return (words.view(np.uint32).reshape(-1),
            intpart.view(_U64).reshape(-1))


_WORD_START = np.arange(0, 20, 4)[:, None]
_WORD_MIN = np.array([1, 0, 0, 0, 0])[:, None]  # an integer shows ".0"
_COMMA, _CRLF = (np.frombuffer(s.ljust(4, b"\0"), dtype=np.uint32)[0]
                 for s in (b",", b"\r\n"))


def _scaled(ax):
    """(v, r, b, s, q) for each fast-path |x| = m 2^e: with b = 5^q and
    s = -(q + e), |x| 10^q = N / 2^s for N = m b, v = N >> s in
    [10^16, 10^17) and r = N mod 2^s."""
    bits = ax.view(_U64)
    m = (bits & _MANTISSA) | _HIDDEN
    q = 21 - np.searchsorted(_DECADES, ax, side="right")
    s = 1075 - q - (bits >> _U64(52)).astype(np.int64)
    b = _POW5[q]
    # N in two 64-bit limbs, from the 32-bit halves of m and b
    a0, a1, b0, b1 = m & _LOW32, m >> _U64(32), b & _LOW32, b >> _U64(32)
    p00 = a0 * b0
    mid = (p00 >> _U64(32)) + a0 * b1 + a1 * b0
    lo = (p00 & _LOW32) | (mid << _U64(32))
    hi = a1 * b1 + (mid >> _U64(32))
    us = s.astype(_U64)
    v = (hi << (_U64(64) - us)) | (lo >> us)
    r = lo & ((_U64(1) << us) - _U64(1))
    return v.astype(np.int64), r.astype(np.int64), b.astype(np.int64), s, q


def _shortest(ax):
    """(D, f): the shortest round-trip digits of each fast-path |x| as the
    integer D, with |x| printed as D 10^-f, 0 <= f <= 20."""
    v, r, b, s, q = _scaled(ax)
    # [lb, hb]: the integers that round to |x| at the scale 10^q
    lb = v + ((2 * r - b) >> (s + 1)) + 1
    hb = v + ((2 * r + b) >> (s + 1))
    # k: a multiple of 10^(j+1) is one of 10^j, so the floats that still
    # have one in [lb, hb] shrink as j grows
    k = np.zeros(len(ax), dtype=np.int64)
    idx = np.flatnonzero(hb // 10 * 10 >= lb)
    for p in _POW10[2:]:
        k[idx] += 1
        idx = idx[hb[idx] // p * p >= lb[idx]]
        if not len(idx):
            break
    # An |x| whose digits end left of the point is the integer nearest it,
    # also found at k = q.
    np.minimum(k, q, out=k)
    p = _POW10[k]
    t = v // p
    u = 2 * (v - t * p) + (r >> (s - 1))  # 2 (|x| 10^q mod 10^k), floored
    half = r & ((1 << (s - 1)) - 1)
    t += (u > p) | ((u == p) & ((half != 0) | (t & 1 == 1)))
    return t, q - k


def _fraction_words(frac, f):
    """The indices into the words table of `_tables` of the five 4-digit
    words of each f-digit fraction frac, as a (5, len(f)) array."""
    # the 20-digit fraction frac 10^(20-f) as its first 8 and last 12 digits
    cut = _POW10[np.maximum(f - 8, 0)]
    hi8 = frac // cut
    lo12 = (frac - hi8 * cut) * _POW10[20 - np.maximum(f, 8)]
    hi8 *= _POW10[np.maximum(8 - f, 0)]
    # word j shows its digits left of fraction digit f
    index = f - _WORD_START
    np.maximum(index, _WORD_MIN, out=index)
    np.minimum(index, 4, out=index)
    index *= 10_000
    word = hi8 // 10_000
    index[0] += word
    index[1] += hi8 - word * 10_000
    word = lo12 // 10 ** 8
    index[2] += word
    lo8 = lo12 - word * 10 ** 8
    word = lo8 // 10_000
    index[3] += word
    index[4] += lo8 - word * 10_000
    return index


def rows(values) -> bytes:
    """The ASCII rows of the flat float64 array `values` (re, im, re, ...):
    one "re,im" row with a CRLF end per pair, in the bytes csv.writer
    gives."""
    words, intpart_words = _tables()
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e4) & ((ax.view(_U64) & _MANTISSA) != 0)
    digits, f = _shortest(np.where(fast, ax, 1.5))
    # a field: "[-]int." in uint32 words 0-1, the fraction in 2-6 and the
    # separator in 7
    scale = _POW10[np.minimum(f, 18)]
    intpart = digits // scale
    out = np.empty((len(x), 8), dtype=np.uint32)
    out.view(_U64)[:, 0] = intpart_words[np.signbit(x) * 10_000 + intpart]
    out[:, 2:7] = words.take(_fraction_words(digits - intpart * scale, f)).T
    out[0::2, 7] = _COMMA
    out[1::2, 7] = _CRLF
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array([repr(v).encode("ascii") for v in x[slow].tolist()],
                        dtype="S28")
        out[slow, :7] = text.view(np.uint32).reshape(-1, 7)
    return out.tobytes().translate(None, b"\0")


def write_rows(values, write) -> None:
    """Pass the ASCII rows of the flat float64 array `values` to `write`,
    BLOCK rows at a time."""
    for lo in range(0, len(values), 2 * BLOCK):
        write(rows(values[lo:lo + 2 * BLOCK]))
