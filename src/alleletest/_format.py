"""``'%.17g' % x`` for float64 arrays, exactly, as fixed-width byte fields.

Each value's text sits at fixed places in ``WIDTH`` bytes, with ``FILLER``
bytes elsewhere. No UTF-8 text holds that byte, so deleting it
(``bytes.translate(None, FILLER_BYTES)``) leaves the text, among other text
too. The 17 digits are ``round(|x| * 10**(16 - X))`` for the exponent ``X``
of the unrounded ``|x|``: Dekker's exact product ("A floating-point
technique for extending the available precision", 1971) with a double-double
power of ten, as in Ryu printf's tables of scaled powers (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019). Python's ``%``
settles non-finite values, exponents beyond ``_LIMIT`` and roundings within
``_MARGIN`` of a tie. C's ``%g`` layout is scientific below 1e-4 and from
1e17, and drops trailing zeros and a bare point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["WIDTH", "FILLER", "FILLER_BYTES", "format_17g", "format_17g_list"]

FILLER = 0xFF
FILLER_BYTES = bytes([FILLER])
# Six 8-byte words: the sign, "0." and up to three zeros (exponents -4 to -1),
# the first digit and a place for the point; four chunks of four digits, each
# followed by a place for the point; "e", the exponent's sign and digits.
WIDTH = 48
_LIMIT = 1e280  # inside it Dekker's splits cannot overflow
_MARGIN = 1e-9  # the computed rounding remainder is within 1e-14 of the exact one
_OFFSET = 300  # the tables cover the exponents -300 to 300


@functools.cache
def _tables():
    """The powers of ten and the layout tables, built at first use."""
    exps = range(-_OFFSET, _OFFSET + 1)
    # Per exponent: the power's nearest double (int true division is
    # correctly rounded), the nearest double to the rest, the first one's
    # halves, and the least double not below the power.
    powers = np.empty((5, len(exps)))
    for i, k in enumerate(exps):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        high = num / den
        a, b = high.as_integer_ratio()
        low = (num * b - a * den) / (den * b)
        powers[:, i] = high, low, 0.0, 0.0, high if low <= 0.0 else math.nextafter(high, math.inf)
    powers[2:4] = _split(powers[0])
    # Per exponent X: the last integer digit I (X in fixed layout, -1 below 1,
    # 0 in scientific layout); words 0 and 5, without and with the sign.
    last_int = np.array([x if 0 <= x < 17 else -1 if -4 <= x < 0 else 0 for x in exps])
    around = np.full((len(exps), 2, 2, 8), FILLER, dtype=np.uint8)
    around[:, :, 0, 6:] = 0  # the first digit and its point
    around[:, 1, 0, 0] = ord("-")
    for i, x in enumerate(exps):
        if -4 <= x < 0:
            around[i, :, 0, 1 : 2 - x] = list(b"0." + b"0" * (-x - 1))
        elif not 0 <= x < 17:
            around[i, :, 1, : 4 + (abs(x) >= 100)] = list(b"e%+03d" % x)
    # Row (I + 1) * 17 + L, for the last nonzero digit L: digit k (at 6 + 2k)
    # stays up to max(I, L), as a zero byte that the digit is OR-ed into, and
    # the point follows digit I where a digit after it is nonzero.
    template = np.zeros((18 * 17, WIDTH), dtype=np.uint8)
    template[:, 6:40] = FILLER
    for i in range(-1, 17):
        for last in range(17):
            row = template[(i + 1) * 17 + last, 6:40]
            row[: 2 * max(i, last) + 1 : 2] = 0
            if 0 <= i < last:
                row[2 * i + 1] = ord(".")
    # Four digits, each followed by a zero byte, then word 0 of each first
    # digit; and per chunk of four, the index of its last nonzero digit, or 0.
    # Both are copied from the bytes of two-digit pairs: numpy's // and % would page in more of
    # numpy's code than the tables hold (power's fresh-process peak rose ~0.2 MB with them).
    pairs = bytes(b for n in range(100) for b in (48 + n // 10, 0, 48 + n % 10, 0))
    pairs = np.frombuffer(pairs, dtype=np.uint8).reshape(100, 4)
    chunks = np.zeros((10_010, 8), dtype=np.uint8)
    chunks[:10_000].reshape(100, 100, 8)[:, :, :4] = pairs[:, None]
    chunks[:10_000].reshape(100, 100, 8)[:, :, 4:] = pairs
    chunks[10_000:, 6] = np.frombuffer(b"0123456789", dtype=np.uint8)
    ends = bytes(n and 2 - (n % 10 == 0) for n in range(100))  # in a pair: 1, 2, or 0
    place = bytearray(bytes(x and x + 2 for x in ends) * 100)  # the low pair's, plus 2
    place[::100] = ends  # the high pair's, where the low pair is 00
    shifts = [bytes([0, *range(4 * j + 1, 4 * j + 5)]).ljust(256, b"\0") for j in range(4)]
    last = b"".join(map(place.translate, shifts))  # 4 * j + place in chunk j, or 0
    return (
        powers, (last_int + 1) * 17, *around.view(np.uint64).reshape(-1, 2).T.copy(),
        template.view(np.uint64), chunks.view(np.uint64)[:, 0],
        np.frombuffer(last, dtype=np.int8).reshape(4, -1),
    )


def _split(a):
    """Dekker's split: two halves of at most 26 significant bits adding up to ``a``."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _digits(ax: np.ndarray):
    """The decimal exponent plus ``_OFFSET``, the 17 digits, and the mask of
    unsure roundings, of positive values inside the limits."""
    s_hi, s_lo, b_hi, b_lo, above = _tables()[0]
    # floor(log10) is off by at most one next to a power of ten, and
    # comparing with 10**X and 10**(X + 1) settles it.
    e = (np.log10(ax) + _OFFSET).astype(np.intp)
    e -= ax < above.take(e)
    e += ax >= above.take(e + 1)
    # |x| * 10**(16 - X) = p + rest, exactly but for 1e-14: p is an even
    # integer above 2**53, so the digits are p + round_half_even(rest).
    scale = 2 * _OFFSET + 16 - e
    s_hi, s_lo, b_hi, b_lo = (part.take(scale) for part in (s_hi, s_lo, b_hi, b_lo))
    p = ax * s_hi
    a_hi, a_lo = _split(ax)
    rest = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + ax * s_lo
    rounded = np.rint(rest)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    rest -= rounded
    # A value just below a power of ten can round up to it, and %g prints
    # the exponent of the rounded value.
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    return e, digits, np.abs(rest, out=rest) > 0.5 - _MARGIN


def format_17g(x) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each ``v`` of ``x``, as a uint8 array
    of shape ``x.shape + (WIDTH,)`` padded with ``FILLER``."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    x = x.reshape(-1)
    ax = np.abs(x)
    slow = ~((ax >= 1.0 / _LIMIT) & (ax < _LIMIT))  # NaN too
    ax[slow] = 1.0  # a stand-in, for zero or for Python's text below
    e, digits, unsure = _digits(ax)
    del ax
    digits[slow] = 0
    unsure |= slow & (x != 0.0)
    # The first digit, then four chunks of four.
    high = digits // 10**8
    digits -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    high_quad, low_quad = high // 10**4, digits // 10**4
    quads = [high_quad, high - high_quad * 10**4, low_quad, digits - low_quad * 10**4]
    _, layouts, heads, tails, template, chunks, last = _tables()
    last_digit = np.maximum(last[0].take(quads[0]), last[1].take(quads[1]))
    np.maximum(last_digit, last[2].take(quads[2]), out=last_digit)
    np.maximum(last_digit, last[3].take(quads[3]), out=last_digit)
    out = template.take(layouts.take(e) + last_digit, axis=0)
    for word, chunk in enumerate([lead + 10_000] + quads):
        out[:, word] |= chunks.take(chunk)
    e *= 2
    e += np.signbit(x)
    out[:, 0] |= heads.take(e)
    out[:, 5] = tails.take(e)
    out = out.view(np.uint8)
    for i in np.flatnonzero(unsure).tolist():
        text = b"%.17g" % x[i]
        out[i, : len(text)] = list(text)
        out[i, len(text) :] = FILLER
    return out.reshape(shape + (WIDTH,))


def format_17g_list(x) -> list[str]:
    """``'%.17g' % v`` for each value of the 1-d float64 array ``x``."""
    lines = np.full((len(x), WIDTH + 1), ord("\n"), dtype=np.uint8)
    lines[:, :WIDTH] = format_17g(x)
    return lines.tobytes().translate(None, FILLER_BYTES).decode("ascii").split()
