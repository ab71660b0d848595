"""Python's ``'%.17g' % x`` and ``float()``, computed for a block of numbers at a time.

The CSV writers in ``fileio`` lay out their lines with ``format_lines``.
A finite x with 1e-280 <= |x| <= 1e280 has decimal exponent X, taken from
log10 and corrected against the least double >= 10**X, and 17 significant
digits D = round(|x| * 10**(16 - X)).  The product is formed in
double-double arithmetic with an error below 1e-14 at D's scale, so D is
exact unless the fraction lies within 1e-9 of one half; a zero has D = 0
and X = 0.  Near-ties, non-finite numbers and the rest of the range go
through ``%`` one by one.  The digits are then laid out by ``%g``'s
rules: fixed point for -4 <= X < 17, else ``d.ddde+XX`` with at least two
exponent digits, and no trailing zeros or bare point in either.

The readers go the other way with ``read_numbers``: ``np.loadtxt`` reads the
digits D of each ``[sign]d[.d][e(+|-)d]`` as an int64, without strtod, and D *
10**q from the same table stands where an error bound proves it; else the caller parses it.
"""

from __future__ import annotations

import functools
import io
from typing import NamedTuple, Optional

import numpy as np

__all__ = ["BLOCK", "format_lines", "read_numbers"]

# Each number owns _SLOTS byte slots, six 8-byte words: a comma, a sign, the
# "0.000" of a fixed-point number below 1, 17 digits each but the last
# followed by a point, and an exponent "e+123", with spaces as padding.  A
# table keyed by sign, exponent class and count of significant digits says
# which slots the text keeps; the kept bytes of a block, in order, are its
# lines.
_TEMPLATE = b",-0.000 " + b"0." * 16 + b"0  e+000"
_SLOTS = len(_TEMPLATE)
_FAST = (1e-280, 1e280)
_X0 = 300                  # table index of decimal exponent 0
_CLASSES = 23              # fixed point for X = -4..16, then e+XX and e+XXX
_KEYS = 2 * _CLASSES * 18  # then one fallback key per text length
_TIE = 1e-9
_DROP = b"\xff"
BLOCK = 1024  # numbers per block; a block peaks at about 120 KiB


class _Tables(NamedTuple):
    ceil: np.ndarray     # per X: the least double >= 10**X
    power: np.ndarray    # per X up to 316: 10**(16 - X) as hi + lo, and Dekker's 26-bit halves of hi
    classes: np.ndarray  # per X: the key of its class
    tail: np.ndarray     # per (X, last digit): the last word of a number's slots
    groups: np.ndarray   # per 4-digit group: the word "d.d.d.d."
    sig: np.ndarray      # per (group j of a 16-digit run, group): significant digits up to it
    drop: np.ndarray     # per word, per key: _DROP in the slots the text omits


@functools.cache
def _format_tables() -> _Tables:
    # Built on the first write; X is at X + _X0.
    x = np.arange(-_X0, _X0 + 1)
    # 10**x is num / den in Python integers, and its correctly rounded
    # double near is m * 2**e; below is their difference (num * 2**-e - m *
    # den) / (den * 2**-e), rounded, with the powers of two taken as shifts.
    tens = np.multiply.accumulate(np.full(_X0 + 1, 10, dtype=object)) // 10  # 10**0 .. 10**_X0
    num, den = tens[np.maximum(x, 0)], tens[np.maximum(-x, 0)]
    near = (num / den).astype(np.float64)
    mantissa, e = np.frexp(near)
    m = (mantissa * 2.0**53).astype(np.int64).astype(object)
    e -= 53
    up, down = np.maximum(-e, 0).astype(object), np.maximum(e, 0).astype(object)
    below = (((num << up) - (m << down) * den) / (den << up)).astype(np.float64)
    # 10**(16 - X) for each X up to 316, so 10**q for |q| <= 300; clipped beyond.
    row = np.clip(2 * _X0 + 16 - np.arange(2 * _X0 + 17), 0, 2 * _X0)
    hi = near[row]
    split = hi * 134217729.0
    high = split - (split - hi)

    tail = np.empty((x.size, 10, 8), dtype=np.uint8)
    tail[:] = np.frombuffer(_TEMPLATE[-8:], np.uint8)
    tail[:, :, 0] += np.arange(10, dtype=np.uint8)
    # The exponent as '%+04d' writes it: a sign and three digits.
    tail[:, :, 4] = np.where(x < 0, ord("-"), ord("+"))[:, None]
    tail[:, :, 5:] = (np.abs(x)[:, None] // [100, 10, 1] % 10 + ord("0"))[:, None]

    # Per 4-digit group d0 d1 d2 d3, each d an axis: the word
    # "d0.d1.d2.d3.", and its significant digits, 4 less its trailing zeros.
    words = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    sig = np.full((10, 10, 10, 10), 4, dtype=np.int8)
    for j in range(4):
        words[..., 2 * j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - j))
        sig[(...,) + (0,) * (j + 1)] -= 1
    sig = sig.ravel()
    sig = np.where(sig > 0, sig + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0).astype(np.int8)

    slot = np.arange(_SLOTS)
    c = np.arange(_CLASSES)[:, None, None]
    nsig = np.arange(18)[:, None]
    point = np.where(c < 21, c - 4, 0)  # the digit a point may follow
    i = (slot - 8) // 2                 # the digit in slot 8 + 2i, the point in slot 9 + 2i
    keep = ((slot == 0)
            | (slot >= 8) & (slot <= 40) & (slot % 2 == 0)
            & (i < np.where((c >= 4) & (c < 21), np.maximum(nsig, c - 3), nsig))  # ddd.ddd
            | (slot % 2 == 1) & (i == point) & (nsig > point + 1) & (c >= 4)
            | (c < 4) & (slot >= 2) & (slot < 7 - c)                              # 0.000ddd
            | (c >= 21) & (slot >= 43) & (slot != 45) | (c == 22) & (slot == 45))
    keep = np.concatenate([keep.reshape(-1, _SLOTS), (keep | (slot == 1)).reshape(-1, _SLOTS),
                           slot <= np.arange(25)[:, None]])  # then a comma and the text
    return _Tables(
        ceil=np.where(below > 0, np.nextafter(near, np.inf), near),
        power=np.stack([hi, high, hi - high, below[row]]),
        classes=18 * np.where((x >= -4) & (x <= 16), x + 4, np.where(np.abs(x) < 100, 21, 22)),
        tail=tail.view(np.uint64).ravel(),
        groups=words.view(np.uint64).ravel(),
        sig=sig,
        drop=np.where(keep, np.uint8(0), np.uint8(_DROP[0])).view(np.uint64).T.copy(),
    )


def _product(a: np.ndarray, e: np.ndarray, p: Optional[np.ndarray] = None):
    # a * 10**(16 - X), X at table index e, as p, rounded (into ``p`` if given),
    # plus rest: Dekker's exact a * hi less p, plus a * lo, within 2**-100 |p|.
    hi, hi_high, hi_low, lo = _format_tables().power
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    high, low = hi_high[e], hi_low[e]
    rest = ah * high
    rest -= (p := np.multiply(a, hi[e], out=p))
    rest += ah * low
    rest += al * high
    rest += al * low
    rest += a * lo[e]
    return p, rest


def _decimal(x: np.ndarray):
    # (D, X + _X0, proven) for each number of the flat ``x``, with D its 17
    # significant digits as an integer and X its decimal exponent; neither
    # means anything where ``proven`` is False.
    ceil = _format_tables().ceil
    a = np.abs(x)
    proven = (a >= _FAST[0]) & (a <= _FAST[1])
    a[~proven] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) + _X0
    up, down = a >= ceil[e + 1], a < ceil[e]  # log10 may miss by one near 10**X
    e += up
    e -= down
    p, rest = _product(a, e)
    d = p.astype(np.int64)  # p >= 2**53 is a whole number
    whole = np.floor(rest)
    rest -= whole
    d += whole.astype(np.int64)
    d += rest > 0.5
    rest -= 0.5
    proven &= np.abs(rest) >= _TIE
    carry = d == 10 ** 17  # rounded up to the next power of ten
    d[carry] = 10 ** 16
    e += carry
    return d, e, proven


def _slots(x: np.ndarray) -> np.ndarray:
    # The slots of each number of the flat ``x`` as (len(x), _SLOTS / 8)
    # words, with _DROP in every slot its text omits.
    tables = _format_tables()
    d, e, proven = _decimal(x)
    # What _decimal leaves out goes through '%' below, but for a zero: D = 0
    # at X = 0, laid out as "0" or "-0".
    slow = np.flatnonzero(~proven)
    zero = x[slow] == 0.0
    d[slow[zero]], e[slow[zero]] = 0, _X0
    slow = slow[~zero]
    slots = np.empty((x.size, _SLOTS // 8), dtype=np.uint64)
    slots[:, 0] = np.frombuffer(_TEMPLATE[:8], np.uint64)
    d, last = np.divmod(d, 10)
    slots[:, 5] = tables.tail[e * 10 + last]
    nsig = np.where(last > 0, 17, 0)
    for word, sig in zip(range(4, 0, -1), tables.sig[::-1]):
        d, group = np.divmod(d, 10 ** 4)
        slots[:, word] = tables.groups[group]
        np.maximum(nsig, sig[group], out=nsig)
    key = tables.classes[e] + nsig
    key += _CLASSES * 18 * np.signbit(x)
    if slow.size:
        text = [("%.17g" % v).encode("ascii") for v in x[slow].tolist()]
        slots.view(np.uint8)[slow, 1:25] = np.frombuffer(b"".join(t.ljust(24, _DROP) for t in text),
                                                          np.uint8).reshape(-1, 24)
        key[slow] = _KEYS + np.fromiter(map(len, text), np.intp, len(text))
    for word, drop in zip(slots.T, tables.drop):
        word |= drop[key]
    return slots


def format_lines(texts: Optional[np.ndarray], values: np.ndarray) -> bytearray:
    """The bytes of one CSV line per row of the (R, V) ``values``.

    A line holds the row's leading fields, given as the CSV bytes in row r
    of the (R, width) uint8 matrix ``texts`` (None when there are none),
    then its numbers as ``'%.17g' % x`` writes them.  A text row may be
    padded anywhere with 0xFF bytes, which the line omits.  Rows should
    come in blocks of about ``BLOCK`` numbers.
    """
    # Each row is laid out as its text, the slots of its numbers and a
    # newline; every byte not in the line is _DROP, which UTF-8 never holds.
    rows, cols = values.shape
    slots = _slots(values.ravel())
    width = 0 if texts is None else texts.shape[1]
    block = bytearray(rows * (width + cols * _SLOTS + 1))
    line = np.frombuffer(block, np.uint8).reshape(rows, -1)
    if texts is not None:
        line[:, :width] = texts
    line[:, width:-1] = slots.view(np.uint8).reshape(rows, -1)
    del slots
    if texts is None and cols:
        line[:, 0] = _DROP[0]
    line[:, -1] = ord("\n")
    return block.translate(None, _DROP)


def read_numbers(raw: bytes, marks: list, out: np.ndarray) -> bool:
    """Parse the numbers in the last C fields of CSV lines exactly into the (L, C) ``out``.

    ``raw`` holds the L lines.  ``marks``, [ends, points, exps], holds where each of their fields
    ends, (L, W), and every point, 'e' and 'E'; it is emptied, so that each array goes once read.
    False, with ``out`` partly written, unless every number is proven.
    """
    ends, points, exps = marks
    marks.clear()
    (lines, width), cols, line_ends = ends.shape, out.shape[1], ends[:, -1].copy()
    first = width - cols
    # A number's digits end at its exponent, else with its field.  Its point is the k-th for the k-th
    # number (0.55 ms per ensemble-mle preds.csv on 2 vCPUs; the search 5.3), else its own, else none.
    field = np.searchsorted(ends.ravel(), exps)
    at, field = exps[field % width >= first], field[field % width >= first]
    exp = field - first * (field // width + 1)  # the number each exponent is in
    end = ends[:, first:].copy()
    size = end.ravel()[exp] - at
    end.ravel()[exp] = at
    point = points.reshape(lines, cols) if points.size == end.size else None
    if point is None or not ((ends[:, first - 1:-1] < point).all() and (point < ends[:, first:]).all()):
        field = np.searchsorted(ends.ravel(), points)
        points, field = points[field % width >= first], field[field % width >= first]
        point, number = end - 1, field - first * (field // width + 1)
        point.ravel()[number] = points
        if not (np.diff(number) > 0).all():
            return False
    # A digit before each point and last; each exponent an 'e', a sign and 1-3 digits.  'E' is
    # declined: a numpy whose int64 parse falls back to float reads 1.5E+3's "15E+3" as 15000.
    buf = np.frombuffer(raw, np.uint8)
    sign, more = buf[at + 1], np.arange(2, 5) < size[:, None]
    digit = buf.take(at[:, None] + np.arange(2, 5, dtype=at.dtype), mode="clip") - ord("0")
    if not ((np.diff(exp) > 0).all() and (buf[at] == ord("e")).all() and (~more | (digit < 10)).all()
            and (buf[points - 1] - ord("0") < 10).all() and (buf[end - 1] - ord("0") < 10).all()
            and ((size >= 3) & (size <= 5) & ((sign == ord("+")) | (sign == ord("-")))).all()):
        return False
    # q, the exponent less the digits after the point, is at table index _X0 + 16 - q, clipped to
    # [-299, 281]: past either end x is out of range, and within no product overflows.  Its
    # exponent E, point p and first byte s bound |x| < 10**(E + p + 1 - s): x surely below 1e-280 declines.
    value = np.where(more, digit, 0) @ np.array([100, 10, 1]) // 10 ** (5 - size) * np.where(sign == ord("-"), -1, 1)
    if (value + point.ravel()[exp] - ends[:, first - 1:-1].ravel()[exp] <= -280).any():
        return False
    end += _X0 + 15
    end -= point
    end.ravel()[exp] -= value
    index = np.clip(end, _X0 + 16 - 281, _X0 + 16 + 299).astype(np.int16)
    lead = buf[1:][ends[:, first - 1:-1]]  # each number's first byte
    del ends, points, exps, point, end
    for i in range(0, lines, step := -(-lines // 4)):  # a quarter of the lines, exponents and points dropped
        rows, (lo, hi) = slice(i, i + step), np.searchsorted(exp, [i * cols, (i + step) * cols])
        start = int(line_ends[i - 1]) + 1 if i else 0
        text = bytearray(memoryview(raw)[start:line_ends[min(i + step, lines) - 1] + 1])
        for k in range(5):
            np.frombuffer(text, np.uint8)[(at[lo:hi] + k)[k < size[lo:hi]] - start] = ord(".")
        try:
            d = np.loadtxt(io.BytesIO(text.translate(None, b".")), dtype=np.int64, delimiter=",",
                           usecols=range(first, width), comments=None, ndmin=2)
        except ValueError:
            return False
        if not (d.max() < 10**18 and d.min() > -10**18):
            return False
        # x = D * 10**q: p + rest = a + err (Fast2Sum), a rounded, is within 2**-99 |x| of x, or
        # 2**-84 |x| where lo is subnormal, so x rounds to a when a +- (|err| + 2**-80 |a|) do.
        e, x, zero = index[rows].astype(np.intp), out[rows], d == 0
        del text
        a = d.astype(np.float64)
        d -= a.astype(np.int64)  # the rest of D, at most 64 in size
        rest = _product(a, e, x)[1]
        rest += np.multiply(d, _format_tables().power[0][e], out=a)
        np.add(x, rest, out=a)
        x -= a
        x += rest
        proven = (np.abs(a, out=rest) >= _FAST[0]) & (rest <= _FAST[1])
        rest *= 2.0 ** -80
        rest += np.abs(x, out=x)
        proven &= np.add(a, rest, out=x) == a
        proven &= np.subtract(a, rest, out=x) == a
        x[...] = a
        if zero.any():  # a zero is signed as its first byte, which is not a space
            byte = lead[rows][zero]
            x[zero] = np.where(byte == ord("-"), -0.0, 0.0)
            proven[zero] = byte != ord(" ")
        if not proven.all():
            return False
        del d, e, a, rest, proven, zero
    return True
