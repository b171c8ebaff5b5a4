"""repr of float64 arrays, formatted in NumPy a block at a time.

repr writes a float as the shortest digits that read back to it (Steele and
White 1990; Adams 2018, "Ryu"): in fixed form when its decimal point falls
at -3..16, else in exponent form with two or more exponent digits, and with
".0" on an integral value. shortest_reprs decides those digits for a whole
array at once. It scales |x| by 10**k, k = 16 - floor(log10 |x|), as a
Dekker (1971) double-double product, whose error is about 1e-14 units of
the 17th digit, and keeps the shortest of the 15-, 16- and 17-digit
roundings that lies strictly within half an ulp of x. It leaves to repr
(repr_fields) whatever lies within MARGIN of a decision, ties and interval
boundaries, and outright 0, inf, NaN, subnormals, |x| beyond the table of
10**k, powers of two (whose gap below is half the one above) and x of 14 or
fewer digits.
"""

import numpy as np

REPR_WIDTH = 24  # the longest repr of a float64, "-2.2250738585072014e-308"
E10_MIN, E10_MAX = -290, 290  # the decimal exponents served: 10**k and its parts stay normal, its splits finite
MARGIN = 1e-9  # in units of the 17th digit
SPLIT = 134217729.0  # Veltkamp's 2**27 + 1
# a repr's bytes in slots, NUL where a slot is unused: 8 for its sign, and "0." and up to three zeros before a
# leading point; 32 for its first 16 digits, each with a slot after it for the point; 8 for its 17th digit, "e",
# the exponent's sign and its three digits. Each is 8-byte aligned, so NumPy gathers it as whole words.
REPR_SLOTS = 8 + 32 + 8


def _powers_of_ten():
    """Rows (hi, lo, hi's high half, hi's low half) of 10**k = hi + lo for k = 15 - E10_MAX .. 17 - E10_MIN."""
    hi, lo = [], []
    for k in range(15 - E10_MAX, 18 - E10_MIN):  # from exact ints: int / int and float(int) round correctly
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            q = 10**-k
            hi.append(1 / q)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * q) / (b * q))
    s = np.array(hi) * 2.0**-64  # split where s * SPLIT cannot overflow
    c = s * SPLIT
    top = c - (c - s)
    return np.stack([np.array(hi), np.array(lo), top * 2.0**64, (s - top) * 2.0**64], axis=1)


def _slots():
    """Each (sign, e10)'s first 8 slots, and each (e10, L)'s next 32 and last 8, as uint64 words.

    e10 runs over E10_MIN - 1 .. E10_MAX + 1 and L over 17, 16, 15; a digit slot holds 255 where the digit shows.
    """
    e = np.arange(E10_MIN - 1, E10_MAX + 2)
    fixed, leading = (e >= -4) & (e <= 15), (e >= -4) & (e < 0)  # point after digit e, or before the digits
    prefixes = np.zeros((2, e.size, 8), np.uint8)
    prefixes[1, :, 0] = ord("-")
    prefixes[:, leading, 1:3] = np.frombuffer(b"0.", np.uint8)
    prefixes[:, :, 3:6] = (leading[:, None] & (np.arange(3) < -e[:, None] - 1)) * np.uint8(ord("0"))
    L, digit = np.arange(17, 14, -1)[:, None], np.arange(17)
    point = np.where(fixed & ~leading, e, np.where(fixed, -1, 0))[:, None, None]  # the digit the point follows
    shown = (digit < np.maximum(L, point + 2)) * np.uint8(255)  # an integral value shows 0 after its point
    bodies = np.empty((e.size, 3, 16, 2), np.uint8)
    bodies[..., 0] = shown[..., :16]
    bodies[..., 1] = (digit[:16] == point) * np.uint8(ord("."))
    suffixes = np.zeros((e.size, 3, 8), np.uint8)
    suffixes[..., 0] = shown[..., 16]
    a = np.abs(e)
    exponent = np.column_stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                                np.where(a >= 100, a // 100 + 48, 0), a // 10 % 10 + 48, a % 10 + 48])
    suffixes[..., 1:6] = np.where(fixed[:, None], 0, exponent)[:, None]
    return prefixes.view(np.uint64).ravel(), bodies.reshape(-1, 32).view(np.uint64), suffixes.view(np.uint64).ravel()


POWERS_OF_TEN = _powers_of_ten()
PREFIXES, BODIES, SUFFIXES = _slots()
# the ASCII of every 4-digit group, read as one uint32
DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).view(np.uint32).ravel()


def _scale(a, e10):
    """a 10**k, k = 16 - e10, as N + f with N an int64 and f in [0, 1), and half an ulp of a in the same units."""
    hi, lo, top, low = np.take(POWERS_OF_TEN, (1 + E10_MAX) - e10, axis=0).T
    p = a * hi  # a hi = p + t exactly, t summed from the exact products of a's and hi's halves; a lo adds to t
    a_top = a * SPLIT
    a_top -= a_top - a
    a_low = a - a_top  # each product below is formed in a_top or a_low once it is spent
    t = a_top * top
    t -= p
    a_top *= low
    t += a_top
    t += a_low * top
    a_low *= low
    t += a_low
    t += a * lo
    y = p + t  # an integer where N is in range: y >= 1e16 > 2**53
    t -= y - p
    below = np.floor(t)
    h = np.spacing(a)
    h *= hi
    h *= 0.5
    return y.astype(np.int64) + below.astype(np.int64), np.subtract(t, below, out=t), h


def _round(N, f, h, decided):
    """The nearest of N + f's 15-, 16- or 17-digit roundings, the shortest within h, and whether it has 16 or 15.

    Clears decided where a rounding lies within MARGIN of h, the nearest two tie, or N has not 17 digits.
    """
    N10, N100 = N // 10, N // 100
    r16 = (N - N10 * 10) + f  # how far N + f lies above the 16- and 15-digit values below it
    r15 = (N - N100 * 100) + f
    d16 = np.minimum(r16, 10 - r16)
    d15 = np.minimum(r15, 100 - r15)
    in16, in15 = d16 < h, d15 < h  # h < 12, so one 15-digit value at most fits, and only if a 16-digit one does
    decided &= (np.abs(d16 - h) >= MARGIN) & (np.abs(d15 - h) >= MARGIN)
    decided &= np.abs(np.where(in16, r16 - 5, f - 0.5)) >= MARGIN
    decided &= (N - 10**16).view(np.uint64) < 9 * 10**16 - 100  # 17 digits, and no carry into an 18th
    digits = np.where(in15, (N100 + (r15 > 50)) * 100, np.where(in16, (N10 + (r16 > 5)) * 10, N + (f > 0.5)))
    return digits, in16, in15


def _ascii(digits):
    """The ASCII of 17-digit ints: the first 16 digits as (M, 16) bytes, and the 17th as (M,)."""
    head = digits // 10
    last = (digits - head * 10 + 48).astype(np.uint8)
    groups = np.empty((digits.size, 2, 2), np.intp)  # head's four groups of four
    groups[:, 0, 1] = head // 10**8
    groups[:, 1, 1] = head - groups[:, 0, 1] * 10**8
    groups[:, :, 0] = groups[:, :, 1] // 10**4
    groups[:, :, 1] -= groups[:, :, 0] * 10**4
    return np.take(DIGITS4, groups.reshape(-1, 4)).view(np.uint8), last


def _lay_out(negative, e10, digits, in16, in15, decided):
    """The REPR_SLOTS bytes of each value; clears decided where 15 digits end in 0, so fewer may do."""
    text, last = _ascii(digits)
    decided &= ~in15 | (text[:, 14] != ord("0"))
    row = e10 - (E10_MIN - 1)
    fields = np.empty((digits.size, REPR_SLOTS // 8), np.uint64)
    fields[:, 0] = np.take(PREFIXES, negative * (E10_MAX - E10_MIN + 3) + row)
    row *= 3
    row += in16
    row += in15  # the form: e10 and L
    np.bitwise_or(text, np.uint16(0xFF00), out=fields.view("<u2")[:, 4:20])  # each digit, then 255 in its point slot
    fields[:, 1:5] &= np.take(BODIES, row, axis=0)
    fields[:, 5] = np.take(SUFFIXES, row)
    fields = fields.view(np.uint8)
    fields[:, 40] &= last
    return fields


def shortest_reprs(x):
    """The fast path of repr_fields on a 1-d float64 array: its rows, and where it left the decision to repr."""
    a = np.abs(x)
    decided = (a >= 10.0**E10_MIN) & (a < 10.0 ** (E10_MAX + 1)) & (a.view(np.int64) & ((1 << 52) - 1) != 0)
    a[~decided] = 1.5  # a value the table serves
    e10 = np.floor(np.log10(a)).astype(np.intp)  # one off next to a power of ten, where N has not 17 digits
    digits, in16, in15 = _round(*_scale(a, e10), decided)
    return _lay_out(np.signbit(x), e10, digits, in16, in15, decided), ~decided


def repr_fields(x):
    """repr of each float of the 1-d float64 array x, in REPR_SLOTS bytes with NUL in every unused slot."""
    fields, undecided = shortest_reprs(x)
    slow = np.flatnonzero(undecided)
    if slow.size:
        text = np.array(list(map(repr, x[slow].tolist())), f"S{REPR_SLOTS}")  # NUL-padded
        fields[slow] = text.view(np.uint8).reshape(-1, REPR_SLOTS)
    return fields
