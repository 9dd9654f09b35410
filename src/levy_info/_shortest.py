"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``floats(values)`` returns an ``S`` array of the same shape whose cells are
what ``repr`` gives each value, NUL-padded to a common width.

Digits.  A normal double v = c 2^q (2^52 <= c < 2^53) gets the shortest
decimal f 10^k that reads back as v, and of those the closest to v (the even
one on a tie), by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) as the JDK's ``Double.toString`` computes it, less its
two-digit minimum.  Scaled by 4 10^-k, v is x = M cb / 2^127 for cb = 4c and
a per-exponent M = g 2^h, where g is the 126-bit upper approximation of
10^-k; the rounding interval runs from x - dl to x + dr.  M cb is formed
exactly from 28-bit limb products in ``uint64``.  As in the JDK, the
round-to-odd values of x and of the interval's ends drop bits 0..63 of
their products, so testing a candidate against the interval comes down to
comparing words of x's fraction with per-exponent words.  Zero takes the
digits "0"; NaN, infinities and subnormals, which are rare, take ``repr``
per element.

Layout.  The digits are zero-padded to 17 and written, with the characters
every layout needs, into a 28-byte source row: 3 '0's, the 17 digits, ".",
"-", "e", a NUL, the exponent's sign and its 3 digits.  ``repr`` writes
positional form for a decimal point position p in -3..16 and exponent form
with at least 2 exponent digits otherwise, so the cell is one gather from the
source row by a class row keyed by (sign, layout, significant digits).

Both tables are built on first use and kept.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["floats"]

_MASK28 = np.uint64((1 << 28) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
_WIDTH = 24  # len(repr(-1.2345678901234567e-308)), the longest
# values formatted at a time, which bounds the temporaries (the gather's
# index is 8 bytes a character)
_CHUNK = 16_384
_LAYOUTS = 22  # decimal point at -3..16, then exponent form with 2 and 3 digits
# byte positions in a source row: "000" and the 17 digits, ".-e", a NUL, then
# the exponent's sign and its 3 digits
_ZERO, _DOT, _MINUS, _E, _NUL, _ESIGN = 0, 20, 21, 22, 23, 24


def _shifted(limbs, by):
    """28-bit limbs (the top one unbounded) of a number shifted left by 0..27
    bits, elementwise."""
    by = np.asarray(by, dtype=np.uint64)
    out = [(limb << by) & _MASK28 for limb in limbs[:-1]] + [limbs[-1] << by]
    for i in range(1, len(limbs)):
        out[i] |= limbs[i - 1] >> (np.uint64(28) - by)
    return out


def _exponent_table() -> tuple:
    """Per biased exponent bq (row bq, then row bq + 2048 for irregular
    spacing): M's five 28-bit limbs, k, and the integer part, bits 64..126
    and bits 0..63 of the left and the right half-widths of the rounding
    interval, as multiples of 2^-127."""
    bq = np.arange(4096) % 2048
    # rows 0 and 2047 are never read; 2^-1022 has regular spacing
    q = np.clip(bq, 1, 2046) - 1075
    irregular = (np.arange(4096) >= 2048) & (bq > 1)
    # floor(log10(2^q)) or floor(log10(3/4 2^q)), and e2 = floor(log2(10^-k)),
    # by the JDK's constants (exact far beyond |q| <= 1100)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    e2 = (-k * 913_124_641_741) >> 38
    h = q + e2 + 2
    assert (h >= 1).all()
    g_limbs = []
    for j in range(int(k.min()), int(k.max()) + 1):
        # 10^-j = beta 2^(e - 125) with 2^125 <= beta < 2^126, and g = floor(beta) + 1
        e = (-j * 913_124_641_741) >> 38
        num, den = (10 ** -j, 1) if j <= 0 else (1, 10 ** j)
        g = (num << max(125 - e, 0)) // (den << max(e - 125, 0)) + 1
        g_limbs.append([(g >> shift) & 0xFFFFFFF for shift in range(0, 140, 28)])
    m = _shifted(list(np.array(g_limbs, dtype=np.uint64)[k - k.min()].T), h)
    columns = [*m, k.astype(np.uint64)]
    for width in (_shifted(m, 1 - irregular), _shifted(m, 1)):
        hi = (width[2] >> np.uint64(8)) | (width[3] << np.uint64(20)) | ((width[4] & np.uint64(0x7FFF)) << np.uint64(48))
        # bits 64..126 of a half-width are never 2^63 - 1, so adding a borrow
        # to them cannot carry
        assert (hi != _MASK63).all()
        columns += [width[4] >> np.uint64(15), hi, width[0] | (width[1] << np.uint64(28)) | (width[2] << np.uint64(56))]
    return tuple(columns)


@functools.cache
def _tables():
    """The columns of the per-exponent table (row bq + 2048 for irregular
    spacing), the 4-digit groups and their trailing zero counts, the signed
    3-digit exponents (row e + 324) and the class rows and widths."""
    exponents = _exponent_table()
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1)
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    exps = np.frombuffer(b"".join(b"%+04d" % e for e in range(-324, 325)), dtype=np.uint32)
    classes = np.full((2 * _LAYOUTS * 17, _WIDTH), _NUL, dtype=np.intp)
    widths = np.empty(len(classes), dtype=np.intp)
    positions = list(range(3, 20))
    for cls in range(len(classes)):
        sign, rest = divmod(cls, _LAYOUTS * 17)
        layout, n = divmod(rest, 17)
        n += 1
        cell = [_MINUS] if sign else []
        if layout < 20:
            p = layout - 3
            if p <= 0:
                cell += [_ZERO, _DOT] + [_ZERO] * -p + positions[:n]
            elif p < n:
                cell += positions[:p] + [_DOT] + positions[p:n]
            else:
                cell += positions[:p] + [_DOT, _ZERO]
        else:
            cell += positions[:1] + ([_DOT] + positions[1:n] if n > 1 else []) + [_E, _ESIGN]
            cell += [_ESIGN + 2, _ESIGN + 3] if layout == 20 else [_ESIGN + 1, _ESIGN + 2, _ESIGN + 3]
        classes[cls, :len(cell)] = cell
        widths[cls] = len(cell)
    return exponents, groups, trailing, exps, classes, widths


def _digits(bits, exponents):
    """The 17-digit significand (zero-padded on the right) and the decimal
    point position of each normal double in ``bits``."""
    t = bits & np.uint64((1 << 52) - 1)
    row = (((bits >> np.uint64(52)) & np.uint64(0x7FF)) | ((t == 0) * np.uint64(2048))).astype(np.intp)
    m = [column.take(row) for column in exponents[:5]]
    k, dl_int, dl_hi, dl_lo, dr_int, dr_hi, dr_lo = (column.take(row) for column in exponents[5:])
    cb = (t | np.uint64(1 << 52)) << np.uint64(2)
    c0, c1 = cb & _MASK28, cb >> np.uint64(28)
    # x 2^127 = M cb in 28-bit limbs: columns of limb products, then carries
    cols = [m[0] * c0] + [m[i] * c0 + m[i - 1] * c1 for i in range(1, 5)] + [m[4] * c1]
    for i in range(5):
        cols[i + 1] += cols[i] >> np.uint64(28)
        cols[i] &= _MASK28
    # floor(x), and the fraction of x as bits 64..126 and 0..63
    whole = (cols[5] << np.uint64(13)) | (cols[4] >> np.uint64(15))
    r_lo = cols[0] | (cols[1] << np.uint64(28)) | (cols[2] << np.uint64(56))
    r_hi = (cols[2] >> np.uint64(8)) | (cols[3] << np.uint64(20)) | ((cols[4] & np.uint64(0x7FFF)) << np.uint64(48))
    even = (t & np.uint64(1)) == 0
    # s 10^k <= v < (s + 1) 10^k, and floor(x) = 4s + a
    s = whole >> np.uint64(2)
    a = whole & np.uint64(3)
    down10 = s - s // np.uint64(10) * np.uint64(10)
    a10 = (down10 << np.uint64(2)) + a
    # As the JDK rounds the interval's ends, the integers floor(x) - i for
    # 0 <= i < left and floor(x) + i for 1 <= i <= right lie in it (its ends
    # count for even c only).  The candidates of the length of s are 4s and
    # 4s + 4, those one digit shorter 4s - 4 (s mod 10) and that plus 40; of
    # two candidates inside, the nearer to x wins, and 4s on an exact middle
    # (a = 2, no fraction) when s is even.
    near = dl_hi + (r_lo < dl_lo)
    left = dl_int + ((r_hi < near) | (even & (r_hi == near)))
    far = r_hi + dr_hi + (r_lo + dr_lo < r_lo)
    right = dr_int + (far >> np.uint64(63)) - (~even & ((far & _MASK63) == 0))
    u_in, w_in = a < left, right + a >= 4
    u10_in, w10_in = a10 < left, right + a10 >= 40
    down = (a < 2) | ((a == 2) & (r_hi == 0) & ((s & np.uint64(1)) == 0))
    up = np.where(u_in != w_in, w_in, ~down)
    f = np.where(u10_in != w10_in, s - down10 + w10_in * np.uint64(10), s + up)
    short = f < np.uint64(10**16)
    return np.where(short, f * np.uint64(10), f), k.view(np.int64) + 17 - short


def floats(values) -> np.ndarray:
    """``repr`` of each value, as an ``S`` array of the same shape."""
    values = np.asarray(values, dtype=np.float64)
    bits = np.ascontiguousarray(values).reshape(-1).view(np.uint64)
    chunks = [_cells(bits[lo:lo + _CHUNK]) for lo in range(0, max(bits.size, 1), _CHUNK)]
    return (chunks[0] if len(chunks) == 1 else np.concatenate(chunks)).reshape(values.shape)


def _cells(bits) -> np.ndarray:
    """``repr`` of each double in ``bits``, a 1-D ``S`` array."""
    exponents, groups, trailing, exps, classes, widths = _tables()
    f, point = _digits(bits, exponents)
    biased = bits & np.uint64(0x7FF << 52)
    zero = (bits << np.uint64(1)) == 0
    special = (biased == 0) ^ zero
    special |= biased == np.uint64(0x7FF << 52)
    f[zero] = 0
    point[zero] = 1
    # the 17 digits as a digit and four 4-digit groups, each its text in the
    # source row and its trailing zero count
    high, low = f // np.uint64(10**8), f % np.uint64(10**8)
    first = high // np.uint64(10**8)
    middle = high - first * np.uint64(10**8)
    parts = [first]
    for part in (middle, low):
        left = part // np.uint64(10_000)
        parts += [left, part - left * np.uint64(10_000)]
    parts = [part.astype(np.intp) for part in parts]
    source = np.empty((bits.size, 7), dtype=np.uint32)
    for col, part in enumerate(parts):
        source[:, col] = groups.take(part)
    source[:, 5] = np.frombuffer(b".-e\0", dtype=np.uint32)[0]
    source[:, 6] = exps.take(np.clip(point + 323, 0, 648))
    # significant digits: 17 less the trailing zeros, group by group from the last
    n = np.full(bits.size, 17, dtype=np.intp)
    run = np.ones(bits.size, dtype=bool)
    for part in parts[:0:-1]:
        n -= run * trailing.take(part)
        run &= part == 0
    n[zero] = 1
    layout = np.where((point >= -3) & (point <= 16), point + 3, 20 + (np.abs(point - 1) >= 100))
    cls = ((bits >> np.uint64(63)).astype(np.intp) * _LAYOUTS + layout) * 17 + n - 1
    fallback = [repr(v).encode() for v in bits[special].view(np.float64).tolist()]
    width = max([int(widths.take(cls).max(initial=1)), *map(len, fallback)])
    index = classes[:, :width].take(cls, axis=0)
    index += np.arange(0, 28 * bits.size, 28)[:, None]
    cells = source.view(np.uint8).reshape(-1).take(index).view(f"S{width}").reshape(-1)
    cells[special] = fallback
    return cells
