"""The %.17g CSV text of float64 matrices, encoded in numpy blocks.

The bytes are exactly those of a per-cell writer: `'%.17g' % v` for each
cell, cells joined by ",", each row ended by "\\n", and a matrix with no
cells written as one "\\n" per row (one for no rows). They are encoded a
block of about BLOCK_VALUES values at a time, whole rows.

%.17g prints x in fixed notation when its decimal exponent e (of x
rounded to 17 significant digits) is in -4..16. For those values the 17
digits are the correctly rounded integer round(x * 10**(16 - e)), half
to even, as CPython's dtoa prints them. It is computed exactly: e from
log10, corrected by one where log10 misses, and x * 10**(16 - e) as
hi + lo by Dekker's two-product (10**k is an exact double for k <= 22).
A 4-digit table turns the integer into ASCII, written into a fixed
40-byte cell per value, and one np.compress keeps the bytes %.17g
prints, by a mask looked up from (e, sign, significant digits). What
%.17g prints in exponent form, zeros and non-finite values take `%`,
one value each.

On a 2-core machine that is ~100 ns a value against ~450 for `%`, plus
~80 us of numpy calls a block, so a CSV of fewer than ~200 values (a
short label column) is written slower than `%` would write it. The
lookup tables are built on the first write, so commands that write no
CSV pay nothing for them. Importing the module with the rest of titan,
not on the first write, costs every command ~1 ms of compiling when no
bytecode is cached, but a late import compiles it after the dataset
exists and adds ~0.3 MB to synth's peak RSS.
"""

from __future__ import annotations

import functools

import numpy as np

FLOAT_FMT = "%.17g"
# Values encoded at a time. Larger blocks run a little faster (writing the
# path24 dataset, 24 roads x 500 rows x 60 features: ~0.10 s at 1024,
# ~0.11 s at 768) but hold more temporaries, np.compress's index array the
# largest, and synth's peak RSS shows it (~0.1 MB more at 1024).
BLOCK_VALUES = 768
# A value's cell: sign and "0.000", then each of the 17 digits followed
# by a decimal point slot, the last slot holding the separator instead
# (%.17g never ends on a point). 40 bytes, so a cell is five uint64
# words: sign to first digit, then four digits a word.
_CELL_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", dtype=np.uint8)
_CELL = _CELL_TEMPLATE.size
# The decimal exponents %.17g prints in fixed notation.
_FIXED_MIN, _FIXED_MAX = -4, 16


def csv_chunks(M):
    """Yield the CSV bytes of the 2-D float64 matrix M in chunks of whole
    rows, about BLOCK_VALUES values a chunk."""
    n, p = M.shape
    if not M.size:
        yield b"\n" * max(n, 1)
        return
    rows = max(1, BLOCK_VALUES // p)
    # Every byte of a cell is written for each block, so no template fill.
    cells = np.empty((min(n, rows) * p, _CELL), dtype=np.uint8)
    seps = np.full(len(cells), ord(","), dtype=np.uint8)
    seps[p - 1::p] = ord("\n")
    for start in range(0, n, rows):
        v = M[start:start + rows].ravel()
        yield _encode(v, cells[:len(v)], seps[:len(v)])


@functools.cache
def _tables():
    """The encoder's lookup tables, built on the first write, read-only.

    lead[d]: a cell's first word, "-0.000d.", for the leading digit d.
    groups[g]: a later word, "d.d.d.d.", for the 4-digit group g.
    zeros[g]: the trailing zeros of g, 4 for 0.
    pow10, pow10_hi, pow10_lo: 10**k, exact for k = 0..22, and its split.
    keep[row]: which of a cell's bytes %.17g prints, as five uint64 words,
    row = (e + 4, sign, significant digits - 1) for the decimal exponents
    e of fixed notation, then one last row that keeps only the separator.
    """
    # Built with the integer ops _encode uses and small temporaries: each
    # newly touched numpy loop and each temporary adds to peak RSS.
    g = np.arange(10000)
    groups = np.full((10000, 8), ord("."), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * j] = 48 + (g // place - g // (place * 10) * 10)
    lead = np.tile(_CELL_TEMPLATE[:8], (10, 1))
    lead[:, 6] = 48 + np.arange(10)
    zeros = sum(g == g // 10 ** j * 10 ** j for j in range(1, 5))
    pow10 = np.array([float(10 ** k) for k in range(23)])
    pow10_hi, pow10_lo = _split(pow10)
    # keep, broadcast over (e, sign, nd = significant digits, byte).
    e = np.arange(_FIXED_MIN, _FIXED_MAX + 1)[:, None, None, None]
    sign = np.arange(2)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    byte = np.arange(_CELL)
    digit = np.zeros(_CELL, dtype=bool)
    digit[6::2] = True
    # e >= 0: d..d[.d..d], every integer digit, then the fraction's.
    # e < 0: 0.[0..0]d..d, -e - 1 zeros.
    keep = digit & ((byte - 6) // 2 < np.where(e >= 0, np.maximum(nd, e + 1), nd))
    keep = keep | ((e >= 0) & (nd > e + 1) & (byte == 7 + 2 * e))
    keep = keep | ((e < 0) & (byte >= 1) & (byte < 2 - e))
    keep = keep | ((sign == 1) & (byte == 0)) | (byte == _CELL - 1)
    keep = np.concatenate([keep.reshape(-1, _CELL), np.eye(_CELL, dtype=bool)[-1:]])
    tables = dict(lead=lead.view(np.uint64)[:, 0], groups=groups.view(np.uint64)[:, 0], zeros=zeros,
                  pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10_lo,
                  keep=keep.view(np.uint64))
    for table in tables.values():
        table.setflags(write=False)
    return tables


def _split(a):
    """Veltkamp's split of doubles into 26- and 27-bit halves, a = hi + lo."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a, e, t):
    """a * 10**(16 - e) exactly, as hi + lo (Dekker's two-product)."""
    k = 16 - e
    b, b_hi, b_lo = t["pow10"].take(k), t["pow10_hi"].take(k), t["pow10_lo"].take(k)
    hi = a * b
    a_hi, a_lo = _split(a)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _encode(v, cells, seps):
    """The %.17g text of the doubles v, each followed by its separator
    byte from seps; cells is a (len(v), 40) byte buffer to encode into."""
    t = _tables()
    a = np.abs(v)
    # Exactly the values %.17g prints in fixed notation (1e-4 is a double
    # above 10**-4, and none below it rounds up to 0.0001), nan excluded.
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    np.minimum(e, 16, out=e)
    hi, lo = _scaled(a, e, t)
    # log10 may be one off beside a power of ten: then the product leaves
    # [1e16, 1e17), and one step of e puts it back.
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        edge_hi, edge_lo = hi[edge], lo[edge]
        low = (edge_hi < 1e16) | ((edge_hi == 1e16) & (edge_lo < 0))
        wrong = low | (edge_hi > 1e17) | ((edge_hi == 1e17) & (edge_lo >= 0))
        off = edge[wrong]
        e[off] += np.where(low[wrong], -1, 1)
        hi[off], lo[off] = _scaled(a[off], e[off], t)
    # Doubles in [1e16, 1e17] are even integers, so rounding hi + lo half
    # to even is hi + rint(lo). It never carries to 10**17: no double below
    # a power of ten from 1e-4 to 1e17 lies within half a 17th digit of it
    # (were one to, the lead digit lookup below would raise IndexError).
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # The digits: the leading one, then four groups of four. All integer
    # ops stay in int64 and the sign comes from np.where: each further
    # numpy loop (int32 arithmetic, np.signbit) adds its code to peak RSS.
    top = n // 10 ** 8
    halves = np.empty((2, len(n)), dtype=np.int64)
    halves[0], halves[1] = top, n - top * 10 ** 8
    high = halves // 10000
    groups = np.empty((4, len(n)), dtype=np.int64)
    groups[1::2] = halves - high * 10000
    lead = high[0] // 10000
    groups[0], groups[2] = high[0] - lead * 10000, high[1]
    words = cells.view(np.uint64)
    words[:, 0] = t["lead"].take(lead)
    words[:, 1:] = t["groups"].take(groups).T
    cells[:, -1] = seps
    # Significant digits: 17 less the trailing zeros, most often all in the last group.
    trailing = t["zeros"].take(groups[3])
    for j in (2, 1, 0):
        more = np.flatnonzero(trailing == 4 * (3 - j))
        if not more.size:
            break
        trailing[more] += t["zeros"].take(groups[j][more])
    # keep's row: (e + 4) * 34, + 17 if negative, + significant digits - 1.
    row = (e - _FIXED_MIN) * 34 + np.where(v < 0, 17 + 16, 16) - trailing
    slow = np.flatnonzero(~fixed)
    row[slow] = len(t["keep"]) - 1
    cells[slow, -1] = 0  # a NUL for `%` to fill in, then the separator
    data = np.compress(t["keep"].take(row, axis=0).view(bool).ravel(), cells.ravel()).tobytes()
    if not slow.size:
        return data
    pieces, start = [], 0
    for x, sep in zip(v[slow].tolist(), seps[slow].tolist()):
        end = data.index(b"\0", start)
        pieces += [data[start:end], (FLOAT_FMT % x).encode("ascii"), bytes((sep,))]
        start = end + 1
    pieces.append(data[start:])
    return b"".join(pieces)
