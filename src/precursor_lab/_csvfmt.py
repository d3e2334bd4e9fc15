"""CSV tables of float64 columns, the bytes ``np.savetxt(fh, data, fmt="%.17g", delimiter=",")`` writes.

``write_tables(header, shared, files)`` writes each ``(path, columns)`` of
``files`` as a CSV: the ``header`` line, then rows of the ``shared`` columns
followed by the file's own, all of one length.  Blocks of
``_CSV_BLOCK_ROWS`` rows are the outer loop.  ``layout(values, seps)`` lays
out a block's columns, ``shared`` first, whole columns side by side in calls
of up to ``_CSV_BLOCK_ROWS`` values (each call has a fixed cost), as
``(30, values)`` uint8 blocks: row ``i`` holds character ``i`` of every
value's text and its column's separator, and unused bytes are 0.  A block's
table is one C-order ``(rows, 30 * columns)`` uint8 buffer that holds
column ``i``'s block, transposed, in bytes ``30 i ... 30 i + 29`` of each
row.  The ``shared`` columns are copied in once per block; each file
overwrites the rest with its own and writes ``join(chars)``, the buffer's
bytes without its zeros, which are the table's rows as text.

The 17 significant digits of x come from an exact product.  With
k = floor(log10|x|) and 10^(16-k) = (hi + lo) 2^s taken from a table of
double-double pairs, y = |x| 2^s is exact and y*hi = p + err exactly (Dekker's
product), so D = p + rint(err + y*lo) is |x| 10^(16-k) rounded to an integer,
with an error near 1e-14 units before the rounding.  A value falls back to
Python's own ``'%.17g' % x`` when that is not conclusive: when the fraction
lies within 1e-6 of one half (a tie, or too close to one to tell), when the
guess of k was off (p <= 1e16 or D >= 1e17), and when x is not finite.  Every
step is float64 or integer arithmetic, so there is one code path on every
platform.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

__all__ = ["write_tables"]

# rows formatted per write, and values per layout call
_CSV_BLOCK_ROWS = 4096

# bytes per value: sign, "0." and up to three zeros, 17 digits with the one
# point among them, "e", the exponent's sign and three digits, the separator
_WIDTH = 30
_LEAD, _DIGITS, _EXP, _SEP = 1, 6, 24, 29

_JMIN, _JMAX = -292, 340  # 10^j for every j = 16 - k of a finite nonzero double
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_TIE = 0.499999  # a fraction this close to one half falls back

_PAIR_DIVISORS = np.array([10**8, 10**6, 10**4, 100, 1, 10**6, 10**4, 100, 1], np.uint32)[:, None]
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_LEAD_ZEROS = np.array([-1, -2, -3], np.int16)[:, None]  # k below these needs 1, 2, 3 zeros
_U8 = np.uint8
_MINUS, _PLUS, _POINT, _ZERO, _E = (_U8(ord(c)) for c in "-+.0e")


@functools.cache
def _powers():
    """Tables of 10^j = (hi + lo) 2^s for j = _JMIN ... _JMAX: hi's halves, hi, lo, s.

    hi is an integer in [2^52, 2^53) and lo the rest, rounded to a double;
    built from Python integers on first use.
    """
    rows, shifts = [], []
    for j in range(_JMIN, _JMAX + 1):
        if j >= 0:
            n = 10**j
            s = n.bit_length() - 53
            hi = n >> s if s > 0 else n << -s
            lo = (n - (hi << s)) / (1 << s) if s > 0 else 0.0
        else:
            q = 10**-j
            s = -(52 + q.bit_length())
            hi, rest = divmod(1 << -s, q)
            lo = rest / q
        rows.append((float(hi), lo))
        shifts.append(s)
    hi, lo = np.array(rows).T
    t = hi * _SPLIT
    hh = t - (t - hi)
    return hh, hi - hh, hi, lo, np.array(shifts, dtype=np.int32)


def _digits(x: np.ndarray):
    """``(D, k, fallback)``: |x| rounds to D 10^(k-16), D of 17 digits; D = k = 0 for a zero.

    ``fallback`` marks the values whose D and k are not conclusive.
    """
    a = np.abs(x)
    finite = (a > 0.0) & (a < np.inf)
    special = not finite.all()
    if special:
        a[~finite] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    j = (16 - _JMIN - k).astype(np.intp)
    hh, hl, hi, lo, shifts = _powers()
    y = np.ldexp(a, shifts.take(j))  # exact: y lies in [1, 23)
    p = y * hi.take(j)
    yh = y * _SPLIT
    yh -= yh - y
    yl = y - yh
    h, l = hh.take(j), hl.take(j)
    err = yh * h  # err = y*hi - p, exactly, then + y*lo
    err -= p
    t = yh * l
    err += t
    np.multiply(yl, h, out=t)
    err += t
    np.multiply(yl, l, out=t)
    err += t
    np.multiply(y, lo.take(j), out=t)
    err += t
    units = np.rint(err)
    D = p.astype(np.int64)
    D += units.astype(np.int64)
    err -= units
    fallback = np.abs(err) > _TIE
    fallback |= p <= 1e16
    fallback |= D >= 10**17
    k = k.astype(np.int16)
    if special:
        zero = x == 0.0
        fallback = np.where(finite, fallback, ~zero)  # zeros lay out as "0" and "-0"
        D[zero] = 0
        k[zero] = 0
    return D, k, fallback


def layout(values, seps: str) -> np.ndarray:
    """The ``(30, values)`` uint8 block of ``'%.17g' % v + sep`` for each of ``values``.

    ``values`` is ``len(seps)`` columns of equal length, concatenated, and
    column j's values take separator ``seps[j]``.  Row i holds character i of
    every value's text; unused bytes are 0.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    out = np.empty((_WIDTH, n), np.uint8)
    with np.errstate(all="ignore"):
        D, k, fallback = _digits(x)
    sci = (k < -4) | (k > 16)
    lead = (k < 0) & ~sci  # "0." and -k-1 zeros before the digits
    lead8, sci8 = lead.view(np.uint8), sci.view(np.uint8)
    out[0] = np.signbit(x).view(np.uint8) * _MINUS
    out[_LEAD] = lead8 * _ZERO
    out[_LEAD + 1] = lead8 * _POINT
    np.multiply(lead & (k < _LEAD_ZEROS), _ZERO, out=out[_LEAD + 2 : _DIGITS])

    # the digits in pairs: a leading 0 and d0, then d1 d2, ..., d15 d16
    hi = D // 10**8
    q = np.empty((9, n), np.uint32)
    np.floor_divide(hi.astype(np.uint32), _PAIR_DIVISORS[:5], out=q[:5])
    np.floor_divide((D - hi * 10**8).astype(np.uint32), _PAIR_DIVISORS[5:], out=q[5:])
    q -= (q // 100) * 100  # q %= 100; numpy's % is several times slower
    q = q.astype(np.uint8)
    tens = q // _U8(10)
    q -= tens * _U8(10)
    digits = np.zeros((19, n), np.uint8)  # digit i in row i + 1; rows 0 and 18 stay 0
    np.add(tens[1:], _ZERO, out=digits[2:18:2])
    np.add(q, _ZERO, out=digits[1:19:2])

    # keep digit i when a non-zero digit follows, or when it is an integer
    # digit; d0 always is one
    keep = digits[1:18] != _ZERO
    for i in range(15, 0, -1):
        keep[i] |= keep[i + 1]
    last = np.where(lead | sci, 0, k).astype(np.uint8)  # the last integer digit
    keep |= _SLOT[:17] <= last
    digits[1:18] *= keep
    kept = keep.view(np.uint8).sum(axis=0, dtype=np.uint8)
    # the point follows digit `last` when a kept digit follows it: slot i
    # holds digit i up to the point, the point, then digit i - 1
    point = np.where(lead | (kept <= last + _U8(1)), _U8(17), last)
    shifted = digits[:-1]
    region = digits[1:] - shifted
    region *= (_SLOT <= point).view(np.uint8)
    region += shifted
    region += (_POINT - shifted) * (_SLOT == point + _U8(1)).view(np.uint8)
    out[_DIGITS:_EXP] = region

    e = np.abs(k)
    hundreds = (e // 100).astype(np.uint8)
    e -= hundreds * np.int16(100)
    e = e.astype(np.uint8)
    tens = e // _U8(10)
    out[_EXP] = sci8 * _E
    out[_EXP + 1] = sci8 * np.where(k < 0, _MINUS, _PLUS)
    out[_EXP + 2] = (hundreds + _ZERO) * (sci8 & (hundreds > 0).view(np.uint8))
    out[_EXP + 3] = (tens + _ZERO) * sci8
    out[_EXP + 4] = (e - tens * _U8(10) + _ZERO) * sci8
    out[_SEP].reshape(len(seps), -1)[:] = np.frombuffer(seps.encode(), np.uint8)[:, None]

    if fallback.any():
        rows = np.flatnonzero(fallback)
        text = "".join(("%.17g" % v).ljust(_SEP, "\0") for v in x[rows].tolist())
        out[:_SEP, rows] = np.frombuffer(text.encode(), np.uint8).reshape(rows.size, _SEP).T
    return out


def join(chars) -> bytes:
    """The text of the table buffer ``chars``: its bytes in C order, zeros dropped."""
    # bytes.translate drops them in one C pass, ahead of numpy's boolean index
    return chars.tobytes().translate(None, b"\0")


def _layouts(columns, seps: str):
    """Yield the ``(30, rows)`` layout of each of ``columns``, with its separator, in shared calls."""
    rows = len(columns[0])
    per_call = max(1, _CSV_BLOCK_ROWS // rows)
    for i in range(0, len(columns), per_call):
        laid = layout(np.concatenate(columns[i : i + per_call]), seps[i : i + per_call])
        for j in range(0, laid.shape[1], rows):
            yield laid[:, j : j + rows]


def write_tables(header: str, shared, files) -> None:
    """Write each ``(path, columns)`` of ``files`` as a CSV whose rows are ``shared`` then ``columns``."""
    with contextlib.ExitStack() as stack:
        handles = []
        for path, columns in files:
            fh = stack.enter_context(open(path, "wb"))
            fh.write(header.encode() + b"\n")
            handles.append((fh, columns))
        n = len(files[0][1][0])
        width = len(shared) + len(files[0][1])
        slots = [slice(_WIDTH * i, _WIDTH * (i + 1)) for i in range(width)]
        seps = "," * (width - 1) + "\n"
        seps = seps[: len(shared)] + seps[len(shared) :] * len(files)
        buf = np.empty((min(n, _CSV_BLOCK_ROWS), _WIDTH * width), np.uint8)
        for start in range(0, n, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            chars = buf[: min(n - start, _CSV_BLOCK_ROWS)]
            laid = _layouts([c[rows] for c in shared] + [c[rows] for _, cs in handles for c in cs], seps)
            for slot, block in zip(slots[: len(shared)], laid):
                chars[:, slot] = block.T
            for fh, _ in handles:
                for slot, block in zip(slots[len(shared) :], laid):
                    chars[:, slot] = block.T
                fh.write(join(chars))
