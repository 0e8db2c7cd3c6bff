"""Decimal text of float columns as uint8 cells whose bytes, NULs dropped, are ``format``'s.

|x| 10^k is a double-double power times x by Dekker's two-product (numpy fuses no
operations), so its integer part and fraction f are exact to about 1e-14 in f.  Values with
f within 1e-9 of 1/2 (ties), non-finite ones and those past the power table go to ``format``.
"""

from __future__ import annotations

import functools

import numpy as np

_K = 250  # the power table holds 10^k for |k| <= _K
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for doubles
_TIE = 1e-9  # fractions this close to 1/2 are rounded by format itself
_DOT, _ZERO, _MINUS = 46, 48, 45
CHUNK = 8192  # lines of text per matrix of cells: the CSV and SVG writers join this many at once


@functools.cache
def _tables():
    """10^k as hi + lo (hi split in halves), from integers on first use; and the ASCII
    4-digit groups as written, with trailing zeros as NULs and with leading zeros as NULs."""
    hi, lo = np.empty(2 * _K + 1), np.empty(2 * _K + 1)
    for i, k in enumerate(range(-_K, _K + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = num / den
        a, b = hi[i].as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    hh = c - (c - hi)
    g, p = np.arange(10_000)[:, None], 10 ** np.arange(3, -1, -1)  # p: the digit's place
    ascii4 = g // p % 10 + _ZERO
    zero = ascii4 == _ZERO  # a NUL where only zeros follow it, or where only zeros lead to it
    groups = [ascii4, ascii4 * ~(zero & (g % p == 0)), ascii4 * ~(zero & (g // p < 10))]
    return hi, hh, hi - hh, lo, np.concatenate(groups).astype(np.uint8).view("<u4").ravel()


def _estimate(a):
    """floor(log10 a); it may be one off near powers of ten, which _digits17 corrects."""
    return np.floor(np.log10(a)).astype(np.int64)


def _scaled(a, k):
    """(N, f) with N + f = a * 10^k, N an int64 and 0 <= f < 1."""
    hi, hh, hl, lo = (t[k + _K] for t in _tables()[:4])
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    q = np.floor(p)
    r = (p - q) + (err + a * lo)
    t = np.floor(r)
    return q.astype(np.int64) + t.astype(np.int64), r - t


def _digits(n, trailing: bool):
    """(len, 20) uint8: the 17 digits of n < 10^17 in columns 3..19, the trailing (or
    leading) zeros as NULs."""
    groups = _tables()[4]
    hi = n // 10**8  # numpy's remainder is slow: a - a // p * p stands in for a % p
    head, lo = hi // 10**8, n - hi * 10**8
    hi = hi - head * 10**8
    g = [hi // 10**4, lo // 10**4]
    g = [g[0], hi - g[0] * 10**4, g[1], lo - g[1] * 10**4]
    buf = np.empty((n.size, 5), "<u4")
    buf[:, 0] = np.where(head == 0, 0, head + _ZERO).astype("<u4") << 24
    stripped = 10_000 if trailing else 20_000  # where the table's stripped groups start
    zeros = np.full(n.size, True) if trailing else head == 0  # the group's zeros are NULs
    for j in (4, 3, 2, 1) if trailing else (1, 2, 3, 4):
        buf[:, j] = groups[g[j - 1] + stripped * zeros]
        zeros &= g[j - 1] == 0
    return buf.view(np.uint8)


def _digits17(a):
    """(N, e, tie): a = N 10^(e - 16) rounded, 10^16 <= N < 10^17; tie marks rows to redo."""
    e = _estimate(a)
    n, f = _scaled(a, 16 - e)
    for _ in range(2):  # log10 puts the estimate at most one off; two rounds allow two
        off = (n >= 10**17).astype(np.int64) - (n < 10**16)
        bad = np.flatnonzero(off)
        if not bad.size:
            break
        e[bad] += off[bad]
        n[bad], f[bad] = _scaled(a[bad], 16 - e[bad])
    tie = (np.abs(f - 0.5) <= _TIE) | (n < 10**16) | (n >= 10**17)
    n += f > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry, tie


def _fallback(x, fmt, rows, out):
    """out, widened as needed, with format(x[i], fmt) in row i for each i in rows."""
    text = [format(float(x[i]), fmt).encode() for i in rows]
    out = np.pad(out, ((0, 0), (0, max(0, max(map(len, text)) - out.shape[1]))))
    for i, s in zip(rows, text):
        out[i] = np.frombuffer(s.ljust(out.shape[1], b"\0"), np.uint8)
    return out


def _layout17(n, e):
    """(len, 24) cells of the ".17g" texts of n 10^(e - 16), the sign column empty."""
    d = _digits(n, trailing=True)[:, 3:]  # trailing zeros stripped; the point goes if all do
    cls = np.where((e < -4) | (e > 16), 17, e)  # the layout: runs of one are slice copies
    many = np.count_nonzero(np.diff(cls)) > 64  # then the rows are sorted by layout
    order = np.argsort(cls, kind="stable") if many else slice(None)
    cls, d, e = cls[order], d[order], e[order]
    out = np.zeros((n.size, 24), np.uint8)  # "-4.9406564584124654e-324" is the longest
    cuts = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    for i, j in zip([0, *cuts], [*cuts, cls.size]) if n.size else ():
        c, o, dd = int(cls[i]), out[i:j], d[i:j]
        if c == 17:  # d.ddde+XX
            o[:, 1], o[:, 3:19], o[:, 19] = dd[:, 0], dd[:, 1:], ord("e")
            o[:, 2] = (dd[:, 1] != 0) * np.uint8(_DOT)
            m = np.abs(e[i:j])
            o[:, 20] = np.where(e[i:j] < 0, _MINUS, ord("+"))
            o[:, 21] = (m // 100 + _ZERO) * (m >= 100)
            o[:, 22], o[:, 23] = m // 10 % 10 + _ZERO, m % 10 + _ZERO
        elif c >= 0:  # ddd.ddd: the integer part keeps its zeros
            np.bitwise_or(dd[:, :c + 1], _ZERO, out=o[:, 1:c + 2])
            if c < 16:
                o[:, c + 2] = (dd[:, c + 1] != 0) * np.uint8(_DOT)
                o[:, c + 3:19] = dd[:, c + 1:]
        else:  # 0.000ddd
            o[:, 1:2 - c] = _ZERO
            o[:, 2] = _DOT
            o[:, 2 - c:19 - c] = dd
    if many:
        out[order] = out.copy()
    return out


def _g17(x):
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.flatnonzero((a >= 10.0 ** (18 - _K)) & (a < 10.0 ** (_K + 14)))
    n, e, tie = _digits17(a[inside])
    if inside.size == x.size:
        out = _layout17(n, e)
    else:
        out = np.zeros((x.size, 24), np.uint8)
        out[inside] = _layout17(n, e)
        out[a == 0, 1] = _ZERO
    redo = np.union1d(np.flatnonzero(out[:, 1] == 0), inside[tie])
    neg = np.signbit(x)
    out[:, 0] = neg * np.uint8(_MINUS)
    # the columns no row uses go: the sign's, and those past the longest layout
    sci = e.size and (e.min() < -4 or e.max() > 16)
    out = out[:, 0 if neg.any() else 1:24 if sci else 19 - min(e.min(initial=0), 0)]
    return _fallback(x, ".17g", redo, out) if redo.size else out


def _fixed(n, neg, decimals):
    """Cells of the integers n (< 10^17) shown with the given decimals, signs from neg."""
    buf = _digits(n, trailing=False)
    u = 19 - decimals  # the units digit's column
    buf[:, u:] |= _ZERO  # the units digit and the decimals keep their zeros
    sign = (neg * np.uint8(_MINUS))[:, None]
    dot = np.full((n.size, min(decimals, 1)), _DOT, np.uint8)
    out = np.concatenate([sign, buf[:, 3:u + 1], dot, buf[:, u + 1:]], axis=1)
    # the columns no row uses go: the sign's, and the leading zeros of every row
    whole = len(str(int(n.max(initial=0)) // 10**decimals))
    return out[:, 0 if neg.any() else 18 - decimals - whole:]


def _f6(x):
    a = np.abs(x)
    inside = a < 1e11  # False for NaN
    n, f = _scaled(np.where(inside, a, 0.0), 6)
    redo = np.flatnonzero(~inside | (np.abs(f - 0.5) <= _TIE))
    out = _fixed(n + (f > 0.5), np.signbit(x), 6)
    return _fallback(x, ".6f", redo, out) if redo.size else out


def cells(x, fmt: str) -> np.ndarray:
    """(len(x), width) uint8 cells of x in fmt: ".17g", ".6f" or "d" (integers < 10^17).
    A run of equal bit patterns (so -0.0 is not 0.0, nor one NaN another) is formatted once."""
    x = np.asarray(x).ravel()
    if fmt == "d":
        return _fixed(x.astype(np.int64), np.zeros(x.size, bool), 0)
    x, cell = np.asarray(x, np.float64), {".17g": _g17, ".6f": _f6}[fmt]
    bits = x.view(np.int64)
    new = bits[1:] != bits[:-1]
    if new.all():
        return cell(x)
    first = np.flatnonzero(np.concatenate([[True], new]))
    return np.repeat(cell(x[first]), np.diff(first, append=x.size), axis=0)


def join(parts) -> str:
    """The lines of parts side by side, NULs dropped, as one string.  A part is bytes that
    every line holds, or cells, one row per line; the lines past a part's rows have none."""
    rows = max(len(p) for p in parts if isinstance(p, np.ndarray))
    parts = [(p, len(p)) if isinstance(p, np.ndarray) else (np.frombuffer(p, np.uint8), rows)
             for p in parts]
    mat = np.empty((rows, sum(p.shape[-1] for p, _ in parts)), np.uint8)
    at = 0
    for p, k in parts:
        mat[:k, at:at + p.shape[-1]] = p
        mat[k:, at:at + p.shape[-1]] = 0
        at += p.shape[-1]
    return str(mat[mat != 0], "utf-8")
