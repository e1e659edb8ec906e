"""The one table format of every output: named columns as CSV or JSON.

A column is text if its values are strings and numeric otherwise.  CSV
cells are ``%.16e`` (17 significant digits; ``inf``, ``-inf`` and
``nan`` as Python prints them) for numeric columns and ``%s`` for text
columns.  JSON holds one list per column, numbers as floats and the
non-finite ones as the strings ``"inf"``, ``"-inf"`` and ``"nan"``.

CSV is made as a stream of byte blocks of at most ``_BLOCK_CELLS``
cells, which bounds the temporaries whatever the size of the table, and
files are written atomically: to ``<name>.tmp``, then renamed.  Every
JSON file (tables and sidecars) is ``write_json``'s two-space indented
dump and a newline.

Numeric cells are formatted by numpy, not one ``%`` at a time, and are
byte-identical to ``'%.16e' % float(x)``: the correctly rounded 17-digit
decimal of x, ties to even.  For finite x with 1e-280 < |x| < 1e280 the
formatter finds E with 10**E <= |x| < 10**(E+1) exactly (the estimate
``floor(log10|x|)``, then one comparison each way against 10**E and
10**(E+1) held as double-doubles) and forms y = |x| 10**(16-E), which
lies in [1e16, 1e17), as p + t.  Here hi + lo is 10**(16-E) to 2**-105
relative, p = |x| hi rounded, and t = (the exact rounding error of that
product, by Dekker's TwoProduct) + |x| lo.  As p > 2**53 is an integer,
the digits are p + floor(t), plus one when frac = t - floor(t) exceeds
1/2; a result of 10**17 carries to 10**16 with E + 1.  The error of
p + t against the exact y is below 1e-14: at most 2.5e-15 from the
table, 8.9e-16 from rounding |x| lo (below 11.2) and 1.8e-15 from
rounding the sum t (below 20).  So wherever |frac - 1/2| > 1e-6 the
rounding decision is the exact one.  An error that carries y across an
integer moves p + floor(t) and frac by one together, and the rounded
digits stay the same.

Python's ``%`` formats the cells that fall back: 0 and -0, inf, -inf
and nan, |x| <= 1e-280 and |x| >= 1e280 (where the low parts of the
table or Dekker's split would leave double precision), and every cell
with |frac - 1/2| <= 1e-6, which holds all true ties.  The tables are
built on first use, with int arithmetic only, so importing the module
costs nothing.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_BLOCK_CELLS = 16384
_K_MIN, _K_MAX = -300, 300  # the powers of ten held as double-doubles
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
# A numeric cell is a NUL-padded slot of 7 uint32 words: [NUL, sign, lead
# digit, '.'], four words of four digits, and e+XX(X) in two words whose
# last byte is left free for the separator.  The widest cell,
# -1.7976931348623157e+308, takes 24 of the 28 bytes.
_WORDS = 7


def _words(chunks: list[bytes], width: int) -> np.ndarray:
    """The chunks NUL-padded to ``width`` bytes each, as rows of uint32 words."""
    data = b"".join(chunk.ljust(width, b"\0") for chunk in chunks)
    return np.frombuffer(data, np.uint32).reshape(len(chunks), width // 4)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10**k as double-double (hi, lo) and Dekker's split of hi, for k in
    [_K_MIN, _K_MAX]; the slot words of the sign with the lead digit, of
    the four-digit groups and of the exponents _K_MIN.._K_MAX (two words)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            exact = 10**k
            hi.append(float(exact))  # int -> float rounds correctly
            lo.append(float(exact - int(hi[-1])))
        else:
            den = 10**-k
            hi.append(1 / den)  # int true division rounds correctly
            num, pow2 = hi[-1].as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))  # 10**k - hi, rounded
    hi = np.array(hi)
    scaled = _SPLIT * hi
    split_hi = scaled - (scaled - hi)
    heads = [b"\0" + sign + b"%d." % lead for sign in (b"", b"-") for lead in range(10)]
    groups = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    tables = (
        hi,
        np.array(lo),
        split_hi,
        hi - split_hi,
        _words(heads, 4)[:, 0],
        groups.astype(np.uint8).view(np.uint32)[:, 0],
        *_words([b"e%+03d" % e for e in range(_K_MIN, _K_MAX + 1)], 8).T.copy(),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _at_least(mag: np.ndarray, k: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """mag >= 10**k exactly, 10**k being hi + lo at index k - _K_MIN."""
    h = hi[k - _K_MIN]
    return (mag > h) | ((mag == h) & (lo[k - _K_MIN] <= 0.0))


def format_e16(values: np.ndarray) -> np.ndarray:
    """(n, 7) uint32: each float64 value as the bytes of ``'%.16e' % v``,
    in a NUL-padded 28-byte slot whose last byte is NUL."""
    hi, lo, split_hi, split_lo, heads, groups, exp_head, exp_tail = _tables()
    mag = np.abs(values)
    fast = (mag > 1e-280) & (mag < 1e280)
    x = np.where(fast, mag, 1.0)  # the other cells are overwritten below
    e = np.floor(np.log10(x)).astype(np.intp)
    e += _at_least(x, e + 1, hi, lo)
    e -= ~_at_least(x, e, hi, lo)
    k = 16 - e - _K_MIN
    p = x * hi[k]
    scaled = _SPLIT * x
    x_hi = scaled - (scaled - x)
    x_lo = x - x_hi
    a_hi, a_lo = split_hi[k], split_lo[k]
    t = ((((x_hi * a_hi - p) + x_hi * a_lo) + x_lo * a_hi) + x_lo * a_lo) + x * lo[k]
    floor_t = np.floor(t)
    frac = t - floor_t
    d = p.astype(np.int64) + floor_t.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    # Division by a scalar is fast in numpy, % is not: remainders are formed by hand.
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    out = np.empty((values.size, _WORDS), np.uint32)
    out[:, 0] = heads[lead + 10 * (values < 0.0)]
    for word, group in ((1, upper), (3, lower)):
        high = group // 10**4
        out[:, word] = groups[high]
        out[:, word + 1] = groups[group - high * 10**4]
    out[:, 5] = exp_head[e - _K_MIN]
    out[:, 6] = exp_tail[e - _K_MIN]

    slow = np.flatnonzero(~fast | (np.abs(frac - 0.5) <= 1e-6))
    if slow.size:
        out[slow] = _words([b"%.16e" % v for v in values[slow].tolist()], 4 * _WORDS)
    return out


def _text_words(values) -> np.ndarray:
    """(n, w) uint32: each value as the UTF-8 bytes of ``'%s' % v``,
    NUL-padded, with the last byte left free."""
    cells = [("%s" % v).encode() for v in values]
    return _words(cells, 4 * (max(map(len, cells)) // 4 + 1))


def csv_blocks(header: Sequence[str], columns: Sequence) -> Iterator[bytes]:
    """The CSV as bytes: the header line, then the rows in blocks of at
    most ``_BLOCK_CELLS`` cells.  Text cells may not contain NUL."""
    yield (",".join(header) + "\n").encode()
    arrays = [np.asarray(col) for col in columns]
    if not arrays:
        return
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("table columns differ in length")
    text = [a.dtype.kind in "US" for a in arrays]
    numeric = [a for a, t in zip(arrays, text) if not t]
    step = max(1, _BLOCK_CELLS // len(arrays))
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        cells = np.empty((rows.stop - start, len(numeric)))
        for j, a in enumerate(numeric):
            cells[:, j] = a[rows]
        lines = format_e16(cells.ravel()).reshape(len(cells), -1)
        widths = [_WORDS] * len(arrays)
        if len(numeric) < len(arrays):
            slots = iter(np.hsplit(lines, len(numeric)) if numeric else ())
            parts = [_text_words(a[rows]) if t else next(slots) for a, t in zip(arrays, text)]
            lines = np.concatenate(parts, axis=1)
            widths = [part.shape[1] for part in parts]
        line_bytes = lines.view(np.uint8)
        line_bytes[:, 4 * np.cumsum(widths) - 1] = ord(",")
        line_bytes[:, -1] = ord("\n")
        yield line_bytes.tobytes().translate(None, b"\0")


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """The header line, then one line per row; a table without rows is its header."""
    return b"".join(csv_blocks(header, columns)).decode()


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``<path>.tmp``, then rename it to ``path``.

    If making or writing a chunk raises, the temp file is removed and an
    existing ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write the table as CSV to ``path``, atomically and in row blocks."""
    write_atomic(path, csv_blocks(header, columns))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON and a newline to ``path``, atomically."""
    write_atomic(path, [(json.dumps(payload, indent=2) + "\n").encode()])


def json_columns(header: Sequence[str], columns: Sequence) -> dict:
    """{name: values} in header order, ready for json.dumps."""
    payload = {}
    for name, col in zip(header, columns):
        a = np.asarray(col)
        if a.dtype.kind in "US":
            payload[name] = list(col)
            continue
        a = a.astype(float, copy=False)
        values = a.tolist()
        for i in np.flatnonzero(~np.isfinite(a)):
            values[i] = "inf" if a[i] > 0 else ("-inf" if a[i] < 0 else "nan")
        payload[name] = values
    return payload
