"""The one table format of every output: named columns as CSV or JSON.

A column is text if its values are strings and numeric otherwise.  CSV
cells are ``%.16e`` (17 significant digits; ``inf``, ``-inf`` and
``nan`` as Python prints them) for numeric columns and ``%s`` for text
columns.  JSON holds one list per column, numbers as floats and the
non-finite ones as the strings ``"inf"``, ``"-inf"`` and ``"nan"``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """The header line, then one line per row; a table without rows is its header."""
    arrays = [np.asarray(col) for col in columns]
    text = [a.dtype.kind in "US" for a in arrays]
    row_format = ",".join("%s" if t else "%.16e" for t in text)
    # Rows are read straight from the arrays: no per-cell copy of the table.
    cells = [a if t else a.astype(float, copy=False) for a, t in zip(arrays, text)]
    lines = [",".join(header)]
    lines.extend(row_format % row for row in zip(*cells))
    return "\n".join(lines) + "\n"


def _jsonable(v):
    if isinstance(v, str):
        return v
    v = float(v)
    if math.isfinite(v):
        return v
    return "inf" if v > 0 else ("-inf" if v < 0 else "nan")


def json_columns(header: Sequence[str], columns: Sequence) -> dict:
    """{name: values} in header order, ready for json.dumps."""
    return {name: [_jsonable(v) for v in col] for name, col in zip(header, columns)}
