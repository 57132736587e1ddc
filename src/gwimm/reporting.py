"""Column-wise CSV/JSON serialization shared by the CLI and the
determinism checks.

A table is a dict from column name to column, in column order.  A column
is a 1-D numpy array, a list, or one value repeated on every row; the
arrays and lists of a table have one length, and a table of single values
has one row.  None marks a missing value: an empty CSV field, JSON null.

Probabilities carry 17 significant digits so an emitted table re-ingests
bit-identically.  CSV is built a column at a time; only fields holding a
comma, quote, CR or LF are quoted.
"""

from __future__ import annotations

import json
import re

import numpy as np

_SPECIAL = re.compile(r'[,"\r\n]')


def format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return "" if v is None else str(v)


def _quoted(cells: list[str]) -> list[str]:
    """Each cell holding a comma, quote, CR or LF quoted, its quotes doubled."""
    if not _SPECIAL.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _SPECIAL.search(c) else c for c in cells]


def _csv_cells(col, n_rows: int):
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiub":
        return map("{:.17g}".format if col.dtype.kind == "f" else str, col.tolist())
    if isinstance(col, (list, np.ndarray)):
        return _quoted(list(map(format_value, col)))
    return _quoted([format_value(col)]) * n_rows


def _values(col, n_rows: int):
    if isinstance(col, np.ndarray):
        return col.tolist()
    return col if isinstance(col, list) else [col] * n_rows


def serialize(table: dict, fmt: str) -> str:
    """CSV text (a header line, then a line per row) or JSON (a list of row objects)."""
    lengths = {len(c) for c in table.values() if isinstance(c, (list, np.ndarray))}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 1
    if fmt == "csv":
        lines = [",".join(_quoted(list(table)))]
        lines += map(",".join, zip(*(_csv_cells(c, n_rows) for c in table.values())))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = zip(*(_values(c, n_rows) for c in table.values()))
        return json.dumps([dict(zip(table, row)) for row in rows], indent=1) + "\n"
    raise ValueError(f"unknown output format '{fmt}'")
