"""Row-oriented CSV/JSON serialization shared by the CLI and the
determinism checks.

Probabilities carry 17 significant digits so an emitted table re-ingests
bit-identically.
"""

from __future__ import annotations

import csv
import io
import json


def format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV text; only fields holding a comma, quote or newline are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(c, "")) for c in columns])
    return buf.getvalue()


def rows_to_json(rows: list[dict], columns: list[str]) -> str:
    ordered = [{c: row.get(c) for c in columns if c in row} for row in rows]
    return json.dumps(ordered, indent=1) + "\n"


def serialize(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows, columns)
    if fmt == "json":
        return rows_to_json(rows, columns)
    raise ValueError(f"unknown output format '{fmt}'")
