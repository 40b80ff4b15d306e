"""Report assembly and CSV/JSON serialization for experiment results.

Floats are serialized twice: a 6-significant-digit display field plus a
full-precision companion suffixed ``_raw``.  Output never includes
run-environment details (worker count, timestamps), so files from identical
configurations are byte-identical.
"""

from __future__ import annotations

import io
import json

import numpy as np


def _is_float(v) -> bool:
    return isinstance(v, (float, np.floating))


def _expand_row(row: dict, num=str) -> dict:
    """Each float of ``row`` as its 6-digit field and ``_raw`` twin, both
    of type ``num`` (``str`` for CSV and text, ``float`` for JSON)."""
    out = {}
    for k, v in row.items():
        if _is_float(v):
            out[k] = num(format(float(v), ".6g"))
            out[f"{k}_raw"] = num(repr(float(v)))
        elif isinstance(v, (int, np.integer)):
            out[k] = int(v)
        else:
            out[k] = v
    return out


def make_table(name: str, rows: list[dict]) -> dict:
    columns = []
    for row in rows:
        for k in row:
            if k not in columns:
                columns.append(k)
    return {"name": name, "columns": columns, "rows": rows}


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    buf.write("# " + json.dumps(report.get("meta", {}), sort_keys=True) + "\n")
    for table in report["tables"]:
        buf.write(f"# table: {table['name']}\n")
        rows = [_expand_row(r) for r in table["rows"]]
        # make_table's order, each float column followed by its _raw twin.
        columns = [k for c in table["columns"] for k in (c, f"{c}_raw")
                   if any(k in row for row in rows)]
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
        buf.write("\n")
    return buf.getvalue()


def render_json(report: dict) -> str:
    doc = {"meta": _expand_row(report.get("meta", {}), float),
           "tables": [{**table, "rows": [_expand_row(r, float)
                                        for r in table["rows"]]}
                      for table in report["tables"]]}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown output format {fmt!r}")


def render_text(report: dict) -> str:
    """Human-readable rendering for stdout."""
    buf = io.StringIO()
    meta = report.get("meta", {})
    if meta:
        buf.write("  ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    for table in report["tables"]:
        buf.write(f"\n== {table['name']} ==\n")
        rows = [_expand_row(r) for r in table["rows"]]
        columns = [c for c in table["columns"]]
        widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows])
                  for c in columns}
        buf.write("  ".join(c.ljust(widths[c]) for c in columns) + "\n")
        for row in rows:
            buf.write("  ".join(str(row.get(c, "")).ljust(widths[c])
                                for c in columns) + "\n")
    return buf.getvalue()
