"""Verification records and their CSV/JSON serialization.

Column order is part of the wire format:

    model,theorem,a,b,s,q,lhs,rhs,gap,ratio,hyp_class,hyp_monotone,hyp_fprime_a,verdict,discrepancy

Verdict vocabulary: pass | violation | outside-hypotheses | eval-error.
Floats are serialized with 17 significant digits (lossless for doubles)
in both formats, and records are sorted by a canonical key before
emission, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

__all__ = ["BoundRecord", "CSV_COLUMNS", "VERDICTS",
           "write_csv", "write_json", "read_csv", "read_json",
           "records_text", "records_equal", "sort_records"]

CSV_COLUMNS = ["model", "theorem", "a", "b", "s", "q", "lhs", "rhs", "gap",
               "ratio", "hyp_class", "hyp_monotone", "hyp_fprime_a",
               "verdict", "discrepancy"]

VERDICTS = ("pass", "violation", "outside-hypotheses", "eval-error")


@dataclass
class BoundRecord:
    model: str
    theorem: str
    a: float
    b: float
    s: float
    q: float
    lhs: float
    rhs: float
    gap: float
    ratio: float
    hyp_class: bool
    hyp_monotone: bool
    hyp_fprime_a: bool
    verdict: str
    discrepancy: str = ""
    # Oracle residual of the gap identity for this (model, a, b); carried on
    # the record for diagnostics but not part of the wire format.
    oracle_residual: float = field(default=math.nan, compare=False)


def make_ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    if lhs == 0.0:
        return 0.0
    return math.nan


def sort_records(records: list[BoundRecord]) -> list[BoundRecord]:
    return sorted(records, key=lambda r: (r.model, r.theorem, r.a, r.b, r.s, r.q))


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


_FLOAT_COLS = ("a", "b", "s", "q", "lhs", "rhs", "gap", "ratio")
_BOOL_COLS = ("hyp_class", "hyp_monotone", "hyp_fprime_a")


def _cell(r: BoundRecord, col: str) -> str:
    v = getattr(r, col)
    if col in _FLOAT_COLS:
        return _fmt_float(v)
    if col in _BOOL_COLS:
        return _fmt_bool(v)
    return str(v)


def records_text(records: list[BoundRecord], fmt: str) -> str:
    """Render sorted records to their CSV or JSON wire form."""
    rs = sort_records(records)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in rs:
            lines.append(",".join(_cell(r, c) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # Hand-rolled so float formatting is exactly 17 significant digits.
        rows = []
        for r in rs:
            parts = []
            for c in CSV_COLUMNS:
                if c in _FLOAT_COLS:
                    v = getattr(r, c)
                    if math.isnan(v):
                        cell = "NaN"
                    elif math.isinf(v):
                        cell = "Infinity" if v > 0 else "-Infinity"
                    else:
                        cell = _fmt_float(v)
                elif c in _BOOL_COLS:
                    cell = _fmt_bool(getattr(r, c))
                else:
                    cell = json.dumps(getattr(r, c))
                parts.append(f"{json.dumps(c)}: {cell}")
            rows.append("  {" + ", ".join(parts) + "}")
        return "{\"records\": [\n" + ",\n".join(rows) + "\n]}\n"
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


def write_csv(records: list[BoundRecord], path: str) -> None:
    _write(records, path, "csv")


def write_json(records: list[BoundRecord], path: str) -> None:
    _write(records, path, "json")


def _write(records: list[BoundRecord], path: str, fmt: str) -> None:
    if not records:
        raise ValueError("no records to emit")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(records_text(records, fmt))
    except OSError as e:
        raise OSError(f"cannot write report to {path}: {e}") from e


def _record_from_strings(cells: dict[str, str]) -> BoundRecord:
    kwargs = {}
    for c in CSV_COLUMNS:
        v = cells[c]
        if c in _FLOAT_COLS:
            kwargs[c] = float(v)
        elif c in _BOOL_COLS:
            kwargs[c] = v.strip().lower() == "true"
        else:
            kwargs[c] = v
    return BoundRecord(**kwargs)


def read_csv(path: str) -> list[BoundRecord]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append(_record_from_strings(dict(zip(header, cells))))
    return out


def read_json(path: str) -> list[BoundRecord]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    out = []
    for row in payload["records"]:
        kwargs = {}
        for c in CSV_COLUMNS:
            v = row[c]
            kwargs[c] = float(v) if c in _FLOAT_COLS else v
        out.append(BoundRecord(**kwargs))
    return out


def _float_eq(x: float, y: float) -> bool:
    if math.isnan(x) and math.isnan(y):
        return True
    return x == y


def records_equal(a: list[BoundRecord], b: list[BoundRecord]) -> bool:
    """Wire-format equality (NaN-tolerant, serialized fields only)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(sort_records(a), sort_records(b)):
        for f in fields(BoundRecord):
            if f.name == "oracle_residual":
                continue
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, float):
                if not _float_eq(va, vb):
                    return False
            elif va != vb:
                return False
    return True
