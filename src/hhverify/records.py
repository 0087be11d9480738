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
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, get_type_hints

__all__ = ["BoundRecord", "CSV_COLUMNS", "VERDICTS",
           "write_csv", "write_json", "read_csv", "read_json",
           "records_text", "records_equal", "sort_records"]

CSV_COLUMNS = ["model", "theorem", "a", "b", "s", "q", "lhs", "rhs", "gap",
               "ratio", "hyp_class", "hyp_monotone", "hyp_fprime_a",
               "verdict", "discrepancy"]

VERDICTS = ("pass", "violation", "outside-hypotheses", "eval-error")

# Each column's JSON key, quoted once.
_JSON_KEYS = [json.dumps(c) for c in CSV_COLUMNS]


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
    # Not part of the wire format: the oracle residual of the gap identity
    # for this (model, a, b), and the exception of an eval-error that raised,
    # with no traceback, cause or context.
    oracle_residual: float = field(default=math.nan, compare=False)
    error: Exception | None = field(default=None, compare=False)


def make_ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    if lhs == 0.0:
        return 0.0
    return math.nan


def sort_records(records: list[BoundRecord]) -> list[BoundRecord]:
    return sorted(records, key=lambda r: (r.model, r.theorem, r.a, r.b, r.s, r.q))


# Each wire column's kind (float, bool or str), in column order.
_KINDS = [get_type_hints(BoundRecord)[c] for c in CSV_COLUMNS]
_values = attrgetter(*CSV_COLUMNS)

# How each wire format spells the non-finite floats (keyed by str(x)).
_NONFINITE = {"csv": {"nan": "nan", "inf": "inf", "-inf": "-inf"},
              "json": {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}}


def _cells(r: BoundRecord, fmt: str) -> list[str]:
    """The columns of one record as ``fmt`` ("csv" or "json") writes them."""
    nonfinite = _NONFINITE[fmt]
    return [(f"{v:.17g}" if math.isfinite(v) else nonfinite[str(v)]) if kind is float
            else ("true" if v else "false") if kind is bool
            else json.dumps(v) if fmt == "json" else str(v)
            for kind, v in zip(_KINDS, _values(r))]


def records_text(records: list[BoundRecord], fmt: str) -> str:
    """Render sorted records to their CSV or JSON wire form."""
    if fmt not in _NONFINITE:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'json')")
    rs = sort_records(records)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(_cells(r, fmt)) for r in rs)
        return "\n".join(lines) + "\n"
    # Hand-rolled so float formatting is exactly 17 significant digits.
    rows = []
    for r in rs:
        parts = [f"{key}: {cell}" for key, cell in zip(_JSON_KEYS, _cells(r, fmt))]
        rows.append("  {" + ", ".join(parts) + "}")
    return "{\"records\": [\n" + ",\n".join(rows) + "\n]}\n"


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


def _record(cells: Mapping, where: str) -> BoundRecord:
    """One row of either wire format, keyed by column, as a record.  CSV
    cells are strings; JSON ones are already floats, bools and strings.
    ``where`` names the row in the ValueError a malformed row raises."""
    missing = [c for c in CSV_COLUMNS if c not in cells]
    if missing:
        raise ValueError(f"{where}: missing column(s) {', '.join(missing)}")
    kwargs = {}
    for c, kind in zip(CSV_COLUMNS, _KINDS):
        v = cells[c]
        if kind is float:
            try:
                kwargs[c] = float(v)
            except (TypeError, ValueError):
                raise ValueError(f"{where}: {c} is not a number: {v!r}") from None
        elif kind is bool:
            kwargs[c] = str(v).strip().lower() == "true"
        else:
            kwargs[c] = v
    return BoundRecord(**kwargs)


def read_csv(path: str) -> list[BoundRecord]:
    with open(path, encoding="utf-8") as fh:
        rows = [(i, ln.split(","))
                for i, ln in enumerate(fh.read().splitlines(), 1) if ln]
    header = rows[0][1] if rows else []
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    return [_record(dict(zip(header, cells)), f"{path}:{i}")
            for i, cells in rows[1:]]


def read_json(path: str) -> list[BoundRecord]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError(f"{path}: expected an object with a 'records' list of objects")
    return [_record(row, f"{path}: record {i}") for i, row in enumerate(rows, 1)]


def records_equal(a: list[BoundRecord], b: list[BoundRecord]) -> bool:
    """Equality of the wire columns' values, with NaN equal to NaN."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(sort_records(a), sort_records(b)):
        for kind, va, vb in zip(_KINDS, _values(ra), _values(rb)):
            if va == vb or (kind is float and math.isnan(va) and math.isnan(vb)):
                continue
            return False
    return True
