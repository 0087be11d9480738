"""The benchmark's workloads: inputs made from a seed, one operation, and
the checks every operation's output must pass.

This module imports nothing from hhverify at load time. The child process
hands it the package's modules after timing their import, so that import
cost lands in ``setup_s``.

Why each workload exists (see README.md for the layer-to-metric map):

* ``verify-default``: the shipped ``default_config()`` as users run it, and
  the reference for the byte-identical report gate. The grid class check
  dominates. Ignores the seed.
* ``verify-grid65``: the same config with ``class_grid_points = 65`` (a
  cube of 274,625 points per check instead of 35,937). Isolates the
  class-check kernel and shows its cube memory. Ignores the seed.
* ``verify-steep``: near-singular models on (0, 1] with a 9-point class
  grid. Quadrature and the scalar expression evaluation inside its
  integrands do most of the work, so a class-check change should not move
  it. Endpoints come from the seed.
* ``tightness-search``: eight ``optimize_tightness`` searches. Every
  objective evaluation is a fresh (a, b, s, q), so nothing is reused
  across evaluations the way the sweeps reuse per-(a, b) caches. Boxes
  come from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import asdict, replace

WORKLOADS = ("verify-default", "verify-grid65", "verify-steep",
             "tightness-search")

# verify-steep: 2 * STEEP_SIDE endpoints per seed, so every model gets
# STEEP_SIDE**2 (a, b) pairs whatever the draw.
STEEP_SIDE = 6
STEEP_LO = 1e-4
STEEP_MODELS = (
    {"name": "power-s01", "builtin": "power", "s": 0.1, "domain": [STEEP_LO, 1.0]},
    {"name": "root5", "expr": "x^0.2", "domain": [STEEP_LO, 1.0]},
    {"name": "log-shift", "expr": "1 - ln(x)", "domain": [STEEP_LO, 1.0]},
    {"name": "root-log", "expr": "x^0.5 - ln(x)", "domain": [STEEP_LO, 1.0]},
)

# Gap-identity tolerance for search results; the sweeps use their config's.
SEARCH_IDENTITY_TOL = 1e-8


def _sig(x: float) -> float:
    """Round a drawn value to 12 significant digits, so inputs print exactly."""
    return float(f"{x:.12g}")


def _steep_input(seed: int) -> dict:
    """Endpoints log-uniform on [STEEP_LO, 1], one per equal stratum of
    log10(x), so every seed spreads the same amount of near-singular work."""
    rng = random.Random(seed)
    n = 2 * STEEP_SIDE
    width = -math.log10(STEEP_LO) / n
    ends = [_sig(10.0 ** (math.log10(STEEP_LO) + (i + rng.random()) * width))
            for i in range(n)]
    return {
        "schema_version": 1,
        "models": [dict(m) for m in STEEP_MODELS],
        "a_grid": ends[:STEEP_SIDE],
        "b_grid": ends[STEEP_SIDE:],
        "s_grid": [1.0],
        "q_grid": [1.0, 2.0],
        "class_grid_points": 9,
    }


def _search_input(seed: int) -> list[dict]:
    """Eight searches over (a, b) boxes, with s and q fixed per search. The
    a-range hugs the left end of the domain and the b-range the right end,
    so every box holds feasible points."""
    rng = random.Random(seed)

    def ends(lo, hi, a_w, b_w):
        return ([lo, _sig(lo + rng.uniform(*a_w))],
                [_sig(hi - rng.uniform(*b_w)), hi])

    searches = []
    for expr in ("1/x", "1 - ln(x)"):
        spec = {"expr": expr, "domain": [1.0, 2.0]}
        for theorem in ("eq8", "eq10", "eq111"):
            a, b = ends(1.0, 2.0, (0.2, 0.45), (0.2, 0.45))
            # Here |f'| <= 1, so the s < 1 class condition fails on the
            # diagonal: only s = 1 (the default) is feasible.
            box = {"a": a, "b": b}
            if theorem == "eq111":
                box["q"] = _sig(rng.uniform(1.0, 3.0))
            searches.append({"theorem": theorem, "model": spec, "box": box,
                             "require_hypotheses": True})
    a, b = ends(1.0, 2.0, (0.2, 0.45), (0.2, 0.45))
    searches.append({
        "theorem": "eq11",
        "model": {"builtin": "exp", "rate": 1.0, "domain": [1.0, 2.0]},
        "box": {"a": a, "b": b, "s": _sig(rng.uniform(0.5, 1.0)),
                "q": _sig(rng.uniform(1.5, 4.0))},
        "require_hypotheses": False})
    # |f'(a)| > 1 everywhere on this domain, so the side condition never
    # holds; the search measures the raw ratio.
    a, b = ends(1e-3, 1.0, (0.1, 0.3), (0.2, 0.5))
    searches.append({
        "theorem": "eq10",
        "model": {"builtin": "power", "s": 0.5, "domain": [1e-3, 1.0]},
        "box": {"a": a, "b": b, "s": 0.5},
        "require_hypotheses": False})
    return searches


def make_input(workload: str, seed: int):
    """The JSON-able input a workload hands to hhverify; None means the
    shipped default config. Same seed, same input."""
    if workload in ("verify-default", "verify-grid65"):
        return None
    if workload == "verify-steep":
        return _steep_input(seed)
    if workload == "tightness-search":
        return _search_input(seed)
    raise ValueError(f"unknown workload {workload!r}")


def uses_seed(workload: str) -> bool:
    return make_input(workload, 0) is not None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class SweepWorkload:
    """One op is the body of ``hhverify verify``: run_sweep, the CSV text
    and the summary."""

    def __init__(self, hh, workload: str, raw, scratch_dir: str):
        self.hh = hh
        sweep = hh.sweep
        if raw is None:
            cfg = sweep.default_config()
            if workload == "verify-grid65":
                cfg = replace(cfg, class_grid_points=65)
        else:
            cfg = sweep.parse_config(raw)
        self.cfg = cfg
        self.models = [hh.models.model_from_spec(spec) for spec in cfg.models]
        self.input_digest = digest(asdict(cfg))
        self.csv_path = os.path.join(scratch_dir, f"roundtrip-{os.getpid()}.csv")

    def op(self):
        hh = self.hh
        recs = hh.sweep.run_sweep(self.cfg)
        text = hh.records.records_text(recs, "csv")
        summary = hh.sweep.summarize(recs)
        return recs, text, summary

    @staticmethod
    def records(out) -> int:
        return len(out[0])

    @staticmethod
    def evals(out) -> int:
        """Distinct (model, a, b, s, q) points evaluated."""
        return len({(r.model, r.a, r.b, r.s, r.q) for r in out[0]})

    @staticmethod
    def max_residual(out) -> float:
        res = [r.oracle_residual for r in out[0]
               if not math.isnan(r.oracle_residual)]
        return max(res) if res else 0.0

    def report(self, out) -> str:
        recs, text, summary = out
        return text + json.dumps(summary, sort_keys=True)

    def check(self, out, reference: str | None) -> list[str]:
        recs, text, _ = out
        problems = []
        with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            back = self.hh.records.read_csv(self.csv_path)
        finally:
            os.remove(self.csv_path)
        if not self.hh.records.records_equal(recs, back):
            problems.append("csv does not round-trip")
        if reference is not None and self.report(out) != reference:
            problems.append("report differs from the first op")
        tol = self.cfg.tolerances.identity_tol
        if self.max_residual(out) > tol:
            problems.append(f"oracle residual above identity_tol {tol:g}")
        return problems

    def info(self, out) -> dict:
        recs, text, summary = out
        return {
            "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "records": len(recs),
            "verdicts": {v: summary["by_verdict"].get(v, 0)
                         for v in self.hh.records.VERDICTS},
            "max_oracle_residual": self.max_residual(out),
        }


class SearchWorkload:
    """One op runs every search of the batch."""

    def __init__(self, hh, workload: str, raw, scratch_dir: str):
        self.hh = hh
        self.searches = [(s, hh.models.model_from_spec(s["model"])) for s in raw]
        self.input_digest = digest(raw)

    def op(self):
        tightness = self.hh.tightness
        return [tightness.optimize_tightness(
                    s["theorem"], m, s["box"],
                    require_hypotheses=s["require_hypotheses"])
                for s, m in self.searches]

    @staticmethod
    def records(out) -> int:
        return len(out)

    @staticmethod
    def evals(out) -> int:
        return sum(r.trace_len for r in out)

    def max_residual(self, out) -> float:
        """Gap-identity residual at each search's best point."""
        bounds = self.hh.bounds
        worst = 0.0
        for (_, m), r in zip(self.searches, out):
            a, b = r.params["a"], r.params["b"]
            gap = bounds.trapezoid_mean_gap(m, a, b, tol=1e-9)
            worst = max(worst, abs(gap - abs(bounds.gap_integral_form(m, a, b, tol=1e-9))))
        return worst

    @staticmethod
    def report(out) -> str:
        return json.dumps([[r.theorem, r.params, r.ratio, r.trace_len,
                            r.hypotheses_pass, r.violation] for r in out],
                          sort_keys=True)

    def check(self, out, reference: str | None) -> list[str]:
        problems = []
        if not all(math.isfinite(r.ratio)
                   and all(math.isfinite(v) for v in r.params.values())
                   for r in out):
            problems.append("non-finite search result")
        if reference is not None and self.report(out) != reference:
            problems.append("search results differ from the first op")
        if self.max_residual(out) > SEARCH_IDENTITY_TOL:
            problems.append(f"oracle residual above {SEARCH_IDENTITY_TOL:g}")
        return problems

    def info(self, out) -> dict:
        return {
            "searches": len(out),
            "evals": self.evals(out),
            "max_ratio": max(r.ratio for r in out),
            "max_oracle_residual": self.max_residual(out),
        }


def build(hh, workload: str, raw, scratch_dir: str):
    """Parse or generate the config and build every model: the set-up."""
    cls = SearchWorkload if workload == "tightness-search" else SweepWorkload
    return cls(hh, workload, raw, scratch_dir)
