"""Sweep configuration, execution, and run summaries.

The harness evaluates every bound over a declarative parameter grid with
hypothesis gating: each inequality is only a *claim* where its stated
preconditions hold, so records are checked for hypotheses first and
labeled ``outside-hypotheses`` (never ``violation``) when they fail.
Both sides are still evaluated there, because measuring what happens
outside the preconditions is part of the job (the special-means
propositions live entirely in that regime).

Per-record evaluation errors are captured in the record rather than
aborting the sweep.  ``ModelContext.record`` makes every verdict.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import bounds, means
from .convexity import AbsPower, ClassCheckConfig, is_convex, theorem_hypotheses
from .errors import ConfigError
from .models import FunctionModel, _finite, evaluate_points, model_from_spec
from .records import VERDICTS, BoundRecord, make_ratio, sort_records

__all__ = ["Tolerances", "SweepConfig", "load_config", "parse_config",
           "default_config", "BoundSpec", "BOUND_TABLE", "THEOREM_TAGS",
           "ModelContext", "holds", "run_sweep", "summarize", "PASS_SLACK"]

SCHEMA_VERSION = 1

PASS_SLACK = 1e-12


def holds(lhs: float, rhs: float) -> bool:
    """The pass criterion of every verdict: lhs <= rhs + PASS_SLACK."""
    return lhs <= rhs + PASS_SLACK


@dataclass(frozen=True)
class Tolerances:
    quad_tol: float = 1e-10
    slack: float = ClassCheckConfig.slack
    identity_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not (_finite(v := getattr(self, f.name)) and v > 0.0):
                raise ConfigError(f.name, "must be a finite number > 0")


@dataclass(frozen=True)
class SweepConfig:
    models: tuple[Mapping, ...]
    a_grid: tuple[float, ...]
    b_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    tolerances: Tolerances = Tolerances()
    class_grid_points: int = ClassCheckConfig.grid_points


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _at(path: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), a ConfigError's key put under path and
    any other ValueError at it."""
    try:
        return build(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}.{e.path}", e.message) from e
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def parse_config(raw: Mapping) -> SweepConfig:
    """Validate a config mapping; errors carry the offending field path.
    Model specs and tolerances are checked by their own constructors."""
    _expect(isinstance(raw, Mapping), "<root>", "config must be an object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    _expect(version == SCHEMA_VERSION, "schema_version",
            f"unsupported version {version!r} (expected {SCHEMA_VERSION})")

    models = raw.get("models", [])
    _expect(isinstance(models, Sequence) and len(models) > 0,
            "models", "need a nonempty list of model specs")
    for i, spec in enumerate(models):
        # A spec that cannot be built fails here, not mid-sweep.
        _at(f"models[{i}]", model_from_spec, spec)

    def grid(key: str, predicate, what: str) -> tuple[float, ...]:
        g = raw.get(key, [])
        _expect(isinstance(g, Sequence) and len(g) > 0, key, "must be nonempty")
        vals = []
        for j, v in enumerate(g):
            _expect(_finite(v), f"{key}[{j}]", "must be a finite number")
            _expect(predicate(float(v)), f"{key}[{j}]", what)
            vals.append(float(v))
        return tuple(vals)

    a_grid = grid("a_grid", lambda v: v > 0.0, "must be positive")
    b_grid = grid("b_grid", lambda v: v > 0.0, "must be positive")
    s_grid = grid("s_grid", lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
    q_grid = grid("q_grid", lambda v: v >= 1.0, "must be >= 1")
    _expect(any(a < b for a in a_grid for b in b_grid),
            "a_grid/b_grid", "no pair with a < b")

    tol_raw = raw.get("tolerances", {})
    _expect(isinstance(tol_raw, Mapping), "tolerances", "must be an object")
    for key in tol_raw:
        _expect(key in Tolerances.__dataclass_fields__, f"tolerances.{key}",
                "unknown key")
    tolerances = _at("tolerances", Tolerances, **tol_raw)

    # Accepted so that existing configs still load; nothing reads it.
    seed = raw.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "seed", "must be a nonnegative integer")
    gp = raw.get("class_grid_points", SweepConfig.class_grid_points)
    _at("class_grid_points", ClassCheckConfig, grid_points=gp)

    return SweepConfig(
        models=tuple(dict(m) for m in models),
        a_grid=a_grid, b_grid=b_grid, s_grid=s_grid, q_grid=q_grid,
        tolerances=tolerances, class_grid_points=gp,
    )


def load_config(path: str) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("<file>", f"invalid JSON in {path}: {e}") from e
    return parse_config(raw)


def default_config() -> SweepConfig:
    """The shipped config (packaged data file)."""
    from importlib.resources import files
    raw = json.loads(files("hhverify.data").joinpath("default_config.json")
                     .read_text(encoding="utf-8"))
    return parse_config(raw)


# ---------------------------------------------------------------------------
# The bound table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSpec:
    """How one bound is evaluated, gated and swept.

    ``rhs(ctx, s, q)`` is the bound's right-hand side at (s, q) on the
    ModelContext ``ctx``.  ``gate`` is "convex" (|f'|^q convex, the
    classical baselines' only hypothesis, which a pass of |f'| convex
    implies for every q >= 1) or "bundle" (``theorem_hypotheses``, which
    checks |f'|, since q drops out of its class condition);
    ``ModelContext.flags`` says how each is read.  ``q_rule`` is "1"
    (q = 1 only), ">1" (q > 1 only) or "all" (every q).  The special-means
    propositions carry ``identity``, which returns their identity-check
    discrepancy tags.
    """
    rhs: Callable              # rhs(ctx, s, q), ctx a ModelContext
    gate: str
    over_s: bool               # swept over s; otherwise s = 1
    q_rule: str
    identity: Callable | None = None   # identity(a, b, s, q, tol) -> tags

    @property
    def is_prop(self) -> bool:
        return self.identity is not None

    def point(self, s: float, q: float) -> tuple[float, float] | None:
        """The (s, q) at which this bound is evaluated and gated when asked
        for (s, q); None where it needs q > 1 and q <= 1."""
        if self.q_rule == ">1" and not q > 1.0:
            return None
        return (s if self.over_s else 1.0, 1.0 if self.q_rule == "1" else q)


def _tags41(a: float, b: float, s: float, q: float, tol: float) -> list[str]:
    try:
        if means.dual_route_bb(a, b, s, tol=tol).classification == "discrepant":
            return ["bb-discrepant"]
    except Exception as e:
        return [f"bb-error:{type(e).__name__}"]
    return []


def _tags32(a: float, b: float, s: float, q: float, tol: float) -> list[str]:
    tags = []
    try:
        if means.residual_cc(a, b, s, q) > tol:
            tags.append("cc-discrepant")
        # Printed prefactor vs the kernel-route prefactor differ by
        # b^(sq(1-s)); tag when that factor is materially below 1.
        if abs(1.0 - b ** (s * q * (1.0 - s))) > tol:
            tags.append("rhs-path")
    except Exception as e:
        tags.append(f"cc-error:{type(e).__name__}")
    return tags


def _tags33(a: float, b: float, s: float, q: float, tol: float) -> list[str]:
    tags = []
    try:
        if means.deviation_dd(a, b, s, q) > tol:
            tags.append("dd-discrepant")
        ee = means.deviation_ee(a, b, s, q, tol=tol)
        if ee.classification == "discrepant":
            tags.append("ee-discrepant")
        if ee.means_value < 0.0:
            tags.append("v-negative")
    except Exception as e:
        tags.append(f"identity-error:{type(e).__name__}")
    return tags


# Every bound the toolkit checks, in THEOREM_TAGS order.  The rhs lambdas
# look their evaluator up on the module at call time, so a patched
# bounds.rhs_* or means.prop*_rhs reaches every caller.  The bounds on f
# read it through ctx.fprime_ends alone; the propositions never evaluate f'.
BOUND_TABLE: dict[str, BoundSpec] = {
    "eq8": BoundSpec(lambda ctx, s, q: bounds.rhs_eq8(
                         ctx.a, ctx.b, *ctx.fprime_ends),
                     "convex", False, "1"),
    "eq9": BoundSpec(lambda ctx, s, q: bounds.rhs_eq9(
                         ctx.a, ctx.b, *ctx.fprime_ends, bounds.conjugate_exponent(q)),
                     "convex", False, ">1"),
    "eq10": BoundSpec(lambda ctx, s, q: bounds.rhs_eq10(
                          ctx.a, ctx.b, *ctx.fprime_ends, s),
                      "bundle", True, "1"),
    "eq11": BoundSpec(lambda ctx, s, q: bounds.rhs_eq11(
                          ctx.a, ctx.b, *ctx.fprime_ends, s, q),
                      "bundle", True, ">1"),
    "eq111": BoundSpec(lambda ctx, s, q: bounds.rhs_eq111(
                           ctx.a, ctx.b, *ctx.fprime_ends, s, q),
                       "bundle", True, "all"),
    "prop41": BoundSpec(lambda ctx, s, q: means.prop41_rhs(ctx.a, ctx.b, s),
                        "bundle", True, "1", _tags41),
    "prop32": BoundSpec(lambda ctx, s, q: means.prop32_rhs(ctx.a, ctx.b, s, q),
                        "bundle", True, ">1", _tags32),
    "prop33": BoundSpec(lambda ctx, s, q: means.prop33_rhs(ctx.a, ctx.b, s, q),
                        "bundle", True, "all", _tags33),
}

THEOREM_TAGS = tuple(BOUND_TABLE)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

def _fresh(e: Exception) -> Exception:
    """A copy of e with its attributes and no traceback, cause or context
    (copy.copy would call e's __init__ with e.args, which the classes in
    errors.py do not take)."""
    copy = type(e).__new__(type(e), *e.args)
    copy.__dict__.update(e.__dict__)
    return copy


@dataclass
class ModelContext:
    """One model on one interval [a, b]: the one evaluator and judge
    (``record``) of a bound there, for a sweep's visit, an ``eval-bound``
    point or a search point.  Every value it computes goes through one
    memo, on its first read: the quadratures (``lhs``, ``gap_residual``),
    |f'| at a and b for every right-hand side (``fprime_ends``, one call of
    f' on the array [a, b], as ``lhs`` makes one of f) and the flags of
    each gate (see ``flags``).  A computation that raised is kept as a copy of its
    exception with no traceback, cause or context (their frames hold the
    check's arrays and this context), so it runs once too, and each read
    raises a fresh copy: a traceback on the kept one would hold this
    context."""
    model: FunctionModel
    tolerances: Tolerances
    check_cfg: ClassCheckConfig
    a: float
    b: float
    memo: dict = field(default_factory=dict)

    def _once(self, key, compute: Callable):
        """compute() on the first read of key; its value, or its exception
        raised afresh, on every read."""
        if key not in self.memo:
            try:
                self.memo[key] = compute()
            except Exception as e:
                self.memo[key] = _fresh(e)
        value = self.memo[key]
        if isinstance(value, Exception):
            raise _fresh(value)
        return value

    @property
    def lhs(self) -> float:
        return self._once("lhs", lambda: bounds.trapezoid_mean_gap(
            self.model, self.a, self.b, tol=self.tolerances.quad_tol))

    @property
    def fprime_ends(self) -> tuple[float, float]:
        """(|f'(a)|, |f'(b)|), the only view of f any right-hand side takes:
        f' on the array [a, b] in one call, the same bits as two one-point
        calls."""
        return self._once("fprime_ends", lambda: tuple(np.abs(evaluate_points(
            self.model.fprime, np.array([self.a, self.b], dtype=float))).tolist()))

    @property
    def gap_residual(self) -> float:
        return self._once("gap_residual", lambda: abs(self.lhs - abs(
            bounds.gap_integral_form(self.model, self.a, self.b,
                                     tol=self.tolerances.quad_tol))))

    def flags(self, bound: BoundSpec, s: float, q: float) -> tuple[bool, bool, bool]:
        """(hyp_class, hyp_monotone, hyp_fprime_a) for one bound at its
        ``point(s, q)``, which must exist.

        A "bundle" bound is keyed ("bundle", s): ``theorem_hypotheses``
        checks |f'|, which serves every q (its docstring says why).

        The classical baselines need only |f'|^q convex, which does depend
        on q, so a "convex" bound is keyed ("convex", q); their
        monotonicity and derivative-size flags are vacuously true.  For
        q >= 1, |f'| convex implies |f'|^q convex, grid point by grid point:
        v -> v^q is increasing and convex on [0, inf).  So a "convex" bound
        at q != 1 passes where eq8's gate, |f'| convex, passes, and checks
        |f'|^q only where that fails (sqrt(x) is not convex, but its square
        is).  The slack makes this approximate: a q = 1 pass allows a margin
        of up to slack (relative above 1), which at q can grow to about
        q*slack*max(1, rhs)^(q-1), so a near-tie the check at q would put
        outside the hypotheses passes here.
        """
        s, q = bound.point(s, q)

        def bundle():
            h = theorem_hypotheses(self.model, self.a, self.b, s, self.check_cfg)
            return (h.class_ok, h.monotone_decreasing_ok, h.fprime_a_le_1)

        def convex():
            if q != 1.0 and all(eq8 := self.flags(BOUND_TABLE["eq8"], 1.0, 1.0)):
                return eq8
            return (is_convex(AbsPower(self.model.fprime, q), (self.a, self.b),
                              self.check_cfg).ok, True, True)

        if bound.gate == "bundle":
            return self._once(("bundle", s), bundle)
        return self._once(("convex", q), convex)

    def sides(self, bound: BoundSpec, s: float, q: float) -> tuple[float, float]:
        """(lhs, rhs) of a bound at (s, q); a proposition's lhs is prop_lhs."""
        lhs = means.prop_lhs(self.a, self.b, s) if bound.is_prop else self.lhs
        return lhs, bound.rhs(self, s, q)

    def record(self, theorem: str, s: float, q: float) -> BoundRecord:
        """The one judgment of a bound at its point (s, q) on [a, b].  Calls
        run in the order identity tags, flags, lhs and rhs, gap-identity
        residual; a failure makes an eval-error tagged ``hyp-error:`` (the
        flags) or ``error:`` (after them) that keeps the flags read so far
        and, in ``error``, a ``_fresh`` copy of the exception.  A bound on f
        fails the oracle where its residual exceeds identity_tol (relative
        above lhs = 1, as the quadrature's tolerance is): its f' does not
        integrate to f on [a, b] (f jumps, say), so it is an eval-error
        tagged oracle-residual that keeps its sides and residual."""
        bound, a, b, nan = BOUND_TABLE[theorem], self.a, self.b, math.nan
        tags = (bound.identity(a, b, s, q, self.tolerances.identity_tol)
                if bound.is_prop else [])
        flags, stage = (False, False, False), "hyp-error"
        try:
            flags = self.flags(bound, s, q)
            stage = "error"
            lhs, rhs = self.sides(bound, s, q)
            residual = nan if bound.is_prop else self.gap_residual
        except Exception as e:
            tags.append(f"{stage}:{type(e).__name__}")
            return BoundRecord(self.model.name, theorem, a, b, s, q, nan, nan, nan,
                               nan, *flags, "eval-error", ";".join(tags),
                               error=_fresh(e))
        verdict = ("outside-hypotheses" if not all(flags)
                   else "pass" if holds(lhs, rhs) else "violation")
        if residual > self.tolerances.identity_tol * max(1.0, lhs):
            verdict = "eval-error"
            tags.append("oracle-residual")
        return BoundRecord(
            self.model.name, theorem, a, b, s, q, lhs, rhs, rhs - lhs,
            make_ratio(lhs, rhs), *flags, verdict, ";".join(tags),
            oracle_residual=residual)


def run_sweep(cfg: SweepConfig) -> list[BoundRecord]:
    """One record per (model, parameters, bound) tuple, deterministic order;
    each grid is read as a set, so a repeated value gives each record once.

    The classical baselines eq8/eq9 are s-independent; their records carry
    s = 1 and (for eq8) q = 1 as placeholders.  The special-means
    propositions are about f = x^s/s, so they are swept only on a power
    model at its own s (which ``power_model`` holds in (0, 1), on a domain
    in (0, 1]), and their flags are those of its |f'| = x^(s-1).
    """
    check_cfg = ClassCheckConfig(grid_points=cfg.class_grid_points,
                                 slack=cfg.tolerances.slack)
    points = {theorem: dict.fromkeys(p for s in cfg.s_grid for q in cfg.q_grid
                                     if (p := bound.point(s, q)))
              for theorem, bound in BOUND_TABLE.items()}
    # A power model's own s, the only s its propositions are swept at.
    models = [(model_from_spec(spec),
               spec["s"] if spec.get("builtin") == "power" else None)
              for spec in cfg.models]
    records: list[BoundRecord] = []
    # (a, b) outermost and the models inside: the class checks build an
    # interval's points once for every model and keep only that interval,
    # and a model's context lives for its visit there.
    intervals = dict.fromkeys((a, b) for a in cfg.a_grid for b in cfg.b_grid if a < b)
    for a, b in intervals:
        for m, own_s in models:
            if not m.contains(a, b):
                continue
            ctx = ModelContext(m, cfg.tolerances, check_cfg, a, b)
            for theorem, bound in BOUND_TABLE.items():
                for s, q in points[theorem]:
                    if bound.is_prop and s != own_s:
                        continue
                    records.append(ctx.record(theorem, s, q))
    return sort_records(records)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def summarize(records: list[BoundRecord]) -> dict:
    """Aggregate counts, proposition pass-rates and oracle residuals."""
    by_verdict = Counter(r.verdict for r in records)
    by_theorem: dict[str, Counter] = {}
    for r in records:
        by_theorem.setdefault(r.theorem, Counter())[r.verdict] += 1

    prop_rates = {}
    for tag in (t for t, bound in BOUND_TABLE.items() if bound.is_prop):
        rs = [r for r in records if r.theorem == tag]
        if not rs:
            continue
        evaluable = [r for r in rs if r.verdict != "eval-error"]
        held = sum(1 for r in evaluable if holds(r.lhs, r.rhs))
        prop_rates[tag] = {
            "records": len(rs),
            "evaluable": len(evaluable),
            "holds": held,
            "rate": held / len(evaluable) if evaluable else math.nan,
            "hyp_fprime_a_false": sum(1 for r in rs if not r.hyp_fprime_a),
        }

    residuals = [r.oracle_residual for r in records
                 if not math.isnan(r.oracle_residual)]
    discrepancies = Counter(tag for r in records
                            for tag in filter(None, r.discrepancy.split(";")))

    return {
        "records": len(records),
        "by_verdict": by_verdict,
        "by_theorem": by_theorem,
        "violations": by_verdict.get("violation", 0),
        "prop_pass_rates": prop_rates,
        "max_gap_identity_residual": max(residuals) if residuals else math.nan,
        "discrepancy_tags": discrepancies,
    }


def format_summary(summary: dict) -> str:
    lines = [f"records: {summary['records']}"]
    for verdict in VERDICTS:
        n = summary["by_verdict"].get(verdict, 0)
        lines.append(f"  {verdict}: {n}")
    for tag, info in sorted(summary["prop_pass_rates"].items()):
        rate = info["rate"]
        rate_s = "n/a" if isinstance(rate, float) and math.isnan(rate) else f"{rate:.3f}"
        lines.append(f"  {tag}: holds {info['holds']}/{info['evaluable']} "
                     f"evaluable (rate {rate_s}; "
                     f"hyp_fprime_a=false on {info['hyp_fprime_a_false']}/{info['records']})")
    res = summary["max_gap_identity_residual"]
    if not (isinstance(res, float) and math.isnan(res)):
        lines.append(f"  max gap-identity residual: {res:.3e}")
    if summary["discrepancy_tags"]:
        joined = ", ".join(f"{k}={v}" for k, v in sorted(summary["discrepancy_tags"].items()))
        lines.append(f"  discrepancy tags: {joined}")
    return "\n".join(lines)
