"""Sweep configuration, execution, and run summaries.

The harness evaluates every bound over a declarative parameter grid with
hypothesis gating: each inequality is only a *claim* where its stated
preconditions hold, so records are checked for hypotheses first and
labeled ``outside-hypotheses`` (never ``violation``) when they fail.
Both sides are still evaluated there, because measuring what happens
outside the preconditions is part of the job (the special-means
propositions live entirely in that regime).

Per-record evaluation errors are captured in the record rather than
aborting the sweep.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import bounds, means
from .convexity import AbsPower, ClassCheckConfig, is_convex, theorem_hypotheses
from .errors import ConfigError
from .models import FunctionModel, missing_spec_key, model_from_spec
from .records import BoundRecord, make_ratio, sort_records

__all__ = ["Tolerances", "SweepConfig", "load_config", "parse_config",
           "default_config", "BoundSpec", "BOUND_TABLE", "THEOREM_TAGS",
           "hypothesis_flags", "holds", "run_sweep", "summarize", "PASS_SLACK"]

SCHEMA_VERSION = 1

PASS_SLACK = 1e-12


def holds(lhs: float, rhs: float) -> bool:
    """The pass criterion of every verdict: lhs <= rhs + PASS_SLACK."""
    return lhs <= rhs + PASS_SLACK


@dataclass(frozen=True)
class Tolerances:
    quad_tol: float = 1e-10
    slack: float = 1e-9
    identity_tol: float = 1e-8


@dataclass(frozen=True)
class SweepConfig:
    models: tuple[Mapping, ...]
    a_grid: tuple[float, ...]
    b_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    tolerances: Tolerances = Tolerances()
    class_grid_points: int = 33


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _finite(v) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def parse_config(raw: Mapping) -> SweepConfig:
    """Validate a config mapping; errors carry the offending field path."""
    _expect(isinstance(raw, Mapping), "<root>", "config must be an object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    _expect(version == SCHEMA_VERSION, "schema_version",
            f"unsupported version {version!r} (expected {SCHEMA_VERSION})")

    models = raw.get("models", [])
    _expect(isinstance(models, Sequence) and len(models) > 0,
            "models", "need a nonempty list of model specs")
    for i, spec in enumerate(models):
        _expect(isinstance(spec, Mapping), f"models[{i}]", "must be an object")
        _expect("builtin" in spec or "expr" in spec,
                f"models[{i}]", "needs 'builtin' or 'expr'")
        missing = missing_spec_key(spec)
        _expect(missing is None, f"models[{i}].{missing}", "required")
        name = spec.get("name", spec.get("expr", ""))
        _expect("," not in str(name), f"models[{i}].name",
                "model names may not contain commas")
        for key in ("s", "rate"):
            _expect(key not in spec or _finite(spec[key]), f"models[{i}].{key}",
                    "must be a finite number")
        if "domain" in spec:
            dom = spec["domain"]
            _expect(isinstance(dom, Sequence) and len(dom) == 2
                    and all(_finite(v) for v in dom),
                    f"models[{i}].domain", "must be [lo, hi], two finite numbers")
            _expect(0.0 < dom[0] < dom[1], f"models[{i}].domain",
                    f"need 0 < lo < hi, got {list(dom)}")
        try:  # a spec that cannot be built fails here, not mid-sweep
            model_from_spec(spec)
        except ValueError as e:
            raise ConfigError(f"models[{i}]", str(e)) from e

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
    tols = {}
    for key in ("quad_tol", "slack", "identity_tol"):
        v = tol_raw.get(key, getattr(Tolerances(), key))
        _expect(_finite(v) and v > 0.0,
                f"tolerances.{key}", "must be a finite number > 0")
        tols[key] = float(v)

    # Accepted so that existing configs still load; nothing reads it.
    seed = raw.get("seed", 0)
    _expect(isinstance(seed, int) and seed >= 0, "seed",
            "must be a nonnegative integer")
    gp = raw.get("class_grid_points", 33)
    _expect(isinstance(gp, int) and gp >= 3, "class_grid_points", "must be >= 3")

    return SweepConfig(
        models=tuple(dict(m) for m in models),
        a_grid=a_grid, b_grid=b_grid, s_grid=s_grid, q_grid=q_grid,
        tolerances=Tolerances(**tols), class_grid_points=gp,
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

    ``gate`` is "convex" (|f'|^q convex, the classical baselines' only
    hypothesis) or "bundle" (``theorem_hypotheses``, checked at q = 1
    because q drops out of it; see ``gate_point``).  ``q_rule`` is "1"
    (q = 1 only), ">1" (q > 1 only) or "all" (every q).  The
    special-means propositions carry ``identity``, which returns their
    identity-check discrepancy tags.
    """
    rhs: Callable              # rhs(model, a, b, s, q)
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

    def gate_point(self, s: float, q: float) -> tuple[float, float]:
        """The (s, q) at which this bound's hypotheses are checked when it
        is asked for (s, q), where ``point(s, q)`` exists.

        A "bundle" bound is gated at q = 1.  Since ln(|f'|^q) = q*ln|f'|,
        |f'|^q is s-geometrically convex for one q > 0 exactly when it is
        for every q, and the monotone and |f'(a)| flags do not read q; so
        the bundle's flags depend on (a, b, s) alone.  On the grid the
        check compares logs, which scale by q, so this holds up to points
        whose log margin ln lhs - ln rhs lies between slack and slack/q.
        Convexity of |f'|^q does depend on q, so a "convex" bound is gated
        at its own point.
        """
        s, q = self.point(s, q)
        return (s, q) if self.gate == "convex" else (s, 1.0)


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
# bounds.rhs_* or means.prop*_rhs reaches every caller.
BOUND_TABLE: dict[str, BoundSpec] = {
    "eq8": BoundSpec(lambda m, a, b, s, q: bounds.rhs_eq8(m, a, b),
                     "convex", False, "1"),
    "eq9": BoundSpec(lambda m, a, b, s, q: bounds.rhs_eq9(
                         m, a, b, bounds.conjugate_exponent(q)),
                     "convex", False, ">1"),
    "eq10": BoundSpec(lambda m, a, b, s, q: bounds.rhs_eq10(m, a, b, s),
                      "bundle", True, "1"),
    "eq11": BoundSpec(lambda m, a, b, s, q: bounds.rhs_eq11(m, a, b, s, q),
                      "bundle", True, ">1"),
    "eq111": BoundSpec(lambda m, a, b, s, q: bounds.rhs_eq111(m, a, b, s, q),
                       "bundle", True, "all"),
    "prop41": BoundSpec(lambda m, a, b, s, q: means.prop41_rhs(a, b, s),
                        "bundle", True, "1", _tags41),
    "prop32": BoundSpec(lambda m, a, b, s, q: means.prop32_rhs(a, b, s, q),
                        "bundle", True, ">1", _tags32),
    "prop33": BoundSpec(lambda m, a, b, s, q: means.prop33_rhs(a, b, s, q),
                        "bundle", True, "all", _tags33),
}

THEOREM_TAGS = tuple(BOUND_TABLE)


def hypothesis_flags(bound: BoundSpec, m: FunctionModel, a: float, b: float,
                     s: float, q: float,
                     check_cfg: ClassCheckConfig) -> tuple[bool, bool, bool]:
    """(hyp_class, hyp_monotone, hyp_fprime_a) for one bound at one point.

    The classical baselines need only |f'|^q convex; their monotonicity
    and derivative-size flags are vacuously true.  A bound is gated at
    ``bound.gate_point(s, q)``, so ``bound.point(s, q)`` must exist.  Every
    "bundle" bound is gated at q = 1: q drops out of |f'|^q being
    s-geometrically convex.
    """
    s, q = bound.gate_point(s, q)
    if bound.gate == "convex":
        return (is_convex(AbsPower(m.fprime, q), (a, b), check_cfg).ok, True, True)
    h = theorem_hypotheses(m, a, b, s, q, check_cfg)
    return (h.class_ok, h.monotone_decreasing_ok, h.fprime_a_le_1)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

@dataclass
class _ModelContext:
    """Per-model caches so grid checks and quadratures run once per key;
    the flags are keyed on the gate point, so one (a, b, s) serves every
    q of the "bundle" bounds.  A check that raised is cached as its
    exception and raised again for every record that shares its key."""
    model: FunctionModel
    cfg: SweepConfig
    check_cfg: ClassCheckConfig
    lhs_cache: dict = field(default_factory=dict)
    residual_cache: dict = field(default_factory=dict)
    flags_cache: dict = field(default_factory=dict)

    def lhs(self, a: float, b: float) -> float:
        key = (a, b)
        if key not in self.lhs_cache:
            self.lhs_cache[key] = bounds.trapezoid_mean_gap(
                self.model, a, b, tol=self.cfg.tolerances.quad_tol)
        return self.lhs_cache[key]

    def gap_residual(self, a: float, b: float) -> float:
        key = (a, b)
        if key not in self.residual_cache:
            signed = bounds.gap_integral_form(
                self.model, a, b, tol=self.cfg.tolerances.quad_tol)
            self.residual_cache[key] = abs(self.lhs(a, b) - abs(signed))
        return self.residual_cache[key]

    def flags(self, bound: BoundSpec, a: float, b: float, s: float,
              q: float) -> tuple[bool, bool, bool]:
        key = (bound.gate, a, b, *bound.gate_point(s, q))
        if key not in self.flags_cache:
            try:
                self.flags_cache[key] = hypothesis_flags(
                    bound, self.model, a, b, s, q, self.check_cfg)
            except Exception as e:
                self.flags_cache[key] = e
        flags = self.flags_cache[key]
        if isinstance(flags, Exception):
            raise flags
        return flags


def _verdict(flags: tuple[bool, bool, bool], lhs: float, rhs: float) -> str:
    if not all(flags):
        return "outside-hypotheses"
    return "pass" if holds(lhs, rhs) else "violation"


def _record(ctx: _ModelContext, theorem: str, bound: BoundSpec, a: float,
            b: float, s: float, q: float) -> BoundRecord:
    """One bound at one point.  Failures become tags on an eval-error
    record instead of aborting the sweep; calls run in the order identity
    tags, hypotheses, lhs, rhs, gap-identity residual."""
    m = ctx.model
    nan = math.nan
    tags = (bound.identity(a, b, s, q, ctx.cfg.tolerances.identity_tol)
            if bound.is_prop else [])
    try:
        flags = ctx.flags(bound, a, b, s, q)
    except Exception as e:
        tags.append(f"hyp-error:{type(e).__name__}")
        return BoundRecord(m.name, theorem, a, b, s, q, nan, nan, nan, nan,
                           False, False, False, "eval-error", ";".join(tags))
    try:
        lhs = means.prop_lhs(a, b, s) if bound.is_prop else ctx.lhs(a, b)
        rhs = bound.rhs(m, a, b, s, q)
        residual = nan if bound.is_prop else ctx.gap_residual(a, b)
    except Exception as e:
        tags.append(f"error:{type(e).__name__}")
        return BoundRecord(m.name, theorem, a, b, s, q, nan, nan, nan, nan,
                           *flags, "eval-error", ";".join(tags))
    return BoundRecord(
        m.name, theorem, a, b, s, q, lhs, rhs, rhs - lhs, make_ratio(lhs, rhs),
        *flags, _verdict(flags, lhs, rhs), ";".join(tags),
        oracle_residual=residual)


def _pairs(cfg: SweepConfig, m: FunctionModel) -> list[tuple[float, float]]:
    return [(a, b) for a in cfg.a_grid for b in cfg.b_grid
            if a < b and m.contains(a, b)]


def run_sweep(cfg: SweepConfig) -> list[BoundRecord]:
    """One record per (model, parameters, bound) tuple, deterministic order.

    The classical baselines eq8/eq9 are s-independent; their records carry
    s = 1 and (for eq8) q = 1 as placeholders.  The special-means
    propositions are swept for the power family at s < 1 and b <= 1.
    """
    check_cfg = ClassCheckConfig(grid_points=cfg.class_grid_points,
                                 slack=cfg.tolerances.slack)
    points = {theorem: dict.fromkeys(p for s in cfg.s_grid for q in cfg.q_grid
                                     if (p := bound.point(s, q)))
              for theorem, bound in BOUND_TABLE.items()}
    records: list[BoundRecord] = []
    for spec in cfg.models:
        model = model_from_spec(spec)
        ctx = _ModelContext(model, cfg, check_cfg)
        is_power = spec.get("builtin") == "power"
        # (a, b) outermost: the class checks keep one interval's |f'| sample.
        for a, b in _pairs(cfg, model):
            for theorem, bound in BOUND_TABLE.items():
                for s, q in points[theorem]:
                    if bound.is_prop and not (is_power and s < 1.0 and b <= 1.0):
                        continue
                    records.append(_record(ctx, theorem, bound, a, b, s, q))
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
    for verdict in ("pass", "violation", "outside-hypotheses", "eval-error"):
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
