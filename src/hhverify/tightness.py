"""Tightness search: how close does a bound get to its left-hand side?

Maximizes lhs/rhs over a box of (a, b, s, q) by grid seeding plus compass
(pattern) search (``COARSE_POINTS``, ``MAX_ITERS``).  Derivative-free on
purpose: the objective goes through quadrature and hypothesis gates, so
gradients are unavailable and the landscape may have feasibility cliffs.

With ``require_hypotheses=True`` (the default) only parameter points whose
hypothesis report fully passes are feasible; EmptyFeasibleSetError if the
box contains none.  With False the search measures the raw ratio anywhere
the bound evaluates, which is how behaviour outside the stated
preconditions is quantified.

The search keeps a point only if its ratio beats the best so far, and the
best never falls, so a point's hypothesis flags matter only where its
ratio can become the best.  Until a feasible point is known every point
reads its flags first (and a required point that fails them skips lhs and
rhs); after that a point computes lhs and rhs first and reads its flags
only if its ratio beats the best.  A point whose flags or sides raise where
they are read is infeasible; ``TightnessResult.errors`` counts those
exceptions by type.

Only the best point is judged, by ``ModelContext.record`` on its own
context: one gap quadrature per search.  Where its f' does not integrate
to f on [a, b] (f jumps, say), its ratio means nothing, so it is no
violation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

# theorem_hypotheses is not called here; perfbench/tracer.py patches it by name.
from .convexity import ClassCheckConfig, theorem_hypotheses  # noqa: F401
from .errors import EmptyFeasibleSetError
from .models import FunctionModel
from .sweep import BOUND_TABLE, ModelContext, Tolerances

__all__ = ["TightnessResult", "optimize_tightness", "SEARCH_TAGS",
           "COARSE_POINTS", "MAX_ITERS"]

# The propositions bound special means, not the model's f, so a search takes
# the other bounds.
SEARCH_TAGS = tuple(tag for tag, bound in BOUND_TABLE.items()
                    if not bound.is_prop)

# Every search evaluates lhs at this quadrature tolerance, checks the
# hypotheses on the default grid, seeds each ranged axis with COARSE_POINTS
# points and makes at most MAX_ITERS compass rounds.
_TOLERANCES = Tolerances(quad_tol=1e-9)
_CHECK_CFG = ClassCheckConfig()
COARSE_POINTS = 5
MAX_ITERS = 60


@dataclass(frozen=True)
class TightnessResult:
    """The best point of a search.  Its ``hypotheses_pass``, ``violation``
    (a finding, not a tightness result), ``oracle_residual`` and
    ``oracle_failed`` (tagged oracle-residual) are read from its record."""
    theorem: str
    params: Mapping[str, float]
    ratio: float
    trace_len: int
    hypotheses_pass: bool
    violation: bool = False
    # Exceptions the search turned into "infeasible", counted by type:
    # those of the flags and sides it read, so not a flags error at a point
    # whose ratio could not beat the best.
    errors: Mapping[str, int] = field(default_factory=dict)
    oracle_residual: float = math.nan
    oracle_failed: bool = False


def _range(box: Mapping, key: str, default: float) -> tuple[float, float]:
    """box[key] as (lo, hi); a scalar fixes the parameter."""
    v = box.get(key, default)
    lo, hi = (v, v) if isinstance(v, (int, float)) else (v[0], v[1])
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"box.{key}: need finite bounds, got ({lo}, {hi})")
    if lo > hi:
        raise ValueError(f"box.{key}: need lo <= hi, got ({lo}, {hi})")
    return (lo, hi)


def optimize_tightness(theorem: str, model: FunctionModel, box: Mapping,
                       require_hypotheses: bool = True) -> TightnessResult:
    """Maximize lhs/rhs for one bound over a parameter box.

    ``box`` maps "a"/"b"/"s"/"q" to finite (lo, hi) ranges or fixed
    scalars; an s or q axis the bound does not use is fixed where
    ``bound.point`` puts it.  ``COARSE_POINTS`` seed each ranged axis and
    ``MAX_ITERS`` bound the compass rounds.  Deterministic for fixed arguments.

    Each evaluated point reads its flags at most once, and only where its
    ratio can become the best (see the module docstring).  So once a
    feasible point is known, a point the flags would reject still pays for
    its lhs: a quadrature that straddles a pole spends its whole budget,
    ``quadrature.MAX_SUBDIVISIONS`` bisections, before it raises.  Only
    the best point is judged, at the end, which computes its gap-identity
    residual; an error there propagates.
    """
    if theorem not in SEARCH_TAGS:
        raise ValueError(f"unknown bound {theorem!r} (expected one of {sorted(SEARCH_TAGS)})")
    bound = BOUND_TABLE[theorem]
    # q = 2 stands for any q > 1. A q <= 1 stays in a q > 1 bound's box, infeasible.
    ranges = [_range(box, "a", 0.0), _range(box, "b", 0.0),
              tuple(bound.point(s, 2.0)[0] for s in _range(box, "s", 1.0)),
              tuple((bound.point(1.0, q) or (1.0, q))[1] for q in _range(box, "q", 1.0))]
    cache: dict[tuple, tuple] = {}
    evals = 0
    errors: Counter[str] = Counter()
    best: tuple = (-math.inf, None, None)   # (ratio, context, point)

    def visit(pt: Sequence[float]) -> bool:
        """Evaluate pt once (points equal to 12 decimals are one) and keep
        it if its ratio beats the best; True if it did."""
        nonlocal best
        a, b, s, q = pt
        key = (round(a, 12), round(b, 12), round(s, 12), round(q, 12))
        if key not in cache:
            cache[key] = evaluate(a, b, s, q, best[0])
        ratio, ctx = cache[key]
        if not ratio > best[0]:
            return False
        best = (ratio, ctx, pt)
        return True

    def evaluate(a: float, b: float, s: float, q: float,
                 floor: float) -> tuple[float, ModelContext | None]:
        """(ratio, context), -inf if infeasible, with flags read only where
        they can matter: no context unless the ratio beats ``floor``, the
        best ratio so far, which only rises."""
        nonlocal evals
        infeasible = (-math.inf, None)
        if not all(lo <= v <= hi for v, (lo, hi) in zip((a, b, s, q), ranges)):
            return infeasible
        if not (a + 1e-9 < b and model.contains(a, b)):
            return infeasible
        if bound.point(s, q) is None:
            return infeasible
        evals += 1
        ctx = ModelContext(model, _TOLERANCES, _CHECK_CFG, a, b)
        try:
            # With nothing to beat yet any ratio needs the flags: read them
            # first, and spare the sides of a required point that fails them.
            hyp_ok = all(ctx.flags(bound, s, q)) if floor == -math.inf else None
            if require_hypotheses and hyp_ok is False:
                return infeasible
            lhs, rhs = ctx.sides(bound, s, q)
            ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
            # A ratio that does not beat the floor is never chosen, now or
            # later, so its flags would change nothing.
            if not ratio > floor:
                return (ratio, None)
            if hyp_ok is None:
                hyp_ok = all(ctx.flags(bound, s, q))
                if require_hypotheses and not hyp_ok:
                    return infeasible
        except Exception as e:
            errors[type(e).__name__] += 1
            return infeasible
        return (ratio, ctx)

    n = COARSE_POINTS
    for pt in itertools.product(*([lo + (hi - lo) * i / (n - 1) for i in range(n)]
                                   if hi > lo else [lo] for lo, hi in ranges)):
        visit(pt)
    if best[1] is None:
        raise EmptyFeasibleSetError(
            f"no feasible point for {theorem} in the given box")

    # Compass search on the active axes, from the best point.
    steps = [(hi - lo) / 4.0 for lo, hi in ranges]
    for _ in range(MAX_ITERS):
        if all(st <= 1e-6 for st in steps):
            break
        improved = False
        for i, st in enumerate(steps):
            if st <= 0.0:
                continue
            for sign in (1.0, -1.0):
                cand = list(best[2])
                cand[i] += sign * st
                improved |= visit(cand)
        if not improved:
            steps = [st / 2.0 for st in steps]

    ratio, ctx, pt = best
    rec = ctx.record(theorem, pt[2], pt[3])
    if rec.error is not None:
        raise rec.error
    return TightnessResult(
        theorem=theorem,
        params={"a": pt[0], "b": pt[1], "s": pt[2], "q": pt[3]},
        ratio=ratio,
        trace_len=evals,
        hypotheses_pass=rec.hyp_class and rec.hyp_monotone and rec.hyp_fprime_a,
        violation=rec.verdict == "violation",
        errors=dict(sorted(errors.items())),
        oracle_residual=rec.oracle_residual,
        oracle_failed="oracle-residual" in rec.discrepancy.split(";"),
    )
