"""Tightness search: how close does a bound get to its left-hand side?

Maximizes lhs/rhs over a box of (a, b, s, q) by coarse grid seeding plus
compass (pattern) search.  Derivative-free on purpose: the objective goes
through quadrature and hypothesis gates, so gradients are unavailable and
the landscape may have feasibility cliffs.

With ``require_hypotheses=True`` (the default) only parameter points whose
hypothesis report fully passes are feasible; EmptyFeasibleSetError if the
box contains none.  With False the search measures the raw ratio anywhere
the bound evaluates, which is how behaviour outside the stated
preconditions is quantified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import bounds
# theorem_hypotheses is not called here; perfbench/tracer.py patches it by name.
from .convexity import ClassCheckConfig, theorem_hypotheses  # noqa: F401
from .errors import EmptyFeasibleSetError
from .models import FunctionModel
from .sweep import BOUND_TABLE, hypothesis_flags

__all__ = ["TightnessResult", "optimize_tightness", "SEARCH_TAGS"]

# The propositions bound special means, not the model's f, so a search takes
# the other bounds.
SEARCH_TAGS = tuple(tag for tag, bound in BOUND_TABLE.items()
                    if not bound.is_prop)

_RATIO_GUARD = 1.0 + 1e-9


@dataclass(frozen=True)
class TightnessResult:
    theorem: str
    params: Mapping[str, float]
    ratio: float
    trace_len: int
    hypotheses_pass: bool
    # True when a hypothesis-passing point exceeded ratio 1 + 1e-9; such a
    # point is a violation finding, not a tightness result.
    violation: bool = False


@dataclass
class _Box:
    a: tuple[float, float]
    b: tuple[float, float]
    s: tuple[float, float]
    q: tuple[float, float]

    @classmethod
    def from_mapping(cls, box: Mapping) -> "_Box":
        def rng(key: str, default: tuple[float, float]) -> tuple[float, float]:
            v = box.get(key, default)
            if isinstance(v, (int, float)):
                return (float(v), float(v))
            lo, hi = float(v[0]), float(v[1])
            if lo > hi:
                raise ValueError(f"box.{key}: need lo <= hi, got ({lo}, {hi})")
            return (lo, hi)

        return cls(rng("a", (0.0, 0.0)), rng("b", (0.0, 0.0)),
                   rng("s", (1.0, 1.0)), rng("q", (1.0, 1.0)))


class _Objective:
    def __init__(self, theorem: str, model: FunctionModel, box: _Box,
                 require_hypotheses: bool, quad_tol: float,
                 check_cfg: ClassCheckConfig):
        self.bound = BOUND_TABLE[theorem]
        self.model = model
        self.box = box
        self.require = require_hypotheses
        self.quad_tol = quad_tol
        self.check_cfg = check_cfg
        self.evals = 0
        self.cache: dict[tuple, tuple[float, bool]] = {}

    def feasible(self, a: float, b: float, s: float, q: float) -> bool:
        box = self.box
        if not (box.a[0] <= a <= box.a[1] and box.b[0] <= b <= box.b[1]
                and box.s[0] <= s <= box.s[1] and box.q[0] <= q <= box.q[1]):
            return False
        if not (a + 1e-9 < b and self.model.contains(a, b)):
            return False
        if self.bound.q_rule == ">1" and not q > 1.0:
            return False
        return True

    def __call__(self, a: float, b: float, s: float, q: float) -> tuple[float, bool]:
        """Returns (ratio, hypotheses_pass); -inf when infeasible."""
        key = (round(a, 12), round(b, 12), round(s, 12), round(q, 12))
        if key in self.cache:
            return self.cache[key]
        if not self.feasible(a, b, s, q):
            result = (-math.inf, False)
            self.cache[key] = result
            return result
        self.evals += 1
        try:
            hyp_ok = all(hypothesis_flags(self.bound, self.model, a, b, s, q,
                                          self.check_cfg))
            if self.require and not hyp_ok:
                result = (-math.inf, False)
                self.cache[key] = result
                return result
            rhs = self.bound.rhs(self.model, a, b, s, q)
            lhs = bounds.trapezoid_mean_gap(self.model, a, b, tol=self.quad_tol)
        except Exception:
            result = (-math.inf, False)
            self.cache[key] = result
            return result
        ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
        result = (ratio, hyp_ok)
        self.cache[key] = result
        return result


def optimize_tightness(theorem: str, model: FunctionModel, box: Mapping,
                       require_hypotheses: bool = True,
                       coarse_points: int = 5, max_iters: int = 60,
                       quad_tol: float = 1e-9,
                       check_cfg: ClassCheckConfig | None = None) -> TightnessResult:
    """Maximize lhs/rhs for one bound over a parameter box.

    ``box`` maps "a"/"b"/"s"/"q" to (lo, hi) ranges or fixed scalars.
    Deterministic for fixed arguments.
    """
    if theorem not in SEARCH_TAGS:
        raise ValueError(f"unknown bound {theorem!r} (expected one of {sorted(SEARCH_TAGS)})")
    b = _Box.from_mapping(box)
    obj = _Objective(theorem, model, b, require_hypotheses, quad_tol,
                     check_cfg or ClassCheckConfig())

    def axis(rng: tuple[float, float]) -> list[float]:
        lo, hi = rng
        if hi <= lo:
            return [lo]
        n = coarse_points
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    best = (-math.inf, False)
    best_pt = None
    for av in axis(b.a):
        for bv in axis(b.b):
            for sv in axis(b.s):
                for qv in axis(b.q):
                    val = obj(av, bv, sv, qv)
                    if val[0] > best[0]:
                        best, best_pt = val, (av, bv, sv, qv)
    if best_pt is None or best[0] == -math.inf:
        raise EmptyFeasibleSetError(
            f"no feasible point for {theorem} in the given box")

    # Compass search on the active axes.
    spans = [b.a[1] - b.a[0], b.b[1] - b.b[0], b.s[1] - b.s[0], b.q[1] - b.q[0]]
    steps = [sp / 4.0 if sp > 0.0 else 0.0 for sp in spans]
    pt = list(best_pt)
    for _ in range(max_iters):
        if all(st <= 1e-6 for st in steps):
            break
        improved = False
        for i in range(4):
            if steps[i] <= 0.0:
                continue
            for sign in (1.0, -1.0):
                cand = list(pt)
                cand[i] += sign * steps[i]
                val = obj(*cand)
                if val[0] > best[0]:
                    best, pt, improved = val, cand, True
        if not improved:
            steps = [st / 2.0 for st in steps]

    ratio, hyp_ok = best
    return TightnessResult(
        theorem=theorem,
        params={"a": pt[0], "b": pt[1], "s": pt[2], "q": pt[3]},
        ratio=ratio,
        trace_len=obj.evals,
        hypotheses_pass=hyp_ok,
        violation=bool(hyp_ok and ratio > _RATIO_GUARD),
    )
