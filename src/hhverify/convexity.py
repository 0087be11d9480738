"""Grid-based predicates for convexity classes, monotonicity, and the
per-bound hypothesis bundles.

The classes are universally quantified over (x, y, t), so at desk scale the
predicates are falsification-oriented semi-decisions: "no violation found on
the grid within slack".  Failures are exact and come back as witnesses.

Grid policy: x and y share one grid (so the x = y diagonal, where the s < 1
degeneracy bites, is always included); the t grid has odd size, so 0, 1/2
and 1 are grid points (the equality/extremal cases).  Cube points are
clipped to [a, b], so g is never sampled outside the interval.

Half cube: every class inequality is unchanged when (x, y, t) is swapped
for (y, x, 1-t), and on the grid the swap is exact.  The t axis is built
so that ts[n-1-k] == 1 - ts[k] bitwise (``_grid``), so the point, the
weights t^s and (1-t)^s, and both sides of the inequality at
(xs[j], xs[i], ts[n-1-k]) are bitwise those at (xs[i], xs[j], ts[k]): the
same products added in the other order, and IEEE addition commutes.  So
the checks sample and compare only the pairs i <= j, times every t, as
rows of pairs in row-major order (``_pairs``): n^2(n+1)/2 points instead
of n^3.  The count, the witnesses and the point an error names are still
those of the full cube.

Cost, with n = grid_points rounded up to odd: every class check compares
the half cube in one kernel, ``_compare``, a slab of pair rows at a time.
For ``AbsPower(fprime, q)``, the |f'|^q that the bounds' hypotheses are
about, |fprime| is sampled once per (fprime, a, b, n): on the x grid, on
the linear half cube t*x + (1-t)*y and on the geometric half cube
x^t * y^(1-t), each on first use.  Each further check on that interval
then costs a few O(n^3 / 2) array passes, plus a power of the sample when
q != 1; the monotone check reads the x-grid sample.  The sweep checks
the bundle at q = 1 whatever the bound's q (``sweep.BoundSpec.gate_point``
says why), so the bundle costs one class check per (a, b, s), and only
the convexity gate of eq8/eq9 pays the power.  Only the latest interval's
sample is kept: read-only, it holds the two half cubes of points and
|fprime| on them, four n^2(n+1)/2 float64 arrays (about 4.5 MB at n = 65).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, NegativeValueError, NonPositiveValueError
from .models import evaluate_points

__all__ = [
    "ClassCheckConfig", "Witness", "CheckResult", "HypothesisReport", "AbsPower",
    "is_convex", "is_s_convex", "is_geometrically_convex",
    "is_s_geometrically_convex", "is_monotone_decreasing",
    "theorem_hypotheses",
]

# Points per slab of the comparison.  Slabs this small stay in cache, and
# their temporaries come from the heap instead of fresh page-faulted maps.
_SLAB_POINTS = 1 << 14


@dataclass(frozen=True)
class ClassCheckConfig:
    grid_points: int = 33
    slack: float = 1e-9
    max_witnesses: int = 64

    def __post_init__(self):
        for name in ("grid_points", "max_witnesses"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {v!r}")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if not (math.isfinite(self.slack) and self.slack >= 0.0):
            raise ValueError(f"slack must be finite and >= 0, got {self.slack!r}")
        if self.max_witnesses < 0:
            raise ValueError(f"max_witnesses must be >= 0, got {self.max_witnesses!r}")


@dataclass(frozen=True)
class Witness:
    """One grid point violating the defining inequality by more than slack:
    lhs > rhs + slack*max(1, rhs) for the linear classes, ln lhs > ln rhs +
    slack for the geometric ones, lhs > rhs + slack for a decreasing check.
    lhs and rhs are values, never logs."""
    x: float
    y: float
    t: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witnesses: tuple[Witness, ...]
    violation_count: int = 0

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AbsPower:
    """x -> |fprime(x)|^q, the map the bounds' class hypotheses are about.

    The checks recognise it and sample |fprime| once per grid, so another q
    or s on the same interval costs a power and a comparison, not a
    re-evaluation.  fprime must be a pure, hashable function: it keys
    the sample.
    """
    fprime: Callable
    q: float = 1.0

    def __call__(self, x):
        return np.abs(self.fprime(x)) ** self.q


def _clip(pts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Every point lies between x and y in exact arithmetic, but rounding
    # puts some one ulp outside [xs[0], xs[-1]]: g is sampled on the
    # interval only.
    return np.clip(pts, xs[0], xs[-1], out=pts)


# One slot, as for _grid: every check of a sweep uses one grid size.
@lru_cache(maxsize=1)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the half cube's rows: every pair i <= j, in row-major
    order, which is the full cube's C order restricted to i <= j."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _pair_row(i, j, n: int):
    """The half-cube row of the pair (i, j), i <= j."""
    return i * n - i * (i - 1) // 2 + j - i


def _linear_cube(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """t*x + (1-t)*y at [p, k] = (xs[i], xs[j], ts[k]) for the p-th pair."""
    iu, ju = _pairs(len(xs))
    t = ts[None, :]
    return _clip(t * xs[iu, None] + (1.0 - t) * xs[ju, None], xs)


def _geometric_cube(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """x^t * y^(1-t), computed in log space, at [p, k]."""
    iu, ju = _pairs(len(xs))
    t = ts[None, :]
    lnx = np.log(xs)
    return _clip(np.exp(t * lnx[iu, None] + (1.0 - t) * lnx[ju, None]), xs)


# Callers reach the checks through their public signatures only, so the
# sample is kept here.  One slot: a sweep finishes each interval before the
# next, and memory stays at one interval's cubes.
@lru_cache(maxsize=1)
def _abs_samples(fprime: Callable, lo: float, hi: float, n: int) -> dict:
    """(points, |fprime| there) per point set of one interval's grid, keyed
    by cube (None for the x grid); ``_sampled`` fills it on first use."""
    return {}


def _sampled(g: Callable, xs: np.ndarray, ts: np.ndarray,
             cube: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(points, g there) on the x grid, or on the half cube cube(xs, ts); a
    non-finite value raises DomainError naming its point.  That is the
    first bad point of the full cube in C order too: a point (j, i, k') with
    j > i holds the same value as its mirror (i, j, k), which comes first."""
    if isinstance(g, AbsPower):
        samples = _abs_samples(g.fprime, xs[0], xs[-1], len(xs))
        if cube not in samples:
            pts = xs if cube is None else cube(xs, ts)
            vals = np.abs(evaluate_points(g.fprime, pts))
            pts.flags.writeable = vals.flags.writeable = False
            samples[cube] = pts, vals
        pts, vals = samples[cube]
        if g.q != 1.0:
            with np.errstate(over="ignore"):  # an overflow raises below
                vals = vals ** g.q
    else:
        pts = xs if cube is None else cube(xs, ts)
        vals = evaluate_points(g, pts)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(float(pts.flat[i]), "function not finite at grid point")
    return pts, vals


def _require_positive(pts: np.ndarray, vals: np.ndarray) -> None:
    if vals.min() <= 0.0:
        i = int(np.argmax(vals <= 0.0))
        raise NonPositiveValueError(float(pts.flat[i]), float(vals.flat[i]))


def _compare(lhs: np.ndarray, rhs_rows: Callable, xs: np.ndarray,
             ts: np.ndarray, cfg: ClassCheckConfig,
             geometric: bool) -> CheckResult:
    """Violations of lhs <= rhs by more than slack over the full (x, y, t)
    cube, from its half.  Linear: lhs > rhs + slack and lhs > rhs*(1 +
    slack), so the slack is absolute up to rhs = 1 and relative above.
    Geometric: rhs_rows gives ln rhs, and the test is ln lhs > ln rhs +
    slack, a relative slack at every scale.  Witnesses carry values, not
    logs, and are the first max_witnesses violations in the full cube's C
    order.

    rhs_rows(rows) gives rhs on the pair rows ``rows`` (a slice or an index
    array); the half cube is compared a slab of rows at a time, so the
    temporaries stay small.  (x_j, x_i, ts[n-1-k]) violates exactly when
    (x_i, x_j, ts[k]) does, with the same two sides, so each off-diagonal
    violation counts twice and a diagonal row holds every t once.
    """
    n = len(xs)
    viol = np.empty(lhs.shape, dtype=bool)
    step = max(1, _SLAB_POINTS // n)
    for p0 in range(0, len(lhs), step):
        rows = slice(p0, p0 + step)
        left, right = lhs[rows], rhs_rows(rows)
        if geometric:
            left = np.log(left)
        v = np.greater(left, right + cfg.slack, out=viol[rows])
        if not geometric and v.any():
            v &= left > right * (1.0 + cfg.slack)
    found = int(np.count_nonzero(viol))
    if not found:
        return CheckResult(True, (), 0)
    diag = _pair_row(np.arange(n), np.arange(n), n)
    count = 2 * found - int(np.count_nonzero(viol[diag]))
    # Witnesses in the full cube's order; a mirrored one reads its two
    # sides at its pair's row, where they are the same bits.
    iu, ju = _pairs(n)
    full = np.empty((n, n, n), dtype=bool)
    full[ju, iu] = viol[:, ::-1]
    full[iu, ju] = viol
    i, j, k = np.unravel_index(np.flatnonzero(full)[:cfg.max_witnesses], full.shape)
    p = _pair_row(np.minimum(i, j), np.maximum(i, j), n)
    kc = np.where(i > j, n - 1 - k, k)
    rhs = rhs_rows(p)[np.arange(len(p)), kc]
    wit = map(Witness, xs[i].tolist(), xs[j].tolist(), ts[k].tolist(),
              lhs[p, kc].tolist(), (np.exp(rhs) if geometric else rhs).tolist())
    return CheckResult(False, tuple(wit), count)


def _axes(interval: tuple[float, float], cfg: ClassCheckConfig):
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    n = cfg.grid_points if cfg.grid_points % 2 == 1 else cfg.grid_points + 1
    return _grid(lo, hi, n)


# One slot, as for _abs_samples: a sweep runs every check on one interval
# before it moves to the next.
@lru_cache(maxsize=1)
def _grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and t axes, read-only because every check on (lo, hi, n)
    shares them.  The t axis mirrors exactly, ts[n-1-k] == 1 - ts[k]: its
    lower half is 1 minus its upper half, exact by Sterbenz, and so is
    1 - ts[k] for every k.  That equals linspace where n - 1 is a power of
    two (9, 33, 65) and moves points by under one ulp of 1 elsewhere."""
    xs = np.linspace(lo, hi, n)
    ts = np.linspace(0.0, 1.0, n)
    m = n // 2
    ts[m] = 0.5
    ts[:m] = 1.0 - ts[:m:-1]
    xs.flags.writeable = ts.flags.writeable = False
    return xs, ts


def _check(g: Callable, interval: tuple[float, float], s: float,
           geometric: bool, cfg: ClassCheckConfig,
           nonnegative: bool = False) -> CheckResult:
    """The class inequality with weights t^s and (1-t)^s on the grid:
    g(t*x + (1-t)*y) <= t^s*g(x) + (1-t)^s*g(y), or, geometric,
    g(x^t * y^(1-t)) <= g(x)^(t^s) * g(y)^((1-t)^s) with g > 0 required,
    compared in logs.
    ``nonnegative`` rejects a linear g below -slack on the x grid."""
    if geometric and not interval[0] > 0.0:
        raise ValueError(f"interval must lie in (0, inf), got {interval}")
    xs, ts = _axes(interval, cfg)
    _, gx = _sampled(g, xs, ts)
    if geometric:
        _require_positive(xs, gx)
    elif nonnegative:
        neg = gx < -cfg.slack
        if neg.any():
            i = int(np.argmax(neg))
            raise NegativeValueError(float(xs[i]), float(gx[i]))
    pts, lhs = _sampled(g, xs, ts, _geometric_cube if geometric else _linear_cube)
    t = ts[None, :]
    wx, wy = t ** s, (1.0 - t) ** s
    if geometric:
        _require_positive(pts, lhs)
        gx = np.log(gx)
    iu, ju = _pairs(len(xs))

    def rhs_rows(rows):
        return wx * gx[iu[rows], None] + wy * gx[ju[rows], None]
    return _compare(lhs, rhs_rows, xs, ts, cfg, geometric)


def is_convex(g: Callable, interval: tuple[float, float],
              cfg: ClassCheckConfig = ClassCheckConfig()) -> CheckResult:
    """g(t*x + (1-t)*y) <= t*g(x) + (1-t)*g(y) on the grid."""
    return _check(g, interval, 1.0, False, cfg)


def is_s_convex(g: Callable, interval: tuple[float, float], s: float,
                cfg: ClassCheckConfig = ClassCheckConfig()) -> CheckResult:
    """Second-sense variant: weights t, 1-t are raised to the power s.

    The class is defined for maps into [0, inf); a genuinely negative value
    raises NegativeValueError.  At s = 1 this coincides with is_convex on
    the same grid.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    return _check(g, interval, s, False, cfg, nonnegative=True)


def is_geometrically_convex(g: Callable, interval: tuple[float, float],
                            cfg: ClassCheckConfig = ClassCheckConfig()) -> CheckResult:
    """g(x^t * y^(1-t)) <= g(x)^t * g(y)^(1-t) on the grid (g > 0 required)."""
    return _check(g, interval, 1.0, True, cfg)


def is_s_geometrically_convex(g: Callable, interval: tuple[float, float], s: float,
                              cfg: ClassCheckConfig = ClassCheckConfig()) -> CheckResult:
    """g(x^t * y^(1-t)) <= g(x)^(t^s) * g(y)^((1-t)^s) on the grid.

    At s = 1 this is exactly is_geometrically_convex.  For s < 1 the
    diagonal x = y at t = 1/2 forces g(x) <= g(x)^(2^(1-s)), so any
    accepted g satisfies g >= 1 on the grid; in particular constants
    below 1 are rejected with a diagonal witness.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    return _check(g, interval, s, True, cfg)


def is_monotone_decreasing(g: Callable, interval: tuple[float, float],
                           cfg: ClassCheckConfig = ClassCheckConfig()) -> CheckResult:
    """g(x_i) >= g(x_{i+1}) - slack over the sorted grid.

    Witnesses use (x, y) for the adjacent pair and carry (lhs, rhs) =
    (g(y), g(x)); t is NaN (not meaningful here).
    """
    xs, ts = _axes(interval, cfg)
    _, gx = _sampled(g, xs, ts)
    viol = gx[1:] > gx[:-1] + cfg.slack
    idx = np.flatnonzero(viol)
    wit = tuple(
        Witness(float(xs[i]), float(xs[i + 1]), math.nan,
                float(gx[i + 1]), float(gx[i]))
        for i in idx[:cfg.max_witnesses]
    )
    return CheckResult(len(idx) == 0, wit, int(len(idx)))


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail record for one bound's preconditions on [a, b]."""
    class_ok: bool
    monotone_decreasing_ok: bool
    fprime_a_le_1: bool
    witnesses: Mapping[str, tuple[Witness, ...]] = field(default_factory=dict)
    params: Mapping[str, float] = field(default_factory=dict)


def theorem_hypotheses(m, a: float, b: float, s: float, q: float = 1.0,
                       cfg: ClassCheckConfig = ClassCheckConfig()) -> HypothesisReport:
    """Bundle the derivative-ratio bounds' preconditions into one report:
    |f'|^q s-geometrically convex on [a, b], |f'| monotone decreasing,
    and the side condition |f'(a)| <= 1.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not (m.lo <= a and b <= m.hi):
        raise ValueError(f"[{a}, {b}] outside model domain [{m.lo}, {m.hi}]")

    fprime = m.fprime
    class_res = is_s_geometrically_convex(AbsPower(fprime, q), (a, b), s, cfg)
    mono_res = is_monotone_decreasing(AbsPower(fprime), (a, b), cfg)
    fpa = float(np.abs(fprime(a)))
    return HypothesisReport(
        class_ok=class_res.ok,
        monotone_decreasing_ok=mono_res.ok,
        fprime_a_le_1=fpa <= 1.0 + cfg.slack,
        witnesses={"class": class_res.witnesses, "monotone": mono_res.witnesses},
        params={"a": a, "b": b, "s": float(s), "q": float(q),
                "fprime_a_abs": fpa, "grid_points": cfg.grid_points,
                "slack": cfg.slack},
    )
