"""Grid-based predicates for convexity classes, monotonicity, and the
per-bound hypothesis bundles.

The classes are universally quantified over (x, y, t), so at desk scale the
predicates are falsification-oriented semi-decisions: "no violation found on
the grid within slack".  Failures are exact and come back as witnesses.

Grid policy: x and y share one grid (so the x = y diagonal, where the
s < 1 degeneracy bites, is always included); the t grid has odd size, so
0, 1/2 and 1 are grid points (the equality/extremal cases).  The linear
cube t*x + (1-t)*y over xs = linspace(a, b, n) has only (n-1)^2 + 1
distinct points, a fine grid (``_linear_cube``), where g is sampled: on
the default config's dyadic intervals bitwise the product form, elsewhere
within a few ulps of it.  A geometric check is a linear one in log-log
coordinates: ln g(x^t * y^(1-t)) = phi(t*ln x + (1-t)*ln y) with
phi = ln o g o exp, so g is s-geometrically convex on [a, b] exactly when
phi is s-convex on [ln a, ln b].  Its x grid is uniform in ln x and its
cube is exp of the linear cube of ln x (``_log_cube``), within 16 ulps of
x^t * y^(1-t) where |ln x| < 8.  It first requires g finite and > 0 on
xs, shared with the monotone check, so a zero of g there is never missed.
Cube points are clipped to [a, b], a and b exact.

Half cube: every class inequality is unchanged when (x, y, t) is swapped
for (y, x, 1-t), and on the grid the swap is exact.  The t axis is built
so that ts[n-1-k] == 1 - ts[k] bitwise (``_by_size``), so the point, the
weights t^s and (1-t)^s, and both sides of the inequality at
(xs[j], xs[i], ts[n-1-k]) are bitwise those at (xs[i], xs[j], ts[k]): the
same products added in the other order, and IEEE addition commutes, and
the same fine grid point m.  So the checks compare only the pairs i <= j,
times every t, as rows of pairs in row-major order (``_by_size``):
n^2(n+1)/2 points instead of n^3.  The count, the witnesses and the point
an error names are still those of the full cube.

Cost, with n = grid_points rounded up to odd: every class check compares
the half cube a slab of pair rows at a time (``_slabs``) and stops at the
first slab that holds a violation (``_compare``).  A failed check's count
and witnesses take a second, full pass and its n^3 mask (``_tally``), run
only when one of them is read, which the sweep and the search never do.
Two one-slot caches hold what the checks share: the t axis, the pair rows
and lin per grid size (``_by_size``), and per (a, b, n), for every
function checked there (``_Interval``), the x grid and the two cubes' fine
grids, each built on first use.  The latest g checked on the interval is
sampled on each once (n or (n-1)^2 + 1 points: 4,097 at n = 65), checked
finite, and on the log cube checked positive and logged.  A further check
of an equal g there (the same object, or ``AbsPower`` of the same fprime
and q, which the sweep builds afresh for each check) costs one O(n^3 / 2)
compare pass, or part of one.  The monotone check and |f'(a)| read the
x-grid sample.  ``theorem_hypotheses`` checks |f'| whatever the bound's q,
so the bundle costs one class check per (a, b, s), and the convexity gate
of eq9 reuses eq8's check of |fprime| and samples |fprime|^q only where
that fails; ``sweep.ModelContext.flags`` says why.  A check at another q
is of another g and evaluates fprime again.  Only the latest interval is
kept, with the latest g's samples, read-only: about 0.16 MB at n = 65, and
lin, n^2(n+1)/2 int32 entries (0.56 MB).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeValueError, NonPositiveValueError
from .models import evaluate_points

__all__ = [
    "ClassCheckConfig", "Witness", "CheckResult", "HypothesisReport", "AbsPower",
    "is_convex", "is_s_convex", "is_geometrically_convex",
    "is_s_geometrically_convex", "is_monotone_decreasing",
    "theorem_hypotheses", "MAX_WITNESSES",
]

# Witnesses a failed check keeps: the first ones in grid order.
MAX_WITNESSES = 64

# Points per slab of the comparison.  Slabs this small stay in cache, and
# their temporaries come from the heap instead of fresh page-faulted maps.
_SLAB_POINTS = 1 << 14


@dataclass(frozen=True)
class ClassCheckConfig:
    grid_points: int = 33
    slack: float = 1e-9

    def __post_init__(self):
        n = self.grid_points
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"grid_points must be an int, got {n!r}")
        if n < 3:
            raise ValueError("grid_points must be >= 3")
        if not (math.isfinite(self.slack) and self.slack >= 0.0):
            raise ValueError(f"slack must be finite and >= 0, got {self.slack!r}")


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


@dataclass(frozen=True, slots=True)
class CheckResult:
    """A verdict, the violation count over the full cube and the first
    ``MAX_WITNESSES`` witnesses.  A failed class check tallies the last two
    when either is first read, from what it saw.  Until then it keeps alive
    g's fine-grid sample, its log and that grid, and the two n x n rhs
    tables, not the interval cache: 166 KB at n = 65 on the log cube, and
    the ``_by_size`` axes (0.6 MB), which every check of that size shares."""
    ok: bool
    witnesses: tuple[Witness, ...]
    violation_count: int = 0
    _tally: Callable | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __bool__(self) -> bool:
        return self.ok

    def __getattr__(self, name):
        # Only a deferred result lacks these two, until one is read.
        if name not in ("witnesses", "violation_count"):
            raise AttributeError(name)
        wit, count = self._tally()
        object.__setattr__(self, "witnesses", wit)
        object.__setattr__(self, "violation_count", count)
        object.__setattr__(self, "_tally", None)
        return getattr(self, name)

    @classmethod
    def _deferred(cls, tally: Callable) -> "CheckResult":
        res = object.__new__(cls)
        object.__setattr__(res, "ok", False)
        object.__setattr__(res, "_tally", tally)
        return res


@dataclass(frozen=True)
class AbsPower:
    """x -> |fprime(x)|^q for a finite q > 0, the map the bounds' class
    hypotheses are about.

    Equal AbsPowers (an equal fprime and q) are one function to the checks:
    on the same interval, one reads the samples taken for the last, so
    fprime must be a pure function.
    """
    fprime: Callable
    q: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 0.0):
            raise ValueError(f"q must be finite and > 0, got {self.q!r}")

    def __call__(self, x):
        vals = np.abs(self.fprime(x))
        if self.q == 1.0:
            return vals
        with np.errstate(over="ignore"):  # an overflow raises in _checked
            return vals ** self.q


def _clip(pts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Every point lies between x and y in exact arithmetic, but rounding
    # puts some one ulp outside [xs[0], xs[-1]]: g is sampled on the
    # interval only.
    return np.clip(pts, xs[0], xs[-1], out=pts)


# One slot: every check of a sweep uses one grid size.
@lru_cache(maxsize=1)
def _by_size(n: int) -> tuple[np.ndarray, ...]:
    """What depends on the grid size alone, read-only: the t axis, the
    half cube's rows (iu, ju), every pair i <= j in row-major order, which
    is the full cube's C order restricted to i <= j, and the linear cube's
    index into its fine grid, lin[p, k] = j*(n-1) + k*(i-j) for the p-th
    pair (i, j), as int32.  The t axis mirrors exactly, ts[n-1-k] == 1 -
    ts[k]: its lower half is 1 minus its upper half, exact by Sterbenz, and
    so is 1 - ts[k] for every k.  That equals linspace where n - 1 is a
    power of two (9, 33, 65) and moves points by under one ulp of 1
    elsewhere."""
    ts = np.linspace(0.0, 1.0, n)
    m = n // 2
    ts[m] = 0.5
    ts[:m] = 1.0 - ts[:m:-1]
    iu, ju = np.triu_indices(n)
    i, j = iu.astype(np.int32), ju.astype(np.int32)
    lin = j[:, None] * np.int32(n - 1) + (i - j)[:, None] * np.arange(n, dtype=np.int32)
    for arr in (ts, iu, ju, lin):
        arr.flags.writeable = False
    return ts, iu, ju, lin


def _linear_cube(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The linear cube's distinct points, the fine grid: t*x_i + (1-t)*x_j
    at t = k/(n-1) is lo + (hi-lo)*m/(n-1)^2 with m = j*(n-1) + k*(i-j) in
    exact arithmetic, so [p, k] reads fine[lin[p, k]] (``_by_size``).  The
    x grid is fine[::n-1]: bitwise already where n - 1 is a power of two,
    since the two steps then differ by an exact power-of-two factor."""
    n = len(xs)
    fine = np.linspace(xs[0], xs[-1], (n - 1) ** 2 + 1)
    fine[::n - 1] = xs
    return _clip(fine, xs)


def _log_cube(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The geometric cube's distinct points: x_i^t * x_j^(1-t) over the log
    x grid exp(linspace(ln lo, ln hi, n)) is exp of the linear cube of that
    linspace, read through lin.  Its every (n-1)-th point is the log x grid;
    lo and hi are exact."""
    n = len(xs)
    vs = np.linspace(np.log(xs[0]), np.log(xs[-1]), n)
    fine = np.linspace(vs[0], vs[-1], (n - 1) ** 2 + 1)
    fine[::n - 1] = vs
    np.exp(fine, out=fine)
    fine[[0, -1]] = xs[[0, -1]]
    return _clip(fine, xs)


class _Interval:
    """The grid of one (lo, hi, n) and what every check there shares,
    read-only: the x grid and the cubes' points, keyed by cube (None for
    the x grid) and built on first use, and for the latest g only, the
    checked values and logs the checks compare (``checked``, by cube).  An
    equal g reads them, so g must be pure.  ts, iu, ju and lin are
    ``_by_size(n)``'s."""

    def __init__(self, lo: float, hi: float, n: int):
        self.ts, self.iu, self.ju, self.lin = _by_size(n)
        self.xs = np.linspace(lo, hi, n)
        self.xs.flags.writeable = False
        self.points = {None: self.xs}
        self.g, self.checked = None, {}


# One slot: a sweep runs every check on one interval, for every model,
# before it moves to the next, and a model's checks there one after another.
_interval = lru_cache(maxsize=1)(_Interval)


def _require_positive(pts: np.ndarray, vals: np.ndarray) -> None:
    if vals.min() <= 0.0:
        i = int(np.argmax(vals <= 0.0))
        raise NonPositiveValueError(float(pts.flat[i]), float(vals.flat[i]))


def _checked(vals: np.ndarray, pts: np.ndarray, grid: _Interval,
             cube: Callable | None) -> tuple[np.ndarray, np.ndarray | None]:
    """(vals, ln vals on the log cube, else None).  A non-finite value
    raises DomainError naming its point, and a non-positive one on the log
    cube NonPositiveValueError.  On a cube that is the full cube's first bad
    point in C order: the first in the order of lin, gathered here only,
    since a point (j, i, k') with j > i holds the same value as its mirror
    (i, j, k), which comes first."""
    finite = np.isfinite(vals)
    if finite.all() and not (cube is _log_cube and vals.min() <= 0.0):
        return vals, np.log(vals) if cube is _log_cube else None
    if cube is not None:
        pts, vals, finite = pts[grid.lin], vals[grid.lin], finite[grid.lin]
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(float(pts.flat[i]), "function not finite at grid point")
    _require_positive(pts, vals)   # raises: some value is <= 0


def _sampled(g: Callable, grid: _Interval, cube: Callable | None = None
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """(g, ln g or None) on the x grid, or on the points of cube(xs, ts),
    through ``_checked``, once per cube for the latest g: a g equal to the
    last one reads the samples taken for it, so g must be pure, and
    another g releases them."""
    if g != grid.g:
        grid.g, grid.checked = g, {}
    if cube not in grid.checked:
        if cube not in grid.points:
            grid.points[cube] = pts = cube(grid.xs, grid.ts)
            pts.flags.writeable = False
        pts = grid.points[cube]
        grid.checked[cube] = _checked(evaluate_points(g, pts), pts, grid, cube)
        for arr in grid.checked[cube]:
            if arr is not None:
                arr.flags.writeable = False
    return grid.checked[cube]


def _slabs(xs, axes, vals, ln, ax, ay, slack):
    """(rows, mask of the violations of lhs <= rhs by more than slack) per
    slab of pair rows, in order; axes is ``_by_size(n)``.  lhs at [p, k]
    reads the fine grid at lin[p, k].  Linear (ln None): vals is g there,
    and a violation is lhs > rhs + slack and lhs > rhs*(1 + slack): the
    slack is absolute up to rhs = 1 and relative above.  Geometric: ln is
    ln g there, ax and ay give ln rhs, and a violation is ln lhs > ln rhs +
    slack, a relative slack at every scale.  rhs (or ln rhs) at [p, k] is
    ax[iu[p], k] + ay[ju[p], k]."""
    _, iu, ju, lin = axes
    step = max(1, _SLAB_POINTS // len(xs))
    for p0 in range(0, len(lin), step):
        rows = slice(p0, p0 + step)
        left = np.take(vals if ln is None else ln, lin[rows])
        right = np.take(ax, iu[rows], axis=0) + np.take(ay, ju[rows], axis=0)
        v = left > right + slack
        if ln is None and v.any():
            v &= left > right * (1.0 + slack)
        yield rows, v


def _compare(*args) -> CheckResult:
    """The verdict of ``_slabs(*args)`` over the full cube, which stops at
    the first slab that holds a violation: (x_j, x_i, ts[n-1-k]) violates
    exactly when (x_i, x_j, ts[k]) does, with the same two sides.  A failed
    result runs ``_tally`` when its count or witnesses are first read."""
    if not any(v.any() for _, v in _slabs(*args)):
        return CheckResult(True, (), 0)
    return CheckResult._deferred(partial(_tally, MAX_WITNESSES, *args))


def _tally(limit: int, xs, axes, vals, ln, ax, ay, slack):
    """(witnesses, violation count) of a failed check, read off the full
    cube's violation mask, the half's and its mirror's.  Witnesses, the
    first ``limit`` in C order, carry values, not logs, at their own
    (i, j, k): rhs adds the mirror's two products in the other order, and
    lhs's fine index is the mirror's."""
    ts, iu, ju, _ = axes
    n = len(xs)
    half = np.concatenate([v for _, v in _slabs(xs, axes, vals, ln, ax, ay, slack)])
    full = np.empty((n, n, n), dtype=bool)
    full[iu, ju] = half
    full[ju, iu] = half[:, ::-1]
    i, j, k = np.unravel_index(np.flatnonzero(full)[:limit], full.shape)
    rhs = ax[i, k] + ay[j, k]
    lhs = vals[j * (n - 1) + k * (i - j)]
    wit = map(Witness, xs[i].tolist(), xs[j].tolist(), ts[k].tolist(),
              lhs.tolist(), (rhs if ln is None else np.exp(rhs)).tolist())
    return tuple(wit), int(np.count_nonzero(full))


def _axes(interval: tuple[float, float], cfg: ClassCheckConfig) -> _Interval:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    n = cfg.grid_points if cfg.grid_points % 2 == 1 else cfg.grid_points + 1
    return _interval(lo, hi, n)


def _check(g: Callable, interval: tuple[float, float], s: float,
           geometric: bool, cfg: ClassCheckConfig,
           nonnegative: bool = False) -> CheckResult:
    """The class inequality with weights t^s and (1-t)^s on the grid:
    g(t*x + (1-t)*y) <= t^s*g(x) + (1-t)^s*g(y), or, geometric,
    g(x^t * y^(1-t)) <= g(x)^(t^s) * g(y)^((1-t)^s) with g > 0 required,
    compared in logs on the log x grid.
    ``nonnegative`` rejects a linear g below -slack on the x grid."""
    if geometric and not interval[0] > 0.0:
        raise ValueError(f"interval must lie in (0, inf), got {interval}")
    grid = _axes(interval, cfg)
    xs, ts = grid.xs, grid.ts
    gx, _ = _sampled(g, grid)
    if geometric:
        _require_positive(xs, gx)
    elif nonnegative:
        neg = gx < -cfg.slack
        if neg.any():
            i = int(np.argmax(neg))
            raise NegativeValueError(float(xs[i]), float(gx[i]))
    cube = _log_cube if geometric else _linear_cube
    vals, ln = _sampled(g, grid, cube)
    if geometric:   # the log x grid, every (n-1)-th fine point, and ln g there
        xs, gx = grid.points[cube][::len(xs) - 1], ln[::len(xs) - 1]
    t = ts[None, :]
    # rhs at (i, j, k) is ax[i, k] + ay[j, k]: the products are those of
    # t^s*g(x_i) + (1-t)^s*g(x_j), so a row gathers them instead of
    # multiplying.
    ax, ay = gx[:, None] * t ** s, gx[:, None] * (1.0 - t) ** s
    axes = ts, grid.iu, grid.ju, grid.lin
    return _compare(xs, axes, vals, ln, ax, ay, cfg.slack)


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
    grid = _axes(interval, cfg)
    xs, (gx, _) = grid.xs, _sampled(g, grid)
    viol = gx[1:] > gx[:-1] + cfg.slack
    idx = np.flatnonzero(viol)
    wit = tuple(
        Witness(float(xs[i]), float(xs[i + 1]), math.nan,
                float(gx[i + 1]), float(gx[i]))
        for i in idx[:MAX_WITNESSES]
    )
    return CheckResult(len(idx) == 0, wit, int(len(idx)))


@dataclass(frozen=True)
class HypothesisReport:
    """What the checks of one bound's preconditions on [a, b] found: the
    two checks' results (a failed one tallies its witnesses when they are
    first read) and |f'(a)|, with the flag |f'(a)| <= 1 + slack."""
    class_check: CheckResult
    monotone_check: CheckResult
    fprime_a_abs: float
    fprime_a_le_1: bool

    class_ok = property(lambda self: self.class_check.ok)
    monotone_decreasing_ok = property(lambda self: self.monotone_check.ok)


def theorem_hypotheses(m, a: float, b: float, s: float,
                       cfg: ClassCheckConfig = ClassCheckConfig()) -> HypothesisReport:
    """The derivative-ratio bounds' preconditions on [a, b]: |f'|
    s-geometrically convex, |f'| monotone decreasing, and |f'(a)| <= 1.

    The bounds state the class for |f'|^q.  Since ln(|f'|^q) = q*ln|f'|,
    |f'|^q is s-geometrically convex for one q > 0 exactly when it is for
    every q, so |f'| is checked, once for every q.  On the grid the check
    compares logs, which scale by q, so this holds up to points whose log
    margin ln lhs - ln rhs lies between slack and slack/q.  The two checks
    and |f'(a)|, the x grid's first point, read one sample of |f'|.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not (m.lo <= a and b <= m.hi):
        raise ValueError(f"[{a}, {b}] outside model domain [{m.lo}, {m.hi}]")

    g = AbsPower(m.fprime)
    class_res = is_s_geometrically_convex(g, (a, b), s, cfg)
    mono_res = is_monotone_decreasing(g, (a, b), cfg)
    fpa = float(_sampled(g, _axes((a, b), cfg))[0][0])
    return HypothesisReport(class_res, mono_res, fpa, fpa <= 1.0 + cfg.slack)
