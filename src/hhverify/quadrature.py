"""Adaptive Gauss-Kronrod integration.

This is the independent oracle every closed-form expression in the toolkit
is checked against, so it is written for accuracy headroom rather than
speed: a 15-point Kronrod rule with the embedded 7-point Gauss rule for
the local error estimate, refined by deterministic interval bisection.

Tolerance semantics: refinement targets ``tol * max(1, |I|)``, i.e. the
requested tolerance is absolute for integrals of unit scale and relative
for larger ones.  Error estimates are the conservative |K15 - G7| local
differences, which in practice overestimate the true Kronrod error by
several orders of magnitude.

Integrand calls: the integrand takes a float array and returns values of
its shape, or a scalar.  The first panel calls it once, with the array
``c + h*_NODES`` of its 15 nodes: the center c, then c - h*x_j and
c + h*x_j for each abscissa x_j.  After that, each bisection calls it once
for both children: their 30 nodes, the left child's 15 first, each child's
built as above.  Whatever the integrand raises propagates.  The sums are
taken per panel in Python floats in a fixed order, written out without a
loop: the Kronrod sum adds the centre, then the pairs at -x_j and +x_j in
turn, and the Gauss sum the centre, then pairs 1, 3 and 5.  So the result
is the bits of a one-node-at-a-time oracle as long as the array call gives
each node the value a one-point call would.  The built-in and expression
models do.
Python's float ``**`` and NumPy's can differ in the last bit, and so can a
NumPy power whose exponent is an array holding 2, 0.5 or -1: it skips the
square, square root and reciprocal shortcuts a scalar exponent takes.
Every sample has a non-zero Kronrod weight, so only a panel whose Kronrod
sum is not finite is scanned: its first non-finite sample in node order
raises NonFiniteSample.  If none is, a sum of finite samples overflowed,
which raises OverflowError; so does a total over the panels that overflows.

Contract note for callers: integrands with the |1-2t| kink must be
pre-split at t = 1/2 (adaptive rules converge slowly across kinks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxSubdivisionsExceeded, NonFiniteSample
from .models import evaluate_points

__all__ = ["QuadResult", "integrate", "mean_integral", "MAX_SUBDIVISIONS"]

# integrate's budget of bisections: far above what a smooth integrand needs,
# and a non-integrable pole spends it in a fraction of a second.
MAX_SUBDIVISIONS = 10_000

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
# Embedded 7-point Gauss weights; Gauss nodes are _XGK[1], _XGK[3], _XGK[5]
# plus the center.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327
_NODES = np.array([0.0, *(s * x for x in _XGK for s in (-1.0, 1.0))])


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions: int


def _gk15(g: Callable, *panels: tuple[float, float]) -> list[tuple[float, float]]:
    """Kronrod panels (lo, hi) from one integrand call: a (K15 value,
    |K15 - G7| estimate) per panel, in order."""
    hs = []
    nodes = []
    for lo, hi in panels:
        h = 0.5 * (hi - lo)
        hs.append(h)
        nodes.append((0.5 * lo + 0.5 * hi) + h * _NODES)
    rows = evaluate_points(g, np.array(nodes)).tolist()
    out = []
    for (lo, hi), h, x, fx in zip(panels, hs, nodes, rows):
        # Python floats, summed in a fixed order: the same bits however
        # many panels share the call.  Pair j is the two samples at -x_j
        # and +x_j; the Gauss nodes are pairs 1, 3 and 5.
        mid, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = fx
        p1, p3, p5 = l1 + r1, l3 + r3, l5 + r5
        resk = (_WGK_CENTER * mid + _WGK[0] * (l0 + r0) + _WGK[1] * p1
                + _WGK[2] * (l2 + r2) + _WGK[3] * p3 + _WGK[4] * (l4 + r4)
                + _WGK[5] * p5 + _WGK[6] * (l6 + r6))
        resg = _WG_CENTER * mid + _WG[0] * p1 + _WG[1] * p3 + _WG[2] * p5
        if not math.isfinite(resk):
            for xi, v in zip(x.tolist(), fx):
                if not math.isfinite(v):
                    raise NonFiniteSample(xi)
            raise OverflowError(f"GK15 sum overflows on [{lo!r}, {hi!r}]")
        out.append((h * resk, abs(h * (resk - resg))))
    return out


def integrate(g: Callable, lo: float, hi: float,
              tol: float = 1e-10) -> QuadResult:
    """Integrate g over [lo, hi] by adaptive bisection of GK15 panels.

    g takes a float ndarray of nodes and returns values of its shape, or
    a scalar; an exception from g propagates.  Deterministic given its
    inputs.  Raises ValueError unless lo < hi and hi - lo is finite;
    NonFiniteSample and OverflowError as in the module docstring;
    MaxSubdivisionsExceeded (with the best estimate) if the budget of
    ``MAX_SUBDIVISIONS`` bisections or the width floor stops refinement
    short of the target.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"need finite lo < hi, got ({lo}, {hi})")
    if not tol > 0.0:
        raise ValueError(f"need tol > 0, got {tol}")

    span = hi - lo
    (k0, e0), = _gk15(g, (lo, hi))
    target = tol * max(1.0, abs(k0))
    width_floor = span * 2.0 ** -48

    stack = [(lo, hi, k0, e0)]
    value = 0.0
    err = 0.0
    subdivisions = 0
    floored = False

    while stack:
        a, b, k, e = stack.pop()
        share = target * ((b - a) / span)
        if e <= share:
            value += k
            err += e
            continue
        if (b - a) <= width_floor:
            value += k
            err += e
            floored = True
            continue
        if subdivisions >= MAX_SUBDIVISIONS:
            # Flush remaining panels into the best estimate before failing.
            best_v = value + k
            best_e = err + e
            for (_, _, kr, er) in stack:
                best_v += kr
                best_e += er
            raise MaxSubdivisionsExceeded(
                QuadResult(best_v, best_e, subdivisions))
        subdivisions += 1
        m = 0.5 * a + 0.5 * b
        left, right = _gk15(g, (a, m), (m, b))
        stack.append((a, m, *left))
        stack.append((m, b, *right))

    if not (math.isfinite(value) and math.isfinite(err)):
        raise OverflowError(f"integral over [{lo!r}, {hi!r}] overflows")
    result = QuadResult(value, err, subdivisions)
    if floored and err > target:
        raise MaxSubdivisionsExceeded(result, "interval width floor reached")
    return result


def mean_integral(m, a: float, b: float, tol: float = 1e-10) -> float:
    """(1/(b-a)) * integral of the model's f over [a, b]."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not (m.lo <= a and b <= m.hi):
        raise ValueError(f"[{a}, {b}] outside model domain [{m.lo}, {m.hi}]")
    res = integrate(m.f, a, b, tol=tol)
    return res.value / (b - a)
