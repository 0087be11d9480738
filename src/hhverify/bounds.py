"""Trapezoid-mean gap, its integral form, and the right-hand-side bound
evaluators.

Naming used throughout the toolkit:

    lhs        |(f(a)+f(b))/2 - (1/(b-a)) * integral_a^b f|   (trapezoid-mean gap)
    alpha      |f'(a)|^u * |f'(b)|^(-v)                        (derivative ratio)
    factor_*   the |f'(b)|^s-weighted kernel combinations
    rhs_*      full right-hand sides, prefactors included

Bound identifiers (also the wire-format tags): eq8 and eq9 are the two
classical baselines (|f'| convex resp. |f'|^q convex via Holder); eq10,
eq11 and eq111 are the derivative-ratio bounds for the s-geometrically
convex class (plain, Holder-split and power-mean-split routes).

Every right-hand side reads f only through the endpoint magnitudes
fa = |f'(a)| and fb = |f'(b)|, so the evaluators are plain formulas over
numbers and none takes the model: the rhs_* take (a, b, fa, fb) and the
bound's own s, q or p, the factor_* take (fa, fb) and s, q.
``sweep.ModelContext`` evaluates fa and fb once per (model, a, b), in
one call of f' on the array [a, b], as ``trapezoid_mean_gap`` does f(a)
and f(b).

The evaluators compute values unconditionally; hypothesis gating is the
harness's job, since measuring what happens outside the stated
preconditions is part of the toolkit's purpose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError
from .gfuncs import ALPHA_MAX, ALPHA_MIN, g_full, g_lower, g_upper
from .models import evaluate_points
from .quadrature import integrate, mean_integral

__all__ = [
    "trapezoid_mean_gap", "gap_integral_form", "alpha_ratio",
    "factor_abs", "factor_holder", "factor_power_mean",
    "rhs_eq8", "rhs_eq9", "rhs_eq10", "rhs_eq11", "rhs_eq111",
    "conjugate_exponent",
]


def trapezoid_mean_gap(m, a: float, b: float, tol: float = 1e-10) -> float:
    """|average of endpoint values - mean integral| for the model's f.

    f(a) and f(b) come from one call on the array [a, b], the same bits
    as two one-point calls.
    """
    f_a, f_b = evaluate_points(m.f, np.array([a, b], dtype=float)).tolist()
    return abs(0.5 * (f_a + f_b) - mean_integral(m, a, b, tol=tol))


def gap_integral_form(m, a: float, b: float, tol: float = 1e-10) -> float:
    """Signed gap via the derivative representation:

        (b-a)/2 * integral_0^1 (1-2t) f'(t*a + (1-t)*b) dt

    Its absolute value must reproduce trapezoid_mean_gap; the residual of
    that identity is the standing oracle check on the quadrature plumbing.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")

    def integrand(t):
        return (1.0 - 2.0 * t) * m.fprime(t * a + (1.0 - t) * b)

    res = integrate(integrand, 0.0, 1.0, tol=tol)
    return 0.5 * (b - a) * res.value


def alpha_ratio(fprime_a_abs: float, fprime_b_abs: float,
                u: float, v: float) -> float:
    """|f'(a)|^u * |f'(b)|^(-v), computed in the log domain.

    Requires strictly positive derivative magnitudes and u, v > 0; the
    result is clamped to the supported kernel window [1e-12, 1e12]
    (OutOfRangeError beyond it).
    """
    fa = float(fprime_a_abs)
    fb = float(fprime_b_abs)
    if not (fa > 0.0 and fb > 0.0):
        raise ValueError(f"derivative magnitudes must be positive, got ({fa}, {fb})")
    if not (u > 0.0 and v > 0.0):
        raise ValueError(f"exponents must be positive, got u={u}, v={v}")
    ln_alpha = u * math.log(fa) - v * math.log(fb)
    if not (math.log(ALPHA_MIN) <= ln_alpha <= math.log(ALPHA_MAX)):
        raise OutOfRangeError("alpha", math.inf if ln_alpha > 0 else 0.0,
                              ALPHA_MIN, ALPHA_MAX)
    return math.exp(ln_alpha)


def factor_abs(fa: float, fb: float, s: float) -> float:
    """|f'(b)|^s * (g_lower + g_upper) at alpha(s, s)."""
    al = alpha_ratio(fa, fb, s, s)
    return fb ** s * (g_lower(al).value + g_upper(al).value)


def factor_holder(fa: float, fb: float, s: float, q: float) -> float:
    """|f'(b)|^s * g_full(alpha(s*q, s*q))^(1/q); requires q > 1."""
    if not q > 1.0:
        raise ValueError(f"need q > 1, got {q}")
    al = alpha_ratio(fa, fb, s * q, s * q)
    return fb ** s * g_full(al).value ** (1.0 / q)


def factor_power_mean(fa: float, fb: float, s: float, q: float) -> float:
    """|f'(b)|^s * (g_lower^(1/q) + g_upper^(1/q)) at alpha(s*q, s*q); q >= 1.

    At q = 1 this collapses to factor_abs evaluated at alpha(s, s).
    """
    if not q >= 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    al = alpha_ratio(fa, fb, s * q, s * q)
    inv_q = 1.0 / q
    return fb ** s * (g_lower(al).value ** inv_q + g_upper(al).value ** inv_q)


def conjugate_exponent(q: float) -> float:
    """p with 1/p + 1/q = 1 (q > 1)."""
    if not q > 1.0:
        raise ValueError(f"conjugate exponent undefined for q={q}")
    return q / (q - 1.0)


def rhs_eq10(a: float, b: float, fa: float, fb: float, s: float) -> float:
    """(b-a)/2 times the plain-route factor."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    return 0.5 * (b - a) * factor_abs(fa, fb, s)


def rhs_eq11(a: float, b: float, fa: float, fb: float, s: float, q: float) -> float:
    """(b-a)/(2*(p+1)^(1/p)) times the Holder-route factor, 1/p + 1/q = 1."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    p = conjugate_exponent(q)
    return (b - a) / (2.0 * (p + 1.0) ** (1.0 / p)) * factor_holder(fa, fb, s, q)


def rhs_eq111(a: float, b: float, fa: float, fb: float, s: float, q: float) -> float:
    """(b-a)/2 * (1/4)^(1 - 1/q) times the power-mean-route factor."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    if not q >= 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    pref = 0.5 * (b - a) * 0.25 ** (1.0 - 1.0 / q)
    return pref * factor_power_mean(fa, fb, s, q)


def rhs_eq8(a: float, b: float, fa: float, fb: float) -> float:
    """Classical baseline for |f'| convex: (b-a)(|f'(a)| + |f'(b)|)/8."""
    return (b - a) * (fa + fb) / 8.0


def rhs_eq9(a: float, b: float, fa: float, fb: float, p: float) -> float:
    """Classical Holder baseline for |f'|^(p/(p-1)) convex, p > 1:

        (b-a)/(2*(p+1)^(1/p)) * ((|f'(a)|^q + |f'(b)|^q)/2)^(1/q),  q = p/(p-1)
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    q = p / (p - 1.0)
    mean_q = 0.5 * (fa ** q + fb ** q)
    return (b - a) / (2.0 * (p + 1.0) ** (1.0 / p)) * mean_q ** (1.0 / q)
