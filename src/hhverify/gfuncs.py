"""Weighted exponential moments with removable singularities at alpha = 1.

The three kernels through which every derivative-ratio bound acts:

    g_lower(a) = integral_0^{1/2} (1-2t) a^t dt = (2*sqrt(a) - 2 - ln a) / (ln a)^2
    g_upper(a) = integral_{1/2}^1 (2t-1) a^t dt = (2*sqrt(a) - 2a + a*ln a) / (ln a)^2
    g_full(a)  = integral_0^1 a^t dt            = (a - 1) / ln a

Each closed form cancels catastrophically as a -> 1 (the numerators vanish
to second resp. first order), so below |ln a| < 1e-3 evaluation switches to
a truncated power series in u = ln a:

    g_lower = 1/4 +   u/24 +    u^2/192 +  u^3/1920 + O(u^4)
    g_upper = 1/4 + 5*u/24 + 17*u^2/192 + 49*u^3/1920 + O(u^4)
    g_full  =   1 +   u/2  +    u^2/6   +  u^3/24   + O(u^4)

(coefficients of g_lower/g_upper are 2^-(k+1)/(k!(k+1)(k+2)) and
k/(k!(k+1)(k+2)) + 2^-(k+1)/(k!(k+1)(k+2)); both families are re-derived
and pinned against the quadrature oracle in the tests).  At the switch the
truncation error is ~1e-16 while the closed forms are still good to ~5e-10,
so the branches agree well within 1e-9.

At a = 1 exactly the values are 1/4, 1/4 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRangeError

__all__ = ["GValue", "g_lower", "g_upper", "g_full",
           "SERIES_SWITCH", "ALPHA_MIN", "ALPHA_MAX"]

SERIES_SWITCH = 1e-3
ALPHA_MIN = 1e-12
ALPHA_MAX = 1e12


@dataclass(frozen=True)
class GValue:
    """A kernel value plus which evaluation branch produced it."""
    value: float
    branch: str  # "series" | "closed-form"


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX) or not math.isfinite(alpha):
        raise OutOfRangeError("alpha", alpha, ALPHA_MIN, ALPHA_MAX)
    return alpha


def g_lower(alpha: float) -> GValue:
    alpha = _check_alpha(alpha)
    u = math.log(alpha)
    if abs(u) < SERIES_SWITCH:
        v = 0.25 + u / 24.0 + u * u / 192.0 + u ** 3 / 1920.0
        return GValue(v, "series")
    v = (2.0 * math.sqrt(alpha) - 2.0 - u) / (u * u)
    return GValue(v, "closed-form")


def g_upper(alpha: float) -> GValue:
    alpha = _check_alpha(alpha)
    u = math.log(alpha)
    if abs(u) < SERIES_SWITCH:
        v = 0.25 + 5.0 * u / 24.0 + 17.0 * u * u / 192.0 + 49.0 * u ** 3 / 1920.0
        return GValue(v, "series")
    v = (2.0 * math.sqrt(alpha) - 2.0 * alpha + alpha * u) / (u * u)
    return GValue(v, "closed-form")


def g_full(alpha: float) -> GValue:
    alpha = _check_alpha(alpha)
    u = math.log(alpha)
    if abs(u) < SERIES_SWITCH:
        v = 1.0 + u / 2.0 + u * u / 6.0 + u ** 3 / 24.0
        return GValue(v, "series")
    return GValue((alpha - 1.0) / u, "closed-form")
