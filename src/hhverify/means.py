"""Special means and the power-family proposition machinery.

Means: arithmetic A(a,b), logarithmic L(a,b), generalized logarithmic
L_p(a,b) for p outside {-1, 0}.  All of them are computed in the log
domain where exponents like s(s-1) or sq(s-1) appear, because bases in
(0, 1] with negative exponents inflate quickly.

The proposition checks compare the means-route formulas for the power
family f(x) = x^s / s on 0 < a < b <= 1 against the g-kernel route.
Two of the printed identities (the aa endpoint identity and the cc
kernel identity, plus the U form) are exact algebra; the other two (bb
and the V form, ee) are measured and classified rather than asserted,
with the quadrature-backed kernels as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, gfuncs
from .errors import UnsupportedExponentError
from .models import power_model

__all__ = [
    "arith_mean", "log_mean", "gen_log_mean",
    "prop_lhs", "prop41_rhs", "prop32_rhs", "prop33_rhs",
    "printed_u", "printed_v",
    "residual_aa", "DualRoute", "dual_route_bb", "residual_cc",
    "deviation_dd", "deviation_ee",
]

_EXPONENT_GUARD = 1e-9
_EQUAL_REL = 1e-12


def arith_mean(a: float, b: float) -> float:
    _check_positive(a, b)
    return 0.5 * a + 0.5 * b


def log_mean(a: float, b: float) -> float:
    """(b - a)/(ln b - ln a); continuous limit a as b -> a."""
    _check_positive(a, b)
    if abs(b - a) <= _EQUAL_REL * a:
        return float(a)
    return (b - a) / (math.log(b) - math.log(a))


def gen_log_mean(a: float, b: float, p: float) -> float:
    """((b^(p+1) - a^(p+1)) / ((p+1)(b-a)))^(1/p) for p outside {-1, 0}."""
    _check_positive(a, b)
    p = float(p)
    if abs(p) <= _EXPONENT_GUARD or abs(p + 1.0) <= _EXPONENT_GUARD:
        raise UnsupportedExponentError(p)
    if abs(b - a) <= _EQUAL_REL * a:
        return float(a)
    num = b ** (p + 1.0) - a ** (p + 1.0)
    return (num / ((p + 1.0) * (b - a))) ** (1.0 / p)


def _check_positive(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"means need positive arguments, got ({a}, {b})")


def _check_prop_range(a: float, b: float, s: float, strict: bool = True) -> None:
    if not (0.0 < a <= b <= 1.0):
        raise ValueError(f"need 0 < a <= b <= 1, got ({a}, {b})")
    if strict and not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not (0.0 < s < 1.0):
        raise ValueError(f"need s in (0, 1), got {s}")


def _pow(base: float, e: float) -> float:
    # log-domain power for bases in (0, 1] with negative exponents
    return math.exp(e * math.log(base))


def prop_lhs(a: float, b: float, s: float) -> float:
    """|A(a^s, b^s) - (L_s(a, b))^s|, the special-means gap.

    Returns 0 at a == b (both means collapse to a^s).
    """
    _check_prop_range(a, b, s, strict=False)
    if abs(b - a) <= _EQUAL_REL * a:
        return 0.0
    ls = gen_log_mean(a, b, s)
    return abs(arith_mean(_pow(a, s), _pow(b, s)) - _pow(ls, s))


def prop41_rhs(a: float, b: float, s: float) -> float:
    """Printed plain-route proposition bound:

        (b-a) * s * b^(s(s-1)) / 2 * L(a', b') * [A(a', b') - L(a', b')/2]

    with a' = a^(s(s-1)), b' = b^(s(s-1)).
    """
    _check_prop_range(a, b, s)
    e = s * (s - 1.0)
    ap, bp = _pow(a, e), _pow(b, e)
    lm = log_mean(ap, bp)
    return 0.5 * (b - a) * s * bp * lm * (arith_mean(ap, bp) - 0.5 * lm)


def prop32_rhs(a: float, b: float, s: float, q: float) -> float:
    """Printed Holder-route proposition bound:

        (b-a) * s * b^(sq(1-s)) / (2 (p+1)^(1/p)) * L(a'', b'')^(1/q)

    with a'' = a^(sq(s-1)), b'' = b^(sq(s-1)) and 1/p + 1/q = 1.
    """
    _check_prop_range(a, b, s)
    p = bounds.conjugate_exponent(q)
    e = s * q * (s - 1.0)
    lm = log_mean(_pow(a, e), _pow(b, e))
    pref = (b - a) * s * _pow(b, s * q * (1.0 - s)) / (2.0 * (p + 1.0) ** (1.0 / p))
    return pref * lm ** (1.0 / q)


def printed_u(a: float, b: float, s: float, q: float) -> float:
    """The printed mean-form U:

        U = 1/(ln a'' - ln b'') * ( L(sqrt(a''), sqrt(b'')) / sqrt(b'') - 1 )

    Algebraically this equals g_lower(alpha(sq, sq)); deviation_dd
    measures the agreement.
    """
    _check_prop_range(a, b, s)
    e = s * q * (s - 1.0)
    ap, bp = _pow(a, e), _pow(b, e)
    denom = math.log(ap) - math.log(bp)
    half = log_mean(math.sqrt(ap), math.sqrt(bp))
    return (half / math.sqrt(bp) - 1.0) / denom


def printed_v(a: float, b: float, s: float, q: float) -> float:
    """The printed ratio-form V, taken literally:

        V = (a/b)^(2qs(s-1)) / (ln a'' - ln b'')
            * [1 - ((a/b)^(sq(s-1)) + 1) / ((a/b)^(sq(s-1)) * (ln a''' - ln b'''))]

    with a'' = a^(sq(s-1)) etc. and a''' = a^(sq(s-1)/2).  This does NOT
    match g_upper(alpha(sq, sq)) (deviation_ee quantifies it) and can be
    negative.
    """
    _check_prop_range(a, b, s)
    e = s * q * (s - 1.0)
    r = _pow(a / b, e)           # (a/b)^(sq(s-1)) = alpha(sq, sq)
    u = e * (math.log(a) - math.log(b))   # ln of r
    return (r * r / u) * (1.0 - (r + 1.0) / (r * (0.5 * u)))


def prop33_rhs(a: float, b: float, s: float, q: float) -> float:
    """Printed power-mean-route proposition bound:

        s(b-a)/2 * (1/4)^(1-1/q) * b^(s(s-1)) * [U^(1/q) + V^(1/q)]

    Raises ValueError when V < 0 and q > 1 (the printed form has no real
    value there; the harness records those points as evaluation errors).
    """
    _check_prop_range(a, b, s)
    if not q >= 1.0:
        raise ValueError(f"need q >= 1, got {q}")
    u_val = printed_u(a, b, s, q)
    v_val = printed_v(a, b, s, q)
    if v_val < 0.0 and q > 1.0:
        raise ValueError(f"printed V is negative ({v_val!r}); "
                         f"V^(1/q) undefined for q={q}")
    inv_q = 1.0 / q
    pref = 0.5 * s * (b - a) * 0.25 ** (1.0 - inv_q) * _pow(b, s * (s - 1.0))
    return pref * (u_val ** inv_q + math.copysign(abs(v_val) ** inv_q, v_val))


# ---------------------------------------------------------------------------
# Dual-route identity checks
# ---------------------------------------------------------------------------

def residual_aa(a: float, b: float, s: float, tol: float = 1e-10) -> float:
    """|trapezoid-mean gap of the power model - (1/s) * prop_lhs|.

    Exact algebra; the residual is quadrature noise only.
    """
    _check_prop_range(a, b, s)
    m = power_model(s, lo=min(a, 0.01), hi=1.0)
    gap = bounds.trapezoid_mean_gap(m, a, b, tol=tol)
    return abs(gap - prop_lhs(a, b, s) / s)


@dataclass(frozen=True)
class DualRoute:
    """Outcome of comparing a printed means-route value with the g-kernel
    route: both values, the relative deviation, and a classification."""
    means_value: float
    kernel_value: float
    deviation: float
    classification: str  # "consistent" | "discrepant"


def _classify(means_value: float, kernel_value: float, tol: float) -> DualRoute:
    scale = max(1.0, abs(kernel_value))
    dev = abs(means_value - kernel_value) / scale
    cls = "consistent" if dev <= tol else "discrepant"
    return DualRoute(means_value, kernel_value, dev, cls)


def dual_route_bb(a: float, b: float, s: float, tol: float = 1e-8) -> DualRoute:
    """Printed plain-route factor vs |f'(b)|^s (g_lower + g_upper).

    Measure-and-classify: the printed algebra does not reduce to the
    kernel route, so expect "discrepant"; ground truth is the
    quadrature-backed kernel side.
    """
    _check_prop_range(a, b, s)
    e = s * (s - 1.0)
    ap, bp = _pow(a, e), _pow(b, e)
    lm = log_mean(ap, bp)
    means_value = bp * lm * (arith_mean(ap, bp) - 0.5 * lm)
    al = bounds.alpha_ratio(_pow(a, s - 1.0), _pow(b, s - 1.0), s, s)
    kernel_value = bp * (gfuncs.g_lower(al).value + gfuncs.g_upper(al).value)
    return _classify(means_value, kernel_value, tol)


def _alpha_sq(a: float, b: float, s: float, q: float) -> float:
    """alpha(sq, sq) of the power family's |f'| = x^(s-1) at a and b."""
    return bounds.alpha_ratio(_pow(a, s - 1.0), _pow(b, s - 1.0), s * q, s * q)


def residual_cc(a: float, b: float, s: float, q: float) -> float:
    """|g_full(alpha(sq, sq)) - L(a'', b'') / b''|; exact algebra."""
    _check_prop_range(a, b, s)
    if not q > 1.0:
        raise ValueError(f"need q > 1, got {q}")
    e = s * q * (s - 1.0)
    ap, bp = _pow(a, e), _pow(b, e)
    means_value = log_mean(ap, bp) / bp
    al = _alpha_sq(a, b, s, q)
    return abs(gfuncs.g_full(al).value - means_value)


def deviation_dd(a: float, b: float, s: float, q: float) -> float:
    """Relative deviation of printed U from g_lower(alpha(sq, sq)); exact."""
    al = _alpha_sq(a, b, s, q)
    g = gfuncs.g_lower(al).value
    return abs(printed_u(a, b, s, q) - g) / max(1.0, abs(g))


def deviation_ee(a: float, b: float, s: float, q: float, tol: float = 1e-8) -> DualRoute:
    """Printed V vs g_upper(alpha(sq, sq)); expected discrepant."""
    al = _alpha_sq(a, b, s, q)
    return _classify(printed_v(a, b, s, q), gfuncs.g_upper(al).value, tol)
