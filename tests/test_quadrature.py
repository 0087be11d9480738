import math

import numpy as np
import pytest

from hhverify import quadrature
from hhverify.errors import MaxSubdivisionsExceeded, NonFiniteSample
from hhverify.models import power_model
from hhverify.quadrature import integrate, mean_integral


def split_abs_kink(w, tol=1e-12):
    """Contract: |1-2t|-weighted integrands are pre-split at t = 1/2."""
    lo = integrate(lambda t: (1.0 - 2.0 * t) * w(t), 0.0, 0.5, tol=tol)
    hi = integrate(lambda t: (2.0 * t - 1.0) * w(t), 0.5, 1.0, tol=tol)
    return lo.value + hi.value


def test_unit_integral():
    r = integrate(lambda t: 1.0, 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-15)
    assert r.error_estimate <= 1e-12


def test_exponential():
    r = integrate(np.exp, 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-14)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_abs_kink_power_identity(p):
    # integral of |1-2t|^p over [0,1] equals 1/(p+1)
    lo = integrate(lambda t: (1.0 - 2.0 * t) ** p, 0.0, 0.5, tol=1e-12).value
    hi = integrate(lambda t: (2.0 * t - 1.0) ** p, 0.5, 1.0, tol=1e-12).value
    assert abs(lo + hi - 1.0 / (p + 1.0)) <= 1e-10


def test_kink_split_weight_one():
    assert abs(split_abs_kink(lambda t: 1.0) - 0.5) <= 1e-14


def test_mean_integral_linear():
    # mean of a linear function is its midpoint value
    class Lin:
        lo, hi = 0.5, 1.5
        f = staticmethod(lambda x: x)
    assert mean_integral(Lin, 0.5, 1.5, tol=1e-12) == pytest.approx(1.0, rel=1e-14)


def test_mean_integral_square():
    class Sq:
        lo, hi = 1e-12, 1.0
        f = staticmethod(lambda x: x * x)
    got = mean_integral(Sq, 1e-12, 1.0, tol=1e-12)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_mean_integral_power_model():
    # antiderivative route: (1/(b-a)) * (4/3) (b^{3/2} - a^{3/2}) for f = 2 sqrt(x)
    m = power_model(0.5)
    a, b = 0.25, 0.75
    expected = (4.0 / 3.0) * (b ** 1.5 - a ** 1.5) / (b - a)
    assert mean_integral(m, a, b, tol=1e-12) == pytest.approx(expected, rel=1e-12)


def test_mean_integral_validates_domain():
    m = power_model(0.5)
    with pytest.raises(ValueError):
        mean_integral(m, 0.5, 0.25)
    with pytest.raises(ValueError):
        mean_integral(m, 0.25, 1.5)


def test_richardson_consistency():
    # halving tol never worsens the error beyond roundoff on a smooth corpus
    corpus = [
        (lambda t: np.exp(-400.0 * (t - 0.3) ** 2), 0.0, 1.0,
         math.sqrt(math.pi / 400.0) / 2.0 * (math.erf(20.0 * 0.7) + math.erf(20.0 * 0.3))),
        (lambda t: 1.0 / (1.0 + 100.0 * t * t), 0.0, 1.0,
         math.atan(10.0) / 10.0),
        (lambda t: 1e6 ** t, 0.0, 1.0, (1e6 - 1.0) / math.log(1e6)),
    ]
    for g, lo, hi, ref in corpus:
        scale = max(1.0, abs(ref))
        errs = []
        tol = 1e-4
        while tol >= 1e-12:
            errs.append(abs(integrate(g, lo, hi, tol=tol).value - ref))
            tol /= 2.0
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= prev + 4.0 * 2.2e-16 * scale


def test_deterministic():
    g = lambda t: np.exp(-400.0 * (t - 0.3) ** 2)
    r1 = integrate(g, 0.0, 1.0, tol=1e-11)
    r2 = integrate(g, 0.0, 1.0, tol=1e-11)
    assert r1 == r2


def test_non_finite_sample_reports_point():
    def g(t):
        return np.log(np.abs(t - 0.5))   # -inf at t = 0.5
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteSample) as exc:
        integrate(g, 0.0, 1.0, tol=1e-8)
    assert exc.value.x == pytest.approx(0.5)


def test_subdivision_budget_reports_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
    g = lambda t: np.exp(-400.0 * (t - 0.3) ** 2)
    with pytest.raises(MaxSubdivisionsExceeded) as exc:
        integrate(g, 0.0, 1.0, tol=1e-12)
    best = exc.value.best
    assert best.subdivisions == 3
    assert math.isfinite(best.value)
    ref = math.sqrt(math.pi / 400.0) / 2.0 * (math.erf(14.0) + math.erf(6.0))
    assert abs(best.value - ref) <= best.error_estimate + 1e-3


def test_divergent_integrand_fails_loudly():
    # 1/t on (0, 1]: samples stay finite but refinement hits the width floor
    with pytest.raises(MaxSubdivisionsExceeded):
        integrate(lambda t: 1.0 / t, 0.0, 1.0, tol=1e-10)


# Near the top of the float range lo + hi overflows, though lo, hi and
# every node between them are finite.
HUGE = (1e308, 1.7e308)


def _recorded(g):
    """g, and the list of the node arrays it is called with."""
    seen = []

    def wrapped(x):
        seen.append(np.array(x, dtype=float))
        return g(seen[-1])
    return wrapped, seen


def test_panel_nodes_near_the_top_of_the_range():
    const, seen = _recorded(np.ones_like)
    assert integrate(const, *HUGE).value == pytest.approx(7e307, rel=1e-15)
    nodes = np.concatenate(seen)
    assert HUGE[0] <= nodes.min() and nodes.max() <= HUGE[1]
    # the samples are finite; the integral of ln x there, about 5e310, is not
    with pytest.raises(OverflowError, match="integral over"):
        integrate(np.log, *HUGE)


def test_bisection_near_the_top_of_the_range():
    # a Lorentzian of width 1e306: the panels must be split to resolve it
    bump, seen = _recorded(lambda x: 1e-306 / (1.0 + ((x - 1.35e308) / 1e306) ** 2))
    res = integrate(bump, *HUGE)
    assert res.subdivisions > 0
    assert res.value == pytest.approx(2.0 * math.atan(35.0), rel=1e-12)
    nodes = np.concatenate(seen)
    assert HUGE[0] <= nodes.min() and nodes.max() <= HUGE[1]


def test_error_share_near_the_top_of_the_range():
    # The same Lorentzian at height 1: its integral, about 3e306, times a
    # panel's width overflows, so a panel's share of the error target
    # must be taken as a fraction of the span first.
    w, c = 1e306, 1.35e308
    res = integrate(lambda x: 1.0 / (1.0 + ((x - c) / w) ** 2), *HUGE)
    exact = w * (math.atan((HUGE[1] - c) / w) - math.atan((HUGE[0] - c) / w))
    assert res.subdivisions > 0
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, 1.0, tol=0.0)
