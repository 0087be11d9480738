"""The GK15 oracle, which evaluates the first panel's 15 nodes in one call
and each bisection's two children's 30 nodes in one more, against the
one-node-at-a-time oracle it replaced: same value, error estimate,
subdivisions and failures, bit for bit."""

import math

import numpy as np
import pytest

from hhverify import bounds, exprparse, quadrature
from hhverify.errors import (DomainError, MaxSubdivisionsExceeded,
                             NonFiniteSample)
from hhverify.models import exp_model, model_from_spec, power_model
from hhverify.quadrature import (_WG, _WG_CENTER, _WGK, _WGK_CENTER, _XGK,
                                 QuadResult, integrate, mean_integral)

# ---------------------------------------------------------------------------
# Reference: the scalar oracle, one integrand call per node.
# ---------------------------------------------------------------------------


def _ref_sample(g, x):
    v = float(g(x))
    if not math.isfinite(v):
        raise NonFiniteSample(x)
    return v


def _ref_gk15(g, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = _ref_sample(g, c)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j in range(7):
        x_off = h * _XGK[j]
        pair = _ref_sample(g, c - x_off) + _ref_sample(g, c + x_off)
        resk += _WGK[j] * pair
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    return h * resk, abs(h * (resk - resg))


def ref_integrate(g, lo, hi, tol=1e-10, max_subdivisions=10_000):
    lo = float(lo)
    hi = float(hi)
    span = hi - lo
    k0, e0 = _ref_gk15(g, lo, hi)
    target = tol * max(1.0, abs(k0))
    width_floor = span * 2.0 ** -48
    stack = [(lo, hi, k0, e0)]
    value = 0.0
    err = 0.0
    subdivisions = 0
    floored = False
    while stack:
        a, b, k, e = stack.pop()
        share = target * (b - a) / span
        if e <= share:
            value += k
            err += e
            continue
        if (b - a) <= width_floor:
            value += k
            err += e
            floored = True
            continue
        if subdivisions >= max_subdivisions:
            best_v = value + k
            best_e = err + e
            for (_, _, kr, er) in stack:
                best_v += kr
                best_e += er
            raise MaxSubdivisionsExceeded(
                QuadResult(best_v, best_e, subdivisions))
        subdivisions += 1
        m = 0.5 * (a + b)
        stack.append((a, m, *_ref_gk15(g, a, m)))
        stack.append((m, b, *_ref_gk15(g, m, b)))
    result = QuadResult(value, err, subdivisions)
    if floored and err > target:
        raise MaxSubdivisionsExceeded(result, "interval width floor reached")
    return result


def _bits(r):
    return (r.value.hex(), r.error_estimate.hex(), r.subdivisions)


def outcome(integ, g, lo, hi, **kw):
    """What one integration ends in, exactly: its result or its failure."""
    try:
        return ("ok", _bits(integ(g, lo, hi, **kw)))
    except NonFiniteSample as e:
        return ("non-finite", e.x.hex())
    except MaxSubdivisionsExceeded as e:
        return ("budget", _bits(e.best), str(e))
    except Exception as e:  # an integrand's own error, compared by type
        return ("raised", type(e).__name__)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

STEEP_LO = 1e-4
STEEP_SPECS = [
    {"builtin": "power", "s": 0.1, "domain": [STEEP_LO, 1.0]},
    {"expr": "x^0.2", "domain": [STEEP_LO, 1.0]},
    {"expr": "1 - ln(x)", "domain": [STEEP_LO, 1.0]},
    {"expr": "x^0.5 - ln(x)", "domain": [STEEP_LO, 1.0]},
]

NUMPY_LAMBDAS = [
    ("gauss", lambda t: np.exp(-400.0 * (t - 0.3) * (t - 0.3)), (0.0, 1.0)),
    ("runge", lambda t: 1.0 / (1.0 + 100.0 * t * t), (0.0, 1.0)),
    ("sqrt-log1p", lambda t: np.sqrt(t) * np.log1p(t), (0.0, 2.0)),
    ("damped-sin", lambda t: np.sin(30.0 * t) * np.exp(-t), (0.0, 3.0)),
    ("near-pole", lambda t: np.power(t + 1e-3, -0.9), (0.0, 1.0)),
    ("kink", lambda t: np.abs(t - 0.37), (0.0, 1.0)),
    ("step", lambda t: np.arctan(50.0 * (t - 0.5)), (0.0, 1.0)),
    ("constant", lambda t: 1.0, (0.0, 1.0)),
    ("one-over-t", lambda t: 1.0 / t, (0.0, 1.0)),
]


def _raise_where(bad, g):
    def h(t):
        if bad(t):
            raise ZeroDivisionError("integrand's own failure")
        return g(t)
    return h


ARRAY_CASES = [
    ("np.exp", np.exp, (0.0, 1.0)),
    ("np.arctan", np.arctan, (-3.0, 5.0)),
    ("branchy", lambda t: np.where(t > 0.2, np.sqrt(t), 0.0), (0.0, 1.0)),
    # the integrand's own error, on the first panel and after 4 to 11
    # bisections, by tolerance
    ("raise-first", _raise_where(lambda t: np.any(t > 0.99), np.exp), (0.0, 1.0)),
    ("raise-deep", _raise_where(lambda t: np.any(t < 1e-3), NUMPY_LAMBDAS[0][1]),
     (0.0, 1.0)),
]


def _log_kink(t):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(t - 0.5))


def _ln(src):
    tree = exprparse.parse(src)
    return lambda x: exprparse.eval_array(tree, x)


# Run on the whole interval only: on a sub-interval that misses the bad
# point, the log singularities refine down to the width floor.
NON_FINITE = [
    ("ln-center", _ln("ln(x)"), (-1.0, 1.0)),        # node 0 is nan
    ("ln-left", _ln("ln(x)"), (-0.5, 1.0)),          # node 1 first
    ("ln-right", _ln("ln(-x)"), (-1.0, 0.5)),        # node 2 first
    ("ln-deep", _ln("ln((x - 0.25)^2)"), (0.0, 1.0)),  # after a subdivision
    ("log-kink", _log_kink, (0.0, 1.0)),
]


def _model_cases():
    models = [model_from_spec(s) for s in STEEP_SPECS]
    models += [power_model(0.5), exp_model(1.0), exp_model(3.0, 0.5, 2.0)]
    for m in models:
        yield f"{m.name}:f", m.f, (m.lo, m.hi)
        yield f"{m.name}:f'", m.fprime, (m.lo, m.hi)


def corpus():
    """(name, integrand, domain, number of seeded sub-intervals)."""
    for case in (*NUMPY_LAMBDAS, *_model_cases(), *ARRAY_CASES):
        yield (*case, 3)
    for case in NON_FINITE:
        yield (*case, 0)


def _intervals(rng, lo, hi, n):
    """The whole interval plus n seeded sub-intervals (log-spaced near 0)."""
    out = [(lo, hi)]
    for _ in range(n):
        u, v = sorted(rng.uniform(0.0, 1.0, 2))
        if lo > 0.0 and hi / lo > 100.0:
            a, b = lo * (hi / lo) ** u, lo * (hi / lo) ** v
        else:
            a, b = lo + (hi - lo) * u, lo + (hi - lo) * v
        if a < b:
            out.append((a, b))
    return out


def test_panel_matches_scalar_oracle(monkeypatch):
    rng = np.random.default_rng(20261018)
    kinds = set()
    compared = 0
    budget = quadrature.MAX_SUBDIVISIONS
    for name, g, (lo, hi), n_sub in corpus():
        for a, b in _intervals(rng, lo, hi, n_sub):
            for tol, subdivisions in ((1e-6, budget), (1e-10, budget),
                                      (1e-12, budget), (1e-12, 3)):
                monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", subdivisions)
                want = outcome(ref_integrate, g, a, b, tol=tol,
                               max_subdivisions=subdivisions)
                got = outcome(integrate, g, a, b, tol=tol)
                assert got == want, (name, a, b, tol, subdivisions)
                kinds.add(want[0])
                compared += 1
    # every way an integration can end was compared
    assert kinds == {"ok", "non-finite", "budget", "raised"}
    assert compared > 400


@pytest.mark.parametrize("spec", STEEP_SPECS + [
    {"builtin": "power", "s": 0.5, "domain": [0.01, 1.0]},
    {"builtin": "exp", "rate": 1.0, "domain": [1.0, 2.0]},
    {"expr": "1/x", "domain": [1.0, 2.0]}])
def test_call_sites_match_scalar_oracle(spec):
    # mean_integral and gap_integral_form, against the scalar integrands
    # they used to pass
    m = model_from_spec(spec)
    rng = np.random.default_rng(7)
    for a, b in _intervals(rng, m.lo, m.hi, 4):
        want = ref_integrate(lambda x: float(m.f(x)), a, b).value / (b - a)
        assert mean_integral(m, a, b).hex() == want.hex()

        def gap(t):
            return (1.0 - 2.0 * t) * float(m.fprime(t * a + (1.0 - t) * b))
        want = 0.5 * (b - a) * ref_integrate(gap, 0.0, 1.0).value
        assert bounds.gap_integral_form(m, a, b).hex() == want.hex()


def test_one_call_per_panel():
    # the first panel alone, then one call per bisection for both children
    calls = []

    def g(t):
        calls.append(np.shape(t))
        return np.exp(-400.0 * (t - 0.3) * (t - 0.3))

    r = integrate(g, 0.0, 1.0, tol=1e-12)
    assert r.subdivisions > 0
    assert calls == [(15,)] + [(30,)] * r.subdivisions


def test_call_sites_evaluate_whole_panels():
    m = power_model(0.5)
    shapes = []

    def record(fn):
        def wrapped(x):
            shapes.append(np.shape(x))
            return fn(x)
        return wrapped

    spy = type(m)(m.name, m.lo, m.hi, record(m.f), record(m.fprime))
    mean_integral(spy, 0.25, 0.75)
    bounds.gap_integral_form(spy, 0.25, 0.75)
    assert set(shapes) == {(15,), (30,)}


def test_a_scalar_only_integrand_raises_its_own_error_at_once():
    calls = []

    def g(t):
        calls.append(np.shape(t))
        return math.exp(t)

    with pytest.raises(TypeError):
        integrate(g, 0.0, 1.0)
    assert calls == [(15,)]


def _ref_nodes(lo, hi):
    """The panel's nodes in sample order, as the scalar oracle builds them."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = [c]
    for x in _XGK:
        nodes += (c - h * x, c + h * x)
    return nodes


def test_a_raise_in_a_bisection_call_fails_the_integration():
    # NaN at a node of the first bisection's left child, and a DomainError
    # from any call that holds a node of its right child: the call holds
    # both children, so the integrand's own error wins, although the
    # one-panel-at-a-time oracle reaches the NaN first.
    right = set(_ref_nodes(0.5, 1.0))
    bad = _ref_nodes(0.0, 0.5)[3]
    shapes = []

    def g(t):
        shapes.append(np.shape(t))
        if right.intersection(np.ravel(t).tolist()):
            raise DomainError(min(right), "right child")
        return np.where(t == bad, np.nan, np.exp(-400.0 * (t - 0.3) ** 2))

    assert outcome(integrate, g, 0.0, 1.0) == ("raised", "DomainError")
    assert shapes == [(15,), (30,)]
    assert outcome(ref_integrate, g, 0.0, 1.0) == ("non-finite", bad.hex())


def test_non_finite_sample_names_a_python_float():
    with pytest.raises(NonFiniteSample) as info:
        integrate(lambda t: np.where(t > 0.99, np.nan, t), 0.0, 1.0)
    x = info.value.x
    assert type(x) is float and x == _ref_nodes(0.0, 1.0)[2]
    assert str(info.value) == f"integrand not finite at x={x!r}"
    assert str(info.value).startswith("integrand not finite at x=0.99")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(15))
def test_first_non_finite_node_is_reported(k, bad):
    # a bad value at node k and a different one at every later node: the
    # report names node k, whatever the values cancel to in the sum
    def g(t):
        v = np.ones_like(t)
        v[k] = bad
        v[k + 1:] = -bad
        return v

    with pytest.raises(NonFiniteSample) as info:
        integrate(g, 0.25, 2.0)
    assert info.value.x.hex() == _ref_nodes(0.25, 2.0)[k].hex()


def _bump(t):
    return 1.0 + np.exp(-((t - 1.3) / 0.05) ** 2)


@pytest.mark.parametrize("g, lo, hi, where", [
    # a panel's Kronrod sum overflows
    (lambda t: np.full_like(t, 1e308), 0.0, 4.0, "GK15 sum"),
    # h times the sum does, as for x^2/2 on [1, 1e150]
    (lambda t: t * t / 2.0, 1.0, 1e150, "integral over"),
    # the first panel is finite, and so is every refined one; their total
    # is not (the integral of _bump is about 4.0886, its first panel 4.0026)
    (lambda t: 4.4e307 * _bump(t), 0.0, 4.0, "integral over"),
])
def test_finite_samples_with_an_overflowing_sum(g, lo, hi, where):
    with pytest.raises(OverflowError, match=where):
        integrate(g, lo, hi)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                    (math.nan, 1.0), (-1e308, 1e308)])
def test_infinite_bounds_are_rejected_before_sampling(lo, hi):
    calls = []
    with pytest.raises(ValueError, match="need finite lo < hi"):
        integrate(lambda t: calls.append(t) or np.sin(t), lo, hi)
    assert calls == []
