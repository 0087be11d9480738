import math

import numpy as np
import pytest

from hhverify.errors import DomainError
from hhverify.models import (_chebyshev_grid, evaluate_points, exp_model,
                             make_model, model_from_expr, model_from_spec,
                             power_model)


def finite_difference(fn, x: float, h: float | None = None) -> float:
    """Central difference with the step policy used by the derivative tests."""
    if h is None:
        h = 1e-5 * max(1.0, abs(x))
    return (float(fn(x + h)) - float(fn(x - h))) / (2.0 * h)


def _power_weight_gap(s: float, q: float, t: float) -> tuple[float, float]:
    """The two exponent-gap products that certify the power family's class
    membership: (s-1)q(t^s - t) and (s-1)q((1-t)^s - (1-t)); both must be <= 0.
    """
    c = (s - 1.0) * q
    return c * (t ** s - t), c * ((1.0 - t) ** s - (1.0 - t))


REGISTERED = [
    lambda: power_model(0.3),
    lambda: power_model(0.5),
    lambda: power_model(0.9),
    lambda: exp_model(1.0, 1.0, 2.0),
    lambda: exp_model(0.5, 0.5, 2.0),
    lambda: model_from_expr("1 - ln(x)", 1.0, 2.0),
    lambda: model_from_expr("1/x", 1.0, 2.0),
    lambda: model_from_expr("x", 0.25, 2.0),
]


class TestPowerModel:
    def test_values(self):
        m = power_model(0.5)
        assert float(m.f(0.25)) == pytest.approx(1.0, abs=1e-15)
        assert float(np.abs(m.fprime(1.0))) == pytest.approx(1.0, abs=1e-15)

    def test_fprime_at_half(self):
        m = power_model(0.9)
        assert float(np.abs(m.fprime(0.5))) == pytest.approx(0.5 ** -0.1, rel=1e-14)

    def test_fprime_power_identity(self):
        # |f'(x)|^q == x^((s-1)q)
        m = power_model(0.7)
        for x in (0.05, 0.3, 1.0):
            for q in (1.0, 2.0, 4.0):
                assert float(np.abs(m.fprime(x))) ** q == pytest.approx(
                    x ** ((0.7 - 1.0) * q), rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_s_out_of_range(self, s):
        with pytest.raises(ValueError):
            power_model(s)

    def test_rejects_domain_outside_unit_interval(self):
        with pytest.raises(ValueError):
            power_model(0.5, lo=0.5, hi=1.5)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_weight_gap_products_nonpositive(self, s, q):
        # the exponent-gap products certifying class membership
        for t in np.arange(0.0, 1.0001, 0.1):
            g1, g2 = _power_weight_gap(s, q, float(t))
            assert g1 <= 1e-15 and g2 <= 1e-15


class TestExpModel:
    def test_values(self):
        m = exp_model(1.0)
        assert float(m.f(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(np.abs(m.fprime(1.0))) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_rate_scaling(self):
        m = exp_model(2.0, 0.25, 1.0)
        assert float(m.f(0.5)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError):
            exp_model(rate)


class TestExprModels:
    def test_basic(self):
        m = model_from_expr("x^2", 1.0, 2.0)
        assert float(m.fprime(1.5)) == pytest.approx(3.0, rel=1e-14)

    def test_ln(self):
        m = model_from_expr("ln(x)", 0.5, 2.0)
        assert float(m.fprime(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_probe_catches_domain_error(self):
        with pytest.raises(DomainError) as exc:
            model_from_expr("ln(x-1)", 0.5, 2.0)
        assert exc.value.x <= 1.0 + 1e-12

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            model_from_expr("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            model_from_expr("x", 0.0, 1.0)


def test_model_from_spec_variants():
    m1 = model_from_spec({"builtin": "power", "s": 0.5})
    assert (m1.name, m1.fprime(0.25)) == ("power(s=0.5)", 2.0)
    m2 = model_from_spec({"builtin": "exp", "rate": 1.0, "domain": [1.0, 2.0]})
    assert (m2.lo, m2.hi) == (1.0, 2.0)
    m3 = model_from_spec({"name": "recip", "expr": "1/x", "domain": [1.0, 2.0]})
    assert m3.name == "recip"
    with pytest.raises(ValueError):
        model_from_spec({"builtin": "sinusoid"})
    with pytest.raises(ValueError):
        model_from_spec({"name": "nothing"})
    for spec in ({"expr": "x"}, {"builtin": "power"}, {"builtin": "exp"}):
        with pytest.raises(ValueError):
            model_from_spec(spec)


def test_make_model_probes_fprime_too():
    # f fine everywhere, f' undefined on half the domain
    with np.errstate(invalid="ignore"):
        with pytest.raises(DomainError):
            make_model("bad", 0.5, 2.0,
                       f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                       fprime=lambda x: np.log(np.asarray(x, dtype=float) - 1.0))


def test_make_model_rejects_a_scalar_only_function():
    # one probe call on the grid array, whose error propagates as it is
    with pytest.raises(TypeError):
        make_model("m", 1.0, 2.0, math.exp, math.exp)


def test_chebyshev_grid_includes_endpoints():
    g = _chebyshev_grid(1.0, 2.0, 64)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert g[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(g) > 0)


def test_chebyshev_grid_near_the_top_of_the_range():
    # lo + hi overflows; the grid still lies in [lo, hi]
    g = _chebyshev_grid(1e308, 1.7e308, 64)
    assert g[0] == 1e308 and g[-1] == 1.7e308 and np.all(np.diff(g) > 0)


@pytest.mark.parametrize("factory", REGISTERED)
def test_derivative_matches_finite_differences_on_grid(factory):
    # 64-point grid agreement at 1e-6 relative for every registered model
    m = factory()
    pad = 1e-4 * (m.hi - m.lo)
    grid = _chebyshev_grid(m.lo + pad, m.hi - pad, 64)
    for x in grid:
        x = float(x)
        fd = finite_difference(lambda z: float(m.f(z)), x)
        dv = float(m.fprime(x))
        assert abs(fd - dv) <= 1e-6 * max(1.0, abs(dv))


@pytest.mark.parametrize("g", [lambda x: x, lambda x: 2.0, lambda x: x[::-1],
                               lambda x: np.asarray(x, dtype=np.float32)],
                         ids=["input", "constant", "view", "float32"])
def test_evaluate_points_returns_a_fresh_array(g):
    # Where g hands back its input, a view of it or a scalar, the result is
    # copied: the points stay untouched when the caller writes to it.
    pts = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    want = np.broadcast_to(np.asarray(g(pts.ravel()), dtype=float), (12,)).reshape(3, 4)
    vals = evaluate_points(g, pts)
    assert vals.dtype == float and vals.shape == pts.shape
    assert vals.flags.writeable and not np.shares_memory(vals, pts)
    assert np.array_equal(vals, want)


def test_evaluate_points_copies_a_view_of_g_own_array():
    held = np.linspace(0.0, 1.0, 24)
    pts = np.linspace(1.0, 2.0, 12)
    vals = evaluate_points(lambda x: held[::2], pts)
    assert not np.shares_memory(vals, held) and np.array_equal(vals, held[::2])


def test_evaluate_points_keeps_a_fresh_result():
    made = []
    pts = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    vals = evaluate_points(lambda x: made.append(x * 2.0) or made[-1], pts)
    assert np.shares_memory(vals, made[0]) and np.array_equal(vals, 2.0 * pts)
