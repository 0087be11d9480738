import math

import numpy as np
import pytest

from conftest import check_pointwise_key
from hhverify.convexity import (ClassCheckConfig,
                                is_convex, is_geometrically_convex,
                                is_monotone_decreasing, is_s_convex,
                                is_s_geometrically_convex, theorem_hypotheses)
from hhverify.errors import (DomainError, NegativeValueError,
                             NonPositiveValueError)
from hhverify.models import exp_model, power_model

CFG = ClassCheckConfig()


def arr(v):
    def g(x):
        return np.full(np.shape(x), v) if np.shape(x) else v
    return g


class TestConvex:
    def test_square(self):
        assert is_convex(lambda x: x * x, (0.5, 2.0), CFG).ok

    def test_sqrt_is_not(self):
        res = is_convex(np.sqrt, (0.5, 2.0), CFG)
        assert not res.ok
        w = res.witnesses[0]
        # witness really violates: g(tx+(1-t)y) > t g(x)+(1-t) g(y) + slack
        assert w.lhs > w.rhs + CFG.slack

    def test_abs_linear_equality_case(self):
        assert is_convex(lambda x: np.abs(2.0 * x - 1.5), (0.5, 2.0), CFG).ok

    def test_domain_error_propagates(self):
        def g(x):
            with np.errstate(invalid="ignore"):
                return np.log(np.asarray(x, dtype=float) - 1.0)
        with pytest.raises(DomainError):
            is_convex(g, (0.5, 2.0), CFG)


class TestSConvex:
    def test_identity_map_s1(self):
        assert is_s_convex(lambda x: np.asarray(x, dtype=float), (0.0001, 1.0), 1.0, CFG).ok

    def test_sqrt_half(self):
        # x^0.5 with s = 0.5 on (0, 1]
        assert is_s_convex(np.sqrt, (0.001, 1.0), 0.5, CFG).ok

    def test_negative_range_rejected(self):
        with pytest.raises(NegativeValueError):
            is_s_convex(lambda x: -np.asarray(x, dtype=float), (0.5, 1.0), 0.5, CFG)

    def test_agrees_with_convex_at_s1(self):
        for g in (lambda x: x * x, np.sqrt, np.exp):
            a = is_convex(g, (0.5, 2.0), CFG)
            b = is_s_convex(g, (0.5, 2.0), 1.0, CFG)
            assert a.ok == b.ok

    def test_s_validation(self):
        with pytest.raises(ValueError):
            is_s_convex(np.sqrt, (0.5, 1.0), 0.0, CFG)


class TestGeometricallyConvex:
    def test_decaying_exponential_is_not(self):
        # exp(-x) is geometrically concave: the multiplicative-interpolation
        # inequality fails strictly away from x = y.
        res = is_geometrically_convex(lambda x: np.exp(-x), (0.1, 2.0), CFG)
        assert not res.ok
        w = res.witnesses[0]
        assert w.lhs > w.rhs + CFG.slack
        # direct AM-GM witness at (x, y, t) = (1, 2, 1/2)
        lhs = math.exp(-math.sqrt(2.0))
        rhs = math.exp(-1.5)
        assert lhs > rhs

    def test_powers_are_equality_case(self):
        for c in (-1.7, -0.5, 0.3, 2.0):
            assert is_geometrically_convex(lambda x: np.power(x, c),
                                           (0.5, 2.0), CFG).ok

    def test_growing_exponential(self):
        # exp(x) satisfies it: x^t y^{1-t} <= tx+(1-t)y and exp increasing
        assert is_geometrically_convex(np.exp, (0.1, 2.0), CFG).ok

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveValueError):
            is_geometrically_convex(lambda x: np.asarray(x, dtype=float) - 0.5,
                                    (0.5, 2.0), CFG)


class TestSGeometricallyConvex:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_power_derivative_family(self, s, q):
        m = power_model(s)

        def g(x):
            return np.abs(m.fprime(x)) ** q
        assert is_s_geometrically_convex(g, (0.01, 1.0), s, CFG).ok

    def test_constant_below_one_rejected_with_diagonal_witness(self):
        res = is_s_geometrically_convex(arr(0.5), (0.2, 0.8), 0.5, CFG)
        assert not res.ok
        diag = [w for w in res.witnesses if w.x == w.y and w.t == 0.5]
        assert diag, "expected a diagonal witness at t = 1/2"
        w = diag[0]
        # 0.5 <= 0.5^(2^(1-s)) = 0.5^sqrt(2) ~ 0.3752 fails
        assert w.lhs == pytest.approx(0.5)
        assert w.rhs == pytest.approx(0.5 ** math.sqrt(2.0), rel=1e-12)

    def test_accepted_functions_sit_at_or_above_one(self):
        # structural fact: acceptance with s < 1 forces g >= 1 on the grid
        for s in (0.3, 0.5, 0.9):
            m = power_model(s)

            def g(x):
                return np.abs(m.fprime(x))
            assert is_s_geometrically_convex(g, (0.01, 1.0), s, CFG).ok
            xs = np.linspace(0.01, 1.0, CFG.grid_points)
            assert np.min(g(xs)) >= 1.0 - 1e-9

    def test_diagonal_equality_at_s1(self):
        assert is_s_geometrically_convex(arr(0.5), (0.2, 0.8), 1.0, CFG).ok

    def test_agrees_with_geometric_at_s1(self):
        cases = [lambda x: np.exp(-x), lambda x: np.power(x, -2.0), np.exp,
                 arr(0.5)]
        for g in cases:
            a = is_geometrically_convex(g, (0.5, 2.0), CFG)
            b = is_s_geometrically_convex(g, (0.5, 2.0), 1.0, CFG)
            assert a.ok == b.ok
            assert a.violation_count == b.violation_count


class TestMonotoneDecreasing:
    def test_power_derivative(self):
        m = power_model(0.5)
        assert is_monotone_decreasing(lambda x: np.abs(m.fprime(x)),
                                      (0.01, 1.0), CFG).ok

    def test_square_is_not(self):
        res = is_monotone_decreasing(lambda x: np.asarray(x) ** 2, (0.5, 2.0), CFG)
        assert not res.ok

    def test_constant_non_strict(self):
        assert is_monotone_decreasing(arr(0.7), (0.5, 2.0), CFG).ok


class TestPointwiseKey:
    def test_reference_triple(self):
        # 0.5^(0.5^0.5) ~ 0.6125 <= 0.5^0.25 ~ 0.8409
        assert check_pointwise_key(0.5, 0.5, 0.5)
        assert 0.5 ** (0.5 ** 0.5) == pytest.approx(0.61254732, rel=1e-7)
        assert 0.5 ** 0.25 == pytest.approx(0.84089641, rel=1e-7)

    def test_boundary_cases(self):
        assert check_pointwise_key(1.0, 0.3, 0.7)   # 1 <= 1
        assert check_pointwise_key(0.9, 1.0, 1.0)   # equality

    def test_random_sweep(self):
        rng = np.random.default_rng(987654321)
        for _ in range(10_000):
            mu, al, s = rng.uniform(0.0, 1.0, size=3)
            mu, al, s = (float(max(v, 1e-12)) for v in (mu, al, s))
            assert check_pointwise_key(mu, al, s)

    @pytest.mark.parametrize("bad", [(-0.1, 0.5, 0.5), (0.5, 1.2, 0.5),
                                     (0.5, 0.5, 0.0), (0.0, 0.5, 0.5)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_pointwise_key(*bad)


class TestTheoremHypotheses:
    def test_power_reference_point(self):
        rep = theorem_hypotheses(power_model(0.5), 0.25, 0.75, 0.5, CFG)
        assert rep.class_ok
        assert rep.monotone_decreasing_ok
        assert not rep.fprime_a_le_1          # |f'(0.25)| = 0.25^-0.5 = 2
        assert rep.fprime_a_abs == pytest.approx(2.0, rel=1e-14)
        assert not (rep.class_ok and rep.monotone_decreasing_ok and rep.fprime_a_le_1)

    def test_exp_model_class_fails(self):
        # |f'| = e^-x is geometrically concave, so the class flag is false;
        # monotonicity and |f'(1)| = e^-1 <= 1 hold.
        rep = theorem_hypotheses(exp_model(1.0, 1.0, 2.0), 1.0, 2.0, 1.0, CFG)
        assert not rep.class_ok
        assert rep.class_check.witnesses
        assert rep.monotone_decreasing_ok
        assert rep.fprime_a_le_1

    def test_reciprocal_family_passes_at_s1(self):
        m = __import__("hhverify").model_from_expr("1/x", 1.0, 2.0)
        rep = theorem_hypotheses(m, 1.0, 2.0, 1.0, CFG)
        assert rep.class_ok and rep.monotone_decreasing_ok and rep.fprime_a_le_1

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            theorem_hypotheses(power_model(0.5), 0.5, 0.5, 0.5, CFG)


def test_grid_config_validation():
    with pytest.raises(ValueError):
        ClassCheckConfig(grid_points=2)
    with pytest.raises(ValueError):
        ClassCheckConfig(slack=-1.0)
    # a non-int (bool included) fails here, not inside the first check
    for bad in ({"grid_points": 33.5}, {"grid_points": 33.0}, {"grid_points": True}):
        with pytest.raises(ValueError):
            ClassCheckConfig(**bad)
    assert ClassCheckConfig(grid_points=np.int64(9)).grid_points == 9
