import math

import numpy as np
import pytest

import hhverify as hv
from hhverify import bounds
from hhverify.errors import OutOfRangeError
from hhverify.models import exp_model, make_model, model_from_expr, power_model

E = math.e


def direct_model(name, lo, hi, f, fprime):
    return make_model(name, lo, hi, f, fprime)


def ends(m, a, b):
    """(|f'(a)|, |f'(b)|) of the model, the numbers the evaluators take."""
    return float(np.abs(m.fprime(a))), float(np.abs(m.fprime(b)))


@pytest.fixture(scope="module")
def square():
    # x^2 on (~0, 1]; lo is epsilon-close to 0 so closed forms for [0, 1] apply
    return direct_model("square", 1e-12, 1.0,
                        lambda x: np.asarray(x, dtype=float) ** 2,
                        lambda x: 2.0 * np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def cube():
    return direct_model("cube", 1e-12, 1.0,
                        lambda x: np.asarray(x, dtype=float) ** 3,
                        lambda x: 3.0 * np.asarray(x, dtype=float) ** 2)


class TestGapAndIntegralForm:
    def test_affine_gap_zero(self):
        m = model_from_expr("3*x - 1", 0.5, 2.0)
        assert hv.trapezoid_mean_gap(m, 0.5, 2.0) <= 1e-13
        assert abs(hv.gap_integral_form(m, 0.5, 2.0)) <= 1e-13

    def test_square_sixth(self, square):
        got = hv.trapezoid_mean_gap(square, 1e-12, 1.0)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-9)
        signed = hv.gap_integral_form(square, 1e-12, 1.0)
        assert signed == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_cube_quarter(self, cube):
        # (f(0)+f(1))/2 - 1/4 = 1/4 on both routes
        assert hv.trapezoid_mean_gap(cube, 1e-12, 1.0) == pytest.approx(0.25, abs=1e-9)
        assert hv.gap_integral_form(cube, 1e-12, 1.0) == pytest.approx(0.25, abs=1e-9)

    def test_power_model_reference_values(self):
        m = power_model(0.5)
        a, b = 0.25, 0.75
        trap = 0.5 * (2.0 * math.sqrt(a) + 2.0 * math.sqrt(b))
        mean = (4.0 / 3.0) * (b ** 1.5 - a ** 1.5) / (b - a)
        assert hv.trapezoid_mean_gap(m, a, b) == pytest.approx(abs(trap - mean), abs=1e-12)
        assert hv.trapezoid_mean_gap(m, a, b) == pytest.approx(0.0326920704511, abs=1e-10)

    def test_identity_between_routes(self):
        models = [power_model(0.3), power_model(0.5), power_model(0.9),
                  exp_model(1.0, 1.0, 2.0), exp_model(0.5, 0.5, 2.0),
                  model_from_expr("1 - ln(x)", 1.0, 2.0),
                  model_from_expr("1/x", 1.0, 2.0),
                  model_from_expr("x", 0.25, 2.0)]
        rng = np.random.default_rng(424242)
        for m in models:
            for _ in range(20):
                a, b = sorted(rng.uniform(m.lo, m.hi, size=2))
                if b - a < 1e-3 * (m.hi - m.lo):
                    b = min(m.hi, a + 1e-3 * (m.hi - m.lo))
                lhs = hv.trapezoid_mean_gap(m, a, b)
                rhs = hv.gap_integral_form(m, a, b)
                assert abs(lhs - abs(rhs)) <= 1e-8


class TestAlphaRatio:
    def test_equal_magnitudes(self):
        assert hv.alpha_ratio(0.7, 0.7, 1.3) == pytest.approx(1.0, rel=1e-15)

    def test_power_family_closed_form(self):
        # alpha(s) = (a/b)^(s(s-1)) = 3^(1/4) at the reference point
        a, b, s = 0.25, 0.75, 0.5
        got = hv.alpha_ratio(a ** (s - 1.0), b ** (s - 1.0), s)
        assert got == pytest.approx(3.0 ** 0.25, rel=1e-14)

    def test_reduction_when_first_is_one(self):
        assert hv.alpha_ratio(1.0, 0.5, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_log_domain_avoids_overflow_then_clamps(self):
        # within window despite huge intermediate powers
        assert hv.alpha_ratio(1e5, 1e-6, 1.0) == pytest.approx(1e11, rel=1e-10)
        assert hv.alpha_ratio(1e250, 1e245, 2.2) == pytest.approx(1e11, rel=1e-10)
        with pytest.raises(OutOfRangeError):
            hv.alpha_ratio(1e6, 1.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hv.alpha_ratio(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hv.alpha_ratio(1.0, 1.0, 0.0)


def eq10_factor(a, b, fa, fb, s):
    """|f'(b)|^s * (g_lower + g_upper)(alpha(s)): rhs_eq10 over (b-a)/2."""
    return hv.rhs_eq10(a, b, fa, fb, s) / (0.5 * (b - a))


def eq11_factor(a, b, fa, fb, s, q):
    """|f'(b)|^s * g_full(alpha(sq))^(1/q): rhs_eq11 over its prefactor."""
    p = bounds.conjugate_exponent(q)
    return hv.rhs_eq11(a, b, fa, fb, s, q) / ((b - a) / (2.0 * (p + 1.0) ** (1.0 / p)))


def eq111_factor(a, b, fa, fb, s, q):
    """|f'(b)|^s * (g_lower^(1/q) + g_upper^(1/q))(alpha(sq)): rhs_eq111
    over its prefactor."""
    return hv.rhs_eq111(a, b, fa, fb, s, q) / (0.5 * (b - a) * 0.25 ** (1.0 - 1.0 / q))


class TestFactors:
    # Each rhs is a prefactor in (b-a) times a kernel factor, read here as
    # the rhs over its prefactor.
    def test_unit_derivatives_abs(self):
        m = model_from_expr("x", 0.5, 2.0)
        # alpha = 1, g_lower + g_upper = 1/2
        for s in (0.3, 1.0):
            assert eq10_factor(0.5, 2.0, *ends(m, 0.5, 2.0), s) == pytest.approx(
                0.5, rel=1e-14)

    def test_exp_model_composition(self):
        # |f'(b)| = e^-2, alpha(1) = e
        m = exp_model(1.0, 1.0, 2.0)
        expected = math.exp(-2.0) * (4.0 * math.sqrt(E) - 3.0 - E)
        assert eq10_factor(1.0, 2.0, *ends(m, 1.0, 2.0), 1.0) == pytest.approx(
            expected, rel=1e-14)
        assert expected == pytest.approx(0.118635349712, rel=1e-10)

    def test_branch_continuity_through_alpha_one(self):
        # derivative ratios within 1e-4 of 1: series and closed form join
        vals = []
        for eps in (-2e-4, -1e-4, -5e-5, 5e-5, 1e-4, 2e-4):
            m = make_model("tilt", 0.5, 2.0,
                           f=lambda x, c=eps: np.asarray(x, float) ** (1.0 + c) / (1.0 + c),
                           fprime=lambda x, c=eps: np.asarray(x, float) ** c)
            vals.append(eq10_factor(0.5, 2.0, *ends(m, 0.5, 2.0), 1.0))
        for prev, nxt in zip(vals, vals[1:]):
            assert abs(nxt - prev) <= 1e-3
        assert all(abs(v - 0.5) < 1e-3 for v in vals)

    def test_unit_derivatives_holder(self):
        m = model_from_expr("x", 0.5, 2.0)
        assert eq11_factor(0.5, 2.0, *ends(m, 0.5, 2.0), 0.5, 2.0) == pytest.approx(
            1.0, rel=1e-14)

    def test_power_holder_chain(self):
        # alpha(sq) = sqrt(3); |f'(b)|^s = 0.75^-0.25
        m = power_model(0.5)
        expected = 0.75 ** -0.25 * math.sqrt((math.sqrt(3.0) - 1.0) / math.log(math.sqrt(3.0)))
        got = eq11_factor(0.25, 0.75, *ends(m, 0.25, 0.75), 0.5, 2.0)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(1.2405037107673254, rel=1e-12)

    def test_holder_rejects_q_le_1(self):
        m = power_model(0.5)
        with pytest.raises(ValueError):
            hv.rhs_eq11(0.25, 0.75, *ends(m, 0.25, 0.75), 0.5, 1.0)

    def test_power_mean_collapses_to_abs_at_q1(self):
        m = power_model(0.5)
        assert eq111_factor(0.25, 0.75, *ends(m, 0.25, 0.75), 0.5, 1.0) == pytest.approx(
            eq10_factor(0.25, 0.75, *ends(m, 0.25, 0.75), 0.5), rel=1e-14)

    def test_power_mean_unit_derivatives(self):
        m = model_from_expr("x", 0.5, 2.0)
        for q in (1.0, 2.0, 4.0):
            assert eq111_factor(0.5, 2.0, *ends(m, 0.5, 2.0), 1.0, q) == pytest.approx(
                2.0 * 0.25 ** (1.0 / q), rel=1e-14)

    def test_power_mean_split_integral_oracle(self):
        # |f'(b)|^{sq} g_lower(alpha(sq)) equals the weighted integral of
        # |f'(a)|^{sqt} |f'(b)|^{sq(1-t)} over [0, 1/2] (and mirrored on upper)
        from hhverify.quadrature import integrate
        m = exp_model(1.0, 1.0, 2.0)
        s, q = 1.0, 2.0
        fa, fb = math.exp(-1.0), math.exp(-2.0)
        al = hv.alpha_ratio(fa, fb, s * q)
        low = integrate(lambda t: (1 - 2 * t) * fa ** (s * q * t) * fb ** (s * q * (1 - t)),
                        0.0, 0.5, tol=1e-12).value
        up = integrate(lambda t: (2 * t - 1) * fa ** (s * q * t) * fb ** (s * q * (1 - t)),
                       0.5, 1.0, tol=1e-12).value
        assert fb ** (s * q) * hv.g_lower(al).value == pytest.approx(low, rel=1e-12)
        assert fb ** (s * q) * hv.g_upper(al).value == pytest.approx(up, rel=1e-12)
        got = eq111_factor(1.0, 2.0, *ends(m, 1.0, 2.0), s, q)
        assert got == pytest.approx(fb ** s * (hv.g_lower(al).value ** 0.5
                                               + hv.g_upper(al).value ** 0.5), rel=1e-14)


class TestFullRhs:
    def test_rhs_eq10_prefactor(self):
        m = exp_model(1.0, 1.0, 2.0)
        fa, fb = ends(m, 1.0, 2.0)
        al = hv.alpha_ratio(fa, fb, 1.0)
        assert hv.rhs_eq10(1.0, 2.0, fa, fb, 1.0) == pytest.approx(
            0.5 * fb * (hv.g_lower(al).value + hv.g_upper(al).value), rel=1e-15)

    def test_rhs_eq11_prefactor(self):
        m = power_model(0.5)
        q = 2.0
        p = bounds.conjugate_exponent(q)
        assert p == 2.0
        fa, fb = ends(m, 0.25, 0.75)
        al = hv.alpha_ratio(fa, fb, 0.5 * q)
        expected = (0.5 / (2.0 * 3.0 ** 0.5)
                    * fb ** 0.5 * hv.g_full(al).value ** (1.0 / q))
        assert hv.rhs_eq11(0.25, 0.75, fa, fb, 0.5, q) == pytest.approx(expected, rel=1e-14)

    def test_rhs_eq111_q1_equals_rhs_eq10(self):
        m = power_model(0.5)
        fa, fb = ends(m, 0.25, 0.75)
        assert hv.rhs_eq111(0.25, 0.75, fa, fb, 0.5, 1.0) == pytest.approx(
            hv.rhs_eq10(0.25, 0.75, fa, fb, 0.5), rel=1e-14)

    def test_rhs_eq111_q1_is_rhs_eq10_bitwise(self):
        # x ** 1.0 == x and 0.25 ** 0.0 == 1 exactly, so the power-mean
        # route at q = 1 is the plain route bit for bit.
        rng = np.random.default_rng(33)
        for _ in range(200):
            a, b = sorted(rng.uniform(0.01, 3.0, size=2))
            fa, fb = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
            s = float(rng.choice([rng.uniform(0.01, 1.0), 0.5, 1.0]))
            assert (hv.rhs_eq111(a, b, fa, fb, s, 1.0)
                    == hv.rhs_eq10(a, b, fa, fb, s)), (a, b, fa, fb, s)

    def test_conjugate_exponents(self):
        assert bounds.conjugate_exponent(2.0) == 2.0
        assert bounds.conjugate_exponent(1.5) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            bounds.conjugate_exponent(1.0)

    def test_param_validation(self):
        m = power_model(0.5)
        fa, fb = ends(m, 0.25, 0.75)
        with pytest.raises(ValueError):
            hv.rhs_eq10(0.25, 0.75, fa, fb, 1.5)
        with pytest.raises(ValueError):
            hv.rhs_eq111(0.25, 0.75, fa, fb, 0.5, 0.5)


class TestClassicalBaselines:
    def test_square_eq8(self, square):
        got = hv.rhs_eq8(1e-12, 1.0, *ends(square, 1e-12, 1.0))
        assert got == pytest.approx(0.25, abs=1e-9)
        assert got >= hv.trapezoid_mean_gap(square, 1e-12, 1.0)

    def test_affine_eq8(self):
        m = model_from_expr("3*x - 1", 0.5, 2.0)
        # (b-a)|c|/4 with c = 3
        assert hv.rhs_eq8(0.5, 2.0, *ends(m, 0.5, 2.0)) == pytest.approx(1.5 * 6.0 / 8.0, rel=1e-14)
        assert hv.trapezoid_mean_gap(m, 0.5, 2.0) <= 1e-13

    def test_square_eq9_p2(self, square):
        # (b-a)/(2*sqrt(3)) * ((0 + 2^2)/2)^(1/2) = sqrt(2)/(2 sqrt(3)) = 1/sqrt(6)
        got = hv.rhs_eq9(1e-12, 1.0, *ends(square, 1e-12, 1.0), 2.0)
        assert got == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-9)
        assert got >= 1.0 / 6.0

    def test_eq9_rejects_p_le_1(self):
        m = power_model(0.5)
        with pytest.raises(ValueError):
            hv.rhs_eq9(0.25, 0.75, *ends(m, 0.25, 0.75), 1.0)
