import itertools
import math

import numpy as np
import pytest

from hhverify import bounds, means
from hhverify.errors import UnsupportedExponentError
from hhverify.models import power_model

E = math.e


class TestMeans:
    def test_arith(self):
        assert means.arith_mean(2.0, 4.0) == 3.0

    def test_arith_near_the_top_of_the_range(self):
        # a + b overflows here; the mean does not
        assert means.arith_mean(1e308, 1.7e308) == 1.35e308

    def test_log_mean_reference(self):
        assert means.log_mean(1.0, E ** 2) == pytest.approx((E ** 2 - 1.0) / 2.0,
                                                            rel=1e-14)

    def test_log_mean_limit(self):
        assert means.log_mean(0.7, 0.7) == 0.7
        assert means.log_mean(0.7, 0.7 * (1.0 + 1e-13)) == pytest.approx(0.7, rel=1e-12)

    def test_l1_equals_arith(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.1, 3.0, size=2))
            if b - a < 1e-6:
                continue
            assert means.gen_log_mean(a, b, 1.0) == pytest.approx(
                means.arith_mean(a, b), rel=1e-12)

    def test_ordering(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = sorted(rng.uniform(0.05, 4.0, size=2))
            if b - a < 1e-6:
                continue
            lm = means.log_mean(a, b)
            am = means.arith_mean(a, b)
            assert a - 1e-12 < lm < am + 1e-12 < b + 1e-12
            assert lm < am

    def test_lp_continuity_in_p(self):
        # fine windows around several p values; adjacent jumps stay tiny
        for a, b in ((0.5, 1.5), (0.2, 0.9)):
            for center in (0.3, 0.9, 1.1, 2.5):
                ps = center + np.arange(-10, 11) * 1e-8
                vals = [means.gen_log_mean(a, b, float(p)) for p in ps]
                for prev, nxt in zip(vals, vals[1:]):
                    assert abs(nxt - prev) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1e-10, -1.0, -1.0 + 1e-10])
    def test_unsupported_exponents(self, p):
        with pytest.raises(UnsupportedExponentError):
            means.gen_log_mean(0.5, 1.5, p)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            means.log_mean(-1.0, 2.0)


class TestPropLhs:
    def test_reference_point(self):
        # A(a^s, b^s) = 0.6830127, (L_s)^s = 0.6993587 at (0.25, 0.75, 0.5)
        a, b, s = 0.25, 0.75, 0.5
        am = means.arith_mean(a ** s, b ** s)
        ls = ((b ** (s + 1.0) - a ** (s + 1.0)) / ((s + 1.0) * (b - a))) ** (1.0 / s)
        assert am == pytest.approx(0.6830127018922193, rel=1e-14)
        assert ls ** s == pytest.approx(0.6993587371177720, rel=1e-12)
        assert means.prop_lhs(a, b, s) == pytest.approx(abs(am - ls ** s), rel=1e-12)

    def test_diagonal_limit(self):
        assert means.prop_lhs(0.5, 0.5, 0.5) == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            means.prop_lhs(0.5, 1.5, 0.5)
        with pytest.raises(ValueError):
            means.prop_lhs(0.25, 0.75, 1.0)


GRID = np.linspace(0.05, 1.0, 10)
SVALS = np.linspace(0.1, 0.9, 5)
QVALS = (1.5, 2.0, 4.0)


def ab_pairs():
    return [(float(a), float(b)) for a, b in itertools.combinations(GRID, 2)]


class TestEndpointIdentity:
    def test_reference_point(self):
        # trapezoid-mean gap of the power model equals (1/s) * prop_lhs
        a, b, s = 0.25, 0.75, 0.5
        assert means.prop_lhs(a, b, s) / s == pytest.approx(0.0326920704511, abs=1e-10)
        assert means.residual_aa(a, b, s) <= 1e-10

    def test_sweep(self):
        for a, b in ab_pairs()[::3]:
            for s in (0.1, 0.5, 0.9):
                assert means.residual_aa(a, b, s) <= 1e-10


class TestDualRouteChecks:
    def test_bb_is_discrepant(self):
        # printed plain-route algebra does not reduce to the kernel route
        r = means.dual_route_bb(0.25, 0.75, 0.5)
        assert r.classification == "discrepant"
        # deviation is |means - kernel| / max(1, |kernel|)
        assert r.deviation == pytest.approx(
            abs(r.means_value - r.kernel_value) / max(1.0, abs(r.kernel_value)))
        assert r.deviation == pytest.approx(0.21267540, abs=1e-6)
        # kernel side is the quadrature-backed truth
        assert r.kernel_value == pytest.approx(0.6192838, rel=1e-6)
        assert r.means_value == pytest.approx(0.8319592, rel=1e-6)

    def test_bb_runs_and_classifies_everywhere(self):
        seen = set()
        for a, b in ab_pairs()[::5]:
            for s in SVALS:
                seen.add(means.dual_route_bb(a, b, float(s)).classification)
        assert seen == {"discrepant"}

    def test_cc_exact(self):
        assert means.residual_cc(0.25, 0.75, 0.5, 2.0) <= 1e-12
        for a, b in ab_pairs()[::4]:
            for s in SVALS:
                for q in QVALS:
                    assert means.residual_cc(a, b, float(s), q) <= 1e-10

    def test_cc_reference_value(self):
        # both routes give g_full(sqrt(3)) ~ 1.3326827
        al = bounds.alpha_ratio(0.25 ** -0.5, 0.75 ** -0.5, 1.0, 1.0)
        assert al == pytest.approx(math.sqrt(3.0), rel=1e-14)
        from hhverify.gfuncs import g_full
        assert g_full(al).value == pytest.approx(1.3326827218660933, rel=1e-12)

    def test_dd_exact(self):
        for a, b in ab_pairs()[::4]:
            for s in SVALS:
                for q in QVALS:
                    assert means.deviation_dd(a, b, float(s), q) <= 1e-10

    def test_ee_is_discrepant_and_v_negative_at_reference(self):
        r = means.deviation_ee(0.25, 0.75, 0.5, 2.0)
        assert r.classification == "discrepant"
        assert r.means_value < 0.0 < r.kernel_value
        assert r.means_value == pytest.approx(-25.9039, abs=1e-3)
        assert r.kernel_value == pytest.approx(0.395949, rel=1e-5)

    def test_ee_runs_and_classifies(self):
        # the suite asserts the check runs and classifies, not that it matches
        disc = 0
        total = 0
        for a, b in ab_pairs()[::5]:
            for s in SVALS:
                for q in QVALS:
                    r = means.deviation_ee(a, b, float(s), q)
                    disc += r.classification == "discrepant"
                    total += 1
        assert total > 0 and disc == total


class TestPropositionRhs:
    def test_prop41_path_relation(self):
        # printed rhs equals s(b-a)/2 times the printed bb means-route factor
        a, b, s = 0.25, 0.75, 0.5
        bb = means.dual_route_bb(a, b, s)
        assert means.prop41_rhs(a, b, s) == pytest.approx(
            0.5 * s * (b - a) * bb.means_value, rel=1e-12)
        # and differs from the kernel route exactly by the bb discrepancy
        kernel_rhs = 0.5 * s * (b - a) * bb.kernel_value
        assert means.prop41_rhs(a, b, s) != pytest.approx(kernel_rhs, rel=1e-3)

    def test_prop32_path_factor(self):
        # printed rhs / kernel-route rhs = b^(sq(1-s)) exactly
        for a, b in ((0.25, 0.75), (0.1, 0.9), (0.5, 1.0)):
            for s in (0.3, 0.5):
                for q in (1.5, 2.0):
                    p = bounds.conjugate_exponent(q)
                    al = bounds.alpha_ratio(a ** (s - 1), b ** (s - 1), s * q, s * q)
                    from hhverify.gfuncs import g_full
                    kernel = ((b - a) * s / (2.0 * (p + 1.0) ** (1.0 / p))
                              * (b ** (s * (s - 1.0)))
                              * g_full(al).value ** (1.0 / q))
                    ratio = means.prop32_rhs(a, b, s, q) / kernel
                    assert ratio == pytest.approx(b ** (s * q * (1.0 - s)), rel=1e-10)

    def test_prop33_undefined_where_v_negative(self):
        with pytest.raises(ValueError):
            means.prop33_rhs(0.25, 0.75, 0.5, 2.0)

    def test_prop33_evaluates_at_q1(self):
        v = means.prop33_rhs(0.25, 0.75, 0.5, 1.0)
        assert math.isfinite(v)
        # V < 0 drives the printed bound negative here: empirically false
        assert v < 0.0 < means.prop_lhs(0.25, 0.75, 0.5)

    def test_empirical_truth_sweep_reports_rates(self):
        # 20 x 20 x 9 x 3 grid; rates are findings, not fixtures
        grid = np.linspace(0.05, 1.0, 20)
        svals = np.linspace(0.1, 0.9, 9)
        counts = {"prop41": [0, 0], "prop32": [0, 0], "prop33": [0, 0]}
        undefined33 = 0
        for a, b in itertools.combinations(grid, 2):
            a, b = float(a), float(b)
            for s in svals:
                s = float(s)
                lhs = means.prop_lhs(a, b, s)
                counts["prop41"][0] += lhs <= means.prop41_rhs(a, b, s) + 1e-12
                counts["prop41"][1] += 1
                for q in QVALS:
                    counts["prop32"][0] += lhs <= means.prop32_rhs(a, b, s, q) + 1e-12
                    counts["prop32"][1] += 1
                    try:
                        r33 = means.prop33_rhs(a, b, s, q)
                    except ValueError:
                        undefined33 += 1
                        continue
                    counts["prop33"][0] += lhs <= r33 + 1e-12
                    counts["prop33"][1] += 1
        for tag, (holds, total) in counts.items():
            assert total > 0
            rate = holds / total
            assert 0.0 <= rate <= 1.0
        # the printed power-mean-route bound is mostly undefined (V < 0)
        assert undefined33 > counts["prop33"][1]


def test_prop_hypotheses_fail_side_condition():
    # a^(s-1) > 1 for every a < 1: the propositions sit outside the
    # |f'(a)| <= 1 regime by construction
    from hhverify.convexity import theorem_hypotheses
    for a, b, s in ((0.25, 0.75, 0.5), (0.1, 0.9, 0.3), (0.5, 1.0, 0.9)):
        rep = theorem_hypotheses(power_model(s), a, b, s, 2.0)
        assert not rep.fprime_a_le_1
        assert rep.params["fprime_a_abs"] == pytest.approx(a ** (s - 1.0), rel=1e-12)
        assert rep.params["fprime_a_abs"] > 1.0
