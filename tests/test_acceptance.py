"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np

import hhverify as hv
from hhverify import means
from conftest import check_pointwise_key
from hhverify.convexity import (ClassCheckConfig,
                                is_monotone_decreasing,
                                is_s_geometrically_convex)
from hhverify.models import exp_model, model_from_expr, power_model
from hhverify.quadrature import integrate
from hhverify.records import (VERDICTS, records_equal, records_text, read_json,
                              write_json)
from hhverify.sweep import PASS_SLACK, run_sweep


def ok(label):
    print(f"[{label}] PASS")


def fprime_abs(m):
    """x -> |f'(x)| for a model."""
    return lambda x: np.abs(m.fprime(x))


def test_c1_g_kernel_oracle_equivalence():
    # closed forms vs quadrature on 50 log-spaced alphas (<= 1e-10 relative),
    # series branch vs quadrature (<= 1e-9), exact limits at alpha = 1
    alphas = [float(a) for a in np.logspace(-8, 8, 50)]
    assert len(alphas) == 50
    assert all(abs(math.log(a)) >= 1e-3 for a in alphas)
    for a in alphas:
        o1 = integrate(lambda t: (1 - 2 * t) * a ** t, 0.0, 0.5, tol=1e-12).value
        o2 = integrate(lambda t: (2 * t - 1) * a ** t, 0.5, 1.0, tol=1e-12).value
        o3 = integrate(lambda t: a ** t, 0.0, 1.0, tol=1e-12).value
        assert abs(hv.g_lower(a).value - o1) <= 1e-10 * abs(o1)
        assert abs(hv.g_upper(a).value - o2) <= 1e-10 * abs(o2)
        assert abs(hv.g_full(a).value - o3) <= 1e-10 * abs(o3)
    for u in (1e-3, -1e-3, 5e-4, -5e-4, 1e-5, -1e-5, 1e-8):
        a = math.exp(u)
        o1 = integrate(lambda t: (1 - 2 * t) * a ** t, 0.0, 0.5, tol=1e-13).value
        o2 = integrate(lambda t: (2 * t - 1) * a ** t, 0.5, 1.0, tol=1e-13).value
        o3 = integrate(lambda t: a ** t, 0.0, 1.0, tol=1e-13).value
        assert abs(hv.g_lower(a).value - o1) <= 1e-9
        assert abs(hv.g_upper(a).value - o2) <= 1e-9
        assert abs(hv.g_full(a).value - o3) <= 1e-9
    assert (hv.g_lower(1.0).value, hv.g_upper(1.0).value, hv.g_full(1.0).value) \
        == (0.25, 0.25, 1.0)
    ok("C1 g-kernel oracle equivalence")


def test_c2_abs_kink_power_identity():
    for p in (1.0, 1.5, 2.0, 3.0, 7.0):
        lo = integrate(lambda t: (1 - 2 * t) ** p, 0.0, 0.5, tol=1e-12).value
        hi = integrate(lambda t: (2 * t - 1) ** p, 0.5, 1.0, tol=1e-12).value
        assert abs(lo + hi - 1.0 / (p + 1.0)) <= 1e-10
    ok("C2 |1-2t|^p integral identity")


def test_c3_gap_identity_residual():
    models = [power_model(0.3), power_model(0.5), power_model(0.9),
              exp_model(1.0, 1.0, 2.0), exp_model(0.5, 0.5, 2.0),
              model_from_expr("1 - ln(x)", 1.0, 2.0),
              model_from_expr("x", 0.25, 2.0)]
    assert len(models) >= 5
    rng = np.random.default_rng(20240817)
    for m in models:
        for _ in range(20):
            a, b = sorted(rng.uniform(m.lo, m.hi, size=2))
            if b - a < 1e-3 * (m.hi - m.lo):
                b = min(m.hi, a + 1e-3 * (m.hi - m.lo))
            lhs = hv.trapezoid_mean_gap(m, a, b)
            signed = hv.gap_integral_form(m, a, b)
            assert abs(lhs - abs(signed)) <= 1e-8
    ok("C3 gap identity residual")


def test_c4_bound_suite_zero_violations(default_sweep):
    cfg, records, summary = default_sweep
    assert summary["violations"] == 0

    # hypothesis-passing coverage exists for every required (bound, q) combo
    passing_combos = {(r.theorem, r.q) for r in records if r.verdict == "pass"}
    assert ("eq8", 1.0) in passing_combos
    for q in (1.5, 2.0):            # Holder baseline at p = 3, 2
        assert ("eq9", q) in passing_combos
    assert ("eq10", 1.0) in passing_combos
    for q in (1.5, 2.0, 4.0):
        assert ("eq11", q) in passing_combos
    for q in (1.0, 2.0, 4.0):
        assert ("eq111", q) in passing_combos

    passing = [r for r in records
               if r.hyp_class and r.hyp_monotone and r.hyp_fprime_a
               and r.verdict != "eval-error"]
    assert passing
    for r in passing:
        assert r.lhs <= r.rhs + PASS_SLACK
        assert r.verdict == "pass"
        assert r.ratio <= 1.0 + 1e-12

    # exp-family records at s = 1 with |f'(a)| < 1 exist; the class flag
    # fails (decaying exponentials are geometrically concave), so they land
    # outside-hypotheses rather than pass, but the bound itself still holds
    exp_s1 = [r for r in records
              if r.model.startswith("exp") and r.s == 1.0
              and r.theorem in ("eq10", "eq11", "eq111")]
    assert exp_s1
    for r in exp_s1:
        assert r.verdict == "outside-hypotheses"
        assert r.hyp_monotone and r.hyp_fprime_a and not r.hyp_class
        assert r.lhs <= r.rhs + PASS_SLACK
    ok("C4 bound suite, zero violations")


def test_c5_pointwise_key_inequality():
    rng = np.random.default_rng(987654321)
    for _ in range(10_000):
        mu, al, s = (float(max(v, 1e-12)) for v in rng.uniform(0.0, 1.0, size=3))
        assert check_pointwise_key(mu, al, s)
    ok("C5 pointwise key inequality")


def test_c6_power_family_class_regression():
    cfg = ClassCheckConfig()
    for s in (0.3, 0.5, 0.9):
        m = power_model(s)
        fp = fprime_abs(m)
        assert is_monotone_decreasing(fp, (0.01, 1.0), cfg).ok
        for q in (1.0, 2.0):
            assert is_s_geometrically_convex(lambda x: fp(x) ** q,
                                             (0.01, 1.0), s, cfg).ok
    ok("C6 power-family class regression")


def test_c7_degeneracy_detection():
    cfg = ClassCheckConfig()

    def const_half(x):
        return np.full(np.shape(x), 0.5) if np.shape(x) else 0.5

    res = is_s_geometrically_convex(const_half, (0.2, 0.8), 0.5, cfg)
    assert not res.ok
    diag = [w for w in res.witnesses if w.x == w.y and w.t == 0.5]
    assert diag and diag[0].lhs > diag[0].rhs + cfg.slack
    # accepted functions sit at or above 1 on the grid
    for s in (0.3, 0.5, 0.9):
        m = power_model(s)
        assert is_s_geometrically_convex(fprime_abs(m), (0.01, 1.0), s, cfg).ok
        xs = np.linspace(0.01, 1.0, cfg.grid_points)
        assert float(np.min(fprime_abs(m)(xs))) >= 1.0 - 1e-9
    ok("C7 degeneracy detection")


def test_c8_identity_checks_on_grid():
    grid = [float(v) for v in np.linspace(0.05, 1.0, 10)]
    svals = [float(v) for v in np.linspace(0.1, 0.9, 5)]
    qvals = (1.5, 2.0, 4.0)
    bb_classes = set()
    ee_classes = set()
    for a, b in itertools.combinations(grid, 2):
        for s in svals:
            assert means.residual_aa(a, b, s) <= 1e-10
            bb_classes.add(means.dual_route_bb(a, b, s).classification)
            for q in qvals:
                assert means.residual_cc(a, b, s, q) <= 1e-10
                assert means.deviation_dd(a, b, s, q) <= 1e-10
                ee_classes.add(means.deviation_ee(a, b, s, q).classification)
    # bb and ee are measured and classified, not asserted equal; the printed
    # ratio-form is expected not to match the kernel route
    assert bb_classes and ee_classes
    assert "discrepant" in ee_classes
    ok("C8 identity checks on grid")


def test_c9_proposition_hypothesis_audit(default_sweep):
    _, records, summary = default_sweep
    props = [r for r in records if r.theorem.startswith("prop")]
    assert props
    for r in props:
        assert not r.hyp_fprime_a
    rates = summary["prop_pass_rates"]
    for tag in ("prop41", "prop32", "prop33"):
        info = rates[tag]
        assert info["records"] > 0
        assert info["hyp_fprime_a_false"] == info["records"]
        if info["evaluable"]:
            assert 0.0 <= info["rate"] <= 1.0
    ok("C9 proposition hypothesis audit")


def test_c10_determinism_and_serialization(default_sweep, tmp_path):
    cfg, records, _ = default_sweep
    text1 = records_text(records, "csv")
    text2 = records_text(run_sweep(cfg), "csv")
    assert text1.encode() == text2.encode()
    path = tmp_path / "report.json"
    write_json(records, str(path))
    assert records_equal(read_json(str(path)), records)
    ok("C10 determinism and serialization")


# The shipped config's report, pinned.  The residual digest covers the
# non-wire oracle_residual of every record, as float.hex() in report order,
# so a rounding change in the quadrature oracle shows even where the CSV's
# printed digits hide it.  The propositions run on power-half alone, at its
# own s = 0.5: power-09 is x^0.9/0.9, which they are not about.
DEFAULT_CSV_SHA256 = "5a35f890bd5904292197018d540974f066ddda83bd0e02beb7a4a7a0a4ec5b79"
DEFAULT_JSON_SHA256 = "9b5345482dfb6ccce200775bf714333b94c8c55e571f7bcd085edf247e68cd6a"
DEFAULT_RESIDUALS_SHA256 = "3fd6a54baad1fcb0c86feafd317b30d213697b2891de70f92f24f6ea36817d71"


def test_c11_default_report_bytes(default_sweep):
    _, records, summary = default_sweep
    text = records_text(records, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CSV_SHA256
    text = records_text(records, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_JSON_SHA256
    counts = [summary["by_verdict"].get(v, 0) for v in VERDICTS]
    assert (len(records), counts) == (900, [444, 0, 441, 15])
    residuals = ",".join(r.oracle_residual.hex() for r in records)
    assert hashlib.sha256(residuals.encode()).hexdigest() == DEFAULT_RESIDUALS_SHA256
    ok("C11 default report bytes and oracle residuals")


def test_c11_default_report_bytes_at_other_grid_sizes(default_sweep):
    # The checks' grid decides no flag of the shipped config: the report
    # at class_grid_points 9 and 65 is the pinned n = 33 one, byte for byte.
    cfg = default_sweep[0]
    for n in (9, 65):
        text = records_text(run_sweep(dataclasses.replace(cfg, class_grid_points=n)), "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CSV_SHA256, n
    ok("C11 default report bytes at class_grid_points 9 and 65")
