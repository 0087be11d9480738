import argparse
import dataclasses
import gc
import itertools
import json
import math
import time
import traceback
import weakref
from collections import Counter

import numpy as np
import pytest

import hhverify as hv
from conftest import pretty, random_expr
from hhverify import convexity
from hhverify.cli import build_parser
from hhverify.convexity import AbsPower, ClassCheckConfig
from hhverify.errors import (ConfigError, DomainError, EmptyFeasibleSetError,
                             NonFiniteSample)
from hhverify.models import FunctionModel
from hhverify.records import (BoundRecord, CSV_COLUMNS, make_ratio, read_csv,
                              read_json, records_equal, records_text,
                              sort_records, write_csv, write_json)
from hhverify.sweep import (BOUND_TABLE, PASS_SLACK, ModelContext, Tolerances,
                            parse_config, run_sweep)
from hhverify.tightness import optimize_tightness


def fresh_context_per_record(monkeypatch):
    """Make the sweep evaluate every record in a context of its own, so no
    flags or sides are read from a cache."""
    record = ModelContext.record
    monkeypatch.setattr(ModelContext, "record", lambda ctx, *args: record(
        ModelContext(ctx.model, ctx.tolerances, ctx.check_cfg, ctx.a, ctx.b), *args))


def mini_config(**overrides):
    raw = {
        "schema_version": 1,
        "seed": 7,
        "models": [{"name": "affine", "expr": "x", "domain": [0.5, 2.0]}],
        "a_grid": [0.5, 1.0],
        "b_grid": [1.0, 2.0],
        "s_grid": [0.5, 1.0],
        "q_grid": [1.0, 2.0],
    }
    raw.update(overrides)
    return parse_config(raw)


class TestConfig:
    def test_parse_roundtrip_defaults(self):
        cfg = mini_config()
        assert cfg.tolerances.quad_tol == 1e-10

    @pytest.mark.parametrize("overrides, path_fragment", [
        ({"models": []}, "models"),
        ({"models": [{"name": "x"}]}, "models[0]"),
        ({"models": [{"name": "a,b", "expr": "x", "domain": [1, 2]}]}, "models[0].name"),
        ({"models": [{"expr": "x", "domain": [2, 1]}]}, "models[0].domain"),
        ({"a_grid": []}, "a_grid"),
        ({"s_grid": [1.5]}, "s_grid[0]"),
        ({"q_grid": [0.5]}, "q_grid[0]"),
        ({"a_grid": [2.0], "b_grid": [1.0]}, "a_grid/b_grid"),
        ({"tolerances": {"quad_tol": 0.0}}, "tolerances.quad_tol"),
        ({"seed": -1}, "seed"),
        ({"schema_version": 99}, "schema_version"),
        ({"models": [{"expr": "x"}]}, "models[0].domain"),
        ({"models": [{"builtin": "power"}]}, "models[0].s"),
        ({"models": [{"builtin": "exp", "domain": [1, 2]}]}, "models[0].rate"),
        ({"models": [{"builtin": "power", "s": [0.5]}]}, "models[0].s"),
        ({"models": [{"builtin": "power", "s": math.nan}]}, "models[0].s"),
        ({"models": [{"builtin": "exp", "rate": "1"}]}, "models[0].rate"),
        ({"models": [{"expr": "x", "domain": ["a", 2]}]}, "models[0].domain"),
        ({"models": [{"expr": "x", "domain": [1, math.inf]}]}, "models[0].domain"),
        ({"models": [{"expr": "x", "domain": "12"}]}, "models[0].domain"),
        ({"tolerances": {"slack": True}}, "tolerances.slack"),
        ({"a_grid": [True]}, "a_grid[0]"),
        ({"s_grid": [True]}, "s_grid[0]"),
        ({"q_grid": [True]}, "q_grid[0]"),
        ({"models": [{"expr": "x", "domain": [0.5, True]}]}, "models[0].domain"),
        ({"models": [{"builtin": "exp", "rate": True}]}, "models[0].rate"),
        ({"models": [{"builtin": "nope"}]}, "models[0]"),
        ({"models": [{"builtin": "power", "s": 1.5}]}, "models[0]"),
        ({"models": [{"builtin": "exp", "rate": -1.0}]}, "models[0]"),
        ({"models": [{"expr": "x", "domain": [1, 2]},
                     {"expr": "x +", "domain": [1, 2]}]}, "models[1]"),
        ({"tolerances": {"slack": math.inf}}, "tolerances.slack"),
        ({"tolerances": {"quad_tol": math.inf}}, "tolerances.quad_tol"),
        ({"tolerances": {"identity_tol": math.inf}}, "tolerances.identity_tol"),
        ({"tolerances": {"identity_tol": math.nan}}, "tolerances.identity_tol"),
    ])
    def test_validation_names_field_paths(self, overrides, path_fragment):
        with pytest.raises(ConfigError) as exc:
            mini_config(**overrides)
        assert exc.value.path == path_fragment

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            hv.load_config(str(p))


class TestRunSweep:
    def test_affine_passes_everything(self):
        records = run_sweep(mini_config())
        assert records
        assert all(r.verdict == "pass" for r in records)
        eq10 = [r for r in records if r.theorem == "eq10"]
        assert eq10 and all(r.lhs <= 1e-13 and r.ratio <= 1e-10 for r in eq10)
        assert all(r.hyp_class and r.hyp_monotone and r.hyp_fprime_a for r in eq10)

    def test_exp_model_split_verdicts(self):
        cfg = mini_config(models=[{"name": "exp1", "builtin": "exp",
                                   "rate": 1.0, "domain": [1.0, 2.0]}],
                          a_grid=[1.0], b_grid=[2.0], s_grid=[1.0])
        records = run_sweep(cfg)
        by_theorem = {}
        for r in records:
            by_theorem.setdefault(r.theorem, []).append(r)
        # classical baselines: |f'|^q = e^(-qx) is convex, so they pass
        assert all(r.verdict == "pass" for r in by_theorem["eq8"])
        assert all(r.verdict == "pass" for r in by_theorem["eq9"])
        # derivative-ratio bounds: |f'| is geometrically concave, so the
        # class hypothesis fails; both sides still evaluated, bound holds
        for tag in ("eq10", "eq11", "eq111"):
            for r in by_theorem[tag]:
                assert r.verdict == "outside-hypotheses"
                assert not r.hyp_class
                assert r.hyp_monotone and r.hyp_fprime_a
                assert r.lhs <= r.rhs + PASS_SLACK

    def test_power_prop_records(self):
        cfg = mini_config(models=[{"name": "pow05", "builtin": "power", "s": 0.5}],
                          a_grid=[0.25], b_grid=[0.75], s_grid=[0.5],
                          q_grid=[1.0, 2.0])
        records = run_sweep(cfg)
        props = [r for r in records if r.theorem.startswith("prop")]
        assert {r.theorem for r in props} == {"prop41", "prop32", "prop33"}
        for r in props:
            assert not r.hyp_fprime_a
            assert r.verdict in ("outside-hypotheses", "eval-error")
        p33 = {r.q: r for r in props if r.theorem == "prop33"}
        assert p33[2.0].verdict == "eval-error"
        assert "v-negative" in p33[2.0].discrepancy
        assert "ee-discrepant" in p33[1.0].discrepancy
        p41 = next(r for r in props if r.theorem == "prop41")
        assert "bb-discrepant" in p41.discrepancy

    def test_propositions_run_at_the_power_models_own_s(self):
        # They are about x^s/s, so their flags are those of x^(s-1): only a
        # power model at its own s has them, an equal expression none.
        cfg = mini_config(models=[{"name": "pow09", "builtin": "power", "s": 0.9},
                                  {"name": "root", "expr": "x^0.9/0.9",
                                   "domain": [0.01, 1.0]}],
                          a_grid=[0.25], b_grid=[0.75], s_grid=[0.5, 0.9])
        records = run_sweep(cfg)
        props = [r for r in records if r.theorem.startswith("prop")]
        assert {(r.model, r.s) for r in props} == {("pow09", 0.9)}
        eq10 = {(r.model, r.s): r for r in records if r.theorem == "eq10"}
        for r in props:
            want = eq10[r.model, r.s]
            assert (r.hyp_class, r.hyp_monotone, r.hyp_fprime_a) == \
                (want.hyp_class, want.hyp_monotone, want.hyp_fprime_a)

    def test_eval_errors_do_not_abort(self):
        # |f'| = 2|x-1| vanishes at the grid midpoint: the positivity
        # precondition of the class check fails; those records become
        # eval-error and the sweep still completes
        cfg = mini_config(models=[{"name": "hump", "expr": "(x-1)^2",
                                   "domain": [0.5, 1.5]}],
                          a_grid=[0.5], b_grid=[1.5])
        records = run_sweep(cfg)
        assert records
        tagged = [r for r in records if r.theorem in ("eq10", "eq11", "eq111")]
        assert tagged and all(r.verdict == "eval-error" for r in tagged)
        assert all("hyp-error" in r.discrepancy for r in tagged)
        assert any(r.theorem == "eq8" and r.verdict == "pass" for r in records)

    @pytest.mark.parametrize("expr, b", [("x^2/2", 1e150), ("x", 1e308)])
    def test_an_overflowing_integral_is_an_eval_error(self, expr, b):
        # The integral of f over [1, b] overflows before the mean divides
        # by b - a, although the true gap of x^2/2 (b^2/12) is below eq8's
        # rhs (b^2/8) and that of x is 0: not a violation.
        cfg = mini_config(models=[{"expr": expr, "domain": [1.0, b]}],
                          a_grid=[1.0], b_grid=[b], s_grid=[1.0])
        records = run_sweep(cfg)
        assert {r.theorem for r in records} == {"eq8", "eq9", "eq10", "eq11", "eq111"}
        for r in records:
            assert (r.verdict, r.discrepancy) == ("eval-error", "error:OverflowError")

    def test_deterministic_records(self):
        cfg = mini_config()
        assert records_equal(run_sweep(cfg), run_sweep(cfg))


class TestDefaultConfigSweep:
    def test_zero_violations(self, default_sweep):
        _, records, summary = default_sweep
        assert summary["violations"] == 0
        assert all(r.verdict != "violation" for r in records)

    def test_hypothesis_passing_instances_exist(self, default_sweep):
        _, records, _ = default_sweep
        passing = [r for r in records
                   if r.theorem in ("eq10", "eq11", "eq111") and r.verdict == "pass"]
        models = {r.model for r in passing}
        # affine at every s; log/reciprocal families at s = 1
        assert {"affine-unit", "log-shift", "reciprocal"} <= models
        nontrivial = [r for r in passing if r.lhs > 1e-6]
        assert nontrivial, "expected non-degenerate hypothesis-passing instances"

    def test_prop_summary_shape(self, default_sweep):
        _, _, summary = default_sweep
        rates = summary["prop_pass_rates"]
        for tag in ("prop41", "prop32", "prop33"):
            assert rates[tag]["records"] == rates[tag]["hyp_fprime_a_false"]
        assert summary["max_gap_identity_residual"] <= 1e-8

    def test_gap_column_tracks_truth_for_outside_hypotheses(self, default_sweep):
        _, records, _ = default_sweep
        outside = [r for r in records if r.verdict == "outside-hypotheses"]
        assert outside
        for r in outside:
            assert math.isfinite(r.gap)


class TestRecordsSerialization:
    def test_csv_header_and_shape(self, tmp_path, default_sweep):
        _, records, _ = default_sweep
        path = tmp_path / "report.csv"
        write_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(records) + 1

    def test_single_record_csv(self, tmp_path):
        rec = BoundRecord("m", "eq10", 0.25, 0.75, 0.5, 1.0, 0.1, 0.2, 0.1,
                          0.5, True, True, False, "outside-hypotheses", "")
        path = tmp_path / "one.csv"
        write_csv([rec], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert records_equal(read_csv(str(path)), [rec])

    def test_verdict_vocabulary(self, default_sweep):
        _, records, _ = default_sweep
        assert {r.verdict for r in records} <= {"pass", "violation",
                                                "outside-hypotheses", "eval-error"}

    def test_json_roundtrip_lossless(self, tmp_path, default_sweep):
        _, records, _ = default_sweep
        path = tmp_path / "report.json"
        write_json(records, str(path))
        back = read_json(str(path))
        assert records_equal(back, records)
        # and the payload is plain JSON
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload["records"][0]) == set(CSV_COLUMNS)

    def test_csv_roundtrip(self, tmp_path, default_sweep):
        _, records, _ = default_sweep
        path = tmp_path / "report.csv"
        write_csv(records, str(path))
        assert records_equal(read_csv(str(path)), records)

    def test_byte_identical_reruns(self, default_sweep):
        cfg, records, _ = default_sweep
        text1 = records_text(records, "csv")
        text2 = records_text(run_sweep(cfg), "csv")
        assert text1 == text2

    def test_seventeen_significant_digits(self):
        rec = BoundRecord("m", "eq10", 1.0 / 3.0, 0.75, 0.5, 1.0, 0.1, 0.2,
                          0.1, 0.5, True, True, True, "pass", "")
        text = records_text([rec], "csv")
        assert "0.33333333333333331" in text

    def test_empty_emission_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "nothing.csv"))

    def test_make_ratio_edge_cases(self):
        assert make_ratio(0.0, 0.0) == 0.0
        assert math.isnan(make_ratio(1.0, 0.0))
        assert make_ratio(1.0, 2.0) == 0.5

    def test_read_csv_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "foreign.csv"
        p.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(str(p))

    def test_readers_reject_malformed_rows(self, tmp_path):
        rec = BoundRecord("m", "eq10", 0.25, 0.75, 0.5, 1.0, 0.1, 0.2, 0.1,
                          0.5, True, True, False, "outside-hypotheses", "")
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty.csv"):
            read_csv(str(empty))
        short = tmp_path / "short.csv"
        short.write_text(",".join(CSV_COLUMNS) + "\n\nm,eq10,0.25\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"short\.csv:3: missing column\(s\) b, s"):
            read_csv(str(short))
        path = tmp_path / "one.json"
        write_json([rec], str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["records"][0]["theorem"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=r"one\.json: record 1: missing column\(s\) theorem"):
            read_json(str(path))
        payload["records"][0].update(theorem="eq10", a=None)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=r"one\.json: record 1: a is not a number"):
            read_json(str(path))
        path.write_text(json.dumps(payload["records"]), encoding="utf-8")
        with pytest.raises(ValueError, match=r"one\.json: expected an object"):
            read_json(str(path))


class TestRhsQContinuity:
    def test_eq111_rhs_continuous_in_q(self):
        # derivative ratio ~1.0005 so alpha(sq, sq) crosses the series/closed
        # switch inside the q range; no branch jump may exceed 1e-6 relative
        c = 5e-4 / math.log(2.0)
        expo = 1.0 - c
        m = hv.make_model("near-flat", 1.0, 2.0,
                          f=lambda x: np.power(x, expo) / expo,
                          fprime=lambda x: np.power(x, -c))
        fa, fb = float(np.abs(m.fprime(1.0))), float(np.abs(m.fprime(2.0)))
        qs = np.linspace(1.0, 4.0, 601)
        vals = np.array([hv.rhs_eq111(1.0, 2.0, fa, fb, 1.0, float(q)) for q in qs])
        assert np.isfinite(vals).all()
        rel_steps = np.abs(np.diff(vals)) / np.abs(vals[:-1])
        assert rel_steps.max() <= 1e-4          # smooth overall
        lo = hv.rhs_eq111(1.0, 2.0, fa, fb, 1.0, 2.0 - 1e-9)
        hi = hv.rhs_eq111(1.0, 2.0, fa, fb, 1.0, 2.0 + 1e-9)
        assert abs(hi - lo) <= 1e-6 * abs(lo)   # exactly at the switch


class TestTightness:
    def test_affine_ratio_zero(self):
        m = hv.model_from_expr("x", 0.25, 2.0)
        res = optimize_tightness("eq10", m, {"a": (0.3, 1.0), "b": (1.1, 2.0),
                                             "s": (0.5, 1.0)})
        assert res.ratio <= 1e-12
        assert not res.violation

    def test_log_family_fixture(self):
        # regression fixture from the first verified run
        m = hv.model_from_expr("1 - ln(x)", 1.0, 2.0, name="log-shift")
        res = optimize_tightness("eq10", m, {"a": (1.0, 2.0), "b": (1.0, 2.0),
                                             "s": 1.0})
        assert res.hypotheses_pass
        assert not res.violation
        assert res.ratio == pytest.approx(0.21810155532609865, rel=1e-9)
        assert res.params["a"] == pytest.approx(1.0)
        assert res.params["b"] == pytest.approx(2.0)
        assert res.trace_len > 0

    def test_exp_family_ungated_fixture(self):
        m = hv.exp_model(1.0, 1.0, 2.0)
        res = optimize_tightness("eq10", m, {"a": (1.0, 2.0), "b": (1.0, 2.0),
                                             "s": 1.0}, require_hypotheses=False)
        assert not res.hypotheses_pass
        assert res.ratio == pytest.approx(0.32137477261887437, rel=1e-9)

    def test_exp_family_gated_is_infeasible(self):
        m = hv.exp_model(1.0, 1.0, 2.0)
        with pytest.raises(EmptyFeasibleSetError):
            optimize_tightness("eq10", m, {"a": (1.0, 2.0), "b": (1.0, 2.0),
                                           "s": 1.0})

    def test_box_violating_order_is_infeasible(self):
        m = hv.model_from_expr("1 - ln(x)", 1.0, 2.0)
        with pytest.raises(EmptyFeasibleSetError):
            optimize_tightness("eq10", m, {"a": (1.8, 2.0), "b": (1.0, 1.2),
                                           "s": 1.0})

    def test_unknown_tag_rejected(self):
        m = hv.model_from_expr("x", 0.5, 2.0)
        with pytest.raises(ValueError):
            optimize_tightness("eq99", m, {"a": (0.5, 1.0), "b": (1.1, 2.0)})

    def test_baseline_gated_on_its_own_hypothesis(self):
        # |f'| = e^(-x) is convex but geometrically concave: eq8 needs only
        # the former, as in the sweep's eq8 records.
        res = optimize_tightness("eq8", hv.exp_model(1.0), {"a": (1, 2), "b": (1, 2)})
        assert res.hypotheses_pass
        assert not res.violation

    def test_q1_bound_gated_at_q1(self):
        # |f'|^2 = 2.25x is convex, |f'| = 1.5 x^0.5 is not: eq8 is a q = 1
        # bound, so the box's q = 2 must not gate it.
        m = hv.model_from_expr("x^1.5", 1.0, 2.0)
        cfg = parse_config({"models": [{"expr": "x^1.5", "domain": [1.0, 2.0]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0, 2.0]})
        rec = next(r for r in run_sweep(cfg) if r.theorem == "eq8")
        assert rec.verdict == "outside-hypotheses"
        box = {"a": (1, 1), "b": (2, 2), "q": (2, 2)}
        res = optimize_tightness("eq8", m, box, require_hypotheses=False)
        assert res.hypotheses_pass == (rec.hyp_class and rec.hyp_monotone
                                       and rec.hyp_fprime_a) == False
        with pytest.raises(EmptyFeasibleSetError):
            optimize_tightness("eq8", m, box)

    # The search's results bit for bit, floats as hex, over every searchable
    # bound: (theorem, model, box, require_hypotheses) -> (ratio, a, b, s, q,
    # trace_len, hypotheses_pass, violation).
    MODELS = {"exp": lambda: hv.exp_model(1.0, 1.0, 2.0),
              "power": lambda: hv.power_model(0.5, 1e-3, 1.0),
              "1 - ln(x)": lambda: hv.model_from_expr("1 - ln(x)", 1.0, 2.0),
              "1/x": lambda: hv.model_from_expr("1/x", 1.0, 2.0),
              "1/x on [0.5, 2]": lambda: hv.model_from_expr("1/x", 0.5, 2.0),
              "(x-1)^4/4 + 2*x": lambda: hv.model_from_expr("(x-1)^4/4 + 2*x", 0.5, 2.0)}
    AB = {"a": (1.0, 1.4), "b": (1.6, 2.0)}
    # Boxes that cross a feasibility cliff: |f'(a)| <= 1 fails for 1/x below
    # a = 1, and |f'| = |(x-1)^3 + 2| stops decreasing at x = 1.
    CLIFF = {"a": (0.5, 1.5), "b": (1.6, 2.0)}
    ONE, TWO = "0x1.0000000000000p+0", "0x1.0000000000000p+1"
    PINNED = [
        (("eq8", "exp", AB, True),
         ("0x1.36561454ba85fp-2", ONE, TWO, ONE, ONE, 57, True, False)),
        (("eq8", "1/x", AB, False),
         ("0x1.749734049e733p-2", ONE, TWO, ONE, ONE, 57, True, False)),
        (("eq9", "1/x", {**AB, "q": (1.5, 3.0)}, True),
         ("0x1.14ccf2897461ep-2", ONE, TWO, ONE, "0x1.eb1b280000000p+0",
          209, True, False)),
        (("eq10", "1 - ln(x)", AB, True),
         ("0x1.beac073aa89bcp-3", ONE, TWO, ONE, ONE, 57, True, False)),
        (("eq10", "power", {"a": (1e-3, 0.2), "b": (0.6, 1.0), "s": 0.5}, False),
         ("0x1.2b7fe8d72f092p-1", "0x1.cc8d0e560418bp-8",
          "0x1.3333333333333p-1", "0x1.0000000000000p-1", ONE, 71, False, False)),
        (("eq11", "exp", {**AB, "s": 0.8, "q": 2.0}, False),
         ("0x1.aa2b69e074eabp-3", ONE, TWO, "0x1.999999999999ap-1", TWO,
          57, False, False)),
        (("eq11", "1 - ln(x)", {**AB, "q": 2.5}, True),
         ("0x1.8ab1127a165adp-3", ONE, TWO, ONE, "0x1.4000000000000p+1",
          57, True, False)),
        (("eq111", "1/x", {**AB, "q": 1.7}, True),
         ("0x1.9ae71f9b551f9p-2", ONE, TWO, ONE, "0x1.b333333333333p+0",
          57, True, False)),
        (("eq10", "1/x on [0.5, 2]", CLIFF, True),
         ("0x1.9e983deffaab2p-2", ONE, TWO, ONE, ONE, 76, True, False)),
        (("eq8", "(x-1)^4/4 + 2*x", CLIFF, True),
         ("0x1.00a9262832b58p-3", "0x1.3992200000000p+0", TWO, ONE, ONE,
          72, True, False)),
    ]

    # The tightness-search benchmark's batch at seed 1, inlined: (search,
    # (ratio, a, b, s, q, trace_len, hypotheses_pass, violation, errors)).
    BENCH_SEED1 = [
        (("eq8", {"expr": "1/x", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.23359106103], "b": [1.58814156577, 2.0]}, True),
         ("0x1.749734049e733p-2", ONE, TWO, ONE, ONE, 57, True, False, {})),
        (("eq10", {"expr": "1/x", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.39094365474], "b": [1.73623274357, 2.0]}, True),
         ("0x1.9e983deffaab2p-2", ONE, TWO, ONE, ONE, 57, True, False, {})),
        (("eq111", {"expr": "1/x", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.32385877177], "b": [1.6876272338, 2.0], "q": 2.30318594545},
          True),
         ("0x1.97d3eb62c3519p-2", ONE, TWO, ONE, "0x1.26cecc0c28448p+1",
          57, True, False, {})),
        (("eq8", {"expr": "1 - ln(x)", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.39718083778], "b": [1.77653510331, 2.0]}, True),
         ("0x1.b1db5349c932bp-3", ONE, TWO, ONE, ONE, 57, True, False, {})),
        (("eq10", {"expr": "1 - ln(x)", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.20708686913], "b": [1.59105872402, 2.0]}, True),
         ("0x1.beac073aa89bcp-3", ONE, TWO, ONE, ONE, 57, True, False, {})),
        (("eq111", {"expr": "1 - ln(x)", "domain": [1.0, 2.0]},
          {"a": [1.0, 1.30819176698], "b": [1.60942997939, 2.0], "q": 1.0042121067},
          True),
         ("0x1.beaa6f209d0c3p-3", ONE, TWO, ONE, "0x1.01140b6c86155p+0",
          57, True, False, {})),
        (("eq11", {"builtin": "exp", "rate": 1.0, "domain": [1.0, 2.0]},
          {"a": [1.0, 1.31134679851], "b": [1.61961499191, 2.0],
           "s": 0.614381110635, "q": 3.86317673888}, False),
         ("0x1.5cb3cf1c33a32p-3", ONE, TWO, "0x1.3a902932ea3b3p-1",
          "0x1.ee7c934c142a0p+1", 57, False, False, {})),
        (("eq10", {"builtin": "power", "s": 0.5, "domain": [0.001, 1.0]},
          {"a": [0.001, 0.281285491522], "b": [0.79082300509, 1.0], "s": 0.5}, False),
         ("0x1.17855a6eb260bp-1", "0x1.2f7d1ea99eb86p-7", "0x1.94e6c0bf926d8p-1",
          "0x1.0000000000000p-1", ONE, 70, False, False, {})),
    ]

    def test_swallowed_errors_are_counted(self):
        # The rhs cannot be evaluated once b is well above 1: each such
        # point is infeasible, and counted under its exception type.
        m = hv.model_from_expr("x^300/300", 1.0, 10.0)
        res = optimize_tightness("eq10", m, {"a": 1.0, "b": (1.01, 1.5)},
                                 require_hypotheses=False)
        assert res.ratio > 0.0
        assert res.errors == {"OutOfRangeError": 10}
        ok = optimize_tightness("eq10", m, {"a": 1.0, "b": (1.01, 1.02)},
                                require_hypotheses=False)
        assert ok.errors == {}

    @pytest.mark.parametrize("search, expected", PINNED)
    def test_search_results_pinned(self, search, expected):
        theorem, model, box, require = search
        res = optimize_tightness(theorem, self.MODELS[model](), box,
                                 require_hypotheses=require)
        assert (res.ratio.hex(), *(float(res.params[k]).hex() for k in "absq"),
                res.trace_len, res.hypotheses_pass, res.violation) == expected

    @pytest.mark.parametrize("search, expected", BENCH_SEED1,
                             ids=[f"{i}-{case[0][0]}" for i, case in enumerate(BENCH_SEED1)])
    def test_benchmark_batch_pinned(self, search, expected):
        theorem, spec, box, require = search
        res = optimize_tightness(theorem, hv.models.model_from_spec(spec), box,
                                 require_hypotheses=require)
        assert (res.ratio.hex(), *(float(res.params[k]).hex() for k in "absq"),
                res.trace_len, res.hypotheses_pass, res.violation,
                res.errors) == expected

    def test_flags_read_only_where_the_ratio_can_become_best(self, monkeypatch):
        # Each point reads its flags at most once: while no feasible point is
        # known, or after its lhs and rhs gave a ratio above the best so far.
        # The search judges its best point once, at the end, through
        # ModelContext.record, which reads that point's flags and sides again.
        events = []
        flags, sides, record = ModelContext.flags, ModelContext.sides, ModelContext.record

        def spy_flags(ctx, *args):
            out = flags(ctx, *args)
            events.append(("flags", ctx, all(out)))
            return out

        def spy_sides(ctx, *args):
            lhs, rhs = sides(ctx, *args)
            events.append(("sides", ctx, lhs / rhs))
            return lhs, rhs

        def spy_record(ctx, *args):
            events.append(("record", ctx, None))
            return record(ctx, *args)

        monkeypatch.setattr(ModelContext, "flags", spy_flags)
        monkeypatch.setattr(ModelContext, "sides", spy_sides)
        monkeypatch.setattr(ModelContext, "record", spy_record)
        res = optimize_tightness("eq10", self.MODELS["1/x on [0.5, 2]"](), self.CLIFF)
        judged = [i for i, (kind, *_) in enumerate(events) if kind == "record"]
        assert len(judged) == 1
        cut = judged[0]
        # Replay the search up to the judgment: a point becomes the best
        # once its flags pass and its ratio beats the best.
        # The events hold their contexts, so no two share an id.
        best, best_ctx, ratio_of, ok_of = -math.inf, None, {}, {}
        for kind, ctx, value in events[:cut]:
            key = id(ctx)
            if kind == "flags":
                assert key not in ok_of
                assert best == -math.inf or ratio_of[key] > best
                ok_of[key] = value
            else:
                ratio_of[key] = value
            if ok_of.get(key) and ratio_of.get(key, -math.inf) > best:
                best, best_ctx = ratio_of[key], ctx
        assert best == res.ratio
        # The one judgment is of the best point, and reads nothing else.
        assert all(ctx is best_ctx for _, ctx, _ in events[cut:])
        assert [kind for kind, *_ in events[cut:]] == ["record", "flags", "sides"]
        assert (len(ok_of), sum(not ok for ok in ok_of.values())) == (32, 27)
        assert res.trace_len == 76

    def test_infeasible_pole_box_never_reaches_the_sides(self, monkeypatch):
        # Every point straddles the pole at 1.51, so no flags pass and no
        # feasible point is ever known: no quadrature runs into the pole.
        # The spy raises (the search counts it) rather than spend the
        # quadrature's whole subdivision budget there.
        sided = []

        def no_sides(ctx, *args):
            sided.append((ctx.a, ctx.b))
            raise ArithmeticError("sides called")

        monkeypatch.setattr(ModelContext, "sides", no_sides)
        m = hv.model_from_expr("1/(x-1.51)", 1.0, 2.0)
        with pytest.raises(EmptyFeasibleSetError):
            optimize_tightness("eq8", m, {"a": (1.0, 1.3), "b": (1.7, 2.0)})
        assert sided == []

    def test_pole_box_past_a_feasible_corner(self):
        # a = 1.55 is feasible; once it is known, the points that straddle
        # the pole at 1.51 compute their lhs before their flags, and each
        # such quadrature runs out of its 10,000-subdivision budget in well
        # under a second.
        m = hv.model_from_expr("1/(x-1.51)", 1.0, 2.0)
        start = time.process_time()
        res = optimize_tightness("eq8", m, {"a": (1.0, 1.55), "b": (1.6, 2.0)})
        assert time.process_time() - start < 10.0
        assert (res.ratio, res.trace_len, res.errors) == (
            0.4227776301064016, 83, {"MaxSubdivisionsExceeded": 2})
        assert res.hypotheses_pass and not res.violation

    def test_errors_count_what_the_search_reads(self, monkeypatch):
        # Flags that pass at a <= 1.004 only while b < 1.05, and raise beyond.
        # The first point (a = 1, b = 1.01) is feasible.  After it:
        # - a point with a > 1.004 computes its sides first, and its ratio
        #   never beats the best, so its flags error is not counted;
        # - a required point with b >= 1.05 computes its sides first too,
        #   and the rhs of x^300/300 overflows there, which is counted
        #   although its flags would fail.
        def flags(ctx, bound, s, q):
            if ctx.a > 1.004:
                raise RuntimeError("check failed")
            return (ctx.b < 1.05, True, True)

        sided = []
        sides = ModelContext.sides

        def spy_sides(ctx, *args):
            sided.append(ctx.a)
            return sides(ctx, *args)

        monkeypatch.setattr(ModelContext, "flags", flags)
        monkeypatch.setattr(ModelContext, "sides", spy_sides)
        m = hv.model_from_expr("x^300/300", 1.0, 10.0)
        res = optimize_tightness("eq10", m, {"a": (1.0, 1.008), "b": (1.01, 1.5)})
        assert any(a > 1.004 for a in sided)
        assert res.errors == {"OutOfRangeError": 20}
        assert (res.params["a"], res.ratio.hex(), res.trace_len) == (
            1.0, "0x1.04a076732c396p+0", 72)

    @pytest.mark.parametrize("kwargs", [{"box": {"a": (1.0, math.inf), "b": (1.6, 2.0)}},
                                        {"box": {"a": (math.nan, 1.3), "b": (1.6, 2.0)}},
                                        {"box": {**AB, "s": math.nan}}],
                             ids=["a-inf", "a-nan", "s-nan"])
    def test_bad_arguments_rejected(self, kwargs):
        kwargs = {"box": self.AB, **kwargs}
        with pytest.raises(ValueError):
            optimize_tightness("eq10", self.MODELS["1/x"](), **kwargs)


    # A range on an axis the bound does not use changes nothing; the result
    # carries the (s, q) of the bound's sweep records.
    UNUSED_AXES = [
        ("eq8", "1/x", AB, {"s": (0.5, 1.0), "q": (1.0, 3.0)}),
        ("eq9", "1/x", {**AB, "q": (1.5, 3.0)}, {"s": (0.5, 1.0)}),
        ("eq10", "1 - ln(x)", AB, {"q": (1.0, 3.0)}),
    ]

    @pytest.mark.parametrize("theorem, model, box, extra", UNUSED_AXES,
                             ids=[case[0] for case in UNUSED_AXES])
    def test_unused_axes_are_fixed(self, theorem, model, box, extra):
        def summary(res):
            return (res.ratio.hex(), *(float(res.params[k]).hex() for k in "absq"),
                    res.trace_len, res.hypotheses_pass, res.violation)

        m = self.MODELS[model]()
        plain = optimize_tightness(theorem, m, box)
        widened = optimize_tightness(theorem, m, {**box, **extra})
        assert summary(widened) == summary(plain)
        cfg = parse_config({"models": [{"expr": model, "domain": [1.0, 2.0]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [0.5, 1.0],
                            "q_grid": [1.0, 3.0]})
        recs = [r for r in run_sweep(cfg) if r.theorem == theorem]
        for key in extra:
            # The axis the box widened is one the records hold fixed.
            assert {getattr(r, key) for r in recs} == {widened.params[key]}


class TestHoldsAgreement:
    """The sweep's verdict, summarize's proposition count and the search's
    violation flag apply one rule, sweep.holds."""

    @pytest.mark.parametrize("offset, ok", [(1e-11, False), (1e-13, True)])
    def test_sweep_summary_and_search_agree(self, monkeypatch, offset, ok):
        gap, prop_lhs = hv.bounds.trapezoid_mean_gap, hv.means.prop_lhs
        # Only the 1/x record is read; the rhs takes numbers, not the model.
        inv = hv.model_from_expr("1/x", 1.0, 2.0)
        monkeypatch.setattr(hv.bounds, "rhs_eq8",
                            lambda a, b, fa, fb: gap(inv, a, b) - offset)
        monkeypatch.setattr(hv.means, "prop41_rhs",
                            lambda a, b, s: prop_lhs(a, b, s) - offset)
        assert hv.sweep.holds(1.0, 1.0 - offset) == ok
        cfg = parse_config({"models": [{"expr": "1/x", "domain": [1.0, 2.0]},
                                       {"builtin": "power", "s": 0.5}],
                            "a_grid": [0.25, 1.0], "b_grid": [0.75, 2.0],
                            "s_grid": [0.5], "q_grid": [1.0]})
        records = run_sweep(cfg)
        eq8 = next(r for r in records if r.theorem == "eq8" and r.model == "1/x")
        assert eq8.verdict == ("pass" if ok else "violation")
        rates = hv.sweep.summarize(records)["prop_pass_rates"]["prop41"]
        assert rates["evaluable"] == 1 and rates["holds"] == int(ok)
        res = optimize_tightness("eq8", hv.model_from_expr("1/x", 1.0, 2.0),
                                 {"a": 1.0, "b": 2.0})
        assert res.hypotheses_pass and res.violation == (not ok)


class TestOneEvaluator:
    """The search evaluates a point through the sweep's ModelContext: its
    best point is the sweep's record there, at the search's quad_tol and
    check grid."""

    CASES = [("eq10", {"expr": "1/x", "domain": [1.0, 2.0]}, {}, True),
             ("eq9", {"expr": "x^1.5", "domain": [1.0, 2.0]}, {"q": 2.0}, True),
             ("eq11", {"builtin": "exp", "rate": 1.0, "domain": [1.0, 2.0]},
              {"s": 0.7, "q": 2.5}, False)]

    @pytest.mark.parametrize("theorem, spec, fixed, required", CASES,
                             ids=[case[0] for case in CASES])
    def test_best_point_is_the_sweep_record(self, theorem, spec, fixed, required):
        res = optimize_tightness(theorem, hv.models.model_from_spec(spec),
                                 {"a": (1.0, 1.3), "b": (1.7, 2.0), **fixed},
                                 require_hypotheses=required)
        p = res.params
        cfg = parse_config({"models": [spec], "a_grid": [p["a"]], "b_grid": [p["b"]],
                            "s_grid": [p["s"]], "q_grid": [p["q"]],
                            "tolerances": {"quad_tol": 1e-9}, "class_grid_points": 33})
        rec, = [r for r in run_sweep(cfg) if r.theorem == theorem]
        assert (rec.s, rec.q) == (p["s"], p["q"])
        assert rec.ratio.hex() == res.ratio.hex()
        assert res.hypotheses_pass == (rec.hyp_class and rec.hyp_monotone
                                       and rec.hyp_fprime_a)
        assert res.violation == (rec.verdict == "violation")


class TestLoadBearingHypotheses:
    """Each of eq10's three hypothesis flags is load-bearing: an ungated
    search finds a ratio above 1 where exactly that flag fails.  At s = 1
    the side condition |f'(a)| <= 1 is not: scaling f by c > 0 scales both
    sides by c and keeps the other two flags."""

    FLAGS = ("hyp_class", "hyp_monotone", "hyp_fprime_a")
    CASES = [("ln(x)", (0.1, 1.0), 0.3, 1.310, "hyp_fprime_a"),
             ("x^6/6", (0.2, 1.0), 1.0, 1.418, "hyp_monotone"),
             ("x - x^3/3", (0.05, 0.99), 1.0, 1.060, "hyp_class")]

    @pytest.mark.parametrize("expr, domain, s, ratio, failing", CASES,
                             ids=[case[4] for case in CASES])
    def test_one_failing_flag_admits_a_violation(self, expr, domain, s, ratio,
                                                 failing):
        m = hv.model_from_expr(expr, *domain)
        res = optimize_tightness("eq10", m, {"a": domain, "b": domain, "s": s},
                                 require_hypotheses=False)
        p = res.params
        rec = ModelContext(m, Tolerances(quad_tol=1e-9), ClassCheckConfig(),
                           p["a"], p["b"]).record("eq10", p["s"], p["q"])
        assert res.ratio > 1.0 and round(res.ratio, 3) == ratio
        assert rec.ratio == res.ratio and rec.verdict == "outside-hypotheses"
        assert [flag for flag in self.FLAGS if not getattr(rec, flag)] == [failing]
        assert not res.hypotheses_pass and not res.violation

    def test_side_condition_is_scale_invariant_at_s1(self):
        big, small = (ModelContext(hv.model_from_expr(expr, 0.2, 1.7294), Tolerances(),
                                   ClassCheckConfig(), 0.2, 1.7294).record("eq10", 1.0, 1.0)
                      for expr in ("ln(x)", "0.1*ln(x)"))
        assert [getattr(big, flag) for flag in self.FLAGS] == [True, True, False]
        assert (big.verdict, small.verdict) == ("outside-hypotheses", "pass")
        assert big.ratio == pytest.approx(0.42346350185314924, rel=1e-12)
        assert small.ratio == pytest.approx(big.ratio, rel=1e-14, abs=0.0)


def _theorem_choices(command: str) -> tuple:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(tuple(a.choices) for a in sub.choices[command]._actions
                if a.dest == "theorem")


class TestBoundTable:
    def test_every_consumer_reads_the_table(self, default_sweep):
        _, records, summary = default_sweep
        props = {tag for tag, bound in BOUND_TABLE.items() if bound.is_prop}
        others = [tag for tag in BOUND_TABLE if tag not in props]
        assert hv.THEOREM_TAGS == tuple(BOUND_TABLE) == _theorem_choices("eval-bound")
        assert {r.theorem for r in records} == set(BOUND_TABLE)
        assert list(_theorem_choices("tightness")) == others
        m = hv.model_from_expr("x", 0.5, 2.0)
        accepted = []
        for tag in BOUND_TABLE:
            try:
                optimize_tightness(tag, m, {"a": 1.0, "b": 2.0, "q": 2.0})
            except ValueError:
                continue
            accepted.append(tag)
        assert accepted == others
        assert set(summary["prop_pass_rates"]) == props

    def test_record_points_are_the_image_of_point(self, default_sweep):
        cfg, records, _ = default_sweep
        for tag, bound in BOUND_TABLE.items():
            image = {bound.point(s, q) for s in cfg.s_grid for q in cfg.q_grid}
            image.discard(None)
            if bound.is_prop:
                # The propositions are swept at s < 1 only.
                image = {(s, q) for s, q in image if s < 1.0}
            assert {(r.s, r.q) for r in records if r.theorem == tag} == image, tag


class TestBundleGatedAtQ1:
    """q drops out of |f'|^q being s-geometrically convex, so the bundle
    bounds share one hypothesis check per (model, a, b, s)."""

    def test_one_bundle_check_per_a_b_s(self, monkeypatch):
        calls = {"class": [], "monotone": [], "convex": [], "bundle": []}

        def spy(kind, module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[kind].append(args)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)
        spy("class", hv.convexity, "is_s_geometrically_convex")
        spy("monotone", hv.convexity, "is_monotone_decreasing")
        spy("convex", hv.sweep, "is_convex")
        spy("bundle", hv.sweep, "theorem_hypotheses")
        run_sweep(hv.sweep.default_config())
        # Every interval's |f'| is convex, so eq9 at q > 1 reads eq8's check.
        assert {kind: len(c) for kind, c in calls.items()} == {
            "class": 86, "monotone": 86, "convex": 43, "bundle": 86}
        assert {g.q for g, *_ in calls["class"]} == {g.q for g, *_ in calls["convex"]} == {1.0}
        # theorem_hypotheses(m, a, b, s, q, cfg): one call per (m, a, b, s).
        assert {q for *_, q, _ in calls["bundle"]} == {1.0}
        assert len({(m.name, a, b, s) for m, a, b, s, *_ in calls["bundle"]}) == 86

    def test_q_only_overflow_keeps_the_q1_flags(self):
        # |f'| = x^299 is finite on [1, 10] and |f'|^2 overflows: the bundle
        # records at q = 2 carry the q = 1 flags and fail in the rhs, and so
        # does eq9, whose gate passes with |f'| convex, never checking |f'|^2.
        cfg = parse_config({"models": [{"expr": "x^300/300", "domain": [1, 10]}],
                            "a_grid": [1.0], "b_grid": [10.0], "s_grid": [1.0],
                            "q_grid": [1.0, 2.0]})
        recs = {(r.theorem, r.q): r for r in run_sweep(cfg)}
        for key in (("eq10", 1.0), ("eq11", 2.0), ("eq111", 1.0), ("eq111", 2.0)):
            r = recs[key]
            assert (r.hyp_class, r.hyp_monotone, r.hyp_fprime_a) == (True, False, True)
            assert (r.verdict, r.discrepancy) == ("eval-error", "error:OutOfRangeError")
        r = recs["eq9", 2.0]
        assert (r.hyp_class, r.hyp_monotone, r.hyp_fprime_a) == (True, True, True)
        assert (r.verdict, r.discrepancy) == ("eval-error", "error:OverflowError")

    def test_a_raising_check_runs_once_per_a_b_s(self, monkeypatch):
        # f' = 2(x - 1) is 0 at the grid point x = 1: every bundle check
        # raises NonPositiveValueError, and each (a, b, s) raises once.
        cfg = parse_config({"models": [{"expr": "(x-1)^2", "domain": [0.5, 1.5]}],
                            "a_grid": [0.5], "b_grid": [1.5], "s_grid": [0.5, 1.0],
                            "q_grid": [1.0, 1.5, 2.0, 4.0]})
        calls = []
        bundle = hv.sweep.theorem_hypotheses

        def spy(*args, **kwargs):
            calls.append(args)
            return bundle(*args, **kwargs)
        monkeypatch.setattr(hv.sweep, "theorem_hypotheses", spy)
        recs = run_sweep(cfg)
        assert len(calls) == 2
        assert sum(r.discrepancy == "hyp-error:NonPositiveValueError"
                   for r in recs) == 16
        # the same records as with no flags cache at all
        fresh_context_per_record(monkeypatch)
        uncached = run_sweep(cfg)
        assert len(calls) == 18
        assert records_equal(recs, uncached)
        assert records_text(recs, "csv") == records_text(uncached, "csv")

    def test_a_cached_error_holds_no_frames(self):
        # |f'| is 1 on the x grid of [1, 2] at n = 9, the multiples of 1/8,
        # and inf elsewhere: the bundle check raises DomainError from its
        # geometric cube sample, every time the sweep asks for the flags.
        # f is the same function, finite at the GK15 center 1.5 and at no
        # other node, so the lhs quadrature raises NonFiniteSample.
        on_grid = lambda x: np.where(np.asarray(x) * 8.0 % 1.0 == 0.0, 1.0, np.inf)
        m = FunctionModel("grid-only", 1.0, 2.0, on_grid, on_grid)
        check_cfg = ClassCheckConfig(grid_points=9)
        ctx = ModelContext(m, Tolerances(), check_cfg, 1.0, 2.0)

        def frames(info):
            return traceback.extract_tb(info.value.__traceback__)
        flags_tbs, lhs_tbs = [], []
        for _ in range(5):
            with pytest.raises(DomainError) as info:
                ctx.flags(BOUND_TABLE["eq10"], 1.0, 1.0)
            flags_tbs.append(frames(info))
            with pytest.raises(NonFiniteSample) as info:
                ctx.lhs
            lhs_tbs.append(frames(info))
        for tbs in (flags_tbs, lhs_tbs):
            # this frame, flags() or lhs, and the memo: no frames of the
            # check or the quadrature, and no growth
            assert {len(tb) for tb in tbs} == {3}
            assert not any(f.filename.endswith(("convexity.py", "quadrature.py"))
                           for tb in tbs for f in tb)
        # The failed cube sample is not kept; what is, the next interval
        # releases.
        grid = convexity._axes((1.0, 2.0), check_cfg)
        assert set(grid.checked) == {None}
        kept = [weakref.ref(grid.checked[None][0]),
                weakref.ref(grid.points[convexity._log_cube])]
        del grid, info
        convexity.is_convex(AbsPower(np.exp), (3.0, 4.0), check_cfg)   # next interval
        assert all(ref() is None for ref in kept)
        rec = ctx.record("eq10", 1.0, 1.0)
        assert rec.discrepancy == "hyp-error:DomainError"

    def test_a_chained_error_keeps_no_context_alive(self):
        # f' raises below x = 1.2 while it handles NumPy's FloatingPointError:
        # the raise's __context__ holds f''s frame, and through the frames
        # that called it, the context.  The kept copy has no chain, so with
        # the garbage collector off the context dies with its last reference.
        def fprime(x):
            with np.errstate(invalid="raise"):
                try:
                    return np.sqrt(x - 1.2)
                except FloatingPointError:
                    raise ValueError("f' is not real below 1.2")
        m = FunctionModel("chained", 1.0, 2.0, lambda x: x, fprime)
        ctx = ModelContext(m, Tolerances(), ClassCheckConfig(grid_points=9), 1.0, 2.0)
        gc.disable()
        try:
            rec = ctx.record("eq10", 1.0, 1.0)
            assert rec.discrepancy == "hyp-error:ValueError"
            alive = weakref.ref(ctx)
            del ctx
            assert alive() is None
        finally:
            gc.enable()


# Models on different domains, two models of one name, a repeated grid
# value, pairs with a >= b, and a model whose bundle check raises.
MIXED = {
    "models": [{"name": "pow05", "builtin": "power", "s": 0.5},
               {"name": "exp", "builtin": "exp", "rate": 1.0, "domain": [0.5, 2.0]},
               {"name": "log", "expr": "1 - ln(x)", "domain": [0.25, 2.0]},
               {"name": "log", "expr": "x^0.5 - ln(x)", "domain": [0.25, 1.0]},
               {"name": "kink", "expr": "(x-1)^2", "domain": [0.5, 1.5]}],
    "a_grid": [0.25, 0.5, 0.5, 1.0, 1.5],
    "b_grid": [0.5, 0.75, 1.0, 1.0, 1.5, 2.0],
    "s_grid": [0.5, 1.0],
    "q_grid": [1.0, 2.0],
}


class TestIntervalMajorSweep:
    """The sweep runs every model on an interval before the next interval;
    the records are those of one sweep per model."""

    @pytest.mark.parametrize("n", [9, 33])
    def test_records_are_those_of_single_model_sweeps(self, n):
        raw = dict(MIXED, class_grid_points=n)
        together = run_sweep(parse_config(raw))
        apart = sort_records([r for spec in raw["models"]
                              for r in run_sweep(parse_config(dict(raw, models=[spec])))])
        assert {r.verdict for r in together} >= {"pass", "outside-hypotheses",
                                                  "eval-error"}
        assert records_equal(together, apart)
        assert records_text(together, "csv") == records_text(apart, "csv")

    def test_each_grid_is_read_as_a_set(self):
        # MIXED repeats an a and a b value; without the repeats the report
        # is the same, as it is for a repeated s or q.
        once = {key: list(dict.fromkeys(MIXED[key])) for key in ("a_grid", "b_grid")}
        assert all(len(once[key]) < len(MIXED[key]) for key in once)
        repeated = run_sweep(parse_config(MIXED))
        deduped = run_sweep(parse_config({**MIXED, **once}))
        for fmt in ("csv", "json"):
            assert records_text(repeated, fmt) == records_text(deduped, fmt)

    def test_one_context_per_model_and_interval(self, monkeypatch):
        # A model's context lives for its one visit to an interval: a spy
        # on ModelContext.record sees one context per (model, interval),
        # and once the sweep is on the next one, no earlier context is
        # alive.  With the garbage collector off, this holds for the raising
        # model too: raising its cached error, or keeping a copy of it on
        # the record, makes no cycle through its context.
        raw = MIXED
        visits, record = [], ModelContext.record

        def spy(ctx, *args):
            if not visits or visits[-1][0]() is not ctx:
                assert all(ref() is None for ref, *_ in visits)
                visits.append((weakref.ref(ctx), id(ctx.model), (ctx.a, ctx.b)))
            return record(ctx, *args)
        monkeypatch.setattr(ModelContext, "record", spy)
        gc.disable()
        try:
            recs = run_sweep(parse_config(raw))
            assert all(ref() is None for ref, *_ in visits)
        finally:
            gc.enable()
        assert any(r.discrepancy.startswith("hyp-error:") for r in recs)
        models = [hv.models.model_from_spec(spec) for spec in raw["models"]]
        expected = {(i, a, b) for a in raw["a_grid"] for b in raw["b_grid"]
                    for i, m in enumerate(models) if a < b and m.contains(a, b)}
        assert len(visits) == len({(m, ab) for _, m, ab in visits}) == len(expected)

    def test_each_interval_builds_its_cubes_once(self, monkeypatch):
        builds = Counter()
        for name in ("_linear_cube", "_log_cube"):
            def spy(xs, ts, build=getattr(convexity, name), name=name):
                builds[name] += 1
                return build(xs, ts)
            monkeypatch.setattr(convexity, name, spy)
        cfg = hv.sweep.default_config()
        models = [hv.models.model_from_spec(spec) for spec in cfg.models]
        intervals = {(a, b) for a in cfg.a_grid for b in cfg.b_grid
                     if a < b and any(m.contains(a, b) for m in models)}
        run_sweep(cfg)
        assert len(intervals) == 13
        assert builds == {"_linear_cube": 13, "_log_cube": 13}


class TestFprimeEnds:
    """Every rhs reads f only through |f'(a)| and |f'(b)|, which a
    ModelContext evaluates once, in one call of f' on [a, b], when a rhs
    first reads them."""

    @staticmethod
    def spy_models(monkeypatch, raise_at=None):
        """Count the points of each swept model's endpoint calls of f' by
        (name, x), and the calls on arrays.  Endpoint calls are those on
        the array [a, b]; the class checks' grids have at least 3 points.
        An endpoint call that holds ``raise_at`` raises."""
        points, arrays = Counter(), Counter()
        build = hv.sweep.model_from_spec

        def spied(spec):
            m = build(spec)

            def fprime(x, inner=m.fprime, name=m.name):
                if np.size(x) < 3:
                    if np.ndim(x) > 0:
                        arrays[name] += 1
                    for v in np.ravel(x).tolist():
                        points[name, v] += 1
                    if raise_at in np.ravel(x):
                        raise FloatingPointError(f"f' at {raise_at}")
                return inner(x)
            return dataclasses.replace(m, fprime=fprime)
        monkeypatch.setattr(hv.sweep, "model_from_spec", spied)
        return points, arrays

    def test_default_sweep_evaluates_the_ends_once(self, monkeypatch):
        cfg = hv.sweep.default_config()
        points, arrays = self.spy_models(monkeypatch)
        records = run_sweep(cfg)
        # One call on [a, b] per (model, a, b), for every rhs there; the
        # bundle's |f'(a)| at each gate point (model, a, b, s) is read from
        # the x-grid sample of its checks, so it makes no call.
        visits = {(r.model, r.a, r.b) for r in records}
        gates = {(r.model, r.a, r.b, r.s) for r in records
                 if BOUND_TABLE[r.theorem].gate == "bundle"}
        assert (len(visits), len(gates)) == (43, 86)
        assert sum(arrays.values()) == len(visits)
        assert sum(points.values()) == 2 * len(visits) == 86

    def test_fprime_raising_at_b_fails_only_the_rhs_that_read_it(self, monkeypatch):
        raw = {"models": [{"builtin": "power", "s": 0.5}],
               "a_grid": [0.25], "b_grid": [0.75, 1.0], "s_grid": [0.5, 1.0],
               "q_grid": [1.0, 2.0]}
        plain = run_sweep(parse_config(raw))
        points, arrays = self.spy_models(monkeypatch, raise_at=0.75)
        raised = run_sweep(parse_config(raw))
        assert len(raised) == len(plain) == 28
        # The raise is kept: f' at 0.75 runs once for the 10 rhs that read
        # it, in the call on [0.25, 0.75].  One call on [a, b] per interval;
        # the bundle reads |f'(a)| from its checks' x grid.
        assert points["power(s=0.5)", 0.75] == 1
        assert sum(arrays.values()) == 2
        assert sum(points.values()) == 2 * 2
        failed = 0
        for old, new in zip(plain, raised):
            if BOUND_TABLE[old.theorem].is_prop or old.b != 0.75:
                assert records_equal([old], [new])
                continue
            # The flags read f' on the checks' arrays only, so they are unchanged.
            failed += 1
            assert (new.verdict, new.discrepancy) == ("eval-error",
                                                      "error:FloatingPointError")
            assert ((new.hyp_class, new.hyp_monotone, new.hyp_fprime_a)
                    == (old.hyp_class, old.hyp_monotone, old.hyp_fprime_a))
            assert all(math.isnan(v) for v in (new.lhs, new.rhs, new.gap, new.ratio))
        assert failed == 10


class TestArrayContract:
    """Every call of a model's f and f' is on a float ndarray of at least
    one dimension: the sweep, a record and a search give the same output
    from models whose functions refuse anything else."""

    @staticmethod
    def strict(m, refused):
        """m, rebuilt (and so probed) with f and f' that note and refuse any
        input that is not a >= 1-d ndarray."""
        def guard(fn, label):
            def g(x):
                if not (isinstance(x, np.ndarray) and x.ndim >= 1):
                    refused.append((m.name, label, type(x).__name__))
                    raise TypeError(f"{label} called on {type(x).__name__}")
                return fn(x)
            return g
        return hv.models.make_model(m.name, m.lo, m.hi, guard(m.f, "f"),
                                    guard(m.fprime, "f'"))

    def test_default_sweep_record_and_search(self, monkeypatch):
        cfg = hv.sweep.default_config()
        box = {"a": (1.0, 1.3), "b": (1.7, 2.0), "q": 2.0}

        def outputs(wrap):
            records = run_sweep(cfg)
            m = wrap(hv.models.model_from_spec({"builtin": "power", "s": 0.5}))
            ctx = ModelContext(m, Tolerances(), ClassCheckConfig(), 0.25, 0.75)
            rec = ctx.record("eq10", 0.5, 2.0)
            res = optimize_tightness("eq111", wrap(hv.model_from_expr("1/x", 1.0, 2.0)),
                                     box)
            return records_text(records, "csv"), records_text([rec], "csv"), repr(res)

        plain = outputs(lambda m: m)
        refused = []
        build = hv.sweep.model_from_spec
        monkeypatch.setattr(hv.sweep, "model_from_spec",
                            lambda spec: self.strict(build(spec), refused))
        assert outputs(lambda m: self.strict(m, refused)) == plain
        assert refused == []


class TestOracleResidual:
    """A bound on f whose gap-identity residual exceeds identity_tol
    (relative above lhs = 1) is an eval-error, not a pass or a violation:
    the f' it was gated on does not integrate to f."""

    # f = sign(x - 1.51) jumps inside [1, 2].  Its symbolic f' is 0 wherever
    # it evaluates, so eq8's and eq9's flags pass with rhs = 0 < lhs = 0.02.
    JUMP = {"models": [{"expr": "((x-1.51)^2)^0.5/(x-1.51)", "domain": [1, 2]}],
            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0], "q_grid": [1.0, 2.0]}

    def test_a_jump_in_f_is_an_eval_error_that_keeps_its_sides(self, tmp_path):
        records = run_sweep(parse_config(self.JUMP))
        flagged = [r for r in records if r.discrepancy == "oracle-residual"]
        assert [r.theorem for r in flagged] == ["eq8", "eq9"]
        for r in flagged:
            assert r.verdict == "eval-error"
            assert (r.hyp_class, r.hyp_monotone, r.hyp_fprime_a) == (True,) * 3
            assert r.lhs == pytest.approx(0.02) and r.rhs == 0.0
            assert r.gap == r.rhs - r.lhs
            assert r.oracle_residual == pytest.approx(0.02)
        summary = hv.sweep.summarize(records)
        assert summary["violations"] == 0
        assert summary["max_gap_identity_residual"] == pytest.approx(0.02)
        # The kept sides survive a round trip through the CSV.
        path = tmp_path / "jump.csv"
        write_csv(records, str(path))
        assert records_equal(records, read_csv(str(path)))

    def test_the_search_judges_its_best_point_by_the_oracle(self):
        # The search's best point is a = 1, b = 2 with ratio inf and passing
        # flags: no violation, since f' does not integrate to f there.  The
        # residual is that point's own, at the search's tolerances.
        m = hv.model_from_expr("((x-1.51)^2)^0.5/(x-1.51)", 1.0, 2.0)
        res = optimize_tightness("eq8", m, {"a": (1.0, 1.3), "b": (1.7, 2.0)})
        assert (res.ratio, res.params["a"], res.params["b"]) == (math.inf, 1.0, 2.0)
        assert res.hypotheses_pass and res.oracle_failed and not res.violation
        ctx = ModelContext(m, Tolerances(quad_tol=1e-9), ClassCheckConfig(), 1.0, 2.0)
        assert res.oracle_residual == ctx.gap_residual == pytest.approx(0.02)
        # The benchmark batch's best points pass it, with the residual its
        # output check computes.
        for (theorem, spec, box, require), _ in TestTightness.BENCH_SEED1[:3]:
            m = hv.models.model_from_spec(spec)
            res = optimize_tightness(theorem, m, box, require_hypotheses=require)
            a, b = res.params["a"], res.params["b"]
            gap = hv.bounds.trapezoid_mean_gap(m, a, b, tol=1e-9)
            want = abs(gap - abs(hv.bounds.gap_integral_form(m, a, b, tol=1e-9)))
            assert res.oracle_residual == want < 1e-8 and not res.oracle_failed

    def test_an_error_in_the_best_points_oracle_propagates(self, monkeypatch):
        # The search computes no residual but its best point's, so an error
        # there makes no point infeasible: it propagates, with its message.
        def overflow(*args, **kwargs):
            raise OverflowError("gap form overflowed")
        monkeypatch.setattr(hv.bounds, "gap_integral_form", overflow)
        with pytest.raises(OverflowError, match="gap form overflowed"):
            optimize_tightness("eq10", hv.model_from_expr("1/x", 1.0, 2.0),
                               {"a": (1.0, 1.3), "b": (1.7, 2.0)})

    @pytest.mark.parametrize("tol, fails", [(1e-15, True), (1e-13, False)])
    def test_identity_tol_is_relative_above_lhs_1(self, tol, fails):
        # lhs is about 2.26e140 and the residual about 2.2e126, 9.6e-15 of it.
        m = hv.models.model_from_expr("x^300/300", 1.0, 10.0)
        ctx = ModelContext(m, Tolerances(identity_tol=tol), ClassCheckConfig(), 1.0, 3.0)
        assert 1e125 < ctx.gap_residual < 1e127
        rec = ctx.record("eq9", 1.0, 2.0)
        assert rec.oracle_residual == ctx.gap_residual
        assert (rec.verdict, rec.discrepancy) == (
            ("eval-error", "oracle-residual") if fails else ("pass", ""))


class TestKeptError:
    """An eval-error record that raised keeps, in ``error``, a copy of the
    exception of the stage its tag names, with no traceback, cause or
    context.  The wire formats and records_equal ignore it."""

    # f' is 0 on the grid of (x-1)^2 and of the jump, so their bundle flags
    # raise (hyp-error).  The rhs of x^300/300 raises past its flags
    # (error:).  The jump's eq8 and eq9 records fail the oracle with
    # nothing raised.
    RAW = {"models": [{"expr": "(x-1)^2", "domain": [0.5, 1.5]},
                      {"expr": "x^300/300", "domain": [1, 10]},
                      {"expr": "((x-1.51)^2)^0.5/(x-1.51)", "domain": [1, 2]}],
           "a_grid": [0.5, 1.0], "b_grid": [1.5, 2.0, 10.0], "s_grid": [1.0],
           "q_grid": [1.0, 2.0], "class_grid_points": 9}

    def test_error_is_the_stages_exception_without_frames(self, tmp_path):
        cfg = parse_config(self.RAW)
        check_cfg = ClassCheckConfig(grid_points=9, slack=cfg.tolerances.slack)
        models = {spec["expr"]: hv.models.model_from_spec(spec) for spec in cfg.models}
        records = run_sweep(cfg)
        raised = {}
        for r in records:
            stage, _, name = r.discrepancy.rpartition(";")[2].partition(":")
            if stage not in ("hyp-error", "error"):
                assert r.error is None
                continue
            assert r.verdict == "eval-error" and type(r.error).__name__ == name
            assert (r.error.__traceback__, r.error.__cause__,
                    r.error.__context__) == (None, None, None)
            # The exception the stage raises in a context of its own.
            ctx = ModelContext(models[r.model], cfg.tolerances, check_cfg, r.a, r.b)
            bound = BOUND_TABLE[r.theorem]
            with pytest.raises(type(r.error)) as info:
                ctx.flags(bound, r.s, r.q)
                if stage == "error":
                    ctx.sides(bound, r.s, r.q)
                    ctx.gap_residual
            assert (str(r.error), r.error.args) == (str(info.value), info.value.args)
            raised[r.discrepancy] = raised.get(r.discrepancy, 0) + 1
        assert raised == {"hyp-error:NonPositiveValueError": 16,
                          "error:OutOfRangeError": 12, "error:OverflowError": 1}
        assert [r.theorem for r in records
                if r.discrepancy == "oracle-residual"] == ["eq8", "eq9"]
        # error is no column and no part of a record's equality.
        assert records == [dataclasses.replace(r, error=None) for r in records]
        for fmt, write, read in (("csv", write_csv, read_csv),
                                 ("json", write_json, read_json)):
            path = str(tmp_path / f"records.{fmt}")
            write(records, path)
            back = read(path)
            assert records_equal(records, back)
            assert all(r.error is None for r in back)


class TestRaisingQuadrature:
    # 1/(x - 1.51) has a pole inside [1, 2]: the lhs quadrature spends its
    # whole subdivision budget and raises.  POLE_CSV is what the sweep
    # wrote when it ran that quadrature again for every record.
    POLE_CSV = """\
model,theorem,a,b,s,q,lhs,rhs,gap,ratio,hyp_class,hyp_monotone,hyp_fprime_a,verdict,discrepancy
1/(x-1.51),eq10,1,2,1,1,nan,nan,nan,nan,false,false,false,eval-error,error:MaxSubdivisionsExceeded
1/(x-1.51),eq11,1,2,1,2,nan,nan,nan,nan,false,false,false,eval-error,error:MaxSubdivisionsExceeded
1/(x-1.51),eq111,1,2,1,1,nan,nan,nan,nan,false,false,false,eval-error,error:MaxSubdivisionsExceeded
1/(x-1.51),eq111,1,2,1,2,nan,nan,nan,nan,false,false,false,eval-error,error:MaxSubdivisionsExceeded
1/(x-1.51),eq8,1,2,1,1,nan,nan,nan,nan,false,true,true,eval-error,error:MaxSubdivisionsExceeded
1/(x-1.51),eq9,1,2,1,2,nan,nan,nan,nan,false,true,true,eval-error,error:MaxSubdivisionsExceeded
"""

    def test_a_raising_lhs_is_integrated_once_per_model_and_interval(self, monkeypatch):
        cfg = parse_config({"models": [{"expr": "1/(x-1.51)", "domain": [1, 2]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0, 2.0]})
        calls, gap = [], hv.bounds.trapezoid_mean_gap

        def spy(*args, **kwargs):
            calls.append(args)
            return gap(*args, **kwargs)
        monkeypatch.setattr(hv.bounds, "trapezoid_mean_gap", spy)
        records = run_sweep(cfg)
        assert len(calls) == 1
        assert records_text(records, "csv") == self.POLE_CSV


X300 = {"models": [{"expr": "x^300/300", "domain": [1, 10]}],
        "a_grid": [1.0], "b_grid": [10.0], "s_grid": [1.0], "q_grid": [1.0, 2.0]}


class TestConvexGateAtQ1:
    """For q >= 1, |f'| convex implies |f'|^q convex, so eq9's gate at
    q > 1 passes wherever eq8's |f'| convex check does."""

    def test_q1_pass_implies_the_q_check(self):
        # The premise, grid point by grid point: v -> v^q is increasing and
        # convex.  A q check may still raise where |f'|^q overflows.  At
        # q = 0.5 the power is concave, and the set shows it can fail.
        rng = np.random.default_rng(20261018)
        passes = fails_below_1 = 0
        for _ in range(150):
            dtree = hv.exprparse.differentiate(random_expr(rng, 3))
            fprime = lambda x, e=dtree: hv.exprparse.eval_array(e, x)
            for interval, n in itertools.product(((0.5, 2.0), (0.25, 3.0)), (9, 33)):
                cfg = hv.ClassCheckConfig(grid_points=n)
                try:
                    if not hv.is_convex(AbsPower(fprime), interval, cfg).ok:
                        continue
                except (ValueError, ArithmeticError):
                    continue
                passes += 1
                for q in (1.5, 2.0, 4.0):
                    try:
                        ok = hv.is_convex(AbsPower(fprime, q), interval, cfg).ok
                    except DomainError:
                        continue
                    assert ok, (pretty(dtree), interval, n, q)
                fails_below_1 += not hv.is_convex(AbsPower(fprime, 0.5), interval, cfg).ok
        assert passes > 400 and fails_below_1 > 0

    def test_a_near_tie_within_slack_passes_at_q(self):
        # |f'| = 1 + a concave bump of height 0.6*slack: not convex, but
        # within slack of it.  At q = 4 the bump is about 2.4*slack, which
        # the direct check counts; the gate inherits the q = 1 pass.
        bump = 4 * 0.6e-9
        m = hv.make_model("near-tie", 1.0, 2.0,
                          lambda x: x + bump * (1.5 * x**2 - x**3 / 3 - 2 * x),
                          lambda x: 1 + bump * (x - 1) * (2 - x))
        cfg = hv.ClassCheckConfig()
        assert hv.is_convex(AbsPower(m.fprime), (1.0, 2.0), cfg).ok
        assert not hv.is_convex(AbsPower(m.fprime, 4.0), (1.0, 2.0), cfg).ok
        ctx = ModelContext(m, Tolerances(), cfg, 1.0, 2.0)
        assert ctx.flags(BOUND_TABLE["eq9"], 1.0, 4.0) == (True, True, True)

    @pytest.mark.parametrize("raw", [None, X300], ids=["default", "x^300/300"])
    def test_cached_flags_match_the_uncached_rule(self, monkeypatch, default_sweep, raw):
        # ModelContext.flags reads eq8's gate from its cache; the records
        # are those of a fresh context for every record.
        cfg = hv.sweep.default_config() if raw is None else parse_config(raw)
        recs = default_sweep[1] if raw is None else run_sweep(cfg)
        fresh_context_per_record(monkeypatch)
        uncached = run_sweep(cfg)
        assert records_equal(recs, uncached)
        assert records_text(recs, "csv") == records_text(uncached, "csv")
