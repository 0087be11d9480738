import json
import re
import shlex
import time
from pathlib import Path

import pytest

from hhverify import cli, sweep
from hhverify.cli import main
from hhverify.convexity import (AbsPower, ClassCheckConfig,
                                is_s_geometrically_convex)
from hhverify.models import model_from_expr
from hhverify.records import CSV_COLUMNS, read_csv, read_json
from hhverify.sweep import parse_config, run_sweep


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SMALL_CFG = {
    "schema_version": 1,
    "seed": 3,
    "models": [
        {"name": "affine", "expr": "x", "domain": [0.5, 2.0]},
        {"name": "pow05", "builtin": "power", "s": 0.5},
    ],
    "a_grid": [0.25, 0.5, 1.0],
    "b_grid": [0.75, 2.0],
    "s_grid": [0.5, 1.0],
    "q_grid": [1.0, 2.0],
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG), encoding="utf-8")
    return str(p)


def _readme_cli_lines() -> list[str]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    return re.search(r"^## CLI\n\n```\n(.*?)```", text, re.S | re.M)[1].splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_block(capsys, line):
    # Each line as documented, its [optional] flags left out; "# exit 2"
    # marks a line that finds violations.
    argv = shlex.split(re.sub(r"\[[^]]*\]", "", line), comments=True)
    assert argv[0] == "hhverify"
    assert main(argv[1:]) == (2 if "# exit 2" in line else 0)


@pytest.mark.parametrize("argv", [
    ["check-class", "--kind", "nope", "--f", "x", "--domain", "1,2"],
    ["eval-bound", "--theorem", "eq10", "--f", "1/x", "--domain", "1,2", "--a", "1"],
])
def test_usage_error_exit_1(capsys, argv):
    # 2 means violations found; a bad or missing flag is an error like any other.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: hhverify ")
    assert err.splitlines()[-1].startswith("error: ")


class TestCheckClass:
    def test_geo_convex_violation_exit_2(self, capsys):
        code, out, _ = run(["check-class", "--kind", "geo-convex",
                            "--f", "exp(-(x))", "--domain", "1,2"], capsys)
        assert code == 2
        assert "VIOLATED" in out
        assert "witness" in out

    def test_s_geo_power_holds(self, capsys):
        code, out, _ = run(["check-class", "--kind", "s-geo-convex",
                            "--f", "x^-0.5", "--domain", "0.01,1",
                            "--s", "0.5"], capsys)
        assert code == 0
        assert "holds on grid" in out

    def test_on_derivative(self, capsys):
        # |d(x^0.5/0.5)/dx|^2 = x^-1 is s-geo convex on (0, 1]
        code, out, _ = run(["check-class", "--kind", "s-geo-convex",
                            "--f", "x^0.5/0.5", "--domain", "0.01,1",
                            "--s", "0.5", "--q", "2", "--on-derivative"], capsys)
        assert code == 0

    def test_on_derivative_checks_abs_power(self, capsys, monkeypatch):
        # The CLI checks the map the sweep checks: AbsPower(f', q).
        seen = []

        def spy(g, *args):
            seen.append(g)
            return is_s_geometrically_convex(g, *args)
        monkeypatch.setitem(cli._CLASS_CHECKS, "s-geo-convex", (spy, True))
        code, out, _ = run(["check-class", "--kind", "s-geo-convex",
                            "--f", "exp(-(x))", "--domain", "1,2",
                            "--s", "0.5", "--q", "2", "--on-derivative"], capsys)
        m = model_from_expr("exp(-(x))", 1.0, 2.0)
        res = is_s_geometrically_convex(AbsPower(m.fprime, 2.0), (1.0, 2.0), 0.5,
                                        ClassCheckConfig())
        assert [(type(g), g.q) for g in seen] == [(AbsPower, 2.0)]
        assert code == 2 and not res.ok
        assert f"VIOLATED\n  violations: {res.violation_count}\n" in out
        w = res.witnesses[0]
        assert f"witness x={w.x:.6g} y={w.y:.6g} t={w.t:.6g} " in out

    @pytest.mark.parametrize("slack", ["nan", "inf", "-1"])
    def test_bad_slack_exit_1(self, capsys, slack):
        code, out, err = run(["check-class", "--kind", "geo-convex",
                              "--f", "exp(-(x))", "--domain", "1,2",
                              "--slack", slack], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: slack must be finite and >= 0")

    def test_decreasing(self, capsys):
        code, _, _ = run(["check-class", "--kind", "decreasing",
                          "--f", "x^2", "--domain", "0.5,2"], capsys)
        assert code == 2

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(["check-class", "--kind", "convex",
                            "--f", "exp(-(x", "--domain", "0.5,2"], capsys)
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize("q", ["0", "-1", "nan"])
    def test_bad_q_exit_1(self, capsys, q):
        code, out, err = run(["check-class", "--kind", "convex", "--f", "x^2",
                              "--domain", "1,2", "--on-derivative", "--q", q], capsys)
        assert code == 1 and out == ""
        assert err == f"error: q must be finite and > 0, got {float(q)!r}\n"

    def test_q_needs_on_derivative_exit_1(self, capsys):
        code, out, err = run(["check-class", "--kind", "convex", "--f", "x^2",
                              "--domain", "1,2", "--q", "3"], capsys)
        assert (code, out, err) == (1, "", "error: --q needs --on-derivative\n")

    @pytest.mark.parametrize("kind", ["convex", "geo-convex", "decreasing"])
    def test_s_on_a_kind_without_s_exit_1(self, capsys, kind):
        code, out, err = run(["check-class", "--kind", kind, "--f", "x^2",
                              "--domain", "1,2", "--s", "0.5"], capsys)
        assert (code, out, err) == (1, "", f"error: --kind {kind} takes no --s\n")

    def test_missing_s_exit_1(self, capsys):
        code, _, err = run(["check-class", "--kind", "s-geo-convex",
                            "--f", "x", "--domain", "0.5,2"], capsys)
        assert code == 1
        assert "--s" in err


class TestEvalBound:
    def test_exp_eq10(self, capsys):
        code, out, _ = run(["eval-bound", "--theorem", "eq10", "--builtin", "exp",
                            "--rate", "1", "--domain", "1,2",
                            "--a", "1", "--b", "2", "--s", "1"], capsys)
        assert code == 0
        assert "lhs=0.019063" in out
        assert "class=False" in out

    def test_prop41(self, capsys):
        # The record's plain-route dual check disagrees: its tag is printed
        # on the line after the hypotheses.
        code, out, _ = run(["eval-bound", "--theorem", "prop41",
                            "--builtin", "power", "--s", "0.5",
                            "--a", "0.25", "--b", "0.75"], capsys)
        assert code == 0
        assert "prop41" in out
        assert out.endswith("fprime_a_le_1=False\ndiscrepancy: bb-discrepant\n")

    @pytest.mark.parametrize("model", [["--f", "x^0.5/0.5", "--domain", "0.01,1"],
                                       ["--builtin", "exp", "--rate", "1",
                                        "--domain", "0.1,1"]])
    def test_proposition_needs_the_power_model(self, capsys, model):
        # A proposition is about x^s/s; on another model its flags would be
        # that model's.
        code, out, err = run(["eval-bound", "--theorem", "prop41", *model,
                              "--s", "0.5", "--a", "0.25", "--b", "0.75"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: prop41 is about f = x^s/s: it needs --builtin power\n"

    def test_untagged_point_prints_no_discrepancy(self, capsys):
        code, out, err = run(["eval-bound", "--theorem", "eq8",
                              "--builtin", "power", "--s", "0.5",
                              "--a", "0.25", "--b", "0.75"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "model: power(s=0.5)\n"
            "point: s=1 q=1\n"
            "eq8: lhs=0.0326920704511 rhs=0.197168783649 gap=0.164476713198 "
            "ratio=0.16580753731\n"
            "hypotheses: class=True monotone=True fprime_a_le_1=True\n"
            "fprime: |f'(a)|=2 |f'(b)|=1.15470053838\n"
            "gap-identity residual: 2.498e-16\n")

    def test_expression_model(self, capsys):
        code, out, _ = run(["eval-bound", "--theorem", "eq8",
                            "--f", "1 - ln(x)", "--domain", "1,2",
                            "--a", "1", "--b", "2"], capsys)
        assert code == 0

    @pytest.mark.parametrize("model, message", [
        (["--builtin", "exp", "--rate", "1", "--f", "1/x", "--domain", "1,2"],
         "need exactly one of --builtin or --f"),
        (["--f", "1/x", "--domain", "1,2", "--rate", "3"],
         "--rate needs --builtin exp"),
        (["--builtin", "power", "--domain", "0.5,1", "--rate", "3"],
         "--rate needs --builtin exp"),
    ], ids=["both-kinds", "rate-on-f", "rate-on-power"])
    def test_flag_the_model_does_not_read_exit_1(self, capsys, model, message):
        code, out, err = run(["eval-bound", "--theorem", "eq10", *model,
                              "--a", "0.5", "--b", "1", "--s", "0.5"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_missing_model_exit_1(self, capsys):
        code, _, err = run(["eval-bound", "--theorem", "eq10",
                            "--a", "1", "--b", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--builtin", "power", "--a", "0.2", "--b", "0.5"], "--s: required"),
        (["--f", "1/x", "--rate", "3", "--domain", "1,2", "--a", "1", "--b", "2"],
         "--rate needs --builtin exp"),
        (["--f", "1/x", "--a", "1", "--b", "2"], "--domain: required"),
        (["--builtin", "exp", "--rate", "nan", "--a", "1", "--b", "2"],
         "--rate: must be a finite number"),
    ])
    def test_model_error_names_the_flag(self, capsys, flags, message):
        # The message names the flag typed, not the model spec's key.
        code, out, err = run(["eval-bound", "--theorem", "eq10", *flags], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not re.search(r"(?<!-)\b(s|rate|domain|expr)\b", err)

    @pytest.mark.parametrize("tag", sweep.THEOREM_TAGS)
    def test_bound_matches_the_sweep(self, capsys, tag):
        # eval-bound evaluates through the sweep's ModelContext: the same
        # point, flags, sides and ratio as the record, or the same failure.
        cfg = parse_config({"models": [{"builtin": "power", "s": 0.5}],
                            "a_grid": [0.25], "b_grid": [0.75], "s_grid": [0.5],
                            "q_grid": [2.0]})
        rec, = [r for r in run_sweep(cfg) if r.theorem == tag]
        code, out, err = run(["eval-bound", "--theorem", tag, "--builtin", "power",
                              "--s", "0.5", "--a", "0.25", "--b", "0.75"], capsys)
        if tag == "prop33":
            # prop33's rhs is undefined at this point.
            assert rec.discrepancy.endswith(";error:ValueError")
            assert code == 1 and out == "" and err.startswith("error: ")
            return
        assert rec.verdict != "eval-error" and rec.hyp_class
        assert code == 0 and err == ""
        assert f"point: s={rec.s:.12g} q={rec.q:.12g}\n" in out
        assert (f"{tag}: lhs={rec.lhs:.12g} rhs={rec.rhs:.12g} gap={rec.gap:.12g} "
                f"ratio={rec.ratio:.12g}\n") in out
        hyp = (f"hypotheses: class={rec.hyp_class} monotone={rec.hyp_monotone} "
               f"fprime_a_le_1={rec.hyp_fprime_a}\n")
        assert hyp in out
        # The record's tags, if any, on the line after the hypotheses.
        if rec.discrepancy:
            assert f"{hyp}discrepancy: {rec.discrepancy}\n" in out
        else:
            assert "discrepancy" not in out
        # The magnitudes the rhs read: |f'| = x^-0.5 at 0.25 and 0.75.
        if sweep.BOUND_TABLE[tag].is_prop:
            assert "fprime:" not in out
        else:
            assert f"fprime: |f'(a)|=2 |f'(b)|={0.75 ** -0.5:.12g}\n" in out


    def test_q1_bound_gated_at_q1(self, capsys):
        # eq8 is a q = 1 bound: --q 2 must not gate it at |f'|^2.
        cfg = parse_config({"models": [{"expr": "x^1.5", "domain": [1.0, 2.0]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0, 2.0]})
        rec = next(r for r in run_sweep(cfg) if r.theorem == "eq8")
        assert rec.verdict == "outside-hypotheses"
        want = (f"hypotheses: class={rec.hyp_class} monotone={rec.hyp_monotone} "
                f"fprime_a_le_1={rec.hyp_fprime_a}")
        for q in ([], ["--q", "1"], ["--q", "2"]):
            code, out, _ = run(["eval-bound", "--theorem", "eq8", "--f", "x^1.5",
                                "--domain", "1,2", "--a", "1", "--b", "2"] + q,
                               capsys)
            assert code == 0 and want in out, q

    @pytest.mark.parametrize("f, b, qs", [("x^300/300", "3", [1.0]),
                                          ("x^1.5", "2", [1.0, 2.0])])
    def test_eq9_gate_reads_the_q1_check_first(self, capsys, monkeypatch, f, b, qs):
        # |f'| = x^299 is convex, so eq9 at q = 2 passes on that check alone;
        # |f'| = 1.5 x^0.5 is not, and only its square is checked and passes.
        checked = []
        is_convex = sweep.is_convex

        def spy(g, *args):
            checked.append(g.q)
            return is_convex(g, *args)
        monkeypatch.setattr(sweep, "is_convex", spy)
        code, out, _ = run(["eval-bound", "--theorem", "eq9", "--f", f,
                            "--domain", "1,10", "--a", "1", "--b", b, "--q", "2"],
                           capsys)
        assert code == 0
        assert "hypotheses: class=True monotone=True fprime_a_le_1=True\n" in out
        assert checked == qs

    def test_unused_parameters_ignored(self, capsys):
        # eq8 takes neither s nor q: it is evaluated at its point (1, 1).
        base = ["eval-bound", "--theorem", "eq8", "--f", "1/x", "--domain", "1,2",
                "--a", "1", "--b", "2"]
        code, out, _ = run(base, capsys)
        assert code == 0 and "point: s=1 q=1\n" in out
        assert run(base + ["--s", "0.5", "--q", "3"], capsys) == (0, out, "")

    def test_q_above_1_bound_at_q_1_exit_1(self, capsys):
        code, out, err = run(["eval-bound", "--theorem", "eq9", "--f", "1/x",
                              "--domain", "1,2", "--a", "1", "--b", "2",
                              "--q", "1"], capsys)
        assert code == 1 and out == ""
        assert err == "error: eq9 needs q > 1, got q=1\n"

    @pytest.mark.parametrize("a, b", [("-1", "1"), ("0.5", "0.5")])
    def test_interval_outside_the_domain_exit_1(self, capsys, a, b):
        # Rejected before the hypothesis check, which would sample f' at -1.
        code, out, err = run(["eval-bound", "--theorem", "eq8", "--f", "x^0.5",
                              "--domain", "0.01,1", "--a", a, "--b", b], capsys)
        assert code == 1 and out == ""
        assert err == f"error: need 0.01 <= a < b <= 1, got a={a}, b={b}\n"

    def test_quadrature_error_exit_1(self, capsys):
        # The pole at 1.5 is a point of the hypothesis check, which runs
        # first, as in the sweep: it tags the record hyp-error:DomainError.
        code, out, err = run(["eval-bound", "--theorem", "eq8", "--f", "1/(x-1.5)",
                              "--domain", "1,2", "--a", "1", "--b", "2"], capsys)
        assert code == 1 and out == ""
        assert err == "error: domain error at x=1.5: function not finite at grid point\n"

    def test_quadrature_error_after_the_flags_exit_1(self, capsys):
        # 1.25048828125 = 1 + 2^-2 + 2^-11 is no point of the check, so the
        # flags complete; it is the centre of a GK15 panel that bisection
        # towards the pole reaches, so the quadrature raises.
        cfg = parse_config({"models": [{"expr": "1/(x-1.25048828125)",
                                        "domain": [1.0, 2.0]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0]})
        rec, = [r for r in run_sweep(cfg) if r.theorem == "eq8"]
        assert rec.discrepancy == "error:NonFiniteSample"
        code, out, err = run(["eval-bound", "--theorem", "eq8",
                              "--f", "1/(x-1.25048828125)", "--domain", "1,2",
                              "--a", "1", "--b", "2"], capsys)
        assert code == 1 and out == ""
        assert err == "error: integrand not finite at x=1.25048828125\n"

    def test_pole_exhausts_the_subdivision_budget_exit_1(self, capsys):
        # 1.51 is no grid point of the check and no GK15 node bisection
        # reaches, so the flags complete and the quadrature refines towards
        # the pole until its 10,000-subdivision budget runs out.
        start = time.process_time()
        code, out, err = run(["eval-bound", "--theorem", "eq8", "--f", "1/(x-1.51)",
                              "--domain", "1,2", "--a", "1", "--b", "2"], capsys)
        assert time.process_time() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error: subdivision budget exhausted; best estimate ")
        assert err.count("\n") == 1

    def test_overflowing_rhs_exit_1(self, capsys):
        # eq9's rhs raises |f'(b)|^2 = 1e598 on Python floats; the sweep
        # tags the same record error:OverflowError.
        code, out, err = run(["eval-bound", "--theorem", "eq9", "--f", "x^300/300",
                              "--domain", "1,10", "--a", "1", "--b", "10",
                              "--q", "2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: OverflowError: ") and err.count("\n") == 1

    def test_overflowing_integral_exit_1(self, capsys):
        # The integral x^3/6 over [1, 1e150] overflows a float: one error
        # line, not lhs=inf and a VIOLATION.
        code, out, err = run(["eval-bound", "--theorem", "eq8", "--f", "x^2/2",
                              "--domain", "1,1e150", "--a", "1", "--b", "1e150"],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: OverflowError: ") and err.count("\n") == 1

    def test_gap_identity_residual_matches_the_sweep(self, capsys):
        cfg = parse_config({"models": [{"builtin": "exp", "rate": 1.0}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0]})
        rec = next(r for r in run_sweep(cfg) if r.theorem == "eq8")
        code, out, err = run(["eval-bound", "--theorem", "eq8", "--builtin", "exp",
                              "--rate", "1", "--domain", "1,2",
                              "--a", "1", "--b", "2"], capsys)
        assert code == 0 and err == ""
        assert f"gap-identity residual: {rec.oracle_residual:.3e}\n" in out

    def test_jump_in_f_is_an_error_not_a_violation(self, capsys):
        # f = sign(x - 1.51): its f' is 0 wherever it evaluates, so the flags
        # pass and rhs = 0 < lhs = 0.02, but f' does not integrate to f.  The
        # sweep's record is an eval-error tagged oracle-residual.
        code, out, err = run(["eval-bound", "--theorem", "eq8",
                              "--f", "((x-1.51)^2)^0.5/(x-1.51)", "--domain", "1,2",
                              "--a", "1", "--b", "2"], capsys)
        assert code == 1
        assert "eq8: lhs=0.02 rhs=0 " in out
        assert "discrepancy: oracle-residual\n" in out
        assert "gap-identity residual: 2.000e-02\n" in out
        assert "VIOLATION" not in out
        assert err.startswith("error: gap-identity residual 2.000e-02 exceeds "
                              "identity_tol 1e-08 ")
        assert err.count("\n") == 1

    def test_constant_model_ratio_matches_the_sweep(self, capsys):
        # Both sides are 0 for a constant f; the record's ratio is 0, not NaN.
        cfg = parse_config({"models": [{"expr": "2", "domain": [1.0, 2.0]}],
                            "a_grid": [1.0], "b_grid": [2.0], "s_grid": [1.0],
                            "q_grid": [1.0]})
        rec = next(r for r in run_sweep(cfg) if r.theorem == "eq8")
        code, out, _ = run(["eval-bound", "--theorem", "eq8", "--f", "2",
                            "--domain", "1,2", "--a", "1", "--b", "2"], capsys)
        assert code == 0
        assert (f"eq8: lhs={rec.lhs:.12g} rhs={rec.rhs:.12g} gap={rec.gap:.12g} "
                f"ratio={rec.ratio:.12g}\n") in out
        assert "ratio=0\n" in out


# Inputs that once ended in a RecursionError traceback.
DEEP_EXPRS = {
    "nested-parens": "(" * 300 + "x" + ")" * 300,
    "long-sum": "+".join(["x"] * 1100),
    "unary-minuses": "-" * 1000 + "x",
}


@pytest.mark.parametrize("src", DEEP_EXPRS.values(), ids=DEEP_EXPRS.keys())
class TestDeepExpressions:
    def test_eval_bound_exit_1(self, capsys, src):
        code, _, err = run(["eval-bound", "--theorem", "eq8", f"--f={src}",
                            "--domain", "1,2", "--a", "1", "--b", "2"], capsys)
        assert code == 1
        assert err.startswith("error: parse error")

    def test_verify_config_exit_1(self, tmp_path, capsys, src):
        p = tmp_path / "deep.json"
        p.write_text(json.dumps({**SMALL_CFG, "models": [
            {"name": "deep", "expr": src, "domain": [1.0, 2.0]}]}), encoding="utf-8")
        code, _, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1
        assert err.startswith("error: models[0]: parse error")


class TestVerify:
    def test_csv_output_and_exit_0(self, cfg_path, tmp_path, capsys):
        out_path = str(tmp_path / "report.csv")
        code, out, _ = run(["verify", "--config", cfg_path,
                            "--out", out_path, "--format", "csv"], capsys)
        assert code == 0
        records = read_csv(out_path)
        assert records
        assert "violation: 0" in out

    def test_json_output(self, cfg_path, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code, _, _ = run(["verify", "--config", cfg_path,
                          "--out", out_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(Path(out_path).read_text(encoding="utf-8")
                             .replace("NaN", "null"))
        assert set(payload["records"][0]) == set(CSV_COLUMNS)

    def test_stdout_when_no_out(self, cfg_path, capsys):
        code, out, _ = run(["verify", "--config", cfg_path], capsys)
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_deterministic_files(self, cfg_path, tmp_path, capsys):
        p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        run(["verify", "--config", cfg_path, "--out", p1], capsys)
        run(["verify", "--config", cfg_path, "--out", p2], capsys)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_adhoc_model_flag(self, cfg_path, tmp_path, capsys):
        out_path = str(tmp_path / "r.csv")
        code, _, _ = run(["verify", "--config", cfg_path, "--out", out_path,
                          "--f", "1/x", "--domain", "1,2"], capsys)
        assert code == 0
        records = read_csv(out_path)
        assert any(r.model == "cli:1/x" for r in records)

    def test_domain_without_f_exit_1(self, cfg_path, capsys):
        code, out, err = run(["verify", "--config", cfg_path, "--domain", "1,2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: the ad-hoc model needs both --f and --domain lo,hi\n"

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        # No model's domain holds an a < b pair of the grids.
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({**SMALL_CFG, "a_grid": [3.0], "b_grid": [4.0]}),
                     encoding="utf-8")
        code, out, err = run(["verify", "--config", str(p)], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(",".join(CSV_COLUMNS) + "\nrecords: 0\n")
        for fmt, read in (("csv", read_csv), ("json", read_json)):
            out_path = str(tmp_path / f"report.{fmt}")
            code, out, err = run(["verify", "--config", str(p), "--out", out_path,
                                  "--format", fmt], capsys)
            assert (code, err) == (0, "")
            assert out.startswith(f"wrote 0 records to {out_path} ({fmt})\n")
            assert read(out_path) == []

    def test_seed_key_is_inert(self, cfg_path, tmp_path, capsys):
        unseeded = tmp_path / "unseeded.json"
        unseeded.write_text(json.dumps({k: v for k, v in SMALL_CFG.items()
                                        if k != "seed"}), encoding="utf-8")
        p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        run(["verify", "--config", cfg_path, "--out", p1], capsys)
        run(["verify", "--config", str(unseeded), "--out", p2], capsys)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("spec, path", [
        ({"builtin": "power", "s": [0.5]}, "models[0].s"),
        ({"expr": "x", "domain": ["a", 2]}, "models[0].domain"),
    ])
    def test_mistyped_model_value_exit_1(self, tmp_path, capsys, spec, path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, "models": [spec]}), encoding="utf-8")
        code, _, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1
        assert path in err

    @pytest.mark.parametrize("override, path", [
        ({"tolerances": {"slack": True}}, "tolerances.slack"),
        ({"q_grid": [True]}, "q_grid[0]"),
    ])
    def test_json_boolean_number_exit_1(self, tmp_path, capsys, override, path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, **override}), encoding="utf-8")
        code, _, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("spec, message", [
        ({"builtin": "nope"}, "unknown builtin 'nope'"),
        ({"builtin": "power", "s": 1.5}, "power model needs s in (0, 1)"),
        ({"builtin": "exp", "rate": -1.0}, "exp model needs rate > 0"),
        ({"expr": "x +", "domain": [1, 2]}, "parse error at offset 3"),
    ])
    def test_unbuildable_model_exit_1(self, tmp_path, capsys, spec, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, "models": SMALL_CFG["models"] + [spec]}),
                     encoding="utf-8")
        code, out, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: models[2]: {message}")

    @pytest.mark.parametrize("key", ["quad_tol", "slack", "identity_tol"])
    def test_infinite_tolerance_exit_1(self, tmp_path, capsys, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, "tolerances": {key: float("inf")}}),
                     encoding="utf-8")
        code, out, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: tolerances.{key}: ")

    def test_unbuildable_adhoc_model_exit_1(self, cfg_path, capsys, monkeypatch):
        def no_sweep(cfg):
            raise AssertionError("swept a config with an unbuildable model")

        monkeypatch.setattr(cli.sweep, "run_sweep", no_sweep)
        code, out, err = run(["verify", "--config", cfg_path,
                              "--f", "x +", "--domain", "1,2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: parse error at offset 3")

    def test_bad_config_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"models": []}), encoding="utf-8")
        code, _, err = run(["verify", "--config", str(p)], capsys)
        assert code == 1
        assert "models" in err


class TestTightnessCli:
    def test_log_family(self, capsys):
        code, out, _ = run(["tightness", "--theorem", "eq10",
                            "--f", "1 - ln(x)", "--domain", "1,2",
                            "--a-range", "1,2", "--b-range", "1,2",
                            "--s", "1"], capsys)
        assert code == 0
        assert "max ratio 0.218" in out

    def test_power_mean_route_with_q_range(self, capsys):
        code, out, _ = run(["tightness", "--theorem", "eq111",
                            "--f", "1/x", "--domain", "1,2",
                            "--a-range", "1,2", "--b-range", "1,2",
                            "--s", "1", "--q-range", "1,4"], capsys)
        assert code == 0
        assert "hypotheses pass: True" in out

    def test_unused_ranges_ignored(self, capsys):
        base = ["tightness", "--theorem", "eq8", "--f", "1/x", "--domain", "1,2",
                "--a-range", "1,1.5", "--b-range", "1.5,2"]
        code, out, _ = run(base, capsys)
        assert code == 0
        assert "s=1 q=1\n" in out and "evaluations: 56;" in out
        assert run(base + ["--s-range", "0.5,1", "--q-range", "1,3"], capsys) == (0, out, "")

    @pytest.mark.parametrize("key, value, text", [("s", "1", "0.5,1"),
                                                  ("q", "2", "1,3")])
    def test_value_and_range_exit_1(self, capsys, key, value, text):
        code, out, err = run(["tightness", "--theorem", "eq111", "--f", "1/x",
                              "--domain", "1,2", "--a-range", "1,2", "--b-range", "1,2",
                              f"--{key}", value, f"--{key}-range", text], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: --{key} and --{key}-range exclude each other\n"

    def test_errors_printed(self, capsys):
        base = ["tightness", "--theorem", "eq10", "--f", "x^300/300",
                "--domain", "1,10", "--a-range", "1", "--no-hypotheses"]
        code, out, _ = run(base + ["--b-range", "1.01,1.5"], capsys)
        assert code == 0
        assert out.endswith("  errors: OutOfRangeError=10\n")
        code, out, _ = run(base + ["--b-range", "1.01,1.02"], capsys)
        assert code == 0 and "errors" not in out

    def test_non_finite_range_exit_1(self, capsys):
        code, out, err = run(["tightness", "--theorem", "eq10",
                              "--f", "1/x", "--domain", "1,2",
                              "--a-range", "1,inf", "--b-range", "1.6,2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: box.a: need finite bounds, got (1.0, inf)\n"

    def test_jump_in_f_is_an_error_not_a_violation(self, capsys):
        # As eval-bound: the best point's ratio is inf with passing flags,
        # but its f' does not integrate to f.
        code, out, err = run(["tightness", "--theorem", "eq8",
                              "--f", "((x-1.51)^2)^0.5/(x-1.51)", "--domain", "1,2",
                              "--a-range", "1,1.3", "--b-range", "1.7,2"], capsys)
        assert code == 1
        assert "max ratio inf\n" in out and "hypotheses pass: True\n" in out
        assert "  gap-identity residual: 2.000e-02\n" in out
        assert "VIOLATION" not in out
        assert err.startswith("error: gap-identity residual 2.000e-02 exceeds "
                              "identity_tol 1e-08 ")
        assert err.count("\n") == 1

    def test_infeasible_exit_1(self, capsys):
        code, _, err = run(["tightness", "--theorem", "eq10",
                            "--builtin", "exp", "--rate", "1", "--domain", "1,2",
                            "--a-range", "1,2", "--b-range", "1,2",
                            "--s", "1"], capsys)
        assert code == 1
        assert "no feasible point" in err


class TestMeansCli:
    def test_reference_point(self, capsys):
        code, out, _ = run(["means", "--a", "0.25", "--b", "0.75",
                            "--s", "0.5", "--q", "2"], capsys)
        assert code == 0
        assert "L_s(a,b)" in out
        assert "discrepant" in out
        assert "undefined" in out  # prop33 at q=2 has negative printed V

    @pytest.mark.parametrize("a,b,s,q", [("0.75", "0.25", "0.5", "2"),
                                         ("0.5", "0.5", "0.5", "2"),
                                         ("0.25", "1.5", "0.5", "2"),
                                         ("0.25", "0.75", "1", "2"),
                                         ("0.25", "0.75", "0.5", "1"),
                                         ("nan", "0.75", "0.5", "2")])
    def test_bad_point_prints_only_the_error(self, capsys, a, b, s, q):
        code, out, err = run(["means", "--a", a, "--b", b, "--s", s, "--q", q], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: means needs 0 < a < b <= 1, 0 < s < 1 and q > 1")
        assert err.count("\n") == 1
