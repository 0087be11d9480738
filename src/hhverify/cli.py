"""Command-line interface.

Subcommands:

    check-class   grid-check a convexity class / monotonicity for an expression
    eval-bound    evaluate one bound at one parameter point
    verify        run the sweep over a config and emit a CSV/JSON report
    tightness     maximize lhs/rhs for one bound over a parameter box
    means         print the special means and proposition values at a point

Exit codes: 0 = no violations, 2 = violations found, 1 = error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import exprparse, means, sweep
from .convexity import (AbsPower, ClassCheckConfig, is_convex,
                        is_geometrically_convex, is_monotone_decreasing,
                        is_s_convex, is_s_geometrically_convex)
from .errors import EmptyFeasibleSetError, QuadratureError
from .models import FunctionModel, model_from_expr, model_from_spec
from .records import records_text, write_csv, write_json
from .tightness import SEARCH_TAGS, optimize_tightness

# check-class --kind -> (check, whether it takes --s).  Each lambda looks
# its check up on this module at call time, as BOUND_TABLE's rhs lambdas do,
# so a patched check is the one called.
_CLASS_CHECKS = {
    "convex": (lambda *args: is_convex(*args), False),
    "s-convex": (lambda *args: is_s_convex(*args), True),
    "geo-convex": (lambda *args: is_geometrically_convex(*args), False),
    "s-geo-convex": (lambda *args: is_s_geometrically_convex(*args), True),
    "decreasing": (lambda *args: is_monotone_decreasing(*args), False),
}


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"domain must be 'lo,hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ValueError(f"domain needs lo < hi, got {text!r}")
    return lo, hi


def _parse_range(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        return (parts[0], parts[0])
    if len(parts) == 2 and parts[0] <= parts[1]:
        return (parts[0], parts[1])
    raise ValueError(f"range must be 'v' or 'lo,hi' with lo <= hi, got {text!r}")


def _model(args) -> FunctionModel:
    """The model named by the model flags; --s doubles as the power
    family's s."""
    spec = {key: value for key, value in (("builtin", args.builtin),
                                          ("expr", args.f), ("s", args.s),
                                          ("rate", args.rate))
            if value is not None}
    if args.domain:
        spec["domain"] = _parse_domain(args.domain)
    return model_from_spec(spec)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", help="expression in x defining the model's f")
    p.add_argument("--domain", help="model domain as 'lo,hi'")
    p.add_argument("--builtin", choices=("power", "exp"),
                   help="use a built-in model family instead of --f")
    p.add_argument("--rate", type=float, help="rate for --builtin exp")


def cmd_check_class(args) -> int:
    lo, hi = _parse_domain(args.domain)
    cfg = ClassCheckConfig(grid_points=args.grid, slack=args.slack)
    if args.on_derivative:
        m = model_from_expr(args.f, lo, hi)
        g = AbsPower(m.fprime, args.q if args.q is not None else 1.0)
    else:
        tree = exprparse.parse(args.f)

        def g(x):
            return exprparse.eval_array(tree, x)

    kind = args.kind
    check, takes_s = _CLASS_CHECKS[kind]
    if takes_s and args.s is None:
        raise ValueError(f"--kind {kind} needs --s")
    res = check(g, (lo, hi), *([args.s] if takes_s else []), cfg)

    target = "|f'|^q of " + repr(args.f) if args.on_derivative else repr(args.f)
    print(f"{kind} on [{lo}, {hi}] for {target}: "
          f"{'holds on grid' if res.ok else 'VIOLATED'}")
    if not res.ok:
        print(f"  violations: {res.violation_count}")
        for w in res.witnesses[:5]:
            print(f"  witness x={w.x:.6g} y={w.y:.6g} t={w.t:.6g} "
                  f"lhs={w.lhs:.9g} rhs={w.rhs:.9g}")
    return 0 if res.ok else 2


def cmd_eval_bound(args) -> int:
    tag = args.theorem
    bound = sweep.BOUND_TABLE[tag]
    # Only on the power model is the model's s the proposition's s.
    if bound.is_prop and args.builtin != "power":
        raise ValueError(f"{tag} is about f = x^s/s: it needs --builtin power")
    m = _model(args)
    a, b = args.a, args.b
    point = bound.point(1.0 if args.s is None else args.s, args.q)
    if point is None:
        raise ValueError(f"{tag} needs q > 1, got q={args.q:g}")
    s, q = point
    if not m.contains(a, b):  # before the hypothesis check samples f' there
        raise ValueError(f"need {m.lo:g} <= a < b <= {m.hi:g}, got a={a:g}, b={b:g}")

    ctx = sweep.ModelContext(m, sweep.Tolerances(), ClassCheckConfig(), a, b)
    rec = ctx.record(tag, s, q)
    if rec.error is not None:
        raise rec.error
    print(f"model: {m.name}")
    print(f"point: s={s:.12g} q={q:.12g}")
    print(f"{tag}: lhs={rec.lhs:.12g} rhs={rec.rhs:.12g} gap={rec.gap:.12g} "
          f"ratio={rec.ratio:.12g}")
    print(f"hypotheses: class={rec.hyp_class} monotone={rec.hyp_monotone} "
          f"fprime_a_le_1={rec.hyp_fprime_a}")
    if rec.discrepancy:
        print(f"discrepancy: {rec.discrepancy}")
    # A proposition's rhs reads no f' and has no gap-identity residual.
    if not bound.is_prop:
        print("fprime: |f'(a)|={:.12g} |f'(b)|={:.12g}".format(*ctx.fprime_ends))
        print(f"gap-identity residual: {rec.oracle_residual:.3e}")
    if "oracle-residual" in rec.discrepancy.split(";"):
        return _oracle_error(rec.oracle_residual)
    if rec.verdict == "violation":
        print("VIOLATION")
        return 2
    return 0


def _oracle_error(residual: float, where: str = "") -> int:
    """Report a verdict the gap-identity oracle voids (an eval-error tagged
    oracle-residual in the sweep): exit code 1."""
    print(f"error: gap-identity residual {residual:.3e} exceeds identity_tol "
          f"{sweep.Tolerances().identity_tol:g} (relative above lhs = 1){where}: "
          "f' does not integrate to f on [a, b]", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    cfg = sweep.load_config(args.config) if args.config else sweep.default_config()
    if args.f:
        if not args.domain:
            raise ValueError("ad-hoc --f model needs --domain lo,hi")
        lo, hi = _parse_domain(args.domain)
        extra = {"name": f"cli:{args.f}", "expr": args.f, "domain": [lo, hi]}
        model_from_spec(extra)  # fail before the sweep, not in it
        cfg = dataclasses.replace(cfg, models=cfg.models + (extra,))
    records = sweep.run_sweep(cfg)
    summary = sweep.summarize(records)
    if args.out:
        if args.format == "json":
            write_json(records, args.out)
        else:
            write_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out} ({args.format})")
    else:
        sys.stdout.write(records_text(records, args.format))
    print(sweep.format_summary(summary))
    return 2 if summary["violations"] else 0


def cmd_tightness(args) -> int:
    m = _model(args)
    box = {"a": _parse_range(args.a_range), "b": _parse_range(args.b_range)}
    for key, text, value in (("s", args.s_range, args.s), ("q", args.q_range, args.q)):
        if text or value is not None:
            box[key] = _parse_range(text) if text else value
    res = optimize_tightness(args.theorem, m, box,
                             require_hypotheses=not args.no_hypotheses)
    p = res.params
    print(f"{args.theorem} tightness on {m.name}: max ratio {res.ratio:.9g}")
    print(f"  at a={p['a']:.9g} b={p['b']:.9g} s={p['s']:.9g} q={p['q']:.9g}")
    print(f"  evaluations: {res.trace_len}; hypotheses pass: {res.hypotheses_pass}")
    print(f"  gap-identity residual: {res.oracle_residual:.3e}")
    if res.errors:
        print("  errors: " + ", ".join(f"{k}={v}" for k, v in res.errors.items()))
    if res.oracle_failed:
        return _oracle_error(res.oracle_residual, " at the best point")
    if res.violation:
        print("VIOLATION: ratio exceeds 1 within hypotheses")
        return 2
    return 0


def cmd_means(args) -> int:
    a, b, s = args.a, args.b, args.s
    q = args.q if args.q is not None else 2.0
    print(f"A(a,b)   = {means.arith_mean(a, b):.12g}")
    print(f"L(a,b)   = {means.log_mean(a, b):.12g}")
    print(f"L_s(a,b) = {means.gen_log_mean(a, b, s):.12g}")
    print(f"prop lhs = {means.prop_lhs(a, b, s):.12g}")
    print(f"prop41 rhs = {means.prop41_rhs(a, b, s):.12g}")
    print(f"prop32 rhs (q={q:g}) = {means.prop32_rhs(a, b, s, q):.12g}")
    try:
        print(f"prop33 rhs (q={q:g}) = {means.prop33_rhs(a, b, s, q):.12g}")
    except ValueError as e:
        print(f"prop33 rhs (q={q:g}) = undefined ({e})")
    print(f"identity residual (endpoint form): {means.residual_aa(a, b, s):.3e}")
    bb = means.dual_route_bb(a, b, s)
    print(f"plain-route dual check: {bb.classification} "
          f"(deviation {bb.deviation:.3e})")
    print(f"kernel identity residual: {means.residual_cc(a, b, s, q):.3e}")
    print(f"U-form deviation: {means.deviation_dd(a, b, s, q):.3e}")
    ee = means.deviation_ee(a, b, s, q)
    print(f"V-form dual check: {ee.classification} "
          f"(printed {ee.means_value:.6g} vs kernel {ee.kernel_value:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hhverify",
        description="Numerical verification of trapezoid-gap bounds for "
                    "s-geometrically convex functions.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-class", help="grid-check a convexity class")
    p.add_argument("--kind", choices=tuple(_CLASS_CHECKS), required=True)
    p.add_argument("--f", required=True, help="expression in x")
    p.add_argument("--domain", required=True, help="'lo,hi'")
    p.add_argument("--s", type=float, help="class parameter s in (0,1]")
    p.add_argument("--q", type=float, help="power applied to |f'| with --on-derivative")
    p.add_argument("--grid", type=int, default=ClassCheckConfig.grid_points)
    p.add_argument("--slack", type=float, default=ClassCheckConfig.slack,
                   help="tolerance of a violation: absolute up to 1 and relative "
                        "to rhs above for convex/s-convex, on logs for the geo "
                        "kinds, absolute for decreasing")
    p.add_argument("--on-derivative", action="store_true",
                   help="check |d f/dx|^q instead of f itself")
    p.set_defaults(func=cmd_check_class)

    p = sub.add_parser("eval-bound", help="evaluate one bound at a point")
    p.add_argument("--theorem", required=True, choices=sweep.THEOREM_TAGS)
    _add_model_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--q", type=float, default=2.0)
    p.set_defaults(func=cmd_eval_bound)

    p = sub.add_parser("verify", help="run the sweep and emit a report")
    p.add_argument("--config", help="config JSON path (default: shipped config)")
    p.add_argument("--out", help="report output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--f", help="extra ad-hoc expression model")
    p.add_argument("--domain", help="'lo,hi' for the ad-hoc model")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tightness", help="maximize lhs/rhs over a box")
    p.add_argument("--theorem", required=True, choices=SEARCH_TAGS)
    _add_model_flags(p)
    p.add_argument("--a-range", required=True, help="'lo,hi' or a single value")
    p.add_argument("--b-range", required=True)
    p.add_argument("--s-range")
    p.add_argument("--q-range")
    p.add_argument("--s", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--no-hypotheses", action="store_true",
                   help="measure the ratio without hypothesis gating")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("means", help="special means and proposition values")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float)
    p.set_defaults(func=cmd_means)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, QuadratureError, EmptyFeasibleSetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:  # such as a bound overflowing a float
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
