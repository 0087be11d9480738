import math

import numpy as np
import pytest

from hhverify import exprparse as ep
from hhverify.errors import DomainError


def random_expr(rng: np.random.Generator, depth: int) -> ep.Expr:
    """Grammar-directed random expression with bounded constants."""
    if depth <= 0:
        if rng.random() < 0.4:
            return ep.const(round(float(rng.uniform(0.2, 3.0)), 3))
        return ep.VAR
    r = rng.random()
    if r < 0.12:
        return ep.const(round(float(rng.uniform(0.2, 3.0)), 3))
    if r < 0.28:
        return ep.VAR
    if r < 0.40:
        return ep.Expr("add", (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
    if r < 0.52:
        return ep.Expr("sub", (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
    if r < 0.64:
        return ep.Expr("mul", (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
    if r < 0.74:
        return ep.Expr("div", (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
    if r < 0.84:
        if rng.random() < 0.7:
            c = round(float(rng.uniform(-2.0, 2.0)), 2)
            # negatives are spelled as unary minus, matching what parse builds
            expo = ep.Expr("neg", (ep.const(-c),)) if c < 0 else ep.const(c)
        else:
            expo = random_expr(rng, 0)
        return ep.Expr("pow", (random_expr(rng, depth - 1), expo))
    if r < 0.92:
        return ep.Expr("exp", (random_expr(rng, depth - 1),))
    if r < 0.97:
        return ep.Expr("ln", (random_expr(rng, depth - 1),))
    return ep.Expr("neg", (random_expr(rng, depth - 1),))


def evaluate(e: ep.Expr, x: float) -> float:
    """The one-point form of eval_array; never returns a silent NaN.

    Raises DomainError when x <= 0 or when the result is not finite: a
    sub-expression that leaves its domain gives NaN, as in eval_array.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(x, "evaluation point must be positive")
    v = float(ep.eval_array(e, x))
    if not math.isfinite(v):
        raise DomainError(x, f"non-finite result {v!r}")
    return v


# Printer for Expr trees, round-trip stable: parse(pretty(t)) == t.  Binding
# strength by kind; a negative constant binds like unary minus.
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4,
         "const": 5, "var": 5, "exp": 5, "ln": 5}


def _fmt_const(v: float) -> str:
    if v < 0.0 or (v == 0.0 and math.copysign(1.0, v) < 0.0):
        return "-" + _fmt_const(-v)
    return repr(v)


def _pp(e: ep.Expr, level: int) -> str:
    k = e.kind
    if k == "const":
        s = _fmt_const(e.value)
        mine = 3 if s.startswith("-") else 5
    elif k == "var":
        s, mine = "x", 5
    elif k in ("exp", "ln"):
        s, mine = f"{k}({_pp(e.args[0], 0)})", 5
    elif k == "neg":
        s, mine = "-" + _pp(e.args[0], 3), 3
    elif k == "pow":
        s, mine = _pp(e.args[0], 5) + "^" + _pp(e.args[1], 3), 4
    else:
        op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[k]
        mine = _PREC[k]
        s = _pp(e.args[0], mine) + op + _pp(e.args[1], mine + 1)
    if mine < level:
        return "(" + s + ")"
    return s


def pretty(e: ep.Expr) -> str:
    """Render to text that reparses to the identical tree."""
    return _pp(e, 0)


@pytest.fixture(scope="session")
def default_sweep():
    """One shared run of the shipped config (used by harness + acceptance)."""
    from hhverify.sweep import default_config, run_sweep, summarize
    cfg = default_config()
    records = run_sweep(cfg)
    return cfg, records, summarize(records)


def check_pointwise_key(mu: float, alpha: float, s: float) -> bool:
    """mu^(alpha^s) <= mu^(alpha*s) for mu, alpha, s in (0, 1].

    Holds identically in range (alpha^s >= alpha >= alpha*s and mu <= 1);
    the property suite sweeps it with seeded random triples.
    """
    for name, v in (("mu", mu), ("alpha", alpha), ("s", s)):
        if not (0.0 < v <= 1.0):
            raise ValueError(f"{name}={v!r} outside (0, 1]")
    lhs = mu ** (alpha ** s)
    rhs = mu ** (alpha * s)
    return lhs <= rhs + 1e-15 * max(1.0, rhs)
