import numpy as np
import pytest

from hhverify import exprparse as ep


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
