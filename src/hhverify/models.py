"""Function models: evaluable f with an exact first derivative on a positive
interval.

Built-ins carry hand-written derivatives; expression-backed models get theirs
from the symbolic differentiator, so the two paths cross-check each other in
the test suite.  Construction probes f and f' on a Chebyshev-spaced grid
(endpoints included) and fails eagerly on any non-finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprparse
from .errors import ConfigError, DomainError

__all__ = ["FunctionModel", "make_model", "power_model", "exp_model",
           "model_from_expr", "model_from_spec", "SPEC_KINDS",
           "PROBE_POINTS"]

PROBE_POINTS = 64


@dataclass(frozen=True)
class FunctionModel:
    name: str
    lo: float
    hi: float
    f: Callable
    fprime: Callable

    def contains(self, a: float, b: float) -> bool:
        return self.lo <= a < b <= self.hi


def _chebyshev_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # Chebyshev-Lobatto points: clustered near the endpoints, endpoints
    # included, ascending.
    k = np.arange(n)
    return 0.5 * lo + 0.5 * hi - 0.5 * (hi - lo) * np.cos(np.pi * k / (n - 1))


def evaluate_points(g: Callable, pts) -> np.ndarray:
    """g on an array of points, in one call of g on them flattened in C
    order (point sets stacked as rows come one row after another).

    g must take a float ndarray and return values of its shape, or a
    scalar; whatever g raises propagates.  Returns a fresh float array
    shaped like pts: g's result is copied only where it is not one
    already, such as a scalar or a view of pts.
    """
    flat = np.ravel(pts)
    vals = np.asarray(g(flat), dtype=float)
    if not (vals.shape == flat.shape and vals.base is None
            and vals.flags.writeable and not np.may_share_memory(vals, pts)):
        vals = np.broadcast_to(vals, flat.shape).copy()
    return vals.reshape(np.shape(pts))


def _probe(name: str, lo: float, hi: float, f: Callable, fprime: Callable) -> None:
    grid = _chebyshev_grid(lo, hi, PROBE_POINTS)
    for label, fn in (("f", f), ("f'", fprime)):
        bad = ~np.isfinite(evaluate_points(fn, grid))
        if bad.any():
            x = float(grid[np.argmax(bad)])
            raise DomainError(x, f"{label} of model {name!r} is not finite")


def make_model(name: str, lo: float, hi: float, f: Callable,
               fprime: Callable) -> FunctionModel:
    """A model on [lo, hi], 0 < lo < hi.

    f and f' must take a float ndarray and return values of its shape,
    or a scalar.  Each is called once on the probe grid: a non-finite
    value raises DomainError at the first such point, and an exception
    from the call (a ``math`` function's TypeError, say) propagates.
    """
    lo = float(lo)
    hi = float(hi)
    if not (0.0 < lo < hi):
        raise ValueError(f"domain must satisfy 0 < lo < hi, got ({lo}, {hi})")
    _probe(name, lo, hi, f, fprime)
    return FunctionModel(name, lo, hi, f, fprime)


def power_model(s: float, lo: float = 0.01, hi: float = 1.0) -> FunctionModel:
    """f(x) = x^s / s on a sub-interval of (0, 1], with f'(x) = x^(s-1).

    |f'|^q = x^((s-1)q) is monotonically decreasing on (0, 1] and
    s-geometrically convex there, which makes this the reference instance
    for the special-means propositions.
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError(f"power model needs s in (0, 1), got {s}")
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError(f"power model domain must lie in (0, 1], got ({lo}, {hi})")
    return make_model(
        f"power(s={s:g})", lo, hi,
        f=lambda x: np.power(x, s) / s,
        fprime=lambda x: np.power(x, s - 1.0),
    )


def exp_model(rate: float, lo: float = 1.0, hi: float = 2.0) -> FunctionModel:
    """f(x) = exp(-rate*x) with f'(x) = -rate*exp(-rate*x), rate > 0."""
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError(f"exp model needs rate > 0, got {rate}")
    return make_model(
        f"exp(rate={rate:g})", lo, hi,
        f=lambda x: np.exp(-rate * x),
        fprime=lambda x: -rate * np.exp(-rate * x),
    )


def model_from_expr(src: str, lo: float, hi: float,
                    name: str | None = None) -> FunctionModel:
    """Build a model from expression text; the derivative is symbolic.

    The probe grid surfaces domain problems at construction time, naming
    the offending point.
    """
    tree = exprparse.parse(src)
    dtree = exprparse.differentiate(tree)

    def f(x):
        return exprparse.eval_array(tree, x)

    def fprime(x):
        return exprparse.eval_array(dtree, x)

    return make_model(name or src, lo, hi, f, fprime)


# Each kind of model spec: its builder and the keys it needs, the first
# holding the value the builder takes first.  A builtin spec names its kind
# under "builtin", and any spec may add "domain" and "name".
SPEC_KINDS = {"power": (power_model, ("s",)), "exp": (exp_model, ("rate",)),
              "expr": (model_from_expr, ("expr", "domain"))}


def _finite(v) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def model_from_spec(spec: Mapping) -> FunctionModel:
    """Instantiate a model from a config-style mapping, the one check of
    a model spec: ``{"builtin": "power", "s": 0.5}``, ``{"builtin": "exp",
    "rate": 1.0}`` or ``{"expr": "1 - ln(x)", "domain": [lo, hi]}``, with
    an optional domain (a builtin's has a default) and a ``name`` that
    overrides the derived one.  A missing, stray or malformed key raises
    ConfigError naming it; any other fault, a builder's own included, a
    plain ValueError."""
    if not isinstance(spec, Mapping):
        raise ValueError("model spec must be an object")
    if ("builtin" in spec) == ("expr" in spec):
        raise ValueError("model spec needs exactly one of 'builtin' or 'expr'")
    kind = spec.get("builtin", "expr")  # any JSON value: compared, not hashed
    if "builtin" in spec and kind not in ("power", "exp"):
        raise ValueError(f"unknown builtin {kind!r}")
    build, required = SPEC_KINDS[kind]
    for key in spec:
        if key not in ("builtin", *required, "domain", "name"):
            raise ConfigError(key, f"not a key of {kind} model specs")
    for key in required:
        if key not in spec:
            raise ConfigError(key, "required")
    value = spec[required[0]]
    if kind != "expr" and not _finite(value):
        raise ConfigError(required[0], "must be a finite number")
    dom = spec.get("domain", ())  # each builder takes (value, lo, hi)
    if "domain" in spec:
        if not (isinstance(dom, Sequence) and len(dom) == 2
                and all(_finite(v) for v in dom)):
            raise ConfigError("domain", "must be [lo, hi], two finite numbers")
        if not 0.0 < dom[0] < dom[1]:
            raise ConfigError("domain", f"need 0 < lo < hi, got {list(dom)}")
    name = spec.get("name")
    if not (name is None or isinstance(name, str) and "," not in name):
        raise ConfigError("name", "must be a string without commas")
    m = build(value, *dom)
    return replace(m, name=name) if name and m.name != name else m
