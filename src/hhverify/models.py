"""Function models: evaluable f with an exact first derivative on a positive
interval.

Built-ins carry hand-written derivatives; expression-backed models get theirs
from the symbolic differentiator, so the two paths cross-check each other in
the test suite.  Construction probes f and f' on a Chebyshev-spaced grid
(endpoints included) and fails eagerly on any non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import exprparse
from .errors import DomainError

__all__ = ["FunctionModel", "make_model", "power_model", "exp_model",
           "model_from_expr", "model_from_spec", "missing_spec_key",
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


# builtin name -> (constructor, the parameter it is built from)
_BUILTINS = {"power": (power_model, "s"), "exp": (exp_model, "rate")}


def _builtin(kind) -> tuple[Callable, str] | None:
    # Specs come from JSON, so kind may be any JSON value.
    return _BUILTINS.get(kind) if isinstance(kind, str) else None


def missing_spec_key(spec: Mapping) -> str | None:
    """The key a builtin or expression model spec requires and lacks."""
    if "builtin" in spec:
        builtin = _builtin(spec["builtin"])
        key = builtin[1] if builtin else None
    elif "expr" in spec:
        key = "domain"
    else:
        return None
    return key if key is not None and key not in spec else None


def model_from_spec(spec: Mapping) -> FunctionModel:
    """Instantiate a model from a config-style mapping.

    Either ``{"builtin": "power", "s": 0.5, ["domain": [lo, hi]]}`` /
    ``{"builtin": "exp", "rate": 1.0, ...}`` or
    ``{"expr": "1 - ln(x)", "domain": [lo, hi]}``; an optional ``name``
    overrides the derived one.  A malformed spec raises ValueError.
    """
    missing = missing_spec_key(spec)
    if missing is not None:
        raise ValueError(f"model spec needs {missing!r}")
    name = spec.get("name")
    if "builtin" in spec:
        builtin = _builtin(spec["builtin"])
        if builtin is None:
            raise ValueError(f"unknown builtin {spec['builtin']!r}")
        build, param = builtin
        kwargs = {param: spec[param]}
        if "domain" in spec:
            kwargs["lo"], kwargs["hi"] = spec["domain"]
        m = build(**kwargs)
    elif "expr" in spec:
        lo, hi = spec["domain"]
        m = model_from_expr(spec["expr"], lo, hi, name=name)
    else:
        raise ValueError("model spec needs 'builtin' or 'expr'")
    if name and m.name != name:
        m = replace(m, name=name)
    return m
