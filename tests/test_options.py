"""The settable surface: every parameter and config field a caller can set.

The rule these pins keep: a new option needs two callers in ``src/``, the
CLI or ``perfbench/`` that set it to different values, and an edit to this
test.  A value that only tests set is a module constant, read at call time
so that a test can monkeypatch it.
"""

import dataclasses
import inspect

import pytest

from hhverify import convexity, models, quadrature, sweep, tightness

PARAMETERS = {
    quadrature.integrate: ("g", "lo", "hi", "tol"),
    tightness.optimize_tightness: ("theorem", "model", "box", "require_hypotheses"),
    models.make_model: ("name", "lo", "hi", "f", "fprime"),
    models.model_from_expr: ("src", "lo", "hi", "name"),
    convexity.theorem_hypotheses: ("m", "a", "b", "s", "q", "cfg"),
    convexity.is_convex: ("g", "interval", "cfg"),
    convexity.is_s_convex: ("g", "interval", "s", "cfg"),
    convexity.is_geometrically_convex: ("g", "interval", "cfg"),
    convexity.is_s_geometrically_convex: ("g", "interval", "s", "cfg"),
    convexity.is_monotone_decreasing: ("g", "interval", "cfg"),
}

FIELDS = {
    convexity.ClassCheckConfig: ("grid_points", "slack"),
    sweep.Tolerances: ("quad_tol", "slack", "identity_tol"),
    sweep.SweepConfig: ("models", "a_grid", "b_grid", "s_grid", "q_grid",
                        "tolerances", "class_grid_points"),
    models.FunctionModel: ("name", "lo", "hi", "f", "fprime"),
}

# Values nothing outside the tests sets.
CONSTANTS = [(tightness, "COARSE_POINTS", 5), (tightness, "MAX_ITERS", 60),
             (quadrature, "MAX_SUBDIVISIONS", 10_000),
             (convexity, "MAX_WITNESSES", 64)]


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_parameters(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[name for _, name, _ in CONSTANTS])
def test_constants(module, name, value):
    assert getattr(module, name) == value and name in module.__all__
