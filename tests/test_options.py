"""The settable surface: every parameter and config field a caller can set.

The rule these pins keep: a new option needs two callers in ``src/``, the
CLI or ``perfbench/`` that set it to different values, and an edit to this
test.  A model spec key (``models.SPEC_KINDS``) and a ``tolerances`` key
(the fields of ``sweep.Tolerances``) are options too.  A value that only tests set is a module constant, read at call time
so that a test can monkeypatch it.
"""

import dataclasses
import inspect

import pytest

from hhverify import bounds, convexity, models, quadrature, sweep, tightness

PARAMETERS = {
    # Each bound is one formula over fa = |f'(a)| and fb = |f'(b)| at its
    # own s, q or p, and alpha takes one exponent.
    bounds.alpha_ratio: ("fprime_a_abs", "fprime_b_abs", "u"),
    bounds.rhs_eq8: ("a", "b", "fa", "fb"),
    bounds.rhs_eq9: ("a", "b", "fa", "fb", "p"),
    bounds.rhs_eq10: ("a", "b", "fa", "fb", "s"),
    bounds.rhs_eq11: ("a", "b", "fa", "fb", "s", "q"),
    bounds.rhs_eq111: ("a", "b", "fa", "fb", "s", "q"),
    quadrature.integrate: ("g", "lo", "hi", "tol"),
    tightness.optimize_tightness: ("theorem", "model", "box", "require_hypotheses"),
    models.make_model: ("name", "lo", "hi", "f", "fprime"),
    models.model_from_expr: ("src", "lo", "hi", "name"),
    convexity.theorem_hypotheses: ("m", "a", "b", "s", "cfg"),
    convexity.is_convex: ("g", "interval", "cfg"),
    convexity.is_s_convex: ("g", "interval", "s", "cfg"),
    convexity.is_geometrically_convex: ("g", "interval", "cfg"),
    convexity.is_s_geometrically_convex: ("g", "interval", "s", "cfg"),
    convexity.is_monotone_decreasing: ("g", "interval", "cfg"),
}

FIELDS = {
    convexity.ClassCheckConfig: ("grid_points", "slack"),
    convexity.HypothesisReport: ("class_check", "monotone_check", "fprime_a_abs",
                                 "fprime_a_le_1"),
    sweep.Tolerances: ("quad_tol", "slack", "identity_tol"),
    sweep.SweepConfig: ("models", "a_grid", "b_grid", "s_grid", "q_grid",
                        "tolerances", "class_grid_points"),
    models.FunctionModel: ("name", "lo", "hi", "f", "fprime"),
}

# The keys each kind of model spec needs besides "builtin"; any spec may
# add "domain" and "name".
SPEC_KEYS = {"power": ("s",), "exp": ("rate",), "expr": ("expr", "domain")}

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


def test_spec_keys():
    assert {kind: keys for kind, (_, keys) in models.SPEC_KINDS.items()} == SPEC_KEYS


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[name for _, name, _ in CONSTANTS])
def test_constants(module, name, value):
    assert getattr(module, name) == value and name in module.__all__
