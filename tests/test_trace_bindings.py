"""The benchmark's tracer must still see every layer.

perfbench/tracer.py patches named module attributes (``BINDINGS``) and
counts calls through them.  A refactor that drops or renames one of those
names makes ``--trace 1`` fail at install; one that bypasses them leaves
the per-layer counts at zero.  This runs a small sweep and two searches
under the tracer and checks both.
"""

import importlib.util
import os

import hhverify
from hhverify.models import model_from_expr

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve_and_count():
    tracer = _load_tracer()
    t = tracer.Tracer(hhverify)
    t.install()
    try:
        assert len(t._saved) == len(tracer.BINDINGS)
        t.reset()
        # Called through the module attributes, as the benchmark does.
        cfg = hhverify.sweep.parse_config({
            "models": [{"name": "affine", "expr": "x", "domain": [0.5, 2.0]},
                       {"name": "pow05", "builtin": "power", "s": 0.5}],
            "a_grid": [0.25, 1.0], "b_grid": [0.75, 2.0],
            "s_grid": [0.5, 1.0], "q_grid": [1.0, 2.0],
            "class_grid_points": 9,
        })
        assert hhverify.sweep.run_sweep(cfg)
        m = model_from_expr("1/x", 1.0, 2.0)
        for theorem in ("eq8", "eq10"):
            hhverify.tightness.optimize_tightness(
                theorem, m, {"a": (1.0, 1.3), "b": (1.7, 2.0)})
        metrics = t.op_metrics()
    finally:
        t.uninstall()
    for key in ("bounds.rhs_calls", "means.calls", "convexity.class_checks",
                "convexity.convex_checks", "tightness.evals",
                "tightness.lhs_share"):
        assert metrics[key] > 0, key
    for mod_name, attr, _ in tracer.BINDINGS:
        fn = getattr(getattr(hhverify, mod_name), attr)
        assert not hasattr(fn, "__wrapped__"), f"{mod_name}.{attr} left patched"
