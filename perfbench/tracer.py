"""Per-layer spans and counts, recorded from outside hhverify.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``uninstall``. ``from .x import f`` copies ``f`` into the
importing module, so a function is patched at every binding a caller
actually looks up, not only where it is defined.

Each wrapper records a span: its name, layer, start, end and parent span.
A layer's self time is the sum, over its spans, of the span's duration
minus the durations of its direct children (calls are nested and
single-threaded, so the children never overlap). Spans stay in memory;
the spans of the first traced op are kept for ``write_spans``.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("sweep", "convexity", "exprparse", "models", "quadrature",
          "gfuncs", "bounds", "means", "records", "tightness")

_BOUND_RHS = ("rhs_eq8", "rhs_eq9", "rhs_eq10", "rhs_eq11", "rhs_eq111")
_MEANS_USED = ("prop_lhs", "prop41_rhs", "prop32_rhs", "prop33_rhs",
               "dual_route_bb", "residual_cc", "deviation_dd", "deviation_ee")
_GFUNCS = ("g_lower", "g_upper", "g_full")

# (module, attribute, layer) for every binding the sweep, the searches and
# the benchmark's own op call through.
BINDINGS = (
    [("sweep", "run_sweep", "sweep"),
     ("sweep", "summarize", "sweep"),
     ("sweep", "model_from_spec", "models"),
     ("models", "model_from_spec", "models"),
     ("sweep", "theorem_hypotheses", "convexity"),
     ("tightness", "theorem_hypotheses", "convexity"),
     ("sweep", "is_convex", "convexity"),
     ("convexity", "is_s_geometrically_convex", "convexity"),
     ("convexity", "is_monotone_decreasing", "convexity"),
     ("tightness", "optimize_tightness", "tightness"),
     ("bounds", "trapezoid_mean_gap", "bounds"),
     ("bounds", "gap_integral_form", "bounds"),
     ("bounds", "mean_integral", "quadrature"),
     ("bounds", "integrate", "quadrature"),
     ("quadrature", "integrate", "quadrature"),
     ("exprparse", "eval_array", "exprparse"),
     ("exprparse", "parse", "exprparse"),
     ("exprparse", "differentiate", "exprparse"),
     ("sweep", "sort_records", "records"),
     ("records", "records_text", "records")]
    + [("bounds", f, "bounds") for f in _BOUND_RHS]
    + [("bounds", f, "gfuncs") for f in _GFUNCS]
    + [("gfuncs", f, "gfuncs") for f in _GFUNCS]
    + [("means", f, "means") for f in _MEANS_USED]
)

_CHECKS = ("is_s_geometrically_convex", "is_convex", "is_monotone_decreasing")


class Tracer:
    def __init__(self, hh):
        self.hh = hh
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []   # [layer, child_seconds, span id]
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._keep = False
        self.kept: dict[str, array] | None = None
        self._sigs = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.reset()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        hooks = self._after_hooks()
        for mod_name, attr, layer in BINDINGS:
            mod = getattr(self.hh, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, f"{mod_name}.{attr}", layer,
                                          hooks.get(attr)))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str, after):
        clock = time.perf_counter
        stack = self._stack
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        attr = name.split(".", 1)[1]
        before = self._before_integrate if attr == "integrate" else None
        if attr in _CHECKS:
            self._sigs[attr] = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_layer = parent[0] if parent else ""
            if before is not None:
                args = before(args)
            frame = [layer, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                self.self_s[layer] += own
                if layer == "exprparse":
                    self.self_s[f"exprparse<{parent_layer}"] += own
                if self._keep:
                    k = self.kept
                    k["id"].append(frame[2])
                    k["parent"].append(parent[2] if parent else -1)
                    k["name"].append(name_id)
                    k["start"].append(start - self._t0)
                    k["end"].append(end - self._t0)
                if after is not None:
                    after(args, kwargs, result if ok else None, ok, parent_layer)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counting hooks ---------------------------------------------------

    def _before_integrate(self, args):
        g = args[0]
        counts = self.counts

        def counted(x):
            counts["quadrature.samples"] += 1
            return g(x)

        return (counted,) + tuple(args[1:])

    def _after_hooks(self):
        c = self.counts

        def integrate(args, kwargs, res, ok, parent_layer):
            c["quadrature.calls"] += 1
            if not ok:
                c["quadrature.failures"] += 1
                return
            c["quadrature.subdivisions"] += res.subdivisions
            self.maxima["quadrature.max_error_estimate"] = max(
                self.maxima["quadrature.max_error_estimate"], res.error_estimate)

        def check(kind):
            def after(args, kwargs, res, ok, parent_layer):
                c[f"convexity.{kind}_checks"] += 1
                if kind != "monotone":
                    fn_name = ("is_convex" if kind == "convex"
                               else "is_s_geometrically_convex")
                    bound = self._sigs[fn_name].bind(*args, **kwargs)
                    bound.apply_defaults()
                    n = bound.arguments["cfg"].grid_points
                    n += 1 - n % 2          # _axes rounds the grid size up to odd
                    c["convexity.cube_points"] += n ** 3
                    self.maxima["convexity.cube_mb"] = max(
                        self.maxima["convexity.cube_mb"], n ** 3 * 8 / 2 ** 20)
                if ok:
                    c["convexity.witnesses"] += len(res.witnesses)
                    c["convexity.failed_checks"] += not res.ok
            return after

        def eval_array(args, kwargs, res, ok, parent_layer):
            size = getattr(args[1], "size", 1)
            if getattr(args[1], "ndim", 0) == 0:
                c[f"exprparse.scalar_calls<{parent_layer}"] += 1
            else:
                c[f"exprparse.array_points<{parent_layer}"] += size

        def gfunc(args, kwargs, res, ok, parent_layer):
            c["gfuncs.calls"] += 1
            if ok and res.branch == "series":
                c["gfuncs.series"] += 1

        def count(key):
            def after(args, kwargs, res, ok, parent_layer):
                c[key] += 1
            return after

        def run_sweep(args, kwargs, res, ok, parent_layer):
            if ok:
                c["sweep.records"] += len(res)

        def records_text(args, kwargs, res, ok, parent_layer):
            if ok:
                c["records.bytes"] += len(res.encode())

        def optimize(args, kwargs, res, ok, parent_layer):
            if ok:
                c["tightness.evals"] += res.trace_len

        def lhs(args, kwargs, res, ok, parent_layer):
            if parent_layer == "tightness":
                c["tightness.lhs"] += 1

        hooks = {
            "integrate": integrate,
            "is_s_geometrically_convex": check("class"),
            "is_convex": check("convex"),
            "is_monotone_decreasing": check("monotone"),
            "eval_array": eval_array,
            "run_sweep": run_sweep,
            "records_text": records_text,
            "optimize_tightness": optimize,
            "trapezoid_mean_gap": lhs,
        }
        hooks.update({f: gfunc for f in _GFUNCS})
        hooks.update({f: count("bounds.rhs_calls") for f in _BOUND_RHS})
        hooks.update({f: count("means.calls") for f in _MEANS_USED})
        return hooks

    # -- per-op accounting --------------------------------------------------

    def reset(self, keep_spans: bool = False) -> None:
        """Start a fresh op; keep_spans records this op's spans for output."""
        # Cleared in place: the counting hooks hold these dicts.
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()
        self._next_id = 0
        self._t0 = time.perf_counter()
        self._keep = keep_spans
        if keep_spans:
            self.kept = {"id": array("q"), "parent": array("q"),
                         "name": array("i"), "start": array("d"),
                         "end": array("d")}

    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the op traced since the last reset."""
        s, c, mx = self.self_s, self.counts, self.maxima
        checks = (c["convexity.class_checks"] + c["convexity.monotone_checks"]
                  + c["convexity.convex_checks"])
        evals = c["tightness.evals"]
        out = {f"{layer}.self_s": s[layer] for layer in LAYERS}
        for parent in ("convexity", "quadrature"):
            out[f"exprparse.self_s.{parent}"] = s[f"exprparse<{parent}"]
            out[f"exprparse.scalar_calls.{parent}"] = c[f"exprparse.scalar_calls<{parent}"]
            out[f"exprparse.array_points.{parent}"] = c[f"exprparse.array_points<{parent}"]
        for key in ("convexity.class_checks", "convexity.monotone_checks",
                    "convexity.convex_checks", "convexity.cube_points",
                    "convexity.witnesses", "quadrature.calls",
                    "quadrature.subdivisions", "quadrature.samples",
                    "quadrature.failures", "gfuncs.calls", "bounds.rhs_calls",
                    "means.calls", "records.bytes", "tightness.evals"):
            out[key] = c[key]
        out["convexity.cube_mb"] = mx["convexity.cube_mb"]
        out["convexity.fail_share"] = (c["convexity.failed_checks"] / checks
                                       if checks else 0.0)
        out["quadrature.max_error_estimate"] = mx["quadrature.max_error_estimate"]
        out["sweep.checks_per_record"] = (checks / c["sweep.records"]
                                          if c["sweep.records"] else 0.0)
        out["gfuncs.series_share"] = (c["gfuncs.series"] / c["gfuncs.calls"]
                                      if c["gfuncs.calls"] else 0.0)
        out["tightness.lhs_share"] = c["tightness.lhs"] / evals if evals else 0.0
        return out

    def models_inclusive_s(self) -> float:
        """Time inside model construction, children included."""
        return self.self_s["models"] + self.self_s["exprparse<models"]

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV (seconds from the op's start)."""
        k = self.kept
        if k is None:
            return 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(k["id"])):
                fh.write(f"{k['id'][i]},{k['parent'][i]},"
                         f"{self._names[k['name'][i]]},"
                         f"{k['start'][i]:.9f},{k['end'][i]:.9f}\n")
        return len(k["id"])
