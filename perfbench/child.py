"""One fresh process of the benchmark; run.py starts it, never a user.

    child.py setup <workload> <seed>
        Time the cold set-up alone, then the calibration loops, and print
        {"setup_s": ..., "cal": {...}}.
    child.py run <workload> <seed> <seconds> <trace> <out_dir>
        Set up (timed), one untimed warm-up op, then a closed loop of ops
        for <seconds>, each op followed by the calibration loops. With
        trace 1 the first half of the loop is untraced and the second half
        traced. Prints one JSON object as its last line.

The calibration loops (calib.py) run no hhverify code; run.py uses them
to take the host's speed out of the reported times.

The hhverify package is imported from the checkout's ``src`` directory,
which run.py puts on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

import calib
import workloads


def _import_hhverify():
    import hhverify
    # The op and the tracer reach every module as an attribute of the package.
    from hhverify import (bounds, convexity, exprparse, gfuncs, means,  # noqa: F401
                          models, quadrature, records, sweep, tightness)
    src = os.path.realpath(os.environ["HHVERIFY_SRC"])
    if not os.path.realpath(hhverify.__file__).startswith(src + os.sep):
        raise ImportError(f"hhverify imported from {hhverify.__file__}, "
                          f"not from {src}")
    return hhverify


def _setup(workload: str, seed: int, out_dir: str, trace: bool = False):
    """Cold set-up: import, parse or generate the config, build every
    model. Returns (workload object, seconds, tracer or None)."""
    raw = workloads.make_input(workload, seed)
    t0 = time.perf_counter()
    hh = _import_hhverify()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(hh)
        tracer.install()
    wl = workloads.build(hh, workload, raw, out_dir)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return wl, setup_s, tracer


def _is_time(metric: str) -> bool:
    return ".self_s" in metric


def _timed(wl):
    start = time.perf_counter()
    try:
        out = wl.op()
    except Exception as e:  # an op that raises is a failed op
        return time.perf_counter() - start, None, f"raised {type(e).__name__}: {e}"
    return time.perf_counter() - start, out, None


def main_setup(workload: str, seed: int) -> None:
    _, setup_s, _ = _setup(workload, seed, out_dir=".")
    print(json.dumps({"setup_s": setup_s, "cal": calib.settled(workload)}))


def main_run(workload: str, seed: int, seconds: float, trace: bool,
             out_dir: str) -> None:
    wl, setup_s, tracer = _setup(workload, seed, out_dir, trace)
    models_build_s = tracer.models_inclusive_s() if tracer else None

    # Warm-up: untimed; its output is the reference every op must match.
    _, ref_out, err = _timed(wl)
    if err is not None:
        raise RuntimeError(f"warm-up op {err}")
    reference = wl.report(ref_out)
    problems = {f"warm-up: {p}" for p in wl.check(ref_out, None)}
    # The ops' own peak, before the calibration data is built.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib.measure(workload)  # warm
    # cal[i] and cal[i + 1] bracket untraced op i.
    cal = [calib.measure(workload)]

    op_s, traced_s, layer_ops = [], [], []
    attempted = failed = 0
    records = evals = None
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= seconds and (traced_s if trace else op_s):
            break
        # With trace on, the first half of the loop gives the untraced
        # baseline for trace.overhead_s.
        tracing = trace and bool(op_s) and elapsed >= seconds / 2.0
        if tracing:
            if not traced_s:
                tracer.install()
            tracer.reset(keep_spans=not traced_s)
        dt, out, err = _timed(wl)
        attempted += 1
        if tracing:
            layer_ops.append(tracer.op_metrics())
            traced_s.append(dt)
        else:
            op_s.append(dt)
            cal.append(calib.measure(workload))
        found = [err] if err is not None else wl.check(out, reference)
        if found:
            failed += 1
            problems.update(found)
        elif records is None:
            records, evals = wl.records(out), wl.evals(out)
    if tracer is not None:
        tracer.uninstall()

    result = {
        "input_digest": wl.input_digest,
        "setup_s": setup_s,
        "op_s": op_s,
        "cal": cal,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(problems),
        "records": records,
        "evals": evals,
        "output": wl.info(ref_out),
        "peak_rss_kib": peak_rss_kib,
    }
    if trace:
        layers = {}
        for key in layer_ops[0]:
            vals = [m[key] for m in layer_ops]
            # Times vary op to op: take the median. Counts repeat exactly.
            layers[key] = statistics.median(vals) if _is_time(key) else vals[0]
        layers["models.build_s"] = models_build_s
        layers["max_oracle_residual"] = wl.max_residual(ref_out)
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(op_s))
        result["counts_repeat"] = all(
            m[k] == layer_ops[0][k] for m in layer_ops for k in m
            if not _is_time(k))
        result["layers"] = layers
        spans_path = os.path.join(out_dir, f"spans-{workload}.csv")
        result["spans_file"] = spans_path
        result["spans"] = tracer.write_spans(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        if sys.argv[1] == "setup":
            main_setup(sys.argv[2], int(sys.argv[3]))
        else:
            main_run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]),
                     sys.argv[5] == "1", sys.argv[6])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
