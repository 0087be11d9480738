"""hhverify benchmark runner.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
Each workload runs in fresh child processes, one after another, never
concurrently, with numeric libraries held to one thread. ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer split (see
README.md). Every metric is printed by name with its unit; the last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are host-speed normalised. Each child also times calibration loops
that run no hhverify code (calib.py), between every two ops and after
every cold set-up, and each time is reported as ``measured / speed``: the
time on the reference host. A change to hhverify moves these figures as it
moves wall time; a change in the host's speed moves the op and the
calibration together and cancels. Raw wall medians are printed too, on
lines of their own.

Exit code 0 means a result was printed (``correct`` says whether every op's
output passed its checks); anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import calib  # noqa: E402
from workloads import WORKLOADS, uses_seed  # noqa: E402

# Cold set-ups per run, each in its own process; the workload's own child
# adds one more sample. setup_s is their median.
SETUP_PROBES = 6
# The whole run must end within this many seconds.
DEADLINE_S = 170.0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "HHVERIFY_SRC": SRC,
                "PYTHONPATH": os.pathsep.join(
                    [SRC] + [p for p in [env.get("PYTHONPATH")] if p])})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next child process")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "hhverify", "__init__.py")):
        raise FileNotFoundError(f"no hhverify package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    probes = []
    if not trace:
        probes = [_child(["setup", workload, str(seed)], deadline)
                  for _ in range(SETUP_PROBES)]
    run = _child(["run", workload, str(seed), str(seconds), "1" if trace else "0",
                  OUT_DIR], deadline)
    speed = [calib.speed(workload, c) for c in run["cal"]]
    probes.append({"setup_s": run["setup_s"], "cal": run["cal"][0]})
    # Each op against the mean speed of the two calibrations that bracket it.
    run["op_ref_s"] = [dt / ((speed[i] + speed[i + 1]) / 2.0)
                       for i, dt in enumerate(run["op_s"])]
    op_p50 = statistics.median(run["op_ref_s"])
    run["wall"] = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "op_s_p50": statistics.median(run["op_s"]),
    }
    for k in run["cal"][0]:
        run["wall"][f"cal_{k}_s_p50"] = statistics.median(c[k] for c in run["cal"])
    run["e2e"] = {
        "setup_s": statistics.median(p["setup_s"] / calib.speed(workload, p["cal"])
                                     for p in probes),
        "op_s_p50": op_p50,
        "records_per_s": run["records"] / op_p50 if run["records"] else 0.0,
        "evals_per_s": run["evals"] / op_p50 if run["evals"] else 0.0,
        "peak_rss_mb": run["peak_rss_kib"] / 1024.0,
    }
    run["op_s_tail"] = _tail(run["op_ref_s"])
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        run = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (OSError, RuntimeError, TimeoutError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    out = run["output"]
    print(f"workload {args.workload} seed {args.seed}"
          + ("" if uses_seed(args.workload) else " (fixed input; seed ignored)"))
    print(f"input_digest {run['input_digest']}")
    for key, value in out.items():
        print(f"output.{key} {json.dumps(value)}")
    n = len(run["op_s"])
    print(f"op_samples {n} count (untraced)")
    for key, value in run["wall"].items():
        print(f"wall.{key} {value!r} s (measured, not normalised)")
    tail = run["op_s_tail"]
    print("op_s_tail " + (f"{tail[1]:.6f} s (p{tail[0]:.1f} of {n})" if tail
                          else f"n/a s (needs >= 11 ops, have {n})"))
    failed_frac = run["failed"] / run["attempted"]
    print(f"failed_frac {failed_frac} ratio ({run['failed']}/{run['attempted']})")
    for problem in run["problems"]:
        print(f"problem {problem}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run["layers"] if args.trace else run["e2e"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value!r} {m['unit']}")
    if args.trace:
        print(f"spans {run['spans']} written to "
              f"{os.path.relpath(run['spans_file'], ROOT)}")
        print(f"counts_repeat {run['counts_repeat']}")
        for line in purpose_lines(args.workload, run["layers"]):
            print(line)
    print(json.dumps({"correct": run["failed"] == 0 and not run["problems"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


# What the traced split must show for each workload to serve its purpose.
PURPOSE = {
    "verify-default": "convexity",
    "verify-grid65": "convexity",
    "tightness-search": "convexity",
    "verify-steep": "quadrature",
}


def purpose_lines(workload: str, layers: dict) -> list[str]:
    """Self time per layer, each with the expression evaluation it calls,
    and whether the expected layer leads."""
    shares = {}
    for layer in ("sweep", "convexity", "models", "quadrature", "gfuncs",
                  "bounds", "means", "records", "tightness"):
        shares[layer] = layers[f"{layer}.self_s"]
    shares["convexity"] += layers["exprparse.self_s.convexity"]
    shares["quadrature"] += layers["exprparse.self_s.quadrature"]
    total = sum(shares.values()) or 1.0
    lines = [f"share.{k} {v / total:.3f} ratio" for k, v in
             sorted(shares.items(), key=lambda kv: -kv[1])]
    lead = max(shares, key=shares.get)
    lines.append(f"purpose_met {lead == PURPOSE[workload]} "
                 f"(largest self time: {lead})")
    return lines


if __name__ == "__main__":
    sys.exit(main())
