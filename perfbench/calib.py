"""Calibration loops: fixed work that runs no hhverify code, used to take
the host's speed out of the benchmark's times.

On a shared VM the host's speed drifts by tens of percent over seconds to
minutes (other tenants, clock changes). Process CPU time drifts as much as
wall time, so this is slower execution, not lost scheduling. The child
times these loops next to every op and after every cold set-up; run.py
turns them into a speed factor (1.0 on the reference host) and reports
``measured / factor``: the time on the reference host.

Contention slows numpy array code, interpreted scalar code and code that
walks many Python objects by different amounts, so there are three loops,
and each workload weighs them by its own mix. A change to hhverify moves
the reported times as it moves wall time, since the loops never call it.
"""

from __future__ import annotations

import math
import random
import statistics
import time

# Each loop's median time on the reference host, a 2-vCPU x86-64 VM.
REF_S = {"array": 0.040, "scalar": 0.015, "objects": 0.032}

# Weight of each loop in a workload's speed factor. The sweeps at the
# default grid spend their time in numpy work on the class-check cube.
# verify-steep spends it in scalar expression evaluation inside pure-Python
# quadrature, and tightness-search in many small checks with Python
# control flow around them: a mix of all three kinds of work. On a 2-vCPU
# VM, equal weights tracked these two better than any single loop did.
_MIX = {"array": 1 / 3, "scalar": 1 / 3, "objects": 1 / 3}
WEIGHTS = {
    "verify-default": {"array": 1.0},
    "verify-grid65": {"array": 1.0},
    "verify-steep": _MIX,
    "tightness-search": _MIX,
}

_ARRAY_LOOP = 300_000
_ARRAY_SIZE = 200_000
_ARRAY_PASSES = 8
_SCALAR_POINTS = 20_000
# sqrt(x) - ln(x) as an expression tree, walked once per point.
_TREE = ("-", ("pow", ("x",), ("c", 0.5)), ("log", ("x",)))
# About 15 MB of small dicts, visited in a fixed shuffled order: more than
# a core's L2, so the walk leans on the shared L3 as the workloads do.
_OBJECTS = 1 << 16
_objects = None


def _array() -> float:
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ARRAY_LOOP):
        acc += (i * i) % 7
    x = np.linspace(0.5, 1.5, _ARRAY_SIZE)
    for _ in range(_ARRAY_PASSES):
        x = np.sqrt(x * x + 1.0) - np.log(x)
    return time.perf_counter() - t0


def _eval(node, x: float) -> float:
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    if op == "log":
        return math.log(_eval(node[1], x))
    if op == "pow":
        return _eval(node[1], x) ** _eval(node[2], x)
    return _eval(node[1], x) - _eval(node[2], x)


def _scalar() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, _SCALAR_POINTS + 1):
        acc += _eval(_TREE, i * 1e-4)
    return time.perf_counter() - t0


def _walk() -> float:
    global _objects
    if _objects is None:
        rng = random.Random(0)
        items = [{"v": rng.random(), "k": i} for i in range(_OBJECTS)]
        rng.shuffle(items)
        _objects = items
    t0 = time.perf_counter()
    acc = 0.0
    for item in _objects:
        acc += math.sqrt(item["v"]) * 1.0001
    return time.perf_counter() - t0


_LOOPS = {"array": _array, "scalar": _scalar, "objects": _walk}


def measure(workload: str) -> dict:
    """One timing, in seconds, of each loop the workload's speed uses. The
    first object loop also builds its data (about 15 MB), so read the
    workload's own peak RSS before it."""
    return {k: _LOOPS[k]() for k in WEIGHTS[workload]}


def settled(workload: str, repeats: int = 3) -> dict:
    """After one untimed pass, the median of ``repeats`` timings."""
    measure(workload)
    runs = [measure(workload) for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def speed(workload: str, cal: dict) -> float:
    """Time of the workload's loop mix on the reference host over its time
    here: above 1 when this host is slower than the reference."""
    return sum(w * cal[k] / REF_S[k] for k, w in WEIGHTS[workload].items())
