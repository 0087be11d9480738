"""The class-check kernel against the full-cube reference it replaced, the
half cube and its mirror, the fine grids of the linear and the log cube,
the slack rule, the per-interval sample, and the cube points."""

import dataclasses
import hashlib
import importlib.util
import itertools
import math
import os
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_expr
from hhverify import convexity, exprparse, sweep
from hhverify.cli import main
from hhverify.convexity import (AbsPower, ClassCheckConfig, CheckResult,
                                Witness, is_convex, is_geometrically_convex,
                                is_monotone_decreasing, is_s_convex,
                                is_s_geometrically_convex, theorem_hypotheses)
from hhverify.errors import (DomainError, NegativeValueError,
                             NonPositiveValueError)
from hhverify.models import (exp_model, make_model, model_from_expr,
                             model_from_spec, power_model)
from hhverify.records import records_text
from hhverify.sweep import default_config, parse_config, run_sweep
from hhverify.tightness import optimize_tightness

# ---------------------------------------------------------------------------
# Reference: every check evaluates g on the whole n^3 cube, compares every
# point by the slack rule of its kind, and lists violations with argwhere.
# It builds its own full cubes, with the clip the module uses per point:
# the linear one by the fine grid's index arithmetic, the geometric one as
# exp(t*v_i + (1-t)*v_j) at each point of the log x grid's v = ln x, with
# no fine grid.  So this pins the half cube, its mirror, evaluation,
# sampling and the kernel.
# ---------------------------------------------------------------------------


def fine_grid(xs):
    """The linear cube's distinct points: t*x_i + (1-t)*x_j at t = k/(n-1)
    is lo + (hi-lo)*m/(n-1)^2 in exact arithmetic, m = j(n-1) + k(i-j)."""
    n = len(xs)
    fine = np.linspace(xs[0], xs[-1], (n - 1) ** 2 + 1)
    fine[::n - 1] = xs
    return np.clip(fine, xs[0], xs[-1], out=fine)


def full_linear_cube(xs, ts):
    n = len(xs)
    i, j, k = np.indices((n, n, n))
    return fine_grid(xs)[j * (n - 1) + k * (i - j)]


def log_x_grid(a, b, n):
    """v = linspace(ln a, ln b, n) and the geometric checks' x grid exp(v),
    with a and b exact."""
    vs = np.linspace(np.log(a), np.log(b), n)
    xs = np.exp(vs)
    xs[[0, -1]] = a, b
    return vs, np.clip(xs, a, b, out=xs)


def product_log_cube(vs, ts, lo, hi):
    """exp(t*v_i + (1-t)*v_j) at every (i, j, k), clipped to [lo, hi]."""
    t = ts[None, None, :]
    pts = np.exp(t * vs[:, None, None] + (1.0 - t) * vs[None, :, None])
    return np.clip(pts, lo, hi, out=pts)


def full_geometric_cube(xs, ts):
    """The product cube x_i^t * x_j^(1-t) over the linear x grid: the
    geometric checks' grid before the log cube replaced it."""
    return product_log_cube(np.log(xs), ts, xs[0], xs[-1])


def log_fine_grid(xs):
    """The log cube's distinct points, built as the module documents it."""
    n = len(xs)
    vs = np.linspace(np.log(xs[0]), np.log(xs[-1]), n)
    fine = np.linspace(vs[0], vs[-1], (n - 1) ** 2 + 1)
    fine[::n - 1] = vs
    fine = np.exp(fine)
    fine[[0, -1]] = xs[0], xs[-1]
    return np.clip(fine, xs[0], xs[-1], out=fine)


def full_log_cube(xs, ts):
    n = len(xs)
    i, j, k = np.indices((n, n, n))
    return log_fine_grid(xs)[j * (n - 1) + k * (i - j)]


def _ref_values(g, pts):
    flat = np.ravel(pts)
    try:
        vals = np.broadcast_to(np.asarray(g(flat), dtype=float), flat.shape).copy()
    except DomainError:
        raise
    except Exception:
        vals = np.empty_like(flat)
        for i, x in enumerate(flat):
            vals[i] = float(g(float(x)))
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(float(flat[i]), "function not finite at grid point")
    return vals.reshape(np.shape(pts))


def _ref_violations(lhs, rhs, slack, ln_rhs=None):
    """Geometric kinds (ln_rhs given) compare logs; linear kinds take the
    slack as absolute up to rhs = 1 and relative above.  Also the number
    of points where that differs from a plain lhs > rhs + slack."""
    plain = lhs > rhs + slack
    if ln_rhs is None:
        viol = plain & (lhs > rhs * (1.0 + slack))
    else:
        viol = np.log(lhs) > ln_rhs + slack
    return viol, int(np.count_nonzero(viol != plain))


def _ref_collect(viol, xs, ts, lhs, rhs, cfg):
    idx = np.argwhere(viol)
    count = int(idx.shape[0])
    wit = tuple(
        Witness(float(xs[i]), float(xs[j]), float(ts[k]),
                float(lhs[i, j, k]), float(rhs[i, j, k]))
        for i, j, k in idx[:convexity.MAX_WITNESSES]
    )
    return CheckResult(count == 0, wit, count)


def axes(interval, cfg):
    grid = convexity._axes(interval, cfg)
    return grid.xs, grid.ts


def reference_check(kind, g, interval, s, cfg):
    """(CheckResult, points where the slack rule differs from a plain
    lhs > rhs + slack on values).  A geometric check first requires g
    finite and > 0 on the linear x grid, then samples the product cube
    over the log x grid."""
    xs, ts = axes(interval, cfg)
    gx = _ref_values(g, xs)
    t = ts[None, None, :]
    if kind == "monotone":
        viol = gx[1:] > gx[:-1] + cfg.slack
        idx = np.flatnonzero(viol)
        wit = tuple(Witness(float(xs[i]), float(xs[i + 1]), math.nan,
                            float(gx[i + 1]), float(gx[i]))
                    for i in idx[:convexity.MAX_WITNESSES])
        return CheckResult(len(idx) == 0, wit, int(len(idx))), 0
    if kind in ("convex", "s_convex"):
        if kind == "s_convex":
            neg = gx < -cfg.slack
            if neg.any():
                i = int(np.argmax(neg))
                raise NegativeValueError(float(xs[i]), float(gx[i]))
        pts = full_linear_cube(xs, ts)
        lhs = _ref_values(g, pts)
        ln_rhs = None
        if kind == "convex":
            rhs = t * gx[:, None, None] + (1.0 - t) * gx[None, :, None]
        else:
            rhs = t ** s * gx[:, None, None] + (1.0 - t) ** s * gx[None, :, None]
    else:
        bad = gx <= 0.0
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveValueError(float(xs[i]), float(gx[i]))
        vs, xs = log_x_grid(xs[0], xs[-1], len(xs))
        pts = product_log_cube(vs, ts, xs[0], xs[-1])
        lhs = _ref_values(g, pts)
        bad = lhs <= 0.0
        if bad.any():
            i, j, k = np.argwhere(bad)[0]
            raise NonPositiveValueError(float(pts[i, j, k]), float(lhs[i, j, k]))
        lg = np.log(_ref_values(g, xs))
        ln_rhs = t ** s * lg[:, None, None] + (1.0 - t) ** s * lg[None, :, None]
        with np.errstate(over="ignore"):
            rhs = np.exp(ln_rhs)
    viol, logged = _ref_violations(lhs, rhs, cfg.slack, ln_rhs)
    return _ref_collect(viol, xs, ts, lhs, rhs, cfg), logged


def public_check(kind, g, interval, s, cfg):
    if kind == "monotone":
        return is_monotone_decreasing(g, interval, cfg)
    if kind == "convex":
        return is_convex(g, interval, cfg)
    if kind == "s_convex":
        return is_s_convex(g, interval, s, cfg)
    if s == 1.0:
        return is_geometrically_convex(g, interval, cfg)
    return is_s_geometrically_convex(g, interval, s, cfg)


def _outcome(fn):
    try:
        with np.errstate(over="ignore"):
            return fn()
    except (ValueError, ArithmeticError) as e:
        return (type(e).__name__, str(e))


# The log cube's points are within 16 ulps of the reference's products, so
# g there, a witness's lhs, agrees to 16 ulps times g's elasticity
# |x g'/g|, up to 300 here (x^299): 300 * 16 * 2^-52 is about 1e-12.  A
# point an error names agrees to 16 ulps.
LHS_RTOL = 1e-12


def assert_agrees(got, ref, kind, context=None):
    """got == ref, up to ``LHS_RTOL`` in the geometric lhs values and the
    points their errors name; x, y, t, rhs and the count are exact."""
    if kind != "geometric" or got == ref:
        assert got == ref, context
        return
    if not isinstance(ref, CheckResult):
        assert isinstance(got, tuple) and got[0] == ref[0], (got, ref, context)
        assert got[0] in ("DomainError", "NonPositiveValueError"), context
        x_got, x_ref = (float(msg.split("x=")[1].split(":")[0]) for msg in (got[1], ref[1]))
        assert math.isclose(x_got, x_ref, rel_tol=LHS_RTOL), (got, ref, context)
        return
    assert isinstance(got, CheckResult), (got, context)
    assert (got.ok, got.violation_count) == (ref.ok, ref.violation_count), context
    assert len(got.witnesses) == len(ref.witnesses), context
    for w, r in zip(got.witnesses, ref.witnesses):
        assert (w.x, w.y, w.t, w.rhs) == (r.x, r.y, r.t, r.rhs), (w, r, context)
        assert math.isclose(w.lhs, r.lhs, rel_tol=LHS_RTOL), (w, r, context)


def _const(v):
    return lambda x: np.full(np.shape(x), v) if np.shape(x) else v


def _functions():
    """(label, g, interval): models through AbsPower, plain callables, and
    seeded random expressions with their derivatives."""
    steep = make_model("x^300/300", 1.0, 10.0, f=lambda x: np.power(x, 300.0) / 300.0,
                       fprime=lambda x: np.power(x, 299.0))
    cases = []
    for m, (a, b) in ((exp_model(1.0), (1.0, 2.0)), (exp_model(3.0), (1.0, 2.0)),
                      (model_from_expr("1/x", 1.0, 2.0), (1.0, 2.0)),
                      (model_from_expr("1 - ln(x)", 1.0, 2.0), (1.0, 2.0)),
                      (model_from_expr("x^(-3)", 0.2, 2.0), (0.2, 2.0)),
                      (power_model(0.5), (0.01, 1.0)), (steep, (1.0, 10.0))):
        for q in (1.0, 2.0, 4.0):
            cases.append((f"|{m.name}'|^{q}", AbsPower(m.fprime, q), (a, b)))
    cases += [("sqrt", np.sqrt, (0.5, 2.0)), ("exp", np.exp, (0.1, 2.0)),
              ("exp(8x)", lambda x: np.exp(8.0 * np.asarray(x)), (1.0, 2.0)),
              ("square", lambda x: x * x, (0.5, 2.0)),
              ("const 0.5", _const(0.5), (0.2, 0.8))]
    rng = np.random.default_rng(20240611)
    for n in range(10):
        tree = random_expr(rng, 3)
        dtree = exprparse.differentiate(tree)
        cases.append((f"expr{n}", lambda x, e=tree: exprparse.eval_array(e, x), (0.5, 2.0)))
        cases.append((f"|expr{n}'|^2",
                      AbsPower(lambda x, e=dtree: exprparse.eval_array(e, x), 2.0),
                      (0.5, 2.0)))
    return cases


_CHECKS = [("convex", 1.0), ("s_convex", 0.3), ("s_convex", 1.0),
           ("geometric", 0.5), ("geometric", 1.0), ("monotone", 1.0)]


def test_kernel_matches_full_cube_reference(monkeypatch):
    # (config, witnesses kept)
    cases = [(ClassCheckConfig(grid_points=9), convexity.MAX_WITNESSES),
             # witnesses gathered across several slabs
             (ClassCheckConfig(grid_points=33), 5000),
             # a t axis that moves off linspace to mirror exactly
             (ClassCheckConfig(grid_points=21), convexity.MAX_WITNESSES)]
    many = logged_cases = errors = 0
    for label, g, interval in _functions():
        for (cfg, witnesses), (kind, s) in itertools.product(cases, _CHECKS):
            monkeypatch.setattr(convexity, "MAX_WITNESSES", witnesses)
            ref = _outcome(lambda: reference_check(kind, g, interval, s, cfg))
            got = _outcome(lambda: public_check(kind, g, interval, s, cfg))
            if isinstance(ref, tuple) and isinstance(ref[0], CheckResult):
                ref, logged = ref
                logged_cases += logged
                many += ref.violation_count > witnesses
            else:
                errors += 1
            assert_agrees(got, ref, kind, (label, kind, s, cfg, witnesses))
            if isinstance(got, CheckResult):
                assert type(got.violation_count) is int
    # the set reaches truncated witness lists, points the slack rule decides
    # differently from a plain absolute slack, and errors
    assert many > 0 and logged_cases > 0 and errors > 0


def test_kernel_matches_reference_across_many_slabs(monkeypatch):
    cfg = ClassCheckConfig(grid_points=65)
    for g, interval in ((AbsPower(exp_model(1.0).fprime, 2.0), (1.0, 2.0)),
                        (_const(0.5), (0.2, 0.8))):
        for witnesses, (kind, s) in itertools.product(
                (300, 0), (("convex", 1.0), ("geometric", 0.5))):
            monkeypatch.setattr(convexity, "MAX_WITNESSES", witnesses)
            ref, _ = reference_check(kind, g, interval, s, cfg)
            assert_agrees(public_check(kind, g, interval, s, cfg), ref, kind)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), derivative=st.booleans(),
       ends=st.tuples(st.floats(0.05, 2.0, exclude_min=True),
                      st.floats(0.05, 2.0, exclude_min=True)).filter(lambda e: e[0] != e[1]),
       s=st.floats(0.0, 1.0, exclude_min=True), n=st.integers(3, 15))
def test_geometric_kernel_matches_the_product_reference(seed, derivative, ends, s, n):
    # A random expression, or |its derivative|, on a random interval: the
    # kernel's verdict, count and first witnesses are the reference's, or
    # both raise the same error at the same point.
    tree = random_expr(np.random.default_rng(seed), 3)
    if derivative:
        g = AbsPower(lambda x, e=exprparse.differentiate(tree): exprparse.eval_array(e, x))
    else:
        g = lambda x: exprparse.eval_array(tree, x)
    interval, cfg = tuple(sorted(ends)), ClassCheckConfig(grid_points=n)
    ref = _outcome(lambda: reference_check("geometric", g, interval, s, cfg))
    got = _outcome(lambda: public_check("geometric", g, interval, s, cfg))
    if isinstance(ref[0], CheckResult):
        ref = ref[0]
    assert_agrees(got, ref, "geometric", (tree, derivative, interval, s, n))


# ---------------------------------------------------------------------------
# The half cube: (x, y, t) and (y, x, 1 - t) are the same point, exactly
# ---------------------------------------------------------------------------

def test_t_axis_mirrors_exactly():
    for n in range(3, 202, 2):
        ts = convexity._axes((1.0, 2.0), ClassCheckConfig(grid_points=n)).ts
        assert (ts[::-1] == 1.0 - ts).all() and ts[n // 2] == 0.5, n
    for n in (9, 33, 65):          # the shipped grids keep linspace
        ts = convexity._axes((1.0, 2.0), ClassCheckConfig(grid_points=n)).ts
        assert (ts == np.linspace(0.0, 1.0, n)).all()


@pytest.mark.parametrize("n", [9, 33, 65])
def test_each_cube_samples_the_half(n):
    # The log and the linear cube each sample their (n-1)^2 + 1 distinct
    # points, and |f'(a)| is the x grid's first point.  Another check of
    # an equal AbsPower on the interval evaluates nothing; one at another
    # q is another function, sampled afresh.
    sizes = []

    def fprime(x):
        sizes.append(np.size(x))
        return np.exp(x)
    cfg = ClassCheckConfig(grid_points=n)
    m = make_model("exp", 1.0, 2.0, f=np.exp, fprime=fprime)
    sizes.clear()                                   # the model's own probe
    theorem_hypotheses(m, 1.0, 2.0, 0.5, cfg)       # x grid, log cube
    is_convex(AbsPower(fprime), (1.0, 2.0), cfg)    # linear cube
    assert sizes == [n, (n - 1) ** 2 + 1, (n - 1) ** 2 + 1]
    grid = convexity._axes((1.0, 2.0), cfg)
    logs = grid.checked[convexity._log_cube][1]
    theorem_hypotheses(m, 1.0, 2.0, 0.3, cfg)
    is_s_geometrically_convex(AbsPower(fprime), (1.0, 2.0), 1.0, cfg)
    is_s_convex(AbsPower(fprime), (1.0, 2.0), 0.5, cfg)
    assert len(sizes) == 3
    assert grid.checked[convexity._log_cube][1] is logs
    is_convex(AbsPower(fprime, 2.0), (1.0, 2.0), cfg)
    assert sizes[3:] == [n, (n - 1) ** 2 + 1]


@pytest.mark.parametrize("n", [9, 21, 33, 65])
def test_half_cubes_are_the_full_cubes_at_i_le_j(n):
    # Each cube's fine grid, read through lin, is the full cube's rows
    # i <= j, built by the reference, which finds each point by its own
    # index arithmetic.
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n)
    lin = convexity._by_size(n)[3]
    assert lin.dtype == np.int32 and lin.shape == (n * (n + 1) // 2, n)
    for _ in range(5):
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        b = a * (1.0 + float(10.0 ** rng.uniform(-2.0, 1.0)))
        xs, ts = axes((a, b), ClassCheckConfig(grid_points=n))
        for half, full in ((lambda xs, ts: convexity._linear_cube(xs, ts)[lin],
                            full_linear_cube),
                           (lambda xs, ts: convexity._log_cube(xs, ts)[lin],
                            full_log_cube)):
            cube = full(xs, ts)
            assert (cube == cube.transpose(1, 0, 2)[:, :, ::-1]).all()
            assert (half(xs, ts) == cube[iu, ju]).all()


def test_linear_cube_error_names_the_full_cubes_first_bad_point():
    # Off the x grid, g is NaN at fine[5] and fine[7].  The full cube's C
    # order meets fine[7] first, at (x_0, x_1, t_1), and fine[5] at
    # (x_0, x_1, t_3): the error names fine[7], not the fine grid's first.
    cfg = ClassCheckConfig(grid_points=9)
    fine = fine_grid(np.linspace(1.0, 2.0, 9))
    bad = fine[[5, 7]]

    def g(x):
        x = np.asarray(x)
        return np.where(np.isin(x, bad), np.nan, x * x)
    for fn in (g, AbsPower(g)):
        for kind, s in (("convex", 1.0), ("s_convex", 0.5)):
            ref = _outcome(lambda: reference_check(kind, fn, (1.0, 2.0), s, cfg))
            got = _outcome(lambda: public_check(kind, fn, (1.0, 2.0), s, cfg))
            assert got == ref == ("DomainError", str(DomainError(
                float(fine[7]), "function not finite at grid point")))


def test_geometric_cube_zero_names_the_full_cubes_first_bad_point():
    # g is 0 at two log cube points off both x grids: fine[5] and fine[7].
    # The full cube's C order meets fine[7] first, at (x_0, x_1, t_1), and
    # fine[5] at (x_0, x_1, t_3): the error names fine[7], not the fine
    # grid's first, with g > 0 on the x grids.  The reference's products
    # miss these exact points.
    cfg = ClassCheckConfig(grid_points=9)
    xs, ts = axes((1.0, 2.0), cfg)
    fine = log_fine_grid(xs)
    first, second = full_log_cube(xs, ts)[0, 1, [1, 3]]
    assert (first, second) == (fine[7], fine[5])
    assert not np.isin([first, second], np.concatenate([xs, fine[::8]])).any()

    def g(x):
        x = np.asarray(x)
        return np.where((x == first) | (x == second), 0.0, x)
    for fn in (g, AbsPower(g)):
        for s in (1.0, 0.5):
            got = _outcome(lambda: public_check("geometric", fn, (1.0, 2.0), s, cfg))
            assert got == ("NonPositiveValueError",
                           str(NonPositiveValueError(float(first), 0.0)))


POW2_SIZES = (3, 5, 9, 17, 33, 65, 129)


def _random_intervals(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        yield a, a * (1.0 + float(10.0 ** rng.uniform(-2.0, 1.0)))


def test_x_grid_is_every_step_of_the_fine_grid():
    # xs is linspace(a, b, n) at every n.  Where n - 1 is a power of two
    # the fine grid's linspace already holds it at every (n-1)-th point,
    # bitwise, so the fine grid takes nothing from xs.
    for a, b in _random_intervals(21, 20):
        for n in range(3, 130, 2):
            xs = axes((a, b), ClassCheckConfig(grid_points=n))[0]
            assert xs.tobytes() == np.linspace(a, b, n).tobytes(), (a, b, n)
            fine = convexity._linear_cube(xs, None)
            assert fine.shape == ((n - 1) ** 2 + 1,)
            assert fine[::n - 1].tobytes() == xs.tobytes()
            assert fine.min() >= a and fine.max() <= b
            if n in POW2_SIZES:
                raw = np.linspace(a, b, (n - 1) ** 2 + 1)
                assert raw[::n - 1].tobytes() == xs.tobytes(), (a, b, n)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


def _linear_products(xs, ts):
    iu, ju = np.triu_indices(len(xs))
    t = ts[None, :]
    return np.clip(t * xs[iu, None] + (1.0 - t) * xs[ju, None], xs[0], xs[-1])


def test_linear_points_are_the_products_within_4_ulps():
    # Each point of the fine grid is lo + (hi-lo)*m/(n-1)^2 rounded, the
    # product form t*x_i + (1-t)*x_j its value up to a few roundings.
    worst = 0.0
    for a, b in _random_intervals(5, 20):
        for n in POW2_SIZES:
            grid = convexity._axes((a, b), ClassCheckConfig(grid_points=n))
            got = convexity._linear_cube(grid.xs, grid.ts)[grid.lin]
            worst = max(worst, float(_ulps(got, _linear_products(grid.xs, grid.ts)).max()))
    assert 0.0 < worst <= 4.0


def test_log_points_are_the_products_within_24_ulps():
    # The log cube's fine grid, read through lin, is exp(t*v_i + (1-t)*v_j)
    # over v = linspace(ln a, ln b, n) up to the two ways' roundings of v,
    # a few ulps of |v| < 8 here, which exp turns into as many ulps of x.
    # a and b are exact, and the geometric checks' x grid, where their
    # witnesses lie, is every (n-1)-th point of the fine grid, bit for bit.
    worst = 0.0
    for a, b in _random_intervals(5, 20):
        for n in (9, 21, 33, 65):
            cfg = ClassCheckConfig(grid_points=n)
            grid = convexity._axes((a, b), cfg)
            fine = convexity._log_cube(grid.xs, grid.ts)
            vs, xs = log_x_grid(a, b, n)
            assert fine[0] == a and fine[-1] == b
            assert fine[::n - 1].tobytes() == xs.tobytes(), (a, b, n)
            want = product_log_cube(vs, grid.ts, a, b)[grid.iu, grid.ju]
            worst = max(worst, float(_ulps(fine[grid.lin], want).max()))
            res = is_geometrically_convex(lambda x: np.exp(-x), (a, b), cfg)
            assert {w.x for w in res.witnesses} <= set(xs.tolist())
    assert 0.0 < worst <= 24.0


def test_linear_points_are_the_products_on_the_default_intervals():
    cfg = default_config()
    pairs = [(a, b) for a in cfg.a_grid for b in cfg.b_grid if a < b]
    assert len(pairs) == 13
    for (a, b), n in itertools.product(pairs, (9, 33, 65)):
        grid = convexity._axes((a, b), ClassCheckConfig(grid_points=n))
        got = convexity._linear_cube(grid.xs, grid.ts)[grid.lin]
        assert got.tobytes() == _linear_products(grid.xs, grid.ts).tobytes(), (a, b, n)


@pytest.mark.parametrize("n", [3, 9, 33, 65])
@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.25, 0.75), (0.1, 0.7),
                                    (1e-3, 1.0), (1.3, 2.9)])
def test_half_cubes_are_the_broadcast_products_bitwise(n, lo, hi):
    # The linear cube's fine grid, read through lin, has the broadcast
    # formula's bits on the dyadic intervals, and is within a few ulps of
    # it on the others.  The log cube's, exp of a fine grid of ln x, is
    # within a few ulps of the broadcast formula over the log x grid on
    # every interval.
    grid = convexity._axes((lo, hi), ClassCheckConfig(grid_points=n))
    xs, ts = grid.xs, grid.ts
    iu, ju = np.triu_indices(n)
    t = ts[None, :]
    vs, _ = log_x_grid(lo, hi, n)
    linear = np.clip(t * xs[iu, None] + (1.0 - t) * xs[ju, None], lo, hi)
    geometric = np.clip(np.exp(t * vs[iu, None] + (1.0 - t) * vs[ju, None]),
                        lo, hi)
    got = convexity._log_cube(xs, ts)[grid.lin]
    assert got.shape == geometric.shape == (n * (n + 1) // 2, n)
    assert _ulps(got, geometric).max() <= 24.0
    got = convexity._linear_cube(xs, ts)[grid.lin]
    assert got.shape == linear.shape
    if (lo, hi) in ((1.0, 2.0), (0.25, 0.75)):
        assert got.tobytes() == linear.tobytes()
    else:
        assert _ulps(got, linear).max() <= 4.0


# ---------------------------------------------------------------------------
# The slack rule: relative above 1 for linear checks, on logs for geometric
# ---------------------------------------------------------------------------

def _sqrt_bump(level):
    # concave: at t = 1/2 on [1, 2] the midpoint exceeds the chord by about
    # 1.8e-7, above the absolute slack 1e-9 but below it relative to 1e6
    return lambda x: level + 1e-5 * np.sqrt(x)


def test_log_scale_decides_when_both_sides_exceed_cutoff():
    cfg = ClassCheckConfig(grid_points=9)
    g = _sqrt_bump(1e6)
    xs, ts = axes((1.0, 2.0), cfg)
    t = ts[None, None, :]
    lhs = g(full_linear_cube(xs, ts))
    rhs = t * g(xs)[:, None, None] + (1.0 - t) * g(xs)[None, :, None]
    assert (lhs > rhs + cfg.slack).any()          # the plain test would fail it
    res = is_convex(g, (1.0, 2.0), cfg)
    assert res.ok and res.violation_count == 0 and res.witnesses == ()


def test_plain_comparison_below_cutoff():
    res = is_convex(_sqrt_bump(1e2), (1.0, 2.0), ClassCheckConfig(grid_points=9))
    assert not res.ok
    assert all(w.lhs > w.rhs + 1e-9 for w in res.witnesses)


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_geometric_flag_does_not_depend_on_scale(c):
    # ln(c*g) = ln c + ln g: the constant cancels from the log comparison
    def scaled(fn):
        return lambda x: c * fn(np.asarray(x))
    assert not is_geometrically_convex(scaled(lambda x: np.exp(-x)), (0.1, 2.0))
    assert is_geometrically_convex(scaled(np.exp), (0.1, 2.0))
    assert is_geometrically_convex(scaled(lambda x: x ** -1.7), (0.5, 2.0))
    assert is_geometrically_convex(scaled(lambda x: x * x), (0.5, 2.0))
    # ln g's defect is 2e-8*(AM - GM), up to 1.2e-8: above the slack, but
    # below slack*|ln c| where c > 1e5, so a relative slack would pass it
    assert not is_geometrically_convex(scaled(lambda x: np.exp(-2e-8 * x)), (0.1, 2.0))


# ---------------------------------------------------------------------------
# The per-interval sample of |f'|
# ---------------------------------------------------------------------------

CFG = ClassCheckConfig()


def fresh(m, a, b, s, q=1.0, cfg=CFG):
    """The class check of |f'|^q, the monotone check of |f'| and |f'(a)|
    through new plain callables, which read no earlier sample."""
    cls = is_s_geometrically_convex(lambda x: np.abs(m.fprime(x)) ** q, (a, b), s, cfg)
    mono = is_monotone_decreasing(lambda x: np.abs(m.fprime(x)), (a, b), cfg)
    return (cls.ok, cls.witnesses, mono.ok, mono.witnesses,
            float(np.abs(m.fprime(a))))


def report(m, a, b, s, q=1.0, cfg=CFG):
    """The same through the bundle, which checks |f'|, then at q != 1 the
    class check of AbsPower(f', q) on the same interval."""
    rep = theorem_hypotheses(m, a, b, s, cfg)
    cls = (rep.class_check if q == 1.0 else
           is_s_geometrically_convex(AbsPower(m.fprime, q), (a, b), s, cfg))
    return (cls.ok, cls.witnesses, rep.monotone_check.ok,
            rep.monotone_check.witnesses, rep.fprime_a_abs)


def test_models_sharing_an_interval():
    ms = [model_from_expr("1/x", 1.0, 2.0), exp_model(1.0),
          model_from_expr("1 - ln(x)", 1.0, 2.0)]
    for m in ms + ms[::-1]:
        assert report(m, 1.0, 2.0, 1.0, 2.0) == fresh(m, 1.0, 2.0, 1.0, 2.0)
        assert is_convex(AbsPower(m.fprime, 2.0), (1.0, 2.0), CFG) == \
            is_convex(lambda x: np.abs(m.fprime(x)) ** 2.0, (1.0, 2.0), CFG)


def test_same_interval_at_two_grid_sizes():
    m = exp_model(1.0)
    cfgs = [ClassCheckConfig(grid_points=9), ClassCheckConfig(grid_points=33)]
    for cfg in cfgs + cfgs[::-1] + [ClassCheckConfig(grid_points=8)]:
        assert report(m, 1.0, 2.0, 0.5, 1.5, cfg) == fresh(m, 1.0, 2.0, 0.5, 1.5, cfg)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_s_q_visit_order(order):
    m = model_from_expr("x^0.5 - ln(x)", 0.2, 1.0)
    pts = list(itertools.product((0.3, 0.5, 1.0), (1.0, 2.0, 4.0)))
    np.random.default_rng(order).shuffle(pts)
    for s, q in pts:
        assert report(m, 0.2, 1.0, s, q) == fresh(m, 0.2, 1.0, s, q)


def test_overflow_at_large_q_raises_for_that_q_only():
    # |f'| = x^299 reaches 1e299 on [1, 10]: finite, but its square is not
    m = make_model("x^300/300", 1.0, 10.0, f=lambda x: np.power(x, 300.0) / 300.0,
                   fprime=lambda x: np.power(x, 299.0))
    for qs in ((1.0, 2.0, 1.0), (2.0, 1.0, 2.0)):
        for q in qs:
            if q == 1.0:
                assert theorem_hypotheses(m, 1.0, 10.0, 1.0, CFG).class_ok
                assert is_convex(AbsPower(m.fprime, q), (1.0, 10.0), CFG).ok
            else:
                with np.errstate(over="ignore"), pytest.raises(DomainError):
                    is_s_geometrically_convex(AbsPower(m.fprime, q), (1.0, 10.0),
                                              1.0, CFG)
                with np.errstate(over="ignore"), pytest.raises(DomainError):
                    is_convex(AbsPower(m.fprime, q), (1.0, 10.0), CFG)


def test_sample_is_read_only():
    m = model_from_expr("1/x", 1.0, 2.0)
    theorem_hypotheses(m, 1.0, 2.0, 1.0, CFG)
    is_convex(AbsPower(m.fprime), (1.0, 2.0), CFG)
    grid = convexity._axes((1.0, 2.0), CFG)
    cubes = {None, convexity._linear_cube, convexity._log_cube}
    assert grid.g == AbsPower(m.fprime) and set(grid.checked) == set(grid.points) == cubes
    assert [ln is None for _, ln in grid.checked.values()].count(False) == 1
    checked = [arr for pair in grid.checked.values() for arr in pair if arr is not None]
    for arr in (*grid.points.values(), *checked,
                grid.ts, grid.iu, grid.ju, grid.lin):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_only_the_latest_interval_is_kept():
    m = exp_model(1.0)
    theorem_hypotheses(m, 1.0, 2.0, 1.0, CFG)
    is_convex(AbsPower(m.fprime), (1.0, 2.0), CFG)
    grid = convexity._axes((1.0, 2.0), CFG)
    first = [weakref.ref(arr) for arr in grid.points.values()]
    checked = [weakref.ref(arr) for pair in grid.checked.values() for arr in pair
               if arr is not None]
    del grid
    assert len(first) == 3 and len(checked) == 4
    assert all(ref() is not None for ref in first + checked)
    theorem_hypotheses(m, 1.0, 1.5, 1.0, CFG)
    is_convex(AbsPower(m.fprime), (1.0, 1.5), CFG)
    assert all(ref() is None for ref in first + checked)


def test_only_the_latest_fprime_is_kept():
    ms = [exp_model(1.0), model_from_expr("1/x", 1.0, 2.0)]
    theorem_hypotheses(ms[0], 1.0, 2.0, 1.0, CFG)
    grid = convexity._axes((1.0, 2.0), CFG)
    first = [weakref.ref(arr) for pair in grid.checked.values() for arr in pair
             if arr is not None]
    cube = weakref.ref(grid.points[convexity._log_cube])
    assert len(first) == 3 and all(ref() is not None for ref in first)
    theorem_hypotheses(ms[1], 1.0, 2.0, 1.0, CFG)
    assert grid.g == AbsPower(ms[1].fprime) and len(grid.checked) == 2
    assert all(ref() is None for ref in first) and cube() is not None
    assert report(ms[0], 1.0, 2.0, 1.0, 2.0) == fresh(ms[0], 1.0, 2.0, 1.0, 2.0)


def test_checks_on_one_interval_share_read_only_axes():
    seen = []

    def g(x):
        seen.append(x)
        return np.exp(x)
    grid = convexity._axes((1.0, 2.0), CFG)
    is_convex(g, (1.0, 2.0), CFG)                   # the x grid, then the cube
    is_monotone_decreasing(g, (1.0, 2.0), CFG)      # reads the x-grid sample
    assert len(seen) == 2 and grid.g is g
    assert np.shares_memory(seen[0], grid.xs)
    assert convexity._axes((1.0, 2.0), CFG) is grid
    assert not grid.xs.flags.writeable and not grid.ts.flags.writeable


def test_intervals_of_one_size_share_the_t_axis():
    # The t axis and the pair rows depend on n alone: a new interval at the
    # same n reuses them, a new n rebuilds them.
    first = convexity._axes((1.0, 2.0), CFG)
    second = convexity._axes((0.5, 3.0), CFG)
    assert second is not first
    assert second.ts is first.ts and second.iu is first.iu and second.ju is first.ju
    other = convexity._axes((0.5, 3.0), ClassCheckConfig(grid_points=9))
    assert other.ts is not first.ts and len(other.ts) == 9


def test_abs_power_is_the_map_it_names():
    m = model_from_expr("1 - ln(x)", 1.0, 2.0)
    xs = np.linspace(1.0, 2.0, 7)
    np.testing.assert_array_equal(AbsPower(m.fprime, 3.0)(xs), np.abs(m.fprime(xs)) ** 3.0)


# ---------------------------------------------------------------------------
# Every sampled point lies in [a, b]
# ---------------------------------------------------------------------------

class _Recorder:
    def __init__(self, fn):
        self.fn = fn
        self.lo = math.inf
        self.hi = -math.inf

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        self.lo = min(self.lo, float(arr.min()))
        self.hi = max(self.hi, float(arr.max()))
        return self.fn(x)


def test_sampled_points_stay_in_interval():
    rng = np.random.default_rng(5)
    escapes = 0
    for _ in range(25):
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        b = a * (1.0 + float(10.0 ** rng.uniform(-2.0, 1.0)))
        for n in (9, 33, 65):
            cfg = ClassCheckConfig(grid_points=n)
            xs, ts = axes((a, b), cfg)
            t = ts[None, None, :]
            lin = t * xs[:, None, None] + (1.0 - t) * xs[None, :, None]
            lnx = np.log(xs)
            geo = np.exp(t * lnx[:, None, None] + (1.0 - t) * lnx[None, :, None])
            escapes += (lin.min() < a) + (lin.max() > b) + (geo.min() < a) + (geo.max() > b)
            for wrap in (lambda r: r, lambda r: AbsPower(r)):
                rec = _Recorder(np.exp)
                is_convex(wrap(rec), (a, b), cfg)
                is_s_geometrically_convex(wrap(rec), (a, b), 1.0, cfg)
                assert a <= rec.lo and rec.hi <= b, (a, b, n)
    assert escapes > 0       # unclipped, the cubes do leave the interval


def test_q_overflow_raises_without_a_warning():
    # The power overflows to inf; the finiteness check names the point.
    g = AbsPower(lambda x: np.power(x, 299.0), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            is_convex(g, (1.0, 10.0), CFG)


_STEEP = [{"builtin": "power", "s": 0.1, "domain": [1e-4, 1.0]},
          {"expr": "x^0.2", "domain": [1e-4, 1.0]},
          {"expr": "1 - ln(x)", "domain": [1e-4, 1.0]},
          {"expr": "x^0.5 - ln(x)", "domain": [1e-4, 1.0]}]


def _bundle_intervals():
    """(model, a, b, s grid) of every bundle check of the default and the
    steep config."""
    cfg = default_config()
    cases = ([(spec, cfg.a_grid, cfg.b_grid, cfg.s_grid) for spec in cfg.models]
             + [(spec, (1e-4, 1e-3, 0.02), (0.3, 1.0), (0.5, 1.0)) for spec in _STEEP])
    for spec, a_grid, b_grid, s_grid in cases:
        m = model_from_spec(spec)
        for a, b in itertools.product(a_grid, b_grid):
            if a < b and m.contains(a, b):
                yield m, a, b, s_grid


def test_class_flag_does_not_depend_on_q():
    # ln(|f'|^q) = q ln|f'|, so the class condition holds for every q > 0
    # or for none: the premise of the bundle checking |f'| for every q.
    flags = []
    for m, a, b, s_grid in _bundle_intervals():
        for s, n in itertools.product(s_grid, (9, 33)):
            check_cfg = ClassCheckConfig(grid_points=n)
            by_q = {is_s_geometrically_convex(AbsPower(m.fprime, q), (a, b), s,
                                              check_cfg).ok
                    for q in (1.0, 1.5, 2.0, 4.0)}
            assert len(by_q) == 1, (m.name, a, b, s, n)
            assert by_q == {theorem_hypotheses(m, a, b, s, check_cfg).class_ok}
            flags.extend(by_q)
    assert len(flags) == 268 and True in flags and False in flags


def old_grid_verdicts(g, interval, s_grid, cfg):
    """{s: the geometric verdict, or the error's name} on the product cube
    over the linear x grid, the grid before the log cube, at its rows
    i <= j, with g sampled once for every s."""
    xs, ts = axes(interval, cfg)
    iu, ju = np.triu_indices(len(xs))
    try:
        gx = _ref_values(g, xs)
        lhs = _ref_values(g, full_geometric_cube(xs, ts)[iu, ju])
    except DomainError:
        return dict.fromkeys(s_grid, "DomainError")
    if min(gx.min(), lhs.min()) <= 0.0:
        return dict.fromkeys(s_grid, "NonPositiveValueError")
    ln, lg, t = np.log(lhs), np.log(gx), ts[None, :]
    return {s: not (ln > t ** s * lg[iu, None] + (1.0 - t) ** s * lg[ju, None]
                    + cfg.slack).any() for s in s_grid}


def _verdict(check):
    try:
        return check().ok
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__


def test_log_grid_keeps_the_verdicts_of_the_old_grid():
    # Every bundle class flag of the default and the steep config, and
    # every geometric verdict on seeded random |f'|, is the same on the
    # log cube as on the product cube over the linear x grid it replaced.
    # The one disagreement known is not a fault but a different sample:
    # |f'| of exp(-x)+1/x on [0.05, 1] at s = 1 and n = 9, where the old
    # grid finds a violation and the log grid, at other points, none.
    flags = []
    for n in (9, 33, 65):
        cfg = ClassCheckConfig(grid_points=n)
        for m, a, b, s_grid in _bundle_intervals():
            old = old_grid_verdicts(AbsPower(m.fprime), (a, b), s_grid, cfg)
            for s in s_grid:
                new = _verdict(lambda: theorem_hypotheses(m, a, b, s, cfg).class_check)
                assert new == old[s], (m.name, a, b, s, n)
                flags.append(new)
    assert len(flags) == 402 and True in flags and False in flags
    rng = np.random.default_rng(20240611)
    gs = [AbsPower(lambda x, e=exprparse.differentiate(random_expr(rng, 3)):
                   exprparse.eval_array(e, x)) for _ in range(12)]
    verdicts = []
    for n, g, interval in itertools.product((33, 65), gs, ((0.05, 1.0), (0.5, 2.0),
                                                           (0.1, 0.3), (1.0, 2.0))):
        cfg = ClassCheckConfig(grid_points=n)
        old = old_grid_verdicts(g, interval, (0.5, 1.0), cfg)
        for s in (0.5, 1.0):
            new = _verdict(lambda: is_s_geometrically_convex(g, interval, s, cfg))
            assert new == old[s], (n, interval, s)
            verdicts.append(new)
    assert set(verdicts) == {True, False, "DomainError", "NonPositiveValueError"}
    known = model_from_expr("exp(-x)+1/x", 0.05, 1.0)
    for n in (9, 33, 65):
        cfg = ClassCheckConfig(grid_points=n)
        assert old_grid_verdicts(AbsPower(known.fprime), (0.05, 1.0), (1.0,), cfg) == {1.0: False}
        assert theorem_hypotheses(known, 0.05, 1.0, 1.0, cfg).class_ok == (n == 9)


def _steep_config():
    names = ("power-s01", "root5", "log-shift", "root-log")
    return parse_config({"models": [{"name": n, **spec} for n, spec in zip(names, _STEEP)],
                         "a_grid": [1e-4, 1e-3, 0.02], "b_grid": [0.3, 1.0],
                         "s_grid": [0.5, 1], "q_grid": [1, 2], "class_grid_points": 9})


def test_steep_report_pinned():
    # Near-singular |f'| on [1e-4, 1]: |f'|^q spans many decades, so both
    # slack rules meet values far above 1.
    # power-s01 is x^0.1/0.1 and no s of the grid is 0.1: no propositions.
    records = run_sweep(_steep_config())
    assert len(records) == 240
    assert hashlib.sha256(records_text(records, "csv").encode()).hexdigest() == \
        "ae23ea19ec753456f227d2418800d960df19a2883de25bbc79a521947e433d27"


# sha256 over the repr of (ok, violation_count, witnesses) of every class
# and monotone check a default sweep makes, in order, by class_grid_points.
# The default report is the same at all three sizes, so only these see a
# change of the kernel's own outputs.
DEFAULT_CHECK_DIGESTS = {
    9: "54aae0683f9ccea9c925267932fa0708f17b1a3bb4203c92fc9c5fe1c9e3ae7a",
    33: "9ff49fe623e49df20116695329b6dc27e38c312244e7c3b65602068861bf32f9",
    65: "de7a17b122a2c2bfbf3b20921109f00f830ee9e8142b01d53383159cff2bb5c2",
}


@pytest.mark.parametrize("n", sorted(DEFAULT_CHECK_DIGESTS))
def test_default_check_results_pinned(monkeypatch, n):
    seen = []
    for name in ("_check", "is_monotone_decreasing"):
        def spy(*args, check=getattr(convexity, name), **kwargs):
            seen.append(check(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(convexity, name, spy)
    run_sweep(dataclasses.replace(default_config(), class_grid_points=n))
    digest = hashlib.sha256()
    for res in seen:
        digest.update(repr((res.ok, res.violation_count, res.witnesses)).encode())
    assert len(seen) == 215
    assert digest.hexdigest() == DEFAULT_CHECK_DIGESTS[n]


# ---------------------------------------------------------------------------
# The deferred tally: a failed class check reads its count and witnesses
# only when they are read, from the arrays it saw
# ---------------------------------------------------------------------------

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "workloads.py")

# `hhverify check-class --kind geo-convex --f "exp(-(x))" --domain 1,2`
CHECK_CLASS_OUT = """\
geo-convex on [1.0, 2.0] for 'exp(-(x))': VIOLATED
  violations: 32736
  witness x=1 y=1.0219 t=0.03125 lhs=0.360160448 rhs=0.360157853
  witness x=1 y=1.0219 t=0.0625 lhs=0.360409412 rhs=0.360404388
  witness x=1 y=1.0219 t=0.09375 lhs=0.360658381 rhs=0.360651092
  witness x=1 y=1.0219 t=0.125 lhs=0.360907352 rhs=0.360897965
  witness x=1 y=1.0219 t=0.15625 lhs=0.361156327 rhs=0.361145007
"""


def _search_batch(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_input("tightness-search", seed)


def test_hot_paths_never_tally(monkeypatch, capsys):
    tallies, verdicts = [], []
    tally, compare = convexity._tally, convexity._compare

    def spy_tally(*args):
        tallies.append(args)
        return tally(*args)

    def spy_compare(*args):
        res = compare(*args)
        verdicts.append(res.ok)
        return res
    monkeypatch.setattr(convexity, "_tally", spy_tally)
    monkeypatch.setattr(convexity, "_compare", spy_compare)
    run_sweep(default_config())
    assert verdicts.count(False) == 32 and not tallies
    del verdicts[:]
    for search in _search_batch(1):
        optimize_tightness(search["theorem"], model_from_spec(search["model"]),
                           search["box"], search["require_hypotheses"])
    assert False in verdicts and not tallies
    assert main(["check-class", "--kind", "geo-convex", "--f", "exp(-(x))",
                 "--domain", "1,2"]) == 2
    assert capsys.readouterr().out == CHECK_CLASS_OUT and len(tallies) == 1


def test_hot_paths_sample_only_abs_fprime(monkeypatch):
    # The sweep and the search check only |f'| at q = 1: the bundle is
    # gated at q = 1, and eq9's |f'|^q fallback runs only where eq8's gate
    # fails, which it never does here.  So the one sample slot per
    # interval serves every check of a (model, a, b).
    sampled, gates = [], []
    sample, convex = convexity._sampled, sweep.is_convex

    def spy_sampled(g, *args):
        sampled.append(g)
        return sample(g, *args)

    def spy_convex(g, *args):
        res = convex(g, *args)
        gates.append((g, res.ok))
        return res
    monkeypatch.setattr(convexity, "_sampled", spy_sampled)
    monkeypatch.setattr(sweep, "is_convex", spy_convex)
    run_sweep(default_config())
    run_sweep(_steep_config())
    for search in _search_batch(1):
        optimize_tightness(search["theorem"], model_from_spec(search["model"]),
                           search["box"], search["require_hypotheses"])
    assert {(type(g), g.q) for g in sampled} == {(AbsPower, 1.0)}
    assert {(g.q, ok) for g, ok in gates} == {(1.0, True)}
    assert len(sampled) == 826 and len(gates) == 77


@pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
def test_abs_power_needs_a_finite_positive_q(q):
    # |f'|^0 is 1 and |f'|^-1 is 1/|f'|: neither is the hypothesis.
    with pytest.raises(ValueError, match="q must be finite and > 0"):
        AbsPower(np.exp, q)
    assert AbsPower(np.exp, 0.5).q == 0.5


def test_deferred_tally_reads_only_its_own_inputs(monkeypatch):
    cfg = ClassCheckConfig(grid_points=65)
    g = AbsPower(exp_model(1.0).fprime)
    res = is_s_geometrically_convex(g, (1.0, 2.0), 0.5, cfg)
    interval = weakref.ref(convexity._axes((1.0, 2.0), cfg))
    assert not res.ok and interval() is not None
    # Another f' on another interval replaces every cached sample, and a
    # smaller witness limit is what a tally would read now.
    other = is_s_geometrically_convex(AbsPower(power_model(0.5).fprime),
                                      (0.25, 0.75), 0.5, cfg)
    monkeypatch.setattr(convexity, "MAX_WITNESSES", 1)
    assert interval() is None
    count, witnesses = res.violation_count, res.witnesses
    monkeypatch.setattr(convexity, "MAX_WITNESSES", 64)
    ref, _ = reference_check("geometric", g, (1.0, 2.0), 0.5, cfg)
    assert (count, witnesses) == (ref.violation_count, ref.witnesses)
    assert len(witnesses) == 64 < count and res == ref
    assert other.ok


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def test_held_geometric_result_keeps_little():
    # Until its tally runs, a failed geometric result at n = 65 keeps the
    # log cube's fine grid, g and ln g on it (4,097 points each) and the
    # two n x n rhs tables: 166 KB of its own, beside the axes every check
    # of its size shares.  The geometric half cube it replaced kept 2.3 MB.
    cfg = ClassCheckConfig(grid_points=65)
    res = is_s_geometrically_convex(AbsPower(exp_model(1.0).fprime), (1.0, 2.0), 0.5, cfg)
    is_convex(np.exp, (3.0, 4.0), cfg)                  # releases the interval
    assert not res.ok and res._tally is not None

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield _root(obj)
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)
    shared = {id(_root(arr)) for arr in convexity._by_size(65)}
    own = {id(arr): arr.nbytes for arr in arrays(res._tally.args) if id(arr) not in shared}
    assert sum(own.values()) < 0.2e6 and len(own) == 5


# A tallied result, eager: e^(-x) on the log x grid (1, 2^0.5, 2).
_EXP_GEO_N3 = (
    "CheckResult(ok=False, witnesses=("
    "Witness(x=1.0, y=1.414213562373095, t=0.5, lhs=0.30446257219499123, rhs=0.2990612786755997), "
    "Witness(x=1.0, y=2.0, t=0.5, lhs=0.24311673443421425, rhs=0.22313016014842982), "
    "Witness(x=1.414213562373095, y=1.0, t=0.5, lhs=0.30446257219499123, rhs=0.2990612786755997), "
    "Witness(x=1.414213562373095, y=2.0, t=0.5, lhs=0.18604013843591524, rhs=0.18138983464961517), "
    "Witness(x=2.0, y=1.0, t=0.5, lhs=0.24311673443421425, rhs=0.22313016014842982), "
    "Witness(x=2.0, y=1.414213562373095, t=0.5, lhs=0.18604013843591524, rhs=0.18138983464961517)"
    "), violation_count=6)")


def test_eager_and_deferred_results_behave_alike():
    cfg = ClassCheckConfig(grid_points=3)

    def check():
        return is_geometrically_convex(lambda x: np.exp(-x), (1.0, 2.0), cfg)
    eager = eval(_EXP_GEO_N3, {"CheckResult": CheckResult, "Witness": Witness})
    assert not eager and eager.violation_count == 6 and eager._tally is None
    assert not check() and repr(check()) == _EXP_GEO_N3
    assert check() == eager and eager == check() and check() != CheckResult(False, (), 6)
    assert hash(check()) == hash(eager)
    assert check().witnesses == eager.witnesses and check().violation_count == 6
    passed = is_geometrically_convex(np.exp, (1.0, 2.0), cfg)
    assert passed and passed == CheckResult(True, (), 0) == CheckResult(True, ())
    assert repr(passed) == "CheckResult(ok=True, witnesses=(), violation_count=0)"
    assert hash(passed) == hash(CheckResult(True, (), 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        check().violation_count = 0
    # The bundle keeps its two results, and their witnesses.
    R2 = 1.414213562373095
    rep = theorem_hypotheses(exp_model(1.0), 1.0, 2.0, 0.5, cfg)
    assert not rep.class_ok and rep.monotone_decreasing_ok
    assert rep.class_check.violation_count == 9 and rep.monotone_check.ok
    assert rep.monotone_check.witnesses == ()
    assert rep.class_check.witnesses == tuple(
        Witness(x, y, 0.5, lhs, rhs) for x, y, lhs, rhs in (
            (1.0, 1.0, 0.36787944117144233, 0.2431167344342142),
            (1.0, R2, 0.30446257219499123, 0.18138983464961517),
            (1.0, 2.0, 0.24311673443421425, 0.119873250103762),
            (R2, 1.0, 0.30446257219499123, 0.18138983464961517),
            (R2, R2, 0.24311673443421425, 0.1353352832366127),
            (R2, 2.0, 0.18604013843591524, 0.08943764840308469),
            (2.0, 1.0, 0.24311673443421425, 0.119873250103762),
            (2.0, R2, 0.18604013843591524, 0.08943764840308469),
            (2.0, 2.0, 0.1353352832366127, 0.059105746561956225)))
