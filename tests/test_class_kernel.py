"""The class-check kernel against the full-cube reference it replaced, the
half cube and its mirror, the slack rule, the per-interval |f'| sample,
and the cube points."""

import hashlib
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from conftest import random_expr
from hhverify import convexity, exprparse
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

# ---------------------------------------------------------------------------
# Reference: every check evaluates g on the whole n^3 cube, compares every
# point by the slack rule of its kind, and lists violations with argwhere.
# It builds its own full cubes, with the expressions and the clip the module
# uses per point, so this pins the half cube, its mirror, evaluation,
# sampling and the kernel.
# ---------------------------------------------------------------------------


def full_linear_cube(xs, ts):
    t = ts[None, None, :]
    pts = t * xs[:, None, None] + (1.0 - t) * xs[None, :, None]
    return np.clip(pts, xs[0], xs[-1], out=pts)


def full_geometric_cube(xs, ts):
    t = ts[None, None, :]
    lnx = np.log(xs)
    pts = np.exp(t * lnx[:, None, None] + (1.0 - t) * lnx[None, :, None])
    return np.clip(pts, xs[0], xs[-1], out=pts)


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
        for i, j, k in idx[:cfg.max_witnesses]
    )
    return CheckResult(count == 0, wit, count)


def reference_check(kind, g, interval, s, cfg):
    """(CheckResult, points where the slack rule differs from a plain
    lhs > rhs + slack on values)."""
    xs, ts = convexity._axes(interval, cfg)
    gx = _ref_values(g, xs)
    t = ts[None, None, :]
    if kind == "monotone":
        viol = gx[1:] > gx[:-1] + cfg.slack
        idx = np.flatnonzero(viol)
        wit = tuple(Witness(float(xs[i]), float(xs[i + 1]), math.nan,
                            float(gx[i + 1]), float(gx[i]))
                    for i in idx[:cfg.max_witnesses])
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
        pts = full_geometric_cube(xs, ts)
        lhs = _ref_values(g, pts)
        bad = lhs <= 0.0
        if bad.any():
            i, j, k = np.argwhere(bad)[0]
            raise NonPositiveValueError(float(pts[i, j, k]), float(lhs[i, j, k]))
        lg = np.log(gx)
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


def test_kernel_matches_full_cube_reference():
    cfgs = [ClassCheckConfig(grid_points=9),
            # witnesses gathered across several slabs
            ClassCheckConfig(grid_points=33, max_witnesses=5000),
            # a t axis that moves off linspace to mirror exactly
            ClassCheckConfig(grid_points=21)]
    many = logged_cases = errors = 0
    for label, g, interval in _functions():
        for cfg, (kind, s) in itertools.product(cfgs, _CHECKS):
            ref = _outcome(lambda: reference_check(kind, g, interval, s, cfg))
            got = _outcome(lambda: public_check(kind, g, interval, s, cfg))
            if isinstance(ref, tuple) and isinstance(ref[0], CheckResult):
                ref, logged = ref
                logged_cases += logged
                many += ref.violation_count > cfg.max_witnesses
            else:
                errors += 1
            assert got == ref, (label, kind, s, cfg)
            if isinstance(got, CheckResult):
                assert type(got.violation_count) is int
    # the set reaches truncated witness lists, points the slack rule decides
    # differently from a plain absolute slack, and errors
    assert many > 0 and logged_cases > 0 and errors > 0


def test_kernel_matches_reference_across_many_slabs():
    cfgs = (ClassCheckConfig(grid_points=65, max_witnesses=300),
            ClassCheckConfig(grid_points=65, max_witnesses=0))
    for g, interval in ((AbsPower(exp_model(1.0).fprime, 2.0), (1.0, 2.0)),
                        (_const(0.5), (0.2, 0.8))):
        for cfg, (kind, s) in itertools.product(cfgs, (("convex", 1.0), ("geometric", 0.5))):
            ref, _ = reference_check(kind, g, interval, s, cfg)
            assert public_check(kind, g, interval, s, cfg) == ref


# ---------------------------------------------------------------------------
# The half cube: (x, y, t) and (y, x, 1 - t) are the same point, exactly
# ---------------------------------------------------------------------------

def test_t_axis_mirrors_exactly():
    for n in range(3, 202, 2):
        ts = convexity._axes((1.0, 2.0), ClassCheckConfig(grid_points=n))[1]
        assert (ts[::-1] == 1.0 - ts).all() and ts[n // 2] == 0.5, n
    for n in (9, 33, 65):          # the shipped grids keep linspace
        ts = convexity._axes((1.0, 2.0), ClassCheckConfig(grid_points=n))[1]
        assert (ts == np.linspace(0.0, 1.0, n)).all()


@pytest.mark.parametrize("n", [9, 33, 65])
def test_each_cube_samples_the_half(n):
    sizes = []

    def fprime(x):
        sizes.append(np.size(x))
        return np.exp(x)
    cfg = ClassCheckConfig(grid_points=n)
    m = make_model("exp", 1.0, 2.0, f=np.exp, fprime=fprime)
    sizes.clear()                                   # the model's own probe
    theorem_hypotheses(m, 1.0, 2.0, 0.5, 2.0, cfg)  # x grid, geometric cube, f'(a)
    is_convex(AbsPower(fprime, 2.0), (1.0, 2.0), cfg)   # linear cube
    half = n * n * (n + 1) // 2
    assert sizes == [n, half, 1, half]


@pytest.mark.parametrize("n", [9, 21, 33, 65])
def test_half_cubes_are_the_full_cubes_at_i_le_j(n):
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n)
    for _ in range(5):
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        b = a * (1.0 + float(10.0 ** rng.uniform(-2.0, 1.0)))
        xs, ts = convexity._axes((a, b), ClassCheckConfig(grid_points=n))
        for half, full in ((convexity._linear_cube, full_linear_cube),
                           (convexity._geometric_cube, full_geometric_cube)):
            cube = full(xs, ts)
            assert (cube == cube.transpose(1, 0, 2)[:, :, ::-1]).all()
            assert (half(xs, ts) == cube[iu, ju]).all()


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
    xs, ts = convexity._axes((1.0, 2.0), cfg)
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


# ---------------------------------------------------------------------------
# The per-interval sample of |f'|
# ---------------------------------------------------------------------------

CFG = ClassCheckConfig()


def fresh(m, a, b, s, q, cfg=CFG):
    """The hypothesis checks through plain callables, which bypass the sample."""
    cls = is_s_geometrically_convex(lambda x: np.abs(m.fprime(x)) ** q, (a, b), s, cfg)
    mono = is_monotone_decreasing(lambda x: np.abs(m.fprime(x)), (a, b), cfg)
    return (cls.ok, cls.witnesses, mono.ok, mono.witnesses,
            float(np.abs(m.fprime(a))))


def report(m, a, b, s, q, cfg=CFG):
    rep = theorem_hypotheses(m, a, b, s, q, cfg)
    return (rep.class_ok, rep.witnesses["class"], rep.monotone_decreasing_ok,
            rep.witnesses["monotone"], rep.params["fprime_a_abs"])


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
                assert theorem_hypotheses(m, 1.0, 10.0, 1.0, q, CFG).class_ok
                assert is_convex(AbsPower(m.fprime, q), (1.0, 10.0), CFG).ok
            else:
                with np.errstate(over="ignore"), pytest.raises(DomainError):
                    theorem_hypotheses(m, 1.0, 10.0, 1.0, q, CFG)
                with np.errstate(over="ignore"), pytest.raises(DomainError):
                    is_convex(AbsPower(m.fprime, q), (1.0, 10.0), CFG)


def _cached(fprime, a, b, cfg=CFG):
    xs, _ = convexity._axes((a, b), cfg)
    return convexity._abs_samples(fprime, xs[0], xs[-1], len(xs))


def test_sample_is_read_only():
    m = model_from_expr("1/x", 1.0, 2.0)
    theorem_hypotheses(m, 1.0, 2.0, 1.0, 2.0, CFG)
    is_convex(AbsPower(m.fprime, 2.0), (1.0, 2.0), CFG)
    samples = _cached(m.fprime, 1.0, 2.0)
    assert set(samples) == {None, convexity._linear_cube, convexity._geometric_cube}
    for arrays in samples.values():
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


def test_only_the_latest_interval_is_kept():
    m = exp_model(1.0)
    theorem_hypotheses(m, 1.0, 2.0, 1.0, 2.0, CFG)
    is_convex(AbsPower(m.fprime, 2.0), (1.0, 2.0), CFG)
    first = [weakref.ref(arr) for arrays in _cached(m.fprime, 1.0, 2.0).values()
             for arr in arrays]
    assert len(first) == 6 and all(ref() is not None for ref in first)
    theorem_hypotheses(m, 1.0, 1.5, 1.0, 2.0, CFG)
    is_convex(AbsPower(m.fprime, 2.0), (1.0, 1.5), CFG)
    assert all(ref() is None for ref in first)


def test_checks_on_one_interval_share_read_only_axes():
    seen = []

    def g(x):
        seen.append(x)
        return np.exp(x)
    xs, ts = convexity._axes((1.0, 2.0), CFG)
    is_convex(g, (1.0, 2.0), CFG)                   # the x grid, then the cube
    is_monotone_decreasing(g, (1.0, 2.0), CFG)      # the x grid
    assert np.shares_memory(seen[0], xs) and np.shares_memory(seen[2], xs)
    assert convexity._axes((1.0, 2.0), CFG)[1] is ts
    assert not xs.flags.writeable and not ts.flags.writeable


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
            xs, ts = convexity._axes((a, b), cfg)
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


def test_class_flag_does_not_depend_on_q():
    # ln(|f'|^q) = q ln|f'|, so the class condition holds for every q > 0
    # or for none: the premise of gating the sweep's bundle at q = 1.
    cfg = default_config()
    cases = ([(spec, cfg.a_grid, cfg.b_grid, cfg.s_grid) for spec in cfg.models]
             + [(spec, (1e-4, 1e-3, 0.02), (0.3, 1.0), (0.5, 1.0)) for spec in _STEEP])
    flags = []
    for spec, a_grid, b_grid, s_grid in cases:
        m = model_from_spec(spec)
        for a, b, s, n in itertools.product(a_grid, b_grid, s_grid, (9, 33)):
            if a < b and m.contains(a, b):
                check_cfg = ClassCheckConfig(grid_points=n)
                by_q = {theorem_hypotheses(m, a, b, s, q, check_cfg).class_ok
                        for q in (1.0, 1.5, 2.0, 4.0)}
                assert len(by_q) == 1, (spec, a, b, s, n)
                flags.extend(by_q)
    assert len(flags) == 268 and True in flags and False in flags


def test_steep_report_pinned():
    # Near-singular |f'| on [1e-4, 1]: |f'|^q spans many decades, so both
    # slack rules meet values far above 1.
    names = ("power-s01", "root5", "log-shift", "root-log")
    cfg = parse_config({"models": [{"name": n, **spec} for n, spec in zip(names, _STEEP)],
                        "a_grid": [1e-4, 1e-3, 0.02], "b_grid": [0.3, 1.0],
                        "s_grid": [0.5, 1], "q_grid": [1, 2], "class_grid_points": 9})
    records = run_sweep(cfg)
    assert len(records) == 264
    assert hashlib.sha256(records_text(records, "csv").encode()).hexdigest() == \
        "90b4f79b12f0de3a3ea4e7bed5f876ec1a5e795921f4cf6452cc0735dd8cbc64"
