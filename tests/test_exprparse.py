import gc
import math

import numpy as np
import pytest

from hhverify import exprparse as ep
from hhverify.errors import DomainError, ParseError

from conftest import evaluate, pretty, random_expr


def ev(src, x):
    return evaluate(ep.parse(src), x)


def dev(src, x):
    return evaluate(ep.differentiate(ep.parse(src)), x)


class TestParseEvaluate:
    def test_square(self):
        assert ev("x^2", 3.0) == 9.0

    def test_half_power_scaled(self):
        # x^s/s with s = 1/2: 2*sqrt(0.25) = 1
        assert ev("x^0.5/0.5", 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_ln(self):
        assert ev("ln(x)", 1.0) == 0.0

    def test_self_power(self):
        # exp(x*ln(x)) at 2
        assert ev("x^(x)", 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_scientific_notation(self):
        assert ev("1e-3*x", 2.0) == pytest.approx(2e-3)

    def test_precedence(self):
        assert ev("2*x^2", 3.0) == 18.0         # ^ before *
        assert ev("-x^2", 3.0) == -9.0          # ^ before unary minus
        assert ev("2 - 3*x", 4.0) == -10.0      # * before -
        assert ev("2^3^2", 1.0) == 512.0        # right-associative

    def test_unary_minus_chain(self):
        assert ev("--x", 5.0) == 5.0

    @pytest.mark.parametrize("bad, offset_min", [
        ("exp(-(x", 7),
        ("", 0),
        ("x +", 3),
        ("(x+1", 4),
        ("sin(x)", 0),
        ("x ~ 2", 1),
        ("x) + 1", 1),
    ])
    def test_parse_errors_carry_offset(self, bad, offset_min):
        with pytest.raises(ParseError) as exc:
            ep.parse(bad)
        assert 0 <= exc.value.offset <= len(bad)
        assert exc.value.offset >= offset_min - 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("ln(x)", 0.0)
        with pytest.raises(DomainError):
            ev("ln(x-1)", 0.5)
        with pytest.raises(DomainError):
            ev("1/(x-1)", 1.0)
        with pytest.raises(DomainError):
            ev("(x-2)^0.5", 1.0)


class TestDifferentiate:
    def test_square(self):
        assert dev("x^2", 3.0) == pytest.approx(6.0, rel=1e-15)

    def test_half_power_scaled(self):
        # d/dx (x^0.5 / 0.5) = x^(-0.5); at 0.25 that is 2
        assert dev("x^0.5/0.5", 0.25) == pytest.approx(2.0, rel=1e-12)

    def test_exp(self):
        assert dev("exp(x)", 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_general_power_rewrite(self):
        # x^x -> exp(x ln x); derivative x^x (ln x + 1)
        got = dev("x^(x)", 2.0)
        assert got == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)

    def test_quotient_rule(self):
        got = dev("x/(x+1)", 2.0)
        assert got == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_derivative_matches_finite_differences():
    # 1000 random expressions, random x; central difference with
    # h = 1e-5 * max(1, |x|) must agree within 1e-6 * max(1, |value|).
    rng = np.random.default_rng(12345)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 30000, "generator rejected too many candidates"
        tree = random_expr(rng, int(rng.integers(1, 4)))
        x = float(rng.uniform(0.3, 2.0))
        h = 1e-5 * max(1.0, abs(x))
        try:
            d = ep.differentiate(tree)
            v0 = evaluate(tree, x)
            vm = evaluate(tree, x - h)
            vp = evaluate(tree, x + h)
            dv = evaluate(d, x)
        except DomainError:
            continue
        if max(abs(v0), abs(vm), abs(vp), abs(dv)) > 1e6:
            continue
        fd = (vp - vm) / (2.0 * h)
        assert abs(dv - fd) <= 1e-6 * max(1.0, abs(dv)), pretty(tree)
        checked += 1


def test_pretty_roundtrip_sources():
    sources = ["x^2", "x^0.5/0.5", "exp(-(x))", "1 - ln(x)", "1/x", "x^(x)",
               "2^-3*x", "-x^2 + 3*x - 1", "x^2^3", "(x+1)*(x-2)/(x+3)",
               "exp(x*ln(x))", "1e-3*x", "x/2/3", "x-(1-x)"]
    for src in sources:
        t = ep.parse(src)
        p = pretty(t)
        t2 = ep.parse(p)
        assert t2 == t, src
        assert pretty(t2) == p, src


def test_pretty_roundtrip_random():
    rng = np.random.default_rng(777)
    done = 0
    while done < 300:
        t = random_expr(rng, int(rng.integers(0, 5)))
        p = pretty(t)
        t2 = ep.parse(p)
        assert t2 == t, p
        done += 1


def test_derivative_trees_reparse():
    # derivative output uses the same printable grammar
    rng = np.random.default_rng(53)
    for _ in range(200):
        t = ep.differentiate(random_expr(rng, 3))
        p = pretty(t)
        assert ep.parse(p) == t, p


def _x_free_exponents(t) -> bool:
    if t.kind == "pow" and ep.contains_var(t.args[1]):
        return False
    return all(_x_free_exponents(c) for c in t.args)


def test_eval_array_matches_pointwise():
    # An array of points gives, bit for bit, what each point gives alone:
    # quadrature evaluates a panel's nodes at once and must not change its
    # sum.  x-dependent exponents are left out: one such as (x + x)/x is
    # exactly 2 everywhere, and an exponent array of 2s skips the square
    # shortcut a single point takes.
    rng = np.random.default_rng(2024)
    xs = rng.uniform(1e-4, 3.0, 45)
    trees = [ep.parse(s) for s in ("x^0.2", "1 - ln(x)", "x^0.5 - ln(x)",
                                   "1/x", "x^-2", "exp(-x)*x^2")]
    while len(trees) < 200:
        t = random_expr(rng, int(rng.integers(1, 4)))
        if _x_free_exponents(t):
            trees.append(t)
    for t in trees + [ep.differentiate(t) for t in trees]:
        whole = ep.eval_array(t, xs)
        alone = np.array([float(ep.eval_array(t, float(x))) for x in xs])
        assert whole.shape == xs.shape
        np.testing.assert_array_equal(whole, alone, err_msg=pretty(t))


@pytest.mark.parametrize("src", ["2", "2*3 - 1", "exp(1)", "ln(2)", "1/0"])
def test_eval_array_x_free_keeps_shape(src):
    xs = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    got = ep.eval_array(ep.parse(src), xs)
    assert got.shape == xs.shape
    want = float(ep.eval_array(ep.parse(src), 1.5))
    assert np.array_equal(got, np.full(xs.shape, want), equal_nan=True)
    assert np.shape(ep.eval_array(ep.parse(src), 1.5)) == ()


# A grid from 0.5 through 1 and 1.5 (step 1/16, so each is a grid point
# exactly), and the part of it above 1.5, where no guard trips.
GUARD_GRID = np.linspace(0.5, 2.5, 33)


@pytest.mark.parametrize("src, trips", [
    ("ln(x - 1)", lambda x: x <= 1.0),
    ("ln(x - 0.5)", lambda x: x == 0.5),
    ("1/(x - 1.5)", lambda x: x == 1.5),
    ("ln(2)*x", lambda x: False),
    ("ln(1 - 2)*x", lambda x: True),
    ("x/(2 - 1)", lambda x: False),
    ("x/(1 - 1)", lambda x: True),
])
@pytest.mark.parametrize("xs", [GUARD_GRID, GUARD_GRID[GUARD_GRID > 1.5]],
                         ids=["some-trip", "none-trip"])
def test_guards_agree_with_one_point_evaluate(src, trips, xs):
    # The ln and / guards skip their np.where passes unless some point
    # leaves the domain, on arrays and on x-free operands alike: each
    # point has the bits evaluate gives it alone, and NaN exactly where
    # the guard trips.
    tree = ep.parse(src)
    got = ep.eval_array(tree, xs)
    assert got.shape == xs.shape
    for x, v in zip(xs.tolist(), got.tolist()):
        if trips(x):
            assert math.isnan(v), x
            with pytest.raises(DomainError):
                evaluate(tree, x)
        else:
            assert v.hex() == evaluate(tree, x).hex(), x


def test_eval_array_leaves_no_reference_cycle():
    # A cycle per call would keep each n^3 input alive until the gc ran.
    tree = ep.differentiate(ep.parse("x^0.5 - ln(x) + 2*x"))
    xs = np.linspace(0.5, 1.5, 17 ** 3).reshape(17, 17, 17)
    gc.collect()
    gc.disable()
    try:
        ep.eval_array(tree, xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_is_the_one_point_eval_array():
    # Bit for bit where eval_array is finite, DomainError exactly where not.
    rng = np.random.default_rng(4242)
    finite = errors = 0
    for _ in range(1500):
        t = random_expr(rng, int(rng.integers(0, 5)))
        x = float(rng.uniform(1e-3, 3.0))
        for tree in (t, ep.differentiate(t)):
            want = float(ep.eval_array(tree, x))
            if math.isfinite(want):
                assert evaluate(tree, x).hex() == want.hex(), pretty(tree)
                finite += 1
            else:
                with pytest.raises(DomainError):
                    evaluate(tree, x)
                errors += 1
    assert finite > 1000 and errors > 10


def test_evaluate_follows_nan_propagation():
    # exp(1000) overflows, but exp(-inf) is 0: a finite result, as in
    # eval_array.  An infinite result still raises.
    assert ev("exp(-exp(x))", 1000.0) == 0.0
    with pytest.raises(DomainError):
        ev("exp(exp(x))", 1000.0)


def test_nesting_and_tree_depth_limits():
    n = ep.MAX_DEPTH
    within = ["(" * n + "x" + ")" * n, "-" * n + "x", "x^" * n + "x",
              "exp(" * n + "x" + ")" * n, "+".join(["x"] * (n + 1)),
              "(" + "*".join(["x"] * n) + ")^2"]
    for src in within:
        ep.parse(src)
    nested = ["(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x",
              "x^" * (n + 1) + "x", "ln(" * (n + 1) + "x" + ")" * (n + 1)]
    for src in nested:
        with pytest.raises(ParseError, match=f"nesting deeper than {n} levels"):
            ep.parse(src)
    # A 150-term sum nests nothing but is a tree 149 levels deep.
    for src, depth in (("+".join(["x"] * 150), 149),
                       ("/".join(["x"] * (n + 2)), n + 1),
                       ("(" + "*".join(["x"] * (n + 1)) + ")^2", n + 1)):
        with pytest.raises(ParseError) as exc:
            ep.parse(src)
        assert str(exc.value) == (f"parse error at offset 0: expression tree "
                                  f"{depth} levels deep (expected at most {n})")


@pytest.mark.parametrize("src, offset", [
    ("(" * 300 + "x" + ")" * 300, 101),
    ("-" * 1000 + "x", 101),
    ("+".join(["x"] * 1100), 0),
], ids=["nested-parens", "unary-minuses", "long-sum"])
def test_deep_input_is_a_parse_error(src, offset):
    with pytest.raises(ParseError) as exc:
        ep.parse(src)
    assert exc.value.offset == offset
