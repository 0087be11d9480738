"""Pins of everything the parser's structure could move.

The trees ``parse`` builds and the derivative trees built from them fix
the bits of every expression model's records, and a parse error's offset
and text are what a user sees.  The digests are sha256 over one ``repr``
per line.
"""

import hashlib

import numpy as np
import pytest

from hhverify import exprparse as ep
from hhverify.errors import ParseError
from hhverify.sweep import default_config

from conftest import pretty, random_expr

# The shipped config's and the steep benchmark models' expressions, the
# README's, the ones the tests parse, and 0 and 1 operands, which the
# parser keeps where the differentiator's constructors would fold them.
SOURCES = (
    "x", "1 - ln(x)", "1/x", "x^0.2", "x^0.5 - ln(x)", "x^-0.5", "exp(-(x))",
    "x^2", "x^0.5/0.5", "x^(x)", "2^-3*x", "-x^2 + 3*x - 1", "x^2^3",
    "(x+1)*(x-2)/(x+3)", "exp(x*ln(x))", "1e-3*x", "x/2/3", "x-(1-x)",
    "exp(x)", "x/(x+1)", "(x-2)^0.5", "--x", "-x^2", "1/(x-1)", "2 - 3*x",
    "2*x^2", "2^3^2", "exp(-exp(x))", "exp(exp(x))", "ln(x)", "ln(x-1)",
    "3*x - 1", "x^(-3)", "x^1.5", "x^0.5 - ln(x) + 2*x", "x^-2",
    "exp(-x)*x^2", "2", "2*3 - 1", "exp(1)", "ln(2)", "1/0",
    "x*1", "1*x", "0*x", "x+0", "0+x", "x-0", "x/1", "0/x", "x^1", "x^0",
)
RANDOM_TREES = 2000

TREE_DIGESTS = {
    "parse": "a7fde99331f470d067ef1e779b9d4e55934060a1f2a627ea4ef10be4ae90f644",
    "d1": "65ffa5e45e4e9942e1eae5ebcd112cbd0bafa02d37d197f4e455fc432a58f1d4",
    "d2": "4eb2d9302498af240ef272af86138f2ab86fc35cb618bb6585eff0f964ccf10a",
}


def _corpus() -> list[str]:
    rng = np.random.default_rng(20261018)
    return list(SOURCES) + [pretty(random_expr(rng, int(rng.integers(0, 6))))
                            for _ in range(RANDOM_TREES)]


def test_corpus_covers_the_shipped_models():
    shipped = {m["expr"] for m in default_config().models if "expr" in m}
    assert shipped and shipped <= set(SOURCES)


def test_trees_and_derivatives_are_pinned():
    digests = {k: hashlib.sha256() for k in TREE_DIGESTS}
    for src in _corpus():
        t = ep.parse(src)
        d1 = ep.differentiate(t)
        for key, tree in (("parse", t), ("d1", d1), ("d2", ep.differentiate(d1))):
            digests[key].update(repr(tree).encode() + b"\n")
    assert {k: h.hexdigest() for k, h in digests.items()} == TREE_DIGESTS


ANY = "a number, 'x', 'exp(', 'ln(' or '('"


@pytest.mark.parametrize("src, offset, message, expected", [
    ("exp(-(x", 7, "found 'end of input'", "')'"),
    ("", 0, "empty input", "an expression"),
    ("x +", 3, "found 'end of input'", ANY),
    ("(x+1", 4, "found 'end of input'", "')'"),
    ("sin(x)", 3, "unknown identifier 'sin'", "'x', 'exp' or 'ln'"),
    ("x ~ 2", 2, "trailing input '~ 2'", "end of input"),
    ("x) + 1", 1, "trailing input ') + 1'", "end of input"),
    (" \t\n", 0, "empty input", "an expression"),
    ("ln x", 3, "found 'x'", "'(' after ln"),
    ("1.2.3", 3, "trailing input '.3'", "end of input"),
    ("x ^", 3, "found 'end of input'", ANY),
    ("-", 1, "found 'end of input'", ANY),
])
def test_parse_errors_are_pinned(src, offset, message, expected):
    with pytest.raises(ParseError) as exc:
        ep.parse(src)
    e = exc.value
    assert type(e) is ParseError
    assert (e.offset, e.message, e.expected) == (offset, message, expected)
    assert str(e) == f"parse error at offset {offset}: {message} (expected {expected})"
