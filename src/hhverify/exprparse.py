"""Tiny arithmetic expression language with exact symbolic derivatives.

Grammar (one variable ``x``; precedence ``^`` > unary minus > ``* /`` > ``+ -``):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 'exp' '(' expr ')' | 'ln' '(' expr ')' | '(' expr ')'

Numbers are decimal literals; scientific notation (``1e-3``) is accepted.
The grammar is deliberately small: powers, exponentials and logarithms are
all the function material the verification targets need, and every
differentiation rule stays individually testable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ParseError

__all__ = [
    "Expr",
    "parse",
    "differentiate",
    "eval_array",
    "contains_var",
    "MAX_DEPTH",
]

# Children per node kind.
_ARITY = {"const": 0, "var": 0, "neg": 1, "exp": 1, "ln": 1,
          "add": 2, "sub": 2, "mul": 2, "div": 2, "pow": 2}

# parse rejects text nested more than this many levels, counting each '(',
# unary '-' and '^', and trees more than this many levels deep: the parser,
# the differentiator and the evaluator all recurse over the tree.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Expr:
    """Immutable expression tree node.

    ``kind`` is one of const | var | add | sub | mul | div | pow | exp |
    ln | neg; ``args`` holds the child expressions (arity fixed by kind)
    and ``value`` is meaningful for constants only.
    """

    kind: str
    args: tuple = field(default=())
    value: float = 0.0

    def __post_init__(self):
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if len(self.args) != arity:
            raise ValueError(f"{self.kind} expects {arity} children, "
                             f"got {len(self.args)}")


VAR = Expr("var")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


ZERO = const(0.0)
ONE = const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


# Smart constructors fold identity elements so derivative trees stay small.
# This is construction hygiene, not a simplifier: no rewriting beyond 0/1.

def add(l: Expr, r: Expr) -> Expr:
    if _is_const(l, 0.0):
        return r
    if _is_const(r, 0.0):
        return l
    return Expr("add", (l, r))


def sub(l: Expr, r: Expr) -> Expr:
    if _is_const(r, 0.0):
        return l
    return Expr("sub", (l, r))


def mul(l: Expr, r: Expr) -> Expr:
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return ZERO
    if _is_const(l, 1.0):
        return r
    if _is_const(r, 1.0):
        return l
    return Expr("mul", (l, r))


def div(l: Expr, r: Expr) -> Expr:
    if _is_const(l, 0.0):
        return ZERO
    if _is_const(r, 1.0):
        return l
    return Expr("div", (l, r))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS_RE = re.compile(r"\s*")

# Binary operators by precedence level, loosest first; all left-associative.
_BINARY_OPS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.nesting = 0

    def _skip_ws(self):
        self.pos = _WS_RE.match(self.src, self.pos).end()

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _eat(self, ch: str, expected: str):
        if self._peek() != ch:
            got = self._peek() or "end of input"
            raise ParseError(self.pos, f"found {got!r}", expected)
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError(self.pos, f"trailing input {self.src[self.pos:]!r}",
                             "end of input")
        return e

    def expr(self, level: int = 0) -> Expr:
        """Operands joined by the operators of precedence ``level``: the
        grammar's expr at level 0 and its term at level 1."""
        operand = partial(self.expr, 1) if level == 0 else self.unary
        e = operand()
        while (kind := _BINARY_OPS[level].get(self._peek())) is not None:
            self.pos += 1
            e = Expr(kind, (e, operand()))
        return e

    def unary(self) -> Expr:
        # What follows each '(', unary '-' and '^' is parsed by a new
        # unary(), so the calls active beyond the first count the nesting.
        if self.nesting > MAX_DEPTH:
            raise ParseError(self.pos, f"nesting deeper than {MAX_DEPTH} levels")
        self.nesting += 1
        if self._peek() == "-":
            self.pos += 1
            e = Expr("neg", (self.unary(),))
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self._peek() == "^":
            self.pos += 1
            return Expr("pow", (base, self.unary()))
        return base

    def atom(self) -> Expr:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._eat(")", "')'")
            return e
        m = _NUMBER_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return const(float(m.group()))
        m = _IDENT_RE.match(self.src, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if name == "x":
                return VAR
            if name in ("exp", "ln"):
                self._eat("(", f"'(' after {name}")
                e = self.expr()
                self._eat(")", "')'")
                return Expr(name, (e,))
            raise ParseError(self.pos, f"unknown identifier {name!r}",
                             "'x', 'exp' or 'ln'")
        got = ch or "end of input"
        raise ParseError(self.pos, f"found {got!r}",
                         "a number, 'x', 'exp(', 'ln(' or '('")


def parse(src: str) -> Expr:
    """Parse expression text into an Expr tree.

    Raises ParseError (with byte offset) on unknown tokens, unbalanced
    parentheses, trailing input, or nesting or a tree deeper than
    MAX_DEPTH.
    """
    if not isinstance(src, str) or not src.strip():
        raise ParseError(0, "empty input", "an expression")
    tree = _Parser(src).parse()
    # Levels below the root (n for a chain of n operators), counted
    # without recursion.
    depth, level = 0, [tree]
    while level := [c for n in level for c in n.args]:
        depth += 1
    if depth > MAX_DEPTH:
        raise ParseError(0, f"expression tree {depth} levels deep",
                         f"at most {MAX_DEPTH}")
    return tree


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def contains_var(e: Expr) -> bool:
    if e.kind == "var":
        return True
    return any(contains_var(c) for c in e.args)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative d/dx.

    Standard sum/product/quotient/chain rules.  ``a^b`` uses the power rule
    when ``b`` is x-free; otherwise it is rewritten as exp(b*ln(a)) first so
    a single chain-rule path covers the general case.
    """
    k = e.kind
    if k == "const":
        return ZERO
    if k == "var":
        return ONE
    if k == "neg":
        return Expr("neg", (differentiate(e.args[0]),))
    if k == "add":
        return add(differentiate(e.args[0]), differentiate(e.args[1]))
    if k == "sub":
        return sub(differentiate(e.args[0]), differentiate(e.args[1]))
    if k == "mul":
        u, v = e.args
        return add(mul(differentiate(u), v), mul(u, differentiate(v)))
    if k == "div":
        u, v = e.args
        num = sub(mul(differentiate(u), v), mul(u, differentiate(v)))
        return div(num, Expr("pow", (v, const(2.0))))
    if k == "exp":
        return mul(e, differentiate(e.args[0]))
    if k == "ln":
        (u,) = e.args
        return div(differentiate(u), u)
    if k == "pow":
        b, x = e.args
        if not contains_var(x):
            # d(b^c) = c * b^(c-1) * b'
            return mul(mul(x, Expr("pow", (b, sub(x, ONE)))), differentiate(b))
        log_b = mul(x, Expr("ln", (b,)))
        return mul(Expr("exp", (log_b,)), differentiate(log_b))
    raise ValueError(f"unknown node kind {k!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _rec_array(n: Expr, xs: np.ndarray):
    # Module-level, not a closure: a self-referencing nested function would
    # leave a reference cycle per call that pins xs until the gc runs.
    # Constants stay Python floats: NumPy broadcasts them, and np.power
    # takes its square, square-root and reciprocal shortcuts only for a
    # scalar exponent, so an array gives each point the bits it gets alone.
    k = n.kind
    if k == "const":
        return n.value
    if k == "var":
        return xs
    if k == "neg":
        return -_rec_array(n.args[0], xs)
    if k == "exp":
        return np.exp(_rec_array(n.args[0], xs))
    # The ln and / guards give NaN where the operand leaves the domain.
    # Where no point does (the usual case) the np.where passes change no
    # bit, so they are skipped.  Operands may be Python floats (x-free
    # subtrees), NumPy scalars or arrays; np.count_nonzero and np.size take
    # all three, and NaN counts as non-zero, as it passes r != 0.
    if k == "ln":
        a = _rec_array(n.args[0], xs)
        if np.count_nonzero(a > 0.0) == np.size(a):
            return np.log(a)
        return np.log(np.where(a > 0.0, a, np.nan))
    l = _rec_array(n.args[0], xs)
    r = _rec_array(n.args[1], xs)
    if k == "add":
        return l + r
    if k == "sub":
        return l - r
    if k == "mul":
        return l * r
    if k == "div":
        if np.count_nonzero(r) == np.size(r):
            return l / r
        return np.where(r != 0.0, l / np.where(r != 0.0, r, 1.0), np.nan)
    return np.power(l, r)


def eval_array(e: Expr, xs) -> np.ndarray:
    """Vectorized evaluation; NaN/inf pass through for the caller to screen.

    Used by grid checks and quadrature adapters, which detect non-finite
    samples at the point of consumption and report the offending x.  The
    result has the shape of xs, also for an x-free expression.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        out = _rec_array(e, xs)
    if np.shape(out) != xs.shape:
        out = np.full(xs.shape, out)
    return out
