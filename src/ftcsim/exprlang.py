"""Scalar expression language for scenario files.

Expressions are real-valued functions of the time variable ``t`` and the
state variables ``x1..xn`` (1-indexed). Grammar, tightest first:

    ^  (right-associative)  >  unary -  >  * /  (left)  >  + -  (left)

with parentheses, the constant ``pi`` and calls to sin, cos, tan, exp,
log, sqrt, abs, sign, step, min(a,b), max(a,b). ``step(a)`` is 0 for
a < 0 and 1 otherwise (right-continuous, so step(0) = 1).

Parse errors carry the byte offset of the offending token. Evaluation
reports domain violations (log/sqrt of a negative, division by zero,
fractional powers of a negative base, overflow to infinity) instead of
silently returning non-finite numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

MAX_DEPTH = 64


class ExprError(Exception):
    """Base for parse errors; carries the byte offset into the source."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifier(ExprError):
    pass


class ArityMismatch(ExprError):
    pass


class VariableOutOfRange(ExprError):
    pass


class DomainError(ArithmeticError):
    """Evaluation left the real domain (or overflowed)."""


# ---------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class StateVar:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


Node = Literal | TimeVar | StateVar | Neg | BinOp | Call


@dataclass(frozen=True)
class Expr:
    """A parsed expression plus the state dimension it was checked against."""

    node: Node
    n_states: int
    source: str = ""

    def __call__(self, t: float, x: Sequence[float] = ()) -> float:
        return evaluate(self, t, x)

    @cached_property
    def _closure(self) -> Callable[[float, Sequence[float]], float]:
        return _compile(self.node)


_FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1,
    "abs": 1, "sign": 1, "step": 1, "min": 2, "max": 2,
}

_TOKEN_RE = re.compile(r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>[ \t\r\n]+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of '+-*/^(),' | 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(pos, f"unexpected character {source[pos]!r}")
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(_Token(m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, n_states: int):
        self.source = source
        self.n = n_states
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.offset, f"expected {what}")
        return self.advance()

    def _nest(self, offset: int) -> None:
        # parens, exponents, unary chains and call arguments recurse; cap
        # them so parsing never exhausts the interpreter stack
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(offset, "expression nested too deeply")

    def parse(self) -> Node:
        node = self.additive()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.offset, f"unexpected {tok.text!r}")
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            self._nest(tok.offset)
            node = Neg(self.unary())
            self.nesting -= 1
            return node
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            # exponent re-enters unary so `2^-3` works and `^` chains
            # right-associatively
            self._nest(tok.offset)
            base = BinOp("^", base, self.unary())
            self.nesting -= 1
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "(":
            self.advance()
            self._nest(tok.offset)
            node = self.additive()
            self.nesting -= 1
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            return self.identifier(tok)
        raise ExprSyntaxError(tok.offset, "expected a number, name or '('")

    def identifier(self, tok: _Token) -> Node:
        name = tok.text
        if self.peek().kind == "(":
            if name not in _FUNCTION_ARITY:
                raise UnknownIdentifier(tok.offset, f"unknown function {name!r}")
            self.advance()
            self._nest(tok.offset)
            args = [self.additive()]
            while self.peek().kind == ",":
                self.advance()
                args.append(self.additive())
            self.nesting -= 1
            self.expect(")", "')'")
            want = _FUNCTION_ARITY[name]
            if len(args) != want:
                raise ArityMismatch(
                    tok.offset,
                    f"{name} takes {want} argument(s), got {len(args)}")
            return Call(name, tuple(args))
        if name == "t":
            return TimeVar()
        if name == "pi":
            return Literal(math.pi)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            k = int(m.group(1))
            if not 1 <= k <= self.n:
                raise VariableOutOfRange(
                    tok.offset,
                    f"x{k} out of range for state dimension {self.n}")
            return StateVar(k)
        raise UnknownIdentifier(tok.offset, f"unknown identifier {name!r}")


def node_depth(node: Node) -> int:
    if isinstance(node, Neg):
        return 1 + node_depth(node.operand)
    if isinstance(node, BinOp):
        return 1 + max(node_depth(node.left), node_depth(node.right))
    if isinstance(node, Call):
        return 1 + max(node_depth(a) for a in node.args)
    return 1


def parse(source: str, n_states: int) -> Expr:
    """Parse source into an Expr over t and x1..x<n_states>."""
    if not source.strip():
        raise ExprSyntaxError(0, "empty expression")
    node = _Parser(source, n_states).parse()
    if node_depth(node) > MAX_DEPTH:
        raise ExprSyntaxError(0, f"expression tree deeper than {MAX_DEPTH}")
    return Expr(node, n_states, source)


# ---------------------------------------------------------------------------
# Evaluation


def _check_finite(v: float) -> float:
    if not math.isfinite(v):
        raise DomainError("result is not finite")
    return v


def _apply_pow(base: float, expo: float) -> float:
    if base < 0.0 and not float(expo).is_integer():
        raise DomainError(f"negative base {base!r} with fractional exponent")
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero base with negative exponent")
    try:
        return _check_finite(math.pow(base, expo))
    except (ValueError, OverflowError) as exc:
        raise DomainError(str(exc)) from exc


def _tan(a: float) -> float:
    return _check_finite(math.tan(a))


def _exp(a: float) -> float:
    try:
        return _check_finite(math.exp(a))
    except OverflowError as exc:
        raise DomainError(str(exc)) from exc


def _log(a: float) -> float:
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a!r}")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise DomainError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


def _sign(a: float) -> float:
    return 0.0 if a == 0.0 else math.copysign(1.0, a)


def _step(a: float) -> float:
    return 0.0 if a < 0.0 else 1.0


# The callable behind each function name.
_FUNCTIONS: dict[str, Callable[..., float]] = {
    "sin": math.sin, "cos": math.cos, "tan": _tan, "exp": _exp,
    "log": _log, "sqrt": _sqrt, "abs": abs, "sign": _sign, "step": _step,
    "min": min, "max": max,
}


def evaluate(expr: Expr, t: float, x: Sequence[float] = ()) -> float:
    """Evaluate expr at time t and state x (length must match n_states)."""
    if len(x) != expr.n_states:
        raise ValueError(
            f"state has dimension {len(x)}, expression expects {expr.n_states}")
    return expr._closure(t, x)


def compile_expr(expr: Expr) -> Callable[[float, Sequence[float]], float]:
    """The closure that evaluates expr: f(t, x) -> float.

    Built once per Expr and shared by every caller. Unlike evaluate, the
    closure does not check the length of x.
    """
    return expr._closure


def _compile(root: Node) -> Callable[[float, Sequence[float]], float]:
    """Build a closure tree for root.

    The node dispatch and the function lookup happen once, here, instead of
    on every call, and + - * check finiteness inline, so tight simulation
    loops stay fast. Operands are evaluated left to right, so the first
    domain violation in source order is the one reported. No codegen or
    eval() involved.
    """
    isfinite = math.isfinite

    def build(node: Node) -> Callable[[float, Sequence[float]], float]:
        if isinstance(node, Literal):
            v = node.value
            return lambda t, x: v
        if isinstance(node, TimeVar):
            return lambda t, x: t
        if isinstance(node, StateVar):
            i = node.index - 1
            return lambda t, x: float(x[i])
        if isinstance(node, Neg):
            f = build(node.operand)
            return lambda t, x: -f(t, x)
        if isinstance(node, BinOp):
            return build_binop(node)
        if isinstance(node, Call):
            fn = _FUNCTIONS[node.name]
            if len(node.args) == 1:
                fa = build(node.args[0])
                return lambda t, x: fn(fa(t, x))
            fa, fb = (build(a) for a in node.args)
            return lambda t, x: fn(fa(t, x), fb(t, x))
        raise AssertionError(f"unhandled node {node!r}")

    def build_binop(node: BinOp) -> Callable[[float, Sequence[float]], float]:
        fa, fb = build(node.left), build(node.right)
        op = node.op
        if op == "+":
            def add(t, x):
                v = fa(t, x) + fb(t, x)
                if isfinite(v):
                    return v
                raise DomainError("result is not finite")
            return add
        if op == "-":
            def sub(t, x):
                v = fa(t, x) - fb(t, x)
                if isfinite(v):
                    return v
                raise DomainError("result is not finite")
            return sub
        if op == "*":
            def mul(t, x):
                v = fa(t, x) * fb(t, x)
                if isfinite(v):
                    return v
                raise DomainError("result is not finite")
            return mul
        if op == "/":
            def div(t, x):
                a = fa(t, x)
                b = fb(t, x)
                if b == 0.0:
                    raise DomainError("division by zero")
                return _check_finite(a / b)
            return div
        return lambda t, x: _apply_pow(fa(t, x), fb(t, x))

    return build(root)


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _node_prec(node: Node) -> int:
    if isinstance(node, Neg):
        return _PRECEDENCE["neg"]
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    return _ATOM_PREC


def _fmt(node: Node, required: int) -> str:
    """Render node, parenthesizing when its precedence is below required."""
    if isinstance(node, Literal):
        body = repr(node.value)
    elif isinstance(node, TimeVar):
        body = "t"
    elif isinstance(node, StateVar):
        body = f"x{node.index}"
    elif isinstance(node, Neg):
        body = "-" + _fmt(node.operand, _PRECEDENCE["neg"])
    elif isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # base is an atom in the grammar; exponent re-enters at unary
            body = _fmt(node.left, _ATOM_PREC) + "^" + _fmt(node.right, _PRECEDENCE["neg"])
        elif node.op in "+-":
            body = f"{_fmt(node.left, prec)} {node.op} {_fmt(node.right, prec + 1)}"
        else:
            body = _fmt(node.left, prec) + node.op + _fmt(node.right, prec + 1)
    elif isinstance(node, Call):
        body = node.name + "(" + ", ".join(_fmt(a, 1) for a in node.args) + ")"
    else:
        raise AssertionError(f"unhandled node {node!r}")
    if _node_prec(node) < required:
        return f"({body})"
    return body


def format_expr(expr: Expr) -> str:
    """Render expr to source text that reparses to the same tree."""
    return _fmt(expr.node, 1)
