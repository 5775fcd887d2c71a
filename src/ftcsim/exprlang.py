"""Scalar expression language for scenario files.

Expressions are real-valued functions of the time variable ``t`` and the
state variables ``x1..xn`` (1-indexed). Grammar, tightest first:

    ^  (right-associative)  >  unary -  >  * /  (left)  >  + -  (left)

with parentheses, the constant ``pi`` and calls to sin, cos, tan, exp,
log, sqrt, abs, sign, step, min(a,b), max(a,b). ``step(a)`` is 0 for
a < 0 and 1 otherwise (right-continuous, so step(0) = 1).

Parse errors carry the byte offset of the offending token. Evaluation
reports domain violations (log/sqrt of a negative, division by zero,
fractional powers of a negative base, overflow to infinity, sin/cos/tan
of a non-finite value) instead of silently returning non-finite numbers.

Expressions are evaluated by generated code: Codegen writes a parsed tree
out as straight-line Python (one assignment per distinct value, with the
domain checks inline) and compiles it once per Expr, and the engine inlines
the same lines into its right-hand side. This is safe because the source is
built from the tree, never from the scenario text: it holds only names
made by Codegen and floats written with repr, and every callable it calls
is bound by name in Codegen's namespace.
"""

from __future__ import annotations

import contextlib
import itertools
import linecache
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NoReturn, Sequence

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
    # level by level, not by recursion: `a+a+...` is built by a loop, so a
    # long chain is deeper than the interpreter stack
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [c for n in level for c in
                 ((n.operand,) if isinstance(n, Neg) else
                  (n.left, n.right) if isinstance(n, BinOp) else
                  n.args if isinstance(n, Call) else ())]
    return depth


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


def _apply_pow(base: float, expo: float) -> float:
    """base ^ expo for an exponent known only at run time; the generated
    code inlines these checks when the exponent is a constant."""
    if base < 0.0 and not float(expo).is_integer():
        raise DomainError(f"negative base {base!r} with fractional exponent")
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero base with negative exponent")
    try:
        v = math.pow(base, expo)
    except OverflowError as exc:
        raise DomainError(f"pow overflow at {base!r}^{expo!r}") from exc
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    if not math.isfinite(v):
        raise DomainError("result is not finite")
    return v


def _overflow(name: str, *args: float) -> NoReturn:
    """The DomainError for the OverflowError being handled, raised by
    math.<name>(*args) in generated code: kept out of line, since a
    handler that only calls costs less to compile than one that raises."""
    raise DomainError(f"{name} overflow at {'^'.join(map(repr, args))}"
                      ) from sys.exc_info()[1]


# The functions the generated code calls by name; Codegen writes the
# others (exp, log, sqrt, sign, step, min, max) out inline.
_FUNCTIONS: dict[str, Callable[..., float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "abs": abs,
}


def evaluate(expr: Expr, t: float, x: Sequence[float] = ()) -> float:
    """Evaluate expr at time t and state x (length must match n_states)."""
    if len(x) != expr.n_states:
        raise ValueError(
            f"state has dimension {len(x)}, expression expects {expr.n_states}")
    return expr._closure(t, x)


def compile_expr(expr: Expr) -> Callable[[float, Sequence[float]], float]:
    """The function that evaluates expr: f(t, x) -> float.

    Built once per Expr and shared by every caller. Unlike evaluate, it
    does not check the length of x.
    """
    return expr._closure


def _compile(root: Node) -> Callable[[float, Sequence[float]], float]:
    gen = Codegen()
    lines: list[str] = []
    result = gen.expr(root, "t", lambda i: f"float(x[{i - 1}])", lines)
    body = "".join(f"    {line}\n" for line in lines)
    return gen.define(f"def expr(t, x):\n{body}    return {result}\n",
                      "expr")["expr"]


def _constant(node: Node) -> float | None:
    """The value of a literal, negated or not; None for any other node."""
    if isinstance(node, Neg):
        value = _constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, Literal) else None


_NOT_FINITE = "raise _DomainError('result is not finite')"


def _finite_test(v: str) -> str:
    """The line Codegen emits to test that v is finite."""
    return f"if not _isfinite({v}): {_NOT_FINITE}"


class Codegen:
    """Straight-line Python source for expression trees, and its compiler.

    `expr` turns a tree into single-assignment lines plus the name (or
    constant) that holds the result, so a caller can inline several
    expressions into one generated function. The lines do exactly what a
    walk of the tree would, in IEEE arithmetic and exception for
    exception: operands are evaluated left to right, so the first domain
    violation in source order is the one reported; + - * check finiteness
    after each operation; / evaluates both operands, then rejects a zero
    divisor, then checks finiteness; sin, cos and tan reject a non-finite
    argument before their call. A finiteness test directly followed by a
    + - * of the value it tests is left to that result's test: a
    non-finite operand makes the result non-finite, and nothing observable
    happens in between, so the same error is raised at the same point.

    The helpers a walk would call are written out inline, with the same
    checks and messages in the same order: exp and ^ with a constant
    exponent (whether it is an integer and its sign are settled here) turn
    an OverflowError into DomainError "... overflow at ...", log and sqrt
    reject their domain first, and sign, step, min and max become
    conditional expressions. Only ^ with a computed exponent calls a
    helper, _apply_pow. A negated literal is a constant.

    The lines are value-numbered: `let` keys every computed value on the
    text that computes it, and `check` every test on its condition; both
    are emitted once and reused after. That is exact because every name
    the lines read is assigned once per run of the lines (single
    assignment): the same text over the same names is the same value, and
    a test that passed once passes again. Nothing is moved, folded away
    or reordered. A caller whose lines run only conditionally wraps them
    in `branch`, and each generated function takes its own Codegen.

    Only names made here and finite constants written with repr (which
    round-trips a float exactly) enter the source. Non-finite constants
    and callables are bound by name in `namespace`, the globals of the
    generated code. Scenario text never enters the source, so compiling it
    cannot run anything the tree does not describe.
    """

    _files = itertools.count()

    def __init__(self):
        self.namespace: dict[str, object] = {
            "_isfinite": math.isfinite, "_DomainError": DomainError,
            "_apply_pow": _apply_pow, "_overflow": _overflow,
            "_copysign": math.copysign,
            "_math_exp": math.exp, "_math_log": math.log,
            "_math_pow": math.pow, "_math_sqrt": math.sqrt,
        }
        self.namespace.update(
            (f"_{name}", fn) for name, fn in _FUNCTIONS.items())
        self._count = 0
        # source text (or a caller's key) -> the name that holds its value
        self.values: dict[object, str] = {}
        self._checked: set[str] = set()

    def fresh(self, stem: str = "v") -> str:
        self._count += 1
        return f"{stem}{self._count}"

    def const(self, value: float) -> str:
        """Source for a float constant."""
        value = float(value)
        if not math.isfinite(value):
            name = self.fresh("_c")
            self.namespace[name] = value
            return name
        text = repr(value)
        return f"({text})" if text.startswith("-") else text

    def let(self, src: str, lines: list[str], name: str | None = None) -> str:
        """The name that holds the value of src: the one an earlier line
        assigned it to, or name (a fresh one by default) on a new line."""
        held = self.values.get(src)
        if held is None:
            held = self.values[src] = name or self.fresh()
            lines.append(f"{held} = {src}")
        return held

    def check(self, cond: str, action: str, lines: list[str]) -> None:
        """`if cond: action`, unless the same test was made before."""
        if cond not in self._checked:
            self._checked.add(cond)
            lines.append(f"if {cond}: {action}")

    @contextlib.contextmanager
    def branch(self):
        """Scope for lines that run only conditionally: what they compute
        and test is not reused after it."""
        saved = dict(self.values), set(self._checked)
        try:
            yield
        finally:
            self.values, self._checked = saved

    def _finite(self, v: str, lines: list[str]) -> str:
        self.check(f"not _isfinite({v})", _NOT_FINITE, lines)
        return v

    def _guarded(self, name: str, args: list[str], lines: list[str]) -> str:
        """let for math.<name>(*args), whose OverflowError _overflow turns
        into a DomainError."""
        call = f"_math_{name}({', '.join(args)})"
        held = self.values.get(call)
        if held is None:
            held = self.values[call] = self.fresh()
            lines += [f"try: {held} = {call}", "except OverflowError: "
                      f"_overflow({name!r}, {', '.join(args)})"]
        return held

    def _pow(self, a: str, expo: float, lines: list[str]) -> str:
        """_apply_pow(a, expo) for a constant expo, written out."""
        e = self.const(expo)
        if not float(expo).is_integer():
            self.check(f"{a} < 0.0", "raise _DomainError("
                       f"f'negative base {{{a}!r}} with fractional exponent')",
                       lines)
        if expo < 0.0:
            self.check(f"{a} == 0.0", "raise _DomainError("
                       "'zero base with negative exponent')", lines)
        # with those tests passed, math.pow raises no ValueError
        return self._finite(self._guarded("pow", [a, e], lines), lines)

    def _call(self, name: str, args: list[str], lines: list[str]) -> str:
        a = args[0]
        if name in ("sin", "cos", "tan"):
            self.check(f"not _isfinite({a})", "raise _DomainError("
                       f"f'{name} of non-finite value {{{a}!r}}')", lines)
            return self.let(f"_{name}({a})", lines)
        if name == "exp":
            return self._finite(self._guarded("exp", [a], lines), lines)
        if name in ("log", "sqrt"):
            test, what = (("<=", "non-positive") if name == "log"
                          else ("<", "negative"))
            self.check(f"{a} {test} 0.0", "raise _DomainError("
                       f"f'{name} of {what} value {{{a}!r}}')", lines)
            return self.let(f"_math_{name}({a})", lines)
        if name == "sign":
            return self.let(f"0.0 if {a} == 0.0 else _copysign(1.0, {a})", lines)
        if name == "step":
            return self.let(f"0.0 if {a} < 0.0 else 1.0", lines)
        if name in ("min", "max"):
            # min(a, b) keeps a unless b < a, max unless b > a
            b = args[1]
            return self.let(f"{b} if {b} {'<' if name == 'min' else '>'} {a} "
                            f"else {a}", lines)
        return self.let(f"_{name}({a})", lines)

    def expr(self, node: Node, t: str, state: Callable[[int], str],
             lines: list[str]) -> str:
        """Append the lines that evaluate node; return its result's source.

        t is the source of the time variable and state(k) that of x<k>. A
        state source that is not a plain name (say ``float(x[0])``) gets
        its own line, so it is read in tree order.
        """
        if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/", "^"):
            a = self.expr(node.left, t, state, lines)
            b = self.expr(node.right, t, state, lines)
            if node.op == "^":
                expo = _constant(node.right)
                if expo is not None:
                    return self._pow(a, expo, lines)
                return self.let(f"_apply_pow({a}, {b})", lines)
            if node.op == "/":
                self.check(f"{b} == 0.0",
                           "raise _DomainError('division by zero')", lines)
            elif lines and lines[-1] in (_finite_test(a), _finite_test(b)):
                # + - * of a non-finite operand is not finite, so the
                # result's test, next, raises the same error in its place
                lines.pop()
            return self._finite(self.let(f"{a} {node.op} {b}", lines), lines)
        if isinstance(node, StateVar):
            src = state(node.index)
            return src if src.isidentifier() else self.let(src, lines)
        if isinstance(node, Literal):
            return self.const(node.value)
        if isinstance(node, TimeVar):
            return t
        if isinstance(node, Neg):
            value = _constant(node)
            if value is not None:
                return self.const(value)
            return self.let(f"-{self.expr(node.operand, t, state, lines)}",
                            lines)
        if isinstance(node, Call) and node.name in _FUNCTION_ARITY:
            args = [self.expr(a, t, state, lines) for a in node.args]
            return self._call(node.name, args, lines)
        raise AssertionError(f"unhandled node {node!r}")

    def define(self, source: str, what: str) -> dict[str, object]:
        """Compile and run source in the namespace and return the namespace.

        The source is registered with linecache under a pseudo-filename,
        so a traceback through the generated code shows its lines.
        """
        filename = f"<ftcsim {what} {next(self._files)}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        exec(compile(source, filename, "exec"), self.namespace)
        return self.namespace


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
