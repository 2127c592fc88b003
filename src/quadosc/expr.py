"""Operator expression language: lexer, recursive-descent parser, AST, and
renderer, with exact round-tripping.

Grammar (whitespace insignificant):

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" UINT)?
    atom   := NAME | SCALAR | "[" expr "," expr "]" | "{" expr "," expr "}"
            | "(" expr ")"

NAME covers the operator catalogue (H, A+, ..., E11..E33, R0..R3, Rt1, the
parametric Dp(UINT)), the six zzb generators (z, zb, x3, dz, dzb, d3) and the
six transformed-space generators (u, v, w, du, dv, dw).  SCALAR atoms are the
parameter names ``lam`` and ``g``, the imaginary unit ``I``, and unsigned
integers; rational scalars are spelled with "/".  Division requires a scalar
divisor.  The signed letters A+, A-, B+, B-, C+, C-, Q+, Q- are single
tokens: the sign binds to the letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeff import ParamScalar, LAM, G, I, ONE, scalar
from .weyl import (WeylOperator, SPACE_ZZB, SPACE_UVW, _NAMES, variable, derivative,
                   identity_op)
from . import operators as _ops

__all__ = ["parse", "render", "evaluate", "ExprError", "Node"]


class ExprError(ValueError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    kind: str               # "sum" | "product" | "power" | "bracket"
    #                       | "antibracket" | "name" | "scalar" | "neg" | "div"
    children: tuple = ()
    name: str = ""
    value: Fraction = Fraction(0)
    arg: int = -1           # parameter of a parametric name, -1 otherwise
    # where the node's text starts, for error messages; equal trees parsed
    # from different texts stay equal
    pos: int = field(default=0, compare=False)


# -- Lexer ------------------------------------------------------------------

_SIGNED_LETTERS = {"A", "B", "C", "Q"}
_PUNCT = set("+-*/^[](){},")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("uint", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _SIGNED_LETTERS:
                if j < n and text[j] in "+-":
                    tokens.append(("name", word + text[j], i))
                    i = j + 1
                    continue
                raise ExprError(f"letter {word!r} must carry a + or - sign", i)
            tokens.append(("word", word, i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- Parser -----------------------------------------------------------------

# the names the parser knows: the generators of the two spaces, each as its
# (space, index) in weyl's table, the scalar names and the catalogue's
# unsigned names
_GENERATORS = {name: (space, i) for space in (SPACE_ZZB, SPACE_UVW)
               for i, name in enumerate(_NAMES[space])}
_SCALARS = {"lam": LAM, "g": G, "I": I}
_PLAIN_NAMES = (
    {"H", "R", "S", "T", "U", "V", "W", "X", "Y", "Z", "Rt1"}
    | {f"E{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)}
    | {f"R{i}" for i in range(4)}
    | _GENERATORS.keys()
)


def _shown(tok) -> str:
    """A token as an error message names it."""
    return "end of input" if tok[0] == "end" else f"token {tok[1]!r}"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        parts = []
        if self.peek()[0] == "-":
            pos = self.take()[2]
            parts.append(Node("neg", (self.term(),), pos=pos))
        else:
            parts.append(self.term())
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            parts.append(Node("neg", (rhs,), pos=rhs.pos) if op == "-" else rhs)
        if len(parts) == 1:
            return parts[0]
        return Node("sum", tuple(parts), pos=parts[0].pos)

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            if op == "*":
                if node.kind == "product":
                    node = Node("product", node.children + (rhs,), pos=node.pos)
                else:
                    node = Node("product", (node, rhs), pos=node.pos)
            else:
                node = Node("div", (node, rhs), pos=node.pos)
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("uint")
            node = Node("power", (node,), value=Fraction(tok[1]), pos=node.pos)
        return node

    def atom(self) -> Node:
        tok = self.peek()
        kind, val, pos = tok
        if kind == "uint":
            self.take()
            return Node("scalar", value=Fraction(val), pos=pos)
        if kind == "name":
            self.take()
            return Node("name", name=val, pos=pos)
        if kind == "word":
            self.take()
            if val == "Dp":
                self.take("(")
                p = self.take("uint")[1]
                self.take(")")
                return Node("name", name="Dp", arg=p, pos=pos)
            if val in _PLAIN_NAMES or val in _SCALARS:
                return Node("name", name=val, pos=pos)
            raise ExprError(f"unknown name {val!r}", pos)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "[":
            self.take()
            lhs = self.expr()
            self.take(",")
            rhs = self.expr()
            self.take("]")
            return Node("bracket", (lhs, rhs), pos=pos)
        if kind == "{":
            self.take()
            lhs = self.expr()
            self.take(",")
            rhs = self.expr()
            self.take("}")
            return Node("antibracket", (lhs, rhs), pos=pos)
        raise ExprError(f"unexpected {_shown(tok)}", pos)


def parse(text: str) -> Node:
    return _Parser(text).parse()


# -- Renderer ---------------------------------------------------------------

def render(node: Node) -> str:
    return _render(node, 0)


# precedence levels: 0 sum, 1 product, 2 power/atom
def _render(node: Node, level: int) -> str:
    if node.kind == "name":
        s = f"Dp({node.arg})" if node.name == "Dp" else node.name
        return s
    if node.kind == "scalar":
        v = node.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        need = level > 1 and v.denominator != 1
        return f"({s})" if need else s
    if node.kind == "neg":
        inner = _render(node.children[0], 1)
        s = f"-{inner}"
        return f"({s})" if level > 0 else s
    if node.kind == "sum":
        parts = []
        for i, ch in enumerate(node.children):
            if i and ch.kind == "neg":
                parts.append(" - " + _render(ch.children[0], 1))
            elif i:
                parts.append(" + " + _render(ch, 1))
            else:
                parts.append(_render(ch, 1) if ch.kind != "neg" else "-" + _render(ch.children[0], 1))
        s = "".join(parts)
        return f"({s})" if level > 0 else s
    if node.kind == "product":
        s = "*".join(_render(ch, 2) for ch in node.children)
        return f"({s})" if level > 1 else s
    if node.kind == "div":
        a = _render(node.children[0], 2)
        b = _render(node.children[1], 2)
        s = f"{a}/{b}"
        return f"({s})" if level > 1 else s
    if node.kind == "power":
        base = _render(node.children[0], 2)
        if node.children[0].kind == "power":
            base = f"({base})"
        return f"{base}^{int(node.value)}"
    if node.kind == "bracket":
        return f"[{_render(node.children[0], 0)},{_render(node.children[1], 0)}]"
    if node.kind == "antibracket":
        return f"{{{_render(node.children[0], 0)},{_render(node.children[1], 0)}}}"
    raise ValueError(f"unknown node kind {node.kind!r}")


# -- Evaluator --------------------------------------------------------------

def _as_op(value, space=SPACE_ZZB) -> WeylOperator:
    """An operator as it is; a scalar as a multiple of the identity of ``space``."""
    return value if isinstance(value, WeylOperator) else identity_op(space).scale(value)


def _common_space(a, b, pos):
    """The space of the operators among ``a`` and ``b`` (the model space when
    both are scalars); two different spaces are an error at ``pos``."""
    spaces = {v.space for v in (a, b) if isinstance(v, WeylOperator)}
    if len(spaces) > 1:
        raise ExprError("operator spaces differ in one expression", pos)
    return spaces.pop() if spaces else SPACE_ZZB


def _evaluate(node: Node):
    """A ParamScalar or a WeylOperator; the operands' own arithmetic lifts a
    scalar into the space of the operator it meets."""
    if node.kind == "scalar":
        return scalar(node.value)
    if node.kind == "name":
        nm = node.name
        if nm in _SCALARS:
            return _SCALARS[nm]
        if nm == "Dp":
            from .jordan import d_p
            return d_p(node.arg)
        if nm in _GENERATORS:
            space, i = _GENERATORS[nm]
            return variable(i, space) if i < 3 else derivative(i - 3, space)
        return _ops.op(nm)
    if node.kind == "neg":
        return -_evaluate(node.children[0])
    if node.kind == "sum":
        acc = _evaluate(node.children[0])
        for ch in node.children[1:]:
            term = _evaluate(ch)
            _common_space(acc, term, ch.pos)
            acc = acc + term
        return acc
    if node.kind == "product":
        acc = _evaluate(node.children[0])
        for ch in node.children[1:]:
            acc = acc * _evaluate(ch)
        return acc
    if node.kind == "div":
        dividend, divisor = node.children
        a, b = _evaluate(dividend), _evaluate(divisor)
        if not isinstance(b, ParamScalar):
            raise ExprError("division requires a scalar divisor", divisor.pos)
        if b.is_zero():
            raise ExprError("division by zero", divisor.pos)
        return a / b if isinstance(a, ParamScalar) else a.scale(ONE / b)
    if node.kind == "power":
        return _evaluate(node.children[0]) ** int(node.value)
    if node.kind in ("bracket", "antibracket"):
        lhs, rhs = node.children
        a, b = _evaluate(lhs), _evaluate(rhs)
        space = _common_space(a, b, rhs.pos)
        a, b = _as_op(a, space), _as_op(b, space)
        return a.commutator(b) if node.kind == "bracket" else a.anticommutator(b)
    raise ValueError(f"unknown node kind {node.kind!r}")


def evaluate(text_or_node):
    """Evaluate an expression to a WeylOperator (scalars become multiples of
    the identity in the model space)."""
    node = parse(text_or_node) if isinstance(text_or_node, str) else text_or_node
    return _as_op(_evaluate(node))


def evaluate_scalar(text_or_node) -> ParamScalar:
    """Evaluate an expression that must be a pure scalar."""
    node = parse(text_or_node) if isinstance(text_or_node, str) else text_or_node
    val = _evaluate(node)
    if not isinstance(val, ParamScalar):
        raise ExprError("expected a scalar expression", node.pos)
    return val
