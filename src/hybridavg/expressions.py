"""A minimal arithmetic expression language for user-defined vector fields.

Grammar: numbers, identifiers (x_i, r_i, v_i, tau, v, eps), the four infix
operators + - * / with usual precedence, unary minus, parentheses, and the
functions sin, cos, abs, min, max, pow.  Expressions compile to a small AST
of plain dataclasses.  Every compiled map, whether a flow, aux flow, jump,
average map or scalar candidate, is one CompiledMap keyed by the roles of its
positional arguments; it evaluates vectorized over batched numpy arrays and
pickles as plain data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ExpressionError(ValueError):
    """Parse or binding failure, carrying a 1-based line/column location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_FUNCTIONS = {
    "sin": (1, 1),
    "cos": (1, 1),
    "abs": (1, 1),
    "min": (2, None),
    "max": (2, None),
    "pow": (2, 2),
}


@dataclass(frozen=True)
class Num:
    value: float

    def eval(self, env):
        return self.value

    def names(self, out):
        pass


@dataclass(frozen=True)
class Var:
    name: str
    line: int = 0
    column: int = 0

    def eval(self, env):
        return env[self.name]

    def names(self, out):
        out.append(self)


@dataclass(frozen=True)
class Neg:
    a: object

    def eval(self, env):
        return -self.a.eval(env)

    def names(self, out):
        self.a.names(out)


@dataclass(frozen=True)
class Bin:
    op: str
    a: object
    b: object

    def eval(self, env):
        x = self.a.eval(env)
        y = self.b.eval(env)
        if self.op == "+":
            return x + y
        if self.op == "-":
            return x - y
        if self.op == "*":
            return x * y
        return x / y

    def names(self, out):
        self.a.names(out)
        self.b.names(out)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        if self.fn == "sin":
            return np.sin(vals[0])
        if self.fn == "cos":
            return np.cos(vals[0])
        if self.fn == "abs":
            return np.abs(vals[0])
        if self.fn == "pow":
            return np.power(vals[0], vals[1])
        acc = vals[0]
        for v in vals[1:]:
            acc = np.minimum(acc, v) if self.fn == "min" else np.maximum(acc, v)
        return acc

    def names(self, out):
        for a in self.args:
            a.names(out)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'lparen' | 'rparen' | 'comma' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/":
            tokens.append(_Token("op", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, line, start_col))
        elif ch == ",":
            tokens.append(_Token("comma", ch, line, start_col))
        else:
            raise ExpressionError(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}",
                                  tok.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.unary())
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}",
                                          tok.line, tok.column)
                self.next()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                lo, hi = _FUNCTIONS[tok.text]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ExpressionError(
                        f"function {tok.text!r} takes "
                        f"{lo if hi == lo else f'{lo}+'} argument(s), got {len(args)}",
                        tok.line, tok.column)
                return Call(tok.text, tuple(args))
            return Var(tok.text, tok.line, tok.column)
        raise ExpressionError(f"unexpected {tok.text or 'end of input'!r}",
                              tok.line, tok.column)


def parse_expression(text: str):
    """Parse one expression; raises ExpressionError with line/column on failure."""
    return _Parser(text).parse()


def allowed_names(n: int = 0, p: int = 0, m: int = 0, tau: bool = False,
                  eps: bool = False) -> set:
    names = set()
    names.update(f"x_{i + 1}" for i in range(n))
    names.update(f"r_{i + 1}" for i in range(p))
    names.update(f"v_{i + 1}" for i in range(m))
    if m >= 1:
        names.add("v")  # alias for v_1
    if tau:
        names.add("tau")
    if eps:
        names.add("eps")
    return names


def bind_expression(node, allowed: set):
    """Verify every identifier is known; raises ExpressionError naming strays."""
    found = []
    node.names(found)
    for var in found:
        if var.name not in allowed:
            raise ExpressionError(f"unknown symbol {var.name!r}", var.line, var.column)
    return node


def compile_expressions(texts, allowed: set):
    exprs = []
    for text in texts:
        exprs.append(bind_expression(parse_expression(text), allowed))
    return tuple(exprs)


#: positional arguments whose columns bind as <role>_1, <role>_2, ...
_ARRAY_ROLES = ("x", "r", "v")


class CompiledMap:
    """One compiled map, called with the positional arguments named by roles.

    ``roles`` lists the arguments in call order, e.g. ("x", "r", "tau", "eps")
    for a flow map f or ("r", "v") for an aux jump map h.  An array role binds
    the columns of its last axis as x_i / r_i / v_i (plus the alias v for
    v_1); tau and eps bind as given.  The batch B is the leading shape of the
    first argument (all axes but the last).  A tuple of expressions gives one
    output column each, shape (B, k); one bare expression gives a scalar map,
    shape (B,).
    """

    def __init__(self, exprs, roles):
        self.exprs = tuple(exprs) if isinstance(exprs, (list, tuple)) else exprs
        self.roles = tuple(roles)

    def __call__(self, *args):
        env = {}
        batch = None
        for role, arg in zip(self.roles, args):
            if role not in _ARRAY_ROLES:
                env[role] = arg
                continue
            arg = np.atleast_2d(np.asarray(arg, dtype=float))
            if batch is None:
                batch = arg.shape[:-1]
            for i in range(arg.shape[-1]):
                env[f"{role}_{i + 1}"] = arg[..., i]
            if role == "v":
                env["v"] = arg[..., 0]
        if not isinstance(self.exprs, tuple):
            return np.broadcast_to(np.asarray(self.exprs.eval(env), dtype=float), batch)
        return np.stack([np.broadcast_to(np.asarray(e.eval(env), dtype=float), batch)
                         for e in self.exprs], axis=-1)


def AverageField(exprs, n: int) -> CompiledMap:
    """Compiled clock-free average map f_ave(x, r) -> (B, n)."""
    return CompiledMap(tuple(exprs), ("x", "r"))


def ScalarField(expr) -> CompiledMap:
    """Compiled scalar function of (x, r) -> (B,), e.g. a certificate candidate."""
    return CompiledMap(expr, ("x", "r"))
