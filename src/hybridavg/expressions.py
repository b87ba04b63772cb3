"""A minimal arithmetic expression language for user-defined vector fields.

Grammar: numbers, identifiers (x_i, r_i, v_i, tau, v, eps), the four infix
operators + - * / with usual precedence, unary minus, parentheses, and the
functions sin, cos, abs, min, max, pow.  Expressions parse to a small AST of
plain dataclasses.  Every compiled map, whether a flow, aux flow, jump,
average map or scalar candidate, is one CompiledMap keyed by the roles of its
positional arguments.  When it is built, a map translates its AST into the
source of one Python function, one numpy operation per node, and compiles it
once.  That source is made from the AST alone: its names come from the roles
and a fixed table of numpy functions, literals are bound as constants, and no
user text is ever evaluated.  Maps run vectorized over batched numpy arrays
and pickle as plain data.
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


#: name -> (min args, max args or None, numpy ufunc); min and max fold left
_FUNCTIONS = {
    "sin": (1, 1, np.sin),
    "cos": (1, 1, np.cos),
    "abs": (1, 1, np.abs),
    "min": (2, None, np.minimum),
    "max": (2, None, np.maximum),
    "pow": (2, 2, np.power),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Bin:
    op: str
    a: object
    b: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


def _variables(node) -> list:
    """Every Var of an expression tree, left to right."""
    if isinstance(node, Var):
        return [node]
    kids = (() if isinstance(node, Num) else node.args if isinstance(node, Call)
            else (node.a, node.b) if isinstance(node, Bin) else (node.a,))
    return [var for kid in kids for var in _variables(kid)]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'lparen' | 'rparen' | 'comma' | 'end'
    text: str
    line: int
    column: int


_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and '٣'


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
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    while k < n and text[k] in _DIGITS:
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


#: deepest expression tree, and deepest nesting of parentheses, that parsing
#: accepts; parsing, code generation, comparison and pickling of a tree all
#: recurse once per level, so deeper input is an ExpressionError instead
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (node, depth of its tree)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parentheses open around the current token

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

    def level(self, tok: _Token, *depths) -> int:
        """Depth of a node built at tok over subtrees of the given depths."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nested more than {MAX_DEPTH} levels deep",
                                  tok.line, tok.column)
        return depth

    def enter(self, tok: _Token) -> None:
        self.open += 1
        if self.open > MAX_DEPTH:
            raise ExpressionError(f"parentheses nested more than {MAX_DEPTH} deep",
                                  tok.line, tok.column)

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}",
                                  tok.line, tok.column)
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.next()
            b, b_depth = self.term()
            node, depth = Bin(tok.text, node, b), self.level(tok, depth, b_depth)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.next()
            b, b_depth = self.unary()
            node, depth = Bin(tok.text, node, b), self.level(tok, depth, b_depth)
        return node, depth

    def unary(self):
        # a run of signs is read in a loop, not by recursion; '+' is dropped
        signs = []
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.next()
            if tok.text == "-":
                signs.append(tok)
        node, depth = self.atom()
        for tok in reversed(signs):
            node, depth = Neg(node), self.level(tok, depth)
        return node, depth

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "lparen":
            self.enter(tok)
            node = self.expr()
            self.expect("rparen", "')'")
            self.open -= 1
            return node
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}",
                                          tok.line, tok.column)
                self.enter(self.next())
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                self.open -= 1
                lo, hi, _ = _FUNCTIONS[tok.text]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ExpressionError(
                        f"function {tok.text!r} takes "
                        f"{lo if hi == lo else f'{lo}+'} argument(s), got {len(args)}",
                        tok.line, tok.column)
                return (Call(tok.text, tuple(node for node, _ in args)),
                        self.level(tok, *(depth for _, depth in args)))
            return Var(tok.text, tok.line, tok.column), 1
        raise ExpressionError(f"unexpected {tok.text or 'end of input'!r}",
                              tok.line, tok.column)


def parse_expression(text: str):
    """Parse one expression; raises ExpressionError with line/column on failure."""
    return _Parser(text).parse()


def allowed_names(n: int = 0, p: int = 0, m: int = 0, tau: bool = False,
                  eps: bool = False) -> set:
    names = {f"{role}_{i + 1}" for role, k in (("x", n), ("r", p), ("v", m)) for i in range(k)}
    # v aliases v_1
    return names | {name for name, on in (("v", m >= 1), ("tau", tau), ("eps", eps)) if on}


def bind_expression(node, allowed: set):
    """Verify every identifier is known; raises ExpressionError naming strays."""
    for var in _variables(node):
        if var.name not in allowed:
            raise ExpressionError(f"unknown symbol {var.name!r}", var.line, var.column)
    return node


def compile_expressions(texts, allowed: set):
    return tuple(bind_expression(parse_expression(text), allowed) for text in texts)


#: positional arguments whose columns bind as <role>_1, <role>_2, ...
_ARRAY_ROLES = ("x", "r", "v")
_SCALAR_ROLES = ("tau", "eps")


def _emit(node, slot: int, lines: list, consts: list) -> str:
    """Append the lines computing node (an inner node assigns _s<slot> after its
    operands, left to right, in slots from slot up); return the name holding it."""
    if isinstance(node, Num):
        consts.append(node.value)
        return f"_c{len(consts) - 1}"
    if isinstance(node, Var):
        return "v_1" if node.name == "v" else node.name  # checked by CompiledMap
    if isinstance(node, Neg):
        value = f"-{_emit(node.a, slot, lines, consts)}"
    elif isinstance(node, Bin) and node.op in ("+", "-", "*", "/"):
        a = _emit(node.a, slot, lines, consts)
        value = f"{a} {node.op} {_emit(node.b, slot + 1, lines, consts)}"
    elif isinstance(node, Call) and node.fn in _FUNCTIONS:
        args = [_emit(a, slot + i, lines, consts) for i, a in enumerate(node.args)]
        value = f"_{node.fn}({', '.join(args[:2])})"
        for arg in args[2:]:
            lines.append(f"_s{slot} = {value}")
            value = f"_{node.fn}(_s{slot}, {arg})"
    else:
        raise ValueError(f"not an expression node: {node!r}")
    lines.append(f"_s{slot} = {value}")
    return f"_s{slot}"


class CompiledMap:
    """One compiled map, called with the positional arguments named by roles.

    ``roles`` lists the arguments in call order, e.g. ("x", "r", "tau", "eps")
    for a flow map f or ("r", "v") for an aux jump map h.  An array role binds
    the columns of its last axis as x_i / r_i / v_i (plus the alias v for
    v_1); tau and eps bind as given.  The batch B is the leading shape of the
    first array argument (all axes but the last).  A tuple of expressions
    gives one output column each, written into a fresh (B, k) array; one bare
    expression gives a scalar map, a fresh (B,) array.  ``source`` is the text
    of the generated function.
    """

    def __init__(self, exprs, roles):
        self.exprs = tuple(exprs) if isinstance(exprs, (list, tuple)) else exprs
        self.roles = tuple(roles)
        arrays = [a for a in self.roles if a in _ARRAY_ROLES]
        if not arrays or len(set(self.roles)) != len(self.roles) \
                or not set(self.roles) <= {*_ARRAY_ROLES, *_SCALAR_ROLES}:
            raise ValueError(f"roles must be distinct, known and include an array role: "
                             f"{self.roles}")
        scalar = not isinstance(self.exprs, tuple)
        exprs = (self.exprs,) if scalar else self.exprs
        columns = set()  # (array role, 1-based column) pairs read
        for var in (var for expr in exprs for var in _variables(expr)):
            name = "v_1" if var.name == "v" else var.name
            role, _, idx = name.partition("_")
            column = role in _ARRAY_ROLES and idx.isascii() and idx.isdigit() and idx[0] != "0"
            if role not in self.roles or not (column or name in _SCALAR_ROLES):
                raise ExpressionError(f"unknown symbol {var.name!r}", var.line, var.column)
            if column:
                columns.add((role, int(idx)))
        lines = [f"def _map({', '.join(self.roles)}):"]
        for a in arrays:
            if a == arrays[0] or any(role == a for role, _ in columns):
                lines += [f"if {a}.__class__ is not _ndarray or {a}.dtype is not _float64"
                          f" or {a}.ndim < 2:",
                          f"    {a} = _atleast_2d(_asarray({a}, dtype=_float64))"]
        lines += [f"{a}_{i} = {a}[..., {i - 1}]" for a, i in sorted(columns)]
        batch = f"{arrays[0]}.shape[:-1]"
        lines.append(f"_out = _empty({batch if scalar else f'(*{batch}, {len(exprs)})'})")
        consts = []
        for k, expr in enumerate(exprs):
            value = _emit(expr, 0, lines, consts)
            lines.append(f"_out[{'...' if scalar else f'..., {k}'}] = {value}")
        self.source = "\n    ".join(lines + ["return _out"]) + "\n"
        scope = {"__builtins__": {}, "__name__": __name__, "_ndarray": np.ndarray,
                 "_float64": np.dtype(np.float64), "_asarray": np.asarray,
                 "_atleast_2d": np.atleast_2d, "_empty": np.empty}
        scope.update((f"_{fn}", ufunc) for fn, (_, _, ufunc) in _FUNCTIONS.items())
        scope.update((f"_c{i}", c) for i, c in enumerate(consts))
        exec(compile(self.source, f"<CompiledMap {self.roles}>", "exec"), scope)
        self._fn = scope["_map"]

    def __call__(self, *args):
        return self._fn(*args)

    def __reduce__(self):
        return CompiledMap, (self.exprs, self.roles)


def AverageField(exprs, n: int) -> CompiledMap:
    """Compiled clock-free average map f_ave(x, r) -> (B, n), one expression per x_i."""
    exprs = tuple(exprs)
    if len(exprs) != n:
        raise ValueError(f"an average map in R^{n} needs {n} expression(s), got {len(exprs)}")
    return CompiledMap(exprs, ("x", "r"))


def ScalarField(expr) -> CompiledMap:
    """Compiled scalar function of (x, r) -> (B,), e.g. a certificate candidate."""
    return CompiledMap(expr, ("x", "r"))
