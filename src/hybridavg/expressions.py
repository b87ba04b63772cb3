"""A minimal arithmetic expression language for user-defined vector fields.

Grammar: numbers, identifiers (x_i, r_i, v_i, tau, v, eps), the four infix
operators + - * / with usual precedence, unary minus, parentheses, and the
functions sin, cos, abs, min, max (two or more arguments), pow and
ifge(a, b, then, else), which is ``then`` where a >= b and ``else`` elsewhere.
Expressions parse to a small AST of plain dataclasses.  Every compiled map,
whether a flow, aux flow, jump, average map or scalar candidate, is one
CompiledMap keyed by the roles of its positional arguments.  When it is
built, a map translates its AST into the source of one Python function, one
numpy operation per distinct subtree (a repeated subtree is computed once),
and compiles it once.  The function has two bodies written from one table of
the distinct subtrees: the vectorized one, over numpy arrays, and for a batch
of at most _MAX_ROWS rows a loop over the rows in Python floats, where numpy's
per-operation cost would dominate.  Both apply the same IEEE operations, so a
row's bits do not depend on its batch or on the body; NaN signs alone differ
between Python and numpy arithmetic, so a call with a NaN output is left to
the vectorized body.  The same source holds, for a flow map of roles (x, r,
tau, eps), a third function from the same table: the fused step, the solver's
whole RK4 step of a small batch (see CompiledMap.step), whose four stages run
per row in Python floats with the row body's rules, up to a row limit of its
own that weighs the whole step.  An ifge has
the values of where(a >= b, then, else).
When its condition and both branches read an array column and it sits inside
fewer than 98 such branches, it computes each branch only for a batch in which
some row takes it; otherwise it computes both branches.  That source is made
from the AST alone: its names come from the roles and a fixed table of numpy
functions, literals, and subtrees of literals alone computed once when the
map is built, are bound as constants, and no user text is ever evaluated.
tau and eps enter a map as float64, so every subtree of them without a column,
even one of them alone, is numpy float64 arithmetic in both bodies, and so is
every quotient (a zero divisor gives inf or nan).  CompiledMap.fixed
binds tau and eps to values (a number, or an array of the batch's length) and
builds a map of the remaining roles in which every subtree of those names and
literals alone is computed once, when it is built.
Maps run over batched numpy arrays and pickle as plain data.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import struct
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np


class ExpressionError(ValueError):
    """Parse or binding failure, carrying a 1-based line/column location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


#: name -> (min args, max args or None, numpy function); min and max fold left,
#: and ifge(a, b, then, else) has the values of where(a >= b, then, else); _emit
#: computes a branch only for a batch in which some row takes it when the
#: condition and both branches read an array column and the ifge sits inside
#: fewer than _MAX_BLOCKS blocks, and both branches otherwise
_FUNCTIONS = {
    "sin": (1, 1, np.sin),
    "cos": (1, 1, np.cos),
    "abs": (1, 1, np.abs),
    "min": (2, None, np.minimum),
    "max": (2, None, np.maximum),
    "pow": (2, 2, np.power),
    "ifge": (4, 4, np.where),
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


def _children(node) -> tuple:
    if isinstance(node, (Num, Var, Neg)) or (isinstance(node, Bin) and node.op in ("+", "-", "*", "/")):
        return tuple(getattr(node, part) for part in ("a", "b") if hasattr(node, part))
    if isinstance(node, Call) and node.fn in _FUNCTIONS:
        return node.args
    raise ValueError(f"not an expression node: {node!r}")


def _variables(node) -> list:
    """Every Var of an expression tree, left to right."""
    if isinstance(node, Var):
        return [node]
    return [var for kid in _children(node) for var in _variables(kid)]


def _name(var: Var) -> str:
    return "v_1" if var.name == "v" else var.name  # v aliases v_1


#: kind is 'num' | 'ident' | 'op' | 'lparen' | 'rparen' | 'comma' | 'end'
_Token = namedtuple("_Token", "kind text line column")


#: a number: ASCII digits only, where str.isdigit also takes '²' and '٣'
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_PUNCTUATION = {"+": "op", "-": "op", "*": "op", "/": "op", "(": "lparen", ")": "rparen",
                ",": "comma"}


def _tokenize(text: str):
    tokens, line, line_start, i = [], 1, 0, 0
    while i < len(text):
        ch, column = text[i], i - line_start + 1
        if ch == "\n":
            line, line_start = line + 1, i + 1
        elif number := _NUMBER.match(text, i):
            tokens.append(_Token("num", number.group(), line, column))
            i = number.end()
            continue
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, column))
            i = j
            continue
        elif ch in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[ch], ch, line, column))
        elif ch not in " \t\r":
            raise ExpressionError(f"unexpected character {ch!r}", line, column)
        i += 1
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
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


#: compile(); a source holds no literal, so maps differing in constants share code
_compile = functools.lru_cache(maxsize=256)(compile)

#: positional arguments whose columns bind as <role>_1, <role>_2, ...
_ARRAY_ROLES = ("x", "r", "v")
_SCALAR_ROLES = ("tau", "eps")


#: nested ``if`` blocks CPython compiles in one function body
_MAX_BLOCKS = 98

#: largest batch a map computes row by row in Python floats (see CompiledMap);
#: per call on a 2-vCPU Xeon, the ES flow map's row body took 1.7 to 3.2 us at
#: 1 to 8 rows, against 4.7 to 9.0 us vectorized
_MAX_ROWS = 8

#: array operations of solver._rk4's numpy step besides its four map calls, and
#: the operations' worth of work a vectorized call does besides its own (its
#: checks, column views, tau and output); on a 2-vCPU Xeon, an operation on a
#: 12-row array took 0.7 to 1.0 us and the actuator flow's call 4.4 us
_RK4_OPS = 12
_CALL_OPS = 4

#: the operator of each Bin and Neg node, applied to float64 numbers
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "neg": operator.neg}


def _common(a: tuple, b: tuple) -> tuple:
    """The longest common prefix of two tuples."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return a[:n]


class _Rows(dict):
    """Names of subtrees in a loop over rows, which computes them in Python floats."""


def _emit(exprs, lines: list, consts: list, fixed: dict, rows=None, step=None):
    """Yield (text, whether it is a fresh array) of each tree's value over the
    batch, once the lines it reads are appended.

    Subtrees are hash-consed: they compare by structure without source
    positions, constants by their exact bits (-0.0 is not 0.0).  A subtree of
    literals and names in ``fixed`` alone is computed here, once, by the numpy
    operations a call would apply, and bound as a constant (an array where a
    fixed value is one).  An inner subtree held by two or more
    operands or columns of the distinct subtrees is computed once, into a
    name; any other is written inline, so numpy can reuse its temporaries.
    Each fold step of a variadic min or max has its own line, so calls nest no
    deeper than the tree.

    An ifge whose condition and both branches read an array column, so that
    each is a float array over the batch, computes a branch only for a batch
    in which some row takes it: its mask and the count of true rows are
    computed once, each branch's lines sit in an ``if`` block, and where both
    ran the value is where(mask, then, else), so the bits are those of where.
    Any other ifge, and one already inside _MAX_BLOCKS blocks, is
    where(a >= b, then, else).  A named subtree is computed
    in the innermost branch that holds all of its uses, before the first
    block that reads it, so no name is read unset.

    Given ``rows``, (first array role, checks, output shape or None), the
    same table first gives a row body for batches of at most the row limit
    (see CompiledMap) that pass the checks: a loop over the rows in Python floats
    (see CompiledMap) whose lazy ifge are ``if``/``else`` blocks and whose
    other ifge are ``then if a >= b else other``.  Before the loop, each
    subtree of tau, eps and literals that the loop reads is computed as the
    vectorized body computes it, in np.float64, and read through float().

    Given ``step`` as well, a list holding the header of a function
    ``(x, rs, tau, eps, dt)``, the same table writes the fused RK4 step into
    it, for the step's row limit (see CompiledMap), when the map has a row
    body and x's columns read are among the outputs' (a map of n outputs
    steps x in R^n).  The clock subtrees the row loop
    reads are computed as there, once for each of tau, tau_h and tau_f, which
    are computed as solver._rk4 computes them.  Per row, each stage's lines are
    those of the row loop, with x's columns bound to the stage state and r's
    to that stage's row of rs; then the stage states, x + half*k, x + dt*k3
    and the step's output are Python float arithmetic in _rk4's order.  The
    step returns None for a batch the checks turn away or a non-finite output.
    """
    ids, table = {}, []  # structure -> id; id -> (node, child ids)
    reads, literal = [], []  # id -> it reads an array column; it reads no name but fixed ones
    folded = {}  # id -> value of a subtree of literals and fixed names alone
    serial, fresh = itertools.count(), set()  # names of arrays allocated by the call
    depth = 0  # blocks open around the next line
    # id -> name of a constant; of a subtree over the batch, before the row loop, in it
    constant, batch, before, per_row = {}, {}, {}, _Rows()

    def intern(node) -> int:
        kids = tuple(map(intern, _children(node)))
        label = (struct.pack("<d", node.value) if isinstance(node, Num)
                 else _name(node) if isinstance(node, Var)
                 else node.fn if isinstance(node, Call) else getattr(node, "op", "-"))
        i = ids.setdefault((type(node), label, kids), len(table))
        if i == len(table):
            table.append((node, kids))
            role = label.partition("_")[0] if isinstance(node, Var) else None
            reads.append(role in _ARRAY_ROLES or any(map(reads.__getitem__, kids)))
            literal.append((role is None or label in fixed)
                           and all(map(literal.__getitem__, kids)))
        return i

    def line(text: str) -> None:
        lines.append("    " * depth + text)

    def assign(text: str) -> str:
        name = f"_t{next(serial)}"
        line(f"{name} = {text}")
        fresh.add(name)
        return name

    def is_fresh(text: str) -> bool:
        return not text.isidentifier() or text in fresh

    def fold(i: int):
        """Subtree i of literals and fixed names alone, by the float64 operations
        of a call; each subtree is computed once, however many trees hold it."""
        if i in folded:
            return folded[i]
        node, kids = table[i]
        args = [fold(kid) for kid in kids]
        if isinstance(node, Num):
            out = np.float64(node.value)
        elif isinstance(node, Var):
            out = fixed[_name(node)]
        elif not isinstance(node, Call):
            out = _OPERATORS[getattr(node, "op", "neg")](*args)
        elif node.fn == "ifge":
            out = np.where(args[0] >= args[1], *args[2:])
        else:  # min and max fold left
            fn = _FUNCTIONS[node.fn][2]
            out = functools.reduce(fn, args[2:], fn(*args[:2]))
        folded[i] = out
        return out

    def branches(i: int, names: dict) -> str:
        """The lines of lazy ifge i; the name of its value."""
        nonlocal depth
        kids = table[i][1]
        a, b = (value(kid, names)[0] for kid in kids[:2])
        for j in sorted(hoist.get(i, ())):  # shared subtrees the blocks read
            value(j, names)
        out = f"_t{next(serial)}"
        if isinstance(names, _Rows):
            for head, kid in ((f"if {a} >= {b}:", kids[2]), ("else:", kids[3])):
                line(head)
                depth += 1
                line(f"{out} = {value(kid, names)[0]}")
                depth -= 1
            return out
        mask = assign(f"{a} >= {b}")
        count = assign(f"_count_nonzero({mask})")
        line(f"if {count}:")
        depth += 1
        then = value(kids[2], names)[0]
        line(f"{out} = {then}")
        depth -= 1
        line(f"if not {count} or {count} != {mask}.size:")  # some row false, or no row
        depth += 1
        other = value(kids[3], names)[0]
        other = other if other.isidentifier() else assign(other)
        line(f"{out} = _ifge({mask}, {out}, {other}) if {count} else {other}")
        depth -= 1
        if is_fresh(then) and is_fresh(other):
            fresh.add(out)
        return out

    def value(i: int, names: dict):
        """(text, whether it is infix) of subtree i, where names is batch (the
        vectorized body), before (its np.float64 values ahead of the row loop),
        per_row (the row loop) or a stage of the fused step (a _Rows)."""
        node, kids = table[i]
        if literal[i] and i not in constant:
            if isinstance(node, Num):
                consts.append(node.value)
            else:
                with np.errstate(all="ignore"):  # a call reports a non-finite value
                    const = fold(i)
                consts.append(const if np.ndim(const) else float(const))
            constant[i] = f"_c{len(consts) - 1}"
        if i in constant or i in names or isinstance(node, Var):
            return constant.get(i) or names.get(i) or _name(node), False
        row = isinstance(names, _Rows)
        infix = not isinstance(node, Call)
        if i in lazy and depth < _MAX_BLOCKS:  # the row loop starts two blocks deep
            text = branches(i, names)
        elif not infix:
            args = [value(kid, names)[0] for kid in kids]
            if node.fn == "ifge":
                text = (f"({args[2]} if {args[0]} >= {args[1]} else {args[3]})" if row
                        else f"_ifge({args[0]} >= {args[1]}, {args[2]}, {args[3]})")
            else:
                fn = "_fabs" if row and node.fn == "abs" else f"_{node.fn}"
                text = f"{fn}({', '.join(args[:2])})"
                for arg in args[2:]:  # a min or max folds left, one line per step
                    text = f"{fn}({assign(text)}, {arg})"
        else:  # an infix operand is parenthesized
            args = [value(kid, names) for kid in kids]
            ops = [f"({text})" if paren else text for text, paren in args]
            text = (f"-{ops[0]}" if isinstance(node, Neg)
                    else f"_float(_as_float64({args[0][0]}) / {ops[1]})" if row and node.op == "/"
                    else f"{ops[0]} {node.op} {ops[1]}")
        if uses[i] > 1:
            names[i] = text if text.isidentifier() else assign(text)
            return names[i], False
        return text, infix

    def row_body(limit: int, first: str, checks: list, shape) -> None:
        """The loop over the rows of a batch of at most limit rows that passes
        checks; a row with a NaN output leaves it for the vectorized body."""
        nonlocal depth
        # a named subtree of tau and eps that the vectorized body computes in any
        # case is computed before the check, once for both bodies
        for i in range(len(table)):
            if not (reads[i] or literal[i]) and uses[i] > 1 and not region[i]:
                before[i] = value(i, batch)[0]
        line(f"if {' and '.join([f'{first}.ndim == 2 and _len({first}) <= {limit}', *checks])}:")
        depth += 1
        per_row.update((i, f"_{role}_{j}") for i, (role, j) in columns.items())
        per_row.update((i, assign(f"_float({value(i, before)[0]})")) for i in clocks)
        line("_o = []")
        lists = ", ".join(f"{role}_{j}.tolist()" for role, j in columns.values())
        line(f"for {', '.join(per_row[i] for i in columns)} in "
             f"{lists if len(columns) == 1 else f'_zip({lists})'}:")
        depth += 1
        out = [value(root, per_row)[0] for root in roots]
        out = [y if y.isidentifier() else assign(y) for y in out]
        line(f"if {' or '.join(f'{y} != {y}' for y in out)}:")
        line("    break")
        for y in out:
            line(f"_o.append({y})")
        depth -= 1
        line("else:")
        line("    _v = _array(_o)")
        if shape:
            line(f"    _v.shape = {shape}")
        line("    return _v")
        depth -= 1

    def step_body(limit: int) -> None:
        """The fused RK4 step, written into step: _rk4's step of x under this
        flow map for a batch of at most limit rows, each row's four stages in
        Python floats; it returns None for any other batch or a non-finite
        output."""
        nonlocal lines, depth
        k = len(roots)
        xs = [j for role, j in columns.values() if role == "x"]
        if max(xs, default=0) > k:  # x has one column per output
            return
        rs = [j for role, j in columns.values() if role == "r"]
        checks = ["x.__class__ is not _ndarray", "x.dtype is not _float64", "x.ndim != 2",
                  f"_len(x) > {limit}", f"x.shape[1] != {k}"]
        if rs:
            checks += ["rs.__class__ is not _ndarray", "rs.dtype is not _float64",
                       "rs.ndim != 3", "_len(rs) < 4", "rs.shape[1] != _len(x)",
                       f"rs.shape[2] < {max(rs)}"]
        scalars = {node.name: i for i, (node, _) in enumerate(table) if isinstance(node, Var)
                   and node.name in _SCALAR_ROLES}
        if scalars:
            checks += ["tau.__class__ is _ndarray", "eps.__class__ is _ndarray"]
        main, lines = lines, step
        line(f"if {' or '.join(checks)}:")
        line("    return None")
        line("_h = 0.5 * dt")
        line("_d6 = dt / 6.0")
        # the clock subtrees at tau, tau_h and tau_f, as _rk4 computes those times
        tau = scalars.get("tau")
        if tau is not None:
            for s, text in enumerate(("tau", "tau + _h / eps", "tau + dt / eps")):
                line(f"_T{s} = _as_float64({text})")
        if "eps" in scalars:
            line("eps = _as_float64(eps)")
        at = []
        for s in range(3):
            names = {} if tau is None else {tau: f"_T{s}"}
            at.append({i: assign(f"_float({value(i, names)[0]})") for i in clocks})
        line("_o = []")
        head = f"({', '.join(f'_x_{j}' for j in range(1, k + 1))},)"
        if rs:
            line("_R = rs.tolist()")
            line(f"for {head}, _q0, _q1, _q2, _q3 in _zip(x.tolist(), _R[0], _R[1], _R[2], _R[3]):")
        else:
            line(f"for {head} in x.tolist():")
        depth += 1
        state, ks = {j: f"_x_{j}" for j in xs}, []
        for s, (t, scale) in enumerate(((0, "_h"), (1, "_h"), (1, "dt"), (2, None))):
            names = _Rows(at[t])
            names.update((i, state[j] if role == "x" else f"_q{s}[{j - 1}]")
                         for i, (role, j) in columns.items())
            out = [value(root, names)[0] for root in roots]
            ks.append([y if y.isidentifier() else assign(y) for y in out])
            if scale:
                state = {j: assign(f"_x_{j} + {scale} * {ks[-1][j - 1]}") for j in xs}
        out = [assign(f"_x_{j + 1} + _d6 * ({k1} + 2.0 * ({k2} + {k3}) + {k4})")
               for j, (k1, k2, k3, k4) in enumerate(zip(*ks))]
        # y - y is 0.0 for a finite y, and NaN, which is true, for an inf or a NaN
        line(f"if {' or '.join(f'{y} - {y}' for y in out)}:")
        line("    return None")
        for y in out:
            line(f"_o.append({y})")
        depth -= 1
        line("_v = _array(_o)")
        line(f"_v.shape = (_len(x), {k})")
        line("return _v")
        lines = main

    roots = [intern(expr) for expr in exprs]
    uses = Counter(roots + [kid for _, kids in table for kid in kids])
    # the branch a subtree is computed in: a path of (lazy ifge, argument) pairs
    # from the function body, the longest that holds every use of it
    region, lazy, needs = dict.fromkeys(roots, ()), set(), []
    for i in reversed(range(len(table))):  # a node's id is above those of its kids
        node, kids = table[i]
        if literal[i]:
            continue
        if (getattr(node, "fn", None) == "ifge" and (reads[kids[0]] or reads[kids[1]])
                and reads[kids[2]] and reads[kids[3]] and len(region[i]) < _MAX_BLOCKS):
            lazy.add(i)
        for k, kid in enumerate(kids):
            need = region[i] + ((i, k),) if i in lazy and k >= 2 else region[i]
            old = region.setdefault(kid, need)
            if old != need:
                region[kid] = _common(old, need)
            if need:  # a use inside a branch, maybe of a subtree computed outside it
                needs.append((kid, need))
    hoist = {}  # lazy ifge -> subtrees computed before its blocks, read inside them
    for kid, need in needs:
        if len(need) > len(region[kid]):
            hoist.setdefault(need[len(region[kid])][0], set()).add(kid)
    ops = calls = 0  # the vectorized body's operations on columns; numpy calls in a row
    for (node, kids), r in zip(table, reads):
        if r and not isinstance(node, Var):
            fn = getattr(node, "fn", None)
            steps = len(kids) - 1 if fn in ("min", "max") else 1
            ops += steps
            # a ufunc call on scalars costs two operations, an np.float64 quotient one
            calls += 2 * steps if fn in ("sin", "cos", "pow", "min", "max") else (
                getattr(node, "op", None) == "/")
    limit = min(_MAX_ROWS, ops // (1 + calls))
    # the fused step's limit weighs a whole RK4 step (see CompiledMap)
    step_limit = min(_MAX_ROWS, (4 * (ops + _CALL_OPS) + _RK4_OPS) // (4 * (1 + calls)))
    # the columns a row loop reads, as (role, index), and the subtrees of tau,
    # eps and literals it reads, computed before it
    columns = {i: (role, int(j)) for i, (node, _) in enumerate(table)
               if reads[i] and isinstance(node, Var) for role, _, j in [_name(node).partition("_")]}
    clocks = sorted(i for i in {*roots, *itertools.chain(*hoist.values()),
                                *(kid for i, (_, kids) in enumerate(table) if reads[i]
                                  for kid in kids)}
                    if not (reads[i] or literal[i]))
    if rows and limit:
        row_body(limit, *rows)
        if step is not None:
            step_body(step_limit)
    for root in roots:
        text = value(root, batch)[0]
        yield text, is_fresh(text)
    # the recursive closures hold each other, consts and fixed in a reference
    # cycle, which only the cyclic collector would free
    intern = fold = value = branches = row_body = step_body = None


class CompiledMap:
    """One compiled map, called with the positional arguments named by roles.

    ``roles`` lists the arguments in call order, e.g. ("x", "r", "tau", "eps")
    for a flow map f or ("r", "v") for an aux jump map h.  An array role binds
    the columns of its last axis as x_i / r_i / v_i (plus the alias v for
    v_1); tau and eps, where read, bind as np.float64 of the argument (an
    array passes through uncopied).  The batch B is the leading shape of the
    first array argument (all axes but the last).  A tuple of expressions
    gives one output column each, written into a fresh (B, k) array; one bare
    expression gives a scalar map, a fresh (B,) array.  ``source`` is the text
    of the generated function.  ``bound`` maps tau or eps, where they are not
    roles, to the value fixed when the map was built (see ``fixed``).

    A map computes a batch row by row when its read array roles are 2-D
    float64 arrays of one length, tau, eps and the bound values are not
    arrays, and the batch has at most min(_MAX_ROWS, ops // (1 + calls))
    rows.  ops counts the vectorized body's numpy operations on columns, and
    calls weighs the numpy calls a row makes on them: two for each sin, cos,
    pow and min or max step, since such a call on scalars costs about what two
    operations on a short array do, and one for each np.float64 quotient.
    One row of Python arithmetic costs about what one operation does.  So a
    map of n operations among + - * abs and ifge takes up to min(_MAX_ROWS, n)
    rows, and x_1/x_2 or min(x_1, 1) has no row body.

    In the row body, columns come in as Python floats through tolist();
    + - *, unary minus, abs and >= are Python float arithmetic; / is
    np.float64's (a zero divisor gives inf or nan), its quotient read back
    through float(), so the arithmetic after it stays in Python floats; sin,
    cos, pow, min and max are the numpy ufuncs on scalars;
    an ifge is ``then if a >= b else other``, which is where's value, taking
    else at a NaN condition; and each subtree of tau, eps and literals is
    computed once per call in np.float64, as in the vectorized body, and read
    through float().  If an output is NaN, whose sign Python and numpy may
    give differently, the row results are dropped and the vectorized body
    computes the batch.  Python float arithmetic issues no numpy
    floating-point warning.

    ``step`` is the map's fused RK4 step, step(x, rs, tau, eps, dt): the
    solver's step of a (B, n) float64 x under this map as f, given its r
    stages rs[0:4], each (B, p), in the bits of solver._rk4's numpy code.  It
    runs the four stages of each row in turn, in Python floats by the row
    body's rules, computing each clock subtree once per stage time, and it
    returns a fresh (B, n) array.  It returns None, leaving the step to that
    numpy code, for a batch above its row limit or of another shape or type,
    and when an output is non-finite (a NaN, or an inf, so that the solver
    checks only numpy steps for non-finite values).  ``step`` is None unless
    the roles are (x, r, tau, eps), the map has a tuple of expressions, none
    reading a column of x past their count, and it has a row body.  The step's
    row limit, min(_MAX_ROWS, (4 * (ops + _CALL_OPS) + _RK4_OPS) // (4 * (1 +
    calls))), weighs a whole step: the numpy step's four calls, each its ops
    and _CALL_OPS more, and _rk4's _RK4_OPS array operations, against a fused
    row's four rows of the map.  It is never below the map's row limit; the
    ES flow map steps up to 8 rows fused where it takes 7 per call, and the
    actuator's 8 where it takes 2.
    """

    def __init__(self, exprs, roles, bound=None):
        self.exprs = tuple(exprs) if isinstance(exprs, (list, tuple)) else exprs
        self.roles = tuple(roles)
        self.bound = {a: np.float64(v) for a, v in (bound or {}).items()}
        arrays = [a for a in self.roles if a in _ARRAY_ROLES]
        if not arrays or len(set(self.roles)) != len(self.roles) \
                or not set(self.roles) <= {*_ARRAY_ROLES, *_SCALAR_ROLES}:
            raise ValueError(f"roles must be distinct, known and include an array role: "
                             f"{self.roles}")
        if not set(self.bound) <= set(_SCALAR_ROLES) - set(self.roles):
            raise ValueError(f"only tau and eps that are not roles can be bound: "
                             f"{sorted(self.bound)}")
        scalar = not isinstance(self.exprs, tuple)
        exprs = (self.exprs,) if scalar else self.exprs
        columns, read = set(), set()  # (array role, 1-based column) pairs read; names read
        for var in (var for expr in exprs for var in _variables(expr)):
            name = _name(var)
            role, _, idx = name.partition("_")
            column = role in _ARRAY_ROLES and idx.isascii() and idx.isdigit() and idx[0] != "0"
            if role not in (*self.roles, *self.bound) \
                    or not (column or name in _SCALAR_ROLES):
                raise ExpressionError(f"unknown symbol {var.name!r}", var.line, var.column)
            read.add(name)
            if column:
                columns.add((role, int(idx)))
        lines = [f"def _map({', '.join(self.roles)}):"]
        for a in arrays:
            if a == arrays[0] or any(role == a for role, _ in columns):
                lines += [f"if {a}.__class__ is not _ndarray or {a}.dtype is not _float64"
                          f" or {a}.ndim < 2:",
                          f"    {a} = _atleast_2d(_asarray({a}, dtype=_float64))"]
        lines += [f"{a}_{i} = {a}[..., {i - 1}]" for a, i in sorted(columns)]
        scalars = [a for a in _SCALAR_ROLES if a in read - self.bound.keys()]
        lines += [f"{a} = _as_float64({a})" for a in scalars]
        first, rows = arrays[0], None
        if not any(map(np.ndim, self.bound.values())):  # an array bound fits one batch only
            rows = (first, [*(f"{a}.ndim == 2 and _len({a}) == _len({first})"
                              for a in arrays[1:] if any(role == a for role, _ in columns)),
                            *(f"{a}.__class__ is not _ndarray" for a in scalars)],
                    None if scalar else f"(_len({first}), {len(exprs)})")
        batch = f"{first}.shape[:-1]"
        consts = []
        step = (["def _step(x, rs, tau, eps, dt):"]
                if self.roles == ("x", "r", "tau", "eps") and not scalar else None)
        values = _emit(exprs, lines, consts, self.bound, rows, step)
        shape = batch if scalar else f"(*{batch}, {len(exprs)})"
        if len(exprs) == 1:
            ((v, fresh),) = values
            if fresh:  # one column, allocated by the call: a float array over the batch
                # is the output; a copy into a second batch-sized buffer made
                # averaging's large batches 1.2x slower
                lines += [f"_v = {v}", f"if _v.__class__ is _ndarray and _v.dtype is _float64"
                          f" and _v.shape == {batch}:", f"    _v.shape = {shape}", "    return _v"]
                v = "_v"
            values = [(v, fresh)]
        for k, (value, _) in enumerate(values):
            if not k:  # below the row body; more columns are written straight into it
                lines.append(f"_out = _empty({shape})")
            lines.append(f"_out[{'...' if scalar else f'..., {k}'}] = {value}")
        self.source = "\n    ".join(lines + ["return _out"]) + "\n"
        if step and len(step) > 1:
            self.source += "\n" + "\n    ".join(step) + "\n"
        scope = {"__builtins__": {}, "__name__": __name__, "_ndarray": np.ndarray,
                 "_float64": np.dtype(np.float64), "_asarray": np.asarray,
                 "_atleast_2d": np.atleast_2d, "_empty": np.empty, "_as_float64": np.float64,
                 "_count_nonzero": np.count_nonzero, "_float": float, "_fabs": abs, "_len": len,
                 "_zip": zip, "_array": np.array}
        scope.update((f"_{fn}", ufunc) for fn, (_, _, ufunc) in _FUNCTIONS.items())
        scope.update((f"_c{i}", c) for i, c in enumerate(consts))
        exec(_compile(self.source, f"<CompiledMap {self.roles}>", "exec"), scope)
        # left in scope, their own globals, they would be a reference cycle
        self._fn, self.step = scope.pop("_map"), scope.pop("_step", None)

    def __call__(self, *args):
        return self._fn(*args)

    def fixed(self, **values) -> "CompiledMap":
        """This map with the scalar roles named in values (tau, eps) bound to them.

        The result is a map over the remaining roles in which every subtree of
        bound names and literals alone is computed once, now, by the numpy
        operations a call would apply, so its bits are those of a call given
        the values.  An array value fits only batches of its length.
        """
        return CompiledMap(self.exprs, [a for a in self.roles if a not in values],
                           {**self.bound, **values})

    def __reduce__(self):
        return CompiledMap, (self.exprs, self.roles, self.bound)


def AverageField(exprs, n: int) -> CompiledMap:
    """Compiled clock-free average map f_ave(x, r) -> (B, n), one expression per x_i."""
    exprs = tuple(exprs)
    if len(exprs) != n:
        raise ValueError(f"an average map in R^{n} needs {n} expression(s), got {len(exprs)}")
    return CompiledMap(exprs, ("x", "r"))


def ScalarField(expr) -> CompiledMap:
    """Compiled scalar function of (x, r) -> (B,), e.g. a certificate candidate."""
    return CompiledMap(expr, ("x", "r"))
