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
and compiles it once.  An ifge has the values of where(a >= b, then, else).
When its condition and both branches read an array column and it sits inside
fewer than 98 such branches, it computes each branch only for a batch in which
some row takes it; otherwise it computes both branches.  That source is made
from the AST alone: its names come from the roles and a fixed table of numpy
functions, literals, and subtrees of literals alone computed once when the
map is built, are bound as constants, and no user text is ever evaluated.
tau and eps enter a map as float64, so every subtree, even one of them alone,
is numpy float64 arithmetic (a zero divisor gives inf or nan).  CompiledMap.fixed
binds tau and eps to values (a number, or an array of the batch's length) and
builds a map of the remaining roles in which every subtree of those names and
literals alone is computed once, when it is built.
Maps run vectorized over batched numpy arrays and pickle as plain data.
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

#: the operator of each Bin and Neg node, applied to float64 numbers
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "neg": operator.neg}


def _common(a: tuple, b: tuple) -> tuple:
    """The longest common prefix of two tuples."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return a[:n]


def _emit(exprs, lines: list, consts: list, fixed: dict):
    """Yield (text, whether it is a fresh array) of each tree's value, once the
    lines it reads are appended.

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
    """
    ids, table, names = {}, [], {}  # structure -> id; id -> (node, child ids); id -> name
    reads, literal = [], []  # id -> it reads an array column; it reads no name but fixed ones
    folded = {}  # id -> value of a subtree of literals and fixed names alone
    serial, fresh = itertools.count(), set()  # names of arrays allocated by the call
    depth = 0  # blocks open around the next line

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

    def branches(i: int) -> str:
        """The lines of lazy ifge i; the name of its value."""
        nonlocal depth
        kids = table[i][1]
        a, b = (value(kid)[0] for kid in kids[:2])
        for j in sorted(hoist.get(i, ())):  # shared subtrees the blocks read
            value(j)
        mask = assign(f"{a} >= {b}")
        count = assign(f"_count_nonzero({mask})")
        out = f"_t{next(serial)}"
        line(f"if {count}:")
        depth += 1
        then = value(kids[2])[0]
        line(f"{out} = {then}")
        depth -= 1
        line(f"if not {count} or {count} != {mask}.size:")  # some row false, or no row
        depth += 1
        other = value(kids[3])[0]
        other = other if other.isidentifier() else assign(other)
        line(f"{out} = _ifge({mask}, {out}, {other}) if {count} else {other}")
        depth -= 1
        if is_fresh(then) and is_fresh(other):
            fresh.add(out)
        return out

    def value(i: int):
        """(text, whether it is infix) of subtree i."""
        node, kids = table[i]
        if literal[i] and i not in names:
            if isinstance(node, Num):
                consts.append(node.value)
            else:
                with np.errstate(all="ignore"):  # a call reports a non-finite value
                    const = fold(i)
                consts.append(const if np.ndim(const) else float(const))
            names[i] = f"_c{len(consts) - 1}"
        if i in names or isinstance(node, Var):
            return names.get(i) or _name(node), False
        args = [] if i in lazy else [value(kid) for kid in kids]
        infix = not isinstance(node, Call)
        if i in lazy:
            text = branches(i)
        elif not infix:
            args = [text for text, _ in args]
            if node.fn == "ifge":
                text = f"_ifge({args[0]} >= {args[1]}, {args[2]}, {args[3]})"
            else:
                text = f"_{node.fn}({', '.join(args[:2])})"
                for arg in args[2:]:  # a min or max folds left, one line per step
                    text = f"_{node.fn}({assign(text)}, {arg})"
        else:  # an infix operand is parenthesized
            ops = [f"({text})" if paren else text for text, paren in args]
            text = f"-{ops[0]}" if isinstance(node, Neg) else f"{ops[0]} {node.op} {ops[1]}"
        if uses[i] > 1:
            names[i] = text if text.isidentifier() else assign(text)
            return names[i], False
        return text, infix

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
    for root in roots:
        text = value(root)[0]
        yield text, is_fresh(text)
    # the recursive closures hold each other, consts and fixed in a reference
    # cycle, which only the cyclic collector would free
    intern = fold = value = branches = None


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
        lines += [f"{a} = _as_float64({a})" for a in _SCALAR_ROLES if a in read - self.bound.keys()]
        batch = f"{arrays[0]}.shape[:-1]"
        consts = []
        values = _emit(exprs, lines, consts, self.bound)
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
        lines.append(f"_out = _empty({shape})")  # more columns are written straight into it
        for k, (value, _) in enumerate(values):
            lines.append(f"_out[{'...' if scalar else f'..., {k}'}] = {value}")
        self.source = "\n    ".join(lines + ["return _out"]) + "\n"
        scope = {"__builtins__": {}, "__name__": __name__, "_ndarray": np.ndarray,
                 "_float64": np.dtype(np.float64), "_asarray": np.asarray,
                 "_atleast_2d": np.atleast_2d, "_empty": np.empty, "_as_float64": np.float64,
                 "_count_nonzero": np.count_nonzero}
        scope.update((f"_{fn}", ufunc) for fn, (_, _, ufunc) in _FUNCTIONS.items())
        scope.update((f"_c{i}", c) for i, c in enumerate(consts))
        exec(_compile(self.source, f"<CompiledMap {self.roles}>", "exec"), scope)
        self._fn = scope.pop("_map")  # left in scope, its own globals, it is a reference cycle

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
