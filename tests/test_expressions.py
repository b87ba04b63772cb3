import functools
import gc
import math
import operator
import pickle
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg import solver
from hybridavg.expressions import (
    _MAX_ROWS,
    AverageField,
    Bin,
    Call,
    CompiledMap,
    ExpressionError,
    MAX_DEPTH,
    Neg,
    Num,
    ScalarField,
    Var,
    allowed_names,
    bind_expression,
    compile_expressions,
    parse_expression,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UFUNCS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "pow": np.power,
           "min": np.minimum, "max": np.maximum}


def _ifge(a, b, then, other):
    return np.where(a >= b, then, other)


def reference(node, env):
    """Evaluate an AST by walking the tree, one numpy operation per node.

    A literal is a float64 scalar, and reference_map binds a number given for
    tau or eps as one, so 0/0 or eps/(tau - tau) is nan or inf, as in a
    compiled map, not a ZeroDivisionError.
    """
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -reference(node.a, env)
    if isinstance(node, Bin):
        return _OPS[node.op](reference(node.a, env), reference(node.b, env))
    vals = [reference(a, env) for a in node.args]
    if node.fn == "ifge":
        return _ifge(*vals)
    return functools.reduce(_UFUNCS[node.fn], vals) if len(vals) > 1 else _UFUNCS[node.fn](vals[0])


def reference_map(exprs, roles, *args):
    """A compiled map's value by the reference walk: columns bound, broadcast, stacked."""
    env, batch = {}, None
    for role, arg in zip(roles, args):
        if role not in ("x", "r", "v"):
            env[role] = np.float64(arg) if np.ndim(arg) == 0 else arg
            continue
        arg = np.atleast_2d(np.asarray(arg, dtype=float))
        batch = arg.shape[:-1] if batch is None else batch
        env.update((f"{role}_{i + 1}", arg[..., i]) for i in range(arg.shape[-1]))
        if role == "v":
            env["v"] = arg[..., 0]

    def column(expr):
        return np.broadcast_to(np.asarray(reference(expr, env), dtype=float), batch)

    if not isinstance(exprs, tuple):
        return column(exprs)
    return np.stack([column(e) for e in exprs], axis=-1)


def ev(text, **env):
    return reference(parse_expression(text), env)


class TestParsing:
    def test_precedence_and_associativity(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("2/4/2") == 0.25
        assert ev("1 - 2 - 3") == -4.0
        assert ev("-(2 + 3)*2") == -10.0

    def test_unary_minus_binds_tight(self):
        assert ev("-2*3") == -6.0
        assert ev("--2") == 2.0

    def test_scientific_notation(self):
        assert ev("1.5e-3") == 1.5e-3
        assert ev("2.5E2") == 250.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("abs(-3)") == 3.0
        assert ev("min(3, 1, 2)") == 1.0
        assert ev("max(3, 1, 2)") == 3.0
        assert ev("pow(2, 10)") == 1024.0
        assert ev("ifge(2, 2, 5, 7)") == 5.0 and ev("ifge(1, 2, 5, 7)") == 7.0

    def test_variables(self):
        assert ev("x_1*2 + r_1", x_1=3.0, r_1=0.5) == 6.5

    def test_vectorized_evaluation(self):
        x = np.array([1.0, 2.0, 3.0])
        out = ev("-x_1*(1 + sin(tau))", x_1=x, tau=np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(out, [-1.0, -2.0, -6.0])


class TestErrors:
    def test_syntax_error_carries_location(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x_1 + * 2")
        assert "column 7" in str(err.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError, match="'%'"):
            parse_expression("1 % 2")

    @pytest.mark.parametrize("text, column", [("-x_1*\u00b2", 6), ("x_1 + \u0663", 7),
                                              ("1.\u0663", 3), ("2e\u00b3", 2)],
                             ids=["superscript-two", "arabic-indic-three", "after-dot",
                                  "exponent"])
    def test_only_ascii_digits_make_numbers(self, text, column):
        # str.isdigit accepts these: they once reached float() as a bare
        # ValueError, or were read as the digit they stand for
        with pytest.raises(ExpressionError, match=f"^line 1, column {column}: "):
            parse_expression(text)

    @pytest.mark.parametrize("text", [
        "-" * (MAX_DEPTH - 1) + "x_1",
        "(" * MAX_DEPTH + "x_1" + ")" * MAX_DEPTH,
        "+".join(["x_1"] * MAX_DEPTH),
        "sin(" * (MAX_DEPTH - 1) + "x_1" + ")" * (MAX_DEPTH - 1),
        "min(" + ", ".join(f"x_1 * {k}" for k in range(300)) + ")",
        "ifge(x_1, 0.25, " * (MAX_DEPTH - 2) + "x_1" + ", -x_1)" * (MAX_DEPTH - 2),
        "ifge(x_1, 0.25, -x_1, " * (MAX_DEPTH - 2) + "x_1" + ")" * (MAX_DEPTH - 2),
        "ifge(x_1, 0.25, " * (MAX_DEPTH - 1) + "x_1" + ", x_1)" * (MAX_DEPTH - 1)],
        ids=["signs", "parentheses", "sum", "calls", "min-300", "ifge-chain",
             "ifge-else-chain", "ifge-chain-99"])
    def test_tree_at_the_nesting_limit_compiles_and_pickles(self, text):
        # a fold of min written as nested calls once passed Python's limit of
        # 200 nested parentheses
        fmap = CompiledMap((parse_expression(text),), ("x",))
        copy = pickle.loads(pickle.dumps(fmap))
        x = np.array([[0.5]])
        assert np.array_equal(copy(x), fmap(x))

    @pytest.mark.parametrize("text, column, what", [
        ("-" * MAX_DEPTH + "x_1", 1, "expression nested"),
        ("(" * (MAX_DEPTH + 1) + "x_1" + ")" * (MAX_DEPTH + 1), MAX_DEPTH + 1,
         "parentheses nested"),
        ("+".join(["x_1"] * (MAX_DEPTH + 1)), 4 * MAX_DEPTH, "expression nested")],
        ids=["signs", "parentheses", "sum"])
    def test_one_level_past_the_nesting_limit_is_an_error(self, text, column, what):
        # deeper input once recursed until Python's recursion limit
        with pytest.raises(ExpressionError,
                           match=f"^line 1, column {column}: {what} more than {MAX_DEPTH} "):
            parse_expression(text)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="tan"):
            parse_expression("tan(1)")

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError, match="pow"):
            parse_expression("pow(2)")
        with pytest.raises(ExpressionError, match="'ifge' takes 4 argument"):
            parse_expression("ifge(x_1, 0, 1)")

    def test_unknown_symbol_named_with_location(self):
        node = parse_expression("x_1 + y")
        with pytest.raises(ExpressionError) as err:
            bind_expression(node, allowed_names(n=1, tau=True))
        assert "'y'" in str(err.value)
        assert "column 7" in str(err.value)

    def test_v_alias_requires_noise_dim(self):
        node = parse_expression("v + 1")
        bind_expression(node, allowed_names(m=1))  # fine
        with pytest.raises(ExpressionError, match="'v'"):
            bind_expression(node, allowed_names(n=1))


class TestCompiledFields:
    def test_flow_field_shapes(self):
        exprs = compile_expressions(["-x_1*(1 + sin(tau))"], allowed_names(n=1, p=1, tau=True, eps=True))
        f = CompiledMap(exprs, ("x", "r", "tau", "eps"))
        x = np.array([[1.0], [2.0]])
        r = np.zeros((2, 1))
        out = f(x, r, 0.0, 0.01)
        assert out.shape == (2, 1)
        assert np.allclose(out, -x)

    def test_constant_expression_broadcasts(self):
        exprs = compile_expressions(["1"], allowed_names(p=1))
        w = CompiledMap(exprs, ("r",))
        assert np.array_equal(w(np.zeros((5, 1))), np.ones((5, 1)))

    def test_scalar_field(self):
        exprs = compile_expressions(["pow(x_1, 2)"], allowed_names(n=1, p=1))
        V = ScalarField(exprs[0])
        out = V(np.array([[2.0], [-3.0]]), np.zeros((2, 1)))
        assert np.array_equal(out, np.array([4.0, 9.0]))

    def test_compiled_fields_pickle_round_trip(self):
        exprs = compile_expressions(["-x_1*(1 + sin(tau))"],
                                    allowed_names(n=1, p=1, tau=True, eps=True))
        f = CompiledMap(exprs, ("x", "r", "tau", "eps"))
        g = pickle.loads(pickle.dumps(f))
        x = np.array([[1.7]])
        r = np.zeros((1, 1))
        assert np.array_equal(f(x, r, 2.3, 0.01), g(x, r, 2.3, 0.01))


# one compiled-map type for every role: n = 2, p = 1, m = 2
DIMS = {"x": 2, "r": 1, "v": 2}
ROLES = {
    "f": ("x", "r", "tau", "eps"),
    "w": ("r",),
    "g": ("x", "r", "v"),
    "h": ("r", "v"),
    "favg": ("x", "r"),
    "V": ("x", "r"),
}


def _names(roles):
    return allowed_names(*(DIMS[a] if a in roles else 0 for a in "xrv"),
                         tau="tau" in roles, eps="eps" in roles)


def _compiled(role, texts):
    """The compiled map of a role; V takes one bare expression, the others a tuple."""
    roles = ROLES[role]
    exprs = compile_expressions(texts, _names(roles))
    return CompiledMap(exprs[0] if role == "V" else exprs, roles)


def _args(role, batch):
    rng = np.random.default_rng(batch)
    return [rng.normal(size=(batch, DIMS[a])) if a in DIMS
            else (np.linspace(0.0, 1.0, batch) if a == "tau" else 0.01)
            for a in ROLES[role]]


def _shape(role, batch):
    return (batch,) if role == "V" else (batch, DIMS[ROLES[role][0]])


class TestCompiledMap:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("role", list(ROLES))
    def test_shape_and_values(self, role, batch):
        # output column i is (i + 1) times the sum of every bound name
        names = sorted(_names(ROLES[role]))
        k = 1 if role == "V" else DIMS[ROLES[role][0]]
        fmap = _compiled(role, [f"{i + 1} * ({' + '.join(names)})" for i in range(k)])
        args = _args(role, batch)
        out = fmap(*args)
        assert out.shape == _shape(role, batch)
        total = sum(a.sum(axis=1) if np.ndim(a) == 2 else a for a in args)
        if "v" in ROLES[role]:
            total = total + args[ROLES[role].index("v")][:, 0]  # the alias v
        want = total if role == "V" else total[:, None] * np.arange(1, k + 1)
        assert np.allclose(out, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("role", ["g", "h"])
    def test_v_aliases_v_1(self, role):
        k = DIMS[ROLES[role][0]]
        fmap = _compiled(role, ["v - v_1"] * k)
        args = _args(role, 4)
        args[ROLES[role].index("v")][:, 1] = np.nan  # v_2 is not the alias
        assert np.array_equal(fmap(*args), np.zeros((4, k)))

    @pytest.mark.parametrize("role", list(ROLES))
    def test_constant_expression_broadcasts(self, role):
        k = 1 if role == "V" else DIMS[ROLES[role][0]]
        out = _compiled(role, ["2.5"] * k)(*_args(role, 3))
        assert np.array_equal(out, np.full(_shape(role, 3), 2.5))

    @pytest.mark.parametrize("text, tau, want", [
        ("1 + 0/0", 0.7, np.nan), ("1/0", 0.7, np.inf), ("-1/0 + x_1", 0.7, -np.inf),
        ("eps/0", 0.7, np.inf), ("1/tau", 0.0, np.inf), ("tau/-0.0", 0.7, -np.inf),
        ("x_1 + eps/(tau - tau)", 0.3, np.inf), ("1/tau", 0, np.inf)])
    def test_quotient_of_numbers_is_ieee_not_an_error(self, text, tau, want):
        # literals are numbers, not arrays, and so are tau and eps given as
        # Python floats or ints; a map binds tau and eps as float64
        fmap = CompiledMap(compile_expressions([text], _names(ROLES["f"]))[0], ROLES["f"])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fmap(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros((2, 1)), tau, 0.01)
        assert np.array_equal(out, np.full(2, want), equal_nan=True)

    @pytest.mark.parametrize("role", list(ROLES))
    def test_pickle_round_trip(self, role):
        k = 1 if role == "V" else DIMS[ROLES[role][0]]
        names = sorted(_names(ROLES[role]))
        fmap = _compiled(role, [" * ".join(names)] * k)
        copy = pickle.loads(pickle.dumps(fmap))
        args = _args(role, 3)
        assert copy.roles == fmap.roles
        assert np.array_equal(copy(*args), fmap(*args))

    def test_multi_axis_batch_binds_columns_of_the_last_axis(self):
        fmap = _compiled("f", ["x_1 - 2 * x_2 + r_1", "tau"])
        x = np.arange(12.0).reshape(2, 3, 2)
        tau = np.arange(6.0).reshape(2, 3)
        out = fmap(x, np.full((2, 3, 1), 0.5), tau, 0.01)
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out[..., 0], x[..., 0] - 2 * x[..., 1] + 0.5)
        assert np.array_equal(out[..., 1], tau)

    def test_named_constructors_build_the_one_type(self):
        exprs = compile_expressions(["-x_1", "r_1"], allowed_names(n=2, p=1))
        favg = AverageField(exprs, 2)
        V = ScalarField(exprs[0])
        assert type(favg) is CompiledMap and type(V) is CompiledMap
        assert favg.roles == V.roles == ("x", "r")
        x, r = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5], [0.25]])
        assert np.array_equal(favg(x, r), np.array([[-1.0, 0.5], [-3.0, 0.25]]))
        assert np.array_equal(V(x, r), np.array([-1.0, -3.0]))

    def test_average_field_needs_one_expression_per_x_coordinate(self):
        # two expressions with n = 1 once built a map returning (B, 2)
        exprs = compile_expressions(["-x_1", "r_1"], allowed_names(n=1, p=1))
        with pytest.raises(ValueError, match="needs 1 expression"):
            AverageField(exprs, 1)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _trees(names):
    """ASTs over the given names with every operator and function, n-ary min/max,
    and subtrees that repeat, at equal or at different source positions."""
    leaves = st.one_of(st.sampled_from(sorted(names)).map(Var),
                       st.sampled_from(sorted(names)).map(lambda name: Var(name, 1, 9)),
                       st.floats(-4.0, 4.0).map(Num),
                       st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e999]).map(Num))

    def inner(kids):
        return st.one_of(
            kids.map(Neg),
            st.builds(Bin, st.sampled_from(sorted(_OPS)), kids, kids),
            st.builds(lambda fn, a: Call(fn, (a,)), st.sampled_from(["sin", "cos", "abs"]), kids),
            st.builds(lambda a, b: Call("pow", (a, b)), kids, kids),
            st.builds(lambda fn, args: Call(fn, tuple(args)), st.sampled_from(["min", "max"]),
                      st.lists(kids, min_size=2, max_size=4)),
            st.builds(lambda args: Call("ifge", tuple(args)), st.lists(kids, min_size=4,
                                                                       max_size=4)),
            # a repeated subtree: computed once into a name
            st.builds(lambda op, a: Bin(op, a, Neg(a)), st.sampled_from(sorted(_OPS)), kids),
            st.builds(lambda a, b: Call("ifge", (a, b, Bin("*", a, b), a)), kids, kids))

    return st.recursive(leaves, inner, max_leaves=10)


class TestGeneratedCode:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), role=st.sampled_from(sorted(ROLES)),
           batch=st.sampled_from([1, 2, 8, 9, 100, 500]), tau=st.sampled_from(["rows", 0.7, 0.0]))
    def test_generated_map_matches_reference_bit_for_bit(self, data, role, batch, tau):
        # batches of up to _MAX_ROWS rows are computed row by row in Python floats
        roles = ROLES[role]
        k = 1 if role == "V" else DIMS[roles[0]]
        trees = data.draw(st.lists(_trees(_names(roles)), min_size=k, max_size=k))
        exprs = trees[0] if role == "V" else tuple(trees)
        args = _args(role, batch)
        if "tau" in roles and tau != "rows":
            args[roles.index("tau")] = tau  # a scalar tau, shared by every row
        with np.errstate(all="ignore"):  # a quotient of numbers such as 1/tau is inf
            want = reference_map(exprs, roles, *args)
            got = CompiledMap(exprs, roles)(*args)
        assert _same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), role=st.sampled_from(sorted(ROLES)),
           tau=st.sampled_from(["rows", 0.7, 0.0]))
    def test_batch_rows_equal_lone_rows_and_reruns_bit_for_bit(self, data, role, tau):
        # the map contract every solver memo and lockstep group relies on: each
        # row sees the IEEE operations it would see alone, and a call is pure
        roles = ROLES[role]
        k = 1 if role == "V" else DIMS[roles[0]]
        trees = data.draw(st.lists(_trees(_names(roles)), min_size=k, max_size=k))
        args = _args(role, 64)
        if "tau" in roles and tau != "rows":
            args[roles.index("tau")] = tau
        with np.errstate(all="ignore"):  # a quotient of numbers such as 1/tau is inf
            fmap = CompiledMap(trees[0] if role == "V" else tuple(trees), roles)
            batch = fmap(*args)
            assert _same_bits(fmap(*args), batch)
            for i in range(batch.shape[0]):
                lone = fmap(*(a[i:i + 1] if np.ndim(a) else a for a in args))
                assert _same_bits(lone, batch[i:i + 1])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), role=st.sampled_from(["favg", "V"]),
           batch=st.sampled_from([1, 64, 500]),
           mask=st.sampled_from(["all-true", "all-false", "mixed", "nan"]))
    def test_lazy_ifge_matches_where_bit_for_bit(self, data, role, batch, mask):
        # ifge(x_1 + 0, c, then, else) with branches that read a column computes
        # a branch only where some row takes it; nested ifge in the drawn trees
        # get masks of their own
        roles = ROLES[role]
        trees = _trees(_names(roles))
        then, other = (Bin("-", data.draw(trees), Var("x_2")) for _ in range(2))
        c = {"all-true": -1.0, "all-false": 2.0, "mixed": 0.5, "nan": 0.5}[mask]
        root = Call("ifge", (Bin("+", Var("x_1"), Num(0.0)), Num(c), then, other))
        exprs = root if role == "V" else (root, data.draw(trees))
        x, r = _args(role, batch)
        x[:, 0] = np.linspace(0.0, 1.0, batch)
        if mask == "nan":
            x[::3, 0] = np.nan  # a NaN condition is false, as in where
        fmap = CompiledMap(exprs, roles)
        assert "_count_nonzero" in fmap.source
        with np.errstate(all="ignore"):
            assert _same_bits(fmap(x, r), reference_map(exprs, roles, x, r))

    @pytest.mark.parametrize("text", ["ifge(x_1, 2, -r_1, -x_1)", "ifge(x_1, 2, r_1, x_1)"])
    def test_lazy_ifge_on_an_empty_batch(self, text):
        fmap = CompiledMap(compile_expressions([text], allowed_names(n=1, p=1)), ("x", "r"))
        assert fmap(np.empty((0, 1)), np.empty((0, 1))).shape == (0, 1)

    def test_literal_subtrees_are_computed_once_when_the_map_is_built(self):
        # the inner sum is a nan; in Python float arithmetic per call, its sum
        # with its negation gave nans of either sign between calls
        tree = parse_expression("(1e999 + -1e999) + -(1e999 + -1e999) + x_1")
        fmap = CompiledMap((tree,), ("x",))
        x = np.array([[0.5]])
        with np.errstate(invalid="ignore"):
            want = reference_map((tree,), ("x",), x)
        signs = {bool(np.signbit(fmap(x)[0, 0])) for _ in range(20_000)}
        assert signs == {bool(np.signbit(want[0, 0]))}

    def test_a_nan_row_takes_the_vectorized_body(self):
        # CPython gives the sum of two nans the sign of either, depending on
        # whether it has specialized the add; a row with a nan output is left
        # to the vectorized body, whose nan has one sign
        tree = parse_expression("(x_1*1e999) + -(x_1*1e999) + x_1")
        fmap = CompiledMap((tree,), ("x",))
        with np.errstate(invalid="ignore"):
            signs = {bool(np.signbit(fmap(np.zeros((1, 1)))[0, 0])) for _ in range(20_000)}
            wide = fmap(np.zeros((_MAX_ROWS + 1, 1)))
        assert signs == {bool(np.signbit(wide[0, 0]))}

    def test_small_batches_have_a_row_body(self):
        es = ha.load_system(str(CONFIGS / "es.cfg"))
        # the solver steps the ES flow at 1 to 5 rows
        assert "_array(_o)" in es.f.source and "_len(x) <= 7" in es.f.source
        # a map without an operation on a column, or bound to an array, has none
        assert "_array(_o)" not in es.w.source and "_array(_o)" not in es.h.source
        fixed = es.f.fixed(tau=np.linspace(0.0, 1.0, 3), eps=0.1)
        assert "_array(_o)" not in fixed.source
        assert "_array(_o)" in es.f.fixed(tau=0.5, eps=0.1).source
        # nor a map whose numpy calls in a row cost more than the operations it saves
        for text in ("min(x_1, 1)", "x_1/x_2"):
            assert "_array(_o)" not in CompiledMap(parse_expression(text), ("x",)).source

    @pytest.mark.parametrize("scalar", ["tau", "eps"])
    def test_subtrees_of_tau_or_eps_alone_are_float64_arithmetic(self, scalar):
        # the inner product is a nan at 0; in Python float arithmetic per call,
        # its sum with its negation gave nans of either sign between calls
        tree = parse_expression(f"({scalar}*1e999) + -({scalar}*1e999) + x_1")
        fmap = CompiledMap((tree,), ("x", "tau", "eps"))
        x = np.linspace(-1.0, 1.0, 8)[:, None]
        with np.errstate(invalid="ignore"):
            signs = {bool(np.signbit(fmap(x[:1], 0.0, 0.0)[0, 0])) for _ in range(20_000)}
            batch = fmap(x, 0.0, 0.0)
            lone = [fmap(x[i:i + 1], 0.0, 0.0) for i in range(len(x))]
        assert len(signs) == 1
        assert all(_same_bits(row, batch[i:i + 1]) for i, row in enumerate(lone))

    @pytest.mark.parametrize("text", ["2.5", "x_1", "r_1", "-x_1", "ifge(x_1, 2, r_1, x_1)",
                                      "ifge(x_1, 2, -x_1, r_1)", "ifge(x_1, 2, -r_1, -x_1)"])
    @pytest.mark.parametrize("scalar", [True, False])
    def test_output_is_fresh_and_never_aliases_an_input(self, text, scalar):
        exprs = compile_expressions([text], allowed_names(n=1, p=1))
        fmap = CompiledMap(exprs[0] if scalar else exprs, ("x", "r"))
        # x_1 >= 2 in some, every or no row: a branch that is an input's column
        # is copied when it alone is taken
        for x_1 in ([1.5, 2.5], [2.5, 3.5], [0.5, 1.5]):
            x, r = np.array(x_1)[:, None], np.array([[0.25], [0.75]])
            out = fmap(x, r)
            assert out.flags.writeable and out.flags.owndata
            assert not np.shares_memory(out, x) and not np.shares_memory(out, r)
            out[...] = -9.0
            assert np.array_equal(x[:, 0], x_1) and np.array_equal(r, [[0.25], [0.75]])
            assert not np.shares_memory(fmap(x, r), out)

    @pytest.mark.parametrize("text,roles", [
        ("y", ("x", "r")),
        ("tau", ("r",)),
        ("v", ("x", "r")),
        ("r_1", ("x", "tau")),
        ("x", ("x", "r")),
        ("x_0", ("x", "r")),
        ("x_01", ("x", "r")),
        ("x_1_2", ("x", "r")),
        ("tau_1", ("x", "tau")),
    ])
    def test_unbound_name_fails_when_the_map_is_built(self, text, roles):
        with pytest.raises(ExpressionError, match="unknown symbol") as err:
            CompiledMap((parse_expression(f"1 + {text}"),), roles)
        assert "column 5" in str(err.value)

    @pytest.mark.parametrize("roles", [("x", "x"), ("tau", "eps"), ("x", "y")])
    def test_roles_must_be_distinct_known_and_include_an_array(self, roles):
        with pytest.raises(ValueError, match="roles"):
            CompiledMap((Num(1.0),), roles)

    @pytest.mark.parametrize("exprs", [
        (Bin("^", Var("x_1"), Num(2.0)),), 3.0, (Neg(object()),), (Call("exp", (Var("x_1"),)),),
    ], ids=["unknown-operator", "bare-float", "object", "unknown-function"])
    def test_a_hand_built_non_node_fails_when_the_map_is_built(self, exprs):
        # the parser makes no such node; a tree built by hand is checked all the same
        with pytest.raises(ValueError, match="^not an expression node: "):
            CompiledMap(exprs, ("x",))

    def test_literals_are_bound_not_spliced(self):
        exprs = compile_expressions(["1e999 - x_1", "-1e999"], allowed_names(n=2))
        fmap = CompiledMap(exprs, ("x",))
        assert "1e999" not in fmap.source and "inf" not in fmap.source
        assert np.array_equal(fmap(np.zeros((2, 2))), [[np.inf, -np.inf]] * 2)

    def test_constants_are_shared_by_their_bits(self):
        # -0.0 == 0.0, but x / -0.0 is not x / 0.0
        exprs = (Bin("/", Var("x_1"), Num(-0.0)), Bin("/", Var("x_1"), Num(0.0)), Num(0.0))
        fmap = CompiledMap(exprs, ("x",))
        with np.errstate(divide="ignore"):
            assert np.array_equal(fmap(np.ones((2, 1))), [[-np.inf, np.inf, 0.0]] * 2)
        assert "_c1" in fmap.source and "_c2" not in fmap.source

    def test_a_repeated_subtree_is_computed_once(self):
        text = "ifge(abs(x_1), 0.5, sin(tau) * sin(tau), abs(x_1) * (sin(tau) * sin(tau)))"
        fmap = _compiled("f", [text, "sin(tau) - x_2"])
        assert fmap.source.count("_sin(tau)") == 1 and fmap.source.count("_abs(x_1)") == 1
        args = _args("f", 50)
        assert _same_bits(fmap(*args), reference_map(fmap.exprs, ROLES["f"], *args))

    @pytest.mark.parametrize("tau", [0.3, "rows"])
    def test_columns_are_written_straight_into_the_output(self, tau):
        # each column was once computed into its own batch-sized array and then
        # copied: four batch-sized buffers live at the peak instead of three
        fmap = _compiled("f", ["-(x_1*(1.0 + sin(tau)))", "-(x_2*(1.0 + cos(tau)))"])
        batch = 35_000  # past numpy's threshold for reusing temporaries in place
        x = np.random.default_rng(5).normal(size=(batch, 2))
        tau = np.linspace(0.0, 1.0, batch) if tau == "rows" else tau
        args = (x, np.zeros((batch, 1)), tau, 0.0)
        tracemalloc.start()
        try:
            out = fmap(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (batch * 8) < 3.5
        assert _same_bits(out, reference_map(fmap.exprs, ROLES["f"], *args))

    def test_pickle_regenerates_an_equal_function(self):
        exprs = compile_expressions(["max(x_1, r_1, -v) * pow(abs(v_2), 0.5)", "cos(v)"],
                                    allowed_names(n=2, p=1, m=2))
        fmap = CompiledMap(exprs, ("x", "r", "v"))
        copy = pickle.loads(pickle.dumps(fmap))
        assert copy.exprs == fmap.exprs and copy.roles == fmap.roles
        assert copy.source == fmap.source
        args = _args("g", 7)
        assert _same_bits(copy(*args), fmap(*args))
        assert _same_bits(copy(*args), reference_map(exprs, ("x", "r", "v"), *args))


def _row_limit(fmap) -> int:
    """The largest batch fmap's fused step takes, read from its source."""
    return int(re.search(r"_len\(x\) > (\d+)", fmap.source).group(1))


def _numpy_rk4(fmap, x, rs, tau, eps, dt):
    """_rk4's numpy step: a plain callable f has no fused step."""
    return solver._rk4(types.SimpleNamespace(f=lambda *args: fmap(*args), epsilon=eps),
                       x, rs, tau, dt)[0]


#: values a row may hold besides normal draws
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


class TestFusedStep:
    """A flow map's fused RK4 step against _rk4's numpy step, bit for bit."""

    def _check(self, fmap, x, rs, tau, eps, dt):
        with np.errstate(all="ignore"):  # a quotient of numbers such as 1/tau is inf
            want = _numpy_rk4(fmap, x, rs, tau, eps, dt)
            fused = fmap.step(x, rs, tau, eps, dt)
            got, finite = solver._rk4(types.SimpleNamespace(f=fmap, epsilon=eps), x, rs, tau, dt)
        assert _same_bits(got, want)
        # a batch above the row limit, or a non-finite output, is left to the
        # numpy step, which sums its output to check it
        assert (fused is None) == (len(x) > _row_limit(fmap) or not np.isfinite(want).all())
        assert finite == (fused is not None or bool(np.isfinite(want.sum())))
        if fused is not None:
            assert _same_bits(fused, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), batch=st.sampled_from([1, 2, 3, 4, 5, 9, 40]),
           tau=st.sampled_from([0.0, 0.7, 731.25]), eps=st.sampled_from([0.01, 0.1, 1.0]),
           dt=st.sampled_from([1e-3, 0.01, 0.5]))
    def test_random_flows_match_the_numpy_step(self, data, batch, tau, eps, dt):
        trees = data.draw(st.lists(_trees(_names(ROLES["f"])), min_size=2, max_size=2))
        fmap = CompiledMap(tuple(trees), ROLES["f"])
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, DIMS["x"]))
        # r stages that differ from one stage to the next, as a nonlinear w gives
        rs = rng.normal(size=(5, batch, DIMS["r"]))
        for cell in data.draw(st.lists(st.tuples(st.integers(0, x.size - 1),
                                                 st.sampled_from(_SPECIAL)), max_size=3)):
            x.flat[cell[0]] = cell[1]
        if fmap.step is None:
            assert "_array(_o)" not in fmap.source  # a flow map without a row body
            return
        self._check(fmap, x, rs, tau, eps, dt)

    @pytest.mark.parametrize("config", ["es.cfg", "actuator.cfg"])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPECIAL)),
                         min_size=1, max_size=9),
           tau=st.floats(0.0, 1000.0), r=st.floats(0.0, 1.0))
    def test_built_in_flows_match_the_numpy_step(self, config, rows, tau, r):
        spec = ha.load_system(str(CONFIGS / config))
        dt = ha.IntegratorConfig().effective_step(spec.epsilon)
        x = np.array(rows)[:, None]
        rs = np.full((5, len(rows), 1), r)
        self._check(spec.f, x, rs, tau, spec.epsilon, dt)

    def test_only_flow_maps_with_a_row_body_have_a_step(self):
        es = ha.load_system(str(CONFIGS / "es.cfg"))
        assert es.f.step is not None and _row_limit(es.f) == 8
        assert es.w.step is es.g.step is es.h.step is None
        assert es.f.fixed(tau=0.5, eps=0.1).step is None
        # no row body; x_2 read by a map of one output, so x has one column
        for texts in (["x_1/x_2", "x_2"], ["-x_2*(1 + sin(tau))"]):
            exprs = compile_expressions(texts, _names(ROLES["f"]))
            assert CompiledMap(exprs, ROLES["f"]).step is None
        assert _compiled("V", ["-x_1*(1 + sin(r_1))"]).step is None
        # x with a column per output only: numpy broadcasts one output over two
        fmap = CompiledMap(compile_expressions(["-x_1*(1 + sin(tau))"], _names(ROLES["f"])),
                           ROLES["f"])
        x, rs = np.array([[0.5, 2.0]]), np.zeros((5, 1, 1))
        assert fmap.step(x, rs, 0.3, 0.1, 0.01) is None
        assert fmap.step(x[:, :1], rs, 0.3, 0.1, 0.01) is not None
        spec = types.SimpleNamespace(f=fmap, epsilon=0.1)
        assert _same_bits(solver._rk4(spec, x, rs, 0.3, 0.01)[0],
                          _numpy_rk4(fmap, x, rs, 0.3, 0.1, 0.01))

    @pytest.mark.parametrize("rows", range(1, 9))
    def test_the_actuator_steps_up_to_eight_rows_without_calling_f(self, monkeypatch, rows):
        # the step's limit weighs a whole RK4 step: four map calls and _rk4's
        # arithmetic against four rows of the map per row
        spec = ha.load_system(str(CONFIGS / "actuator.cfg"))
        assert _row_limit(spec.f) == _MAX_ROWS == 8
        x, rs = np.linspace(-2.0, 2.0, rows)[:, None], np.zeros((5, rows, 1))
        want = _numpy_rk4(spec.f, x, rs, 0.3, spec.epsilon, 1e-3)
        calls, call = [], CompiledMap.__call__

        def counted(self, *args):
            calls.append(len(args[0]))
            return call(self, *args)

        monkeypatch.setattr(CompiledMap, "__call__", counted)
        got, finite = solver._rk4(spec, x, rs, 0.3, 1e-3)
        assert calls == [] and finite and _same_bits(got, want)

    def test_an_infinite_output_recomputes_the_whole_step_in_numpy(self):
        # row 1 passes x = 3 within the step and turns infinite; row 0 stays finite
        fmap = _compiled("f", ["ifge(3.0, x_1, x_1, x_1*1e999)", "-x_2"])
        x, rs = np.array([[1.0, 1.0], [2.9999, 1.0]]), np.zeros((5, 2, 1))
        assert fmap.step(x, rs, 0.3, 0.1, 0.5) is None
        got, finite = solver._rk4(types.SimpleNamespace(f=fmap, epsilon=0.1), x, rs, 0.3, 0.5)
        assert not finite and np.isinf(got[1, 0]) and np.isfinite(got[0]).all()
        assert _same_bits(got, _numpy_rk4(fmap, x, rs, 0.3, 0.1, 0.5))

    def test_a_step_of_a_flow_reading_r_reads_each_stage(self):
        fmap = _compiled("f", ["-(x_1 - r_1)*(2 + sin(tau))", "r_1*x_2*eps"])
        x = np.array([[0.5, -1.0], [2.0, 0.25]])
        rs = np.arange(20.0).reshape(5, 2, 2) / 7.0
        self._check(fmap, x, rs, 0.3, 0.05, 0.01)
        # a stage that read r_1 of another stage would change the step
        bumped = rs.copy()
        bumped[2, :, 0] += 1.0
        assert not np.array_equal(fmap.step(x, bumped, 0.3, 0.05, 0.01),
                                  fmap.step(x, rs, 0.3, 0.05, 0.01))

    def test_a_nan_output_recomputes_the_whole_step_in_numpy(self, monkeypatch):
        # row 0 flows to a nan (0 * inf); row 1 stays finite
        fmap = _compiled("f", ["ifge(x_1, 0.5, -x_1, (x_1*1e999) + -(x_1*1e999))", "-x_2"])
        x, rs = np.array([[0.0, 1.0], [1.0, 1.0]]), np.zeros((5, 2, 1))
        calls, call = [], CompiledMap.__call__

        def counted(self, *args):
            calls.append(len(args[0]))
            return call(self, *args)

        with np.errstate(invalid="ignore"):
            assert fmap.step(x, rs, 0.3, 0.1, 0.01) is None
            want = _numpy_rk4(fmap, x, rs, 0.3, 0.1, 0.01)
            monkeypatch.setattr(CompiledMap, "__call__", counted)
            got = solver._rk4(types.SimpleNamespace(f=fmap, epsilon=0.1), x, rs, 0.3, 0.01)[0]
        assert np.isnan(got[0, 0]) and np.isfinite(got[1]).all()
        assert calls == [2, 2, 2, 2]  # f over the whole batch, once per stage
        assert _same_bits(got, want)


class TestFixedMap:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), batch=st.sampled_from([1, 64, 500]), scalar=st.booleans(),
           eps=st.sampled_from([0.0, -0.0, 0.01, math.inf]))
    def test_fixed_map_matches_the_call_bit_for_bit(self, data, batch, scalar, eps):
        # subtrees of tau, eps and literals alone are computed once, when the
        # fixed map is built, by the operations a call given the values applies
        roles = ROLES["f"]
        trees = data.draw(st.lists(_trees(_names(roles)), min_size=2, max_size=2))
        exprs = trees[0] if scalar else tuple(trees)
        x, r, tau, _ = _args("f", batch)
        tau = tau * data.draw(st.sampled_from([1.0, 7.0, 1e6]))
        fmap = CompiledMap(exprs, roles)
        with np.errstate(all="ignore"):
            want = fmap(x, r, tau, eps)
            fixed = fmap.fixed(tau=tau, eps=eps)
            got = fixed(x, r)
            copy = pickle.loads(pickle.dumps(fixed))
            again = copy(x, r)
        assert fixed.roles == copy.roles == ("x", "r")
        assert copy.source == fixed.source
        assert _same_bits(got, want) and _same_bits(again, want)

    def test_clock_only_subtrees_are_constants(self):
        fmap = _compiled("f", ["-(x_1*(1.0 + sin(tau)))", "x_2*eps - sin(tau)"])
        tau = np.linspace(0.0, 1.0, 9)
        fixed = fmap.fixed(tau=tau, eps=0.0)
        assert "tau" not in fixed.source and "_sin" not in fixed.source
        x, r = np.random.default_rng(3).normal(size=(9, 2)), np.zeros((9, 1))
        assert _same_bits(fixed(x, r), fmap(x, r, tau, 0.0))

    @pytest.mark.parametrize("bound", [{"x": 1.0}, {"tau": 1.0, "eps": 0.0, "y": 2.0}])
    def test_only_scalar_roles_can_be_fixed(self, bound):
        fmap = _compiled("f", ["x_1", "tau"])
        with pytest.raises(ValueError, match="can be bound"):
            fmap.fixed(**bound)

    def test_a_map_is_freed_without_the_cyclic_collector(self):
        # the generated function once sat in its own globals, and the code
        # generator's recursive closures held its constants, so a map and its
        # constant arrays lived until the cyclic collector ran
        exprs = compile_expressions(["ifge(x_1, 0, x_1*sin(tau), -x_1) + cos(tau)*eps", "r_1"],
                                    _names(ROLES["f"]))
        gc.disable()
        try:
            plain = CompiledMap(exprs, ROLES["f"])
            fixed = plain.fixed(tau=np.linspace(0.0, 1.0, 5), eps=0.5)
            const = next(value for name, value in fixed._fn.__globals__.items()
                         if name.startswith("_c") and np.ndim(value))
            assert plain.step is not None
            refs = [weakref.ref(obj) for obj in (plain, plain._fn, plain.step, fixed, fixed._fn,
                                                 const)]
            del plain, fixed, const
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
