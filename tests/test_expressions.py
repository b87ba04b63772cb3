import math
import pickle

import numpy as np
import pytest

from hybridavg.expressions import (
    AverageField,
    CompiledMap,
    ExpressionError,
    ScalarField,
    allowed_names,
    bind_expression,
    compile_expressions,
    parse_expression,
)


def ev(text, **env):
    return parse_expression(text).eval(env)


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

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="tan"):
            parse_expression("tan(1)")

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError, match="pow"):
            parse_expression("pow(2)")

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
