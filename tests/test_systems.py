import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.config import ConfigError
from hybridavg.expressions import CompiledMap

from conftest import arcs_equal, assert_origin_rest_and_timer_reset, state

ACTUATOR_EXPR_CFG = """\
[system]
kind = custom
state_dim = 1
aux_dim = 1
noise_dim = 1
epsilon = 0.01
flow_x = -x_1*(1 + sin(tau))
flow_r = 1
jump_x = (0.75 + v)*x_1
jump_r = 0
flow_set = box 0 1
jump_set = point 1

[noise]
kind = finite
values = 0.75; -0.75
probs = 0.1 0.9
"""


def compiled(spec):
    """Each map's generated source and the reprs of its bound constants _c<i>."""
    return [(fn.source, {k: repr(v) for k, v in fn._fn.__globals__.items()
                         if re.fullmatch(r"_c\d+", k)})
            for fn in (spec.f, spec.w, spec.g, spec.h)]


def rendered(period=1.0, jam_prob=0.1, epsilon=0.01, delta=None):
    """The README's rendering rule, written out: the custom-kind text of a built-in
    (jammed-es when delta is given), every number Python's repr of the float."""
    T, p, q, eps = (repr(float(v)) for v in (period, jam_prob, 1.0 - jam_prob, epsilon))
    flow_x = "-(x_1*(1.0 + sin(tau)))"
    if delta is not None:
        d, s = repr(float(delta)), "sin(tau)"
        flow_x = (f"ifge(abs(x_1), {d}, -(x_1*{s}) - 2.0*x_1*({s}*{s}) - abs(x_1)*({s}*{s}*{s}), "
                  f"-((x_1 + {d}*{s})*(x_1 + {d}*{s}))*{s}/{d})")
    return (f"[system]\nkind = custom\nstate_dim = 1\naux_dim = 1\nnoise_dim = 1\n"
            f"epsilon = {eps}\nflow_x = {flow_x}\nflow_r = 1.0\njump_x = (0.75 + v)*x_1\n"
            f"jump_r = 0.0\nflow_set = box 0.0 {T}\njump_set = point {T}\n\n"
            f"[noise]\nvalues = 0.75; -0.75\nprobs = {p} {q}\n")


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_JAM_KEYS = {"period": _POSITIVE, "jam_prob": st.floats(min_value=0.0, max_value=1.0),
             "epsilon": _POSITIVE}


class TestBuiltinKeys:
    @pytest.mark.parametrize("make, keys, err", [
        pytest.param(ha.jammed_actuator, dict(period=0.0),
                     "[system] period: must be > 0, got 0.0", id="period"),
        pytest.param(ha.jammed_actuator, dict(jam_prob=1.5),
                     "[system] jam_prob: must lie in [0, 1], got 1.5", id="jam_prob"),
        pytest.param(ha.jammed_es, dict(epsilon=0.0),
                     "[system] epsilon: must be > 0, got 0.0", id="epsilon"),
        pytest.param(ha.jammed_actuator, dict(epsilon=math.inf),
                     "[system] epsilon: not a finite number: 'inf'", id="inf_epsilon"),
        pytest.param(ha.jammed_actuator, dict(delta=0.1),
                     "[system] delta: unknown key", id="actuator_delta"),
        pytest.param(ha.jammed_es, dict(T=1.0), "[system] T: unknown key", id="unknown_key")])
    def test_guards_are_the_schema_guards(self, make, keys, err):
        with pytest.raises(ConfigError) as exc:
            make(**keys)
        assert str(exc.value) == err

    @pytest.mark.parametrize("delta", [None, "abc", [0.1, 0.2]], ids=["none", "text", "list"])
    def test_a_value_that_is_not_a_number_names_its_key(self, delta):
        with pytest.raises(ConfigError) as exc:
            ha.jammed_es(delta=delta)
        assert str(exc.value) == f"[system] delta: not a number: {delta!r}"

    def test_left_out_keys_take_the_schema_defaults(self, actuator, es_system):
        assert compiled(ha.jammed_actuator()) == compiled(actuator)
        assert compiled(ha.jammed_es()) == compiled(es_system)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({}, optional=_JAM_KEYS), st.one_of(st.none(), _POSITIVE))
    def test_constructors_compile_the_rendered_custom_text(self, keys, delta):
        expect = ha.load_system(rendered(**keys, delta=delta))
        spec = (ha.jammed_actuator(**keys) if delta is None
                else ha.jammed_es(**keys, delta=delta))
        assert compiled(spec) == compiled(expect)
        assert (spec.C, spec.D, spec.epsilon) == (expect.C, expect.D, expect.epsilon)
        assert repr(spec.noise) == repr(expect.noise)


class TestJammedActuator:
    def test_structure(self, actuator):
        assert (actuator.n, actuator.p, actuator.m) == (1, 1, 1)
        assert actuator.C.contains([0.0]) and actuator.C.contains([1.0])
        assert actuator.D.contains([1.0]) and not actuator.D.contains([0.999])

    def test_satisfies_structural_conditions(self, actuator):
        assert_origin_rest_and_timer_reset(actuator)

    def test_deterministic_jamming_fails_certificate(self, favg):
        from conftest import V_quad

        spec = ha.jammed_actuator(period=1.0, jam_prob=1.0, epsilon=0.01)
        cert = ha.foster_certificate(V_quad, ha.build_average_system(spec, favg))
        assert cert.lam == pytest.approx(2.25, abs=1e-12)
        assert not cert.verdict


class TestJammedEs:
    def test_field_values_outside_ball(self, es_system):
        x = np.array([[2.0], [-2.0]])
        r = np.zeros((2, 1))
        out = np.asarray(es_system.f(x, r, math.pi / 2.0, 0.0))
        assert out[0, 0] == pytest.approx(-8.0, abs=1e-12)
        assert out[1, 0] == pytest.approx(4.0, abs=1e-12)

    def test_origin_is_not_invariant_inside_ball(self, es_system):
        # f(0, tau) = -delta sin^3(tau): recurrence only reaches the delta ball
        out = np.asarray(es_system.f(np.array([[0.0]]), np.array([[0.0]]),
                                     math.pi / 2.0, 0.0))
        assert out[0, 0] == pytest.approx(-0.1, abs=1e-12)

    def test_bounded_inside_ball(self, es_system):
        # grid oracle: sup |f| over the delta ball stays within 4*delta
        xs = np.linspace(-0.1, 0.1, 81)[:, None]
        rs = np.zeros_like(xs)
        worst = max(float(np.max(np.abs(es_system.f(xs, rs, float(t), 0.0))))
                    for t in np.linspace(0.0, 2.0 * math.pi, 181))
        assert worst <= 4.0 * 0.1 + 1e-12

    def test_branches_agree_at_positive_delta(self, es_system):
        # a(x) = max(delta, |x|) makes the two branches coincide at x = +delta
        taus = np.linspace(0.0, 2.0 * math.pi, 50)
        delta = 0.1
        for tau in taus:
            s = math.sin(tau)
            outer = -(delta * s) - 2.0 * delta * s * s - delta * s ** 3
            inner = -((delta + delta * s) ** 2) * s / delta
            assert outer == pytest.approx(inner, abs=1e-14)

    def test_shell_validation_passes(self, es_system):
        # outside the delta-ball |f(x)| / |x| = |s + 2 s^2 + sgn(x) s^3| <= 4, s = sin(tau)
        radii = np.geomspace(0.1, 3.0, 16)
        xs = np.concatenate([radii, -radii])[:, None]
        for r in es_system.flow_or_jump_set.grid(9):
            rs = np.broadcast_to(r, xs.shape)
            for eps in (0.0, es_system.epsilon):
                for tau in np.linspace(0.0, 4.0 * np.pi, 25):
                    gain = np.abs(np.asarray(es_system.f(xs, rs, float(tau), eps))) / np.abs(xs)
                    assert np.all(gain <= 4.0 + 1e-12), (r, tau, eps)

    def test_same_average_system_as_actuator(self, actuator, es_system, favg):
        axes = (np.array([-3.0, -1.0, 1.0, 3.0]), np.array([0.0, 1.0]))
        for spec in (actuator, es_system):
            avg = ha.estimate_average_map(spec, axes[0], axes[1],
                                          T_long=20 * 2 * math.pi, f_ave=favg)
            assert avg.nodal_residual <= 1e-6

    def test_delta_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"\[system\] delta: must be > 0, got 0.0"):
            ha.jammed_es(period=1.0, jam_prob=0.1, epsilon=0.01, delta=0.0)

    def test_nan_delta_is_rejected(self):
        with pytest.raises(ConfigError, match=r"\[system\] delta: not a finite number: 'nan'"):
            ha.jammed_es(period=1.0, jam_prob=0.1, epsilon=0.01, delta=math.nan)


class TestLoadSystem:
    def test_expression_config_matches_constructor_bitwise(self, actuator):
        spec = ha.load_system(ACTUATOR_EXPR_CFG)
        hz = ha.Horizon(5.0, 100)
        for seed in (0, 11, 99):
            a = ha.simulate_path(actuator, state(2.0, 0.0), seed, hz)
            b = ha.simulate_path(spec, state(2.0, 0.0), seed, hz)
            assert arcs_equal(a, b)

    def test_builtin_kinds(self):
        spec = ha.load_system("[system]\nkind = jammed-actuator\nperiod = 2.0\n"
                              "jam_prob = 0.2\nepsilon = 0.05\n")
        assert spec.epsilon == 0.05
        assert spec.D.contains([2.0])
        es = ha.load_system("[system]\nkind = jammed-es\ndelta = 0.2\n")
        out = np.asarray(es.f(np.array([[0.0]]), np.array([[0.0]]), math.pi / 2, 0.0))
        assert out[0, 0] == pytest.approx(-0.2, abs=1e-12)

    def test_builtin_kinds_compile_from_rendered_text(self, es_system):
        # the dither field's sin(tau) appears eight times in its text
        for spec in (ha.load_system("[system]\nkind = jammed-actuator\n"), es_system):
            assert all(type(fn) is CompiledMap for fn in (spec.f, spec.w, spec.g, spec.h))
        assert es_system.f.source.count("_sin(tau)") == 1

    def test_unknown_symbol_is_named(self):
        cfg = ACTUATOR_EXPR_CFG.replace("-x_1*(1 + sin(tau))", "-y*(1 + sin(tau))")
        with pytest.raises(ConfigError, match="'y'"):
            ha.load_system(cfg)

    def test_bad_probabilities_report_their_sum(self):
        cfg = ACTUATOR_EXPR_CFG.replace("probs = 0.1 0.9", "probs = 0.6 0.5")
        with pytest.raises(ConfigError, match="sum to 1.1"):
            ha.load_system(cfg)

    def test_dimension_mismatch_in_expressions(self):
        cfg = ACTUATOR_EXPR_CFG.replace("flow_x = -x_1*(1 + sin(tau))",
                                        "flow_x = -x_1; -x_1")
        with pytest.raises(ConfigError, match="expected 1 expression"):
            ha.load_system(cfg)

    def test_path_with_a_bracket_is_read_as_a_path(self, tmp_path, actuator):
        # a '[' once made the path parse as INI text: "no section headers"
        cfg = tmp_path / "[v2]" / "a.cfg"
        cfg.parent.mkdir()
        cfg.write_text(ACTUATOR_EXPR_CFG)
        spec = ha.load_system(str(cfg))
        hz = ha.Horizon(2.0, 100)
        assert arcs_equal(ha.simulate_path(spec, state(2.0, 0.0), 3, hz),
                          ha.simulate_path(actuator, state(2.0, 0.0), 3, hz))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown system kind"):
            ha.load_system("[system]\nkind = nonsense\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ha.load_system("[system]\nepsilon = 0.1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_its_key(self, value):
        cfg = ACTUATOR_EXPR_CFG.replace("epsilon = 0.01", f"epsilon = {value}")
        with pytest.raises(ConfigError, match=r"\[system\] epsilon: not a finite number"):
            ha.load_system(cfg)

    def test_non_finite_list_entry_names_its_key(self):
        cfg = ACTUATOR_EXPR_CFG.replace("probs = 0.1 0.9", "probs = nan 0.9")
        with pytest.raises(ConfigError, match=r"\[noise\] probs: expected finite numbers"):
            ha.load_system(cfg)
