import math

import numpy as np
import pytest

import hybridavg as ha
from hybridavg.config import ConfigError

from conftest import arcs_equal, state

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


class TestJamParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ha.JamParams(T=0.0, p=0.1, epsilon=0.01)
        with pytest.raises(ValueError):
            ha.JamParams(T=1.0, p=1.5, epsilon=0.01)
        with pytest.raises(ValueError):
            ha.JamParams(T=1.0, p=0.1, epsilon=0.0)


class TestJammedActuator:
    def test_structure(self, actuator):
        assert (actuator.n, actuator.p, actuator.m) == (1, 1, 1)
        assert actuator.C.contains([0.0]) and actuator.C.contains([1.0])
        assert actuator.D.contains([1.0]) and not actuator.D.contains([0.999])

    def test_satisfies_structural_conditions(self, actuator):
        report = ha.validate_spec(actuator)
        assert report.passed and report.h_estimate == 0.0

    def test_lipschitz_constants_are_finite_and_expected(self, actuator, favg):
        est = ha.estimate_lipschitz(actuator, favg,
                                    np.array([[-3.0], [1.0], [2.0]]),
                                    np.array([[0.5]]),
                                    np.linspace(0.0, 2.0 * math.pi, 201))
        assert est.L_x == pytest.approx(2.0, rel=0.01)
        assert est.L_g == pytest.approx(1.5, abs=1e-12)

    def test_deterministic_jamming_fails_certificate(self, favg):
        from conftest import V_quad

        spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=1.0, epsilon=0.01))
        cert = ha.foster_certificate(V_quad, ha.build_average_system(spec, favg))
        assert cert.lam == pytest.approx(2.25, abs=1e-12)
        assert not cert.verdict

    def test_constant_input_variant(self):
        spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=0.1, epsilon=0.01), u=0.5)
        out = np.asarray(spec.f(np.array([[0.0]]), np.array([[0.0]]), 0.0, 0.01))
        assert out[0, 0] == 0.5


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
        assert ha.validate_spec(es_system, x_shell=0.1).passed

    def test_same_average_system_as_actuator(self, actuator, es_system, favg):
        axes = (np.array([-3.0, -1.0, 1.0, 3.0]), np.array([0.0, 1.0]))
        for spec in (actuator, es_system):
            avg = ha.estimate_average_map(spec, axes[0], axes[1],
                                          T_long=20 * 2 * math.pi, f_ave=favg)
            assert avg.nodal_residual <= 1e-6

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            ha.jammed_es(ha.JamParams(T=1.0, p=0.1, epsilon=0.01), delta=0.0)


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
