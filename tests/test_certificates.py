import math

import numpy as np
import pytest

import hybridavg as ha
from hybridavg.certificates import CertGrid

from conftest import V_quad


def build_cert(p, V=V_quad, grid=None, **kw):
    from hybridavg.systems import average_flow_linear

    spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=p, epsilon=0.01))
    avg = ha.build_average_system(spec, average_flow_linear)
    return ha.foster_certificate(V, avg, grid, **kw)


class TestCertGrid:
    @pytest.mark.parametrize("lo, hi", [(math.nan, 10.0), (1e-3, math.nan), (1e-3, math.inf),
                                        (0.0, 10.0), (-1.0, 10.0), (2.0, 1.0), (1.0, 1.0)])
    def test_rejects_bad_radii(self, lo, hi):
        with pytest.raises(ValueError, match="0 < radius_min < radius_max, both finite"):
            CertGrid(radius_min=lo, radius_max=hi)

    @pytest.mark.parametrize("field", ["radial_points", "r_points"])
    def test_rejects_empty_point_counts(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            CertGrid(**{field: 0})

    @pytest.mark.parametrize("radii", [(1.0, math.nan), (math.inf,), (0.0, 1.0), (-1.0,), ()],
                             ids=["nan", "inf", "zero", "negative", "empty"])
    def test_rejects_bad_explicit_radii(self, radii):
        with pytest.raises(ValueError, match="grid radii must be a non-empty sequence"):
            CertGrid(radii=radii)

    def test_report_names_the_radii_in_use(self):
        default = build_cert(0.1)
        assert str(default).splitlines()[-1] == "grid: radii [0.001, 10.0] x 25 pts, r x 5 pts"
        nested = build_cert(0.1, grid=CertGrid(radii=tuple(np.array([0.5, 1.0, 2.0]))))
        assert str(nested).splitlines()[-1] == "grid: radii [0.5, 1.0, 2.0], r x 5 pts"


class TestSandwich:
    def test_quadratic_gives_unit_constants(self, average_system):
        res = ha.check_sandwich(V_quad, average_system, CertGrid())
        c1, c2 = res.constants
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self, average_system):
        res = ha.check_sandwich(lambda x, r: 2.0 * V_quad(x, r), average_system,
                                CertGrid())
        assert res.constants[0] == pytest.approx(2.0, abs=1e-12)
        assert res.constants[1] == pytest.approx(2.0, abs=1e-12)

    def test_quartic_term_spreads_the_ratio(self, average_system):
        # V = x^2 + x^4: ratio 1 + x^2 ranges over [1, 5] for |x| <= 2
        def V(x, r):
            q = V_quad(x, r)
            return q + q * q

        res = ha.check_sandwich(V, average_system, CertGrid(radius_max=2.0))
        assert res.constants[0] == pytest.approx(1.0, abs=1e-5)
        assert res.constants[1] == pytest.approx(5.0, abs=1e-9)

    def test_nonpositive_V_fails_with_witness(self, average_system):
        res = ha.check_sandwich(lambda x, r: -V_quad(x, r), average_system, CertGrid())
        assert not res.ok
        assert res.witness is not None


class TestGradientBound:
    def test_quadratic_gives_two(self, average_system):
        res = ha.check_gradient_bound(V_quad, average_system, CertGrid())
        assert res.constants[0] == pytest.approx(2.0, abs=1e-9)

    def test_gradient_scales_linearly(self, average_system):
        for alpha in (0.5, 3.0):
            res = ha.check_gradient_bound(
                lambda x, r, a=alpha: a * V_quad(x, r), average_system, CertGrid())
            assert res.constants[0] == pytest.approx(2.0 * alpha, rel=1e-9)

    def test_finite_differences_match_exact_gradient(self, average_system):
        from hybridavg.certificates import numeric_gradient

        xs = np.linspace(-3.0, 3.0, 13)[:, None]
        rs = np.full_like(xs, 0.5)
        grads = numeric_gradient(V_quad, xs, rs)
        assert np.max(np.abs(grads[:, 0] - 2.0 * xs[:, 0])) <= 1e-8
        assert np.max(np.abs(grads[:, 1])) <= 1e-8


class TestFlowDecrease:
    def test_linear_decay_rate(self, average_system):
        res = ha.check_flow_decrease(V_quad, average_system, CertGrid())
        assert res.ok
        assert res.constants[0] == pytest.approx(2.0, abs=1e-9)

    def test_unstable_flow_fails(self, actuator):
        unstable = ha.build_average_system(actuator, lambda x, r: np.asarray(x, dtype=float))
        res = ha.check_flow_decrease(V_quad, unstable, CertGrid())
        assert not res.ok
        assert res.witness is not None

    def test_faster_decay_raises_the_rate(self, actuator):
        avg3 = ha.build_average_system(actuator, lambda x, r: -3.0 * np.asarray(x, dtype=float))
        res = ha.check_flow_decrease(V_quad, avg3, CertGrid())
        assert res.constants[0] == pytest.approx(6.0, abs=1e-8)


class TestExpectedJumpValue:
    def test_finite_support_exact(self, actuator):
        from hybridavg.systems import average_flow_linear

        spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=0.25, epsilon=0.01))
        avg = ha.build_average_system(spec, average_flow_linear)
        ev = ha.expected_jump_value(V_quad, avg, np.array([2.0]), np.array([1.0]),
                                    spec.noise)
        assert ev.value == 0.25 * 9.0  # 0.25 * V(3) + 0.75 * V(0)
        assert ev.std_error == 0.0

    def test_origin_maps_to_zero(self, average_system, actuator):
        ev = ha.expected_jump_value(V_quad, average_system, np.array([0.0]),
                                    np.array([1.0]), actuator.noise)
        assert ev.value == 0.0

    def test_always_jammed_maps_to_zero(self, average_system):
        noise = ha.JumpNoise.finite([[0.75], [-0.75]], [0.0, 1.0])
        ev = ha.expected_jump_value(V_quad, average_system, np.array([2.0]),
                                    np.array([1.0]), noise)
        assert ev.value == 0.0

    def test_monte_carlo_matches_exact_within_4_se(self, average_system):
        # sampler reproducing the scaled Bernoulli with p = 0.3
        p = 0.3

        def sampler(seed, k):
            u = np.random.default_rng([seed, k, 991]).random()
            return np.array([0.75 if u < p else -0.75])

        noise = ha.JumpNoise.from_sampler(sampler, m=1)
        ev = ha.expected_jump_value(V_quad, average_system, np.array([2.0]),
                                    np.array([1.0]), noise, mc_samples=100_000)
        exact = p * 9.0 * 4.0 / 4.0  # p * V(1.5 * 2) = p * 9
        assert ev.std_error > 0.0
        assert abs(ev.value - exact) <= 4.0 * ev.std_error


class TestJumpCondition:
    @pytest.mark.parametrize("p", [0.1, 0.25, 2.0 / 9.0, 0.9])
    def test_ratio_is_nine_fourths_p(self, p):
        from hybridavg.systems import average_flow_linear

        spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=p, epsilon=0.01))
        avg = ha.build_average_system(spec, average_flow_linear)
        res = ha.check_jump_condition(V_quad, avg, CertGrid())
        assert res.constants[0] == pytest.approx(2.25 * p, abs=1e-12)

    def test_identity_jump_gives_one(self, actuator, favg):
        import dataclasses

        def identity_g(x, r, v):
            return np.asarray(x, dtype=float)

        spec = dataclasses.replace(actuator, g=identity_g)
        avg = ha.build_average_system(spec, favg)
        res = ha.check_jump_condition(V_quad, avg, CertGrid())
        assert res.constants[0] == pytest.approx(1.0, abs=1e-12)


class TestFosterCertificate:
    def test_passing_instance(self):
        cert = build_cert(0.1)
        assert (cert.c1, cert.c2) == (1.0, 1.0)
        assert cert.c3 == pytest.approx(2.0, abs=1e-9)
        assert cert.c4 == pytest.approx(2.0, abs=1e-9)
        assert cert.c5 == pytest.approx(0.225, abs=1e-12)
        assert cert.lam == pytest.approx(0.225, abs=1e-12)
        assert cert.verdict

    def test_failing_instance(self):
        cert = build_cert(0.3)
        assert cert.lam == pytest.approx(0.675, abs=1e-12)
        assert not cert.verdict

    def test_boundary_probability_fails_strictly(self):
        assert not build_cert(2.0 / 9.0).verdict

    def test_verdict_flips_within_1e12_of_boundary(self):
        assert build_cert(2.0 / 9.0 - 1e-12).verdict
        assert not build_cert(2.0 / 9.0 + 1e-12).verdict

    def test_lambda_identity(self):
        cert = build_cert(0.17)
        assert cert.lam == (cert.c2 / cert.c1) * cert.c5

    def test_safety_margin_only_tightens(self):
        assert build_cert(0.2).verdict  # lambda = 0.45 < 0.5
        assert not build_cert(0.2, safety_margin=0.1).verdict  # needs < 0.4
        with pytest.raises(ValueError):
            build_cert(0.2, safety_margin=-0.05)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_safety_margin_is_rejected(self, margin):
        # a NaN margin once slipped past a `< 0` guard and failed every gate
        with pytest.raises(ValueError, match="safety_margin"):
            build_cert(0.2, safety_margin=margin)

    def test_scaling_invariance(self):
        base = build_cert(0.1)
        for alpha in (0.5, 3.0):
            scaled = build_cert(0.1, V=lambda x, r, a=alpha: a * V_quad(x, r))
            assert scaled.c1 == pytest.approx(alpha * base.c1, rel=1e-12)
            assert scaled.c2 == pytest.approx(alpha * base.c2, rel=1e-12)
            assert scaled.c3 == pytest.approx(alpha * base.c3, rel=1e-9)
            assert scaled.c4 == pytest.approx(base.c4, rel=1e-9)
            assert scaled.c5 == pytest.approx(base.c5, abs=1e-12)
            assert abs(scaled.lam - base.lam) <= 1e-12
            assert scaled.verdict == base.verdict

    def test_grid_refinement_moves_constants_one_way(self):
        # nested grids: extrema over a superset can only widen
        coarse_radii = tuple(np.geomspace(1e-3, 10.0, 7))
        fine_radii = coarse_radii + tuple(np.geomspace(3e-3, 7.0, 9))

        def V(x, r):
            q = V_quad(x, r)
            return q + 0.01 * q * q

        coarse = build_cert(0.1, V=V, grid=CertGrid(radii=coarse_radii))
        fine = build_cert(0.1, V=V, grid=CertGrid(radii=fine_radii))
        assert fine.c1 <= coarse.c1 + 1e-15
        assert fine.c4 <= coarse.c4 + 1e-15
        assert fine.c2 >= coarse.c2 - 1e-15
        assert fine.c3 >= coarse.c3 - 1e-15
        assert fine.c5 >= coarse.c5 - 1e-15
        assert fine.lam >= coarse.lam - 1e-15

    def test_absorbing_jumps_pass_with_zero_c5(self):
        cert = build_cert(0.0)
        assert cert.c5 == 0.0
        assert cert.lam == 0.0
        assert cert.verdict
