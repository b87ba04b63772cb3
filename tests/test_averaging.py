import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.averaging import PANELS_PER_PERIOD, _window_means

from conftest import V_quad, state


def gamma_oracle(T):
    """Closed form for the actuator residual d = -x sin(tau):
    sup over tau0 of |cos(tau0) - cos(tau0 + T)| / T = 2 |sin(T/2)| / T."""
    return 2.0 * np.abs(np.sin(np.asarray(T) / 2.0)) / np.asarray(T)


def tau_independent_spec(actuator):
    def flat_flow(x, r, tau, eps):
        return -np.asarray(x, dtype=float)

    return dataclasses.replace(actuator, f=flat_flow)


TAUS = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)


class TestWindowAverage:
    def test_full_period_gives_minus_x(self, actuator):
        got = _window_means(actuator, np.array([[1.0]]), np.array([[0.5]]), 0.0,
                            2.0 * math.pi)[0]
        assert got[0] == pytest.approx(-1.0, abs=1e-12)

    def test_vanishes_at_origin(self, actuator):
        got = _window_means(actuator, np.array([[0.0]]), np.array([[0.5]]), 1.3, 5.0)[0]
        assert got[0] == 0.0

    def test_half_period_closed_form(self, actuator):
        # (1/pi) * int_0^pi (1 + sin s) ds = (pi + 2)/pi, so mean = -(1 + 2/pi)
        expected = -(1.0 + 2.0 / math.pi)
        got = _window_means(actuator, np.array([[1.0]]), np.array([[0.5]]), 0.0, math.pi)[0]
        assert got[0] == pytest.approx(expected, abs=1e-6)

    def test_rejects_nonpositive_window(self, actuator):
        with pytest.raises(ValueError):
            _window_means(actuator, np.array([[1.0]]), np.array([[0.5]]), 0.0, 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_window(self, actuator, T):
        # these once failed converting the panel count, inf with an OverflowError
        with pytest.raises(ValueError, match="window length T must be finite and positive"):
            _window_means(actuator, np.array([[1.0]]), np.array([[0.5]]), 0.0, T)

    def test_nonfinite_integrand_is_hard_error(self, actuator):
        def blow_up(x, r, tau, eps):
            return np.full_like(np.asarray(x, dtype=float), np.nan)

        spec = dataclasses.replace(actuator, f=blow_up)
        with pytest.raises(ValueError, match="non-finite"):
            _window_means(spec, np.array([[1.0]]), np.array([[0.5]]), 0.0, 1.0)

    def test_non_finite_sample_names_f_x_r_and_the_first_tau(self, actuator):
        def late_blow_up(x, r, tau, eps):
            return np.where(np.asarray(tau)[..., None] >= 1.0, math.inf, -np.asarray(x))

        spec = dataclasses.replace(actuator, f=late_blow_up)
        # T = 2 takes 13 panels, so the samples step by 2/26 and 13 * (2/26) == 1.0
        msg = (r"^map 'f' returned a non-finite value \(inf\) inside the window at "
               r"x = \[1\.5\], r = \[0\.5\], tau = 1\.0$")
        with pytest.raises(ValueError, match=msg):
            _window_means(spec, np.array([[1.5]]), np.array([[0.5]]), 0.0, 2.0)
        with pytest.raises(ValueError, match=msg):  # the batched window means
            ha.estimate_gamma(spec, lambda x, r: -x, [[1.5]], [[0.5]], [0.0, 0.5], [0.5])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
    def test_splicing_identity(self, tau0, T1, T2):
        spec = ha.jammed_actuator(period=1.0, jam_prob=0.1, epsilon=0.01)
        x, r = np.array([[1.7]]), np.array([[0.5]])
        a = _window_means(spec, x, r, tau0, T1)[0, 0]
        b = _window_means(spec, x, r, tau0 + T1, T2)[0, 0]
        c = _window_means(spec, x, r, tau0, T1 + T2)[0, 0]
        # Simpson's error on a window of length T is at most T h^4 max|f^(4)| / 180,
        # here with |f^(4)| = 1.7 |sin| <= 1.7 and a sample spacing h of at most
        # 2 pi / (2 * PANELS_PER_PERIOD); the three windows span 2 (T1 + T2)
        h = math.pi / PANELS_PER_PERIOD
        tol = 2.0 * (T1 + T2) * h ** 4 * 1.7 / 180.0
        assert T1 * a + T2 * b == pytest.approx((T1 + T2) * c, abs=tol + 1e-12)


class TestEstimateAverageMap:
    X_AXIS = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    R_AXIS = np.array([0.0, 0.5, 1.0])

    def test_actuator_recovers_minus_x(self, actuator, favg):
        avg = ha.estimate_average_map(actuator, self.X_AXIS, self.R_AXIS,
                                      T_long=20 * 2 * math.pi, f_ave=favg)
        assert avg.nodal_residual <= 1e-6

    def test_es_recovers_the_same_map(self, es_system, favg):
        # axes avoid the delta-ball where the regularized branch takes over
        avg = ha.estimate_average_map(es_system, self.X_AXIS, self.R_AXIS,
                                      T_long=20 * 2 * math.pi, f_ave=favg)
        assert avg.nodal_residual <= 1e-6

    def test_tau_independent_flow_is_its_own_average(self, actuator):
        spec = tau_independent_spec(actuator)
        avg = ha.estimate_average_map(spec, self.X_AXIS, self.R_AXIS, T_long=7.3)
        pts = np.array([[-2.5], [0.4], [1.9]])
        r = np.zeros((3, 1))
        got = avg.f_ave(pts, r)
        assert np.allclose(got, -pts, atol=1e-9)

    def test_table_matches_one_window_per_node(self, actuator):
        # the nodes are sampled in one f call; every row keeps the bits of its
        # own window mean
        calls = []

        def counted(x, r, tau, eps):
            calls.append(np.shape(x)[0])
            return actuator.f(x, r, tau, eps)

        spec = dataclasses.replace(actuator, f=counted)
        avg = ha.estimate_average_map(spec, self.X_AXIS, self.R_AXIS, T_long=7.3)
        assert len(calls) == 1
        for (i, xv), (j, rv) in itertools.product(enumerate(self.X_AXIS),
                                                  enumerate(self.R_AXIS)):
            one = _window_means(actuator, np.array([[xv]]), np.array([[rv]]), 0.0, 7.3)[0]
            assert np.array_equal(avg.table[i, j], one)

    def test_curved_map_without_favg_is_its_window_mean(self, actuator):
        # a three-node grid once raised "grid too coarse" for this flow, whose
        # window mean is -x**3 at every x, on the grid or not
        def cubic_flow(x, r, tau, eps):
            x = np.asarray(x, dtype=float)
            return -(x * x * x)

        spec = dataclasses.replace(actuator, f=cubic_flow)
        avg = ha.estimate_average_map(spec, np.array([-3.0, 0.0, 3.0]),
                                      np.array([0.0]), T_long=5.0)
        x = np.array([[-4.0], [-2.5], [0.7], [1.9], [3.5]])
        assert np.allclose(avg.f_ave(x, np.array([0.0])), -x ** 3, rtol=0.0, atol=1e-12)
        assert np.allclose(avg.f_ave(x, np.full((5, 1), 0.4)), -x ** 3, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("T_long, error", [
        (-2.0 * math.pi, "finite and positive"), (0.0, "finite and positive"),
        (math.inf, "finite and positive"), (math.nan, "finite and positive"),
        (1e306, "too long to sample")])
    def test_rejects_a_bad_window_length(self, actuator, favg, T_long, error):
        # these once gave a table of backward windows, a non-finite deviation,
        # an OverflowError and a failed NaN-to-integer conversion
        with pytest.raises(ValueError, match=f"window length T.* {error}"):
            ha.estimate_average_map(actuator, self.X_AXIS, self.R_AXIS, T_long, f_ave=favg)


    @pytest.mark.parametrize("x_grid, r_grid, error", [
        ([], R_AXIS, "x_grid needs at least one axis and no empty axis"),
        (X_AXIS, [np.array([])], "r_grid needs at least one axis and no empty axis"),
        ([X_AXIS, X_AXIS], R_AXIS, "grid axes do not match system dimensions")])
    def test_rejects_malformed_grid_axes(self, actuator, x_grid, r_grid, error):
        with pytest.raises(ValueError, match=error):
            ha.estimate_average_map(actuator, x_grid, r_grid, T_long=7.3)

class TestEstimateGamma:
    X_PTS = np.array([[1.0], [2.0], [-3.0]])
    R_PTS = np.array([[0.0], [1.0]])

    def test_matches_closed_form_curve(self, actuator, favg):
        Ts = np.linspace(0.5, 4.0 * math.pi, 20)
        curve = ha.estimate_gamma(actuator, favg, self.X_PTS, self.R_PTS, TAUS, Ts)
        assert np.max(np.abs(curve.values - gamma_oracle(Ts))) <= 1e-4

    def test_exact_periods_vanish(self, actuator, favg):
        Ts = np.array([2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi])
        curve = ha.estimate_gamma(actuator, favg, self.X_PTS, self.R_PTS, TAUS, Ts)
        assert np.all(curve.values <= 1e-10)

    def test_tau_independent_flow_has_zero_gamma(self, actuator):
        spec = tau_independent_spec(actuator)
        Ts = np.array([0.7, 2.0, 9.0])
        curve = ha.estimate_gamma(spec, lambda x, r: -np.asarray(x), self.X_PTS,
                                  self.R_PTS, TAUS[:64], Ts)
        assert np.all(curve.values <= 1e-12)

    def test_zero_x_rejected(self, actuator, favg):
        with pytest.raises(ValueError, match="exclude 0"):
            ha.estimate_gamma(actuator, favg, np.array([[0.0], [1.0]]), self.R_PTS,
                              TAUS[:16], np.array([1.0]))

    def test_envelope_is_least_nonincreasing_majorant(self, actuator, favg):
        Ts = np.linspace(0.5, 4.0 * math.pi, 20)
        curve = ha.estimate_gamma(actuator, favg, self.X_PTS, self.R_PTS, TAUS, Ts)
        assert np.all(np.diff(curve.envelope) <= 1e-15)
        assert np.all(curve.envelope >= curve.values - 1e-15)
        # majorant is tight from the right
        for k in range(len(Ts)):
            assert curve.envelope[k] == pytest.approx(np.max(curve.values[k:]), abs=0)

    def test_normalized_residual_is_scale_free(self, actuator, favg):
        # doubling x at the witness leaves |residual|/|x| unchanged (linear field)
        Ts = np.array([math.pi])
        curve = ha.estimate_gamma(actuator, favg, self.X_PTS, self.R_PTS, TAUS, Ts)
        wx, wr, wtau = curve.witnesses[0]

        def normalized(xv):
            mean = _window_means(actuator, xv[None], wr[None], wtau, float(Ts[0]))[0]
            ref = favg(np.atleast_2d(xv), np.atleast_2d(wr))[0]
            return np.linalg.norm(mean - ref) / np.linalg.norm(xv)

        assert normalized(wx) == pytest.approx(normalized(2.0 * wx), abs=1e-9)

    def test_certificate_holds_at_grid_resolution(self, actuator, favg):
        Ts = np.array([1.0, 2.5])
        curve = ha.estimate_gamma(actuator, favg, self.X_PTS, self.R_PTS, TAUS[:64], Ts)
        for ti, T in enumerate(Ts):
            for xv in self.X_PTS:
                for rv in self.R_PTS:
                    for tau0 in TAUS[:64]:
                        mean = _window_means(actuator, xv[None], rv[None], float(tau0),
                                             float(T))[0]
                        ref = favg(np.atleast_2d(xv), np.atleast_2d(rv))[0]
                        resid = np.linalg.norm(mean - ref) / np.linalg.norm(xv)
                        assert resid <= curve.values[ti] + 1e-12


def test_flow_map_gets_only_2d_batches(actuator, favg):
    # the documented map convention: x (B, n) and r (B, p); a map may index x[:, 0]
    def strict(x, r, tau, eps):
        if np.ndim(x) != 2 or np.ndim(r) != 2:
            raise TypeError(f"x and r must be 2-D, got {np.shape(x)} and {np.shape(r)}")
        return actuator.f(x, r, tau, eps) + 0.0 * x[:, 0:1]

    spec = dataclasses.replace(actuator, f=strict)
    xs, rs = np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.0, 0.5])
    closed = ha.estimate_average_map(spec, xs, rs, T_long=4 * math.pi, f_ave=favg)
    assert closed.nodal_residual <= 1e-6
    tabulated = ha.estimate_average_map(spec, xs, rs, T_long=4 * math.pi)
    assert np.allclose(tabulated.f_ave(np.array([[1.5]]), np.array([[0.25]])), -1.5)
    grids = (np.array([[1.0], [-2.0]]), np.array([[0.0], [0.5]]), TAUS[:8], np.array([1.0, 2.0]))
    assert ha.estimate_gamma(spec, favg, *grids).values.shape == (2,)
    assert ha.check_jacobian_average(spec, favg, *grids).values.shape == (2,)


@pytest.mark.parametrize("estimate", [ha.estimate_gamma, ha.check_jacobian_average])
class TestSampledEstimateGrids:
    X_PTS = np.array([[1.0], [-2.0]])
    R_PTS = np.array([[0.0]])

    @pytest.mark.parametrize("Ts", [[0.0], [1.0, -1.0], [math.nan]])
    def test_rejects_nonpositive_windows(self, actuator, favg, estimate, Ts):
        with pytest.raises(ValueError, match=r"^window length T must be finite and positive, got "):
            estimate(actuator, favg, self.X_PTS, self.R_PTS, TAUS[:8], np.array(Ts))

    @pytest.mark.parametrize("empty", ["x", "r", "tau", "T"])
    def test_rejects_empty_grids(self, actuator, favg, estimate, empty):
        grids = {"x": self.X_PTS, "r": self.R_PTS, "tau": TAUS[:8], "T": np.array([1.0])}
        grids[empty] = np.zeros((0, 1))
        with pytest.raises(ValueError, match="must be non-empty"):
            estimate(actuator, favg, grids["x"], grids["r"], grids["tau"], grids["T"])

    def test_non_finite_favg_is_an_error_naming_the_point(self, actuator, estimate):
        # x/0 once left jac_gamma_raw at its -1.0 start value: NaN never beat it
        def over_zero(x, r):
            return np.asarray(x, dtype=float) / 0.0

        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"against favg .* is non-finite .* "
                                                r"at x = \[1\.0\], r = \[0\.0\], tau0 = 0\.0"):
            estimate(actuator, over_zero, self.X_PTS, self.R_PTS, TAUS[:8], np.array([1.0]))


class TestJacobianAverage:
    def test_tabulated_average_reads_the_edge_slope_at_a_hull_node(self, actuator, favg):
        # without favg, the central difference at x = -3 once probed a clamped
        # interpolant and read half the slope: every T was flagged
        tab = ha.estimate_average_map(actuator, TestEstimateAverageMap.X_AXIS,
                                      TestEstimateAverageMap.R_AXIS,
                                      T_long=20 * 2 * math.pi).f_ave
        Ts = np.array([0.5, 3.3])
        args = (np.array([[-3.0]]), np.array([[0.0]]), TAUS[:64], Ts)
        closed, tabulated = (ha.check_jacobian_average(actuator, f_ave, *args).values
                             for f_ave in (favg, tab))
        assert np.max(np.abs(tabulated - closed)) <= 1e-6

    def test_matches_state_curve_for_linear_field(self, actuator, favg):
        # d = -x sin(tau): both the state residual and d(d)/dx average to the
        # same closed-form magnitude
        Ts = np.linspace(0.5, 4.0 * math.pi, 10)
        curve = ha.check_jacobian_average(actuator, favg, np.array([[1.0]]),
                                          np.array([[0.0]]), TAUS, Ts)
        assert np.max(np.abs(curve.values - gamma_oracle(Ts))) <= 1e-4

    def test_exact_periods_vanish(self, actuator, favg):
        Ts = np.array([2.0 * math.pi, 4.0 * math.pi])
        curve = ha.check_jacobian_average(actuator, favg, np.array([[1.0]]),
                                          np.array([[0.0]]), TAUS[:64], Ts)
        assert np.all(curve.values <= 1e-8)

    def test_constant_in_tau_field_vanishes(self, actuator):
        spec = tau_independent_spec(actuator)
        Ts = np.array([0.9, 3.3])
        curve = ha.check_jacobian_average(spec, lambda x, r: -np.asarray(x),
                                          np.array([[1.0]]), np.array([[0.0]]),
                                          TAUS[:64], Ts)
        assert np.all(curve.values <= 1e-9)


class TestBuildAverageSystem:
    def test_jump_maps_and_sets_are_reused_verbatim(self, actuator, favg):
        avg = ha.build_average_system(actuator, favg)
        assert avg.g is actuator.g and avg.h is actuator.h
        assert avg.C is actuator.C and avg.D is actuator.D
        assert avg.noise is actuator.noise

    def test_average_flow_matches_closed_form_solution(self, average_system):
        sys = average_system
        arc = ha.simulate_path(sys, state(1.0, 0.0), 0, ha.Horizon(1.0, 5))
        seg = arc.segments[0]
        assert np.max(np.abs(seg.x[:, 0] - np.exp(-seg.t))) <= 1e-10

    def test_is_a_system_spec_the_solver_runs_at_epsilon_one(self, average_system):
        assert isinstance(average_system, ha.SystemSpec)
        assert average_system.epsilon == 1.0
        x, r = np.array([[2.0], [-0.5]]), np.array([[0.25], [0.75]])
        assert np.array_equal(average_system.f(x, r, 3.0, 0.5), average_system.f_ave(x, r))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(average_system, f=average_system.f)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(average_system, epsilon=0.5)

    def test_replaced_f_ave_drives_the_solver_and_the_certificate(self, average_system):
        def slower(x, r):
            return -0.5 * np.asarray(x, dtype=float)

        avg = dataclasses.replace(average_system, f_ave=slower)
        assert avg.f_ave is slower and avg.g is average_system.g
        seg = ha.simulate_path(avg, state(1.0, 0.0), 0, ha.Horizon(0.9, 5)).segments[0]
        assert np.max(np.abs(seg.x[:, 0] - np.exp(-0.5 * seg.t))) <= 1e-10
        # <grad V, f_ave> = -c4 V: c4 = 2 for -x, 1 for -x/2
        assert ha.foster_certificate(V_quad, average_system).c4 == pytest.approx(2.0, rel=1e-8)
        assert ha.foster_certificate(V_quad, avg).c4 == pytest.approx(1.0, rel=1e-8)

    def test_tau_independent_average_equals_flow_at_eps_zero(self, actuator):
        spec = tau_independent_spec(actuator)
        avg = ha.build_average_system(spec, lambda x, r: -np.asarray(x))
        x = np.array([[1.3], [-0.2]])
        r = np.zeros((2, 1))
        assert np.array_equal(avg.f_ave(x, r), spec.f(x, r, 0.0, 0.0))
