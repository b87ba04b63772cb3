import dataclasses
import math
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg import core, solver
from hybridavg.expressions import CompiledMap, allowed_names, compile_expressions
from hybridavg.core import (HybridArc, JumpNoise, JumpRecord, SetDescriptor, SystemSpec,
                            TERMINAL_HORIZON_J, TERMINAL_HORIZON_T, TERMINAL_LEFT_SETS)
from hybridavg.solver import MapEvaluationError

from conftest import arcs_equal, state


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_actuator(p=0.1, T=1.0, eps=0.01):
    return ha.jammed_actuator(period=T, jam_prob=p, epsilon=eps)


class TestFlowStep:
    """Single integrator steps, observed through simulate_path."""

    def test_linear_decay_matches_exponential(self, average_system):
        sys = average_system
        cfg = ha.IntegratorConfig(base_step=0.01, substep_per_epsilon=1.0)
        arc = ha.simulate_path(sys, state(1.0), 0, ha.Horizon(0.01, 10), cfg)
        assert arc.segments[0].t.shape == (2,)
        assert arc.segments[-1].x[-1, 0] == pytest.approx(math.exp(-0.01), abs=1e-10)

    def test_origin_is_invariant(self, actuator):
        arc = ha.simulate_path(actuator, state(0.0, 0.5), 0, ha.Horizon(0.0005, 10))
        assert arc.segments[0].t.shape == (2,)
        assert np.all(arc.segments[0].x == 0.0)

    def test_clock_advance_is_exact(self):
        spec = make_actuator(eps=0.01)
        cfg = ha.IntegratorConfig(base_step=0.02, substep_per_epsilon=2.0)
        arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(0.02, 10), cfg)
        assert arc.segments[0].t.shape == (2,)
        assert arc.segments[-1].tau[-1] == 2.0

    def test_requires_r_in_flow_set(self, actuator):
        with pytest.raises(ValueError, match="dead initial condition"):
            ha.simulate_path(actuator, state(1.0, 5.0), 0, ha.Horizon(0.0005, 10))


class TestTimerCrossing:
    """Exact location of the timer's entry into D, observed through simulate_path."""

    def test_linear_interpolation_exact(self, actuator):
        arc = ha.simulate_path(actuator, state(1.0, 0.95), 0, ha.Horizon(0.1, 10))
        assert arc.jumps[0].time.t == pytest.approx(0.05, abs=1e-12)

    def test_no_crossing_inside_window(self, actuator):
        arc = ha.simulate_path(actuator, state(1.0, 0.5), 0, ha.Horizon(0.1, 10))
        assert len(arc.jumps) == 0

    def test_already_on_boundary(self, actuator):
        arc = ha.simulate_path(actuator, state(1.0, 1.0), 0, ha.Horizon(0.1, 10))
        assert arc.jumps[0].time == ha.HybridTime(0.0, 0)


class TestSimulatePath:
    def test_average_flow_then_boosting_jump(self, average_system):
        # flow to x(1,0) = e^{-1}, then jump with v = +0.75 (p = 1): gain 1.5
        spec = ha.build_average_system(make_actuator(p=1.0), average_system.f_ave)
        arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(1.0, 10))
        assert len(arc.jumps) == 1
        jump = arc.jumps[0]
        assert jump.time.t == pytest.approx(1.0, abs=1e-12)
        assert jump.x_pre[0] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert jump.x_post[0] == pytest.approx(1.5 * math.exp(-1.0), abs=1e-9)
        assert jump.r_post[0] == 0.0

    def test_absorbing_jump_then_zero_forever(self, average_system):
        spec = ha.build_average_system(make_actuator(p=0.0), average_system.f_ave)
        arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(3.0, 10))
        assert arc.jumps[0].x_post[0] == 0.0
        for seg in arc.segments[1:]:
            assert np.all(seg.x == 0.0)

    def test_zero_initial_condition_stays_zero(self, actuator):
        arc = ha.simulate_path(actuator, state(0.0, 0.0), 5, ha.Horizon(3.0, 100))
        for seg in arc.segments:
            assert np.all(seg.x == 0.0)

    def test_dead_initial_condition(self, actuator):
        with pytest.raises(ValueError, match="dead initial condition"):
            ha.simulate_path(actuator, state(1.0, 7.0), 0, ha.Horizon(1.0, 10))

    def test_same_seed_reproduces_bitwise(self, actuator):
        a = ha.simulate_path(actuator, state(2.0, 0.0), 9, ha.Horizon(4.0, 100))
        b = ha.simulate_path(actuator, state(2.0, 0.0), 9, ha.Horizon(4.0, 100))
        assert arcs_equal(a, b)

    def test_jump_count_matches_timer_periods(self):
        spec = make_actuator(T=1.0)
        arc = ha.simulate_path(spec, state(2.0, 0.0), 3, ha.Horizon(5.5, 100))
        assert len(arc.jumps) == 5
        assert arc.terminal_reason == "horizon_t"

    def test_j_max_truncates(self):
        spec = make_actuator(T=1.0)
        arc = ha.simulate_path(spec, state(2.0, 0.0), 3, ha.Horizon(50.0, 3))
        assert len(arc.jumps) == 3
        assert arc.terminal_reason == "horizon_j"

    def test_left_sets_is_recorded_terminal(self, actuator):
        # auxiliary jump map sends the timer outside C u D: a dead post-jump state
        def bad_h(r, v):
            return np.full_like(np.asarray(r, dtype=float), 9.0)

        spec = dataclasses.replace(actuator, h=bad_h)
        arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(5.0, 10))
        assert arc.terminal_reason == "left_flow_jump_sets"
        assert len(arc.jumps) == 1

    def test_nonfinite_flow_names_the_map(self, actuator):
        def blow_up(x, r, tau, eps):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        spec = dataclasses.replace(actuator, f=blow_up)
        with pytest.raises(MapEvaluationError, match="'f'"):
            ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(1.0, 10))


@pytest.mark.parametrize("run, error", [
    pytest.param(lambda spec: ha.Horizon(math.inf, 10), "t_max must be finite and >= 0",
                 id="infinite-t_max"),
    pytest.param(lambda spec: ha.Horizon(1.0, 0), "j_max must be a positive integer",
                 id="j_max-0"),
    pytest.param(lambda spec: ha.simulate_path(spec, state([1.0, 2.0]), 0, ha.Horizon(1.0, 5)),
                 "initial state dimensions do not match the system", id="start-of-wrong-dim"),
    pytest.param(lambda spec: ha.simulate_ensemble(spec, [state(1.0)], 0, 0, ha.Horizon(1.0, 5)),
                 "n_paths must be >= 1", id="no-paths"),
    pytest.param(lambda spec: ha.simulate_ensemble(spec, [], 1, 0, ha.Horizon(1.0, 5)),
                 "need at least one initial condition", id="no-starts"),
])
def test_malformed_run_is_rejected_before_any_step(actuator, run, error):
    with pytest.raises(ValueError, match=error):
        run(actuator)


class TestIntegratorConfig:
    @pytest.mark.parametrize("field", ["base_step", "substep_per_epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.01])
    def test_rejects_non_positive_or_non_finite_steps(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ha.IntegratorConfig(**{field: value})


class TestStepAdvance:
    def test_half_ulp_step_is_rejected_before_any_step(self, monkeypatch):
        # t + ulp(1) / 2 rounds back to t = 1: the wave loop would never reach t_max
        monkeypatch.setattr(solver, "_rk4", None)
        cfg = ha.IntegratorConfig(base_step=math.ulp(1.0) / 2.0, substep_per_epsilon=1.0)
        with pytest.raises(ValueError, match=r"= 1\.1102230246251565e-16 is at most half "
                                             r"of ulp\(t_max\) at t_max = 1\.0"):
            ha.simulate_path(make_actuator(eps=1.0), state(1.0), 0, ha.Horizon(1.0, 10), cfg)

    def test_zero_horizon_takes_no_step_at_any_epsilon(self):
        arc = ha.simulate_path(make_actuator(eps=1e-300), state(1.0), 0, ha.Horizon(0.0, 10))
        assert arc.segments[0].t.tolist() == [0.0]
        assert arc.terminal_reason == TERMINAL_HORIZON_T


class TestArcStructure:
    def test_segments_abut_and_jumps_increment_j(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        assert len(arc.jumps) == 4
        for k, seg in enumerate(arc.segments):
            assert seg.j == k
        for k in range(len(arc.segments) - 1):
            assert arc.segments[k].t[-1] == arc.segments[k + 1].t[0]

    def test_jump_prestates_lie_in_jump_set(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        for jump in arc.jumps:
            assert actuator.D.contains(jump.r_pre[0:1])

    def test_flow_samples_lie_in_flow_set(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        for seg in arc.segments:
            for k in range(seg.r.shape[0]):
                assert actuator.flow_or_jump_set.contains(seg.r[k])

    def test_replaying_recorded_draws_reproduces_posts(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        for jump in arc.jumps:
            g_out = actuator.g(jump.x_pre[None, :], jump.r_pre[None, :], jump.v[None, :])
            h_out = actuator.h(jump.r_pre[None, :], jump.v[None, :])
            assert np.array_equal(np.asarray(g_out)[0], jump.x_post)
            assert np.array_equal(np.asarray(h_out)[0], jump.r_post)

    def test_draws_are_keyed_by_jump_index(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        for k, jump in enumerate(arc.jumps):
            assert np.array_equal(jump.v, actuator.noise.draw(11, k + 1))

    def test_step_refinement_preserves_jump_sequence(self, actuator):
        coarse = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100),
                                  ha.IntegratorConfig(substep_per_epsilon=0.2))
        fine = ha.simulate_path(actuator, state(2.0, 0.0), 11, ha.Horizon(4.5, 100),
                                ha.IntegratorConfig(substep_per_epsilon=0.05))
        assert len(coarse.jumps) == len(fine.jumps)
        for a, b in zip(coarse.jumps, fine.jumps):
            assert np.array_equal(a.v, b.v)

    def test_clock_is_linear_on_each_segment(self):
        spec = make_actuator(eps=0.01)
        arc = ha.simulate_path(spec, state(2.0, 0.0), 11, ha.Horizon(4.5, 100))
        for seg in arc.segments:
            ideal = seg.tau[0] + (seg.t - seg.t[0]) / 0.01
            assert np.max(np.abs(seg.tau - ideal)) <= 1e-10


class TestTrajectoryCloseness:
    def test_gap_to_average_shrinks_with_epsilon(self):
        # jump-free window (T = 2 > horizon 1); oracle: the average solution
        # is exactly e^{-t}
        gaps = []
        for eps in (0.1, 0.05, 0.01, 0.005):
            spec = make_actuator(T=2.0, eps=eps)
            arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(1.0, 5))
            seg = arc.segments[0]
            gaps.append(float(np.max(np.abs(seg.x[:, 0] - np.exp(-seg.t)))))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestConvergenceOrder:
    def test_step_halving_gains_a_factor_of_eight(self, average_system):
        sys = average_system
        errs = []
        for base in [0.1, 0.05, 0.025, 0.0125]:
            cfg = ha.IntegratorConfig(base_step=base, substep_per_epsilon=1e12)
            arc = ha.simulate_path(sys, state(1.0, 0.0), 0, ha.Horizon(1.0, 5), cfg)
            seg = arc.segments[0]
            errs.append(float(np.max(np.abs(seg.x[:, 0] - np.exp(-seg.t)))))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 8.0


class TestEnsemble:
    def test_initial_conditions_cycle(self, actuator):
        ens = ha.simulate_ensemble(actuator, [state(-2.0, 0.0), state(2.0, 0.0)],
                                   100, 0, ha.Horizon(0.5, 10))
        starts = [arc.segments[0].x[0, 0] for arc in ens]
        assert starts.count(-2.0) == 50 and starts.count(2.0) == 50

    def test_singleton_matches_simulate_path(self, actuator):
        ens = ha.simulate_ensemble(actuator, [state(2.0, 0.0)], 1, 123, ha.Horizon(2.5, 10))
        solo = ha.simulate_path(actuator, state(2.0, 0.0), 123, ha.Horizon(2.5, 10))
        assert arcs_equal(ens[0], solo)

    def test_rerun_is_bit_identical(self, actuator):
        a = ha.simulate_ensemble(actuator, [state(2.0, 0.0)], 8, 5, ha.Horizon(2.5, 10))
        b = ha.simulate_ensemble(actuator, [state(2.0, 0.0)], 8, 5, ha.Horizon(2.5, 10))
        assert all(arcs_equal(x, y) for x, y in zip(a, b))

    def test_member_identical_to_lone_path(self, actuator):
        ens = ha.simulate_ensemble(actuator, [state(-2.0, 0.0), state(2.0, 0.0)],
                                   6, 50, ha.Horizon(3.5, 100))
        for i, arc in enumerate(ens):
            s0 = arc.segments[0]
            solo = ha.simulate_path(actuator, state(s0.x[0], s0.r[0], float(s0.tau[0])), 50 + i,
                                    ha.Horizon(3.5, 100))
            assert arcs_equal(arc, solo)

    def test_members_share_read_only_segment_arrays(self, actuator):
        # one shared r0 and a timer reset to 0: all four paths stay one group,
        # and members whose segment starts on one x row share its segment object
        ens = ha.simulate_ensemble(actuator, [state(-2.0, 0.0), state(2.0, 0.0)],
                                   4, 50, ha.Horizon(3.5, 100))
        assert [len(arc.segments) for arc in ens] == [4] * 4
        assert ens[0].segments[0].x is ens[2].segments[0].x
        for segs in zip(*(arc.segments for arc in ens)):
            for a in segs:
                for name in ("t", "tau", "r"):
                    assert getattr(a, name) is getattr(segs[0], name)
                for name in ("t", "tau", "r", "x"):
                    assert not getattr(a, name).flags.writeable
                for b in segs:
                    assert (a.x is b.x) == (a.x[0].tobytes() == b.x[0].tobytes())
                    assert (a is b) == (a.x is b.x)

    def test_mixed_aux_initials_fall_back_per_path(self, actuator):
        # different r(0) start separate lockstep groups; results must still match lone runs
        inits = [state(2.0, 0.0), state(2.0, 0.3)]
        ens = ha.simulate_ensemble(actuator, inits, 4, 9, ha.Horizon(2.5, 10))
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(actuator, inits[i % 2], 9 + i, ha.Horizon(2.5, 10))
            assert arcs_equal(arc, solo)

    def test_diverging_aux_jumps_fall_back_per_path(self, actuator):
        # h spreads the timers by the draw: the lockstep group must split
        def spread_h(r, v):
            return 0.2 + 0.1 * np.asarray(v, dtype=float)

        spec = dataclasses.replace(actuator, h=spread_h)
        ens = ha.simulate_ensemble(spec, [state(2.0, 0.0)], 5, 77, ha.Horizon(2.5, 20))
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(spec, state(2.0, 0.0), 77 + i, ha.Horizon(2.5, 20))
            assert arcs_equal(arc, solo)

    def test_per_path_errors_carry_the_path_index(self, actuator):
        def blow_up(x, r, tau, eps):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        spec = dataclasses.replace(actuator, f=blow_up)
        # mixed aux initials start two groups; the one holding path 0 runs first
        inits = [state(1.0, 0.0), state(1.0, 0.3)]
        with pytest.raises(MapEvaluationError, match="path 0"):
            ha.simulate_ensemble(spec, inits, 3, 4, ha.Horizon(1.0, 10))

    @pytest.mark.parametrize("r1", [0.3, 0.0], ids=["mixed-r0", "shared-r0"])
    def test_jump_map_errors_name_the_failing_path(self, actuator, r1):
        # g fails only for the negative start, path 2, which shares a group with path 0
        def bad_g(x, r, v):
            return np.where(np.asarray(x) < 0.0, np.inf, actuator.g(x, r, v))

        spec = dataclasses.replace(actuator, g=bad_g)
        inits = [state(1.0, 0.0), state(2.0, r1), state(-3.0, 0.0)]
        with pytest.raises(MapEvaluationError, match=r"map 'g'.*path 2, seed 6\)"):
            ha.simulate_ensemble(spec, inits, 3, 4, ha.Horizon(2.0, 10))


class TestGroupingInvariant:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        starts=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                  st.sampled_from([0.0, 0.25, 0.6, 1.0]),
                                  st.sampled_from([0.0, 0.5, 2.0])),
                        min_size=1, max_size=4),
        n_paths=st.integers(1, 8),
        h_shift=st.floats(-0.2, 1.2),
        h_gain=st.sampled_from([0.0, 0.1, -0.4]),
        t_max=st.floats(0.0, 2.0),
        j_max=st.integers(1, 4),
    )
    def test_every_member_matches_its_lone_path(self, starts, n_paths, h_shift, h_gain,
                                                t_max, j_max):
        # h = shift + gain*v splits groups at jumps, and may leave C u D
        def h(r, v):
            return h_shift + h_gain * np.asarray(v, dtype=float)

        spec = dataclasses.replace(make_actuator(p=0.5, eps=0.1), h=h)
        inits = [state(x, r, tau) for x, r, tau in starts]
        horizon = ha.Horizon(t_max, j_max)
        ens = ha.simulate_ensemble(spec, inits, n_paths, 3, horizon)
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(spec, inits[i % len(inits)], 3 + i, horizon)
            assert arcs_equal(arc, solo)


class TestWaves:
    """Each wave steps every live group once; groups that share (tau, dt) share f calls."""

    def test_split_groups_share_one_f_and_w_call_per_stage(self):
        # a shared r0 = 0.95 jumps at t = 0.05, where h gives every path its own
        # timer: the 30 one-path groups then step as one (tau, dt) cohort
        base = make_actuator()
        calls = {"f": 0, "w": 0, "f_rows": 0}

        def f(x, r, tau, eps):
            calls["f"] += 1
            calls["f_rows"] += len(x)
            return base.f(x, r, tau, eps)

        def w(r):
            calls["w"] += 1
            return base.w(r)

        def h(r, v):
            return 0.5 * np.asarray(v, dtype=float)[..., 1:2]

        noise = JumpNoise.from_sampler(lambda seed, k: np.array([0.75, seed / 97.0]), 2)
        spec = dataclasses.replace(base, f=f, w=w, h=h, m=2, noise=noise)
        inits = [state(x, 0.95) for x in (-2.0, 1.0, 2.0)]
        ens = ha.simulate_ensemble(spec, inits, 30, 0, ha.Horizon(0.1, 10))
        assert len({arc.jumps[0].r_post.tobytes() for arc in ens}) == 30
        steps = [sum(len(seg.t) - 1 for seg in arc.segments) for arc in ens]
        # dt = 0.001: 50 steps to the jump at t = 0.05, then 50 more.  f sees
        # each distinct row's four stages of each step once: before the jump
        # the one group holds the 3 starts' rows, after it the 30 one-path
        # groups hold one row each
        assert [len(arc.segments[0].t) - 1 for arc in ens] == [50] * 30
        assert steps == [100] * 30
        assert calls["f_rows"] == 4 * (3 * 50 + 30 * 50) == 6600
        assert calls["f"] <= 4 * (max(steps) + 2)
        assert calls["w"] <= 4 * (max(steps) + 2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        starts=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                  st.sampled_from([0.0, 0.25, 0.6, 0.95]),
                                  st.sampled_from([0.0, 0.5])),
                        min_size=1, max_size=5),
        n_paths=st.integers(1, 10),
        h_shift=st.floats(0.0, 0.9),
        h_gain=st.sampled_from([0.0, 0.1, -0.4]),
        t_max=st.floats(0.0, 2.0),
    )
    def test_maps_see_a_scalar_tau(self, starts, n_paths, h_shift, h_gain, t_max):
        base = make_actuator(p=0.5, eps=0.1)

        def f(x, r, tau, eps):
            assert np.ndim(tau) == 0
            return base.f(x, r, tau, eps)

        def h(r, v):
            return h_shift + h_gain * np.asarray(v, dtype=float)

        spec = dataclasses.replace(base, f=f, h=h)
        inits = [state(x, r, tau) for x, r, tau in starts]
        horizon = ha.Horizon(t_max, 6)
        ens = ha.simulate_ensemble(spec, inits, n_paths, 3, horizon)
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(spec, inits[i % len(inits)], 3 + i, horizon)
            assert arcs_equal(arc, solo)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        starts=st.lists(st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.6, 0.95])),
                        min_size=1, max_size=4),
        picks=st.lists(st.booleans(), min_size=1, max_size=10),
        h_shift=st.floats(0.0, 0.9),
        h_gain=st.sampled_from([0.0, 0.1, -0.4]),
        t_max=st.floats(0.0, 2.0),
    )
    def test_each_path_draws_from_its_own_noise(self, starts, picks, h_shift, h_gain, t_max):
        # with h_gain != 0, h reads v, so a lockstep group splits on the noise
        def h(r, v):
            return h_shift + h_gain * np.asarray(v, dtype=float)

        spec = dataclasses.replace(make_actuator(p=0.5, eps=0.1), h=h)
        pair = (JumpNoise.finite([[0.75], [-0.75], [0.25]], [0.4, 0.4, 0.2]),
                JumpNoise.finite([[0.25], [0.5]], [0.5, 0.5]))
        noises = [pair[pick] for pick in picks]
        inits = [state(x, r) for x, r in starts]
        horizon = ha.Horizon(t_max, 6)
        ens = ha.simulate_ensemble(spec, inits, len(picks), 3, horizon, noises=noises)
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(dataclasses.replace(spec, noise=noises[i]),
                                    inits[i % len(inits)], 3 + i, horizon)
            assert arcs_equal(arc, solo)

    @pytest.mark.parametrize("noises, error", [
        ([JumpNoise.finite([[0.25]], [1.0])] * 2,
         r"^need one noise per path, got 2 for 3 paths: path 2 \(seed 9\) has none$"),
        ([JumpNoise.finite([[0.25]], [1.0])] * 4,
         r"^need one noise per path, got 4 for 3 paths: noise 3 has no path$"),
        ([JumpNoise.finite([[0.25]], [1.0]), JumpNoise.finite([[0.25, 0.5]], [1.0]),
          JumpNoise.finite([[0.25]], [1.0])],
         r"^noise of path 1 \(seed 8\) draws v in R\^2, but the system's jumps take m = 1$"),
    ], ids=["too-few", "too-many", "wrong-m"])
    def test_a_bad_noise_list_is_an_error_before_any_step(self, noises, error):
        def f(x, r, tau, eps):
            raise AssertionError("a step ran")

        spec = dataclasses.replace(make_actuator(), f=f)
        with pytest.raises(ValueError, match=error):
            ha.simulate_ensemble(spec, [state(1.0)], 3, 7, ha.Horizon(1.0, 10), noises=noises)

    @pytest.mark.parametrize("x2", [2.0, 2.5], ids=["later", "same-wave"])
    def test_the_first_failing_wave_names_its_lowest_failing_path(self, x2):
        # f turns infinite once x passes 3: path 1 (x0 = 2.5, its own group) gets
        # there at t ~ 0.18, and path 2 (grouped with path 0) at t ~ 0.41 from
        # x0 = 2 or in the same wave from x0 = 2.5
        def f(x, r, tau, eps):
            x = np.asarray(x, dtype=float)
            return np.where(x > 3.0, np.inf, x)

        spec = dataclasses.replace(_r_dependent_spec(1.0, 0.0, 0.0, [], 1.0, 0.0, 0.0), f=f)
        inits = [state(1.0, 0.0), state(2.5, 0.3), state(x2, 0.0)]
        with pytest.raises(MapEvaluationError,
                           match=r"^map 'f' returned a non-finite value \(t=0\.18\d*; "
                                 r"path 1, seed 5\)$"):
            solver._simulate(spec, inits, [4, 5, 6], [spec.noise] * 3, ha.Horizon(2.0, 10),
                             ha.IntegratorConfig())


class TestDistinctRows:
    """A lockstep group steps one x row per bitwise-distinct state."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        x0s=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), min_size=1, max_size=5),
        n_paths=st.integers(1, 12),
        t_max=st.floats(0.0, 2.5),
    )
    @example(x0s=[0.0, -0.0, 2.0, 0.0], n_paths=9, t_max=2.5)
    def test_f_sees_each_distinct_row_once(self, x0s, n_paths, t_max):
        base = make_actuator(p=0.5, eps=0.1)
        rows = []

        def f(x, r, tau, eps):
            # 0.0 and -0.0 flow apart here, so a group must not merge them
            rows.append(len(x))
            return base.f(x, r, tau, eps) + np.where(np.signbit(x), -0.5, 0.5)

        spec = dataclasses.replace(base, f=f)
        inits = [state(x) for x in x0s]
        horizon = ha.Horizon(t_max, 10)
        ens = ha.simulate_ensemble(spec, inits, n_paths, 3, horizon)
        # a shared r0 and the timer reset keep every path in one group, whose
        # rows in a segment are the distinct bits of its members' first samples
        want = sum(len({seg.x[0].tobytes() for seg in segs}) * (len(segs[0].t) - 1)
                   for segs in zip(*(arc.segments for arc in ens)))
        assert sum(rows) == 4 * want
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(spec, inits[i % len(inits)], 3 + i, horizon)
            assert arcs_equal(arc, solo)

    def test_a_non_finite_f_on_a_shared_row_names_its_lowest_path(self):
        # one group of five paths on two rows: paths 2 and 4 share x0 = 2.5,
        # and f turns infinite on that row once x passes 3, at t ~ 0.18
        def f(x, r, tau, eps):
            x = np.asarray(x, dtype=float)
            return np.where(x > 3.0, np.inf, x)

        spec = dataclasses.replace(_r_dependent_spec(1.0, 0.0, 0.0, [], 1.0, 0.0, 0.0), f=f)
        inits = [state(x, 0.0) for x in (1.0, 1.0, 2.5, 1.0, 2.5)]
        with pytest.raises(MapEvaluationError,
                           match=r"^map 'f' returned a non-finite value \(t=0\.18\d*; "
                                 r"path 2, seed 6\)$"):
            solver._simulate(spec, inits, [4, 5, 6, 7, 8], [spec.noise] * 5,
                             ha.Horizon(2.0, 10), ha.IntegratorConfig())


def _compiled_flow(text):
    """A compiled flow map f(x, r, tau, eps) of one state column."""
    return CompiledMap(compile_expressions([text], allowed_names(1, 1, tau=True, eps=True)),
                       ("x", "r", "tau", "eps"))


def _row_limit(fmap) -> int:
    """The largest batch fmap's fused step takes, read from its source."""
    return int(re.search(r"_len\(x\) > (\d+)", fmap.source).group(1))


class TestFusedStep:
    """A compiled flow map steps a small batch through its fused RK4 step."""

    @pytest.mark.parametrize("config", ["es.cfg", "actuator.cfg"])
    def test_within_limit_batches_never_call_f(self, monkeypatch, config):
        spec = ha.load_system(str(CONFIGS / config))
        limit = _row_limit(spec.f)
        batches, fused, called = [], [], []
        rk4, step, call = solver._rk4, spec.f.step, CompiledMap.__call__

        def counted_rk4(spec, x, *args):
            batches.append(len(x))
            return rk4(spec, x, *args)

        def counted_step(x, *args):
            out = step(x, *args)
            fused.append(out is not None)
            return out

        def counted_call(fmap, *args):
            if fmap is spec.f:
                called.append(len(args[0]))
            return call(fmap, *args)

        monkeypatch.setattr(solver, "_rk4", counted_rk4)
        monkeypatch.setattr(spec.f, "step", counted_step)
        monkeypatch.setattr(CompiledMap, "__call__", counted_call)
        inits = [state(x) for x in (-2.0, 2.0, 0.5)]
        ens = ha.simulate_ensemble(spec, inits, 12, 1, ha.Horizon(3.0, 100))
        # _rk4 runs once per step and tries the fused step first, which takes
        # every batch within the limit; f itself sees only the larger ones,
        # four times each
        assert len(fused) == len(batches) and min(batches) <= limit
        assert fused == [b <= limit for b in batches]
        assert called == [b for b in batches if b > limit for _ in range(4)]
        # a plain callable f takes the numpy step, with the same bits
        plain = dataclasses.replace(spec, f=lambda *args: spec.f(*args))
        assert all(map(arcs_equal, ha.simulate_ensemble(plain, inits, 12, 1,
                                                        ha.Horizon(3.0, 100)), ens))

    def test_rk4_runs_once_per_step_of_a_lone_path(self, monkeypatch):
        spec = ha.load_system(str(CONFIGS / "es.cfg"))
        rk4, calls = solver._rk4, []

        def counted(*args):
            calls.append(None)
            return rk4(*args)

        monkeypatch.setattr(solver, "_rk4", counted)
        arc = ha.simulate_path(spec, state(2.0), 3, ha.Horizon(2.5, 10))
        assert len(calls) == sum(len(seg.t) - 1 for seg in arc.segments) > 0

    def test_a_batch_above_the_limit_takes_the_numpy_step(self):
        spec = ha.load_system(str(CONFIGS / "es.cfg"))
        B = _row_limit(spec.f) + 1
        x, rs = np.linspace(-2.0, 2.0, B)[:, None], np.zeros((5, B, 1))
        want, _ = solver._rk4(dataclasses.replace(spec, f=lambda *args: spec.f(*args)),
                              x, rs, 0.3, 1e-3)
        assert spec.f.step(x, rs, 0.3, spec.epsilon, 1e-3) is None
        assert spec.f.step(x[1:], rs[:, 1:], 0.3, spec.epsilon, 1e-3) is not None
        got, _ = solver._rk4(spec, x, rs, 0.3, 1e-3)
        assert got.tobytes() == want.tobytes()

    def test_a_non_finite_compiled_f_names_its_lowest_path(self):
        # test_a_non_finite_f_on_a_shared_row_names_its_lowest_path with a
        # compiled f: x' = x, infinite once x passes 3; its fused step takes the
        # group's two rows
        f = _compiled_flow("ifge(3.0, x_1, x_1*1.0 + 0.0, x_1*1e999)")
        assert _row_limit(f) >= 2
        base = _r_dependent_spec(1.0, 0.0, 0.0, [], 1.0, 0.0, 0.0)
        inits = [state(x, 0.0) for x in (1.0, 1.0, 2.5, 1.0, 2.5)]
        messages = []
        for fmap in (f, lambda *args: f(*args)):
            spec = dataclasses.replace(base, f=fmap)
            with pytest.raises(MapEvaluationError) as err:
                solver._simulate(spec, inits, [4, 5, 6, 7, 8], [spec.noise] * 5,
                                 ha.Horizon(2.0, 10), ha.IntegratorConfig())
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(r"map 'f' returned a non-finite value \(t=0\.18\d*; "
                            r"path 2, seed 6\)", messages[0])


class TestGroupDraws:
    """A jumping group draws once per noise object among its paths (JumpNoise.draws)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        x0s=st.lists(st.sampled_from([-2.0, 0.5, 1.0, 2.5]), min_size=1, max_size=3),
        n_paths=st.integers(core._GROUP_DRAWS - 2, 2 * core._GROUP_DRAWS + 2),
        below=st.integers(0, 3 * core._GROUP_DRAWS),
        own=st.one_of(st.none(), st.integers(0, 40)),
        blow_up=st.booleans(),
    )
    @example(x0s=[1.0, 2.5], n_paths=2 * core._GROUP_DRAWS, below=core._GROUP_DRAWS,
             own=None, blow_up=True)
    def test_members_match_lone_paths_and_per_path_draws(self, x0s, n_paths, below, own,
                                                        blow_up):
        # seeds 2**32 - below ...: all below 2**32, straddling it, or all above;
        # a flow that turns infinite past x = 3 leaves the fused step to the numpy one
        text = "ifge(3.0, x_1, x_1*(1 + sin(tau)), x_1*1e999)" if blow_up \
            else "-x_1*(1 + sin(tau))"
        spec = dataclasses.replace(make_actuator(p=0.5, eps=0.1), f=_compiled_flow(text))
        inits = [state(x) for x in x0s]
        horizon, seed_base = ha.Horizon(2.5, 10), 2**32 - below
        if own is None or blow_up:
            # against the reference runner, which draws per path, error text included
            starts = [inits[i % len(inits)] for i in range(n_paths)]
            arcs = _assert_same_outcome(spec, starts,
                                        list(range(seed_base, seed_base + n_paths)), horizon)
            # x0 = 2.5 passes 3 at t ~ 0.18, before the first jump
            assert arcs is not None or blow_up
            assert arcs is None or not (blow_up and 2.5 in x0s)
            return
        # one path draws from its own noise, as fig1's nominal path does
        noises = [spec.noise] * n_paths
        noises[own % n_paths] = JumpNoise.finite([[0.25], [-0.5]], [0.5, 0.5])
        ens = ha.simulate_ensemble(spec, inits, n_paths, seed_base, horizon, noises=noises)
        for i, arc in enumerate(ens):
            solo = ha.simulate_path(dataclasses.replace(spec, noise=noises[i]),
                                    inits[i % len(inits)], seed_base + i, horizon)
            assert arcs_equal(arc, solo)

    @pytest.mark.parametrize("seed_base, together", [(7, [19] * 2), (2**32 - 10, [])],
                             ids=["below-2**32", "straddling-2**32"])
    def test_only_a_large_part_in_range_draws_together(self, monkeypatch, seed_base, together):
        # one group of 20 paths jumps twice by t = 2.5; path 3 has its own noise
        keyed, sizes = core._keyed_uniforms, []

        def counted(seeds, k):
            sizes.append(len(seeds))
            return keyed(seeds, k)

        monkeypatch.setattr(core, "_keyed_uniforms", counted)
        spec = make_actuator(p=0.5, eps=0.1)
        noises = [spec.noise] * 20
        noises[3] = JumpNoise.finite([[0.25], [-0.5]], [0.5, 0.5])
        ens = ha.simulate_ensemble(spec, [state(2.0)], 20, seed_base, ha.Horizon(2.5, 10),
                                   noises=noises)
        assert [len(arc.jumps) for arc in ens] == [2] * 20
        assert sizes == together
        for i in (0, 3, 19):
            solo = ha.simulate_path(dataclasses.replace(spec, noise=noises[i]), state(2.0),
                                    seed_base + i, ha.Horizon(2.5, 10))
            assert arcs_equal(ens[i], solo)


# --- reference: the per-step loop that evaluated the aux state on every step --

def _reference_rk4(spec, x, r, tau, dt):
    f, w, eps = spec.f, spec.w, spec.epsilon
    half = 0.5 * dt
    tau_h = tau + half / eps
    tau_f = tau + dt / eps
    k1x = np.asarray(f(x, r, tau, eps), dtype=float)
    k1r = np.asarray(w(r), dtype=float)
    k2x = np.asarray(f(x + half * k1x, r + half * k1r, tau_h, eps), dtype=float)
    k2r = np.asarray(w(r + half * k1r), dtype=float)
    k3x = np.asarray(f(x + half * k2x, r + half * k2r, tau_h, eps), dtype=float)
    k3r = np.asarray(w(r + half * k2r), dtype=float)
    k4x = np.asarray(f(x + dt * k3x, r + dt * k3r, tau_f, eps), dtype=float)
    k4r = np.asarray(w(r + dt * k3r), dtype=float)
    x2 = x + (dt / 6.0) * (k1x + 2.0 * (k2x + k3x) + k4x)
    r2 = r + (dt / 6.0) * (k1r + 2.0 * (k2r + k3r) + k4r)
    return x2, r2


def _reference_simulate(spec, starts, seeds, horizon, cfg):
    """Lockstep runner that recomputes membership, events and r stages every step."""
    cu = spec.flow_or_jump_set
    inv_eps = 1.0 / spec.epsilon
    dt_eff = cfg.effective_step(spec.epsilon)
    segments = [[] for _ in starts]
    jumps = [[] for _ in starts]
    terminals = [None] * len(starts)
    work = deque()
    for rows in solver._bitwise_groups([np.append(s.r, s.tau) for s in starts]):
        first = starts[rows[0]]
        if not cu.contains(first.r):
            raise ValueError("dead initial condition: r(0) lies in neither C nor D "
                             f"(path {rows[0]}, seed {seeds[rows[0]]})")
        X = np.stack([starts[i].x for i in rows])
        R = np.tile(first.r, (len(rows), 1))
        work.append((np.array(rows), X, R, 0.0, 0, first.tau))

    while work:
        paths, X, R, t, j, tau_now = work.popleft()
        rrow = R[0].copy()
        t_anchor, tau_anchor = t, tau_now
        cur_t, cur_x, cur_r, cur_tau = [t], [X], [R], [tau_now]
        terminal = None
        while True:
            if j >= horizon.j_max:
                terminal = TERMINAL_HORIZON_J
                break
            if spec.D.contains(rrow):
                break
            if t >= horizon.t_max:
                terminal = TERMINAL_HORIZON_T
                break
            if not spec.C.contains(rrow):
                terminal = TERMINAL_LEFT_SETS
                break
            remain = horizon.t_max - t
            dt = min(dt_eff, remain)
            wrow = np.asarray(spec.w(rrow[None, :]), dtype=float).ravel()
            solver._check_finite("w", [(wrow, paths, f"t={t}")], seeds)
            snap_box = None
            (exit_end, exit_box), entry = solver._events(rrow, wrow, spec, dt)
            if exit_end <= 0.0:
                terminal = TERMINAL_LEFT_SETS
                break
            if exit_end < dt:
                dt = exit_end
                snap_box = exit_box
            if entry is not None and entry[0] <= dt:
                dt, snap_box = entry
            if dt <= 0.0:
                R = np.clip(R, *snap_box)
                rrow = R[0].copy()
                continue
            X2, R2 = _reference_rk4(spec, X, R, tau_now, dt)
            solver._check_finite("f", [(X2, paths, f"t={t}")], seeds)
            if snap_box is not None:
                R2 = np.clip(R2, *snap_box)
            t = horizon.t_max if dt == remain else t + dt
            tau_now = tau_anchor + (t - t_anchor) * inv_eps
            X, R, rrow = X2, R2, R2[0].copy()
            cur_t.append(t)
            cur_x.append(X)
            cur_r.append(R)
            cur_tau.append(tau_now)

        # a group's members share one aux row per sample
        solver._store_segment(segments, paths, np.arange(len(paths)), j, cur_t, cur_x,
                              [R[:1] for R in cur_r], cur_tau)
        if terminal is not None:
            for i in paths:
                terminals[i] = terminal
            continue

        k = j + 1
        B = len(paths)
        V = np.stack([spec.noise.draw(seeds[i], k) for i in paths])
        Xp = np.asarray(spec.g(X, R, V), dtype=float)
        Rp = np.asarray(spec.h(R, V), dtype=float)
        Xp = np.broadcast_to(Xp, (B, spec.n)).astype(float, copy=True)
        Rp = np.broadcast_to(Rp, (B, spec.p)).astype(float, copy=True)
        solver._check_finite("g", [(Xp, paths, f"jump {k} at t={t}")], seeds)
        solver._check_finite("h", [(Rp, paths, f"jump {k} at t={t}")], seeds)
        ht = ha.HybridTime(t, j)
        for b, i in enumerate(paths):
            jumps[i].append(JumpRecord(ht, X[b].copy(), R[b].copy(), tau_now, V[b].copy(),
                                       Xp[b].copy(), Rp[b].copy()))
        for rows in solver._bitwise_groups(Rp):
            sub = paths[rows]
            if cu.contains(Rp[rows[0]]):
                work.append((sub, Xp[rows], Rp[rows], t, k, tau_now))
                continue
            solver._store_segment(segments, sub, np.arange(len(sub)), k, [t], [Xp[rows]],
                                  [Rp[rows[:1]]], [tau_now])
            for i in sub:
                terminals[i] = TERMINAL_LEFT_SETS

    return [HybridArc(tuple(segments[i]), tuple(jumps[i]), seeds[i], terminals[i])
            for i in range(len(starts))]


def _outcome(run, spec, starts, seeds, horizon, cfg):
    """The arcs of a run, or the type and message of the error it raised."""
    try:
        return run(spec, starts, seeds, horizon, cfg)
    except (MapEvaluationError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(spec, starts, seeds, horizon, cfg=ha.IntegratorConfig()):
    got = _outcome(lambda spec, starts, seeds, *rest: solver._simulate(
        spec, starts, seeds, [spec.noise] * len(starts), *rest), spec, starts, seeds, horizon, cfg)
    want = _outcome(_reference_simulate, spec, starts, seeds, horizon, cfg)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert arcs_equal(a, b)
        # arcs_equal does not compare pre-jump states
        for ja, jb in zip(a.jumps, b.jumps):
            assert np.array_equal(ja.x_pre, jb.x_pre) and np.array_equal(ja.r_pre, jb.r_pre)
            assert ja.tau == jb.tau
    return got


def _r_dependent_spec(a, b, c, cuts, d_lo, h_shift, h_gain):
    """p = 1: w = a + b r, f pulls x towards c r, C = abutting boxes [0, cuts...], D = [d_lo, 1]."""
    def f(x, r, tau, eps):
        return -(x * (1.0 + np.sin(tau))) + c * r

    def w(r):
        return a + b * np.asarray(r, dtype=float)

    def g(x, r, v):
        return (0.75 + v[..., :1]) * x

    def h(r, v):
        return h_shift + h_gain * np.asarray(v, dtype=float)

    edges = [0.0] + sorted(cuts) + [1.0]
    C = SetDescriptor.union_of([SetDescriptor.box([lo], [hi])
                                for lo, hi in zip(edges, edges[1:])])
    D = SetDescriptor.box([d_lo], [1.0])
    noise = JumpNoise.finite([[0.75], [-0.75], [0.25]], [0.4, 0.4, 0.2])
    return SystemSpec(n=1, p=1, m=1, f=f, w=w, g=g, h=h, C=C, D=D, noise=noise,
                      epsilon=0.1)


class TestAuxStepPlan:
    """The memoized aux plan reproduces the per-step loop bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=st.floats(0.3, 2.0),
        b=st.sampled_from([0.0, 0.7, -0.4]),
        c=st.floats(-1.0, 1.0),
        cuts=st.lists(st.floats(0.05, 0.95), max_size=3),
        d_lo=st.sampled_from([1.0, 0.9]),
        h_shift=st.sampled_from([0.0, 0.3, 0.95]),
        h_gain=st.sampled_from([0.0, 0.4, -0.2]),
        starts=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                  st.sampled_from([0.0, 0.5, 0.999]),
                                  st.sampled_from([0.0, 2.0])),
                        min_size=1, max_size=3),
        n_paths=st.integers(1, 7),
        t_max=st.floats(0.0, 2.5),
        j_max=st.integers(1, 6),
    )
    def test_matches_the_per_step_loop(self, a, b, c, cuts, d_lo, h_shift, h_gain, starts,
                                       n_paths, t_max, j_max):
        spec = _r_dependent_spec(a, b, c, cuts, d_lo, h_shift, h_gain)
        inits = [state(x, r, tau) for x, r, tau in starts]
        chosen = [inits[i % len(inits)] for i in range(n_paths)]
        _assert_same_outcome(spec, chosen, list(range(3, 3 + n_paths)),
                             ha.Horizon(t_max, j_max))

    def test_snap_onto_the_jump_set_from_one_ulp_below(self):
        # D = {1} inside C = [0, 2]: with w this large the entry time underflows
        # to 0, so the row is snapped onto D without a flow step, then jumps
        below = math.nextafter(1.0, 0.0)

        def w(r):
            return np.full_like(np.asarray(r, dtype=float), 1.7e308)

        spec = dataclasses.replace(make_actuator(), w=w, C=SetDescriptor.box([0.0], [2.0]))
        arcs = _assert_same_outcome(spec, [state(1.0, below)] * 2, [0, 1],
                                    ha.Horizon(1.0, 1))
        for arc in arcs:
            assert arc.segments[0].r[-1, 0] == below
            assert arc.jumps[0].time == ha.HybridTime(0.0, 0)
            assert arc.jumps[0].r_pre[0] == 1.0

    def test_non_finite_w_keeps_its_message(self):
        # w fails only at the start of path 1, which runs as its own group
        # after the group of paths 0 and 2 has planned its steps
        def w(r):
            r = np.asarray(r, dtype=float)
            return np.where(r == 0.3, np.inf, 1.0)

        spec = dataclasses.replace(make_actuator(), w=w)
        inits = [state(1.0, 0.0), state(2.0, 0.3), state(-1.0, 0.0)]
        _assert_same_outcome(spec, inits, [4, 5, 6], ha.Horizon(2.0, 10))
        with pytest.raises(MapEvaluationError) as err:
            ha.simulate_ensemble(spec, inits, 3, 4, ha.Horizon(2.0, 10))
        assert str(err.value) == "map 'w' returned a non-finite value (t=0.0; path 1, seed 5)"

    def test_non_finite_f_mid_run_keeps_its_message(self):
        # f turns infinite once x passes 3, which path 1 (x0 = 2) reaches first,
        # at t ~ 0.4 and before the first jump
        def f(x, r, tau, eps):
            x = np.asarray(x, dtype=float)
            return np.where(x > 3.0, np.inf, x)

        spec = dataclasses.replace(_r_dependent_spec(1.0, 0.0, 0.0, [], 1.0, 0.0, 0.0), f=f)
        inits = [state(1.0), state(2.0), state(-1.0)]
        horizon = ha.Horizon(2.0, 10)
        _assert_same_outcome(spec, inits, [4, 5, 6], horizon)
        with pytest.raises(MapEvaluationError,
                           match=r"^map 'f' returned a non-finite value \(t=0\.4\d*; "
                                 r"path 1, seed 5\)$"):
            solver._simulate(spec, inits, [4, 5, 6], [spec.noise] * 3, horizon,
                             ha.IntegratorConfig())

    @pytest.mark.parametrize("cut, bad", [(0.5, np.inf), (0.49925, np.nan)],
                             ids=["k4-inf", "k2-nan"])
    def test_non_finite_w_at_an_inner_stage_is_an_error(self, cut, bad):
        # from r = 0.499 (dt = 1e-3) the stages visit 0.4995 and 0.5000...3: an
        # inner stage is the first to pass the cut, never the planned row r
        def w(r):
            r = np.asarray(r, dtype=float)
            return np.where(r > cut, bad, 1.0)

        spec = dataclasses.replace(make_actuator(), w=w)
        inits = [state(1.0, 0.0), state(-1.0, 0.0)]
        with pytest.raises(MapEvaluationError) as err:
            ha.simulate_ensemble(spec, inits, 2, 4, ha.Horizon(2.0, 10))
        assert str(err.value) == ("map 'w' returned a non-finite value "
                                  "(t=0.4990000000000004; path 0, seed 4)")

    def test_w_is_planned_once_per_distinct_step(self):
        calls = {"f": 0, "w": 0}
        base = make_actuator()

        def f(x, r, tau, eps):
            calls["f"] += 1
            return base.f(x, r, tau, eps)

        def w(r):
            calls["w"] += 1
            return base.w(r)

        spec = dataclasses.replace(base, f=f, w=w)
        inits = [state(x, 0.0) for x in np.linspace(-2.0, 2.0, 10)]
        ens = ha.simulate_ensemble(spec, inits, 10, 0, ha.Horizon(5.0, 100))
        # one shared r0 and a timer reset to 0: the ten paths stay one group
        steps = sum(len(seg.t) - 1 for seg in ens[0].segments)
        assert calls["f"] == 4 * steps
        # the timer repeats the same rows every period; the last step may be
        # capped by t_max
        distinct = len({row.tobytes() for seg in ens[0].segments for row in seg.r})
        assert calls["w"] <= 4 * (distinct + 1)
        assert steps == 5000 and calls["w"] <= 4100


# C = [0, 0.2] u [0.4, 1] with a gap behind r0 = 0.5; the timer flows to D = {1}
# and jumps back to 0.5
GAP_CONFIG = """\
[system]
kind = custom
state_dim = 1
aux_dim = 1
noise_dim = 1
epsilon = 0.01
flow_x = -x_1*(1 + sin(tau))
flow_r = 1
jump_x = (0.75 + v)*x_1
jump_r = 0.5
flow_set = box 0 0.2 | box 0.4 1
jump_set = point 1

[noise]
kind = finite
values = 0.75; -0.75
probs = 0.1 0.9
"""

#: C = [0, 1] and D = {2}: a path that flows onto r = 1 leaves C u D there
OPEN_END_CONFIG = (GAP_CONFIG.replace("box 0 0.2 | box 0.4 1", "box 0 1")
                   .replace("jump_set = point 1", "jump_set = point 2"))

#: steps and face values on a grid of 1/4, so that every s, midpoint and point
#: r + s*w below is exact
_QUARTERS = st.integers(0, 4).map(lambda k: 0.25 * k)
_RATES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _event_cases(draw):
    """(spec, r, w, cap): C and D of 1 to 3 boxes each, laid along r_1 with drawn
    gaps, overlaps or shared faces, and r on the grid, inside a box or not."""
    p = draw(st.sampled_from([1, 2]))
    boxes, start = [], 0.0
    for _ in range(draw(st.integers(2, 6))):
        lo = [start] + [draw(_QUARTERS) for _ in range(p - 1)]
        hi = [v + draw(_QUARTERS) for v in lo]
        boxes.append((lo, hi))
        start = hi[0] + draw(st.sampled_from([-0.25, 0.0, 0.25, 0.5]))
    boxes = draw(st.permutations(boxes))
    n_c = draw(st.integers(max(1, len(boxes) - 3), min(3, len(boxes) - 1)))
    C, D = (SetDescriptor.union_of([SetDescriptor.box(lo, hi) for lo, hi in part])
            for part in (boxes[:n_c], boxes[n_c:]))
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from(boxes))
        r = [a + 0.25 * draw(st.integers(0, round(4 * (b - a)))) for a, b in zip(lo, hi)]
    else:
        r = [0.25 * draw(st.integers(-2, 4 * int(start) + 4)) for _ in range(p)]
    w = [draw(_RATES) for _ in range(p)]
    spec = dataclasses.replace(make_actuator(), p=p, C=C, D=D)
    return spec, r, w, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))


def _breakpoints(spec, r, w):
    """Every s at which r + s*w crosses a face of a box of C u D."""
    cu = spec.flow_or_jump_set
    return sorted({(face - rd) / wd for lo, hi in zip(cu.lows, cu.highs)
                   for rd, wd, a, b in zip(r, w, lo, hi) if wd != 0.0 for face in (a, b)})


def _probes(points):
    """The points and the midpoint of each consecutive pair."""
    points = sorted(set(points))
    return points + [0.5 * (a + b) for a, b in zip(points, points[1:])]


class TestEventScan:
    """_events, the one scan that locates leaving C u D and entering D."""

    def test_a_gap_behind_the_path_does_not_end_it(self):
        # the box [0, 0.2] lies behind r0 = 0.5, across a gap: it must not end
        # the run of boxes that holds r
        spec = ha.load_system(GAP_CONFIG)
        arcs = ha.simulate_ensemble(spec, [state(1.0, 0.5)], 2, 0, ha.Horizon(2.0, 10000))
        for arc in arcs:
            assert [jump.r_pre[0] for jump in arc.jumps] == [1.0] * 4
            assert arc.terminal_reason == TERMINAL_HORIZON_T
            assert arc.end_time == ha.HybridTime(2.0, 4)

    def test_flowing_out_of_c_with_no_jump_ends_the_path(self):
        # r flows from 0.5 onto the face r = 1 of C = [0, 1] and on, out of
        # C u D: D = {2} lies past a gap, so the path stops on the face
        spec = ha.load_system(OPEN_END_CONFIG)
        arc = ha.simulate_path(spec, state(1.0, 0.5), 0, ha.Horizon(2.0, 10))
        assert arc.terminal_reason == TERMINAL_LEFT_SETS and not arc.jumps
        assert arc.end_time.j == 0 and arc.end_time.t == pytest.approx(0.5)
        assert arc.segments[-1].r[-1].tolist() == [1.0]

    def test_a_step_that_overshoots_c_under_a_nonlinear_w_lands_on_its_face(self):
        # under w(r) = r the exit predicted from w(r) lies past the 0.01 step,
        # yet the step carries r from 0.99009 to 1.00004, out of C = [0, 1]
        # with D = {2}; it once recorded that sample and stopped there
        spec = ha.load_system(OPEN_END_CONFIG.replace("flow_r = 1", "flow_r = r_1")
                              .replace("epsilon = 0.01", "epsilon = 0.1"))
        inits = [state(1.0, 0.99009), state(-1.0, 0.5)]
        horizon = ha.Horizon(2.0, 10)
        arc = ha.simulate_path(spec, inits[0], 0, horizon)
        rs = np.concatenate([seg.r for seg in arc.segments])
        assert all(spec.flow_or_jump_set.contains(r) for r in rs)
        assert rs[-1].tolist() == [1.0] and arc.end_time == ha.HybridTime(0.01, 0)
        assert arc.terminal_reason == TERMINAL_LEFT_SETS and not arc.jumps
        for i, member in enumerate(ha.simulate_ensemble(spec, inits, 4, 0, horizon)):
            assert arcs_equal(member, ha.simulate_path(spec, inits[i % 2], i, horizon))

    def test_a_group_stopping_on_the_face_leaves_the_others_stepping(self):
        # in the first wave the group at r = 1 sits on the face of C = [0, 1],
        # flowing out with D = {2} out of reach, and stops, while the group at
        # r = 0.5 steps: only its rows enter the RK4 stages
        spec = ha.load_system(OPEN_END_CONFIG)
        inits = [state(1.0, 1.0), state(-1.0, 0.5)]
        horizon = ha.Horizon(2.0, 10)
        ens = ha.simulate_ensemble(spec, inits, 4, 0, horizon)
        assert [arc.end_time.t for arc in ens] == [0.0, pytest.approx(0.5)] * 2
        for i, arc in enumerate(ens):
            assert arc.terminal_reason == TERMINAL_LEFT_SETS
            assert arcs_equal(arc, ha.simulate_path(spec, inits[i % 2], i, horizon))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_event_cases())
    def test_matches_membership_along_the_path(self, case):
        spec, r, w, cap = case
        cu, D = spec.flow_or_jump_set, spec.D

        def at(s):
            return [rd + s * wd for rd, wd in zip(r, w)]

        leave, entry = solver._events(r, w, spec, cap)
        cuts = _breakpoints(spec, r, w)
        if not cu.contains(r):
            assert leave is None
        elif not cuts:
            assert leave[0] == math.inf
        else:
            end, (lo, hi) = leave
            assert end >= 0.0 and SetDescriptor((lo,), (hi,)).contains(at(end))
            inside = [s for s in cuts if 0.0 < s < end]
            assert all(cu.contains(at(s)) for s in _probes([0.0, *inside, end]))
            past = [s for s in cuts if s > end]
            assert not cu.contains(at(0.5 * (end + past[0]) if past else end + 1.0))
        if entry is None:
            window = [0.0, cap, *(s for s in cuts if 0.0 <= s <= cap)]
            assert not any(D.contains(at(s)) for s in _probes(window))
            return
        start, (lo, hi) = entry
        assert 0.0 <= start <= cap and D.contains(at(start))
        before = [0.0, start, *(s for s in cuts if 0.0 <= s < start)]
        assert not any(D.contains(at(s)) for s in _probes(before) if s < start)
        first = next(box for box in zip(D.lows, D.highs)
                     if SetDescriptor((box[0],), (box[1],)).contains(at(start)))
        assert (lo, hi) == first
