import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg import solver
from hybridavg.core import (HybridArc, JumpNoise, JumpRecord, SetDescriptor, SystemSpec,
                            TERMINAL_HORIZON_J, TERMINAL_HORIZON_T, TERMINAL_LEFT_SETS)
from hybridavg.solver import MapEvaluationError

from conftest import arcs_equal, state


def make_actuator(p=0.1, T=1.0, eps=0.01):
    return ha.jammed_actuator(ha.JamParams(T=T, p=p, epsilon=eps))


class TestFlowStep:
    """Single integrator steps, observed through simulate_path."""

    def test_linear_decay_matches_exponential(self, average_system):
        sys = average_system
        cfg = ha.IntegratorConfig(base_step=0.01, substep_per_epsilon=1.0)
        arc = ha.simulate_path(sys, state(1.0), 0, ha.Horizon(0.01, 10), cfg)
        assert arc.segments[0].t.shape == (2,)
        assert arc.final_state().x[0] == pytest.approx(math.exp(-0.01), abs=1e-10)

    def test_origin_is_invariant(self, actuator):
        arc = ha.simulate_path(actuator, state(0.0, 0.5), 0, ha.Horizon(0.0005, 10))
        assert arc.segments[0].t.shape == (2,)
        assert np.all(arc.segments[0].x == 0.0)

    def test_clock_advance_is_exact(self):
        spec = make_actuator(eps=0.01)
        cfg = ha.IntegratorConfig(base_step=0.02, substep_per_epsilon=2.0)
        arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(0.02, 10), cfg)
        assert arc.segments[0].t.shape == (2,)
        assert arc.final_state().tau == 2.0

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


class TestIntegratorConfig:
    @pytest.mark.parametrize("field", ["base_step", "substep_per_epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.01])
    def test_rejects_non_positive_or_non_finite_steps(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ha.IntegratorConfig(**{field: value})


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
        starts = [arc.initial_state().x[0] for arc in ens]
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
            solo = ha.simulate_path(actuator, arc.initial_state(), 50 + i,
                                    ha.Horizon(3.5, 100))
            assert arcs_equal(arc, solo)

    def test_members_share_read_only_segment_arrays(self, actuator):
        # one shared r0 and a timer reset to 0: both paths stay one group
        ens = ha.simulate_ensemble(actuator, [state(-2.0, 0.0), state(2.0, 0.0)],
                                   2, 50, ha.Horizon(3.5, 100))
        assert len(ens[0].segments) == len(ens[1].segments) == 4
        for a, b in zip(ens[0].segments, ens[1].segments):
            for name in ("t", "tau", "r"):
                assert getattr(a, name) is getattr(b, name)
                assert not getattr(a, name).flags.writeable

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
            solver._check_finite(wrow, "w", f"t={t}", paths, seeds)
            snap_box = None
            entry = solver._entry_time(rrow, wrow, spec.D, dt)
            exit_end, exit_box = solver._exit_time(rrow, wrow, cu)
            if exit_end is not None and exit_end <= 0.0:
                terminal = TERMINAL_LEFT_SETS
                break
            if exit_end is not None and exit_end < dt:
                dt = exit_end
                snap_box = exit_box
            if entry is not None and entry[0] <= dt:
                dt = entry[0]
                snap_box = (entry[1], entry[2])
            if dt <= 0.0:
                if snap_box is not None:
                    R = solver._snap_into_box(R, snap_box[0], snap_box[1])
                    rrow = R[0].copy()
                    continue
                terminal = TERMINAL_LEFT_SETS
                break
            X2, R2 = _reference_rk4(spec, X, R, tau_now, dt)
            solver._check_finite(X2, "f", f"t={t}", paths, seeds)
            if snap_box is not None:
                R2 = solver._snap_into_box(R2, snap_box[0], snap_box[1])
            t = horizon.t_max if dt == remain else t + dt
            tau_now = tau_anchor + (t - t_anchor) * inv_eps
            X, R, rrow = X2, R2, R2[0].copy()
            cur_t.append(t)
            cur_x.append(X)
            cur_r.append(R)
            cur_tau.append(tau_now)

        # a group's members share one aux row per sample
        solver._store_segment(segments, paths, j, cur_t, cur_x, [R[:1] for R in cur_r],
                              cur_tau)
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
        solver._check_finite(Xp, "g", f"jump {k} at t={t}", paths, seeds)
        solver._check_finite(Rp, "h", f"jump {k} at t={t}", paths, seeds)
        ht = ha.HybridTime(t, j)
        for b, i in enumerate(paths):
            jumps[i].append(JumpRecord(ht, X[b].copy(), R[b].copy(), tau_now, V[b].copy(),
                                       Xp[b].copy(), Rp[b].copy()))
        for rows in solver._bitwise_groups(Rp):
            sub = paths[rows]
            if cu.contains(Rp[rows[0]]):
                work.append((sub, Xp[rows], Rp[rows], t, k, tau_now))
                continue
            solver._store_segment(segments, sub, k, [t], [Xp[rows]], [Rp[rows[:1]]], [tau_now])
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
    got = _outcome(solver._simulate, spec, starts, seeds, horizon, cfg)
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
            solver._simulate(spec, inits, [4, 5, 6], horizon, ha.IntegratorConfig())

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
