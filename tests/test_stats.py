import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.core import TERMINAL_HORIZON_T, FlowSegment, distances_to_target

from conftest import state


@pytest.fixture(scope="module")
def decay_system(average_system):
    """Average actuator dynamics with the reset period pushed past every horizon."""
    spec = ha.jammed_actuator(ha.JamParams(T=1000.0, p=0.1, epsilon=0.01))
    return ha.build_average_system(spec, average_system.f_ave)


class TestHittingTime:
    def test_start_inside_hits_immediately(self, decay_system):
        arc = ha.simulate_path(decay_system, state(0.1, 0.0), 0, ha.Horizon(1.0, 5))
        assert ha.hitting_time(arc, 0.5, decay_system) == ha.HybridTime(0.0, 0)

    def test_exponential_decay_crossing(self, decay_system):
        # x(t) = 2 e^{-t} crosses 0.5 at t = ln 4, up to sampling resolution
        arc = ha.simulate_path(decay_system, state(2.0, 0.0), 0, ha.Horizon(3.0, 5))
        ht = ha.hitting_time(arc, 0.5, decay_system)
        assert ht is not None and ht.j == 0
        assert ht.t == pytest.approx(math.log(4.0), abs=0.011)

    def test_diverging_arc_never_hits(self, decay_system):
        def growing(x, r):
            return np.asarray(x, dtype=float)

        spec = dataclasses.replace(decay_system, f_ave=growing)
        arc = ha.simulate_path(spec, state(2.0, 0.0), 0, ha.Horizon(3.0, 5))
        assert ha.hitting_time(arc, 0.5, spec) is None

    def test_strict_inequality_open_ball(self, decay_system):
        arc = ha.simulate_path(decay_system, state(2.0, 0.0), 0, ha.Horizon(0.5, 5))
        assert ha.hitting_time(arc, 2.0, decay_system) != ha.HybridTime(0.0, 0)

    def test_monotone_in_radius(self, actuator):
        arc = ha.simulate_path(actuator, state(2.0, 0.0), 3, ha.Horizon(6.0, 100))
        prev = None
        for radius in [0.05, 0.1, 0.5, 1.0, 2.5]:
            ht = ha.hitting_time(arc, radius, actuator)
            if prev is not None and prev[1] is not None:
                assert ht is not None
                assert ha.hybrid_time_sum(ht) <= ha.hybrid_time_sum(prev[1])
            prev = (radius, ht)


def reference_hitting_time(arc, radius, spec):
    """The hitting_time docstring as a plain scan: the first sample, in
    hybrid-time order, whose distance to the target set is < radius."""
    for seg in arc.segments:
        for k in range(seg.t.shape[0]):
            d = distances_to_target(seg.x[k:k + 1], seg.r[k:k + 1], spec)[0]
            if d < radius:
                return ha.HybridTime(float(seg.t[k]), int(seg.j))
    return None


def reference_samples_at(arc, t_eval, spec):
    """Distance, sample time and jump count at the last sample with t <= t_eval
    (the first sample when there is none), one segment scan per call."""
    best = None
    for seg in arc.segments:
        dists = distances_to_target(seg.x, seg.r, spec)
        idx = np.searchsorted(seg.t, t_eval, side="right") - 1
        if idx >= 0:
            best = (float(dists[idx]), float(seg.t[idx]), int(seg.j))
        if seg.t[0] > t_eval:
            break
    if best is None:
        seg0 = arc.segments[0]
        d0 = distances_to_target(seg0.x[:1], seg0.r[:1], spec)[0]
        best = (float(d0), float(seg0.t[0]), int(seg0.j))
    return best


def make_arc(pieces, n=1):
    """An arc from (t, x, r) sample lists, one per jump count j = 0, 1, ...

    Consecutive pieces should abut (a jump keeps t), as the solver's do.
    """
    segments = []
    for j, (t, x, r) in enumerate(pieces):
        t = np.asarray(t, dtype=float)
        segments.append(FlowSegment(j, t, np.asarray(x, dtype=float).reshape(-1, n),
                                    np.asarray(r, dtype=float).reshape(-1, 1),
                                    np.zeros_like(t)))
    return ha.HybridArc(tuple(segments), (), 0, TERMINAL_HORIZON_T)


# few distinct coordinates, so distances repeat exactly and ties are common
_COORD = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@pytest.fixture(scope="module")
def actuator_2d(actuator):
    """The actuator's sets with a 2-D x, for distances to target of random_arcs."""
    return dataclasses.replace(actuator, n=2)


@st.composite
def random_arcs(draw, n=2, x0=None, nan=False):
    """Multi-jump arcs in R^n x R: r can leave C u D = [0, 1] of the actuator.

    With nan, some x coordinates may be NaN, and so their samples' distances.
    """
    coord = st.one_of(_COORD, st.just(math.nan)) if nan else _COORD
    pieces, t0 = [], 0.0
    for j in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 8))
        steps = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                              min_size=k - 1, max_size=k - 1))
        t = t0 + np.concatenate(([0.0], np.cumsum(steps)))
        x = [[draw(coord) for _ in range(n)] for _ in range(k)]
        r = [draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 3.0])) for _ in range(k)]
        if j == 0 and x0 is not None:
            x[0], r[0] = list(x0), 0.5
        pieces.append((t, x, r))
        t0 = float(t[-1])
    return make_arc(pieces, n)


def sample_distances(arc, spec):
    return np.concatenate([distances_to_target(s.x, s.r, spec) for s in arc.segments])


class TestHittingIndex:
    """hitting_time's cached running-minimum index against a plain scan."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(random_arcs(nan=True), st.data())
    def test_matches_reference_for_radii_in_any_order(self, actuator_2d, arc, data):
        # a NaN distance is never a record nor a hit
        d = sample_distances(arc, actuator_2d)
        exact = sorted(set(d[~np.isnan(d)].tolist()) - {0.0})
        others = data.draw(st.lists(st.floats(1e-3, 6.0), max_size=4))
        radii = data.draw(st.permutations(exact + others))
        for radius in radii:
            assert (ha.hitting_time(arc, radius, actuator_2d)
                    == reference_hitting_time(arc, radius, actuator_2d)), radius

    def test_radius_equal_to_a_sample_distance_is_not_a_hit(self, actuator):
        # distances 3, 2, 2, 1 | 2, 0.5: the ball of radius 2 is open
        arc = make_arc([([0.0, 0.5, 1.0, 1.0], [3.0, 2.0, -2.0, 1.0], [0.5] * 4),
                        ([1.0, 1.5], [2.0, 0.5], [0.5, 0.5])])
        expect = {3.0: (0.5, 0), 2.0: (1.0, 0), 1.0: (1.5, 1), 0.5: None, 3.5: (0.0, 0)}
        for radius in (1.0, 3.5, 0.5, 2.0, 3.0):
            ht = ha.hitting_time(arc, radius, actuator)
            want = expect[radius]
            assert ht == (None if want is None else ha.HybridTime(*want)), radius
            assert ht == reference_hitting_time(arc, radius, actuator)

    def test_first_query_scans_only_up_to_the_hit(self, actuator, monkeypatch):
        arc = make_arc([([0.0, 1.0], [2.0, 1.0], [0.5, 0.5]),
                        ([1.0, 2.0], [0.5, 0.25], [0.5, 0.5]),
                        ([2.0, 3.0], [0.1, 0.0], [0.5, 0.5])])
        rows = []
        counted = ha.stats.distances_to_target

        def counting(x, r, spec):
            rows.append(x.shape[0])
            return counted(x, r, spec)

        monkeypatch.setattr(ha.stats, "distances_to_target", counting)
        assert ha.hitting_time(arc, 1.5, actuator) == ha.HybridTime(1.0, 0)
        assert rows == [2]
        assert ha.hitting_time(arc, 0.3, actuator) == ha.HybridTime(2.0, 1)
        assert rows == [2, 2]
        assert ha.hitting_time(arc, 1.0, actuator) == ha.HybridTime(1.0, 1)
        assert ha.hitting_time(arc, 0.01, actuator) == ha.HybridTime(3.0, 2)
        assert ha.hitting_time(arc, 1e-9, actuator) == ha.HybridTime(3.0, 2)
        assert rows == [2, 2, 2]

    def test_specs_with_different_target_sets_get_their_own_answers(self, actuator):
        wide = dataclasses.replace(actuator, C=ha.SetDescriptor.box([-1.0], [2.5]))
        # x = 0 throughout: the distance is r's distance to C u D, here
        # 2, 1, 0.5 | 0.25, 0 under [0, 1] and 0.5, 0, 0 | 0, 0 under [-1, 2.5]
        arc = make_arc([([0.0, 1.0, 2.0], [0.0] * 3, [3.0, 2.0, 1.5]),
                        ([2.0, 3.0], [0.0] * 2, [1.25, 1.0])])
        for spec, radius, want in ((actuator, 0.4, ha.HybridTime(2.0, 1)),
                                   (wide, 0.4, ha.HybridTime(1.0, 0)),
                                   (actuator, 0.6, ha.HybridTime(2.0, 0)),
                                   (actuator, 0.1, ha.HybridTime(3.0, 1)),
                                   (wide, 0.6, ha.HybridTime(0.0, 0)),
                                   (wide, 1e-6, ha.HybridTime(1.0, 0))):
            assert ha.hitting_time(arc, radius, spec) == want
            assert want == reference_hitting_time(arc, radius, spec)

    def test_cache_is_not_part_of_the_arc_value(self, actuator):
        arc = make_arc([([0.0, 1.0], [2.0, 0.5], [0.5, 0.5])])
        before = repr(arc)
        ha.hitting_time(arc, 1.0, actuator)
        assert repr(arc) == before
        assert [f.name for f in dataclasses.fields(arc)] == [
            "segments", "jumps", "seed", "terminal_reason"]

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, actuator, radius):
        arc = make_arc([([0.0], [1.0], [0.5])])
        with pytest.raises(ValueError, match="radius must be positive"):
            ha.hitting_time(arc, radius, actuator)

    def test_simulated_ensemble_matches_reference(self, es_system):
        inits = [state(2.0, 0.0), state(-1.5, 0.0)]
        ens = ha.simulate_ensemble(es_system, inits, 6, 5, ha.Horizon(3.0, 1000))
        for radius in (1.0, 0.05, 0.3, 0.1, 2.0):
            for arc in ens:
                assert (ha.hitting_time(arc, radius, es_system)
                        == reference_hitting_time(arc, radius, es_system))


class TestRecurrenceEstimate:
    def make_ensemble(self, spec, n=40, t_max=6.0, x0=(2.0, -2.0)):
        inits = [state(x, 0.0) for x in x0]
        return ha.simulate_ensemble(spec, inits, n, 17, ha.Horizon(t_max, 1000))

    def test_all_start_inside(self, actuator):
        ens = self.make_ensemble(actuator, x0=(0.05, -0.05))
        rep = ha.recurrence_estimate(ens, 0.1, 0.05, 5.0, actuator)
        assert rep.hit_fraction == 1.0
        assert rep.tau_hat == 0.0

    def test_radius_covering_initial_ball(self, actuator):
        ens = self.make_ensemble(actuator)
        rep = ha.recurrence_estimate(ens, 10.0, 0.05, 5.0, actuator)
        assert rep.hit_fraction == 1.0
        assert rep.tau_hat == 0.0

    def test_small_ensembles_rejected(self, actuator):
        ens = self.make_ensemble(actuator, n=10)
        with pytest.raises(ValueError, match="too small"):
            ha.recurrence_estimate(ens, 0.1, 0.05, 5.0, actuator)

    def test_initials_outside_bound_rejected(self, actuator):
        ens = self.make_ensemble(actuator)
        with pytest.raises(ValueError, match="outside"):
            ha.recurrence_estimate(ens, 0.1, 0.05, 1.0, actuator)

    @pytest.mark.parametrize("radius, R", [(math.nan, 5.0), (math.inf, 5.0), (0.0, 5.0),
                                           (0.1, math.nan), (0.1, math.inf), (0.1, -1.0)])
    def test_rejects_non_finite_radius_and_bound(self, actuator, radius, R):
        ens = self.make_ensemble(actuator, n=30, t_max=0.5)
        with pytest.raises(ValueError, match="must be positive and finite"):
            ha.recurrence_estimate(ens, radius, 0.05, R, actuator)

    def test_monotone_in_horizon(self, es_system):
        short = self.make_ensemble(es_system, t_max=1.5)
        long = self.make_ensemble(es_system, t_max=6.0)
        r_short = ha.recurrence_estimate(short, 0.1, 0.05, 5.0, es_system)
        r_long = ha.recurrence_estimate(long, 0.1, 0.05, 5.0, es_system)
        assert r_long.hit_fraction >= r_short.hit_fraction

    def test_wilson_interval_brackets_fraction(self, actuator):
        ens = self.make_ensemble(actuator)
        rep = ha.recurrence_estimate(ens, 0.25, 0.05, 5.0, actuator)
        assert rep.wilson_low <= rep.hit_fraction <= rep.wilson_high

    def test_reports_reproduce_bitwise(self, es_system):
        a = ha.recurrence_estimate(self.make_ensemble(es_system), 0.1, 0.05, 5.0,
                                   es_system)
        b = ha.recurrence_estimate(self.make_ensemble(es_system), 0.1, 0.05, 5.0,
                                   es_system)
        assert a.hit_fraction == b.hit_fraction and a.tau_hat == b.tau_hat
        assert a.hitting_times == b.hitting_times


class TestUgesMFit:
    def test_pure_decay_recovers_unit_rate(self, decay_system):
        inits = [state(2.0, 0.0), state(-2.0, 0.0)]
        ens = ha.simulate_ensemble(decay_system, inits, 10, 0, ha.Horizon(3.0, 5))
        fit = ha.uges_m_fit(ens, np.linspace(0.0, 3.0, 31), decay_system)
        assert fit.k2 == pytest.approx(1.0, abs=1e-6)
        assert fit.k1 == pytest.approx(1.0, abs=1e-9)
        assert fit.envelope_satisfied()

    def test_jammed_system_has_positive_rate(self, actuator):
        inits = [state(2.0, 0.0), state(-2.0, 0.0)]
        ens = ha.simulate_ensemble(actuator, inits, 100, 3, ha.Horizon(6.0, 1000))
        fit = ha.uges_m_fit(ens, np.linspace(0.0, 6.0, 13), actuator)
        assert fit.k2 > 0.0
        assert fit.envelope_satisfied(slack_sigmas=4.0)

    def test_zero_initial_paths_excluded_with_warning(self, actuator):
        inits = [state(0.0, 0.0), state(2.0, 0.0)]
        ens = ha.simulate_ensemble(actuator, inits, 4, 3, ha.Horizon(2.0, 100))
        with pytest.warns(UserWarning, match="zero initial distance"):
            fit = ha.uges_m_fit(ens, np.array([0.0, 1.0, 2.0]), actuator)
        assert fit.n_paths == 2

    def test_all_zero_initials_rejected(self, actuator):
        ens = ha.simulate_ensemble(actuator, [state(0.0, 0.0)], 3, 3, ha.Horizon(1.0, 10))
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="target set"):
                ha.uges_m_fit(ens, np.array([0.0, 1.0]), actuator)

    def test_rate_invariant_under_initial_scaling(self, actuator):
        # linear dynamics: scaling x(0) scales every distance, leaving k2 fixed
        grid = np.linspace(0.0, 5.0, 11)
        fits = []
        for alpha in (1.0, 3.0):
            inits = [state(2.0 * alpha, 0.0), state(-2.0 * alpha, 0.0)]
            ens = ha.simulate_ensemble(actuator, inits, 60, 11, ha.Horizon(5.0, 1000))
            fits.append(ha.uges_m_fit(ens, grid, actuator))
        assert fits[0].k2 == pytest.approx(fits[1].k2, abs=1e-6)


    def test_rejects_non_finite_evaluation_times(self, actuator):
        ens = ha.simulate_ensemble(actuator, [state(2.0, 0.0)], 3, 3, ha.Horizon(1.0, 10))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ha.uges_m_fit(ens, np.array([0.0, bad, 1.0]), actuator)

    @staticmethod
    def assert_matches_reference(fit, ens, t_eval, spec):
        """Pin the fit's inputs bit for bit through its outputs."""
        t_eval = np.sort(np.asarray(t_eval, dtype=float))
        ref = np.array([[reference_samples_at(arc, te, spec) for te in t_eval]
                        for arc in ens])
        dist, sums = ref[:, :, 0], ref[:, :, 1] + ref[:, :, 2]
        seg0 = ens[0].segments[0]
        assert fit.initial_distance == float(
            distances_to_target(seg0.x[:1], seg0.r[:1], spec)[0])
        assert np.array_equal(fit.empirical_means, np.mean(dist, axis=0))
        with np.errstate(divide="ignore"):
            expo = np.minimum(np.log(dist) + fit.k2 * (sums - sums[:, :1]), 700.0)
        assert np.array_equal(fit.weighted_means, np.mean(np.exp(expo), axis=0))
        if len(ens) > 1:
            assert np.array_equal(fit.std_errors, np.std(np.exp(expo), axis=0, ddof=1)
                                  / math.sqrt(len(ens)))

    def test_matches_reference_on_jump_instants(self, actuator):
        # the actuator's period-1 timer jumps exactly at t = 1, 2, ...: there
        # the post-jump sample counts
        inits = [state(2.0, 0.0), state(-2.0, 0.0)]
        ens = ha.simulate_ensemble(actuator, inits, 8, 4, ha.Horizon(3.5, 1000))
        assert all(len(arc.jumps) == 3 and arc.jumps[0].time.t == 1.0 for arc in ens)
        t_eval = [-0.5, 0.0, 1.0, 1.5, 2.0, 3.0, 3.5, 9.0]
        fit = ha.uges_m_fit(ens, t_eval, actuator)
        self.assert_matches_reference(fit, ens, t_eval, actuator)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(random_arcs(x0=(1.0, -1.0)), min_size=1, max_size=4), st.data())
    def test_matches_reference_on_random_arcs(self, actuator_2d, ens, data):
        instants = sorted({float(s.t[0]) for arc in ens for s in arc.segments}
                          | {arc.end_time.t for arc in ens})
        picks = data.draw(st.lists(st.sampled_from(instants), max_size=4))
        t_eval = [-1.0] + picks + [max(instants) + 1.0]
        fit = ha.uges_m_fit(ens, t_eval, actuator_2d)
        self.assert_matches_reference(fit, ens, t_eval, actuator_2d)


class TestEpsilonSweep:
    def family(self, spec):
        return lambda eps: dataclasses.replace(spec, epsilon=eps)

    def params(self, **kw):
        defaults = dict(radius_max=2.0, rho=0.05, R=5.0, n_paths=40,
                        horizon=ha.Horizon(6.0, 1000))
        defaults.update(kw)
        return ha.SweepParams(**defaults)

    def test_single_epsilon(self, es_system):
        res = ha.epsilon_sweep(self.family(es_system), [0.05],
                               [state(2.0, 0.0), state(-2.0, 0.0)], 3, self.params())
        assert len(res.entries) == 1
        assert res.monotone

    def test_requires_strictly_decreasing(self, es_system):
        with pytest.raises(ValueError, match="strictly decreasing"):
            ha.epsilon_sweep(self.family(es_system), [0.01, 0.05],
                             [state(2.0, 0.0)], 3, self.params())

    def test_tau_independent_system_is_epsilon_free(self, actuator):
        def flat_flow(x, r, tau, eps):
            return -np.asarray(x, dtype=float)

        spec = dataclasses.replace(actuator, f=flat_flow)
        res = ha.epsilon_sweep(self.family(spec), [0.1, 0.05, 0.01],
                               [state(2.0, 0.0), state(-2.0, 0.0)], 3, self.params())
        radii = [e.certified_radius for e in res.entries]
        slack = max(e.bisection_slack for e in res.entries)
        assert max(radii) - min(radii) <= 2 * slack + 1e-12
        assert res.monotone

    def test_uncertifiable_radius_is_marked(self):
        def growing(x, r, tau, eps):
            return np.asarray(x, dtype=float)

        # the decay system's maps and sets, in a system whose epsilon the sweep replaces
        decay = ha.jammed_actuator(ha.JamParams(T=1000.0, p=0.1, epsilon=0.05))
        spec = dataclasses.replace(decay, f=growing)
        res = ha.epsilon_sweep(self.family(spec), [0.05], [state(2.0, 0.0)], 3,
                               self.params(radius_max=0.5))
        assert res.entries[0].certified_radius is None
        assert res.entries[0].note == "not certified at horizon"
