import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.core import SamplingPlan, distances_to_target

from conftest import state


class TestHybridTime:
    @pytest.mark.parametrize("t,j,expected", [(0.0, 0, 0.0), (2.5, 3, 5.5), (1.0, 0, 1.0)])
    def test_sum(self, t, j, expected):
        assert ha.hybrid_time_sum(ha.HybridTime(t, j)) == expected

    @given(st.floats(0, 1e6), st.integers(0, 1000), st.floats(0, 1e6), st.integers(0, 1000))
    def test_ordering_matches_domain_order(self, t1, j1, t2, j2):
        a, b = ha.HybridTime(t1, j1), ha.HybridTime(t2, j2)
        assert (a < b) == ((t1 + j1, t1) < (t2 + j2, t2))

    @pytest.mark.parametrize("t,j", [(-1.0, 0), (0.0, -1), (math.nan, 0)])
    def test_rejects_invalid(self, t, j):
        with pytest.raises(ValueError):
            ha.HybridTime(t, j)


def dist(x, r, spec) -> float:
    """distances_to_target of the single row (x, r)."""
    return float(distances_to_target(np.array([[x]]), np.array([[r]]), spec)[0])


class TestDistToTarget:
    def test_r_inside_set_distance_is_abs_x(self, actuator):
        assert dist(3.0, 0.5, actuator) == 3.0

    def test_point_on_target_set(self, actuator):
        assert dist(0.0, 0.2, actuator) == 0.0

    def test_box_projection_closed_form(self, actuator):
        # r = 2 projects onto C u D = [0, 1] at 1: distance sqrt(3^2 + 1^2)
        assert dist(3.0, 2.0, actuator) == pytest.approx(math.sqrt(10.0), abs=1e-12)

    def test_against_dense_enumeration_oracle(self, actuator):
        # brute force: min distance to points densely sampled from {0} x [0, 1]
        rng = np.random.default_rng(0)
        grid_r = np.linspace(0.0, 1.0, 20001)
        x = rng.uniform(-4, 4, size=25)
        r = rng.uniform(-2, 3, size=25)
        brute = [np.min(np.sqrt(xi * xi + (ri - grid_r) ** 2)) for xi, ri in zip(x, r)]
        got = distances_to_target(x[:, None], r[:, None], actuator)
        assert got == pytest.approx(brute, abs=1e-7)

    @pytest.mark.parametrize("x, r", [([[1.0, 2.0]], [[0.0]]), ([[1.0]], [[0.0, 0.5]])],
                             ids=["two-x-columns", "two-r-columns"])
    def test_rejects_rows_of_the_wrong_dimension(self, actuator, x, r):
        # a 2-column x once read as |x| = 2.236 on the 1-D actuator
        with pytest.raises(ValueError, match="rows need 1 x and 1 r column"):
            distances_to_target(np.array(x), np.array(r), actuator)


class TestSetDescriptor:
    def test_membership_is_exact_closed(self):
        box = ha.SetDescriptor.box([0.0], [1.0])
        assert box.contains([0.0]) and box.contains([1.0]) and box.contains([0.5])
        assert not box.contains([1.0 + 1e-15])
        pt = ha.SetDescriptor.point([1.0])
        assert pt.contains([1.0]) and not pt.contains([1.0 - 1e-15])

    def test_union_distance_is_min_over_parts(self):
        u = ha.SetDescriptor.union_of([ha.SetDescriptor.box([0.0], [1.0]),
                                       ha.SetDescriptor.point([3.0])])
        assert u.distance(np.array([2.5])) == pytest.approx(0.5)
        assert u.distance(np.array([1.5])) == pytest.approx(0.5)

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            ha.SetDescriptor.box([0.0], [math.inf])


class TestJumpNoise:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1.1"):
            ha.JumpNoise.finite([[1.0], [2.0]], [0.6, 0.5])

    def test_same_seed_and_index_same_draw(self):
        noise = ha.JumpNoise.finite([[0.75], [-0.75]], [0.3, 0.7])
        for k in range(1, 20):
            assert np.array_equal(noise.draw(42, k), noise.draw(42, k))
        assert not all(np.array_equal(noise.draw(42, k), noise.draw(43, k))
                       for k in range(1, 50))

    def test_draw_frequencies_match_probabilities(self):
        # 1e5 draws: empirical frequency within 3 standard errors
        p = 0.3
        noise = ha.JumpNoise.finite([[0.75], [-0.75]], [p, 1.0 - p])
        n = 100_000
        draws = np.array([noise.draw(7, k + 1)[0] for k in range(n)])
        freq = np.mean(draws == 0.75)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se

    def test_sampler_contract_shape_checked(self):
        noise = ha.JumpNoise.from_sampler(lambda seed, k: np.array([1.0, 2.0]), m=2)
        assert noise.draw(0, 1).shape == (2,)
        bad = ha.JumpNoise.from_sampler(lambda seed, k: np.array([1.0]), m=2)
        with pytest.raises(ValueError):
            bad.draw(0, 1)


class TestStateVec:
    def test_arrays_are_frozen(self):
        s = state(1.0, 0.5)
        with pytest.raises(ValueError):
            s.x[0] = 2.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ha.StateVec(np.array([1.0]), np.array([0.0]), -1.0)


class TestValidateSpec:
    def test_actuator_passes_with_zero_h_bound(self, actuator):
        report = ha.validate_spec(actuator)
        assert report.passed
        assert report.h_estimate == 0.0  # timer resets to 0 at jumps

    def test_planted_jump_violation_fails_with_witness(self, actuator):
        import dataclasses

        def bad_g(x, r, v):
            return np.ones_like(np.asarray(x, dtype=float))

        bad = dataclasses.replace(actuator, g=bad_g)
        report = ha.validate_spec(bad)
        assert not report.passed
        item = next(it for it in report.items if it.name.startswith("g(0"))
        assert not item.passed
        assert item.witness[0] == 0.0  # witness carries the x = 0 sample

    def test_es_passes_on_shell_fails_at_origin(self, es_system):
        shell = ha.validate_spec(es_system, SamplingPlan(x_shell=0.1))
        assert shell.passed
        exact = ha.validate_spec(es_system)
        assert not exact.passed  # the regularized field is not zero at x = 0
