import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.core import (_GROUP_DRAWS, _keyed_uniforms, distances_to_target,
                            grid_extreme, hybrid_time_sum)

from conftest import state


class TestHybridTime:
    @pytest.mark.parametrize("t,j,expected", [(0.0, 0, 0.0), (2.5, 3, 5.5), (1.0, 0, 1.0)])
    def test_sum(self, t, j, expected):
        assert hybrid_time_sum(ha.HybridTime(t, j)) == expected

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
        pt = ha.SetDescriptor.box([1.0], [1.0])
        assert pt.contains([1.0]) and not pt.contains([1.0 - 1e-15])

    def test_membership_takes_arrays_and_never_admits_nan(self):
        box = ha.SetDescriptor.union_of([ha.SetDescriptor.box([0.0, 0.0], [1.0, 1.0]),
                                         ha.SetDescriptor.box([2.0, 2.0], [2.0, 2.0])])
        assert box.contains(np.array([2.0, 2.0])) and box.contains((0.5, 1.0))
        assert not box.contains(np.array([0.5, math.nan]))
        assert not box.contains([math.nan, math.nan])
        with pytest.raises(ValueError, match="3 coordinate"):
            box.contains(np.array([0.5, 0.5, 9.0]))

    def test_union_distance_is_min_over_parts(self):
        u = ha.SetDescriptor.union_of([ha.SetDescriptor.box([0.0], [1.0]),
                                       ha.SetDescriptor.box([3.0], [3.0])])
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

    @pytest.mark.parametrize("atom", [math.nan, math.inf, -math.inf])
    def test_non_finite_atom_rejected(self, atom):
        with pytest.raises(ValueError, match="support values must be finite"):
            ha.JumpNoise.finite([[0.75], [atom]], [0.5, 0.5])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ha.JumpNoise.finite([[0.75], [-0.75]], [math.nan, 1.0])

    def test_sampler_contract_shape_checked(self):
        noise = ha.JumpNoise.from_sampler(lambda seed, k: np.array([1.0, 2.0]), m=2)
        assert noise.draw(0, 1).shape == (2,)
        bad = ha.JumpNoise.from_sampler(lambda seed, k: np.array([1.0]), m=2)
        with pytest.raises(ValueError):
            bad.draw(0, 1)


#: seeds and jump indices at and past the ends of [0, 2**32), where draws
#: computes the uniforms together, and beyond it, where it calls draw per seed
_KEY_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 7]


class TestGroupDraws:
    """JumpNoise.draws against draw per seed, bit for bit."""

    NOISE = ha.JumpNoise.finite([[0.75, 1.0], [-0.75, 2.0], [0.25, -3.0]], [0.2, 0.5, 0.3])

    @settings(max_examples=150, deadline=None)
    @given(seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(_KEY_EDGES[:3])),
                          min_size=1, max_size=2 * _GROUP_DRAWS + 2),
           k=st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(_KEY_EDGES)),
           beyond=st.one_of(st.none(), st.sampled_from(_KEY_EDGES[3:])))
    @example(seeds=[2**32 - 1] * _GROUP_DRAWS, k=2**32 - 1, beyond=None)
    @example(seeds=[0] * _GROUP_DRAWS, k=0, beyond=None)
    @example(seeds=[0] * _GROUP_DRAWS, k=2**32, beyond=None)
    @example(seeds=list(range(_GROUP_DRAWS)), k=3, beyond=2**32)
    def test_draws_match_draw_per_seed(self, seeds, k, beyond):
        seeds = seeds + ([] if beyond is None else [beyond])
        want = np.stack([self.NOISE.draw(s, k) for s in seeds])
        got = self.NOISE.draws(seeds, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if k < 2**32 and beyond is None:
            # the uniforms computed together, at any group size
            assert _keyed_uniforms(seeds, k) == [np.random.default_rng([s, k]).random()
                                                 for s in seeds]

    def test_keyed_uniforms_match_default_rng(self):
        rng = np.random.default_rng(5)
        pairs = [(s, 1) for s in range(300)] + [tuple(map(int, rng.integers(0, 2**32, 2)))
                                                for _ in range(500)]
        for s, k in pairs:
            assert _keyed_uniforms([s], k) == [np.random.default_rng([s, k]).random()]
        seeds = [s for s, _ in pairs[300:]]
        assert _keyed_uniforms(seeds, 17) == [np.random.default_rng([s, 17]).random()
                                              for s in seeds]

    @pytest.mark.parametrize("seed, k", [(-1, 3), (5, -2)], ids=["negative-seed", "negative-k"])
    def test_a_negative_key_raises_draws_error(self, seed, k):
        seeds = list(range(2 * _GROUP_DRAWS)) + [seed]
        with pytest.raises(ValueError) as want:
            self.NOISE.draw(seed, k)
        with pytest.raises(ValueError) as got:
            self.NOISE.draws(seeds, k)
        assert str(got.value) == str(want.value)

    def test_sampler_noise_draws_per_seed(self):
        calls = []

        def sampler(seed, k):
            calls.append((seed, k))
            return np.array([seed / 7.0, k])

        noise = ha.JumpNoise.from_sampler(sampler, 2)
        seeds = list(range(3, 3 + 2 * _GROUP_DRAWS))
        got = noise.draws(seeds, 4)
        assert calls == [(s, 4) for s in seeds]
        assert got.tobytes() == np.stack([[s / 7.0, 4.0] for s in seeds]).tobytes()


class TestStateVec:
    def test_arrays_are_frozen(self):
        s = state(1.0, 0.5)
        with pytest.raises(ValueError):
            s.x[0] = 2.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ha.StateVec(np.array([1.0]), np.array([0.0]), -1.0)


def _box(dim):
    return ha.SetDescriptor.box([0.0] * dim, [1.0] * dim)


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda spec: ha.SetDescriptor((), ()), r"at least one \(lo, hi\) box",
                 id="descriptor-without-boxes"),
    pytest.param(lambda spec: ha.SetDescriptor(((0.0,), (0.0, 0.0)), ((1.0,), (1.0, 1.0))),
                 "share one dimension", id="descriptor-of-mixed-dimensions"),
    pytest.param(lambda spec: _box(1).grid(0), "points_per_dim must be >= 1", id="empty-grid"),
    pytest.param(lambda spec: ha.JumpNoise.finite([[0.5], [-0.5]], [1.0]),
                 "disagree in length", id="noise-probabilities-short"),
    pytest.param(lambda spec: ha.JumpNoise("sampler-only"), "needs a sampler",
                 id="noise-without-sampler"),
    pytest.param(lambda spec: ha.JumpNoise.from_sampler(lambda seed, k: np.zeros(0), m=0),
                 "noise dimension m must be >= 1", id="noise-of-dimension-0"),
    pytest.param(lambda spec: ha.JumpNoise("gaussian"), "unknown noise kind 'gaussian'",
                 id="noise-of-unknown-kind"),
    pytest.param(lambda spec: ha.StateVec(np.array([math.nan]), np.array([0.0])),
                 "state components must be finite", id="state-with-nan"),
    pytest.param(lambda spec: dataclasses.replace(spec, epsilon=0.0),
                 "epsilon must be positive, got 0.0", id="spec-epsilon-0"),
    pytest.param(lambda spec: dataclasses.replace(spec, n=0), "dimension n must be >= 1",
                 id="spec-n-0"),
    pytest.param(lambda spec: dataclasses.replace(spec, C=_box(2)),
                 "C and D must be descriptors over the r-component", id="spec-C-of-wrong-dim"),
    pytest.param(lambda spec: dataclasses.replace(spec, m=2),
                 "noise dimension disagrees with m", id="spec-m-not-noise-m"),
])
def test_malformed_input_is_rejected_where_it_enters(actuator, build, error):
    with pytest.raises(ValueError, match=error):
        build(actuator)


@st.composite
def grids(draw):
    """A 1-3-d float array with repeated values and up to three injected non-finite entries."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    value = st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.0]) | st.floats(-1e3, 1e3)
    values = draw(st.lists(value, min_size=size, max_size=size))
    for k in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        values[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(values).reshape(shape)


class TestGridExtreme:
    @given(grids(), st.booleans())
    def test_first_extreme_in_c_order_or_first_non_finite(self, values, lowest):
        flat = values.ravel().tolist()  # C order
        bad = [k for k, v in enumerate(flat) if not math.isfinite(v)]
        want = bad[0] if bad else 0
        if not bad:
            for k, v in enumerate(flat):
                if (v < flat[want]) if lowest else (v > flat[want]):
                    want = k
        value, k = grid_extreme(values, lowest=lowest)
        assert k == want
        assert value == flat[want] or (math.isnan(value) and math.isnan(flat[want]))

    def test_empty_grid_has_no_extreme(self):
        with pytest.raises(ValueError, match="empty grid"):
            grid_extreme(np.zeros((2, 0)))
