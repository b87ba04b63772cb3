import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridavg as ha
from hybridavg.certificates import CertGrid, FosterCertificate, SubcheckResult
from hybridavg.core import union_descriptor
from hybridavg.systems import average_flow_linear

from conftest import V_quad


def jam_average(p):
    spec = ha.jammed_actuator(ha.JamParams(T=1.0, p=p, epsilon=0.01))
    return ha.build_average_system(spec, average_flow_linear)


def build_cert(p, V=V_quad, grid=None, **kw):
    return ha.foster_certificate(V, jam_average(p), grid, **kw)


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


def subcheck(V, avg, index, grid=None, **kw):
    return ha.foster_certificate(V, avg, grid, **kw).subchecks[index]


SANDWICH, GRADIENT, FLOW, JUMP = range(4)


class TestSandwich:
    def test_quadratic_gives_unit_constants(self, average_system):
        res = subcheck(V_quad, average_system, SANDWICH)
        c1, c2 = res.constants
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self, average_system):
        res = subcheck(lambda x, r: 2.0 * V_quad(x, r), average_system, SANDWICH)
        assert res.constants[0] == pytest.approx(2.0, abs=1e-12)
        assert res.constants[1] == pytest.approx(2.0, abs=1e-12)

    def test_quartic_term_spreads_the_ratio(self, average_system):
        # V = x^2 + x^4: ratio 1 + x^2 ranges over [1, 5] for |x| <= 2
        def V(x, r):
            q = V_quad(x, r)
            return q + q * q

        res = subcheck(V, average_system, SANDWICH, CertGrid(radius_max=2.0))
        assert res.constants[0] == pytest.approx(1.0, abs=1e-5)
        assert res.constants[1] == pytest.approx(5.0, abs=1e-9)

    def test_nonpositive_V_fails_with_witness(self, average_system):
        res = subcheck(lambda x, r: -V_quad(x, r), average_system, SANDWICH)
        assert not res.ok
        assert res.witness is not None

    def test_witness_is_the_worst_point(self, average_system):
        # V = -x^2 (2 - r) is most negative at |x| = 10, r = 0; a per-r-row
        # scan once reported the last failing row's minimum instead
        def V(x, r):
            return -V_quad(x, r) * (2.0 - np.asarray(r, dtype=float)[..., 0])

        res = subcheck(V, average_system, SANDWICH)
        assert not res.ok
        assert res.worst_residual == 200.0
        assert res.witness == ((10.0,), (0.0,), -200.0)


class TestGradientBound:
    def test_quadratic_gives_two(self, average_system):
        res = subcheck(V_quad, average_system, GRADIENT)
        assert res.ok
        assert res.constants[0] == pytest.approx(2.0, abs=1e-9)

    def test_gradient_scales_linearly(self, average_system):
        for alpha in (0.5, 3.0):
            res = subcheck(lambda x, r, a=alpha: a * V_quad(x, r), average_system, GRADIENT)
            assert res.constants[0] == pytest.approx(2.0 * alpha, rel=1e-9)

    def test_finite_differences_match_exact_gradient(self, average_system):
        # V = x^2 (1 + r): grad V = (2x (1 + r), x^2), so |grad V| / |x| peaks
        # at r = 1 with sqrt(16 + x^2); both the x and the r column count
        def V(x, r):
            return V_quad(x, r) * (1.0 + np.asarray(r, dtype=float)[..., 0])

        for radius in (0.25, 1.0, 2.0, 3.0):
            res = subcheck(V, average_system, GRADIENT, CertGrid(radii=(radius,)))
            assert res.constants[0] == pytest.approx(math.sqrt(16.0 + radius ** 2), abs=1e-8)
            assert res.witness == ((radius,), (1.0,))


class TestFlowDecrease:
    def test_linear_decay_rate(self, average_system):
        res = subcheck(V_quad, average_system, FLOW)
        assert res.ok
        assert res.constants[0] == pytest.approx(2.0, abs=1e-9)

    def test_unstable_flow_fails(self, actuator):
        unstable = ha.build_average_system(actuator, lambda x, r: np.asarray(x, dtype=float))
        res = subcheck(V_quad, unstable, FLOW)
        assert not res.ok
        assert res.witness is not None
        assert res.worst_residual == pytest.approx(200.0, rel=1e-9)  # 2 x^2 at |x| = 10

    def test_faster_decay_raises_the_rate(self, actuator):
        avg3 = ha.build_average_system(actuator, lambda x, r: -3.0 * np.asarray(x, dtype=float))
        res = subcheck(V_quad, avg3, FLOW)
        assert res.constants[0] == pytest.approx(6.0, abs=1e-8)

    def test_only_the_flow_set_is_sampled(self, average_system):
        # the field grows past r = 0.5, which only the jump set D = {1} reaches
        def f_ave(x, r):
            return np.asarray(x, dtype=float) * np.where(np.asarray(r) > 0.5, 1.0, -1.0)

        avg = dataclasses.replace(average_system, f_ave=f_ave,
                                  C=ha.SetDescriptor.box([0.0], [0.5]))
        assert subcheck(V_quad, avg, FLOW).ok
        assert not subcheck(V_quad, dataclasses.replace(avg, C=average_system.C), FLOW).ok


def jam_sampler(p, calls=None):
    """Sampler-only noise reproducing the scaled Bernoulli jam with probability p."""
    def sampler(seed, k):
        if calls is not None:
            calls.append((seed, k))
        u = np.random.default_rng([seed, k, 991]).random()
        return np.array([0.75 if u < p else -0.75])

    return ha.JumpNoise.from_sampler(sampler, m=1)


class TestExpectedJumpValue:
    """E[V(G_ave(z, v))], read off the jump check's witness at a single radius."""

    def test_finite_support_exact(self):
        res = subcheck(V_quad, jam_average(0.25), JUMP, CertGrid(radii=(2.0,)))
        assert res.witness == ((2.0,), (1.0,), 0.25 * 9.0)  # 0.25 V(3) + 0.75 V(0)
        assert res.constants[0] == 0.25 * 9.0 / 4.0

    def test_origin_maps_to_zero(self, average_system):
        def g_at_origin(x, r, v):
            return average_system.g(np.zeros_like(x), r, v)

        res = subcheck(V_quad, dataclasses.replace(average_system, g=g_at_origin), JUMP)
        assert res.ok
        assert res.constants[0] == 0.0
        assert res.witness[2] == 0.0

    def test_always_jammed_maps_to_zero(self, average_system):
        noise = ha.JumpNoise.finite([[0.75], [-0.75]], [0.0, 1.0])
        res = subcheck(V_quad, average_system, JUMP, CertGrid(radii=(2.0,)), noise=noise)
        assert res.witness[2] == 0.0
        assert res.constants[0] == 0.0

    def test_monte_carlo_matches_exact_within_4_se(self, average_system):
        p, n = 0.3, 100_000
        noise = jam_sampler(p)
        res = subcheck(V_quad, average_system, JUMP, CertGrid(radii=(2.0,)), noise=noise,
                       mc_samples=n)
        draws = np.stack([noise.draw(0, k + 1) for k in range(n)])
        vals = V_quad(average_system.g(np.full((n, 1), 2.0), np.ones((n, 1)), draws), None)
        std_error = float(np.std(vals, ddof=1)) / math.sqrt(n)
        mean = res.witness[2]
        assert mean == float(np.mean(vals))
        assert std_error > 0.0
        assert abs(mean - p * 9.0) <= 4.0 * std_error  # p * V(1.5 * 2) = p * 9

    def test_draws_are_made_once_per_certificate(self, average_system):
        calls = []
        grid = CertGrid(radial_points=4)  # 8 x points on D = {1}
        ha.foster_certificate(V_quad, average_system, grid, noise=jam_sampler(0.3, calls),
                              mc_samples=50)
        assert calls == [(0, k) for k in range(1, 51)]

    def test_finite_support_makes_one_jump_call_per_atom(self, average_system):
        calls = []

        def g(x, r, v):
            calls.append(x.shape[0])
            return average_system.g(x, r, v)

        ha.foster_certificate(V_quad, dataclasses.replace(average_system, g=g),
                              CertGrid(radial_points=4))
        assert calls == [8, 8]


class TestJumpCondition:
    @pytest.mark.parametrize("p", [0.1, 0.25, 2.0 / 9.0, 0.9])
    def test_ratio_is_nine_fourths_p(self, p):
        res = subcheck(V_quad, jam_average(p), JUMP)
        assert res.constants[0] == pytest.approx(2.25 * p, abs=1e-12)

    def test_identity_jump_gives_one(self, actuator, favg):
        def identity_g(x, r, v):
            return np.asarray(x, dtype=float)

        spec = dataclasses.replace(actuator, g=identity_g)
        avg = ha.build_average_system(spec, favg)
        res = subcheck(V_quad, avg, JUMP)
        assert res.constants[0] == pytest.approx(1.0, abs=1e-12)


class TestNonFiniteValues:
    def test_nan_V_fails_at_its_first_nan_point(self, average_system):
        # sqrt of (r - 0.3)(r - 0.7) is NaN on the r = 0.5 grid row only
        def V(x, r):
            r = np.asarray(r, dtype=float)[..., 0]
            return V_quad(x, r) + 0.0 * np.sqrt((r - 0.3) * (r - 0.7))

        with np.errstate(invalid="ignore"):
            cert = ha.foster_certificate(V, average_system)
        assert not cert.verdict
        sandwich, gradb, flow, jump = cert.subchecks
        for res in (sandwich, gradb, flow):
            assert not res.ok
            assert res.witness[:2] == ((0.001,), (0.5,))
            assert math.isnan(res.worst_residual)
        assert math.isnan(sandwich.witness[2])
        assert "      witness: ((0.001,), (0.5,), nan)" in str(cert).splitlines()
        assert jump.ok  # D = {1} is clear of the NaN row

    def test_V_vanishing_on_a_grid_row_fails_cleanly(self, average_system):
        # c1 = 0 at r = 0 once raised ZeroDivisionError in lambda = (c2/c1)*c5
        def V(x, r):
            return V_quad(x, r) * np.asarray(r, dtype=float)[..., 0]

        with np.errstate(divide="ignore", invalid="ignore"):
            cert = ha.foster_certificate(V, average_system)
        assert not cert.verdict
        assert cert.c1 == 0.0 and math.isnan(cert.lam)
        assert cert.subchecks[SANDWICH].witness == ((0.001,), (0.0,), 0.0)
        assert "worst_residual=0.0" in str(cert).splitlines()[7]  # not -0.0


def reference_certificate(V, avg, grid, noise=None, mc_samples=100_000):
    """The certificate from per-r-row loops and per-point jump expectations.

    This is the row-by-row scan the one-pass foster_certificate replaced,
    kept as its reference; the sandwich witness is the global worst point.
    """
    union = union_descriptor(avg.C, avg.D)
    noise = noise or avg.noise
    x = grid.x_points(avg.n)

    def eval_V(xs, rs):
        return np.asarray(V(xs, rs), dtype=float).reshape(xs.shape[0])

    def rows(region):
        for rr in region.grid(grid.r_points):
            r_tile = np.broadcast_to(rr, (x.shape[0], avg.p)).copy()
            dr = union.distance(r_tile)
            d = np.sqrt(np.sum(x * x, axis=-1) + dr * dr)
            mask = d > 0.0
            if np.any(mask):
                yield rr, x[mask], r_tile[mask], d[mask]

    def gradient(xs, rs):
        z = np.concatenate([xs, rs], axis=-1)
        grad = np.zeros(z.shape)
        for col in range(z.shape[1]):
            h = 1e-5 * np.maximum(1.0, np.abs(z[:, col]))
            zp, zm = z.copy(), z.copy()
            zp[:, col] += h
            zm[:, col] -= h
            vp = eval_V(zp[:, : avg.n], zp[:, avg.n:])
            vm = eval_V(zm[:, : avg.n], zm[:, avg.n:])
            grad[:, col] = (vp - vm) / (2.0 * h)
        return grad

    c1, c2, worst, witness = math.inf, -math.inf, -math.inf, None
    for rr, xs, rs, d in rows(union):
        vals = eval_V(xs, rs)
        k = int(np.argmin(vals))
        if vals[k] <= 0.0 and -vals[k] > worst:
            worst, witness = float(-vals[k]), (tuple(xs[k]), tuple(rr), float(vals[k]))
        ratio = vals / d ** 2
        c1, c2 = min(c1, float(np.min(ratio))), max(c2, float(np.max(ratio)))
    ok = witness is None
    sandwich = SubcheckResult("sandwich c1*d^2 <= V <= c2*d^2", ok and c1 > 0.0, (c1, c2),
                              0.0 if ok else worst, witness)

    c3, witness = -math.inf, None
    for rr, xs, rs, d in rows(union):
        grads = gradient(xs, rs)
        ratio = np.sqrt(np.sum(grads * grads, axis=-1)) / d
        k = int(np.argmax(ratio))
        if ratio[k] > c3:
            c3, witness = float(ratio[k]), (tuple(xs[k]), tuple(rr))
    gradb = SubcheckResult("gradient bound |grad V| <= c3*d", math.isfinite(c3), (c3,), 0.0,
                           witness)

    c4, worst, witness, ok = math.inf, -math.inf, None, True
    for rr, xs, rs, d in rows(avg.C):
        dot = np.sum(gradient(xs, rs) * avg.flow(xs, rs), axis=-1)
        ratio = -dot / eval_V(xs, rs)
        k = int(np.argmin(ratio))
        if ratio[k] < c4:
            c4, witness = float(ratio[k]), (tuple(xs[k]), tuple(rr), float(dot[k]))
        worst = max(worst, float(np.max(dot)))
        ok = ok and not np.any(dot > 0.0)
    flow = SubcheckResult("flow decrease <grad V, F_ave> <= -c4*V", ok and c4 > 0.0, (c4,),
                          max(worst, 0.0), witness)

    def expected(xk, rr):
        if noise.kind == "finite-support":
            total = 0.0
            for v, prob in zip(noise.values, noise.probs):
                xp = np.asarray(avg.g(xk[None, :], rr[None, :], v[None, :]), dtype=float)
                rp = np.broadcast_to(np.asarray(avg.h(rr[None, :], v[None, :]), dtype=float),
                                     (1, avg.p))
                total += float(prob) * float(eval_V(xp, rp)[0])
            return total
        draws = np.stack([noise.draw(0, k + 1) for k in range(mc_samples)])
        x_tile = np.broadcast_to(xk, (mc_samples, avg.n))
        r_tile = np.broadcast_to(rr, (mc_samples, avg.p))
        rp = np.broadcast_to(np.asarray(avg.h(r_tile, draws), dtype=float), (mc_samples, avg.p))
        return float(np.mean(eval_V(np.asarray(avg.g(x_tile, r_tile, draws)), rp)))

    c5, witness = -math.inf, None
    for rr in avg.D.grid(grid.r_points):
        for xk in x:
            vz = float(eval_V(xk[None, :], rr[None, :])[0])
            if vz <= 0.0:
                continue
            ev = expected(xk, rr)
            if ev / vz > c5:
                c5, witness = ev / vz, (tuple(xk), tuple(rr), ev)
    jump = SubcheckResult("jump contraction E[V+] <= c5*V", math.isfinite(c5) and c5 >= 0.0,
                          (c5,), 0.0, witness)

    lam = (c2 / c1) * c5
    verdict = sandwich.ok and gradb.ok and flow.ok and jump.ok and lam < 0.5
    return FosterCertificate(c1, c2, c3, c4, c5, lam, bool(verdict),
                             (sandwich, gradb, flow, jump), grid, 0.0)


@st.composite
def certificate_cases(draw):
    """A quadratic-plus-quartic V, a grid, a jump noise and an average system."""
    n = draw(st.sampled_from([1, 2]))
    coef = st.floats(0.1, 3.0)
    a = np.array([draw(coef) for _ in range(n)])
    b = draw(st.floats(0.0, 1.0))
    c = draw(st.floats(-0.5, 0.5))
    sign = draw(st.sampled_from([1.0, 1.0, -1.0]))

    def V(x, r):
        x = np.asarray(x, dtype=float)
        q = np.sum(a * x * x, axis=-1)
        return sign * (q + b * q * q) * (1.0 + c * np.asarray(r, dtype=float)[..., 0])

    if draw(st.booleans()):
        grid = CertGrid(radii=tuple(draw(st.lists(st.floats(1e-3, 10.0), min_size=1,
                                                  max_size=4))),
                        r_points=draw(st.integers(1, 5)))
    else:
        lo = draw(st.floats(1e-4, 1.0))
        grid = CertGrid(radius_min=lo, radius_max=lo * draw(st.floats(1.5, 1e3)),
                        radial_points=draw(st.integers(1, 8)), r_points=draw(st.integers(1, 5)))
    atoms = draw(st.integers(0, 4))  # 0: sampler-only noise
    if atoms:
        weights = np.array([draw(st.floats(0.1, 1.0)) for _ in range(atoms)])
        values = [[draw(st.floats(-1.0, 1.0))] for _ in range(atoms)]
        noise = ha.JumpNoise.finite(values, weights / np.sum(weights))
        mc_samples = 100_000
    else:
        noise = jam_sampler(draw(st.floats(0.0, 1.0)))
        mc_samples = draw(st.integers(1, 30))
    if n == 1:
        avg = jam_average(0.1)
    else:
        from test_multidim import PLANAR_CFG

        avg = ha.build_average_system(ha.load_system(PLANAR_CFG),
                                      lambda x, r: -np.asarray(x, dtype=float))
    if draw(st.booleans()):
        avg = dataclasses.replace(avg, D=ha.SetDescriptor.box([0.5], [1.0]))
    return V, avg, grid, noise, mc_samples


@settings(max_examples=100, deadline=None, derandomize=True)
@given(certificate_cases())
def test_one_pass_equals_the_per_row_reference(case):
    V, avg, grid, noise, mc_samples = case
    got = ha.foster_certificate(V, avg, grid, noise=noise, mc_samples=mc_samples)
    want = reference_certificate(V, avg, grid, noise, mc_samples)
    assert got == want


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
