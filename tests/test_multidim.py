"""End-to-end checks on a 2-dimensional system (shape bugs hide above n = 1).

The field couples decay with a rotation modulated by the fast clock:

    x1dot = -x1 + x2 sin(tau),   x2dot = -x2 - x1 sin(tau)

so the residual against the average -x is d = (x2, -x1) sin(tau) with
|d| = |x| |sin(tau)|, and the window-mean bound matches the scalar closed
form 2 |sin(T/2)| / T.  The Jacobian of the field has singular values
sqrt(1 + sin(tau)^2), so the sharp x-Lipschitz constant is sqrt(2).
"""

import math

import numpy as np
import pytest

import hybridavg as ha

PLANAR_CFG = """\
[system]
kind = custom
state_dim = 2
aux_dim = 1
noise_dim = 1
epsilon = 0.02
flow_x = -x_1 + x_2*sin(tau); -x_2 - x_1*sin(tau)
flow_r = 1
jump_x = (0.5 + v)*x_1; (0.5 + v)*x_2
jump_r = 0
flow_set = box 0 1
jump_set = point 1

[noise]
kind = finite
values = 0.5; -0.5
probs = 0.3 0.7
"""


@pytest.fixture(scope="module")
def planar():
    return ha.load_system(PLANAR_CFG)


def favg(x, r):
    return -np.asarray(x, dtype=float)


def test_structural_checks_pass(planar):
    report = ha.validate_spec(planar)
    assert report.passed and report.h_estimate == 0.0


def test_window_average_recovers_minus_x(planar):
    got = ha.window_average(planar, [1.0, -0.5], [0.2], 0.3, 2.0 * math.pi)
    assert np.allclose(got, [-1.0, 0.5], atol=1e-12)


def test_gamma_matches_scalar_closed_form(planar):
    taus = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    Ts = np.array([0.8, math.pi, 5.0, 2.0 * math.pi])
    curve = ha.estimate_gamma(planar, favg, np.array([[1.0, -0.5], [2.0, 1.0]]),
                              np.array([[0.2]]), taus, Ts)
    oracle = 2.0 * np.abs(np.sin(Ts / 2.0)) / Ts
    assert np.max(np.abs(curve.values - oracle)) <= 1e-4


def test_average_map_tabulates_cleanly(planar):
    avg = ha.estimate_average_map(
        planar,
        [np.array([-2.0, -1.0, 1.0, 2.0]), np.array([-2.0, -1.0, 1.0, 2.0])],
        [np.array([0.0, 0.5, 1.0])],
        T_long=20.0 * 2.0 * math.pi, f_ave=favg)
    assert avg.nodal_residual <= 1e-6


def test_lipschitz_constant_is_sqrt_two(planar):
    est = ha.estimate_lipschitz(planar, favg,
                                np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -1.0]]),
                                np.array([[0.2]]),
                                np.linspace(0.0, 2.0 * math.pi, 201))
    assert est.L_x == pytest.approx(math.sqrt(2.0), rel=0.01)
    assert est.L_g == pytest.approx(1.0, abs=1e-12)


def test_paths_and_certificate(planar):
    init = ha.StateVec(np.array([1.0, -0.5]), np.array([0.0]))
    arc = ha.simulate_path(planar, init, 3, ha.Horizon(3.5, 50))
    assert len(arc.jumps) == 3
    ens = ha.simulate_ensemble(planar, [init], 4, 3, ha.Horizon(3.5, 50))
    assert np.array_equal(ens[0].segments[-1].x, arc.segments[-1].x)

    avg = ha.build_average_system(planar, favg)

    def V(x, r):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2

    cert = ha.foster_certificate(V, avg)
    # E[V+] = 0.3 * (1.5^2) V + 0.7 * 0.5^2 ... jump gain is (0.5 + v)
    expected_c5 = 0.3 * 1.0 ** 2 + 0.7 * 0.0 ** 2
    assert cert.c5 == pytest.approx(expected_c5, abs=1e-12)
    assert cert.c4 == pytest.approx(2.0, abs=1e-8)
    assert cert.verdict == (cert.lam < 0.5)
