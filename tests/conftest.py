import numpy as np
import pytest

import hybridavg as ha
from hybridavg.expressions import AverageField, allowed_names, compile_expressions


def V_quad(x, r):
    return np.asarray(x, dtype=float)[..., 0] ** 2


@pytest.fixture(scope="session")
def actuator():
    return ha.jammed_actuator(period=1.0, jam_prob=0.1, epsilon=0.01)


@pytest.fixture(scope="session")
def es_system():
    return ha.jammed_es(period=1.0, jam_prob=0.1, epsilon=0.01, delta=0.1)


def average_flow_linear():
    """The shared average flow of both built-ins: f_ave(x) = -x."""
    return AverageField(compile_expressions(["-x_1"], allowed_names(n=1, p=1)), 1)


@pytest.fixture(scope="session")
def favg():
    return average_flow_linear()


@pytest.fixture(scope="session")
def average_system(actuator, favg):
    return ha.build_average_system(actuator, favg)


def state(x, r=0.0, tau=0.0):
    return ha.StateVec(np.atleast_1d(np.asarray(x, dtype=float)),
                       np.atleast_1d(np.asarray(r, dtype=float)), tau)


def assert_origin_rest_and_timer_reset(spec):
    """f(0, r, tau, eps) and g(0, r, v) vanish on C u D, and h sends D to r = 0 in C u D.

    f is sampled at tau in [0, 4 pi] and eps in {0, spec.epsilon}, g and h at
    every atom of the noise.
    """
    r = spec.flow_or_jump_set.grid(9)
    d = spec.D.grid(9)
    x0 = np.zeros((r.shape[0], spec.n))
    for eps in (0.0, spec.epsilon):
        for tau in np.linspace(0.0, 4.0 * np.pi, 25):
            assert np.all(np.asarray(spec.f(x0, r, float(tau), eps)) == 0.0), (tau, eps)
    for v in spec.noise.values:
        assert np.all(np.asarray(spec.g(x0, r, np.tile(v, (r.shape[0], 1)))) == 0.0), v
        post = np.broadcast_to(spec.h(d, np.tile(v, (d.shape[0], 1))), d.shape)
        assert np.all(post == 0.0) and all(map(spec.flow_or_jump_set.contains, post)), v


def arcs_equal(a, b) -> bool:
    """Bitwise equality of two arcs (values, jump draws, and bookkeeping)."""
    if len(a.segments) != len(b.segments) or len(a.jumps) != len(b.jumps):
        return False
    for sa, sb in zip(a.segments, b.segments):
        if sa.j != sb.j:
            return False
        for fa, fb in ((sa.t, sb.t), (sa.x, sb.x), (sa.r, sb.r), (sa.tau, sb.tau)):
            if not (np.array_equal(fa, fb) and np.array_equal(np.signbit(fa), np.signbit(fb))):
                return False
    for ja, jb in zip(a.jumps, b.jumps):
        if ja.time != jb.time or not np.array_equal(ja.v, jb.v):
            return False
        if not (np.array_equal(ja.x_post, jb.x_post) and np.array_equal(ja.r_post, jb.r_post)):
            return False
    return a.terminal_reason == b.terminal_reason
