"""Built-in example systems and the config-driven system loader.

Both built-ins share one skeleton: a scalar plant whose state is jammed every
T seconds through ``x+ = (0.75 + v) x`` with v = +0.75 (gain 1.5) with
probability p and v = -0.75 (reset to 0) otherwise, driven by a unit-rate
timer r in [0, T] that resets at T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import config as cfgmod
from .core import JumpNoise, SetDescriptor, SystemSpec
from .expressions import CompiledMap, ExpressionError, allowed_names, compile_expressions


@dataclass(frozen=True)
class JamParams:
    """Reset period T (seconds), gain-1.5 probability p, time-scale epsilon."""

    T: float
    p: float
    epsilon: float

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("reset period T must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("jam probability p must lie in [0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


def _actuator_flow(u, x, r, tau, eps):
    xc = x[..., 0]
    out = -(xc * (1.0 + np.sin(tau)))
    if u != 0.0:
        out = out + u
    return out[..., None]


def _unit_rate(r):
    return np.ones_like(np.asarray(r, dtype=float))


def _jam_gain(x, r, v):
    return ((0.75 + v[..., 0]) * x[..., 0])[..., None]


def _reset_timer(r, v):
    return np.zeros_like(np.asarray(r, dtype=float))


def _jammed(params: JamParams, f) -> SystemSpec:
    """The shared skeleton: flow f, a unit-rate timer over [0, T], jams at r = T."""
    return SystemSpec(
        n=1, p=1, m=1,
        f=f,
        w=_unit_rate,
        g=_jam_gain,
        h=_reset_timer,
        C=SetDescriptor.box([0.0], [params.T]), D=SetDescriptor.point([params.T]),
        noise=JumpNoise.finite([[0.75], [-0.75]], [params.p, 1.0 - params.p]),
        epsilon=params.epsilon,
    )


def jammed_actuator(params: JamParams, u: float = 0.0) -> SystemSpec:
    """Scalar actuator xdot = -x(1 + sin tau) + u under periodic random jamming.

    The certificate pipeline assumes u = 0 (the default); a nonzero constant
    input is available for simulation experiments only.
    """
    return _jammed(params, partial(_actuator_flow, float(u)))


def _es_flow(delta, x, r, tau, eps):
    # gradient-seeking field with quadratic cost and dither amplitude
    # a(x) = max(delta, |x|): outside the delta-ball the normalized form,
    # inside the raw field with a = delta (locally Lipschitz, origin not
    # invariant there).
    xc = x[..., 0]
    s = np.sin(tau)
    outer = -(xc * s) - 2.0 * xc * (s * s) - np.abs(xc) * (s * s * s)
    inner = -((xc + delta * s) * (xc + delta * s)) * s / delta
    out = np.where(np.abs(xc) >= delta, outer, inner)
    return out[..., None]


def jammed_es(params: JamParams, delta: float) -> SystemSpec:
    """Dither-based optimizer of a quadratic cost under periodic random jamming.

    ``delta`` is the regularization radius: the field satisfies the global
    regularity conditions outside the delta-ball, so only recurrence to a
    delta-neighborhood of the target set is expected.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return _jammed(params, partial(_es_flow, float(delta)))


def average_flow_linear(x, r):
    """The shared average flow of both built-ins: f_ave(x) = -x."""
    return -np.atleast_2d(np.asarray(x, dtype=float))


def load_system(source) -> SystemSpec:
    """Build a SystemSpec from a config path, text (a str with a newline) or document.

    ``[system] kind`` selects a built-in (``jammed-actuator``, ``jammed-es``)
    or ``custom``, in which case the maps are compiled from expressions and
    the noise from the ``[noise]`` section.  Raises ConfigError with a
    location for parse errors, unknown symbols, and dimension mismatches.
    """
    doc = cfgmod.as_document(source)
    sec = doc.section("system")
    kind = sec.get("kind")
    if kind is None:
        raise cfgmod.ConfigError("[system] section needs a 'kind'")

    if kind in ("jammed-actuator", "jammed-es"):
        params = JamParams(
            T=doc.get_float("system", "period", 1.0),
            p=doc.get_float("system", "jam_prob", 0.1),
            epsilon=doc.get_float("system", "epsilon", 0.01),
        )
        if kind == "jammed-actuator":
            return jammed_actuator(params, u=doc.get_float("system", "u", 0.0))
        return jammed_es(params, delta=doc.get_float("system", "delta", 0.1))

    if kind != "custom":
        raise cfgmod.ConfigError(f"unknown system kind {kind!r}")

    n = doc.get_int("system", "state_dim")
    p = doc.get_int("system", "aux_dim")
    m = doc.get_int("system", "noise_dim")
    epsilon = doc.get_float("system", "epsilon")

    dims = {"x": n, "r": p, "v": m}

    def compile_map(key: str, roles: tuple):
        # a map returns one column per dimension of its first argument
        texts = doc.get_expr_list("system", key)
        if len(texts) != dims[roles[0]]:
            raise cfgmod.ConfigError(
                f"[system] {key}: expected {dims[roles[0]]} expression(s) separated by ';', "
                f"got {len(texts)}")
        allowed = allowed_names(*(dims[a] if a in roles else 0 for a in "xrv"),
                                tau="tau" in roles, eps="eps" in roles)
        try:
            return CompiledMap(compile_expressions(texts, allowed), roles)
        except ExpressionError as exc:
            raise cfgmod.ConfigError(f"[system] {key}: {exc}") from exc

    f = compile_map("flow_x", ("x", "r", "tau", "eps"))
    w = compile_map("flow_r", ("r",))
    g = compile_map("jump_x", ("x", "r", "v"))
    h = compile_map("jump_r", ("r", "v"))

    C = doc.get_set("system", "flow_set", p)
    D = doc.get_set("system", "jump_set", p)

    noise_sec = doc.section("noise")
    nkind = noise_sec.get("kind", "finite")
    if nkind != "finite":
        raise cfgmod.ConfigError(
            "config noise must be kind = finite; samplers are registered in code")
    values = doc.get_float_groups("noise", "values")
    for row in values:
        if len(row) != m:
            raise cfgmod.ConfigError(
                f"[noise] values: atom {row!r} has {len(row)} component(s), expected {m}")
    probs = doc.get_float_list("noise", "probs")
    if len(probs) != len(values):
        raise cfgmod.ConfigError(
            f"[noise] probs: {len(probs)} probabilities for {len(values)} atoms")
    try:
        noise = JumpNoise.finite(values, probs)
    except ValueError as exc:
        raise cfgmod.ConfigError(f"[noise] probs: {exc}") from exc

    return SystemSpec(
        n=n, p=p, m=m,
        f=f, w=w, g=g, h=h,
        C=C, D=D,
        noise=noise,
        epsilon=epsilon,
    )
