"""Built-in example systems and the config-driven system loader.

Both built-ins share one skeleton: a scalar plant whose state is jammed every
T seconds through ``x+ = (0.75 + v) x`` with v = +0.75 (gain 1.5) with
probability p and v = -0.75 (reset to 0) otherwise, driven by a unit-rate
timer r in [0, T] that resets at T.

The constructors take the built-in's ``[system]`` keys (``period``,
``jam_prob``, ``epsilon``, and ``delta`` for ``jammed-es``), which
``config.SCHEMA`` declares with their defaults and guards: a constructor
writes them into ``kind = jammed-*`` text for load_system.  A built-in is
rendered expression text: its keys fill in a ``kind = custom`` config, each
number written as ``repr(float)``, which compiles like any user config (see
_custom_text).  Every config expression key, the four maps here and
``[average] favg`` and ``[certify] V``, compiles through compile_key.  The
flow of ``jammed-actuator`` is ``-(x_1*(1.0 + sin(tau)))``.  That of
``jammed-es`` with delta = 0.1 is::

    ifge(abs(x_1), 0.1,
         -(x_1*sin(tau)) - 2.0*x_1*(sin(tau)*sin(tau)) - abs(x_1)*(sin(tau)*sin(tau)*sin(tau)),
         -((x_1 + 0.1*sin(tau))*(x_1 + 0.1*sin(tau)))*sin(tau)/0.1)

a gradient-seeking field with quadratic cost and dither amplitude
a(x) = max(delta, |x|): outside the delta-ball the normalized form, inside the
raw field with a = delta (locally Lipschitz, origin not invariant there).
"""

from __future__ import annotations

from . import config as cfgmod
from .core import JumpNoise, SystemSpec
from .expressions import CompiledMap, ExpressionError, allowed_names, compile_expressions


def _builtin(kind: str, keys: dict) -> SystemSpec:
    """load_system of [system] kind = <kind> with keys, each number written as repr(float)."""
    text = f"[system]\nkind = {kind}\n"
    for key, v in keys.items():
        try:
            text += f"{key} = {float(v)!r}\n"
        except (TypeError, ValueError):
            raise cfgmod.ConfigError(f"[system] {key}: not a number: {v!r}") from None
    return load_system(text)


def jammed_actuator(**keys) -> SystemSpec:
    """Scalar actuator xdot = -x(1 + sin tau) under periodic random jamming.

    ``keys`` are the ``[system]`` keys ``period``, ``jam_prob`` and
    ``epsilon``; one left out takes its schema default, and an unknown key, a
    value that is not a number or one its guard rejects is a ConfigError.
    """
    return _builtin("jammed-actuator", keys)


def jammed_es(**keys) -> SystemSpec:
    """Dither-based optimizer of a quadratic cost under periodic random jamming.

    ``keys`` are those of jammed_actuator plus ``delta``, the regularization
    radius: the field satisfies the global regularity conditions outside the
    delta-ball, so only recurrence to a delta-neighborhood of the target set
    is expected.
    """
    return _builtin("jammed-es", keys)


def _custom_text(doc, kind: str) -> str:
    """The kind = custom text of a built-in's document: the shared skeleton around its flow."""
    T, p, eps = (doc.get_float("system", key) for key in ("period", "jam_prob", "epsilon"))
    flow_x = "-(x_1*(1.0 + sin(tau)))"
    if kind == "jammed-es":
        d, s = repr(doc.get_float("system", "delta")), "sin(tau)"
        outer = f"-(x_1*{s}) - 2.0*x_1*({s}*{s}) - abs(x_1)*({s}*{s}*{s})"
        inner = f"-((x_1 + {d}*{s})*(x_1 + {d}*{s}))*{s}/{d}"
        flow_x = f"ifge(abs(x_1), {d}, {outer}, {inner})"
    return (f"[system]\nkind = custom\nstate_dim = 1\naux_dim = 1\nnoise_dim = 1\n"
            f"epsilon = {eps!r}\nflow_x = {flow_x}\nflow_r = 1.0\njump_x = (0.75 + v)*x_1\n"
            f"jump_r = 0.0\nflow_set = box 0.0 {T!r}\njump_set = point {T!r}\n\n"
            f"[noise]\nvalues = 0.75; -0.75\nprobs = {p!r} {1.0 - p!r}\n")


def compile_key(doc, section: str, key: str, roles: tuple, count: int, dims: dict):
    """The parsed expressions of [section] key over the names of roles, or None if unset.

    ``dims`` gives the number of columns of each array role.  A key that does
    not hold exactly ``count`` ';'-separated expressions, or holds one that
    does not parse or reads a name outside roles, is a ConfigError naming it.
    """
    texts = doc.get_expr_list(section, key)
    if texts is None:
        return None
    if len(texts) != count:
        raise cfgmod.ConfigError(f"[{section}] {key}: expected {count} expression(s) "
                                 f"separated by ';', got {len(texts)}")
    allowed = allowed_names(*(dims[a] if a in roles else 0 for a in "xrv"),
                            tau="tau" in roles, eps="eps" in roles)
    try:
        return compile_expressions(texts, allowed)
    except ExpressionError as exc:
        raise cfgmod.ConfigError(f"[{section}] {key}: {exc}") from exc


def load_system(source) -> SystemSpec:
    """Build a SystemSpec from a config path, text (a str with a newline) or document.

    ``[system] kind`` selects a built-in (``jammed-actuator``, ``jammed-es``)
    or ``custom``, in which case the maps are compiled from expressions and
    the noise from the ``[noise]`` section; ``config.SCHEMA`` declares the
    keys of each kind.  Raises ConfigError with a location for parse errors,
    unknown keys and symbols, and dimension mismatches.
    """
    doc = cfgmod.as_document(source)
    kind = doc.get_str("system", "kind")
    if kind != "custom":
        return load_system(_custom_text(doc, kind))

    n = doc.get_int("system", "state_dim")
    p = doc.get_int("system", "aux_dim")
    m = doc.get_int("system", "noise_dim")
    epsilon = doc.get_float("system", "epsilon")

    dims = {"x": n, "r": p, "v": m}

    def compile_map(key: str, roles: tuple) -> CompiledMap:
        # a map returns one column per dimension of its first argument
        return CompiledMap(compile_key(doc, "system", key, roles, dims[roles[0]], dims), roles)

    f = compile_map("flow_x", ("x", "r", "tau", "eps"))
    w = compile_map("flow_r", ("r",))
    g = compile_map("jump_x", ("x", "r", "v"))
    h = compile_map("jump_r", ("r", "v"))

    C, D = doc.get_set("system", "flow_set"), doc.get_set("system", "jump_set")
    for key, region in (("flow_set", C), ("jump_set", D)):
        if region.dim != p:
            raise cfgmod.ConfigError(
                f"[system] {key}: a set over r needs {p} coordinate(s), got {region.dim}")

    doc.get_str("noise", "kind")  # its guard admits finite noise only
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
