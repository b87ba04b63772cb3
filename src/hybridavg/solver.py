"""Execution of random hybrid solutions.

Flows are integrated with a fixed-step classical 4th-order scheme while r is
in C.  _events is the one place where events are located: one scan of the
intervals of s during which r + s*w(r) lies in each box of C u D gives both
the exit from the run of boxes holding r and the entry into D, and the step
is clipped to land exactly there.  That location is exact for an affine w;
otherwise the step is predicted from w(r), and a step that overshoots C u D
is clipped onto the box it left.  Jumps fire with jump priority and a draw
keyed by (seed, jump index) from the path's own noise: the system's, unless
an ensemble gives each path one.  A jumping group draws once per noise
object among its paths (JumpNoise.draws), each path's draw bit-identical to
its lone draw, default_rng([seed, k]).random() for finite support.  The
clock tau is never integrated: within a flow segment it is
tau_anchor + (t - t_anchor)/epsilon, exact to a few ulps.

Paths with bitwise-equal aux rows form a lockstep group, which splits at a
jump into sub-groups of equal post-jump r.  A group holds one x row per
bitwise-distinct state, found where the group is made (at the start and after
each jump), and maps each path to its row; f, the RK4 arithmetic and the
stored samples work on those rows, and a jump expands them per path for its
per-path draws.  The run advances in waves, each moving every live group one
step; flowing groups whose step has the same (tau, dt) bits share one stacked
RK4 step, so maps always see a scalar tau, and a group stepping alone passes
its one row of r stages for all of its x rows.  A compiled f computes such a
step's few rows whole, one row at a time in Python floats, in its fused RK4
run (see _rk4 and expressions.CompiledMap), not in numpy calls over the
stack.  A lone live group within the run's row limit goes further: its next
flow steps, chained from its memoized plans up to a jump or any other
outcome, are one call of the run, which carries its rows from step to step in
Python floats and computes the clock subtrees once for all the steps (see
_run_lone).  Maps act elementwise across the batch, so a row's bits do not
depend on the other rows beside it: stepping a state once for every path on
it, in any batch, is bit-identical to running each path alone.

w and the sets C, D involve r alone, so a step's outcome (a jump, the
horizon, leaving C u D, a snap onto D, or a flow step with its dt and r
stages) depends only on r's bits and the step cap: it is planned once per
distinct (r, cap) and memoized for the run.  A wave's new steps are planned
together; a compiled w plans a few of them one row at a time in Python
floats, through its function of one row (see _plan_steps).  This relies on
maps being pure: a map must return the same bits for the same arguments every
time it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import (
    FlowSegment,
    HybridArc,
    HybridTime,
    JumpRecord,
    StateVec,
    SystemSpec,
    TERMINAL_HORIZON_J,
    TERMINAL_HORIZON_T,
    TERMINAL_LEFT_SETS,
)


@dataclass(frozen=True)
class Horizon:
    """Truncation of the (unbounded) hybrid time domain: stop at t_max or j_max.

    t_max = 0 is allowed and records only the initial sample, which lets
    recurrence counts degenerate to paths that start inside the target ball.
    """

    t_max: float
    j_max: int

    def __post_init__(self):
        if not (self.t_max >= 0.0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be finite and >= 0")
        if self.j_max < 1:
            raise ValueError("j_max must be a positive integer")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator parameters.

    The effective step is min(base_step, epsilon * substep_per_epsilon): the
    flow oscillates at rate 1/epsilon, and the default ratio 0.1 resolves one
    2*pi period of the fast clock with ~63 steps.
    """

    base_step: float = 0.01
    substep_per_epsilon: float = 0.1

    def __post_init__(self):
        for name in ("base_step", "substep_per_epsilon"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"step parameter {name} must be positive and finite, "
                                 f"got {value!r}")

    def effective_step(self, epsilon: float) -> float:
        return min(self.base_step, epsilon * self.substep_per_epsilon)


class MapEvaluationError(RuntimeError):
    """A registered map produced a non-finite value during integration."""


def _advancing_step(epsilon: float, cfg: IntegratorConfig, t_max: float) -> float:
    """cfg's effective step at epsilon, or a ValueError when it cannot advance t to t_max."""
    dt_eff = cfg.effective_step(epsilon)
    if not 2.0 * dt_eff > math.ulp(t_max):  # then t + dt > t for every t <= t_max
        raise ValueError(f"step too small to advance t: dt_eff = min(base_step "
                         f"{cfg.base_step!r}, epsilon {epsilon!r} * substep_per_epsilon "
                         f"{cfg.substep_per_epsilon!r}) = {dt_eff!r} is at most half of "
                         f"ulp(t_max) at t_max = {t_max!r}")
    return dt_eff


def _check_finite(map_name: str, parts, seeds):
    """Raise MapEvaluationError naming the lowest path whose row is non-finite.

    parts holds (rows, paths, where) per group: one row per path of ``paths``
    (ascending) or one row shared by all of them, and where the group's own t.
    """
    bad = [(int(paths[np.argmin(ok)]), where) for rows, paths, where in parts
           if not (ok := np.isfinite(np.atleast_2d(rows)).all(axis=-1)).all()]
    if bad:
        i, where = min(bad)
        raise MapEvaluationError(f"map '{map_name}' returned a non-finite value "
                                 f"({where}; path {i}, seed {seeds[i]})")


def _rk4(spec: SystemSpec, x, rs, tau: float, dt: float):
    """One classical 4th-order step of x under f, given the r stages rs[0:4], each
    (B, p), or (1, p) for one row of stages shared by every row of x.

    A compiled f's fused run (expressions.CompiledMap.step), called for this
    one step, computes a batch within its row limit row by row in Python
    floats, with the operations below in their order, so its bits are those
    of the numpy code.  Where f has none (a plain callable, or a map whose
    row limit is 0 or that reads a column of x past its outputs) or it takes
    no step (a larger batch, which it turns away, or a non-finite output: a
    NaN, whose sign Python may give differently, or an inf), the whole step
    is the numpy code: a shared row of stages repeated to B rows, so f sees
    equal batch lengths, then four calls of f and the arithmetic over the
    batch.  This is the wave's one call per step.  Returns (x2, finite):
    finite is True for a step of the fused run, whose outputs are all
    finite, and otherwise whether x2's sum is finite; False sends the solver
    to check x2's rows.
    """
    f, eps = spec.f, spec.epsilon
    run = getattr(f, "step", None)
    if run is not None and (out := run(x, (rs,), (tau,), eps, (dt,))) is not None and out[1]:
        x2 = out[0]
        x2.shape = x2.shape[1:]  # the run's one step
        return x2, True
    if rs.shape[1] != len(x):  # one group's r stages, shared by its rows
        rs = rs.repeat(len(x), axis=1)
    half = 0.5 * dt
    tau_h = tau + half / eps
    tau_f = tau + dt / eps
    k1 = np.asarray(f(x, rs[0], tau, eps), dtype=float)
    k2 = np.asarray(f(x + half * k1, rs[1], tau_h, eps), dtype=float)
    k3 = np.asarray(f(x + half * k2, rs[2], tau_h, eps), dtype=float)
    k4 = np.asarray(f(x + dt * k3, rs[3], tau_f, eps), dtype=float)
    x2 = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    # a sum of finite terms that overflows only sends the check to the rows
    return x2, math.isfinite(x2.sum())


#: most flowing rows a plan steps in Python floats through a compiled w's row
#: function (see _plan_steps); per call on a 2-vCPU Xeon, es.cfg's timer took
#: 13.7-14.1 us at 1 row against 22.4-24.5 us in numpy, was faster in 2 of 3
#: runs at 5 rows and slower in 2 of 3 at 6, and took 3-7% longer at 7 and 8
#: rows (BENCH_38.json)
_PLAN_ROWS = 5


def _plan_steps(spec: SystemSpec, asks, seeds) -> list:
    """Outcomes of a wave's unplanned steps, one per ask (group, step cap).

    An outcome is None for a jump, a terminal reason, r snapped onto the D
    boundary it lies on, or a flow step (dt, rows, r_next): rows (5, 1, p)
    stacks RK4's four r stages and r_next, the next r (1, p), snapped onto its
    box when an event clipped the step, or onto the box of the run it leaves
    when an unclipped step overshot C u D.  All plans of a call view one
    (5, M, p) array.  Membership and _events decide each row on Python floats.
    A compiled w (expressions.CompiledMap.row) planning at most _PLAN_ROWS
    flowing rows computes each row's stages in Python floats too, one row of w
    at a time, with the operations below in their order, so its bits are
    those of the numpy code.  Otherwise w is called once per RK4 stage over
    the flowing rows, with an (M, 1) column of their dts, or one float when
    shared (the same bits).  Either way every k1 is checked before any r_next.
    """
    def check(values, g):  # asks come by lowest path, so the first row to fail names it
        if not all(map(math.isfinite, values)):
            _check_finite("w", [(values, g.paths[:1], f"t={g.t}")], seeds)

    plans, flowing = [None] * len(asks), []
    for m, (g, cap) in enumerate(asks):
        r_vals = g.r[0].tolist()
        # jump priority first: jumps consume no flow time, so one firing at
        # exactly t = t_max still belongs to the truncated domain
        if spec.D.contains(r_vals):
            continue
        if cap <= 0.0:
            plans[m] = TERMINAL_HORIZON_T
        elif not spec.C.contains(r_vals):
            plans[m] = TERMINAL_LEFT_SETS
        else:
            flowing.append((m, r_vals))
    if not flowing:
        return plans
    row = getattr(spec.w, "row", None) if len(flowing) <= _PLAN_ROWS else None
    if row is None:
        R = asks[flowing[0][0]][0].r if len(flowing) == 1 else np.array([r for _, r in flowing])
        K1 = np.asarray(spec.w(R), dtype=float)
        K1 = K1 if K1.shape == R.shape else np.broadcast_to(K1, R.shape)  # a broadcastable w
        k1s = K1.tolist()
    else:
        k1s = [row(r_vals) for _, r_vals in flowing]
    steps = []
    for q, ((m, r_vals), k1) in enumerate(zip(flowing, k1s)):
        g, cap = asks[m]
        check(k1, g)
        leave, entry = _events(r_vals, k1, spec, cap)
        if leave[0] <= 0.0:
            # on the boundary of C u D and moving out, with no jump available
            plans[m] = TERMINAL_LEFT_SETS
            continue
        dt, box = leave if leave[0] < cap else (cap, None)
        if entry is not None and entry[0] <= dt:
            dt, box = entry
        if dt <= 0.0:
            # r is bitwise on the D boundary without exact membership; snap it on
            plans[m] = np.clip(g.r, *box)
        else:
            steps.append((q, m, dt, box, leave[1]))
    if not steps:
        return plans
    M = len(steps)
    if row is None:
        if M < len(flowing):
            R, K1 = R[[q for q, *_ in steps]], K1[[q for q, *_ in steps]]
        dts = [dt for _, _, dt, *_ in steps]
        dt = dts[0] if dts.count(dts[0]) == M else np.array(dts)[:, None]
        half = 0.5 * dt
        R2 = R + half * K1
        K2 = np.asarray(spec.w(R2), dtype=float)
        R3 = R + half * K2
        K3 = np.asarray(spec.w(R3), dtype=float)
        R4 = R + dt * K3
        K4 = np.asarray(spec.w(R4), dtype=float)
        R_next = R + (dt / 6.0) * (K1 + 2.0 * (K2 + K3) + K4)
        rows = np.concatenate((R, R2, R3, R4, R_next)).reshape(5, M, -1)
        nexts = R_next.tolist()
    else:
        # each stage's rows end to end: one flat list makes the array fastest
        R, R2, R3, R4, R_next, nexts = [], [], [], [], [], []
        for q, _, dt, *_ in steps:
            r, k1, half, d6 = flowing[q][1], k1s[q], 0.5 * dt, dt / 6.0
            r2 = [a + half * k for a, k in zip(r, k1)]
            k2 = row(r2)
            r3 = [a + half * k for a, k in zip(r, k2)]
            k3 = row(r3)
            r4 = [a + dt * k for a, k in zip(r, k3)]
            k4 = row(r4)
            r_next = [a + d6 * (b + 2.0 * (c + d) + e) for a, b, c, d, e in zip(r, k1, k2, k3, k4)]
            R += r
            R2 += r2
            R3 += r3
            R4 += r4
            R_next += r_next
            nexts.append(r_next)
        rows = np.array(R + R2 + R3 + R4 + R_next).reshape(5, M, -1)
    for q, ((_, m, dt, box, leave_box), r_vals) in enumerate(zip(steps, nexts)):
        # r_next is non-finite whenever a k is: every k enters it with a positive weight
        check(r_vals, asks[m][0])
        if box is None and not spec.flow_or_jump_set.contains(r_vals):
            box = leave_box  # a nonlinear w carried r past the exit _events predicted
        if box is not None:
            rows[4, q] = np.clip(rows[4, q], *box)
        plans[m] = (dt, rows[:, q:q + 1], rows[4, q:q + 1])
    return plans


def _events(r, w, spec: SystemSpec, cap: float):
    """Where the affine path r + s*w, s >= 0, leaves C u D and enters D.

    Each box of C u D (C's boxes first, D's boxes the tail) gives the closed
    interval of s during which the path lies in it, computed once.  Returns
    (leave, entry), each an (s, (lo, hi)) pair of a time and a box.  leave ends
    the merged run of intervals that contains s = 0, with the first box to
    reach that end; abutting boxes chain because shared faces give
    bitwise-equal endpoints.  It is None when r lies outside C u D.  entry is
    the earliest D-box start in [0, cap], ties going to the first box, or None
    when no D box is reached by cap.
    """
    cu = spec.flow_or_jump_set
    first_d = len(spec.C.lows)
    spans = []
    for k, (lo, hi) in enumerate(zip(cu.lows, cu.highs)):
        a, b = -math.inf, math.inf
        for rd, wd, lod, hid in zip(r, w, lo, hi):
            if wd != 0.0:
                s1, s2 = sorted(((lod - rd) / wd, (hid - rd) / wd))
                a, b = max(a, s1), min(b, s2)
            elif not lod <= rd <= hid:
                b = -math.inf
        # a box met only behind the path can neither hold r nor be entered
        if a <= b and b >= 0.0:
            spans.append((a, b, k, (lo, hi)))
    entry = min(((max(a, 0.0), box) for a, _, k, box in spans if k >= first_d and a <= cap),
                key=itemgetter(0), default=None)
    leave = None
    for a, b, _, box in sorted(spans):
        if a > (0.0 if leave is None else leave[0]):
            break
        if leave is None or b > leave[0]:
            leave = (b, box)
    return leave, entry


def _bitwise_groups(rows) -> list:
    """Indices of bitwise-equal rows, one list per distinct row, in first-seen order."""
    groups = {}
    for b, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(b)
    return list(groups.values())


def _store_segment(segments, paths, of, j, ts, xs, rs, taus):
    """Stack one finished flow segment of a group and give each path its share.

    xs holds blocks (k_i, U, n) of the group's distinct x rows, k_i samples
    each, path paths[b] being row of[b]; rs holds its aux row (1, p) per
    sample.  Every member's segment shares one read-only t, tau and (k, p) r
    array; x is a view of one (k, U, n) array, and members on one row share
    one segment object.
    """
    t_arr = np.asarray(ts, dtype=float)
    tau_arr = np.asarray(taus, dtype=float)
    x_arr = np.concatenate(xs, axis=0)  # (k, U, n)
    r_arr = np.concatenate(rs, axis=0)  # (k, p)
    for a in (t_arr, tau_arr, x_arr, r_arr):
        a.flags.writeable = False
    shared = [FlowSegment(j, t_arr, x_arr[:, u, :], r_arr, tau_arr)
              for u in range(x_arr.shape[1])]
    for i, u in zip(paths, of.tolist()):
        segments[i].append(shared[u])


def _draws(noises, seeds, paths, k: int) -> np.ndarray:
    """The jump inputs (B, m) of paths at jump index k, one JumpNoise.draws call
    per noise object among them (fig1's nominal path has its own)."""
    paths, parts = paths.tolist(), {}
    for b, i in enumerate(paths):
        parts.setdefault(id(noises[i]), []).append(b)
    V = np.empty((len(paths), noises[paths[0]].m))
    for rows in parts.values():
        V[rows] = noises[paths[rows[0]]].draws([seeds[paths[b]] for b in rows], k)
    return V


class _Group:
    """A lockstep group: paths (ascending), x (U, n) its distinct rows, of (B,) each
    path's row of x, aux row r (1, p), t, j, tau, its step's plan key and plan, and
    its segment's t, x, r, tau samples since (t0, tau0), x in (k, U, n) blocks."""

    __slots__ = ("paths", "x", "of", "r", "t", "j", "tau", "key", "plan", "t0", "tau0",
                 "samples")

    def __init__(self, paths, X, r, t, j, tau):
        # bitwise, not np.unique: that would merge 0.0 with -0.0, which a map may
        # tell apart; rows equal now stay equal for the whole flow
        rows = _bitwise_groups(X)
        x = X if len(rows) == len(X) else X[[u[0] for u in rows]]
        self.of = np.empty(len(X), dtype=np.intp)
        for u, members in enumerate(rows):
            self.of[members] = u
        self.paths, self.x, self.r, self.t, self.j, self.tau = paths, x, r, t, j, tau
        self.t0, self.tau0, self.samples = t, tau, ([t], [x[None]], [r], [tau])


#: most steps a lone group's chain takes into one call of f's fused run; it
#: bounds the chain's and the run's lists, which live only for that call (a
#: seed-1 recur on es.cfg took 0.091 s at 256 and 0.095 s at 1000, peaking
#: 0.8 MB higher; 2-vCPU Xeon)
_RUN_STEPS = 256

#: a key the plan memo does not hold, where None is a jump's plan
_UNPLANNED = object()


def _run_lone(spec, g, plans, seeds, dt_eff, t_max, inv_eps) -> int:
    """Step lone group g through its next flow steps in one call of f's fused run.

    The chain follows g's plans from its (r bits, step cap): memo hits, and
    each miss planned as a one-ask _plan_steps call and memoized.  It stops
    at the first plan that is not a flow step, at _RUN_STEPS steps, or before
    a step whose plan raises: the wave loop then plans that step again and
    raises, once the steps before it are stored.  The run stops before a
    step whose output is non-finite, which the wave loop then takes through
    _rk4 and its check, so every error and its message is the wave loop's.
    t and tau advance by the wave loop's rules.  Returns the steps taken,
    each stored as the wave loop stores it; 0 leaves g as it was.
    """
    r0, t0 = g.r, g.t
    r, t, tau = r0, t0, g.tau
    chain, taus, ts, tau_after = [], [], [], []
    while len(chain) < _RUN_STEPS:
        key = (r.tobytes(), min(dt_eff, t_max - t))
        plan = plans.get(key, _UNPLANNED)
        if plan is _UNPLANNED:
            g.r, g.t = r, t  # the ask's group, at this step
            try:
                (plan,) = _plan_steps(spec, [(g, key[1])], seeds)
            except Exception:  # raised again by the wave loop, after f's earlier steps
                break
            plans[key] = plan
        if type(plan) is not tuple:
            break
        chain.append(plan)
        taus.append(tau)
        dt, _, r = plan
        t = t_max if dt == t_max - t else t + dt
        tau = g.tau0 + (t - g.t0) * inv_eps
        ts.append(t)
        tau_after.append(tau)
    g.r, g.t = r0, t0
    out = chain and spec.f.step(g.x, [plan[1] for plan in chain], taus, spec.epsilon,
                                [plan[0] for plan in chain])
    if not out or not out[1]:
        return 0
    block, k = out
    t_s, xs, rs, tau_s = g.samples
    t_s += ts[:k]
    xs.append(block)
    rs += [plan[2] for plan in chain[:k]]
    tau_s += tau_after[:k]
    g.x, g.r, g.t, g.tau = block[-1], chain[k - 1][2], ts[k - 1], tau_after[k - 1]
    return k


def _simulate(spec: SystemSpec, starts, seeds, noises, horizon: Horizon,
              cfg: IntegratorConfig) -> list:
    """Simulate path i from starts[i] under seeds[i] and noises[i]; one HybridArc per path.

    Groups start from paths with bitwise-equal initial (r, tau); members share
    the read-only t, tau and r arrays of each segment, and members on one
    distinct x row share one segment object.  Each wave moves every live group
    one step: a flow step, a snap onto D, a jump, or the end of its paths.  A
    (tau, dt) cohort stacks its groups' distinct x rows into one RK4 step,
    each group's r stages repeated over its rows, with a scalar tau; a cohort
    of one group passes its one row of r stages as it is.  Every
    outcome comes from one plan memo keyed by (r's bits, step cap) and shared
    by all groups of the run; _plan_steps fills a wave's misses together.
    While one group is live and within the row limit of f's fused run, its
    next flow steps are one call of the run instead (_run_lone), with the
    samples, bits and errors of as many waves.

    Errors: the first wave in which a map returns a non-finite value raises
    MapEvaluationError.  Its checks follow the calls (w, then f, g and h), and
    the first that fails names the lowest failing path at that path's own t.
    A step too small to advance t (2 dt_eff <= ulp(t_max)) is a ValueError.
    """
    if any(s.n != spec.n or s.p != spec.p for s in starts):
        raise ValueError("initial state dimensions do not match the system")
    cu = spec.flow_or_jump_set
    inv_eps = 1.0 / spec.epsilon
    t_max = horizon.t_max
    dt_eff = _advancing_step(spec.epsilon, cfg, t_max)
    plans = {}
    # a lone group within the row limit of f's fused run chains its steps into
    # one call; 0 where f has no run
    limit = getattr(spec.f, "step_rows", 0)
    segments, jumps, terminals = [[] for _ in starts], [[] for _ in starts], [None] * len(starts)

    def end(g, terminal):
        _store_segment(segments, g.paths, g.of, g.j, *g.samples)
        for i in g.paths:
            terminals[i] = terminal

    live = []
    for rows in _bitwise_groups([np.append(s.r, s.tau) for s in starts]):
        first = starts[rows[0]]
        if not cu.contains(first.r):
            raise ValueError("dead initial condition: r(0) lies in neither C nor D "
                             f"(path {rows[0]}, seed {seeds[rows[0]]})")
        X = np.stack([starts[i].x for i in rows])
        live.append(_Group(np.array(rows), X, first.r[None, :], 0.0, 0, first.tau))

    while live:
        if len(live) == 1 and len(live[0].x) <= limit \
                and _run_lone(spec, live[0], plans, seeds, dt_eff, t_max, inv_eps):
            continue
        # the plan decides, in order: a jump, the horizon, leaving C u D, a snap
        # onto D, or a flow step clipped to the horizon, to entry into D and to
        # exit from C u D; live is sorted by lowest path, as an ask names it
        asks = {}
        for g in live:
            g.key = key = (g.r.tobytes(), min(dt_eff, t_max - g.t))
            if key not in plans and key not in asks:
                asks[key] = (g, key[1])
        if asks:
            plans.update(zip(asks, _plan_steps(spec, list(asks.values()), seeds)))

        cohorts, jumping, nxt = {}, [], []
        for g in live:
            g.plan = plan = plans[g.key]
            if type(plan) is tuple:
                # 0.0 == -0.0 as a key, but a map may tell them apart
                cohorts.setdefault((g.tau or str(g.tau), plan[0]), []).append(g)
                nxt.append(g)
            elif isinstance(plan, np.ndarray):
                g.r = plan  # snapped onto the D boundary without flowing; jumps next
                nxt.append(g)
            elif plan is None:
                jumping.append(g)
            else:
                end(g, plan)

        bad = []
        for members in cohorts.values():
            g = members[0]
            (dt, rows, _), X = g.plan, g.x
            if len(members) > 1:
                X = np.concatenate([g.x for g in members])
                rows = np.concatenate([g.plan[1] for g in members], axis=1)
                if len(X) > len(members):
                    rows = rows.repeat([len(g.x) for g in members], axis=1)
            # the r stages were checked when the plan was made, and maps are pure
            X2, finite = _rk4(spec, X, rows, g.tau, dt)
            o = 0
            for g in members:
                if len(members) == 1:
                    # one group keeps X2 itself: the samples would keep a view per step
                    block = X2
                    X2.shape = (1, *X2.shape)
                else:
                    block = X2[None, o:o + len(g.x)]
                    o += len(g.x)
                x = block[0]
                if not finite:
                    bad.append((x[g.of], g.paths, f"t={g.t}"))
                g.t = t_max if dt == t_max - g.t else g.t + dt
                g.tau = g.tau0 + (g.t - g.t0) * inv_eps
                g.x, g.r = x, g.plan[2]
                ts, xs, rs, taus = g.samples
                ts.append(g.t)
                xs.append(block)
                rs.append(g.r)
                taus.append(g.tau)
        if bad:
            _check_finite("f", bad, seeds)

        if jumping:  # jump priority: fire immediately, draw keyed by jump index
            fired = []
            for g in jumping:
                k, B = g.j + 1, len(g.paths)
                # draws are per path, so the pre-jump rows are too
                X = g.x[g.of]
                V = _draws(noises, seeds, g.paths, k)
                R = np.repeat(g.r, B, axis=0)
                Xp = np.broadcast_to(np.asarray(spec.g(X, R, V), dtype=float), (B, spec.n))
                Rp = np.broadcast_to(np.asarray(spec.h(R, V), dtype=float), (B, spec.p))
                fired.append((g, k, X, V, Xp, Rp, f"jump {k} at t={g.t}"))
            _check_finite("g", [(Xp, g.paths, where) for g, _, _, _, Xp, _, where in fired],
                          seeds)
            _check_finite("h", [(Rp, g.paths, where) for g, _, _, _, _, Rp, where in fired],
                          seeds)
            for g, k, X, V, Xp, Rp, _ in fired:
                end(g, None)
                ht = HybridTime(g.t, g.j)
                for b, i in enumerate(g.paths):
                    jumps[i].append(JumpRecord(ht, X[b].copy(), g.r[0].copy(), g.tau,
                                               V[b].copy(), Xp[b].copy(), Rp[b].copy()))
                for rows in _bitwise_groups(Rp):
                    sub = _Group(g.paths[rows], Xp[rows], Rp[rows[:1]], g.t, k, g.tau)
                    # a dead post-jump state ends these paths on a one-sample segment
                    if not cu.contains(sub.r[0]):
                        end(sub, TERMINAL_LEFT_SETS)
                    elif k >= horizon.j_max:
                        end(sub, TERMINAL_HORIZON_J)
                    else:
                        nxt.append(sub)
        live = sorted(nxt, key=lambda g: g.paths[0]) if jumping else nxt

    return [HybridArc(tuple(segments[i]), tuple(jumps[i]), seeds[i], terminals[i])
            for i in range(len(starts))]


def simulate_path(spec: SystemSpec, init: StateVec, seed: int, horizon: Horizon,
                  cfg: IntegratorConfig | None = None) -> HybridArc:
    """Simulate one random solution from init under the given seed."""
    return _simulate(spec, [init], [int(seed)], [spec.noise], horizon,
                     cfg or IntegratorConfig())[0]


def simulate_ensemble(spec: SystemSpec, inits, n_paths: int, seed_base: int,
                      horizon: Horizon, cfg: IntegratorConfig | None = None, *,
                      noises=None):
    """Simulate n_paths solutions with seeds seed_base .. seed_base + n_paths - 1.

    Initial conditions are cycled from ``inits``.  ``noises`` gives path i its
    own jump noise noises[i], one per path with spec's m; by default every
    path draws from spec.noise.  Paths with equal auxiliary states run in
    lockstep groups, which split when jumps separate them; a group steps one
    x row per bitwise-distinct state, each wave steps every group once,
    groups whose step shares (tau, dt) share one RK4 step, and maps see a
    scalar tau.  Path i is bit-identical to simulate_path run alone on
    replace(spec, noise=noises[i]), which assumes the maps are elementwise and
    pure.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    inits = list(inits)
    if not inits:
        raise ValueError("need at least one initial condition")
    noises = [spec.noise] * n_paths if noises is None else list(noises)
    if len(noises) != n_paths:
        i = min(len(noises), n_paths)
        raise ValueError(f"need one noise per path, got {len(noises)} for {n_paths} paths: "
                         + (f"path {i} (seed {int(seed_base) + i}) has none"
                            if i < n_paths else f"noise {i} has no path"))
    for i, noise in enumerate(noises):
        if noise.m != spec.m:
            raise ValueError(f"noise of path {i} (seed {int(seed_base) + i}) draws "
                             f"v in R^{noise.m}, but the system's jumps take m = {spec.m}")
    chosen = [inits[i % len(inits)] for i in range(n_paths)]
    seeds = [int(seed_base) + i for i in range(n_paths)]
    return _simulate(spec, chosen, seeds, noises, horizon, cfg or IntegratorConfig())
