"""Execution of random hybrid solutions.

Flows are integrated with a fixed-step classical 4th-order scheme while r is
in C.  _events is the one place where events are located: one scan of the
intervals of s during which the affine r + s*w(r) lies in each box of C u D
gives both the exit from the run of boxes holding r and the entry into D, so
the step is clipped to land exactly on that boundary.  Jumps then fire with
jump priority and a noise draw keyed by (seed, jump index).  The clock tau is
never integrated numerically: within each flow segment it is reconstructed
as tau_anchor + (t - t_anchor)/epsilon, which is exact up to a few ulps.

Paths that share an auxiliary state are advanced in lockstep as one batched
state array, which is bit-identical to running each path alone because every
map operation is elementwise across the batch.  A group starts from paths
with bitwise-equal initial (r, tau) and splits at a jump into sub-groups of
bitwise-equal post-jump r; a single path is a group of one.

The auxiliary state flows by w(r) alone and C, D constrain r alone, so every
step outcome (a jump, the horizon, leaving C u D, a snap onto D, or a flow
step with its clipped dt, the r stages of RK4 and the next r) depends only on
r's bits and the step cap.  A group therefore carries r as one row, each
outcome is planned once per distinct (r, cap) and memoized for the run, and
each lockstep step then integrates x only.  This relies on maps being pure: a
map must return the same bits for the same arguments every time it is called.
"""

from __future__ import annotations

import math
from collections import deque
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


def _check_finite(rows: np.ndarray, map_name: str, context: str, paths, seeds):
    """Raise MapEvaluationError naming the first path whose row is non-finite.

    rows holds one row per member of the group whose ensemble indices are
    ``paths``; a single row shared by the whole group names its lowest path.
    """
    if not np.isfinite(rows).all():
        ok = np.all(np.isfinite(np.atleast_2d(rows)), axis=-1)
        i = int(paths[np.argmin(ok)])
        raise MapEvaluationError(
            f"map '{map_name}' returned a non-finite value ({context}; path {i}, seed {seeds[i]})"
        )


def _rk4(spec: SystemSpec, x, r_stages, tau: float, dt: float):
    """One classical 4th-order step of x under f, given the four r stages; tau analytic."""
    f, eps = spec.f, spec.epsilon
    r1, r2, r3, r4 = r_stages
    half = 0.5 * dt
    tau_h = tau + half / eps
    tau_f = tau + dt / eps
    k1 = np.asarray(f(x, r1, tau, eps), dtype=float)
    k2 = np.asarray(f(x + half * k1, r2, tau_h, eps), dtype=float)
    k3 = np.asarray(f(x + half * k2, r3, tau_h, eps), dtype=float)
    k4 = np.asarray(f(x + dt * k3, r4, tau_f, eps), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _plan_step(spec: SystemSpec, r, cap: float, context: str, paths, seeds):
    """Outcome of one step of a group whose aux row is r (1, p), step capped at cap.

    Returns (dt, rows).  For a flow step, rows stacks r + dt/2 k1, r + dt/2 k2,
    r + dt k3 and the next r (snapped onto its box when an event clipped the
    step) as one (4, p) array.  dt is None when no flow is possible: rows is
    then r snapped onto the D boundary it lies on, or the segment's end: None
    for a jump, else its terminal reason.  _events locates every event; the
    plan applies them in order: a jump, the horizon, leaving C u D, then the
    step clipped to exit from C u D and to entry into D, entry winning a tie.
    """
    r_vals = r[0].tolist()
    # jump priority first: jumps consume no flow time, so one firing at
    # exactly t = t_max still belongs to the truncated domain
    if spec.D.contains(r_vals):
        return None, None
    if cap <= 0.0:
        return None, TERMINAL_HORIZON_T
    if not spec.C.contains(r_vals):
        return None, TERMINAL_LEFT_SETS
    w = spec.w
    k1 = np.asarray(w(r), dtype=float)
    _check_finite(k1, "w", context, paths, seeds)
    leave, entry = _events(r_vals, k1.ravel().tolist(), spec, cap)
    if leave[0] <= 0.0:
        # on the boundary of C u D and moving out, with no jump available
        return None, TERMINAL_LEFT_SETS
    dt, box = leave if leave[0] < cap else (cap, None)
    if entry is not None and entry[0] <= dt:
        dt, box = entry
    if dt <= 0.0:
        # r is bitwise on the D boundary without exact membership; snap it on
        return None, np.clip(r, *box)
    half = 0.5 * dt
    r2 = r + half * k1
    k2 = np.asarray(w(r2), dtype=float)
    r3 = r + half * k2
    k3 = np.asarray(w(r3), dtype=float)
    r4 = r + dt * k3
    k4 = np.asarray(w(r4), dtype=float)
    r_next = r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    # k2, k3 and k4 enter r_next with positive weights, so r_next is non-finite
    # whenever one of them is
    _check_finite(r_next, "w", context, paths, seeds)
    if box is not None:
        r_next = np.clip(r_next, *box)
    return dt, np.concatenate((r2, r3, r4, r_next))


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


def _spread(row, ones):
    """The aux row (1, p) as a (B, p) map argument; exact, since row * 1.0 == row."""
    return row if ones is None else row * ones


def _bitwise_groups(rows) -> list:
    """Indices of bitwise-equal rows, one list per distinct row, in first-seen order."""
    groups = {}
    for b, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(b)
    return list(groups.values())


def _store_segment(segments, paths, j, ts, xs, rs, taus):
    """Stack one finished flow segment of a group and give each path its share.

    rs holds the group's aux row (1, p) per sample.  Every member's segment
    shares one read-only t, tau and (k, p) r array; x is a view of one (k, B, n)
    stack.
    """
    t_arr = np.asarray(ts, dtype=float)
    tau_arr = np.asarray(taus, dtype=float)
    x_arr = np.stack(xs, axis=0)  # (k, B, n)
    r_arr = np.concatenate(rs, axis=0)  # (k, p)
    for a in (t_arr, tau_arr, x_arr, r_arr):
        a.flags.writeable = False
    for b, i in enumerate(paths):
        segments[i].append(FlowSegment(j, t_arr, x_arr[:, b, :], r_arr, tau_arr))


def _simulate(spec: SystemSpec, starts, seeds, horizon: Horizon,
              cfg: IntegratorConfig) -> list:
    """Simulate path i from starts[i] under seeds[i]; returns one HybridArc per path.

    Paths advance in lockstep groups whose auxiliary rows are bitwise equal,
    so a group carries its aux state as one row r (1, p) next to its x block
    (B, n), spreads r to (B, p) only to call a map, and its members share the
    read-only t, tau and r arrays of each segment.  One work item advances one
    group through one flow segment.  At the jump that ends the segment the
    group splits into sub-groups of equal post-jump r, which join the back of
    a FIFO worklist rather than a recursion, because a B-path group may split
    B - 1 times.  Groups start in order of their lowest path index; a failing
    map names the lowest failing path of its group.

    Every step outcome comes from one plan memo shared by all groups of the
    run: _plan_step keyed by (r's bits, step cap).  A step whose plan is known
    costs four f calls and the x arithmetic of RK4.
    """
    for s in starts:
        if s.n != spec.n or s.p != spec.p:
            raise ValueError("initial state dimensions do not match the system")
    cu = spec.flow_or_jump_set
    inv_eps = 1.0 / spec.epsilon
    dt_eff = cfg.effective_step(spec.epsilon)
    plans = {}
    segments = [[] for _ in starts]
    jumps = [[] for _ in starts]
    terminals = [None] * len(starts)
    work = deque()
    for rows in _bitwise_groups([np.append(s.r, s.tau) for s in starts]):
        first = starts[rows[0]]
        if not cu.contains(first.r):
            raise ValueError("dead initial condition: r(0) lies in neither C nor D "
                             f"(path {rows[0]}, seed {seeds[rows[0]]})")
        X = np.stack([starts[i].x for i in rows])
        work.append((np.array(rows), X, first.r[None, :], 0.0, 0, first.tau))

    while work:
        paths, X, r, t, j, tau_now = work.popleft()
        ones = np.ones((len(paths), 1)) if len(paths) > 1 else None
        t_anchor, tau_anchor = t, tau_now
        cur_t, cur_x, cur_r, cur_tau = [t], [X], [r], [tau_now]
        while True:
            if j >= horizon.j_max:
                terminal = TERMINAL_HORIZON_J
                break

            # the plan decides, in order: a jump, the horizon, leaving C u D,
            # a snap onto D, or a flow step clipped to the horizon, to entry
            # into D and to exit from C u D
            remain = horizon.t_max - t
            cap = min(dt_eff, remain)
            key = (r.tobytes(), cap)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan_step(spec, r, cap, f"t={t}", paths, seeds)
            dt, rows = plan
            if dt is None:
                if not isinstance(rows, np.ndarray):
                    terminal = rows  # a terminal reason, or None: a jump
                    break
                # snapped onto the D boundary without flowing; jumps next
                r = rows
                continue

            stages = [_spread(row, ones) for row in (r, rows[0:1], rows[1:2], rows[2:3])]
            X2 = _rk4(spec, X, stages, tau_now, dt)
            # the r stages were checked when the plan was made, and maps are pure
            _check_finite(X2, "f", f"t={t}", paths, seeds)
            t = horizon.t_max if dt == remain else t + dt
            tau_now = tau_anchor + (t - t_anchor) * inv_eps
            X, r = X2, rows[3:4]
            cur_t.append(t)
            cur_x.append(X)
            cur_r.append(r)
            cur_tau.append(tau_now)

        _store_segment(segments, paths, j, cur_t, cur_x, cur_r, cur_tau)
        if terminal is not None:
            for i in paths:
                terminals[i] = terminal
            continue

        # jump priority: fire immediately, draw keyed by jump index
        k = j + 1
        B = len(paths)
        V = np.stack([spec.noise.draw(seeds[i], k) for i in paths])
        R = _spread(r, ones)
        Xp = np.asarray(spec.g(X, R, V), dtype=float)
        Rp = np.asarray(spec.h(R, V), dtype=float)
        Xp = np.broadcast_to(Xp, (B, spec.n)).astype(float, copy=True)
        Rp = np.broadcast_to(Rp, (B, spec.p)).astype(float, copy=True)
        _check_finite(Xp, "g", f"jump {k} at t={t}", paths, seeds)
        _check_finite(Rp, "h", f"jump {k} at t={t}", paths, seeds)
        ht = HybridTime(t, j)
        for b, i in enumerate(paths):
            jumps[i].append(JumpRecord(ht, X[b].copy(), r[0].copy(), tau_now, V[b].copy(),
                                       Xp[b].copy(), Rp[b].copy()))
        for rows in _bitwise_groups(Rp):
            sub = paths[rows]
            row = Rp[rows[:1]]
            if cu.contains(row[0]):
                work.append((sub, Xp[rows], row, t, k, tau_now))
                continue
            # a dead post-jump state ends these paths on a one-sample segment
            _store_segment(segments, sub, k, [t], [Xp[rows]], [row], [tau_now])
            for i in sub:
                terminals[i] = TERMINAL_LEFT_SETS

    return [HybridArc(tuple(segments[i]), tuple(jumps[i]), seeds[i], terminals[i])
            for i in range(len(starts))]


def simulate_path(spec: SystemSpec, init: StateVec, seed: int, horizon: Horizon,
                  cfg: IntegratorConfig | None = None) -> HybridArc:
    """Simulate one random solution from init under the given seed."""
    return _simulate(spec, [init], [int(seed)], horizon, cfg or IntegratorConfig())[0]


def simulate_ensemble(spec: SystemSpec, inits, n_paths: int, seed_base: int,
                      horizon: Horizon, cfg: IntegratorConfig | None = None):
    """Simulate n_paths solutions with seeds seed_base .. seed_base + n_paths - 1.

    Initial conditions are cycled from ``inits``.  Paths that share an
    auxiliary state run in lockstep as one group, and a group splits when
    jumps send its paths to different auxiliary states; the members of one
    group share their read-only t, tau and r arrays in each segment.  Every
    step outcome comes from one plan memo, filled once per distinct (r, step
    cap) and shared by every group of the run, which assumes the maps are
    pure.  Path i is bit-identical to simulate_path run alone.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    inits = list(inits)
    if not inits:
        raise ValueError("need at least one initial condition")
    chosen = [inits[i % len(inits)] for i in range(n_paths)]
    seeds = [int(seed_base) + i for i in range(n_paths)]
    return _simulate(spec, chosen, seeds, horizon, cfg or IntegratorConfig())
