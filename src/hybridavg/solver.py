"""Execution of random hybrid solutions.

Flows are integrated with a fixed-step classical 4th-order scheme while r is
in C; entry of the (affine) auxiliary state into D is located exactly and the
step is clipped to land on the boundary; jumps then fire with jump priority
and a noise draw keyed by (seed, jump index).  The clock tau is never
integrated numerically: within each flow segment it is reconstructed as
tau_anchor + (t - t_anchor)/epsilon, which is exact up to a few ulps.

Paths that share an auxiliary state are advanced in lockstep as one batched
state array, which is bit-identical to running each path alone because every
map operation is elementwise across the batch.  A group starts from paths
with bitwise-equal initial (r, tau) and splits at a jump into sub-groups of
bitwise-equal post-jump r; a single path is a group of one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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
    if not np.all(np.isfinite(rows)):
        ok = np.all(np.isfinite(np.atleast_2d(rows)), axis=-1)
        i = int(paths[np.argmin(ok)])
        raise MapEvaluationError(
            f"map '{map_name}' returned a non-finite value ({context}; path {i}, seed {seeds[i]})"
        )


def _rk4(spec: SystemSpec, x, r, tau: float, dt: float):
    """One classical 4th-order step of (f, w); tau handled analytically."""
    f, w, eps = spec.f, spec.w, spec.epsilon
    half = 0.5 * dt
    tau_h = tau + half / eps
    tau_f = tau + dt / eps
    k1x = np.asarray(f(x, r, tau, eps), dtype=float)
    k1r = np.asarray(w(r), dtype=float)
    k2x = np.asarray(f(x + half * k1x, r + half * k1r, tau_h, eps), dtype=float)
    k2r = np.asarray(w(r + half * k1r), dtype=float)
    k3x = np.asarray(f(x + half * k2x, r + half * k2r, tau_h, eps), dtype=float)
    k3r = np.asarray(w(r + half * k2r), dtype=float)
    k4x = np.asarray(f(x + dt * k3x, r + dt * k3r, tau_f, eps), dtype=float)
    k4r = np.asarray(w(r + dt * k3r), dtype=float)
    x2 = x + (dt / 6.0) * (k1x + 2.0 * (k2x + k3x) + k4x)
    r2 = r + (dt / 6.0) * (k1r + 2.0 * (k2r + k3r) + k4r)
    return x2, r2


def _probe_nonfinite(spec: SystemSpec, x, r, tau: float):
    """Name the map responsible for a non-finite step result (best effort)."""
    fx = np.asarray(spec.f(x, r, tau, spec.epsilon), dtype=float)
    if not np.all(np.isfinite(fx)):
        return "f"
    wr = np.asarray(spec.w(r), dtype=float)
    if not np.all(np.isfinite(wr)):
        return "w"
    return "f"  # overflowed mid-stage


def _entry_interval(r: np.ndarray, w: np.ndarray, lo, hi):
    """Time interval [a, b] during which r + s*w stays inside one box.

    Returns None when the affine path never visits the box.
    """
    a, b = -np.inf, np.inf
    for rd, wd, lod, hid in zip(r, w, lo, hi):
        if wd == 0.0:
            if rd < lod or rd > hid:
                return None
            continue
        s1 = (lod - rd) / wd
        s2 = (hid - rd) / wd
        if s1 > s2:
            s1, s2 = s2, s1
        a = max(a, s1)
        b = min(b, s2)
        if a > b:
            return None
    return a, b


def _entry_time(r: np.ndarray, w: np.ndarray, target, dt: float):
    best = None
    for lo, hi in zip(target.lows, target.highs):
        iv = _entry_interval(r, w, lo, hi)
        if iv is None:
            continue
        a, b = iv
        if b < 0.0 or a > dt:
            continue
        cand = max(a, 0.0)
        if best is None or cand < best[0]:
            best = (cand, lo, hi)
    return best


def _exit_time(r: np.ndarray, w: np.ndarray, region) -> tuple:
    """Time at which r + s*w leaves the union region, with the last box hit.

    The union exit is the right end of the merged membership interval
    containing s = 0; abutting boxes chain exactly because shared faces
    produce bitwise-equal interval endpoints.
    """
    intervals = []
    for lo, hi in zip(region.lows, region.highs):
        iv = _entry_interval(r, w, lo, hi)
        if iv is not None:
            intervals.append((iv[0], iv[1], lo, hi))
    intervals.sort(key=lambda q: (q[0], q[1]))
    end = None
    box = None
    for a, b, lo, hi in intervals:
        if a <= 0.0 and end is None:
            end, box = b, (lo, hi)
        elif end is not None and a <= end and b > end:
            end, box = b, (lo, hi)
    return end, box


def _snap_into_box(rows: np.ndarray, lo, hi) -> np.ndarray:
    return np.clip(rows, np.asarray(lo), np.asarray(hi))


def _bitwise_groups(rows) -> list:
    """Indices of bitwise-equal rows, one list per distinct row, in first-seen order."""
    groups = {}
    for b, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(b)
    return list(groups.values())


def _store_segment(segments, paths, j, ts, xs, rs, taus):
    """Stack one finished flow segment of a group and give each path its view."""
    t_arr = np.asarray(ts, dtype=float)
    tau_arr = np.asarray(taus, dtype=float)
    x_arr = np.stack(xs, axis=0)  # (k, B, n)
    r_arr = np.stack(rs, axis=0)  # (k, B, p)
    for a in (t_arr, tau_arr, x_arr, r_arr):
        a.flags.writeable = False
    for b, i in enumerate(paths):
        segments[i].append(FlowSegment(j, t_arr, x_arr[:, b, :], r_arr[:, b, :], tau_arr))


def _simulate(spec: SystemSpec, starts, seeds, horizon: Horizon,
              cfg: IntegratorConfig) -> list:
    """Simulate path i from starts[i] under seeds[i]; returns one HybridArc per path.

    Paths advance in lockstep groups whose auxiliary rows are bitwise equal,
    so the event logic runs once per group on its first row.  One work item
    advances one group through one flow segment.  At the jump that ends the
    segment the group splits into sub-groups of equal post-jump r, which join
    the back of a FIFO worklist rather than a recursion, because a B-path
    group may split B - 1 times.  Groups start in order of their lowest path
    index; a failing map names the lowest failing path of its group.
    """
    for s in starts:
        if s.n != spec.n or s.p != spec.p:
            raise ValueError("initial state dimensions do not match the system")
    cu = spec.flow_or_jump_set
    inv_eps = 1.0 / spec.epsilon
    dt_eff = cfg.effective_step(spec.epsilon)
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
        R = np.tile(first.r, (len(rows), 1))
        work.append((np.array(rows), X, R, 0.0, 0, first.tau))

    while work:
        paths, X, R, t, j, tau_now = work.popleft()
        rrow = R[0].copy()
        t_anchor, tau_anchor = t, tau_now
        cur_t, cur_x, cur_r, cur_tau = [t], [X], [R], [tau_now]
        terminal = None
        while True:
            if j >= horizon.j_max:
                terminal = TERMINAL_HORIZON_J
                break

            # jump priority first: jumps consume no flow time, so one firing at
            # exactly t = t_max still belongs to the truncated domain
            if spec.D.contains(rrow):
                break

            if t >= horizon.t_max:
                terminal = TERMINAL_HORIZON_T
                break

            if not spec.C.contains(rrow):
                terminal = TERMINAL_LEFT_SETS
                break

            # flow: clip the step to the horizon, to entry into D, and to exit from C u D
            remain = horizon.t_max - t
            dt = min(dt_eff, remain)
            wrow = np.asarray(spec.w(rrow[None, :]), dtype=float).ravel()
            _check_finite(wrow, "w", f"t={t}", paths, seeds)
            snap_box = None
            entry = _entry_time(rrow, wrow, spec.D, dt)
            exit_end, exit_box = _exit_time(rrow, wrow, cu)
            if exit_end is not None and exit_end <= 0.0:
                # on the boundary of C u D and moving out, with no jump available
                terminal = TERMINAL_LEFT_SETS
                break
            if exit_end is not None and exit_end < dt:
                dt = exit_end
                snap_box = exit_box
            if entry is not None and entry[0] <= dt:
                dt = entry[0]
                snap_box = (entry[1], entry[2])
            if dt <= 0.0:
                # r is bitwise on the D boundary without exact membership; snap it on
                if snap_box is not None:
                    R = _snap_into_box(R, snap_box[0], snap_box[1])
                    rrow = R[0].copy()
                    continue
                terminal = TERMINAL_LEFT_SETS
                break

            X2, R2 = _rk4(spec, X, R, tau_now, dt)
            if not np.all(np.isfinite(X2)):
                name = _probe_nonfinite(spec, X, R, tau_now)
                _check_finite(X2, name, f"t={t}", paths, seeds)
            if snap_box is not None:
                R2 = _snap_into_box(R2, snap_box[0], snap_box[1])
            t = horizon.t_max if dt == remain else t + dt
            tau_now = tau_anchor + (t - t_anchor) * inv_eps
            X, R, rrow = X2, R2, R2[0].copy()
            cur_t.append(t)
            cur_x.append(X)
            cur_r.append(R)
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
        Xp = np.asarray(spec.g(X, R, V), dtype=float)
        Rp = np.asarray(spec.h(R, V), dtype=float)
        Xp = np.broadcast_to(Xp, (B, spec.n)).astype(float, copy=True)
        Rp = np.broadcast_to(Rp, (B, spec.p)).astype(float, copy=True)
        _check_finite(Xp, "g", f"jump {k} at t={t}", paths, seeds)
        _check_finite(Rp, "h", f"jump {k} at t={t}", paths, seeds)
        ht = HybridTime(t, j)
        for b, i in enumerate(paths):
            jumps[i].append(JumpRecord(ht, X[b].copy(), R[b].copy(), tau_now, V[b].copy(),
                                       Xp[b].copy(), Rp[b].copy()))
        for rows in _bitwise_groups(Rp):
            sub = paths[rows]
            if cu.contains(Rp[rows[0]]):
                work.append((sub, Xp[rows], Rp[rows], t, k, tau_now))
                continue
            # a dead post-jump state ends these paths on a one-sample segment
            _store_segment(segments, sub, k, [t], [Xp[rows]], [Rp[rows]], [tau_now])
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
    jumps send its paths to different auxiliary states.  Path i is
    bit-identical to simulate_path run alone.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    inits = list(inits)
    if not inits:
        raise ValueError("need at least one initial condition")
    chosen = [inits[i % len(inits)] for i in range(n_paths)]
    seeds = [int(seed_base) + i for i in range(n_paths)]
    return _simulate(spec, chosen, seeds, horizon, cfg or IntegratorConfig())
