"""Ensemble statistics: hitting times, recurrence certification, mean-envelope fits.

These operations post-process immutable ensembles of arcs.  Hitting-time
queries are served from each segment's running minimum distance to the
target set, cached on the segment the first time a query's scan reaches
it, so repeated queries at shrinking radii (bisection) never recompute a
distance, and arcs that share a segment object (lockstep members on one x
row) share its distances and its answer.  The recurrence budget tau_hat is
the (1 - rho) order-statistic of hitting t + j sums; the exponential-in-the-mean
fit anchors the envelope at the initial distance and finds the largest rate
that keeps the weighted means below it at every evaluation time (a
necessary-condition check on a deterministic grid, not a bound over all
stopping times).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    HybridArc,
    HybridTime,
    SystemSpec,
    TERMINAL_LEFT_SETS,
    distances_to_target,
    hybrid_time_sum,
)
from .solver import Horizon, IntegratorConfig, simulate_ensemble

_WILSON_Z = 1.96  # 95% binomial interval
#: envelope fit: k2 is searched in [-cap, cap] and bisected to this width
_K2_CAP = 50.0
_K2_TOL = 1e-9
#: epsilon_sweep bisects a radius to max(abs, rel * radius)
_RADIUS_REL_TOL = 0.01
_RADIUS_ABS_TOL = 1e-4

#: attribute of a FlowSegment holding its hitting runs, keyed by C u D; not a
#: dataclass field, so the segment's equality and repr never see it
_INDEX_ATTR = "_hitting_runs"


def _check_positive(name: str, value: float):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _segment_run(seg, spec: SystemSpec) -> tuple:
    """(low, neg_run): a FlowSegment's minimum distance to spec's target set and
    the negated running minimum of its distances, cached on it by spec's C u D."""
    runs = seg.__dict__.setdefault(_INDEX_ATTR, {})
    run = runs.get(spec.flow_or_jump_set)
    if run is None:
        # fmin skips NaN distances, which then never lower the minimum
        d = distances_to_target(seg.x, seg.r, spec)
        neg_run = -np.fmin.accumulate(np.concatenate(([math.inf], d)))[1:]
        run = runs[spec.flow_or_jump_set] = (-float(neg_run[-1]), neg_run)
    return run


def _first_hits(arcs: list, radius: float, spec: SystemSpec) -> list:
    """Per arc, the first hybrid time at distance < radius from the target set, or None.

    The hit is in the arc's first segment whose minimum is < radius, found by
    one searchsorted, so a query reads no further than a plain scan stopping
    at the hit.  A distinct segment is answered once per call for every arc
    holding it; arcs keeps every segment alive, so no id is reused.
    """
    answers, hits = {}, []  # answers: id(segment) -> its first hit, or None
    for arc in arcs:
        ht = None
        for seg in arc.segments:
            if id(seg) not in answers:
                low, neg_run = _segment_run(seg, spec)
                answers[id(seg)] = None
                if low < radius:
                    k = int(np.searchsorted(neg_run, -radius, side="right"))
                    answers[id(seg)] = HybridTime(float(seg.t[k]), int(seg.j))
            ht = answers[id(seg)]
            if ht is not None:
                break
        hits.append(ht)
    return hits


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion (small-sample-safe)."""
    z = _WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class RecurrenceReport:
    """Empirical recurrence certificate for one inflated target ball."""

    target_radius: float
    rho: float
    R: float
    tau_hat: Optional[float]
    hit_fraction: float
    wilson_low: float
    wilson_high: float
    hitting_times: tuple  # per path: HybridTime or None
    stopped_before_budget: int
    n_paths: int

    @property
    def certified(self) -> bool:
        return self.hit_fraction >= 1.0 - self.rho


def first_start_outside(x0, r0, R: float) -> Optional[tuple]:
    """(index, |z(0,0)|) of the first start (x0 (K, n), r0 (K, p) rows) outside the R-ball.

    A start is inside when |z(0,0)| <= R * (1 + 1e-12); a NaN norm is outside.
    """
    x0, r0 = np.asarray(x0, dtype=float), np.asarray(r0, dtype=float)
    z0 = np.sqrt(np.sum(x0 * x0, axis=-1) + np.sum(r0 * r0, axis=-1))
    outside = np.flatnonzero(~(z0 <= R * (1.0 + 1e-12)))
    return (int(outside[0]), float(z0[outside[0]])) if outside.size else None


def recurrence_estimate(ensemble: Sequence[HybridArc], radius: float, rho: float,
                        R: float, spec: SystemSpec) -> RecurrenceReport:
    """Certify recurrence of the open radius-ball around the target set.

    A path counts as a success when it hits the ball within its simulated
    domain, or when it stops (leaves the flow and jump sets) before the
    certified budget tau_hat.  tau_hat is the (1 - rho) order statistic of
    hitting t + j values among hitting paths and is only reported when the
    success fraction reaches 1 - rho.  Hitting times come from running minima
    cached on each distinct segment, so a bisection over radii reads every
    distance once.
    """
    arcs = list(ensemble)
    if len(arcs) < 30:
        raise ValueError(f"ensemble too small for recurrence estimation ({len(arcs)} < 30)")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    _check_positive("radius", radius)
    _check_positive("R", R)
    # lockstep members share segment objects: read each distinct first one once
    firsts = {id(arc.segments[0]): arc.segments[0] for arc in arcs}.values()
    outside = first_start_outside([s.x[0] for s in firsts], [s.r[0] for s in firsts], R)
    if outside is not None:
        raise ValueError(f"initial condition with |z(0,0)| = {outside[1]} "
                         f"lies outside R = {R}")

    hits = _first_hits(arcs, radius, spec)
    hit_sums = sorted(hybrid_time_sum(ht) for ht in hits if ht is not None)
    tau_hat = None
    if hit_sums:
        tau_hat = float(hit_sums[math.ceil((1.0 - rho) * len(hit_sums)) - 1])

    stopped = 0
    successes = 0
    for arc, ht in zip(arcs, hits):
        if ht is not None:
            successes += 1
        elif (arc.terminal_reason == TERMINAL_LEFT_SETS and tau_hat is not None
              and hybrid_time_sum(arc.end_time) < tau_hat):
            stopped += 1
            successes += 1
    frac = successes / len(arcs)
    lo, hi = wilson_interval(successes, len(arcs))
    if frac < 1.0 - rho:
        tau_hat = None
    return RecurrenceReport(radius, rho, R, tau_hat, frac, lo, hi,
                            tuple(hits), stopped, len(arcs))


@dataclass(frozen=True)
class EnvelopeFit:
    """Exponential-in-the-mean envelope: mean[d * e^(k2*(t+j))] <= k1 * d0."""

    k1: float
    k2: float
    eval_times: np.ndarray
    empirical_means: np.ndarray
    weighted_means: np.ndarray  # at the fitted k2
    std_errors: np.ndarray
    initial_distance: float
    n_paths: int

    def envelope_satisfied(self, slack_sigmas: float = 0.0) -> bool:
        bound = self.k1 * self.initial_distance + slack_sigmas * self.std_errors
        return bool(np.all(self.weighted_means <= bound + 1e-12))


def _last_samples(arc: HybridArc, t_eval: np.ndarray):
    """Rows x and r at the first sample and at each t_eval; t + j at each t_eval.

    The sample at t_eval is the last one with t <= t_eval, or the first sample
    when there is none.  On a jump instant it is the post-jump sample, which
    comes later in the concatenated, nondecreasing sample times.
    """
    segs = arc.segments
    t = np.concatenate([s.t for s in segs])
    j = np.repeat([s.j for s in segs], [s.t.shape[0] for s in segs])
    idx = np.concatenate(([0], np.maximum(np.searchsorted(t, t_eval, side="right") - 1, 0)))
    x = np.concatenate([s.x for s in segs])[idx]
    r = np.concatenate([s.r for s in segs])[idx]
    return x, r, t[idx[1:]] + j[idx[1:]]


def uges_m_fit(ensemble: Sequence[HybridArc], eval_times, spec: SystemSpec) -> EnvelopeFit:
    """Fit the largest decay rate k2 keeping the weighted means anchored at t = 0.

    For each evaluation time the statistic is mean_i[d_i * e^(k2*(t+j_i))]
    at the last sample with t <= the evaluation time; the fitted k2 is the
    largest rate for which the maximum over the grid is still attained at the
    first evaluation point, so k1 comes out ~1.  Paths with zero initial
    distance are excluded with a warning.
    """
    arcs = list(ensemble)
    t_eval = np.asarray(eval_times, dtype=float).ravel()
    if t_eval.size == 0:
        raise ValueError("need at least one evaluation time")
    if not np.all(np.isfinite(t_eval)):
        raise ValueError("evaluation times must be finite")
    t_eval = np.sort(t_eval)
    if not arcs:
        raise ValueError("need at least one path")

    # one distance call over the sampled rows of every path: row 0 of each
    # path is its initial sample, the rest its samples at t_eval
    picked = [_last_samples(arc, t_eval) for arc in arcs]
    x = np.concatenate([p[0] for p in picked])
    r = np.concatenate([p[1] for p in picked])
    d_all = distances_to_target(x, r, spec).reshape(len(arcs), t_eval.size + 1)
    on_target = d_all[:, 0] == 0.0
    for _ in range(int(np.sum(on_target))):
        warnings.warn("excluding path with zero initial distance from envelope fit")
    kept = np.flatnonzero(~on_target)
    if not kept.size:
        raise ValueError("all paths start on the target set; nothing to fit")
    d0s = d_all[kept, 0]
    d0 = float(d0s[0])
    if np.any(np.abs(d0s - d0) > 1e-9 * max(1.0, d0)):
        raise ValueError("all paths must share one initial distance to the target set")

    dist = d_all[kept, 1:]
    sums = np.stack([picked[i][2] for i in kept])  # per-path hybrid time t + j
    base = sums[:, :1]  # anchor at the first evaluation point
    with np.errstate(divide="ignore"):
        log_dist = np.log(dist)  # -inf where a path sits on the target set

    def contributions(k2: float) -> np.ndarray:
        return np.exp(np.minimum(log_dist + k2 * (sums - base), 700.0))

    def weighted(k2: float) -> np.ndarray:
        return np.mean(contributions(k2), axis=0)

    means = np.mean(dist, axis=0)
    anchor = means[0]

    def excess(k2: float) -> float:
        w = weighted(k2)
        return float(np.max(w[1:]) - anchor) if w.size > 1 else -1.0

    # bracket the sign change of the excess on the side of 0 where it lies;
    # with one evaluation time the excess is -1 and k2 ends at the cap
    lo, hi = (-_K2_CAP, 0.0) if excess(0.0) > 0.0 else (0.0, _K2_CAP)
    if excess(lo) > 0.0:
        k2 = lo
    elif excess(hi) <= 0.0:
        k2 = hi
    else:
        while hi - lo > _K2_TOL:
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        k2 = lo

    wm = weighted(k2)
    k1 = float(np.max(wm) / d0)
    ses = np.std(contributions(k2), axis=0, ddof=1) / math.sqrt(len(kept)) \
        if len(kept) > 1 else np.zeros_like(wm)
    return EnvelopeFit(k1, float(k2), t_eval, means, wm, ses, d0, len(kept))


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    certified_radius: Optional[float]
    hit_fraction: float
    n_paths: int
    bisection_slack: float
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    entries: tuple
    monotone: bool
    violations: tuple


def epsilon_sweep(spec: SystemSpec, eps_list, inits, seed_base: int, *, radius_max: float,
                  rho: float, R: float, n_paths: int, horizon: Horizon,
                  cfg: Optional[IntegratorConfig] = None) -> SweepResult:
    """Smallest grid-certified recurrent radius per epsilon, by bisection.

    Per epsilon, one ensemble of n_paths paths of spec with that epsilon is
    simulated over horizon and reused across radii (hitting times are pure
    post-processing); a radius is certified as recurrence_estimate(ensemble,
    radius, rho, R) certifies it, bisected from radius_max down.  The
    parameters are those of a config's ``[sweep]``, whose schema holds their
    defaults and guards.  Radii should be nondecreasing in epsilon: each
    certified radius is compared with the last certified one, across any
    epsilon not certified at radius_max, and violations beyond one bisection
    step of slack are flagged.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) == 0:
        raise ValueError("need at least one epsilon")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    entries = []
    for eps in eps_arr:
        spec_eps = replace(spec, epsilon=eps)
        ensemble = simulate_ensemble(spec_eps, inits, n_paths, seed_base, horizon, cfg)

        def certified(radius: float):
            return recurrence_estimate(ensemble, radius, rho, R, spec_eps)

        hi = radius_max
        rep_hi = certified(hi)
        if not rep_hi.certified:
            entries.append(SweepEntry(eps, None, rep_hi.hit_fraction, n_paths, math.inf,
                                      "not certified at horizon"))
            continue
        lo = 0.0
        while hi - lo > max(_RADIUS_ABS_TOL, _RADIUS_REL_TOL * hi):
            mid = 0.5 * (lo + hi)
            rep = certified(mid)
            if rep.certified:
                hi = mid
                rep_hi = rep
            else:
                lo = mid
        entries.append(SweepEntry(eps, hi, rep_hi.hit_fraction, n_paths, hi - lo))

    violations = []
    prev = None  # the last certified entry
    for ent in entries:
        if ent.certified_radius is None:
            continue
        if prev is not None:
            slack = max(prev.bisection_slack, ent.bisection_slack)
            if ent.certified_radius > prev.certified_radius + slack:
                violations.append((prev.epsilon, ent.epsilon))
        prev = ent
    return SweepResult(tuple(entries), not violations, tuple(violations))
