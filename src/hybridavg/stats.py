"""Ensemble statistics: hitting times, recurrence certification, mean-envelope fits.

These operations post-process immutable ensembles of arcs.  Hitting-time
queries are served from a per-arc index of the record lows of the running
minimum distance to the target set, kept per segment, cached on the arc and
extended lazily one segment at a time, so repeated queries at shrinking radii
(bisection) never recompute a distance.  The recurrence budget tau_hat is the
(1 - rho) order-statistic of hitting t + j sums; the exponential-in-the-mean
fit anchors the envelope at the initial distance and finds the largest rate
that keeps the weighted means below it at every evaluation time (a
necessary-condition check on a deterministic grid, not a bound over all
stopping times).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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

#: attribute of a HybridArc holding its hitting indexes, keyed by C u D; not a
#: dataclass field, so the arc's equality and repr never see it
_INDEX_ATTR = "_hitting_indexes"


def _check_positive(name: str, value: float):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _HittingIndex:
    """Record lows of one arc's running-minimum distance to one target set.

    A record is a sample where min(d[:k+1]) strictly drops; a NaN distance
    never is one.  The first sample with d < radius is always a record, so
    the first hit of the open radius-ball is the first record below radius.
    Records fall strictly along the arc, so that is a searchsorted inside the
    first scanned segment whose lowest record is < radius.  Segments are
    scanned in order and only while the running minimum is still >= the
    radius asked for, so a single query reads no further than a plain scan
    stopping at the hit.

    One entry per scanned segment that holds records: (lowest record, the
    segment, the negated lows, which increase strictly, and the records'
    sample indexes in the segment).
    """

    __slots__ = ("_segments", "_scanned", "_low", "_records")

    def __init__(self, segments):
        self._segments = segments
        self._scanned = 0  # segments read so far
        self._low = math.inf  # running minimum over them
        self._records = []

    def first_below(self, radius: float, spec: SystemSpec) -> Optional[HybridTime]:
        while self._low >= radius and self._scanned < len(self._segments):
            seg = self._segments[self._scanned]
            self._scanned += 1
            d = distances_to_target(seg.x, seg.r, spec)
            # fmin skips NaN distances, which then never count as a record
            run = np.fmin.accumulate(np.concatenate(([self._low], d)))
            drops = np.flatnonzero(run[1:] < run[:-1])
            if drops.size:
                self._low = float(run[-1])
                self._records.append((self._low, seg, -d[drops], drops.astype(np.int32)))
        if not self._low < radius:
            return None
        seg, neg_lows, where = next(rec[1:] for rec in self._records if rec[0] < radius)
        k = int(np.searchsorted(neg_lows, -radius, side="right"))
        return HybridTime(float(seg.t[where[k]]), int(seg.j))


def _hitting_index(arc: HybridArc, spec: SystemSpec) -> _HittingIndex:
    """The arc's cached index for spec's C u D, the only part distances depend on."""
    indexes = arc.__dict__.get(_INDEX_ATTR)
    if indexes is None:
        indexes = {}
        object.__setattr__(arc, _INDEX_ATTR, indexes)
    key = spec.flow_or_jump_set
    index = indexes.get(key)
    if index is None:
        index = indexes[key] = _HittingIndex(arc.segments)
    return index


def hitting_time(arc: HybridArc, radius: float, spec: SystemSpec) -> Optional[HybridTime]:
    """First hybrid time at which the distance to the target set drops below radius.

    The first flow sample or jump post-state, in hybrid-time order, whose
    distance is < radius: the ball is open (strict inequality).  Returns None
    when the arc never enters it.  Served from the arc's cached hitting index
    (see _HittingIndex), which this call extends only as far as it must.
    """
    _check_positive("radius", radius)
    return _hitting_index(arc, spec).first_below(radius, spec)


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


def recurrence_estimate(ensemble: Sequence[HybridArc], radius: float, rho: float,
                        R: float, spec: SystemSpec) -> RecurrenceReport:
    """Certify recurrence of the open radius-ball around the target set.

    A path counts as a success when it hits the ball within its simulated
    domain, or when it stops (leaves the flow and jump sets) before the
    certified budget tau_hat.  tau_hat is the (1 - rho) order statistic of
    hitting t + j values among hitting paths and is only reported when the
    success fraction reaches 1 - rho.  Hitting times come from each arc's
    cached hitting index, so a bisection over radii reads every distance once.
    """
    arcs = list(ensemble)
    if len(arcs) < 30:
        raise ValueError(f"ensemble too small for recurrence estimation ({len(arcs)} < 30)")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    _check_positive("radius", radius)
    _check_positive("R", R)
    x0 = np.array([arc.segments[0].x[0] for arc in arcs])
    r0 = np.array([arc.segments[0].r[0] for arc in arcs])
    z0 = np.sqrt(np.sum(x0 * x0, axis=-1) + np.sum(r0 * r0, axis=-1))
    outside = np.flatnonzero(~(z0 <= R * (1.0 + 1e-12)))
    if outside.size:
        raise ValueError(f"initial condition with |z(0,0)| = {float(z0[outside[0]])} "
                         f"lies outside R = {R}")

    hits = [_hitting_index(arc, spec).first_below(radius, spec) for arc in arcs]
    hit_sums = sorted(hybrid_time_sum(ht) for ht in hits if ht is not None)
    tau_hat = None
    if hit_sums:
        k = max(0, math.ceil((1.0 - rho) * len(hit_sums)) - 1)
        tau_hat = float(hit_sums[min(k, len(hit_sums) - 1)])

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

    if t_eval.size == 1:
        k2 = _K2_CAP
    else:
        # bracket the sign change of the excess on the side of 0 where it lies
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


@dataclass(frozen=True)
class SweepParams:
    radius_max: float
    rho: float = 0.05
    R: float = 5.0
    n_paths: int = 200
    horizon: Horizon = Horizon(10.0, 10_000)
    cfg: IntegratorConfig = IntegratorConfig()


def epsilon_sweep(spec_family: Callable[[float], SystemSpec], eps_list,
                  inits, seed_base: int, params: SweepParams) -> SweepResult:
    """Smallest grid-certified recurrent radius per epsilon, by bisection.

    One ensemble is simulated per epsilon and reused across radii (hitting
    times are pure post-processing).  Radii should be nondecreasing in
    epsilon; violations beyond one bisection step of slack are flagged.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) == 0:
        raise ValueError("need at least one epsilon")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    entries = []
    for eps in eps_arr:
        spec = spec_family(eps)
        ensemble = simulate_ensemble(spec, inits, params.n_paths, seed_base,
                                     params.horizon, params.cfg)

        def certified(radius: float):
            return recurrence_estimate(ensemble, radius, params.rho, params.R, spec)

        hi = params.radius_max
        rep_hi = certified(hi)
        if not rep_hi.certified:
            entries.append(SweepEntry(eps, None, rep_hi.hit_fraction,
                                      params.n_paths, math.inf,
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
        entries.append(SweepEntry(eps, hi, rep_hi.hit_fraction, params.n_paths,
                                  hi - lo))

    violations = []
    prev = None
    for ent in entries:
        if ent.certified_radius is None:
            prev = None
            continue
        if prev is not None:
            slack = max(prev.bisection_slack, ent.bisection_slack)
            if ent.certified_radius > prev.certified_radius + slack:
                violations.append((prev.epsilon, ent.epsilon))
        prev = ent
    return SweepResult(tuple(entries), not violations, tuple(violations))
