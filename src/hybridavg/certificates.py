"""Grid verification of quadratic-type stochastic stability certificates.

Given a candidate function V on the average system's state space, five
constants are extracted on a deterministic grid:

    c1, c2 : quadratic sandwich   c1*d^2 <= V <= c2*d^2     (d = |z| to target)
    c3     : gradient bound       |grad V| <= c3*d
    c4     : flow decrease        <grad V, F_ave> <= -c4*V  on the flow set
    c5     : jump contraction     E[V(G_ave(z, v))] <= c5*V on the jump set

and the composite rate lambda = (c2/c1)*c5 must be strictly below 1/2 for a
pass.  Max/min reductions over a grid can only certify at grid resolution;
the verdict is a "grid-certified" pass, never a proof, and every inequality
carries its worst witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .averaging import AverageSpec
from .core import JumpNoise, union_descriptor


@dataclass(frozen=True)
class CertGrid:
    """Log-radial grid in |x| crossed with a uniform r grid over the sets.

    Radial coverage matters more than density for quadratic-homogeneous
    certificates, hence geometric spacing of radii in [radius_min, radius_max].
    """

    radius_min: float = 1e-3
    radius_max: float = 10.0
    radial_points: int = 25
    r_points: int = 5
    radii: Optional[tuple] = None  # explicit radii override (e.g. nested grids)

    def __post_init__(self):
        if not (0.0 < self.radius_min < self.radius_max and math.isfinite(self.radius_max)):
            raise ValueError("grid radii need 0 < radius_min < radius_max, both finite; "
                             f"got {self.radius_min!r}, {self.radius_max!r}")
        for name in ("radial_points", "r_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"grid {name} must be >= 1, got {getattr(self, name)!r}")
        if self.radii is not None:
            radii = np.asarray(self.radii, dtype=float)
            if radii.ndim != 1 or not radii.size or not np.all(np.isfinite(radii) & (radii > 0)):
                raise ValueError("grid radii must be a non-empty sequence of positive finite "
                                 f"numbers, got {self.radii!r}")

    def x_points(self, n: int) -> np.ndarray:
        if self.radii is not None:
            radii = np.asarray(self.radii, dtype=float)
        else:
            radii = np.geomspace(self.radius_min, self.radius_max, self.radial_points)
        dirs = []
        for d in range(n):
            e = np.zeros(n)
            e[d] = 1.0
            dirs.append(e)
            dirs.append(-e)
        if n > 1:
            diag = np.ones(n) / math.sqrt(n)
            dirs.append(diag)
            dirs.append(-diag)
        pts = np.concatenate([radii[:, None] * d[None, :] for d in dirs], axis=0)
        return pts


@dataclass(frozen=True)
class SubcheckResult:
    name: str
    ok: bool
    constants: tuple
    worst_residual: float
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class FosterCertificate:
    """Aggregated certificate: constants, lambda = (c2/c1)*c5, verdict, witnesses."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    lam: float
    verdict: bool
    subchecks: tuple
    grid: CertGrid
    safety_margin: float = 0.0

    def __str__(self) -> str:
        lines = [
            f"c1 = {self.c1!r}",
            f"c2 = {self.c2!r}",
            f"c3 = {self.c3!r}",
            f"c4 = {self.c4!r}",
            f"c5 = {self.c5!r}",
            f"lambda = (c2/c1)*c5 = {self.lam!r}  (pass requires < {0.5 - self.safety_margin!r})",
            f"verdict: {'PASS (grid-certified)' if self.verdict else 'FAIL'}",
        ]
        for sc in self.subchecks:
            status = "ok" if sc.ok else "VIOLATED"
            lines.append(f"  [{status}] {sc.name}: constants={sc.constants} "
                         f"worst_residual={sc.worst_residual!r}")
            if sc.witness is not None and not sc.ok:
                lines.append(f"      witness: {sc.witness}")
        g = self.grid
        radii = (f"radii {[float(r) for r in g.radii]}" if g.radii is not None
                 else f"radii [{g.radius_min}, {g.radius_max}] x {g.radial_points} pts")
        lines.append(f"grid: {radii}, r x {g.r_points} pts")
        return "\n".join(lines)


def _distances(avg: AverageSpec, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    dr = union_descriptor(avg.C, avg.D).distance(r)
    return np.sqrt(np.sum(x * x, axis=-1) + dr * dr)


def _eval_V(V: Callable, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    out = np.asarray(V(x, r), dtype=float)
    return out.reshape(x.shape[0])


def numeric_gradient(V: Callable, x: np.ndarray, r: np.ndarray,
                     fd_scale: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of V over (x, r), step 1e-5*max(1,|coord|)."""
    B = x.shape[0]
    n, p = x.shape[1], r.shape[1]
    grad = np.zeros((B, n + p))
    z = np.concatenate([x, r], axis=-1)
    for d in range(n + p):
        h = fd_scale * np.maximum(1.0, np.abs(z[:, d]))
        zp = z.copy()
        zm = z.copy()
        zp[:, d] += h
        zm[:, d] -= h
        vp = _eval_V(V, zp[:, :n], zp[:, n:])
        vm = _eval_V(V, zm[:, :n], zm[:, n:])
        grad[:, d] = (vp - vm) / (2.0 * h)
    return grad


def check_sandwich(V: Callable, avg: AverageSpec, grid: CertGrid) -> SubcheckResult:
    """c1 = min V/d^2 and c2 = max V/d^2 over grid points with d > 0."""
    x = grid.x_points(avg.n)
    r_pts = _cu_grid(avg, grid)
    c1, c2 = math.inf, -math.inf
    worst = -math.inf
    witness = None
    ok = True
    for rr in r_pts:
        r_tile = np.broadcast_to(rr, (x.shape[0], avg.p))
        d = _distances(avg, x, r_tile)
        mask = d > 0.0
        if not np.any(mask):
            continue
        vals = _eval_V(V, x[mask], r_tile[mask])
        if np.any(vals <= 0.0):
            k = int(np.argmin(vals))
            ok = False
            witness = (tuple(x[mask][k]), tuple(rr), float(vals[k]))
            worst = max(worst, float(-np.min(vals)))
        ratio = vals / (d[mask] ** 2)
        c1 = min(c1, float(np.min(ratio)))
        c2 = max(c2, float(np.max(ratio)))
    if ok:
        worst = 0.0
    return SubcheckResult("sandwich c1*d^2 <= V <= c2*d^2", ok and c1 > 0.0,
                          (c1, c2), worst, witness)


def _cu_grid(avg: AverageSpec, grid: CertGrid) -> np.ndarray:
    return union_descriptor(avg.C, avg.D).grid(grid.r_points)


def check_gradient_bound(V: Callable, avg: AverageSpec, grid: CertGrid,
                         grad_V: Optional[Callable] = None,
                         fd_scale: float = 1e-5) -> SubcheckResult:
    """c3 = max |grad V| / d over the grid (central differences by default)."""
    x = grid.x_points(avg.n)
    r_pts = _cu_grid(avg, grid)
    c3 = -math.inf
    witness = None
    for rr in r_pts:
        r_tile = np.broadcast_to(rr, (x.shape[0], avg.p)).copy()
        d = _distances(avg, x, r_tile)
        mask = d > 0.0
        if not np.any(mask):
            continue
        if grad_V is not None:
            grads = np.asarray(grad_V(x[mask], r_tile[mask]), dtype=float)
        else:
            grads = numeric_gradient(V, x[mask], r_tile[mask], fd_scale)
        mags = np.sqrt(np.sum(grads * grads, axis=-1))
        ratio = mags / d[mask]
        k = int(np.argmax(ratio))
        if ratio[k] > c3:
            c3 = float(ratio[k])
            witness = (tuple(x[mask][k]), tuple(rr))
    return SubcheckResult("gradient bound |grad V| <= c3*d", math.isfinite(c3),
                          (c3,), 0.0, witness)


def check_flow_decrease(V: Callable, avg: AverageSpec, grid: CertGrid,
                        grad_V: Optional[Callable] = None,
                        fd_scale: float = 1e-5,
                        include_jump_set: bool = False) -> SubcheckResult:
    """c4 = min of -<grad V, F_ave>/V over the flow-set grid; pass needs c4 > 0.

    Sampling is over R^n x C by default; ``include_jump_set`` extends it to
    C u D for certificates meant to decrease there too.
    """
    x = grid.x_points(avg.n)
    region = union_descriptor(avg.C, avg.D) if include_jump_set else avg.C
    r_pts = region.grid(grid.r_points)
    c4 = math.inf
    worst = -math.inf
    witness = None
    ok = True
    for rr in r_pts:
        r_tile = np.broadcast_to(rr, (x.shape[0], avg.p)).copy()
        d = _distances(avg, x, r_tile)
        mask = d > 0.0
        if not np.any(mask):
            continue
        xs, rs = x[mask], r_tile[mask]
        vals = _eval_V(V, xs, rs)
        if grad_V is not None:
            grads = np.asarray(grad_V(xs, rs), dtype=float)
        else:
            grads = numeric_gradient(V, xs, rs, fd_scale)
        flow = avg.flow(xs, rs)
        dot = np.sum(grads * flow, axis=-1)
        ratio = -dot / vals
        k = int(np.argmin(ratio))
        if ratio[k] < c4:
            c4 = float(ratio[k])
            witness = (tuple(xs[k]), tuple(rr), float(dot[k]))
        worst = max(worst, float(np.max(dot)))
        if np.any(dot > 0.0):
            ok = False
    return SubcheckResult("flow decrease <grad V, F_ave> <= -c4*V",
                          ok and c4 > 0.0, (c4,), max(worst, 0.0), witness)


@dataclass(frozen=True)
class JumpExpectation:
    value: float
    std_error: float
    n_samples: int


def expected_jump_value(V: Callable, avg: AverageSpec, x: np.ndarray,
                        r: np.ndarray, noise: JumpNoise,
                        mc_samples: int = 100_000,
                        mc_seed: int = 0) -> JumpExpectation:
    """E[V(G_ave(z, v))] at one jump-set point z = (x, r).

    Finite-support noise gives the exact weighted sum; sampler-only noise is
    estimated by Monte Carlo with a reported standard error.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if noise.kind == "finite-support":
        total = 0.0
        for v, prob in zip(noise.values, noise.probs):
            xp = np.asarray(avg.g(x[None, :], r[None, :], v[None, :]), dtype=float)
            rp = np.asarray(avg.h(r[None, :], v[None, :]), dtype=float)
            rp = np.broadcast_to(rp, (1, avg.p))
            total += float(prob) * float(_eval_V(V, xp, rp)[0])
        return JumpExpectation(total, 0.0, noise.values.shape[0])
    draws = np.stack([noise.draw(mc_seed, k + 1) for k in range(mc_samples)])
    x_tile = np.broadcast_to(x, (mc_samples, x.shape[0]))
    r_tile = np.broadcast_to(r, (mc_samples, r.shape[0]))
    xp = np.asarray(avg.g(x_tile, r_tile, draws), dtype=float)
    rp = np.asarray(avg.h(r_tile, draws), dtype=float)
    rp = np.broadcast_to(rp, (mc_samples, avg.p))
    vals = _eval_V(V, xp, rp)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    return JumpExpectation(mean, se, mc_samples)


def check_jump_condition(V: Callable, avg: AverageSpec, grid: CertGrid,
                         noise: Optional[JumpNoise] = None,
                         mc_samples: int = 100_000) -> SubcheckResult:
    """c5 = max over the jump-set grid of E[V(G_ave(z, v))] / V(z)."""
    noise = noise or avg.noise
    x = grid.x_points(avg.n)
    r_pts = avg.D.grid(grid.r_points)
    c5 = -math.inf
    witness = None
    for rr in r_pts:
        for k in range(x.shape[0]):
            vz = float(_eval_V(V, x[k][None, :], rr[None, :])[0])
            if vz <= 0.0:
                continue
            ev = expected_jump_value(V, avg, x[k], rr, noise, mc_samples)
            ratio = ev.value / vz
            if ratio > c5:
                c5 = ratio
                witness = (tuple(x[k]), tuple(rr), ev.value)
    # c5 = 0 (always-absorbing jumps) only strengthens contraction: accept >= 0
    return SubcheckResult("jump contraction E[V+] <= c5*V",
                          math.isfinite(c5) and c5 >= 0.0, (c5,), 0.0, witness)


def foster_certificate(V: Callable, avg: AverageSpec,
                       grid: Optional[CertGrid] = None,
                       noise: Optional[JumpNoise] = None,
                       grad_V: Optional[Callable] = None,
                       mc_samples: int = 100_000,
                       safety_margin: float = 0.0,
                       include_jump_set_in_flow: bool = False) -> FosterCertificate:
    """Run all sub-checks and compose the verdict.

    Pass requires every inequality to hold on the grid and
    lambda = (c2/c1)*c5 < 1/2 - safety_margin (strict; the margin can only
    tighten the gate, never loosen it).
    """
    if safety_margin < 0.0:
        raise ValueError("safety_margin can tighten the gate only (must be >= 0)")
    grid = grid or CertGrid()
    sandwich = check_sandwich(V, avg, grid)
    gradb = check_gradient_bound(V, avg, grid, grad_V)
    flow = check_flow_decrease(V, avg, grid, grad_V,
                               include_jump_set=include_jump_set_in_flow)
    jump = check_jump_condition(V, avg, grid, noise, mc_samples)
    c1, c2 = sandwich.constants
    c3 = gradb.constants[0]
    c4 = flow.constants[0]
    c5 = jump.constants[0]
    lam = (c2 / c1) * c5
    verdict = (sandwich.ok and gradb.ok and flow.ok and jump.ok
               and lam < 0.5 - safety_margin)
    return FosterCertificate(c1, c2, c3, c4, c5, lam, bool(verdict),
                             (sandwich, gradb, flow, jump), grid, safety_margin)
