"""Grid verification of quadratic-type stochastic stability certificates.

Given a candidate function V on the average system's state space, five
constants are extracted on a deterministic grid:

    c1, c2 : quadratic sandwich   c1*d^2 <= V <= c2*d^2     (d = |z| to target)
    c3     : gradient bound       |grad V| <= c3*d
    c4     : flow decrease        <grad V, F_ave> <= -c4*V  on the flow set
    c5     : jump contraction     E[V(G_ave(z, v))] <= c5*V on the jump set

and the composite rate lambda = (c2/c1)*c5 must be strictly below 1/2 for a
pass.  The grid is one product of the C u D r-grid (C rows first) with the
radial x points, in r-major order, and it is evaluated in one pass: d, V and
V's central-difference gradient over all of it, F_ave over its C rows, and the
jump maps over its D rows, with the jump draws made once per certificate.
Max/min reductions over a grid can only certify at grid resolution; the
verdict is a "grid-certified" pass, never a proof, and every inequality
carries its worst witness point, the first in r-major, then x, order.  A
sub-check that meets a non-finite value fails, with the first such point as
its witness.
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


def _eval_V(V: Callable, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    out = np.asarray(V(x, r), dtype=float)
    return out.reshape(x.shape[0])


def _jumped_V(V: Callable, avg: AverageSpec, x: np.ndarray, r: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """V(G_ave(z, v)) row by row for z = (x, r)."""
    xp = np.asarray(avg.g(x, r, v), dtype=float)
    rp = np.broadcast_to(np.asarray(avg.h(r, v), dtype=float), (x.shape[0], avg.p))
    return _eval_V(V, xp, rp)


def _subcheck(name: str, rates: np.ndarray, ok: bool, constants: tuple, worst: float,
              witness: Optional[tuple], witness_at: Callable) -> SubcheckResult:
    """The sub-check's result; a non-finite rate fails it at the first such point."""
    bad = np.flatnonzero(~np.isfinite(rates))
    if bad.size:
        ok, worst, witness = False, math.nan, witness_at(int(bad[0]))
    return SubcheckResult(name, bool(ok), constants, worst, witness)


def foster_certificate(V: Callable, avg: AverageSpec,
                       grid: Optional[CertGrid] = None,
                       noise: Optional[JumpNoise] = None,
                       mc_samples: int = 100_000,
                       safety_margin: float = 0.0) -> FosterCertificate:
    """Evaluate the grid once, reduce it to c1..c5 and compose the verdict.

    Pass requires every inequality to hold, with finite values, on the grid
    and lambda = (c2/c1)*c5 < 1/2 - safety_margin (strict; the margin can
    only tighten the gate, never loosen it).  Sampler-only noise is averaged
    over the draws (0, 1) .. (0, mc_samples), the same draws at every point.
    """
    if not (safety_margin >= 0.0 and math.isfinite(safety_margin)):
        raise ValueError("safety_margin can tighten the gate only (must be finite and >= 0), "
                         f"got {safety_margin!r}")
    grid = grid or CertGrid()
    noise = noise or avg.noise
    n, p = avg.n, avg.p
    x_pts = grid.x_points(n)
    r_flow, r_jump = avg.C.grid(grid.r_points), avg.D.grid(grid.r_points)
    r_rows = np.concatenate([r_flow, r_jump])
    xs = np.tile(x_pts, (r_rows.shape[0], 1))
    rs = np.repeat(r_rows, x_pts.shape[0], axis=0)
    n_flow = r_flow.shape[0] * x_pts.shape[0]  # the C rows come first
    dr = union_descriptor(avg.C, avg.D).distance(rs)
    d = np.sqrt(np.sum(xs * xs, axis=-1) + dr * dr)  # >= |x| > 0

    def at(k, *values):
        return (tuple(map(float, xs[k])), tuple(map(float, rs[k]))) + tuple(map(float, values))

    # V at every point and at its central-difference probes, in one call
    z = np.concatenate([xs, rs], axis=-1)
    step = 1e-5 * np.maximum(1.0, np.abs(z))
    probes = [z]
    for col in range(n + p):
        up, down = z.copy(), z.copy()
        up[:, col] += step[:, col]
        down[:, col] -= step[:, col]
        probes += [up, down]
    zz = np.concatenate(probes)
    vz = _eval_V(V, zz[:, :n], zz[:, n:]).reshape(len(probes), -1)
    vals = vz[0]
    grads = (vz[1::2] - vz[2::2]).T / (2.0 * step)

    ratio = vals / d ** 2
    c1, c2 = float(np.min(ratio)), float(np.max(ratio))
    k = int(np.argmin(vals))
    low = vals[k] <= 0.0
    worst = 0.0 - float(vals[k]) if low else 0.0  # not -V: a zero V reads 0.0, not -0.0
    sandwich = _subcheck("sandwich c1*d^2 <= V <= c2*d^2", ratio, not low and c1 > 0.0,
                         (c1, c2), worst, at(k, vals[k]) if low else None,
                         lambda i: at(i, vals[i]))

    gain = np.sqrt(np.sum(grads * grads, axis=-1)) / d
    k = int(np.argmax(gain))
    c3 = float(gain[k])
    gradb = _subcheck("gradient bound |grad V| <= c3*d", gain, True, (c3,), 0.0, at(k), at)

    dot = np.sum(grads[:n_flow] * avg.flow(xs[:n_flow], rs[:n_flow]), axis=-1)
    decay = -dot / vals[:n_flow]
    k = int(np.argmin(decay))
    c4 = float(decay[k])
    flow = _subcheck("flow decrease <grad V, F_ave> <= -c4*V", decay,
                     not np.any(dot > 0.0) and c4 > 0.0, (c4,), max(float(np.max(dot)), 0.0),
                     at(k, dot[k]), lambda i: at(i, dot[i]))

    # jump-set points where V > 0; a NaN V stays in and fails the check
    rows = n_flow + np.flatnonzero(~(vals[n_flow:] <= 0.0))
    xj, rj = xs[rows], rs[rows]
    if not rows.size:
        expect = np.zeros(0)
    elif noise.kind == "finite-support":
        expect = 0.0
        for v, prob in zip(noise.values, noise.probs):
            v_rows = np.broadcast_to(v, (rows.size, noise.m))
            expect = expect + float(prob) * _jumped_V(V, avg, xj, rj, v_rows)
    else:
        draws = np.stack([noise.draw(0, k + 1) for k in range(mc_samples)])
        expect = np.array([np.mean(_jumped_V(V, avg, np.broadcast_to(x, (mc_samples, n)),
                                             np.broadcast_to(r, (mc_samples, p)), draws))
                           for x, r in zip(xj, rj)])
    contraction = expect / vals[rows]
    c5, witness = -math.inf, None
    if rows.size:
        k = int(np.argmax(contraction))
        c5, witness = float(contraction[k]), at(rows[k], expect[k])
    # c5 = 0 (always-absorbing jumps) only strengthens contraction: accept >= 0
    jump = _subcheck("jump contraction E[V+] <= c5*V", contraction,
                     math.isfinite(c5) and c5 >= 0.0, (c5,), 0.0, witness,
                     lambda i: at(rows[i], expect[i]))

    lam = (c2 / c1) * c5 if c1 else math.nan
    verdict = (sandwich.ok and gradb.ok and flow.ok and jump.ok
               and lam < 0.5 - safety_margin)
    return FosterCertificate(c1, c2, c3, c4, c5, lam, bool(verdict),
                             (sandwich, gradb, flow, jump), grid, safety_margin)
