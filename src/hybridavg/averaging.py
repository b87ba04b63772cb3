"""Numerical construction and verification of the averaged dynamics.

The central object is the sliding-window mean of the oscillating flow map at
epsilon = 0,

    avg(x, r, tau0, T) = (1/T) * integral_{tau0}^{tau0+T} f(x, r, s, 0) ds,

computed by composite Simpson quadrature.  From it we estimate the average
map f_ave on a grid, the convergence-rate curve gamma(T) bounding
|avg - f_ave| / |x|, and the matching curve for the Jacobian of the residual.
The average system, an AverageSpec, is a SystemSpec of the same class with
no fast clock: the solver, the certificate and the target distance take it
as they take any system.
All suprema are grid suprema: results are grid-certified, not proofs.  Each
is reduced by core.grid_extreme, so a non-finite sample is never skipped: an
estimate that meets one raises ValueError naming the quantity and its point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import SystemSpec, grid_extreme

#: default Simpson panel density: panels per 2*pi of the fast clock
PANELS_PER_PERIOD = 40


def _simpson_weights(panels: int) -> np.ndarray:
    n_sub = 2 * panels
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _panels_for(T: float) -> int:
    return max(2, int(math.ceil(PANELS_PER_PERIOD * T / (2.0 * math.pi))))


def _sample_window(spec: SystemSpec, x, r, s: np.ndarray) -> np.ndarray:
    """f(x, r, s, 0) at the window samples s, shape (len(s), n).

    A non-finite value is an error naming f, x, r and the first such tau.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    xt = np.broadcast_to(x, (s.shape[0], x.shape[0]))
    rt = np.broadcast_to(r, (s.shape[0], r.shape[0]))
    vals = np.asarray(spec.f(xt, rt, s, 0.0), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"map 'f' returned a non-finite value ({float(vals[k])!r}) inside the "
                         f"window at x = {x.tolist()!r}, r = {r.tolist()!r}, "
                         f"tau = {float(s[k[0]])!r}")
    return vals


def window_average(spec: SystemSpec, x, r, tau0: float, T: float,
                   quad_points: Optional[int] = None) -> np.ndarray:
    """Window mean of f(x, r, ., 0) over [tau0, tau0 + T] (Simpson, quad_points panels)."""
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"window length T must be finite and positive, got {T!r}")
    panels = _panels_for(T) if quad_points is None else max(2, int(quad_points))
    s = tau0 + np.arange(2 * panels + 1) * (T / (2 * panels))
    vals = _sample_window(spec, x, r, s)
    h = T / (2 * panels)
    integral = (h / 3.0) * (_simpson_weights(panels) @ vals)
    return integral / T


def _window_means_batch(spec: SystemSpec, x, r, tau0s: np.ndarray, T: float,
                        panels: int) -> np.ndarray:
    """Window means for one (x, r) and many window starts; shape (len(tau0s), n)."""
    h = T / (2 * panels)
    offs = np.arange(2 * panels + 1) * h
    s = (tau0s[:, None] + offs[None, :]).ravel()
    vals = _sample_window(spec, x, r, s).reshape(tau0s.shape[0], offs.shape[0], -1)
    w = _simpson_weights(panels)
    return (h / 3.0) * np.einsum("q,tqn->tn", w, vals) / T


class TabulatedMap:
    """Multilinear interpolant of a tabulated vector field over a product grid.

    Queries outside the grid are clamped to its hull.  Instances are plain
    data and safe to share or pickle.
    """

    def __init__(self, axes: Sequence[np.ndarray], table: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.table = np.asarray(table, dtype=float)
        expect = tuple(len(a) for a in self.axes)
        if self.table.shape[:-1] != expect:
            raise ValueError(f"table shape {self.table.shape} does not match axes {expect}")

    def __call__(self, x, r) -> np.ndarray:
        """Interpolated values at the rows (x (B, n), r (B, p) or (p,)), as f_ave(x, r)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.atleast_2d(np.asarray(r, dtype=float))
        pts = np.concatenate([x, np.broadcast_to(r, (x.shape[0], r.shape[-1]))], axis=-1)
        B, d = pts.shape
        if d != len(self.axes):
            raise ValueError("query dimension does not match the table axes")
        idx, frac = [], []
        for k, ax in enumerate(self.axes):
            if len(ax) == 1:
                idx.append(np.zeros(B, dtype=int))
                frac.append(np.zeros(B))
                continue
            q = np.clip(pts[:, k], ax[0], ax[-1])
            i = np.clip(np.searchsorted(ax, q, side="right") - 1, 0, len(ax) - 2)
            idx.append(i)
            frac.append((q - ax[i]) / (ax[i + 1] - ax[i]))
        out = np.zeros((B, self.table.shape[-1]))
        for corner in range(1 << d):
            wgt = np.ones(B)
            sel = []
            for k in range(d):
                hi = (corner >> k) & 1
                if len(self.axes[k]) == 1:
                    sel.append(idx[k])
                    if hi:
                        wgt = wgt * 0.0
                    continue
                sel.append(idx[k] + hi)
                wgt = wgt * (frac[k] if hi else (1.0 - frac[k]))
            out += wgt[:, None] * self.table[tuple(sel)]
        return out


class _AveFlowAdapter:
    """Presents a clock-free average map under the (x, r, tau, eps) signature."""

    def __init__(self, f_ave: Callable):
        self.f_ave = f_ave

    def __call__(self, x, r, tau, eps):
        return self.f_ave(x, r)


@dataclass(frozen=True)
class AverageSpec(SystemSpec):
    """The average system: flow (f_ave(x, r), w(r)) on C, the original jumps on D.

    There is no fast clock: ``f`` is f_ave under the (x, r, tau, eps)
    signature and ``epsilon`` is 1.0, both derived, so
    dataclasses.replace(avg, f_ave=...) never leaves a stale f.  ``f_ave``
    follows the batched convention f_ave(x, r) -> (B, n).
    estimate_average_map also sets the window-mean ``table`` and, against a
    closed form, its largest deviation ``nodal_residual`` and the (x, r) node
    ``nodal_witness`` where it occurs.
    """

    f: Callable = field(init=False, compare=False)
    epsilon: float = field(init=False, default=1.0)
    f_ave: Callable
    table: Optional[TabulatedMap] = None
    nodal_residual: float = 0.0
    nodal_witness: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "f", _AveFlowAdapter(self.f_ave))
        super().__post_init__()

    def flow(self, x, r) -> np.ndarray:
        """Combined average vector field (f_ave(x, r), w(r)), batched."""
        fx = np.asarray(self.f_ave(x, r), dtype=float)
        wr = np.asarray(self.w(r), dtype=float)
        wr = np.broadcast_to(wr, (fx.shape[0], self.p))
        return np.concatenate([fx, wr], axis=-1)


def _as_axes(grid, what: str):
    if isinstance(grid, np.ndarray) and grid.ndim == 1:
        axes = [np.asarray(grid, dtype=float)]
    else:
        axes = [np.asarray(a, dtype=float).ravel() for a in grid]
    if not axes or not all(a.size for a in axes):
        raise ValueError(f"{what} needs at least one axis and no empty axis")
    return axes


def _grid_sup(values, what: str, layout: tuple, point: Callable) -> tuple:
    """(maximum, witness) of an estimate's samples by grid_extreme.

    The witness is point(*grid index), a tuple of the coordinates named by
    layout.  A non-finite sample is an error naming the quantity and point.
    """
    value, k = grid_extreme(values)
    witness = point(*np.unravel_index(k, np.shape(values)))
    if not math.isfinite(value):
        at = ", ".join(f"{name} = {np.asarray(c).tolist()!r}" for name, c in zip(layout, witness))
        raise ValueError(f"{what} is non-finite ({value!r}) at {at}")
    return value, witness


def estimate_average_map(spec: SystemSpec, x_grid, r_grid, T_long: float,
                         f_ave: Optional[Callable] = None) -> AverageSpec:
    """Tabulate the long-window mean of the flow map and package the average system.

    ``x_grid`` / ``r_grid`` are per-dimension 1-D axes (a single array is one
    axis).  With a registered closed-form ``f_ave`` the table is compared
    with it and the returned AverageSpec wraps the closed form; otherwise
    the AverageSpec interpolates the table multilinearly, and an error is
    raised when midpoint interpolation residuals betray a too-coarse grid.
    A non-finite deviation from the table is an error naming its (x, r) node.
    """
    x_axes = _as_axes(x_grid, "x_grid")
    r_axes = _as_axes(r_grid, "r_grid")
    if len(x_axes) != spec.n or len(r_axes) != spec.p:
        raise ValueError("grid axes do not match system dimensions")
    panels = _panels_for(T_long)
    axes = x_axes + r_axes
    shape = tuple(len(a) for a in axes)
    table = np.zeros(shape + (spec.n,))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    for row in range(flat.shape[0]):
        pt = flat[row]
        val = window_average(spec, pt[: spec.n], pt[spec.n:], 0.0, T_long, panels)
        table[np.unravel_index(row, shape)] = val

    tab = TabulatedMap(axes, table.reshape(shape + (spec.n,)))
    if f_ave is not None:
        closed = np.asarray(f_ave(flat[:, : spec.n], flat[:, spec.n:]), dtype=float)
        nodal, node = _grid_sup(np.sqrt(np.sum((closed - table.reshape(-1, spec.n)) ** 2,
                                               axis=-1)),
                                "deviation of favg from the window mean", ("x", "r"),
                                lambda k: (flat[k, : spec.n], flat[k, spec.n:]))
        return replace(build_average_system(spec, f_ave), table=tab, nodal_residual=nodal,
                       nodal_witness=node)

    # tabulated fallback: check cell midpoints against fresh window means
    mids = []
    for k, ax in enumerate(axes):
        if len(ax) < 2:
            continue
        centers = 0.5 * (ax[:-1] + ax[1:])
        for c in centers[: min(len(centers), 5)]:
            for row in flat[:: max(1, flat.shape[0] // 4)]:
                q = row.copy()
                q[k] = c
                mids.append(q)
    floor = 1e-8 * max(1.0, float(np.max(np.abs(table))))
    if mids:
        resid = [np.linalg.norm(window_average(spec, x, r, 0.0, T_long, panels) - tab(x, r)[0])
                 for x, r in ((q[: spec.n], q[spec.n:]) for q in mids)]
        worst_mid, _ = _grid_sup(resid, "midpoint interpolation residual", ("x", "r"),
                                 lambda k: (mids[k][: spec.n], mids[k][spec.n:]))
        if worst_mid > 10.0 * floor:
            raise ValueError(
                f"average-map grid too coarse: midpoint interpolation residual {worst_mid:g} "
                f"exceeds 10x the floor {floor:g} (1e-8 of the largest table value); "
                f"refine the x/r grid"
            )
    return replace(build_average_system(spec, tab), table=tab)


@dataclass(frozen=True)
class GammaCurve:
    """Convergence-function estimate over a grid of window lengths.

    ``values`` are raw grid suprema; ``envelope`` is the least nonincreasing
    majorant (running max from the right), matching the required monotone
    convergence-function shape.  ``witnesses`` holds the (x, r, tau0) sample
    achieving each supremum, the first in (x, r, tau0) order.
    """

    windows: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    witnesses: tuple
    exceeds_state_envelope: Optional[tuple] = None


def _envelope(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def _sample_grids(spec: SystemSpec, x_grid, r_grid, tau_grid, T_grid) -> tuple:
    """(x points (K, n), r points (L, p), window starts, window lengths), all non-empty."""
    x_pts = np.atleast_2d(np.asarray(x_grid, dtype=float)).reshape(-1, spec.n)
    r_pts = np.atleast_2d(np.asarray(r_grid, dtype=float)).reshape(-1, spec.p)
    tau0s = np.asarray(tau_grid, dtype=float).ravel()
    Ts = np.asarray(T_grid, dtype=float).ravel()
    if not (x_pts.size and r_pts.size and tau0s.size and Ts.size):
        raise ValueError("x, r, tau and T grids must be non-empty")
    if not np.all(np.isfinite(Ts) & (Ts > 0.0)):
        raise ValueError(f"window lengths T must be finite and positive, got {Ts.tolist()}")
    return x_pts, r_pts, tau0s, Ts


def estimate_gamma(spec: SystemSpec, f_ave: Callable, x_grid, r_grid,
                   tau_grid, T_grid) -> GammaCurve:
    """Grid supremum of |window mean - f_ave| / |x| per window length T.

    Every x in the grid must be nonzero (the bound is normalized by |x|).
    The result is a Definition-style certificate at grid resolution: at every
    grid point the window residual is <= gamma(T) * |x| by construction.  A
    non-finite residual is an error naming its (x, r, tau0) point.
    """
    x_pts, r_pts, tau0s, Ts = _sample_grids(spec, x_grid, r_grid, tau_grid, T_grid)
    norms = np.sqrt(np.sum(x_pts * x_pts, axis=-1))
    if np.any(norms == 0.0):
        raise ValueError("x grid must exclude 0 (residuals are normalized by |x|)")

    values = np.zeros(Ts.shape[0])
    witnesses = []
    for ti, T in enumerate(Ts):
        panels = _panels_for(float(T))
        resid = []  # grid (x, r, tau0)
        for xi in range(x_pts.shape[0]):
            for ri in range(r_pts.shape[0]):
                means = _window_means_batch(spec, x_pts[xi], r_pts[ri], tau0s,
                                            float(T), panels)
                ref = np.asarray(f_ave(x_pts[xi][None, :], r_pts[ri][None, :]),
                                 dtype=float)[0]
                resid.append(np.sqrt(np.sum((means - ref) ** 2, axis=-1)) / norms[xi])
        values[ti], witness = _grid_sup(
            np.reshape(resid, (x_pts.shape[0], r_pts.shape[0], -1)),
            f"window-mean residual of f against favg (T = {float(T)!r})", ("x", "r", "tau0"),
            lambda i, j, k: (x_pts[i].copy(), r_pts[j].copy(), float(tau0s[k])))
        witnesses.append(witness)
    return GammaCurve(Ts, values, _envelope(values), tuple(witnesses))


def _residual_jacobian_norms(spec: SystemSpec, f_ave: Callable, z0: np.ndarray,
                             tau0s: np.ndarray, T: float, panels: int) -> np.ndarray:
    """Frobenius norms, per window start, of the windowed Jacobian of f(., 0) - f_ave at z0."""
    h = 1e-5 * max(1.0, float(np.linalg.norm(z0)))
    cols = []
    for d in range(spec.n + spec.p):
        zp = z0.copy()
        zm = z0.copy()
        zp[d] += h
        zm[d] -= h
        mp = _window_means_batch(spec, zp[: spec.n], zp[spec.n:], tau0s, T, panels)
        mm = _window_means_batch(spec, zm[: spec.n], zm[spec.n:], tau0s, T, panels)
        fp = np.asarray(f_ave(zp[None, : spec.n], zp[None, spec.n:]), dtype=float)[0]
        fm = np.asarray(f_ave(zm[None, : spec.n], zm[None, spec.n:]), dtype=float)[0]
        cols.append(((mp - mm) - (fp - fm)[None, :]) / (2.0 * h))
    jac = np.stack(cols, axis=-1)  # (ntau, n, n+p)
    return np.sqrt(np.sum(jac * jac, axis=(1, 2)))


def check_jacobian_average(spec: SystemSpec, f_ave: Callable, x_grid, r_grid,
                           tau_grid, T_grid,
                           state_gamma: Optional[GammaCurve] = None) -> GammaCurve:
    """Window-averaged Jacobian of the residual d = f(., 0) - f_ave, per T.

    The Jacobian over (x, r) is taken by central differences with step
    1e-5 * max(1, |(x, r)|); because quadrature is linear, differencing the
    window means equals window-averaging the Jacobian.  Values are raw
    Frobenius magnitudes (the theoretical bound carries no |x| factor), and
    T values whose magnitude exceeds a provided state-residual envelope are
    flagged.  A non-finite magnitude is an error naming its (x, r, tau0) point.
    """
    x_pts, r_pts, tau0s, Ts = _sample_grids(spec, x_grid, r_grid, tau_grid, T_grid)

    values = np.zeros(Ts.shape[0])
    witnesses = []
    for ti, T in enumerate(Ts):
        panels = _panels_for(float(T))
        frob = [_residual_jacobian_norms(spec, f_ave, np.concatenate([x0, r0]), tau0s,
                                         float(T), panels)
                for x0 in x_pts for r0 in r_pts]  # grid (x, r, tau0)
        values[ti], witness = _grid_sup(
            np.reshape(frob, (x_pts.shape[0], r_pts.shape[0], -1)),
            f"Jacobian residual of f against favg (T = {float(T)!r})", ("x", "r", "tau0"),
            lambda i, j, k: (x_pts[i].copy(), r_pts[j].copy(), float(tau0s[k])))
        witnesses.append(witness)

    flags = None
    if state_gamma is not None:
        env = np.interp(Ts, state_gamma.windows, state_gamma.envelope)
        # slack absorbs finite-difference noise when the curves coincide
        flags = tuple(bool(v > e * (1.0 + 1e-6) + 1e-9) for v, e in zip(values, env))
    return GammaCurve(Ts, values, _envelope(values), tuple(witnesses),
                      exceeds_state_envelope=flags)


def build_average_system(spec: SystemSpec, f_ave: Callable) -> AverageSpec:
    """Assemble the average system: flow (f_ave, w), jump maps and sets reused verbatim."""
    return AverageSpec(n=spec.n, p=spec.p, m=spec.m, w=spec.w, g=spec.g, h=spec.h,
                       C=spec.C, D=spec.D, noise=spec.noise, f_ave=f_ave)
