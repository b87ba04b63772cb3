"""Numerical construction and verification of the averaged dynamics.

The central object is the sliding-window mean of the oscillating flow map at
epsilon = 0,

    avg(x, r, tau0, T) = (1/T) * integral_{tau0}^{tau0+T} f(x, r, s, 0) ds,

computed by composite Simpson quadrature under one panel rule for every
window (PANELS_PER_PERIOD panels per 2*pi of the clock, at least 2).  From
it we tabulate the average map f_ave on a grid, the convergence-rate curve
gamma(T) bounding |avg - f_ave| / |x|, and the matching curve for the
Jacobian of the residual.
One sampler evaluates f over the windows of many (x, r) rows in one 2-D
batch, so the table is one f call.  gamma and the Jacobian check each form
their (x, r) rows once, x-major, call f_ave once on them (the Jacobian on its
central-difference probe rows), and per T sample the windows from every start
tau0 one row at a time, so that no f call holds more than one row's samples.
Every sampling fixes f at its clock samples first: an expression-compiled f
computes its subtrees of tau and eps alone once per window length (once for
the table), not once per row, with the same bits; any other f is called as is.
The table's mean (weights @ samples) and the per-start mean (an einsum over
the starts) stay two reductions: at all 18 table nodes of the shipped
actuator grid they differ in the last bit, so merging them would change the
pinned output digests.  Without a registered closed form, f_ave is the
long-window mean itself, as the paper defines it.
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
from typing import Callable, Optional

import numpy as np

from .core import SystemSpec, grid_extreme
from .expressions import CompiledMap

#: Simpson panel density: panels per 2*pi of the fast clock
PANELS_PER_PERIOD = 40
#: most panels a window may take, so that its 2 * panels + 1 samples are indexable
_MAX_PANELS = np.iinfo(np.intp).max // 2


def _window(T: float) -> tuple:
    """(h, sample offsets k * h, Simpson weights) of a window of length T.

    The only check of a window's length: finite, positive and short enough to
    sample.  Every window takes the one panel rule, PANELS_PER_PERIOD panels
    per 2*pi and at least 2, and its mean is (h / 3) * (weights @ samples) / T.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"window length T must be finite and positive, got {T!r}")
    panels = PANELS_PER_PERIOD * T / (2.0 * math.pi)
    if not panels <= _MAX_PANELS:
        raise ValueError(f"window length T = {T!r} is too long to sample")
    n_sub = 2 * max(2, math.ceil(panels))
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = T / n_sub
    return h, np.arange(n_sub + 1) * h, w


def _at_samples(f: Callable, s: np.ndarray, K: int) -> Callable:
    """f(., ., tau, 0) at the samples s of K rows, as a map of (x, r) batches (K * len(s), .).

    A CompiledMap f is fixed at those clock values, so its subtrees of tau and
    eps alone are computed once, here, for every call of the map; any other f
    is called with them.
    """
    taus = np.broadcast_to(s, (K, s.shape[0])).reshape(-1)
    if isinstance(f, CompiledMap):
        return f.fixed(tau=taus, eps=0.0)
    return lambda x, r: f(x, r, taus, 0.0)


def _sample_window(f_at: Callable, x: np.ndarray, r: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """f(x, r, s, 0) at the window samples s for K rows x (K, n), r (K, p); shape (K, len(s), n).

    f_at is _at_samples(f, s, K).  It gets one 2-D batch, each row repeated
    over s (one row as stride-0 views beside s itself).  A non-finite value is
    an error naming f, x, r and the first such tau.
    """
    K, S = x.shape[0], s.shape[0]

    def rows(a):  # (K * S, a's width): each row of a repeated over s
        return np.broadcast_to(a[:, None], (K, S, a.shape[1])).reshape(K * S, -1)

    vals = np.asarray(f_at(rows(x), rows(r)), dtype=float).reshape(K, S, -1)
    bad = ~np.isfinite(vals)
    if bad.any():
        i, k, c = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"map 'f' returned a non-finite value ({float(vals[i, k, c])!r}) inside "
                         f"the window at x = {x[i].tolist()!r}, r = {r[i].tolist()!r}, "
                         f"tau = {float(s[k])!r}")
    return vals


def _window_means(spec: SystemSpec, x: np.ndarray, r: np.ndarray, tau0: float,
                  T: float, f_at: Optional[Callable] = None) -> np.ndarray:
    """Window means over [tau0, tau0 + T] for K rows x (K, n), r (K, p); shape (K, n).

    f_at is _at_samples(spec.f, tau0 + offsets, K) when the caller already holds it.
    """
    h, offsets, w = _window(T)
    s = tau0 + offsets
    f_at = _at_samples(spec.f, s, x.shape[0]) if f_at is None else f_at
    return (h / 3.0) * (w @ _sample_window(f_at, x, r, s)) / T


@dataclass(frozen=True)
class _LongWindowMean:
    """The average map as the long-window mean: f_ave(x, r) = avg(x, r, 0, T_long).

    Each call takes one window quadrature per row; r is one row (p,) or one
    per row of x (B, p).  The flow fixed at the window's samples is kept for
    the last batch length, so repeated calls at one B build it once; it is
    neither compared nor pickled.  Instances are safe to share.
    """

    spec: SystemSpec
    T_long: float
    _sampled: tuple = field(default=(0, None), init=False, compare=False, repr=False)

    def __reduce__(self):
        return _LongWindowMean, (self.spec, self.T_long)

    def __call__(self, x, r) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.atleast_2d(np.asarray(r, dtype=float))
        r = np.broadcast_to(r, (x.shape[0], r.shape[-1]))
        K, f_at = self._sampled  # one read: another thread may swap the pair
        if K != len(x):
            K, f_at = len(x), _at_samples(self.spec.f, _window(self.T_long)[1], len(x))
            object.__setattr__(self, "_sampled", (K, f_at))
        return _window_means(self.spec, x, r, 0.0, self.T_long, f_at)


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
    estimate_average_map also sets ``table``, the long-window means on its
    grid, shape (*axis lengths, n), and, against a closed form, their largest
    deviation ``nodal_residual`` and the (x, r) node ``nodal_witness`` where
    it occurs.
    """

    f: Callable = field(init=False, compare=False)
    epsilon: float = field(init=False, default=1.0)
    f_ave: Callable
    table: Optional[np.ndarray] = field(default=None, compare=False)
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


def _grid_sup(values: np.ndarray, what: str, x: np.ndarray, r: np.ndarray,
              tau0s: np.ndarray = ()) -> tuple:
    """(maximum, witness) of an estimate's samples by grid_extreme.

    values holds one row per (x, r) row and, with tau0s, one column per window
    start; the witness is the (x, r) or (x, r, tau0) sample achieving the
    maximum, the first in C order.  A non-finite sample is an error naming the
    quantity and point.
    """
    value, k = grid_extreme(values)
    row, *start = np.unravel_index(k, values.shape)
    witness = (x[row].copy(), r[row].copy(), *(float(tau0s[j]) for j in start))
    if not math.isfinite(value):
        at = ", ".join(f"{name} = {np.asarray(c).tolist()!r}"
                       for name, c in zip(("x", "r", "tau0"), witness))
        raise ValueError(f"{what} is non-finite ({value!r}) at {at}")
    return value, witness


def estimate_average_map(spec: SystemSpec, x_grid, r_grid, T_long: float,
                         f_ave: Optional[Callable] = None) -> AverageSpec:
    """Tabulate the long-window mean of the flow map and package the average system.

    ``x_grid`` / ``r_grid`` are per-dimension 1-D axes (a single array is one
    axis).  With a registered closed-form ``f_ave`` the table is compared
    with it and the returned AverageSpec wraps the closed form; otherwise
    its f_ave is the long-window mean itself, avg(x, r, 0, T_long), one
    window quadrature per row at every call.  A non-finite deviation from
    the table is an error naming its (x, r) node.
    """
    x_axes = _as_axes(x_grid, "x_grid")
    r_axes = _as_axes(r_grid, "r_grid")
    if len(x_axes) != spec.n or len(r_axes) != spec.p:
        raise ValueError("grid axes do not match system dimensions")
    axes = x_axes + r_axes
    flat = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    n = spec.n
    means = _window_means(spec, flat[:, :n], flat[:, n:], 0.0, T_long)
    table = means.reshape(tuple(len(a) for a in axes) + (n,))
    if f_ave is None:
        return replace(build_average_system(spec, _LongWindowMean(spec, T_long)), table=table)
    closed = np.asarray(f_ave(flat[:, :n], flat[:, n:]), dtype=float)
    nodal, node = _grid_sup(np.sqrt(np.sum((closed - means) ** 2, axis=-1)),
                            "deviation of favg from the window mean", flat[:, :n], flat[:, n:])
    return replace(build_average_system(spec, f_ave), table=table, nodal_residual=nodal,
                   nodal_witness=node)


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


def _envelope(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def _grid_rows(spec: SystemSpec, x_grid, r_grid, tau_grid, T_grid) -> tuple:
    """(x, r, tau0s, Ts): the grid's (x, r) rows, x-major, its window starts and lengths."""
    x_pts = np.atleast_2d(np.asarray(x_grid, dtype=float)).reshape(-1, spec.n)
    r_pts = np.atleast_2d(np.asarray(r_grid, dtype=float)).reshape(-1, spec.p)
    tau0s = np.asarray(tau_grid, dtype=float).ravel()
    Ts = np.asarray(T_grid, dtype=float).ravel()
    if not (x_pts.size and r_pts.size and tau0s.size and Ts.size):
        raise ValueError("x, r, tau and T grids must be non-empty")
    return (np.repeat(x_pts, r_pts.shape[0], axis=0), np.tile(r_pts, (x_pts.shape[0], 1)),
            tau0s, Ts)


def _start_means(spec: SystemSpec, x: np.ndarray, r: np.ndarray, tau0s: np.ndarray,
                 T: float) -> np.ndarray:
    """Window means of length T from every start in tau0s for K rows x (K, n), r (K, p).

    Shape (K, starts, n).  One _sample_window call per row, so that no call
    holds more than one row's samples; they share one f fixed at the samples.
    """
    h, offsets, w = _window(T)
    s = (tau0s[:, None] + offsets[None, :]).ravel()
    f_at = _at_samples(spec.f, s, 1)
    means = np.empty((x.shape[0], tau0s.shape[0], spec.n))
    for k in range(x.shape[0]):
        vals = _sample_window(f_at, x[k:k + 1], r[k:k + 1], s).reshape(tau0s.shape[0], -1, spec.n)
        means[k] = (h / 3.0) * np.einsum("q,tqn->tn", w, vals) / T
        del vals  # freed before the next row's samples are taken, not after
    return means


def estimate_gamma(spec: SystemSpec, f_ave: Callable, x_grid, r_grid,
                   tau_grid, T_grid) -> GammaCurve:
    """Grid supremum of |window mean - f_ave| / |x| per window length T.

    Every x in the grid must be nonzero (the bound is normalized by |x|).
    The result is a Definition-style certificate at grid resolution: at every
    grid point the window residual is <= gamma(T) * |x| by construction.  A
    non-finite residual is an error naming its (x, r, tau0) point.
    """
    x, r, tau0s, Ts = _grid_rows(spec, x_grid, r_grid, tau_grid, T_grid)
    norms = np.sqrt(np.sum(x * x, axis=-1))[:, None]
    if np.any(norms == 0.0):
        raise ValueError("x grid must exclude 0 (residuals are normalized by |x|)")
    ref = np.asarray(f_ave(x, r), dtype=float)[:, None]
    values, witnesses = np.zeros(Ts.shape[0]), []
    for ti, T in enumerate(Ts.tolist()):
        resid = np.sqrt(np.sum((_start_means(spec, x, r, tau0s, T) - ref) ** 2, axis=-1)) / norms
        values[ti], witness = _grid_sup(
            resid, f"window-mean residual of f against favg (T = {T!r})", x, r, tau0s)
        witnesses.append(witness)
    return GammaCurve(Ts, values, _envelope(values), tuple(witnesses))


def check_jacobian_average(spec: SystemSpec, f_ave: Callable, x_grid, r_grid,
                           tau_grid, T_grid) -> GammaCurve:
    """Window-averaged Jacobian of the residual d = f(., 0) - f_ave, per T.

    The Jacobian over (x, r) is taken by central differences with step
    1e-5 * max(1, |(x, r)|); because quadrature is linear, differencing the
    window means equals window-averaging the Jacobian.  Values are raw
    Frobenius magnitudes (the theoretical bound carries no |x| factor).  A
    non-finite magnitude is an error naming its (x, r, tau0) point.
    """
    x, r, tau0s, Ts = _grid_rows(spec, x_grid, r_grid, tau_grid, T_grid)
    n, dims = spec.n, spec.n + spec.p
    z = np.concatenate([x, r], axis=1)
    step = np.array([1e-5 * max(1.0, float(np.linalg.norm(row))) for row in z])
    # probe rows (row, coordinate, +h / -h); only the moved coordinate is touched
    probes = np.tile(z[:, None, None], (1, dims, 2, 1))
    moved = np.arange(dims)
    probes[:, moved, 0, moved] += step[:, None]
    probes[:, moved, 1, moved] -= step[:, None]
    probes = probes.reshape(-1, dims)
    f_probes = np.asarray(f_ave(probes[:, :n], probes[:, n:]), dtype=float)
    f_probes = f_probes.reshape(z.shape[0], dims, 2, 1, n)
    df = f_probes[:, :, 0] - f_probes[:, :, 1]
    values, witnesses = np.zeros(Ts.shape[0]), []
    for ti, T in enumerate(Ts.tolist()):
        means = _start_means(spec, probes[:, :n], probes[:, n:], tau0s, T)
        means = means.reshape(z.shape[0], dims, 2, tau0s.shape[0], n)
        cols = ((means[:, :, 0] - means[:, :, 1]) - df) / (2.0 * step)[:, None, None, None]
        jac = np.ascontiguousarray(np.moveaxis(cols, 1, -1))  # (rows, starts, n, dims)
        values[ti], witness = _grid_sup(np.sqrt(np.sum(jac * jac, axis=(2, 3))),
                                        f"Jacobian residual of f against favg (T = {T!r})",
                                        x, r, tau0s)
        witnesses.append(witness)
    return GammaCurve(Ts, values, _envelope(values), tuple(witnesses))


def build_average_system(spec: SystemSpec, f_ave: Callable) -> AverageSpec:
    """Assemble the average system: flow (f_ave, w), jump maps and sets reused verbatim."""
    return AverageSpec(n=spec.n, p=spec.p, m=spec.m, w=spec.w, g=spec.g, h=spec.h,
                       C=spec.C, D=spec.D, noise=spec.noise, f_ave=f_ave)
