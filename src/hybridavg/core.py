"""Domain model for stochastic hybrid systems with fast-oscillating flow maps.

A system couples a main state x in R^n (continuous flow ``xdot = f(x, r, tau,
eps)``), an auxiliary state r in R^p (timers/logic, ``rdot = w(r)``), and a
fast clock tau with ``taudot = 1/eps``.  Flowing is permitted while r lies in
the compact set C; when r lies in the compact set D the state jumps through
``x+ = g(x, r, v)``, ``r+ = h(r, v)`` with v an i.i.d. random input drawn at
each jump.

Map calling convention (used by every module in this package): maps are pure
callables on batched float64 arrays,

    f(x, r, tau, eps) -> (B, n)   x: (B, n), r: (B, p), tau: scalar or (B,)
    w(r)              -> (B, p)
    g(x, r, v)        -> (B, n)   v: (B, m)
    h(r, v)           -> (B, p)

and must be broadcast-safe and free of cross-batch reductions, so that each
batch element sees exactly the IEEE operations it would see alone.

Every bound sampled on a grid, here and in ``averaging`` and
``certificates``, is reduced by grid_extreme: the first extreme in C order,
or the first non-finite sample when there is one, so that a NaN a map
returned is never skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Callable, Optional, Sequence

import numpy as np

#: slack admitted on exact-zero structural conditions (floating point only)
STRUCT_TOL = 1e-9


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@total_ordering
@dataclass(frozen=True)
class HybridTime:
    """A point (t, j) of a hybrid time domain: elapsed time and jump count.

    Ordered by (t + j, t), which matches the order in which a hybrid arc
    visits its domain.
    """

    t: float
    j: int

    def __post_init__(self):
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if not (isinstance(self.j, (int, np.integer)) and self.j >= 0):
            raise ValueError(f"j must be a nonnegative integer, got {self.j}")

    def _key(self):
        return (self.t + self.j, self.t)

    def __lt__(self, other: "HybridTime") -> bool:
        return self._key() < other._key()


def hybrid_time_sum(ht: HybridTime) -> float:
    """Total hybrid time t + j, the quantity thresholded by recurrence budgets."""
    return ht.t + ht.j


@dataclass(frozen=True)
class SetDescriptor:
    """A compact subset of R^p: a closed box, a point, or a finite union of boxes.

    Stored uniformly as per-box (lo, hi) bound pairs; a singleton is a
    degenerate box.  Membership is exact (closed intervals, no tolerance).
    """

    lows: tuple  # tuple of per-box lower-bound tuples
    highs: tuple  # tuple of per-box upper-bound tuples

    def __post_init__(self):
        if len(self.lows) != len(self.highs) or not self.lows:
            raise ValueError("descriptor needs at least one (lo, hi) box")
        dim = len(self.lows[0])
        for lo, hi in zip(self.lows, self.highs):
            if len(lo) != dim or len(hi) != dim:
                raise ValueError("all boxes must share one dimension")
            for a, b in zip(lo, hi):
                if not (math.isfinite(a) and math.isfinite(b) and a <= b):
                    raise ValueError("boxes must be bounded with lo <= hi")

    @staticmethod
    def box(lo: Sequence[float], hi: Sequence[float]) -> "SetDescriptor":
        return SetDescriptor((tuple(float(v) for v in lo),), (tuple(float(v) for v in hi),))

    @staticmethod
    def point(values: Sequence[float]) -> "SetDescriptor":
        vals = tuple(float(v) for v in values)
        return SetDescriptor((vals,), (vals,))

    @staticmethod
    def union_of(parts: Sequence["SetDescriptor"]) -> "SetDescriptor":
        return SetDescriptor(tuple(lo for part in parts for lo in part.lows),
                             tuple(hi for part in parts for hi in part.highs))

    @property
    def dim(self) -> int:
        return len(self.lows[0])

    def contains(self, r) -> bool:
        """Exact membership of one point r: a sequence of floats or an array (dim,).

        A NaN coordinate is never a member.
        """
        if isinstance(r, np.ndarray):
            r = r.tolist()
        if len(r) != len(self.lows[0]):
            raise ValueError(f"point has {len(r)} coordinate(s), the set {self.dim}")
        for lo, hi in zip(self.lows, self.highs):
            if all(a <= v <= b for a, v, b in zip(lo, r, hi)):
                return True
        return False

    def distance(self, r) -> np.ndarray:
        """Euclidean distance from points r (..., dim) to the set."""
        r = np.asarray(r, dtype=float)
        best = None
        for lo, hi in zip(self.lows, self.highs):
            lo_a = np.asarray(lo)
            hi_a = np.asarray(hi)
            gap = np.maximum(np.maximum(lo_a - r, r - hi_a), 0.0)
            d = np.sqrt(np.sum(gap * gap, axis=-1))
            best = d if best is None else np.minimum(best, d)
        return best

    def grid(self, points_per_dim: int) -> np.ndarray:
        """Deterministic sampling grid covering the set, shape (K, dim)."""
        if points_per_dim < 1:
            raise ValueError("points_per_dim must be >= 1")
        chunks = []
        for lo, hi in zip(self.lows, self.highs):
            axes = []
            for a, b in zip(lo, hi):
                if a == b or points_per_dim == 1:
                    axes.append(np.array([0.5 * (a + b)]))
                else:
                    axes.append(np.linspace(a, b, points_per_dim))
            mesh = np.meshgrid(*axes, indexing="ij")
            chunks.append(np.stack([m.ravel() for m in mesh], axis=-1))
        return np.concatenate(chunks, axis=0)

    def bounding_box(self):
        lo = np.min(np.asarray(self.lows, dtype=float), axis=0)
        hi = np.max(np.asarray(self.highs, dtype=float), axis=0)
        return lo, hi


@dataclass(frozen=True)
class JumpNoise:
    """Distribution of the i.i.d. jump input v in R^m.

    Two kinds: ``finite-support`` carries explicit atoms with probabilities;
    ``sampler-only`` delegates to a user sampler with the contract that the
    same (seed, jump_index) always yields the same draw.  Draws are keyed by
    jump index, never by stream position, so refining the integrator step
    cannot change a realized jump sequence.
    """

    kind: str  # 'finite-support' | 'sampler-only'
    values: Optional[np.ndarray] = None  # (k, m)
    probs: Optional[np.ndarray] = None  # (k,)
    sampler: Optional[Callable[[int, int], np.ndarray]] = None
    m: int = 1

    def __post_init__(self):
        if self.kind == "finite-support":
            vals = np.atleast_2d(np.asarray(self.values, dtype=float))
            pr = np.asarray(self.probs, dtype=float).ravel()
            if vals.shape[0] != pr.shape[0]:
                raise ValueError("support values and probabilities disagree in length")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"support values must be finite, got {vals.tolist()!r}")
            if not np.all(pr >= 0.0):
                raise ValueError("probabilities must be nonnegative")
            total = float(np.sum(pr))
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"probabilities sum to {total!r}")
            object.__setattr__(self, "values", _readonly(vals))
            object.__setattr__(self, "probs", _readonly(pr))
            object.__setattr__(self, "m", int(vals.shape[1]))
            cum = np.cumsum(pr)
            cum.flags.writeable = False
            object.__setattr__(self, "_cum", cum)
        elif self.kind == "sampler-only":
            if self.sampler is None:
                raise ValueError("sampler-only noise needs a sampler")
            if self.m < 1:
                raise ValueError("noise dimension m must be >= 1")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @staticmethod
    def finite(values, probs) -> "JumpNoise":
        return JumpNoise("finite-support", values=np.asarray(values, dtype=float),
                         probs=np.asarray(probs, dtype=float))

    @staticmethod
    def from_sampler(sampler: Callable[[int, int], np.ndarray], m: int) -> "JumpNoise":
        return JumpNoise("sampler-only", sampler=sampler, m=m)

    def draw(self, seed: int, jump_index: int) -> np.ndarray:
        """Deterministic draw for the jump_index-th jump of the path with this seed."""
        if self.kind == "finite-support":
            rng = np.random.default_rng([int(seed), int(jump_index)])
            u = rng.random()
            idx = int(np.searchsorted(self._cum, u, side="right"))
            idx = min(idx, self.values.shape[0] - 1)
            return self.values[idx]
        v = np.asarray(self.sampler(int(seed), int(jump_index)), dtype=float).ravel()
        if v.shape != (self.m,):
            raise ValueError(f"sampler returned shape {v.shape}, expected ({self.m},)")
        return v


@dataclass(frozen=True)
class StateVec:
    """One point of the extended state: main x (n,), auxiliary r (p,), clock tau."""

    x: np.ndarray
    r: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.atleast_1d(self.x)))
        object.__setattr__(self, "r", _readonly(np.atleast_1d(self.r)))
        object.__setattr__(self, "tau", float(self.tau))
        if self.tau < 0.0 or not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.r))):
            raise ValueError("state components must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class SystemSpec:
    """Full description of one stochastic hybrid system instance.

    The flow set is R^n x C x R>=0 and the jump set R^n x D x R>=0: only the
    auxiliary state r is constrained, through box descriptors, which keeps
    membership tests exact and event detection free of root finding.
    """

    n: int
    p: int
    m: int
    f: Callable  # f(x, r, tau, eps) -> (B, n)
    w: Callable  # w(r) -> (B, p)
    g: Callable  # g(x, r, v) -> (B, n)
    h: Callable  # h(r, v) -> (B, p)
    C: SetDescriptor
    D: SetDescriptor
    noise: JumpNoise
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for name, dim in (("n", self.n), ("p", self.p), ("m", self.m)):
            if dim < 1:
                raise ValueError(f"dimension {name} must be >= 1")
        if self.C.dim != self.p or self.D.dim != self.p:
            raise ValueError("C and D must be descriptors over the r-component")
        if self.noise.m != self.m:
            raise ValueError("noise dimension disagrees with m")

    @cached_property
    def flow_or_jump_set(self) -> SetDescriptor:
        return SetDescriptor.union_of([self.C, self.D])


@dataclass(frozen=True)
class FlowSegment:
    """Samples of one flow interval at constant jump count j."""

    j: int
    t: np.ndarray  # (k,)
    x: np.ndarray  # (k, n)
    r: np.ndarray  # (k, p)
    tau: np.ndarray  # (k,)


@dataclass(frozen=True)
class JumpRecord:
    """One jump event: pre-state at hybrid time (t, j), draw v, post-state."""

    time: HybridTime
    x_pre: np.ndarray
    r_pre: np.ndarray
    tau: float
    v: np.ndarray
    x_post: np.ndarray
    r_post: np.ndarray


#: reasons a simulated path stops
TERMINAL_HORIZON_T = "horizon_t"
TERMINAL_HORIZON_J = "horizon_j"
TERMINAL_LEFT_SETS = "left_flow_jump_sets"


@dataclass(frozen=True)
class HybridArc:
    """One sample path: flow segments interleaved with recorded jumps.

    Consecutive segment t-intervals abut (segment j ends where segment j+1
    begins); every recorded jump fired with r in D; replaying the recorded
    draws through the solver reproduces the arc bit-exactly.
    """

    segments: tuple
    jumps: tuple
    seed: int
    terminal_reason: str

    @property
    def end_time(self) -> HybridTime:
        last = self.segments[-1]
        return HybridTime(float(last.t[-1]), int(last.j))

    def initial_state(self) -> StateVec:
        s0 = self.segments[0]
        return StateVec(s0.x[0], s0.r[0], float(s0.tau[0]))

    def final_state(self) -> StateVec:
        s1 = self.segments[-1]
        return StateVec(s1.x[-1], s1.r[-1], float(s1.tau[-1]))


def distances_to_target(x: np.ndarray, r: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Euclidean distances of rows (x (K, n), r (K, p)) to the target set A = {0} x (C u D).

    A row's distance is |x| whenever r lies in C u D, which holds along every solution.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if x.shape[-1] != spec.n or r.shape[-1] != spec.p:
        raise ValueError(f"rows need {spec.n} x and {spec.p} r column(s), "
                         f"got {x.shape[-1]} and {r.shape[-1]}")
    dr = spec.flow_or_jump_set.distance(r)
    dx2 = np.sum(x * x, axis=-1)
    return np.sqrt(dx2 + dr * dr)


#: where validate_spec samples: r points per set dimension, fast-clock values,
#: draws of sampler-only noise, and the outer radius and points of the |x| shell
VALIDATE_R_POINTS = 9
VALIDATE_TAUS = _readonly(np.linspace(0.0, 4.0 * np.pi, 25))
VALIDATE_V_SAMPLES = 8
SHELL_X_MAX = 3.0
SHELL_POINTS = 16


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    worst: float
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    items: tuple
    h_estimate: float

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def __str__(self) -> str:
        lines = []
        for it in self.items:
            status = "pass" if it.passed else "FAIL"
            lines.append(f"[{status}] {it.name}: worst={it.worst!r} {it.detail}")
            if not it.passed and it.witness is not None:
                lines.append(f"        witness: {it.witness}")
        lines.append(f"H estimate (sup |h|): {self.h_estimate!r}")
        return "\n".join(lines)


def grid_extreme(values, lowest: bool = False) -> tuple:
    """The largest (with lowest, the smallest) sample of a grid and its flat index.

    Ties go to the first sample in C order.  A non-finite sample (NaN or
    +-inf) outranks every finite one: when there is one, the first in C order
    is returned, so a bound taken over a grid never skips a point where a map
    could not be evaluated.  An empty grid has no extreme and raises ValueError.
    """
    flat = np.asarray(values, dtype=float).ravel()
    if not flat.size:
        raise ValueError("cannot reduce an empty grid")
    bad = ~np.isfinite(flat)
    k = int(np.argmax(bad)) if bad.any() else int(flat.argmin() if lowest else flat.argmax())
    return float(flat[k]), k


def _norms(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return np.sqrt(np.sum(vals * vals, axis=-1))


def _grid_item(name: str, mags: np.ndarray, witness_at: Callable, tol: float = math.inf,
               detail: str = "") -> ValidationItem:
    """An item judged by its grid maximum: it passes when that is finite and <= tol.

    The witness is the maximum's point, witness_at(*grid index), which is the
    first non-finite sample when there is one.
    """
    worst, k = grid_extreme(mags)
    return ValidationItem(name, math.isfinite(worst) and worst <= tol, worst,
                          witness_at(*np.unravel_index(k, mags.shape)), detail)


def _noise_samples(noise: JumpNoise, count: int) -> np.ndarray:
    if noise.kind == "finite-support":
        return noise.values
    return np.stack([noise.draw(0, k + 1) for k in range(count)])


def _float_tuple(row) -> tuple:
    """A witness coordinate: the entries of row as Python floats."""
    return tuple(map(float, row))


def validate_spec(spec: SystemSpec, x_shell: float = 0.0) -> ValidationReport:
    """Grid-check the structural conditions a well-posed system must satisfy.

    Items: (i) the flow map vanishes at x = 0 (or, when x_shell > 0, for
    systems whose regularity holds only outside a small ball, stays linearly
    bounded: sup |f(x,..)|/|x| over |x| in [x_shell, SHELL_X_MAX]), (ii) the
    jump map vanishes at x = 0, (iii) jumps land back in C u D, (iv) sup |h|
    is finite, reported as the H estimate.  Failures are report entries with
    witness points, not errors; an item that meets a non-finite value fails
    with that point as witness.
    """
    cu = spec.flow_or_jump_set
    r_grid = cu.grid(VALIDATE_R_POINTS)
    taus = VALIDATE_TAUS
    eps_vals = np.array([0.0, spec.epsilon])
    v_samp = _noise_samples(spec.noise, VALIDATE_V_SAMPLES)
    items = []

    # (i) flow map at the origin, grid (eps, tau, r)
    x0 = np.zeros((r_grid.shape[0], spec.n))
    if x_shell <= 0.0:
        mags = np.array([[_norms(spec.f(x0, r_grid, float(tau), float(eps))) for tau in taus]
                         for eps in eps_vals])
        items.append(_grid_item(
            "f(0, r, tau, eps) = 0", mags,
            lambda e, t, k: (0.0, _float_tuple(r_grid[k]), float(taus[t]), float(eps_vals[e])),
            STRUCT_TOL, f"tol={STRUCT_TOL}"))
    else:
        # grid (eps, tau, r, x) over the shell
        radii = np.geomspace(x_shell, SHELL_X_MAX, SHELL_POINTS)
        xs = np.concatenate([radii, -radii])
        x_ring = np.zeros((xs.shape[0], spec.n))
        x_ring[:, 0] = xs

        def gains(tau, eps):
            return [_norms(spec.f(x_ring, np.broadcast_to(rr, (xs.shape[0], spec.p)), tau, eps))
                    / np.abs(xs) for rr in r_grid]

        mags = np.array([[gains(float(tau), float(eps)) for tau in taus] for eps in eps_vals])
        items.append(_grid_item(
            "sup |f(x,..)|/|x| on shell", mags,
            lambda e, t, k, i: (float(xs[i]), _float_tuple(r_grid[k]), float(taus[t]),
                                float(eps_vals[e])),
            detail=f"shell |x| in [{x_shell}, {SHELL_X_MAX}]"))

    # (ii) jump map at the origin, grid (v, r)
    v_tiles = [np.broadcast_to(v, (r_grid.shape[0], spec.m)) for v in v_samp]
    mags = np.array([_norms(spec.g(x0, r_grid, v_tile)) for v_tile in v_tiles])
    items.append(_grid_item("g(0, r, v) = 0", mags,
                            lambda i, k: (0.0, _float_tuple(r_grid[k]), _float_tuple(v_samp[i])),
                            STRUCT_TOL, f"tol={STRUCT_TOL}"))

    # (iii) jumps land in C u D; (iv) H = sup |h|, grid (v, r in D)
    d_grid = spec.D.grid(VALIDATE_R_POINTS)

    def landing(v):
        v_tile = np.broadcast_to(v, (d_grid.shape[0], spec.m))
        post = np.asarray(spec.h(d_grid, v_tile), dtype=float)
        return np.broadcast_to(post, (d_grid.shape[0], spec.p))

    def jump_at(i, k):
        return (_float_tuple(d_grid[k]), _float_tuple(v_samp[i]), _float_tuple(post[i, k]))

    post = np.array([landing(v) for v in v_samp])
    outside = np.flatnonzero([not cu.contains(row) for row in post.reshape(-1, spec.p)])
    witness = jump_at(*np.unravel_index(outside[0], post.shape[:2])) if outside.size else None
    items.append(ValidationItem("h(r, v) lands in C u D", not outside.size,
                                1.0 if outside.size else 0.0, witness))
    h_bound = _grid_item("sup |h| finite (H bound)", _norms(post), jump_at)
    items.append(h_bound)
    return ValidationReport(tuple(items), h_bound.worst)
