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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    kind: str  # 'interval-box' | 'singleton' | 'finite-union-of-boxes'
    lows: tuple  # tuple of per-box lower-bound tuples
    highs: tuple  # tuple of per-box upper-bound tuples

    def __post_init__(self):
        if self.kind not in ("interval-box", "singleton", "finite-union-of-boxes"):
            raise ValueError(f"unknown set kind {self.kind!r}")
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
        return SetDescriptor("interval-box", (tuple(float(v) for v in lo),),
                             (tuple(float(v) for v in hi),))

    @staticmethod
    def point(values: Sequence[float]) -> "SetDescriptor":
        vals = tuple(float(v) for v in values)
        return SetDescriptor("singleton", (vals,), (vals,))

    @staticmethod
    def union_of(parts: Sequence["SetDescriptor"]) -> "SetDescriptor":
        lows, highs = [], []
        for part in parts:
            lows.extend(part.lows)
            highs.extend(part.highs)
        if len(lows) == 1:
            only = parts[0]
            return SetDescriptor(only.kind, tuple(lows), tuple(highs))
        return SetDescriptor("finite-union-of-boxes", tuple(lows), tuple(highs))

    @property
    def dim(self) -> int:
        return len(self.lows[0])

    @property
    def n_boxes(self) -> int:
        return len(self.lows)

    def contains(self, r) -> bool:
        """Exact membership of a single point r (shape (dim,))."""
        r = np.asarray(r, dtype=float)
        for lo, hi in zip(self.lows, self.highs):
            if np.all(r >= lo) and np.all(r <= hi):
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


def union_descriptor(c: SetDescriptor, d: SetDescriptor) -> SetDescriptor:
    """Descriptor for C union D (used for the target set A = {0} x (C u D))."""
    if c.dim != d.dim:
        raise ValueError("C and D must share a dimension")
    return SetDescriptor.union_of([c, d])


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
            if np.any(pr < 0.0):
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
        return union_descriptor(self.C, self.D)


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
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def t_end(self) -> float:
        return float(self.segments[-1].t[-1])

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


@dataclass(frozen=True)
class SamplingPlan:
    """Where validate_spec evaluates the structural conditions.

    ``x_shell`` > 0 replaces the exact origin condition on f by a shell
    consistency check sup |f(x,..)|/|x| over |x| in [x_shell, x_shell_max]
    (for systems whose regularity holds only outside a small ball).
    """

    r_points: int = 9
    tau_values: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 4.0 * np.pi, 25))
    eps_values: Optional[np.ndarray] = None  # default [0, spec.epsilon]
    v_samples: int = 8  # draws when the noise is sampler-only
    x_shell: float = 0.0
    x_shell_max: float = 3.0
    shell_points: int = 16


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


def _noise_samples(noise: JumpNoise, count: int) -> np.ndarray:
    if noise.kind == "finite-support":
        return noise.values
    return np.stack([noise.draw(0, k + 1) for k in range(count)])


def validate_spec(spec: SystemSpec, plan: Optional[SamplingPlan] = None) -> ValidationReport:
    """Grid-check the structural conditions a well-posed system must satisfy.

    Items: (i) the flow map vanishes at x = 0 (or stays linearly bounded on a
    shell when plan.x_shell > 0), (ii) the jump map vanishes at x = 0,
    (iii) jumps land back in C u D, (iv) sup |h| is finite, reported as the
    H estimate.  Failures are report entries with witness points, not errors.
    """
    plan = plan or SamplingPlan()
    cu = spec.flow_or_jump_set
    r_grid = cu.grid(plan.r_points)
    taus = np.asarray(plan.tau_values, dtype=float)
    eps_vals = plan.eps_values
    if eps_vals is None:
        eps_vals = np.array([0.0, spec.epsilon])
    v_samp = _noise_samples(spec.noise, plan.v_samples)
    items = []

    # (i) flow map at the origin
    worst = -np.inf
    witness = None
    if plan.x_shell <= 0.0:
        x0 = np.zeros((r_grid.shape[0], spec.n))
        for eps in eps_vals:
            for tau in taus:
                vals = np.asarray(spec.f(x0, r_grid, float(tau), float(eps)), dtype=float)
                mags = np.sqrt(np.sum(vals * vals, axis=-1))
                k = int(np.argmax(mags))
                if mags[k] > worst:
                    worst = float(mags[k])
                    witness = (0.0, tuple(r_grid[k]), float(tau), float(eps))
        items.append(ValidationItem("f(0, r, tau, eps) = 0", worst <= STRUCT_TOL,
                                    worst, witness, f"tol={STRUCT_TOL}"))
    else:
        radii = np.geomspace(plan.x_shell, plan.x_shell_max, plan.shell_points)
        xs = np.concatenate([radii, -radii])
        x_shell = np.zeros((xs.shape[0], spec.n))
        x_shell[:, 0] = xs
        bound = -np.inf
        for eps in eps_vals:
            for tau in taus:
                for rr in r_grid:
                    r_tile = np.broadcast_to(rr, (xs.shape[0], spec.p))
                    vals = np.asarray(spec.f(x_shell, r_tile, float(tau), float(eps)), dtype=float)
                    mags = np.sqrt(np.sum(vals * vals, axis=-1)) / np.abs(xs)
                    k = int(np.argmax(mags))
                    if mags[k] > bound:
                        bound = float(mags[k])
                        witness = (float(xs[k]), tuple(rr), float(tau), float(eps))
        items.append(ValidationItem("sup |f(x,..)|/|x| on shell", math.isfinite(bound),
                                    bound, witness,
                                    f"shell |x| in [{plan.x_shell}, {plan.x_shell_max}]"))

    # (ii) jump map at the origin
    worst = -np.inf
    witness = None
    x0 = np.zeros((r_grid.shape[0], spec.n))
    for v in v_samp:
        v_tile = np.broadcast_to(v, (r_grid.shape[0], spec.m))
        vals = np.asarray(spec.g(x0, r_grid, v_tile), dtype=float)
        mags = np.sqrt(np.sum(vals * vals, axis=-1))
        k = int(np.argmax(mags))
        if mags[k] > worst:
            worst = float(mags[k])
            witness = (0.0, tuple(r_grid[k]), tuple(v))
    items.append(ValidationItem("g(0, r, v) = 0", worst <= STRUCT_TOL, worst,
                                witness, f"tol={STRUCT_TOL}"))

    # (iii) jumps land in C u D; (iv) H = sup |h|
    d_grid = spec.D.grid(plan.r_points)
    h_sup = 0.0
    closure_ok = True
    witness = None
    for v in v_samp:
        v_tile = np.broadcast_to(v, (d_grid.shape[0], spec.m))
        post = np.asarray(spec.h(d_grid, v_tile), dtype=float)
        post = np.broadcast_to(post, (d_grid.shape[0], spec.p))
        mags = np.sqrt(np.sum(post * post, axis=-1))
        h_sup = max(h_sup, float(np.max(mags)))
        for k in range(post.shape[0]):
            if not cu.contains(post[k]):
                closure_ok = False
                if witness is None:
                    witness = (tuple(d_grid[k]), tuple(v), tuple(post[k]))
    items.append(ValidationItem("h(r, v) lands in C u D", closure_ok,
                                0.0 if closure_ok else 1.0, witness))
    items.append(ValidationItem("sup |h| finite (H bound)", math.isfinite(h_sup), h_sup))

    return ValidationReport(tuple(items), h_sup)
