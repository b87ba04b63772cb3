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

Every bound sampled on a grid, in ``averaging`` and ``certificates``, is
reduced by grid_extreme: the first extreme in C order, or the first
non-finite sample when there is one, so that a NaN a map returned is never
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i = 0..n, as a (n + 1, 1) uint32 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy.random.SeedSequence's hash constants: hashmix i of its pool mixing
# xors with _POOL[i] and multiplies by _POOL[i + 1]; word i of generate_state
# does so with _STATE[i] and _STATE[i + 1]
_POOL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# PCG64's 128-bit multiplier; seeding and the first output take two steps from
# state 0 + inc + initstate, so the multiplier enters squared
_MASK_128, _MASK_64 = (1 << 128) - 1, (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_2, _PCG_MULT_1 = _PCG_MULT * _PCG_MULT & _MASK_128, _PCG_MULT + 1

#: smallest batch of seeds whose finite-support draws at one jump index are
#: computed together (see JumpNoise.draws): per group on a 2-vCPU Xeon, that
#: took 48-58 us at 1 seed, 61-82 us at 5 and 62-79 us at 6, against draw per
#: seed's 16-27, 66-86 and 81-101 us
_GROUP_DRAWS = 6


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _keyed_uniforms(seeds, k: int) -> list:
    """np.random.default_rng([s, k]).random() for each s of seeds, bit for bit.

    Every seed and k must lie in [0, 2**32), so the entropy is the two words
    [s, k].  SeedSequence's pool mixing and generate_state(4, uint64) run over
    all seeds at once in uint32 numpy arithmetic, which wraps as its C code
    does; PCG64's seeding, one step and its XSL-RR output follow per seed in
    Python ints, and the double is the output's top 53 bits times 2**-53.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds, k
    pool = _hashmix(pool, _POOL[:4], _POOL[1:5])
    n = 4
    for src in range(4):  # mix every pool word into each of the others, in order
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL[n:n + 3],
                                                       _POOL[n + 1:n + 4])
        pool[dst] = mixed ^ (mixed >> _SHIFT)
        n += 3
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE[:8], _STATE[1:9]).astype(np.uint64)
    out = []
    # the four little-endian uint64 words: initstate's high and low, initseq's
    for s_hi, s_lo, q_hi, q_lo in (words[0::2] | words[1::2] << np.uint64(32)).T.tolist():
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK_128
        s = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT_2 + inc * _PCG_MULT_1) & _MASK_128
        x, rot = (s >> 64 ^ s) & _MASK_64, s >> 122
        out.append(((x >> rot | x << (64 - rot)) & _MASK_64) >> 11)
    return [u * (1.0 / 9007199254740992.0) for u in out]


@dataclass(frozen=True)
class HybridTime:
    """A point (t, j) of a hybrid time domain: elapsed time and jump count."""

    t: float
    j: int

    def __post_init__(self):
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if not (isinstance(self.j, (int, np.integer)) and self.j >= 0):
            raise ValueError(f"j must be a nonnegative integer, got {self.j}")


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
    cannot change a realized jump sequence.  A finite-support draw picks the
    atom at np.random.default_rng([seed, jump_index]).random() on the
    cumulative probabilities; draws gives the draws of many seeds at one jump
    index, the solver's one call per jumping group and noise object, with the
    same bits.
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

    def draws(self, seeds, jump_index: int) -> np.ndarray:
        """The (B, m) stack of draw(seed, jump_index) for each seed of seeds, with its bits.

        Finite-support noise draws at least _GROUP_DRAWS seeds in [0, 2**32),
        at a jump index in [0, 2**32), in one computation of their uniforms
        (see _keyed_uniforms), each bit-identical to
        default_rng([seed, jump_index]).random().  Any other case calls draw
        per seed, so it raises draw's errors (a negative seed, a sampler's shape).
        """
        seeds, k = [int(s) for s in seeds], int(jump_index)
        if (self.kind != "finite-support" or len(seeds) < _GROUP_DRAWS or not 0 <= k < 2**32
                or not 0 <= min(seeds) <= max(seeds) < 2**32):
            return np.stack([self.draw(s, k) for s in seeds])
        idx = np.searchsorted(self._cum, _keyed_uniforms(seeds, k), side="right")
        return self.values[np.minimum(idx, self.values.shape[0] - 1)]


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


def distances_to_target(x: np.ndarray, r: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Euclidean distances of rows (x (K, n), r (K, p)) to the target set A = {0} x (C u D).

    A row's distance is |x| whenever r lies in C u D.  That holds at every
    sample of a solution but one: a jump that lands outside C u D ends the
    path on a one-sample segment holding that r, whose distance also counts
    r's distance to C u D.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if x.shape[-1] != spec.n or r.shape[-1] != spec.p:
        raise ValueError(f"rows need {spec.n} x and {spec.p} r column(s), "
                         f"got {x.shape[-1]} and {r.shape[-1]}")
    dr = spec.flow_or_jump_set.distance(r)
    dx2 = np.sum(x * x, axis=-1)
    return np.sqrt(dx2 + dr * dr)


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
