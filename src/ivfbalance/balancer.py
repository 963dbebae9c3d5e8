"""Iterative cluster balancing via per-cell distance penalties.

Each cell carries a penalty ``b_i`` added to squared distances. Overfull
cells get their penalty inflated multiplicatively, underfull cells deflated:

    b_i(0)   = 1
    b_i(l+1) = b_i(l) * (n_i(l) / n_opt) ** alpha

with ``n_opt = N / k``. Reassigning under the penalized distance
``d(x, c_i)^2 + b_i`` then drains points from crowded cells into their
neighbors, driving populations toward ``n_opt``. Centroid positions are
never re-estimated during balancing; only the penalties move. So balancing
keys every point once, in one walk over the kernel row blocks
(``distances.keyed_blocks``, as build and batch routing do), and keeps
:class:`Candidates`: its ``TOP_L`` cells with the smallest keys, their
float32 products, its key bound E, and λ, a lower bound on the keys of all
its other cells, as Elkan's and Hamerly's k-means keep bounds on the
centroids they do not rescan (penalties move here, not centroids). Each
iteration cuts a point's candidates under the new penalties, as routing
cuts every cell (``distances.nearest_cells``). λ falls by at most the
largest drop of any cell's penalized half norm per iteration; a point
whose one kept candidate stays below λ is decided, and every other point
is re-scored on all cells by that walk over it, which resets its λ. Balancing,
build and routing therefore put every point in the same cell, whatever
the batch. The state costs N·TOP_L·5 bytes plus two float64 values per
point (9.6 MB at N=100k), against 4·N·k bytes (102 MB at k=256) for the
products with every centroid.

Geometrically, the penalized distance equals the plain squared L2 distance
in a (d+1)-space where point x becomes (x, 0) and centroid i becomes
(c_i, sqrt(b_i)): balancing elevates crowded centroids off the data
hyperplane, shrinking their cells. The test suite checks that identity.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import VectorSet, write_csv
from .distances import RowKeys, _cut_at, keyed_blocks, nearest_cells, row_keys, sqdist_pairs
from .distances import sqdist_to_centroids  # noqa: F401  (perfbench/spans.py wraps it here)
from .kmeans import Assignment, Centroids
from .metrics import imbalance_factor

DEFAULT_ALPHA = 0.01
B_FLOOR = 1e-9
DEFAULT_MAX_ITERS_CAP = 1000
COUNT_FLOOR = 1

# Candidate cells that balance keeps per point.
TOP_L = 16

STOP_FIXED_ITERS = "fixed_iters"
STOP_TARGET_GAMMA = "target_gamma"
STOP_TARGET_FRACTION = "target_fraction"


@dataclass(eq=False)
class Codebook:
    """Centroids plus per-cell penalties and the balancing iteration count.

    A fresh codebook has every penalty at 1 (squared-distance units, so the
    initial influence depends on data scale; see ``BalanceTrace.scale_ratio``
    for a diagnostic). Treated as an immutable value between iterations.
    """

    centroids: Centroids
    penalties: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        # A read-only copy: ``keys`` is derived from it once.
        self.penalties = np.array(self.penalties, dtype=np.float64)
        self.penalties.flags.writeable = False
        if self.penalties.shape != (self.centroids.k,):
            raise ValueError(
                f"expected {self.centroids.k} penalties, "
                f"got shape {self.penalties.shape}"
            )
        if not np.isfinite(self.penalties).all() or (self.penalties < 0).any():
            raise ValueError("penalties must be finite and non-negative")
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")

    @classmethod
    def fresh(cls, centroids: Centroids) -> "Codebook":
        return cls(centroids, np.ones(centroids.k, dtype=np.float64), 0)

    @property
    def k(self) -> int:
        return self.centroids.k

    @property
    def dim(self) -> int:
        return self.centroids.dim

    @cached_property
    def keys(self) -> RowKeys:
        """The centroids' keys with the penalties, as balancing, build and
        penalized routing pick cells on them, derived on first use."""
        return row_keys(self.centroids.points, self.penalties)


@dataclass(frozen=True)
class StopRule:
    """When to end the balancing loop.

    ``fixed_iters(r)`` runs exactly r penalty updates. ``target_gamma(g)``
    stops once the imbalance factor is <= g. ``target_fraction(f)`` stops
    once the excess over 1 has shrunk to a fraction f of the initial excess,
    i.e. gamma <= 1 + f * (gamma_0 - 1).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in (STOP_FIXED_ITERS, STOP_TARGET_GAMMA, STOP_TARGET_FRACTION):
            raise ValueError(f"unknown stop rule: {self.kind!r}")

    @classmethod
    def fixed_iters(cls, r: int) -> "StopRule":
        if r < 0:
            raise ValueError("iteration count must be >= 0")
        return cls(STOP_FIXED_ITERS, int(r))

    @classmethod
    def target_gamma(cls, gamma: float) -> "StopRule":
        if not gamma >= 1.0:
            raise ValueError(f"target gamma {gamma} is unreachable (gamma >= 1)")
        return cls(STOP_TARGET_GAMMA, float(gamma))

    @classmethod
    def target_fraction(cls, f: float) -> "StopRule":
        if not 0.0 < f <= 1.0:
            raise ValueError(f"target fraction must be in (0, 1], got {f}")
        return cls(STOP_TARGET_FRACTION, float(f))

    def describe(self) -> str:
        if self.kind == STOP_FIXED_ITERS:
            return f"fixed_iters({int(self.value)})"
        return f"{self.kind}({self.value})"


@dataclass(frozen=True)
class BalanceConfig:
    """Balancing parameters: speed exponent, stop rule and iteration cap.
    The cap bounds the updates of ``target_gamma`` and ``target_fraction``,
    which may never be met; ``fixed_iters(r)`` runs exactly r updates whatever the cap."""

    stop: StopRule
    alpha: float = DEFAULT_ALPHA
    max_iters_cap: int = DEFAULT_MAX_ITERS_CAP

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.max_iters_cap < 0:
            raise ValueError("max_iters_cap must be >= 0")


@dataclass
class TraceRecord:
    """State at the start of balancing iteration l, before the l-th update."""

    iteration: int
    gamma: float
    counts: np.ndarray
    penalties: np.ndarray


@dataclass
class BalanceTrace:
    """Per-iteration balancing record, one entry per completed iteration.

    ``scale_ratio`` is the mean exact squared nearest-centroid distance
    (no penalties) divided by the unit initial penalty: values far from 1
    mean the default b=1 is out of scale with the data.
    """

    records: list[TraceRecord] = field(default_factory=list)
    scale_ratio: float = float("nan")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])

    def to_csv(self, path: str | os.PathLike) -> None:
        """Export aggregates as CSV: iter,gamma,b_min,b_max,b_mean,n_min,n_max."""
        write_csv(path, "iter,gamma,b_min,b_max,b_mean,n_min,n_max", (
            (r.iteration, r.gamma, float(r.penalties.min()), float(r.penalties.max()),
             float(r.penalties.mean()), int(r.counts.min()), int(r.counts.max()))
            for r in self.records))


def _beyond(floor: np.ndarray, drop: float, cut: np.ndarray) -> np.ndarray:
    """Where every other cell's key is certified above the float32 ``cut``:
    ``fl64(F - D) > next32(cut)``, nowhere once D is +inf (see
    :func:`balance`)."""
    if drop == math.inf:
        return np.zeros(len(cut), dtype=bool)
    return floor - drop > np.nextafter(cut, np.float32(np.inf))


def _floor(key: np.ndarray, drop: float) -> np.ndarray:
    """``drop`` plus a float64 value below the real value of every float32
    key at least ``key``, rounded down: see :func:`balance`."""
    below = np.nextafter(key, np.float32(-np.inf)).astype(np.float64)
    return np.nextafter(below + drop, -np.inf)


@dataclass(eq=False)
class Candidates:
    """What :func:`balance` keeps of each point between iterations: its
    ``TOP_L`` cells with the smallest keys when balancing began (every cell
    where k <= TOP_L), laid out (TOP_L, N) with ids in the smallest unsigned
    dtype that holds k - 1, and their float32 ``products``; its key bound E
    without the penalties' term (``bound``); and ``floor``, λ rounded down
    plus the running ``drop`` when λ was last reset. ``half`` holds the
    penalized half norms that ``drop`` has been brought up to."""

    cells: np.ndarray
    products: np.ndarray
    bound: np.ndarray
    floor: np.ndarray
    half: np.ndarray
    drop: float = 0.0

    @classmethod
    def initial(cls, data: VectorSet, codebook: Codebook) -> tuple["Candidates", np.ndarray]:
        """The state from one walk over the kernel row blocks keyed against
        the plain centroids, and each point's plain nearest cell from it."""
        cells, n, k = codebook.keys, data.count, codebook.k
        top = min(TOP_L, k)
        state = cls(np.empty((top, n), np.min_scalar_type(k - 1)), np.empty((top, n), np.float32),
                    np.empty(n), np.full(n, np.inf), cells.half)
        nearest = np.empty(n, dtype=np.int64)
        for block, ids, product, keys, bound in keyed_blocks(data.data, codebook.centroids.keys):
            nearest[block], state.bound[block] = ids[:, 0], bound
            if top < k:
                keys = np.subtract(cells.half, product, out=keys)  # under the penalties
                best = np.argpartition(keys, top, axis=1)
                state.floor[block] = _floor(keys[np.arange(len(keys)), best[:, top]], 0.0)
            else:
                best = np.broadcast_to(np.arange(k), product.shape)
            state.cells[:, block] = best[:, :top].T
            state.products[:, block] = np.take_along_axis(product, best[:, :top], 1).T
            del product, keys, best  # not alive while the next block is keyed
        return state, nearest

    def assign(self, data: VectorSet, codebook: Codebook) -> np.ndarray:
        """Each point's cell under the codebook's penalties: the one kept
        candidate where :func:`balance`'s rule decides it, else the point's
        ``nearest_cells`` cell from a re-score on every cell."""
        cells = codebook.keys
        self._follow(cells.half)
        keys = np.empty(self.products.shape, np.float32)
        # One candidate row at a time: a whole ``take`` would widen every id to intp.
        for ids, key, product in zip(self.cells, keys, self.products):
            np.subtract(cells.half.take(ids), product, out=key)
        cut = _cut_at(keys.min(axis=0), self.bound + cells.term)
        kept = keys <= cut
        out = self.cells[kept.argmax(axis=0), np.arange(len(cut))].astype(np.int64)
        open_ = (np.count_nonzero(kept, axis=0) != 1) | ~_beyond(self.floor, self.drop, cut)
        self._rescore(data.data, np.flatnonzero(open_), cells, out)
        return out

    def _follow(self, half: np.ndarray) -> None:
        """Add the largest drop of any cell's penalized half norm since the
        last call to ``drop``, rounded up; +inf once a half norm overflows."""
        if half is self.half:
            return
        if self.drop < math.inf and np.isfinite(half).all() and np.isfinite(self.half).all():
            fall = float(np.subtract(self.half, half, dtype=np.float64).max())
            self.drop = math.nextafter(self.drop + math.nextafter(fall, math.inf), math.inf)
        else:
            self.drop = math.inf
        self.half = half

    def _rescore(self, x: np.ndarray, rows: np.ndarray, cells: RowKeys, out: np.ndarray) -> None:
        """``nearest_cells`` of ``rows`` into ``out``, one kernel row block at
        a time, resetting their λ from the fresh keys of their other cells."""
        top, k = self.cells.shape[0], len(cells.half)
        for block, ids, _, keys, _ in keyed_blocks(x, cells, rows=rows):
            out[block] = ids[:, 0]
            if top < k:
                keys[np.arange(len(block))[:, None], self.cells[:, block].T] = np.inf
                self.floor[block] = _floor(keys.min(axis=1), self.drop)
            del ids, keys  # not alive while the next block is keyed


def assign_balanced(data: VectorSet, codebook: Codebook,
                    candidates: Candidates | None = None) -> Assignment:
    """Assign each point to the cell minimizing its exact squared distance
    plus the cell's penalty, lowest index on ties (``nearest_cells``), from
    the points' :class:`Candidates` when the caller keeps them."""
    if candidates is None:
        return Assignment(nearest_cells(data.data, codebook.keys, 1)[:, 0], codebook.k)
    return Assignment(candidates.assign(data, codebook), codebook.k)


def update_penalties(
    codebook: Codebook, counts: np.ndarray, n_opt: float, alpha: float
) -> Codebook:
    """One multiplicative penalty update; returns a new Codebook.

    Zero counts are clamped to 1 inside the ratio (a zero count would make
    b=0 an absorbing state) and the result is clamped to ``B_FLOOR``. An
    alpha that takes a penalty past float64's range is refused.
    """
    counts = np.asarray(counts)
    if counts.shape != (codebook.k,):
        raise ValueError(f"expected {codebook.k} counts, got shape {counts.shape}")
    if not n_opt > 0:
        raise ValueError("n_opt must be positive")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ratio = np.maximum(counts, COUNT_FLOOR) / float(n_opt)
    with np.errstate(over="ignore", invalid="ignore"):
        new_b = np.maximum(codebook.penalties * ratio**alpha, B_FLOOR)
    if not np.isfinite(new_b).all():
        raise ValueError(
            f"alpha={alpha} overflows the penalties at iteration {codebook.iteration + 1}"
        )
    return Codebook(codebook.centroids, new_b, codebook.iteration + 1)


def _stop_satisfied(stop: StopRule, iteration: int, gamma: float, gamma0: float) -> bool:
    if stop.kind == STOP_FIXED_ITERS:
        return iteration >= stop.value
    if stop.kind == STOP_TARGET_GAMMA:
        return gamma <= stop.value
    return gamma <= 1.0 + stop.value * (gamma0 - 1.0)


def balance(
    data: VectorSet, codebook: Codebook, config: BalanceConfig
) -> tuple[Codebook, BalanceTrace]:
    """Run the balancing loop; returns the final codebook and the trace.

    Each iteration reassigns points under the current penalties, records
    the imbalance factor and penalty/count statistics, checks the stop rule,
    then applies one penalty update. ``fixed_iters(r)`` runs exactly r
    updates; ``max_iters_cap`` bounds the updates of a target rule, whose
    target may never be met: convergence is empirical, not guaranteed.

    One ``keyed_blocks`` walk over the data keys every point and keeps its
    :class:`Candidates`. With ``hb_j`` cell j's float32 penalized half
    norm and ``q_j`` the point's float32 product with it, cell j's key is
    ``fl32(hb_j - q_j)``, one float32 rounding of the real ``y_j = hb_j -
    q_j``. λ is the smallest key among the point's other cells when it was
    last taken, at iteration s. ``D`` is the running sum over iterations
    of the largest drop of any ``hb_j``, and the state holds
    ``F = fl64(prev32(λ) + D_s)`` rounded down. At iteration t a point is
    decided from its candidates alone when exactly one candidate key is
    at or below its cut ``_cut_at(κ, E + term)``, κ the smallest candidate
    key, and ``fl64(F - D_t) > next32(cut)``. Why every other cell's key
    is then above the cut:

    * Rounding to nearest is monotone, in float32's normal and subnormal
      ranges and at overflow alike. So a real y whose key is at least λ
      exceeds ``prev32(λ)``, the float32 below λ (2^-149 below it in the
      subnormal range, the largest float32 for λ = +inf): ``y_j(s) >
      prev32(λ)`` for every other cell.
    * Each iteration adds to ``D`` the largest float64 difference
      ``hb_j(old) - hb_j(new)`` over the cells, stepped up one float64,
      and steps the sum up one float64. A float64 rounding errs by at most
      half a step and a difference of two float32 values is rounded at
      most once (it is exact unless their exponents lie more than 29
      apart), so ``D_t - D_s >= hb_j(s) - hb_j(t)`` for every cell j.
    * ``prev32(λ)`` widens exactly and its sum with ``D_s`` rounds once,
      so F, stepped down one float64, is at most ``prev32(λ) + D_s``.
    * ``next32(cut)`` is a float64 too, so ``fl64(F - D_t) > next32(cut)``
      gives ``F - D_t > next32(cut)`` in reals (monotone rounding again).

    Then ``y_j(t) = y_j(s) - (hb_j(s) - hb_j(t)) > prev32(λ) - (D_t - D_s)
    >= F - D_t > next32(cut)``, so each other key ``fl32(y_j(t))`` is at
    least the float32 ``next32(cut)``, above the cut. The cells keyed at
    or below the cut are the kept candidates, and κ is the smallest key of
    all k cells. The cut keeps every cell of smallest ``fl64(X + b)`` for
    any products within E (:func:`distances.key_bounds`), so the one kept
    cell is the unique such cell: the point's ``nearest_cells`` cell.

    Every other point is re-scored on all cells by ``keyed_blocks``' walk
    over the open rows, one kernel row block of them at a time, and its F
    is reset from the keys that walk yields for its other cells: the
    near-ties, the points whose E is +inf (their cut is +inf), and every
    point once a half norm overflows (``D`` is then +inf). Where k <=
    ``TOP_L`` every cell is a candidate and F is +inf. The candidates and
    their products stay as the first pass chose them. Each point's cell
    is thus a function of that point alone, and counts, penalties and the
    trace are those of ranking every cell of every point on every
    iteration. The state holds N·TOP_L·5 bytes plus two float64 values
    per point, and nothing ``balance`` allocates scales with N·k.
    """
    if data.count == 0:
        raise ValueError("cannot balance an empty dataset")
    n_opt = data.count / codebook.k
    candidates, nearest = Candidates.initial(data, codebook)
    plain = sqdist_pairs(data.data, codebook.centroids.points, np.arange(data.count), nearest)
    trace = BalanceTrace(scale_ratio=float(plain.mean()))
    iteration = 0
    while True:
        assignment = assign_balanced(data, codebook, candidates)
        gamma = imbalance_factor(assignment.counts)
        trace.records.append(
            TraceRecord(
                iteration, gamma, assignment.counts, codebook.penalties.copy()
            )
        )
        if _stop_satisfied(config.stop, iteration, gamma, trace.records[0].gamma):
            break
        if config.stop.kind != STOP_FIXED_ITERS and iteration >= config.max_iters_cap:
            break
        codebook = update_penalties(
            codebook, assignment.counts, n_opt, config.alpha
        )
        iteration += 1
    return codebook, trace
