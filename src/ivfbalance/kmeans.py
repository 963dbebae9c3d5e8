"""Lloyd's k-means: the initial codebook that balancing post-processes.

Everything is deterministic for a fixed seed. Ties break toward the lowest
index throughout, and per-point assignment is a pure function, so vectorized
execution matches sequential execution exactly.

k-means++ samples by D^2 weighting (Arthur and Vassilvitskii, 2007) on
exact weights, :func:`~ivfbalance.distances.sqdist_exact` values, so its
draws depend on the inputs alone, whatever the BLAS build. Lloyd's
assignment and distortion still run on the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import VectorSet
from .distances import RowKeys, _cut_at, _gamma, key_bounds, row_keys, sqdist_exact
from .distances import sqdist_to_centroids

DEFAULT_REL_TOL = 1e-4
DEFAULT_MAX_ITERS = 100

INIT_RANDOM_POINTS = "random-points"
INIT_KMEANS_PP = "kmeans-plus-plus"

# Rows per block of the weights' prefix sums in a k-means++ draw.
_DRAW_BLOCK = 1024


@dataclass(eq=False)
class Centroids:
    """k >= 1 cluster centers of dim >= 1, one per row. Values must be
    finite in float32, as the codebook files store them."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points)  # a read-only copy: ``keys`` is derived from it once
        if pts.ndim != 2 or 0 in pts.shape:
            raise ValueError(f"centroids must be k x dim with k, dim >= 1, got {pts.shape}")
        if not (np.abs(pts) <= np.finfo(np.float32).max).all():  # NaN fails too
            raise ValueError("centroids contain non-finite values or values past float32's range")
        pts.flags.writeable = False
        self.points = pts

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def keys(self) -> RowKeys:
        """The points' keys for balancing, build and routing, derived once."""
        return row_keys(self.points)


@dataclass(eq=False)
class Assignment:
    """Per-point cell ids over k cells, and the per-cell population
    ``counts`` derived from them once."""

    cell_of: np.ndarray
    k: int
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.cell_of = np.asarray(self.cell_of, dtype=np.int64)
        if self.cell_of.size and (
            self.cell_of.min() < 0 or self.cell_of.max() >= self.k
        ):
            raise ValueError("cell ids out of range")
        self.counts = np.bincount(self.cell_of, minlength=self.k)


@dataclass
class LloydResult:
    """Full k-means output: codebook, assignment and convergence record."""

    centroids: Centroids
    assignment: Assignment
    distortions: list[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def final_distortion(self) -> float:
        return self.distortions[-1]


def init_centroids(
    data: VectorSet, k: int, seed: int, method: str = INIT_KMEANS_PP
) -> Centroids:
    """Pick k starting centroids, deterministically per seed.

    ``random-points`` selects k distinct rows; ``kmeans-plus-plus`` samples
    by D^2 weighting on exact distances, each draw the row that
    ``rng.choice`` with those weights would give.
    """
    if not 0 < k <= data.count:
        raise ValueError(f"k={k} must be in [1, {data.count}], the number of points")
    rng = np.random.default_rng(seed)
    if method == INIT_RANDOM_POINTS:
        idx = rng.choice(data.count, size=k, replace=False)
        return Centroids(data.data[np.sort(idx)].astype(np.float32))
    if method != INIT_KMEANS_PP:
        raise ValueError(f"unknown init method: {method!r}")

    # Exact D^2 weights and their halves rounded up to float32. Each draw
    # keys every row against its new centre with one sgemv, and re-scores
    # only the rows whose key key_bounds cannot rule out getting nearer:
    # every row where E is +inf.
    x, keys, n = data.data, data.keys, data.count
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best = sqdist_exact(x[chosen[0]][None, :], x)[0]
    half_best, key = _half_up(best), np.empty(n, np.float32)
    for i in range(1, k):
        chosen[i] = _draw(best, rng)
        if chosen[i] < 0:
            # All remaining mass at distance zero: fall back to unchosen rows.
            chosen[i] = np.setdiff1d(np.arange(n), chosen[:i])[0]
        centre = x[chosen[i]]
        p, bound = key_bounds(centre, keys.frame)
        if bound < math.inf:
            np.subtract(keys.half, np.dot(x, p, out=key), out=key)
            cut = _cut_at(key[chosen[i]], bound)
            rows = np.flatnonzero(np.subtract(key, half_best, out=key) <= cut)
        else:
            rows = np.arange(n)
        lower = np.minimum(best[rows], sqdist_exact(centre[None, :], x, rows)[0])
        best[rows], half_best[rows] = lower, _half_up(lower)
    return Centroids(x[chosen])


def _half_up(weights: np.ndarray) -> np.ndarray:
    """Half of each float64 weight, rounded up to float32: +inf past its
    range."""
    exact = weights * 0.5
    with np.errstate(over="ignore"):
        half = exact.astype(np.float32)
    return np.nextafter(half, np.inf, out=half, where=half < exact)


def _draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    """The row ``rng.choice(len(weights), p=weights / weights.sum())``
    draws, reading the same one uniform u from ``rng``, or -1, reading
    none, where every weight is 0.

    ``rng.choice`` counts the rows j whose ``c_j`` is at most u, c being
    the running sum of those p divided by its last entry. Let S_j be the
    real sum of the weights up to row j, S that of all n rows, γ_k
    Higham's at float64's unit roundoff, and b = ``_DRAW_BLOCK``. Each p
    rounds once, the sums of nonnegative terms put at most n roundings on
    a weight and the division one, so ``|c_j - S_j / S| <= 2 γ_{2n+2}``.
    Sums of the weights in blocks of b rows, their running sums and the
    running sum inside one block, divided by their total, are within
    ``2 γ_{2n+3b+1}`` of ``S_j / S`` the same way. So where those of rows
    j - 1 and j lie more than ``ε = 5 γ_{2n+3b+1}`` below and above u
    (one γ to spare for the rounded differences, and for p that underflow,
    at most ``n 2^-1075`` in all) the row is j. Only where
    u is within ε of one of them is the running sum of p itself taken, as
    ``rng.choice`` takes it.
    """
    n = len(weights)
    starts = np.arange(0, n, _DRAW_BLOCK)
    ends = np.cumsum(np.add.reduceat(weights, starts))
    if ends[-1] <= 0.0:
        return -1
    u, total = rng.random(), ends[-1]
    block = int(ends.searchsorted(u * total, side="right"))
    if block < len(ends):
        base = ends[block - 1] if block else 0.0
        sums = np.cumsum(weights[starts[block] : starts[block] + _DRAW_BLOCK]) + base
        j = int(sums.searchsorted(u * total, side="right"))
        below = sums[j - 1] if j else base
        eps = 5 * _gamma(2 * n + 3 * _DRAW_BLOCK + 1)
        if j < len(sums) and min(sums[j] / total - u, u - below / total) > eps:
            return int(starts[block]) + j
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def assign_plain(data: VectorSet, centroids: Centroids) -> Assignment:
    """Assign each point to its nearest centroid (squared L2, lowest-index
    tie-break), one kernel row block at a time."""
    cells = sqdist_to_centroids(data.data, centroids.points,
                                reduce=lambda d2, _: d2.argmin(axis=1))
    return Assignment(cells, centroids.k)


def _update_means(
    data: VectorSet, assignment: Assignment, previous: Centroids
) -> Centroids:
    """Mean update with deterministic empty-cluster repair.

    An empty cluster is reseeded with the data point farthest from its
    current centroid, lowest id on ties, skipping the rows earlier empty
    clusters took, so two empty clusters never grab the same row.
    """
    k, dim = previous.k, data.dim
    # Float64 sums per (cell, column), added in row order as np.add.at does.
    sums = np.empty((k, dim))
    for j, column in enumerate(data.data.T):
        sums[:, j] = np.bincount(assignment.cell_of, column, k)
    counts = assignment.counts
    new_points = previous.points.astype(np.float64).copy()
    filled = counts > 0
    new_points[filled] = sums[filled] / counts[filled, None]

    taken: list[int] = []
    for cell in np.flatnonzero(~filled):
        d2 = sqdist_exact(previous.points[cell][None, :], data.data)[0]
        d2[taken] = -np.inf
        taken.append(int(np.argmax(d2)))  # first occurrence: lowest id of equally far rows
        new_points[cell] = data.data[taken[-1]].astype(np.float64)
    return Centroids(new_points.astype(np.float32))


def lloyd_full(
    data: VectorSet,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    rel_tol: float = DEFAULT_REL_TOL,
    init_method: str = INIT_KMEANS_PP,
) -> LloydResult:
    """Run Lloyd's algorithm and keep the full distortion trace.

    Alternates assignment and mean update until the relative distortion
    decrease drops below ``rel_tol`` or ``max_iters`` update passes ran.
    The returned assignment is consistent with the returned centroids, and
    the distortion sequence is non-increasing.
    """
    if data.count == 0:
        raise ValueError("cannot cluster an empty dataset")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    centroids = init_centroids(data, k, seed, init_method)
    assignment = assign_plain(data, centroids)
    prev = _distortion(data, centroids, assignment)
    distortions = [prev]
    iterations = 0
    for _ in range(max_iters):
        centroids = _update_means(data, assignment, centroids)
        assignment = assign_plain(data, centroids)
        cur = _distortion(data, centroids, assignment)
        distortions.append(cur)
        iterations += 1
        if cur == 0.0:
            break
        if prev > 0.0 and (prev - cur) / prev < rel_tol:
            break
        prev = cur
    return LloydResult(centroids, assignment, distortions, iterations)


def _distortion(
    data: VectorSet, centroids: Centroids, assignment: Assignment
) -> float:
    """Total squared distance from each point to its assigned centroid."""
    chosen = sqdist_to_centroids(data.data, centroids.points, reduce=lambda d2, s: d2[
        np.arange(len(d2)), assignment.cell_of[s]])
    return float(chosen.sum())
