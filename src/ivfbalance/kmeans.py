"""Lloyd's k-means: the initial codebook that balancing post-processes.

Everything is deterministic for a fixed seed. Ties break toward the lowest
index throughout, and per-point assignment is a pure function, so vectorized
execution matches sequential execution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import VectorSet
from .distances import RowKeys, row_keys, sq_norms, sqdist_to_centroids

DEFAULT_REL_TOL = 1e-4
DEFAULT_MAX_ITERS = 100

INIT_RANDOM_POINTS = "random-points"
INIT_KMEANS_PP = "kmeans-plus-plus"


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
    by the standard D^2 weighting.
    """
    if not 0 < k <= data.count:
        raise ValueError(f"k={k} must be in [1, {data.count}], the number of points")
    rng = np.random.default_rng(seed)
    if method == INIT_RANDOM_POINTS:
        idx = rng.choice(data.count, size=k, replace=False)
        return Centroids(data.data[np.sort(idx)].astype(np.float32))
    if method != INIT_KMEANS_PP:
        raise ValueError(f"unknown init method: {method!r}")

    # Widen once and keep |x|^2 across the k draws.
    x = data.data.astype(np.float64)
    x_sq = sq_norms(x)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(data.count)
    best = sqdist_to_centroids(x, x[chosen[0]][None, :], x_sq)[:, 0]
    for i in range(1, k):
        total = best.sum()
        if total <= 0.0:
            # All remaining mass at distance zero: fall back to unchosen rows.
            remaining = np.setdiff1d(np.arange(data.count), chosen[:i])
            chosen[i] = remaining[0]
        else:
            chosen[i] = rng.choice(data.count, p=best / total)
        new_d = sqdist_to_centroids(x, x[chosen[i]][None, :], x_sq)[:, 0]
        np.minimum(best, new_d, out=best)
    return Centroids(data.data[chosen].astype(np.float32))


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
        d2 = sqdist_to_centroids(data.data, previous.points[cell][None, :])[:, 0]
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
