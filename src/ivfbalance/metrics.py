"""Imbalance, variance, selectivity and recall measurements.

The imbalance factor of cell populations n_1..n_k with p_i = n_i / N is

    gamma = k * sum(p_i^2)

gamma is 1 exactly when all cells are equal and k when one cell holds
everything. For single-probe search over queries distributed like the data,
the expected number of scanned candidates is gamma * N / k, so gamma is a
direct multiplier on expected query cost. The companion response-size
variance is

    Var = N^2 * sum(p_i * (p_i - 1/k)^2)

which is zero exactly at perfect balance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dataset import VectorSet, write_csv
from .distances import block_cut, sqdist_exact, top_r

if TYPE_CHECKING:  # pragma: no cover
    from .index import InvertedFile, SearchParams

REPORT_CSV_HEADER = "k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1"
HISTOGRAM_CSV_HEADER = "bucket_lo,bucket_hi,count"

# Queries per block of brute_force_nn's float32 GEMM tiles.
_QUERY_BLOCK = 32


def _probabilities(counts: np.ndarray) -> tuple[np.ndarray, int]:
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.shape[0] < 1:
        raise ValueError("counts must be a non-empty 1-d array")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts are all zero")
    return counts / total, int(total)


def imbalance_factor(counts: np.ndarray) -> float:
    """gamma = k * sum(p_i^2); 1 at perfect balance, k at total collapse."""
    p, _ = _probabilities(counts)
    return float(len(p) * np.sum(p * p))


def list_variance(counts: np.ndarray) -> float:
    """Var = N^2 * sum(p_i * (p_i - 1/k)^2); zero iff perfectly balanced."""
    p, total = _probabilities(counts)
    k = len(p)
    return float(total * total * np.sum(p * (p - 1.0 / k) ** 2))


@dataclass(eq=False)
class GroundTruth:
    """Exact nearest neighbors per query: (Q, r) ids and ascending distances."""

    ids: np.ndarray
    dists: np.ndarray

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.dists = np.asarray(self.dists, dtype=np.float64)
        if self.ids.shape != self.dists.shape or self.ids.ndim != 2:
            raise ValueError("ground truth ids/dists must be matching 2-d arrays")

    @property
    def num_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def r(self) -> int:
        return self.ids.shape[1]


def brute_force_nn(data: VectorSet, queries: VectorSet, r: int) -> GroundTruth:
    """Exhaustive exact top-r by squared L2, ascending-id tie-break.

    Ids and distances are those of an exact scan: :func:`sqdist_exact` over
    every (query, point) pair, ranked by ``(distance, id)``. Blocks of
    queries go through :func:`~ivfbalance.distances.block_cut`, float32
    GEMM tiles of keys taken relative to a center of the points, which
    keeps the points each query's top r can hold; each query's points are
    then scored by :func:`sqdist_exact` and ranked on their own by
    :func:`~ivfbalance.distances.top_r`, so the result does not depend on
    how the queries are sliced into blocks or calls. The points are keyed
    once per set (``VectorSet.keys``, one float32 pass, shared with every
    index over it); no pass widens them or sums their squares in float64.
    """
    if data.dim != queries.dim:
        raise ValueError(
            f"dimension mismatch: data dim {data.dim}, queries dim {queries.dim}"
        )
    if not 1 <= r <= data.count:
        raise ValueError(f"r={r} out of range [1, {data.count}]")
    ids = np.empty((queries.count, r), dtype=np.int64)
    dists = np.empty((queries.count, r), dtype=np.float64)
    points, point_ids, keys = data.data, np.arange(data.count), data.keys
    for start in range(0, queries.count, _QUERY_BLOCK):
        block = queries.data[start : start + _QUERY_BLOCK].astype(np.float64)
        kept = block_cut(block, points, keys.half, keys.frame, r)
        for i, (query, keep) in enumerate(zip(block, kept), start):
            d2 = sqdist_exact(query[None, :], points[keep])[0]
            ids[i], dists[i] = top_r(point_ids[keep], d2, r)
    return GroundTruth(ids, dists)


@dataclass(frozen=True, eq=False)
class ScanHistogram:
    """Per-query scan counts and the bucket width their histogram uses."""

    scanned: np.ndarray = field(repr=False)
    bucket_width: float

    @property
    def scan_histogram(self) -> dict[int, int]:
        """Fixed-width histogram of ``scanned``, keyed by bucket index."""
        if self.bucket_width <= 0:
            raise ValueError("bucket width must be positive")
        buckets = np.floor(np.asarray(self.scanned) / self.bucket_width)
        idx, cnt = np.unique(buckets.astype(np.int64), return_counts=True)
        return {int(i): int(c) for i, c in zip(idx, cnt)}


@dataclass(frozen=True, eq=False)
class EvalReport(ScanHistogram):
    """Index quality and cost summary for one (index, queries, params) run."""

    gamma: float
    variance: float
    selectivity: float
    recall_at_1: float


def scan_costs(index: "InvertedFile", probed: np.ndarray) -> ScanHistogram:
    """Each query's scan cost, the summed population of its (Q, ma) probed
    cells, at the bucket width N / (10 k)."""
    return ScanHistogram(
        index.list_sizes()[probed].sum(axis=1), index.count / (10.0 * index.k)
    )


def _route(index: "InvertedFile", queries: VectorSet, params: "SearchParams") -> np.ndarray:
    from .index import route_cells_batch  # deferred: metrics <-> index cycle

    return route_cells_batch(queries.data, index.codebook, params.ma, params.route)


def _hits(index: "InvertedFile", probed: np.ndarray, truth: GroundTruth, r: int) -> np.ndarray:
    """A (Q, r) mask, True where a true top-r neighbor's cell is among its
    query's (Q, ma) ``probed`` cells."""
    if len(probed) == 0:
        raise ValueError("the query set is empty")
    if truth.num_queries != len(probed):
        raise ValueError(f"truth covers {truth.num_queries} queries, got {len(probed)}")
    truth_cells = index.cell_of_points()[truth.ids[:, :r]]
    return (truth_cells[:, :, None] == probed[:, None, :]).any(axis=2)


def probed_report(index: "InvertedFile", probed: np.ndarray, truth: GroundTruth) -> EvalReport:
    """Measure selectivity, recall@1, imbalance and the scan-count histogram
    of the queries whose (Q, ma) cells are ``probed``.

    Selectivity is the summed probed-cell populations over N * Q. A query
    scores a recall hit when its true nearest neighbor lies in one of its
    probed cells (it is then necessarily ranked first). gamma and Var come
    from the index's list lengths.
    """
    found = _hits(index, probed, truth, 1)
    costs = scan_costs(index, probed)
    list_sizes = index.list_sizes()
    return EvalReport(
        scanned=costs.scanned,
        bucket_width=costs.bucket_width,
        gamma=imbalance_factor(list_sizes),
        variance=list_variance(list_sizes),
        selectivity=float(costs.scanned.sum()) / (index.count * len(probed)),
        recall_at_1=float(found.mean()),
    )


def evaluate(
    index: "InvertedFile",
    queries: VectorSet,
    params: "SearchParams",
    truth: GroundTruth,
) -> EvalReport:
    """Route ``queries`` by ``params``, then :func:`probed_report`."""
    return probed_report(index, _route(index, queries, params), truth)


def recall_at_r(
    index: "InvertedFile",
    queries: VectorSet,
    params: "SearchParams",
    truth: GroundTruth,
    r: int,
) -> float:
    """Generalized recall: mean fraction of the true top-r found in probed
    cells. Not part of the headline report; recall@1 is the primary measure."""
    if not 1 <= r <= truth.r:
        raise ValueError(f"r={r} out of range [1, {truth.r}]")
    return float(_hits(index, _route(index, queries, params), truth, r).mean())


def write_report_csv(path: str | os.PathLike, rows: list[tuple]) -> None:
    """Write one line per ``(k, ma, iters, alpha, report)`` row under
    REPORT_CSV_HEADER; ``alpha`` is ``""`` where unknown."""
    write_csv(path, REPORT_CSV_HEADER, (
        (k, ma, iters, alpha, report.gamma, report.variance, report.selectivity,
         report.recall_at_1) for k, ma, iters, alpha, report in rows))


def write_histogram_csv(path: str | os.PathLike, source: ScanHistogram) -> None:
    """Write one histogram: bucket_lo,bucket_hi,count.

    ``source`` is a ``ScanHistogram`` or an ``EvalReport``; the bucket
    bounds are taken from its ``bucket_width``.
    """
    histogram, width = source.scan_histogram, source.bucket_width
    write_csv(path, HISTOGRAM_CSV_HEADER, (
        (bucket * width, (bucket + 1) * width, histogram[bucket]) for bucket in sorted(histogram)))
