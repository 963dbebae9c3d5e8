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
from .distances import nearest_r, sq_norms, sqdist_exact

if TYPE_CHECKING:  # pragma: no cover
    from .index import InvertedFile, SearchParams

REPORT_CSV_HEADER = "k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1"
HISTOGRAM_CSV_HEADER = "bucket_lo,bucket_hi,count"


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
    every (query, point) pair, ranked by ``(distance, id)``. Each query is
    ranked on its own by :func:`~ivfbalance.distances.nearest_r`, search's
    screened top-r with every point as a candidate, so they do not depend
    on how the queries are sliced into calls. The points' squared norms
    are computed once per call.
    """
    if data.dim != queries.dim:
        raise ValueError(
            f"dimension mismatch: data dim {data.dim}, queries dim {queries.dim}"
        )
    if not 1 <= r <= data.count:
        raise ValueError(f"r={r} out of range [1, {data.count}]")
    ids = np.empty((queries.count, r), dtype=np.int64)
    dists = np.empty((queries.count, r), dtype=np.float64)
    points_sq, point_ids = sq_norms(data.data), np.arange(data.count)
    for i, query in enumerate(queries.data):
        ids[i], dists[i] = nearest_r(sqdist_exact, query, data.data, points_sq, point_ids, r)
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


def _probe_hits(
    index: "InvertedFile",
    queries: VectorSet,
    params: "SearchParams",
    truth: GroundTruth,
    r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The (Q, ma) probed cells, and a (Q, r) mask that is True where a
    true top-r neighbor's cell is among its query's probed cells."""
    from .index import route_cells_batch  # deferred: metrics <-> index cycle

    if queries.count == 0:
        raise ValueError("the query set is empty")
    if truth.num_queries != queries.count:
        raise ValueError(
            f"truth covers {truth.num_queries} queries, got {queries.count}"
        )
    probed = route_cells_batch(queries.data, index.codebook, params.ma, params.route)
    truth_cells = index.cell_of_points()[truth.ids[:, :r]]
    found = (truth_cells[:, :, None] == probed[:, None, :]).any(axis=2)
    return probed, found


def evaluate(
    index: "InvertedFile",
    queries: VectorSet,
    params: "SearchParams",
    truth: GroundTruth,
) -> EvalReport:
    """Measure selectivity, recall@1, imbalance and the scan-count histogram.

    Selectivity is the summed probed-cell populations over N * |queries|.
    A query scores a recall hit when its true nearest neighbor lies in one
    of its probed cells (it is then necessarily ranked first). gamma and
    Var come from the index's list lengths.
    """
    probed, found = _probe_hits(index, queries, params, truth, 1)
    costs = scan_costs(index, probed)
    list_sizes = index.list_sizes()
    return EvalReport(
        scanned=costs.scanned,
        bucket_width=costs.bucket_width,
        gamma=imbalance_factor(list_sizes),
        variance=list_variance(list_sizes),
        selectivity=float(costs.scanned.sum()) / (index.count * queries.count),
        recall_at_1=float(found.mean()),
    )


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
    _, found = _probe_hits(index, queries, params, truth, r)
    return float(found.mean())


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
