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
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataset import VectorSet
from .distances import sqdist_exact

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
    """Exhaustive exact top-r by squared L2, ascending-id tie-break."""
    if data.dim != queries.dim:
        raise ValueError(
            f"dimension mismatch: data dim {data.dim}, queries dim {queries.dim}"
        )
    if not 1 <= r <= data.count:
        raise ValueError(f"r={r} out of range [1, {data.count}]")
    ids = np.empty((queries.count, r), dtype=np.int64)
    dists = np.empty((queries.count, r), dtype=np.float64)
    # Chunk queries so the (q, N) block stays modest.
    chunk = max(1, (8 << 20) // max(1, data.count))
    for start in range(0, queries.count, chunk):
        stop = min(start + chunk, queries.count)
        d2 = sqdist_exact(queries.data[start:stop], data.data)
        order = np.argsort(d2, axis=1, kind="stable")[:, :r]
        ids[start:stop] = order
        dists[start:stop] = np.take_along_axis(d2, order, axis=1)
    return GroundTruth(ids, dists)


@dataclass(eq=False)
class EvalReport:
    """Index quality and cost summary for one (index, queries, params) run.

    ``scanned`` keeps the raw per-query scan counts behind the histogram.
    """

    gamma: float
    variance: float
    selectivity: float
    recall_at_1: float
    scan_histogram: dict[int, int]
    bucket_width: float
    scanned: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class ScanHistogram:
    """A scan-count histogram with the bucket width it was counted at.

    Carries the same two fields as ``EvalReport``, for callers that have
    scan counts but no ground truth and so cannot build a full report.
    """

    scan_histogram: dict[int, int]
    bucket_width: float


def compute_scan_histogram(
    scanned: np.ndarray, bucket_width: float
) -> dict[int, int]:
    """Fixed-width histogram of per-query scan counts, keyed by bucket index."""
    if bucket_width <= 0:
        raise ValueError("bucket width must be positive")
    buckets = np.floor(np.asarray(scanned) / bucket_width).astype(np.int64)
    idx, cnt = np.unique(buckets, return_counts=True)
    return {int(i): int(c) for i, c in zip(idx, cnt)}


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
    bucket_width: float | None = None,
) -> EvalReport:
    """Measure selectivity, recall@1, imbalance and the scan-count histogram.

    Selectivity is the summed probed-cell populations over N * |queries|.
    A query scores a recall hit when its true nearest neighbor lies in one
    of its probed cells (it is then necessarily ranked first). gamma and
    Var come from the index's list lengths.
    """
    probed, found = _probe_hits(index, queries, params, truth, 1)
    n = index.source.count
    k = index.codebook.k
    list_sizes = index.list_sizes()
    scanned = list_sizes[probed].sum(axis=1)

    if bucket_width is None:
        bucket_width = n / (10.0 * k)
    return EvalReport(
        gamma=imbalance_factor(list_sizes),
        variance=list_variance(list_sizes),
        selectivity=float(scanned.sum()) / (n * queries.count),
        recall_at_1=float(found.mean()),
        scan_histogram=compute_scan_histogram(scanned, bucket_width),
        bucket_width=float(bucket_width),
        scanned=scanned,
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


def report_row(
    report: EvalReport, k: int, ma: int, iters: int, alpha: float | str
) -> dict:
    """One :func:`write_report_csv` row; ``alpha`` is ``""`` where unknown."""
    return dict(
        k=k, ma=ma, iters=iters, alpha=alpha, gamma=report.gamma,
        variance=report.variance, selectivity=report.selectivity,
        recall_at_1=report.recall_at_1,
    )


def write_report_csv(path: str | os.PathLike, rows: list[dict]) -> None:
    """Write evaluation rows: k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1."""
    lines = [REPORT_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row['k']},{row['ma']},{row['iters']},{row['alpha']!r},"
            f"{row['gamma']!r},{row['variance']!r},"
            f"{row['selectivity']!r},{row['recall_at_1']!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram_csv(
    path: str | os.PathLike, source: EvalReport | ScanHistogram
) -> None:
    """Write one histogram: bucket_lo,bucket_hi,count.

    ``source`` is an ``EvalReport`` or a ``ScanHistogram``; both carry the
    histogram (``scan_histogram``) and the ``bucket_width`` its bucket
    indices were counted at, and the bucket bounds are taken from that
    width.
    """
    histogram, bucket_width = source.scan_histogram, source.bucket_width
    lines = [HISTOGRAM_CSV_HEADER]
    for bucket in sorted(histogram):
        lo = bucket * bucket_width
        hi = (bucket + 1) * bucket_width
        lines.append(f"{lo!r},{hi!r},{histogram[bucket]}")
    Path(path).write_text("\n".join(lines) + "\n")
