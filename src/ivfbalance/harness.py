"""Experiment drivers: convergence traces, selectivity/recall sweeps, and
response-size histograms, each emitted as CSV.

Three learning setups control where the codebook comes from:

* ``closed``      — k-means and balancing both run on the indexed database.
* ``semiclosed``  — k-means on a separate learning set, balancing on the
                    database.
* ``open``        — k-means and balancing both on the learning set; the
                    database is indexed with the resulting codebook as-is,
                    so its cells may stay unbalanced if the two
                    distributions differ.

All randomness flows from the spec's seed; a fixed (spec, seed) pair
reproduces every CSV byte-for-byte on a fixed platform.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balancer import (
    BalanceConfig,
    BalanceTrace,
    Codebook,
    StopRule,
    balance,
)
from .dataset import VectorSet, load_fvecs
from .index import InvertedFile, SearchParams, build, route_cells_batch
from .kmeans import lloyd_full
from .metrics import (
    GroundTruth,
    ScanHistogram,
    brute_force_nn,
    compute_scan_histogram,
    evaluate,
    report_row,
    write_histogram_csv,
    write_report_csv,
)

MODE_CLOSED = "closed"
MODE_SEMICLOSED = "semiclosed"
MODE_OPEN = "open"
MODES = (MODE_CLOSED, MODE_SEMICLOSED, MODE_OPEN)

DEFAULT_ITER_PRESETS = (0, 8, 16, 32, 64)

HISTOGRAM_SUMMARY_HEADER = "k,ma,iters,scan_mean,scan_variance,scan_cv"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid: datasets, cluster counts, probes, presets."""

    db: str | os.PathLike
    out: str | os.PathLike
    ks: tuple[int, ...]
    mas: tuple[int, ...] = (1,)
    iters: tuple[int, ...] = DEFAULT_ITER_PRESETS
    queries: str | os.PathLike | None = None
    learning: str | os.PathLike | None = None
    alpha: float = 0.01
    seed: int = 0
    mode: str = MODE_CLOSED
    route: str = "penalized"

    def __post_init__(self) -> None:
        if not self.ks:
            raise ValueError("at least one k is required")
        if not self.mas:
            raise ValueError("at least one ma is required")
        if not self.iters:
            raise ValueError("iteration preset list must not be empty")
        if any(r < 0 for r in self.iters):
            raise ValueError("iteration presets must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode in (MODE_SEMICLOSED, MODE_OPEN) and self.learning is None:
            raise ValueError(f"mode {self.mode!r} requires a learning set")


def _load_sets(
    spec: ExperimentSpec,
) -> tuple[VectorSet, VectorSet | None, VectorSet, VectorSet]:
    """(database, queries, k-means set, balancing set) for the spec's mode."""
    db = load_fvecs(spec.db)
    queries = load_fvecs(spec.queries) if spec.queries is not None else None
    learning = load_fvecs(spec.learning) if spec.learning is not None else None
    if spec.mode == MODE_CLOSED:
        return db, queries, db, db
    if spec.mode == MODE_SEMICLOSED:
        return db, queries, learning, db
    return db, queries, learning, learning


def _require_queries(spec: ExperimentSpec, sweep: str) -> None:
    if spec.queries is None:
        raise ValueError(f"the {sweep} sweep requires a query set")


def codebooks_at_iterations(
    balance_set: VectorSet,
    codebook: Codebook,
    iteration_presets: tuple[int, ...],
    alpha: float,
) -> tuple[dict[int, Codebook], BalanceTrace]:
    """Balance once to the largest preset and snapshot every requested stage.

    The penalty recurrence is deterministic, so iteration l of one long run
    is bitwise identical to a separate run stopped at l; the trace keeps
    the full penalty vector per iteration, which makes the prefix snapshots
    exact.
    """
    target = max(iteration_presets)
    config = BalanceConfig(
        stop=StopRule.fixed_iters(target), alpha=alpha, max_iters_cap=target
    )
    _, trace = balance(balance_set, codebook, config)
    stages = {
        r: Codebook(codebook.centroids, trace.records[r].penalties.copy(), r)
        for r in sorted(set(iteration_presets))
    }
    return stages, trace


def _out_dir(spec: ExperimentSpec) -> Path:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def ground_truth_cached(
    db: VectorSet, queries: VectorSet, r: int, cache_dir: str | os.PathLike
) -> GroundTruth:
    """Brute-force ground truth, cached on disk keyed by dataset checksums.

    The cache file is written to a temporary name and renamed into place,
    so a reader never sees a partial file. A cache file that cannot be read
    or does not hold (Q, r) ids and distances is recomputed and replaced.
    """
    digest = hashlib.sha256()
    digest.update(db.data.tobytes())
    digest.update(queries.data.tobytes())
    digest.update(str(r).encode())
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file = cache_dir / f"gt_{digest.hexdigest()[:24]}.npz"
    try:
        with np.load(cache_file) as stored:
            truth = GroundTruth(stored["ids"], stored["dists"])
        if truth.ids.shape == (queries.count, r):
            return truth
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        pass  # missing, unreadable or malformed: recompute and replace it
    truth = brute_force_nn(db, queries, r)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, ids=truth.ids, dists=truth.dists)
        os.replace(tmp, cache_file)
    except BaseException:
        os.unlink(tmp)
        raise
    return truth


def _trained(
    spec: ExperimentSpec, kmeans_set: VectorSet, balance_set: VectorSet
) -> Iterator[tuple[int, dict[int, Codebook], BalanceTrace]]:
    """Per k: k-means, then the codebook at every balancing preset."""
    for k in spec.ks:
        result = lloyd_full(kmeans_set, k, spec.seed)
        stages, trace = codebooks_at_iterations(
            balance_set, Codebook.fresh(result.centroids), spec.iters, spec.alpha
        )
        yield k, stages, trace


def _indexes(
    spec: ExperimentSpec, db: VectorSet, kmeans_set: VectorSet, balance_set: VectorSet
) -> Iterator[tuple[int, int, InvertedFile]]:
    """Per k and balancing preset r: the database indexed at stage r."""
    for k, stages, _ in _trained(spec, kmeans_set, balance_set):
        for r in spec.iters:
            yield k, r, build(db, stages[r])


def run_convergence(spec: ExperimentSpec) -> list[Path]:
    """Per k: train, balance to the largest preset, dump the gamma trace."""
    _, _, kmeans_set, balance_set = _load_sets(spec)
    out = _out_dir(spec)
    written = []
    for k, _, trace in _trained(spec, kmeans_set, balance_set):
        path = out / f"convergence_k{k}.csv"
        trace.to_csv(path)
        written.append(path)
    return written


def run_tradeoff(spec: ExperimentSpec) -> Path:
    """Grid over (k, iteration preset, ma): one evaluation row each."""
    _require_queries(spec, "tradeoff")
    db, queries, kmeans_set, balance_set = _load_sets(spec)
    out = _out_dir(spec)
    truth = ground_truth_cached(db, queries, 1, out / "gt_cache")
    rows = []
    for k, r, index in _indexes(spec, db, kmeans_set, balance_set):
        for ma in spec.mas:
            params = SearchParams(ma=ma, route=spec.route)
            report = evaluate(index, queries, params, truth)
            rows.append(report_row(report, k, ma, r, spec.alpha))
    path = out / "tradeoff.csv"
    write_report_csv(path, rows)
    return path


def scanned_counts(
    index: InvertedFile, queries: VectorSet, ma: int, route: str = "penalized"
) -> np.ndarray:
    """Per-query scan cost: summed populations of the probed cells."""
    probed = route_cells_batch(queries.data, index.codebook, ma, route)
    return index.list_sizes()[probed].sum(axis=1)


def run_histogram(spec: ExperimentSpec) -> tuple[list[Path], Path]:
    """Distribution of scan counts per preset, plus a variance summary."""
    _require_queries(spec, "histogram")
    db, queries, kmeans_set, balance_set = _load_sets(spec)
    out = _out_dir(spec)
    written = []
    summary_lines = [HISTOGRAM_SUMMARY_HEADER]
    for k, r, index in _indexes(spec, db, kmeans_set, balance_set):
        for ma in spec.mas:
            scanned = scanned_counts(index, queries, ma, spec.route)
            width = db.count / (10.0 * k)
            path = out / f"histogram_k{k}_ma{ma}_r{r}.csv"
            write_histogram_csv(
                path, ScanHistogram(compute_scan_histogram(scanned, width), width)
            )
            written.append(path)
            mean = float(scanned.mean())
            var = float(scanned.var(ddof=1)) if scanned.size > 1 else 0.0
            cv = float(np.sqrt(var) / mean) if mean > 0 else 0.0
            summary_lines.append(f"{k},{ma},{r},{mean!r},{var!r},{cv!r}")
    summary = out / "histogram_summary.csv"
    summary.write_text("\n".join(summary_lines) + "\n")
    return written, summary
