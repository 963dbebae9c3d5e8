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
import io
import math
import os
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balancer import (
    DEFAULT_ALPHA,
    BalanceConfig,
    BalanceTrace,
    Codebook,
    StopRule,
    balance,
)
from .dataset import VectorSet, load_fvecs, write_csv, write_files
from .index import (
    ROUTE_PENALIZED,
    ROUTES,
    InvertedFile,
    SearchParams,
    build,
    route_cells_batch,
)
from .kmeans import lloyd_full
from .metrics import (
    GroundTruth,
    brute_force_nn,
    evaluate,
    scan_costs,
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
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    mode: str = MODE_CLOSED
    route: str = ROUTE_PENALIZED

    def __post_init__(self) -> None:
        if not self.ks or min(self.ks) < 1:
            raise ValueError("at least one k is required, each >= 1")
        if not self.mas or min(self.mas) < 1:
            raise ValueError("at least one ma is required, each >= 1")
        if max(self.mas) > min(self.ks):
            raise ValueError(f"ma={max(self.mas)} exceeds k={min(self.ks)}")
        if not self.iters:
            raise ValueError("iteration preset list must not be empty")
        if any(r < 0 for r in self.iters):
            raise ValueError("iteration presets must be >= 0")
        for name, values in (("k", self.ks), ("ma", self.mas), ("iteration preset", self.iters)):
            if len(set(values)) < len(values):
                raise ValueError(f"each {name} must appear once, got {list(values)}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.route not in ROUTES:
            raise ValueError(f"unknown route: {self.route!r}")
        if self.mode in (MODE_SEMICLOSED, MODE_OPEN) and self.learning is None:
            raise ValueError(f"mode {self.mode!r} requires a learning set")


def _load_sets(
    spec: ExperimentSpec, indexed: bool = True
) -> tuple[VectorSet | None, VectorSet, VectorSet]:
    """(database, k-means set, balancing set) for the spec's mode. The
    learning set is read only in the modes that train on it, and the
    database only where it is trained on or ``indexed``; otherwise the
    database slot is None."""
    db = load_fvecs(spec.db) if indexed or spec.mode != MODE_OPEN else None
    if spec.mode == MODE_CLOSED:
        return db, db, db
    learning = load_fvecs(spec.learning)
    if spec.mode == MODE_SEMICLOSED:
        return db, learning, db
    return db, learning, learning


def _load_queries(spec: ExperimentSpec, sweep: str) -> VectorSet:
    if spec.queries is None:
        raise ValueError(f"the {sweep} sweep requires a query set")
    return load_fvecs(spec.queries)


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
    config = BalanceConfig(stop=StopRule.fixed_iters(max(iteration_presets)), alpha=alpha)
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

    The cache file is written through ``write_files``, so a reader never
    sees a partial file. A cache file that cannot be read, or does not hold
    (Q, r) ids in ``[0, N)`` and distances, is recomputed and replaced.
    The key names no code version: :func:`brute_force_nn` returns the
    exact scan's bytes however it computes them, so a cache file written
    by an earlier version stays valid.
    """
    digest = hashlib.sha256(np.ascontiguousarray(db.data))  # hashed in place
    digest.update(np.ascontiguousarray(queries.data))
    digest.update(str(r).encode())
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file = cache_dir / f"gt_{digest.hexdigest()[:24]}.npz"
    try:
        with np.load(cache_file) as stored:
            truth = GroundTruth(stored["ids"], stored["dists"])
        ids = truth.ids
        if ids.shape == (queries.count, r) and 0 <= ids.min() <= ids.max() < db.count:
            return truth
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        pass  # missing, unreadable or malformed: recompute and replace it
    truth = brute_force_nn(db, queries, r)
    archive = io.BytesIO()
    np.savez(archive, ids=truth.ids, dists=truth.dists)
    write_files(cache_dir, {cache_file.name: archive.getvalue()})
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
    _, kmeans_set, balance_set = _load_sets(spec, indexed=False)
    out = _out_dir(spec)
    written = []
    for k, _, trace in _trained(spec, kmeans_set, balance_set):
        path = out / f"convergence_k{k}.csv"
        trace.to_csv(path)
        written.append(path)
    return written


def run_tradeoff(spec: ExperimentSpec) -> Path:
    """Grid over (k, iteration preset, ma): one evaluation row each."""
    queries = _load_queries(spec, "tradeoff")
    db, kmeans_set, balance_set = _load_sets(spec)
    out = _out_dir(spec)
    truth = ground_truth_cached(db, queries, 1, out / "gt_cache")
    rows = []
    for k, r, index in _indexes(spec, db, kmeans_set, balance_set):
        for ma in spec.mas:
            params = SearchParams(ma=ma, route=spec.route)
            report = evaluate(index, queries, params, truth)
            rows.append((k, ma, r, spec.alpha, report))
    path = out / "tradeoff.csv"
    write_report_csv(path, rows)
    return path


def run_histogram(spec: ExperimentSpec) -> tuple[list[Path], Path]:
    """Distribution of scan counts per preset, plus a variance summary. Each
    (k, preset) routes once, at the largest ``ma``: the probe order is an
    exact ranking, so each smaller ``ma`` probes its prefix."""
    queries = _load_queries(spec, "histogram")
    db, kmeans_set, balance_set = _load_sets(spec)
    out = _out_dir(spec)
    written, summary_rows = [], []
    for k, r, index in _indexes(spec, db, kmeans_set, balance_set):
        probed = route_cells_batch(queries.data, index.codebook, max(spec.mas), spec.route)
        for ma in spec.mas:
            costs = scan_costs(index, probed[:, :ma])
            path = out / f"histogram_k{k}_ma{ma}_r{r}.csv"
            write_histogram_csv(path, costs)
            written.append(path)
            mean = float(costs.scanned.mean())
            var = float(costs.scanned.var(ddof=1)) if costs.scanned.size > 1 else 0.0
            cv = float(np.sqrt(var) / mean) if mean > 0 else 0.0
            summary_rows.append((k, ma, r, mean, var, cv))
    summary = out / "histogram_summary.csv"
    write_csv(summary, HISTOGRAM_SUMMARY_HEADER, summary_rows)
    return written, summary
