"""Every argument check of the public API rejects its bad input with a
ValueError that names the fault."""

import numpy as np
import pytest

from ivfbalance import (
    BalanceConfig,
    Centroids,
    Codebook,
    ExperimentSpec,
    StopRule,
    VectorSet,
    balance,
    imbalance_factor,
    init_centroids,
    lloyd_full,
    mixture_centers,
    select_cells,
    update_penalties,
)
from ivfbalance.distances import sqdist_to_centroids
from ivfbalance.index import InvertedFile, route_cells_batch
from ivfbalance.metrics import GroundTruth, ScanHistogram, recall_at_r

POINTS = VectorSet.from_array(np.arange(12.0).reshape(6, 2))
CODEBOOK = Codebook.fresh(Centroids(POINTS.data[:2]))
TRUTH = GroundTruth(np.zeros((1, 2)), np.zeros((1, 2)))

CASES = {
    "negative-fixed-count": (lambda: StopRule.fixed_iters(-1), "iteration count must be >= 0"),
    "negative-cap": (
        lambda: BalanceConfig(StopRule.fixed_iters(1), max_iters_cap=-1),
        "max_iters_cap must be >= 0",
    ),
    "unknown-stop-kind": (
        lambda: balance(POINTS, CODEBOOK, BalanceConfig(StopRule("bogus", 1))),
        "unknown stop rule: 'bogus'",
    ),
    "infinite-alpha": (
        lambda: BalanceConfig(StopRule.fixed_iters(1), alpha=np.inf),
        "alpha must be positive and finite, got inf",
    ),
    # A finite alpha can still take a penalty past float64's range.
    "overflowing-alpha": (
        lambda: update_penalties(CODEBOOK, np.array([6, 0]), 3.0, 1e308),
        r"alpha=1e\+308 overflows the penalties at iteration 1",
    ),
    # A sweep is refused before any file is read or any training runs.
    "repeated-k": (
        lambda: ExperimentSpec("db", "out", ks=(8, 8)), r"each k must appear once, got \[8, 8\]"
    ),
    "repeated-ma": (
        lambda: ExperimentSpec("db", "out", ks=(8,), mas=(2, 1, 2)),
        r"each ma must appear once, got \[2, 1, 2\]",
    ),
    "repeated-iteration-preset": (
        lambda: ExperimentSpec("db", "out", ks=(8,), iters=(4, 4)),
        r"each iteration preset must appear once, got \[4, 4\]",
    ),
    "infinite-alpha-of-a-sweep": (
        lambda: ExperimentSpec("db", "out", ks=(8,), alpha=np.inf),
        "alpha must be positive and finite, got inf",
    ),
    # Before any balancing work: the rule itself is refused.
    "unknown-stop-kind-alone": (lambda: StopRule("bogus", 1), "unknown stop rule: 'bogus'"),
    "vector-set-of-a-list": (lambda: VectorSet([[1.0, 2.0]]), "must be a 2-d numpy array"),
    "vector-set-of-float64": (
        lambda: VectorSet(np.zeros((2, 2))), "must be float32, got float64"
    ),
    "1-d-array-of-vectors": (
        lambda: VectorSet.from_array(np.zeros(3)), "expected a 2-d array of vectors"
    ),
    "mixture-of-no-dims": (lambda: mixture_centers(0, 0, 2), "dim and modes must be positive"),
    "mixture-of-no-modes": (lambda: mixture_centers(0, 2, 0), "dim and modes must be positive"),
    "1-d-x-to-the-BLAS-kernel": (
        lambda: sqdist_to_centroids(np.zeros(2), POINTS.data), r"x must be 2-d, got shape \(2,\)"
    ),
    "unknown-route": (
        lambda: route_cells_batch(POINTS.data, CODEBOOK, 1, "bogus"), "unknown route: 'bogus'"
    ),
    "2-d-query": (
        lambda: select_cells(POINTS.data[:1], CODEBOOK, 1), "query must be a 1-d vector"
    ),
    # Before any search: the first one would fail on the dimensions.
    "index-of-another-dim": (
        lambda: InvertedFile(Codebook.fresh(Centroids(np.zeros((2, 4)))), [0, 10, 20],
                             np.arange(20), VectorSet.from_array(np.zeros((20, 3)))),
        "codebook has dim 4, data has dim 3",
    ),
    "non-finite-centroids": (
        lambda: Centroids(np.array([[0.0, np.nan]])), "centroids contain non-finite values"
    ),
    "centroids-past-float32": (
        lambda: Centroids(np.array([[0.0, 1e39]])), "values past float32's range"
    ),
    "unknown-init-method": (
        lambda: init_centroids(POINTS, 2, 0, "bogus"), "unknown init method: 'bogus'"
    ),
    "no-Lloyd-iterations": (
        lambda: lloyd_full(POINTS, 2, 0, max_iters=0), "max_iters must be >= 1"
    ),
    "empty-counts": (lambda: imbalance_factor(np.array([])), "non-empty 1-d array"),
    "2-d-counts": (lambda: imbalance_factor(np.ones((2, 2))), "non-empty 1-d array"),
    "negative-counts": (lambda: imbalance_factor(np.array([3, -1])), "must be non-negative"),
    "mismatched-ground-truth": (
        lambda: GroundTruth(np.zeros((1, 2)), np.zeros((1, 3))), "matching 2-d arrays"
    ),
    "zero-bucket-width": (
        lambda: ScanHistogram(np.array([1]), 0.0).scan_histogram, "bucket width must be positive"
    ),
    "recall-at-0": (
        lambda: recall_at_r(None, None, None, TRUTH, 0), r"r=0 out of range \[1, 2\]"
    ),
    "recall-past-the-truth": (
        lambda: recall_at_r(None, None, None, TRUTH, 3), r"r=3 out of range \[1, 2\]"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_rejected_with_its_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
