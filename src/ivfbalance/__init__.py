"""Balanced inverted-file vector indexing.

Cluster with k-means, equalize cell populations with iterative distance
penalties, serve approximate nearest-neighbor queries through a multi-probe
inverted file, and measure imbalance, selectivity, recall and response-size
variance.
"""

from .balancer import (
    BalanceConfig,
    BalanceTrace,
    Codebook,
    StopRule,
    assign_balanced,
    balance,
    embed_augmented,
    embed_points,
    penalized_distance_sq,
    update_penalties,
)
from .dataset import (
    VectorSet,
    gen_gaussian_mixture,
    load_fvecs,
    mixture_centers,
    save_fvecs,
)
from .harness import (
    ExperimentSpec,
    run_convergence,
    run_histogram,
    run_tradeoff,
)
from .index import (
    InvertedFile,
    QueryResult,
    SearchParams,
    build,
    load_codebook,
    load_index,
    save_codebook,
    save_index,
    search,
    select_cells,
)
from .kmeans import (
    Assignment,
    Centroids,
    assign_plain,
    init_centroids,
    lloyd_full,
)
from .metrics import (
    EvalReport,
    GroundTruth,
    brute_force_nn,
    evaluate,
    imbalance_factor,
    list_variance,
    recall_at_r,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BalanceConfig",
    "BalanceTrace",
    "Centroids",
    "Codebook",
    "EvalReport",
    "ExperimentSpec",
    "GroundTruth",
    "InvertedFile",
    "QueryResult",
    "SearchParams",
    "StopRule",
    "VectorSet",
    "assign_balanced",
    "assign_plain",
    "balance",
    "brute_force_nn",
    "build",
    "embed_augmented",
    "embed_points",
    "evaluate",
    "gen_gaussian_mixture",
    "imbalance_factor",
    "init_centroids",
    "list_variance",
    "lloyd_full",
    "load_codebook",
    "load_fvecs",
    "load_index",
    "mixture_centers",
    "penalized_distance_sq",
    "recall_at_r",
    "run_convergence",
    "run_histogram",
    "run_tradeoff",
    "save_codebook",
    "save_fvecs",
    "save_index",
    "search",
    "select_cells",
    "update_penalties",
]
