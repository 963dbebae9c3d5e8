"""Iterative cluster balancing via per-cell distance penalties.

Each cell carries a penalty ``b_i`` added to squared distances. Overfull
cells get their penalty inflated multiplicatively, underfull cells deflated:

    b_i(0)   = 1
    b_i(l+1) = b_i(l) * (n_i(l) / n_opt) ** alpha

with ``n_opt = N / k``. Reassigning under the penalized distance
``d(x, c_i)^2 + b_i`` then drains points from crowded cells into their
neighbors, driving populations toward ``n_opt``. Centroid positions are
never re-estimated during balancing; only the penalties move. So balancing
computes, once, the float32 products of every point with the centroids
(4·N·k bytes, 102 MB at N=100k, k=256) and each point's key bound, and
each iteration subtracts the products from the cells' penalized half norms
to cut the cells, as routing does (``distances.nearest_cells``): the few
rows the keys leave open are ranked on their kept cells by exact distance
plus penalty. Balancing, build and routing therefore put every point in
the same cell, whatever the batch.

Geometrically, the penalized distance equals the plain squared L2 distance
in a (d+1)-space where point x becomes (x, 0) and centroid i becomes
(c_i, sqrt(b_i)): balancing elevates crowded centroids off the data
hyperplane, shrinking their cells. The test suite checks that identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import VectorSet, write_csv
from .distances import CellKeys, cell_keys, nearest_cells, plain_products, sqdist_pairs
from .distances import sqdist_to_centroids  # noqa: F401  (perfbench/spans.py wraps it here)
from .kmeans import Assignment, Centroids
from .metrics import imbalance_factor

DEFAULT_ALPHA = 0.01
B_FLOOR = 1e-9
DEFAULT_MAX_ITERS_CAP = 1000
COUNT_FLOOR = 1

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
    def keys(self) -> CellKeys:
        """The centroids' keys with the penalties, as balancing, build and
        penalized routing pick cells on them, derived on first use."""
        return cell_keys(self.centroids.points, self.penalties)


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
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
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


def assign_balanced(data: VectorSet, codebook: Codebook, products=None) -> Assignment:
    """Assign each point to the cell minimizing its exact squared distance
    plus the cell's penalty, lowest index on ties (``nearest_cells``), with
    the points' ``plain_products`` when the caller keeps them."""
    cells = nearest_cells(data.data, codebook.keys, 1, products)
    return Assignment(cells[:, 0], codebook.k)


def update_penalties(
    codebook: Codebook, counts: np.ndarray, n_opt: float, alpha: float
) -> Codebook:
    """One multiplicative penalty update; returns a new Codebook.

    Zero counts are clamped to 1 inside the ratio (a zero count would make
    b=0 an absorbing state) and the result is clamped to ``B_FLOOR``.
    """
    counts = np.asarray(counts)
    if counts.shape != (codebook.k,):
        raise ValueError(f"expected {codebook.k} counts, got shape {counts.shape}")
    if not n_opt > 0:
        raise ValueError("n_opt must be positive")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ratio = np.maximum(counts, COUNT_FLOOR) / float(n_opt)
    new_b = np.maximum(codebook.penalties * ratio**alpha, B_FLOOR)
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
    """
    if data.count == 0:
        raise ValueError("cannot balance an empty dataset")
    n_opt = data.count / codebook.k
    cells = codebook.centroids.keys
    products = plain_products(data.data, cells)
    nearest = nearest_cells(data.data, cells, 1, products)[:, 0]
    plain = sqdist_pairs(data.data, cells.points, np.arange(data.count), nearest)
    trace = BalanceTrace(scale_ratio=float(plain.mean()))
    iteration = 0
    while True:
        assignment = assign_balanced(data, codebook, products)
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
