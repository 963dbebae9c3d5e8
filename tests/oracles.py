"""Reference formulas the tests check the library against.

They restate the paper's definitions one pair of vectors at a time: the
penalized squared distance, and the (d+1)-space embedding in which that
distance is a plain squared L2 distance. The library computes neither
directly; it works on whole distance matrices.
"""

import numpy as np

from ivfbalance import Centroids, Codebook


def sqdist_vector(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared L2 distance between two 1-d vectors, in float64."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("sqdist_vector expects 1-d vectors")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    diff = x - y
    return float(np.dot(diff, diff))


def penalized_distance_sq(x: np.ndarray, c: np.ndarray, b: float) -> float:
    """Squared L2 distance from x to c plus the cell penalty b."""
    if b < 0:
        raise ValueError("penalty must be non-negative")
    return sqdist_vector(x, c) + float(b)


def embed_augmented(codebook: Codebook) -> Centroids:
    """Centroids lifted into (d+1)-space: row i becomes (c_i, sqrt(b_i)).

    Plain squared L2 between an embedded point (x, 0) and these rows equals
    the penalized squared distance. Returned in float64: the last coordinate
    must square back to b_i at full precision.
    """
    pts = codebook.centroids.points.astype(np.float64)
    lift = np.sqrt(codebook.penalties)
    return Centroids(np.hstack([pts, lift[:, None]]))


def embed_points(vectors: np.ndarray) -> np.ndarray:
    """Companion point embedding: append a zero coordinate to each row."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array of vectors")
    return np.hstack([arr, np.zeros((arr.shape[0], 1))])
