"""Reference formulas the tests check the library against.

They restate the paper's definitions one pair of vectors at a time: the
penalized squared distance, and the (d+1)-space embedding in which that
distance is a plain squared L2 distance. The library computes neither
directly; it works on whole distance matrices.

The rest restate what the library computes with less work or memory, as
it was first written, and the library must match each bit for bit:

* the exact kernel as one (n, k, d) float64 block of differences;
* the BLAS kernel with a temporary per operation;
* k-means++ with one full distance call per draw;
* the Lloyd mean update with ``np.add.at``;
* every cell choice of balancing, build and routing as one whole matrix
  of exact penalized distances, the exact kernel plus the penalties,
  ranked by ``(value, id)`` with a full stable argsort, and the balancing
  loop recomputing it on every iteration;
* Lloyd's assignment and distortion over one whole BLAS distance matrix;
* the Gaussian mixture drawn as whole (n, dim) float64 arrays;
* the fvecs decoder that walks the records one by one to name the first
  malformed one, and checks finiteness itself;
* ground truth as the exact kernel over every point and ``top_r`` per
  query;
* ``key_bounds`` deriving its row-side terms on every call;
* search routing one query through ``route_cells_batch`` and concatenating
  the probed slices of the vectors, half norms and ids before one cut.
"""

from pathlib import Path

import numpy as np

import ivfbalance.distances as distances
from ivfbalance import Centroids, Codebook, imbalance_factor, update_penalties
from ivfbalance.balancer import STOP_FIXED_ITERS, _stop_satisfied
from ivfbalance.dataset import VectorSet, _draw_centers, mixture_centers
from ivfbalance.distances import (
    _UNIT_ROUNDOFF32,
    _gamma,
    _as_pair,
    sq_norms,
    sqdist_to_centroids,
    top_r,
)
from ivfbalance.index import ROUTE_PENALIZED, QueryResult, route_cells_batch
from ivfbalance.metrics import GroundTruth


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


def sqdist_exact_block(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sqdist_exact`` as one (n, k, d) float64 block of differences
    ``x_i - c_j``, summed over d by one ``einsum``."""
    x, c = _as_pair(x, c)
    diff = x[:, None, :] - c[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sqdist_expansion(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``|x|^2 + |c|^2 - 2 x.c`` clipped at zero, one new array per step,
    in the kernel's row blocks."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, k = x.shape[0], c.shape[0]
    out = np.empty((n, k))
    rows = max(1, distances._CHUNK_ELEMS // max(1, k * x.shape[1]))
    for start in range(0, n, rows):
        xb = x[start : start + rows]
        block = sq_norms(xb)[:, None] + sq_norms(c)[None, :]
        block -= 2.0 * (xb @ c.T)
        out[start : start + rows] = np.clip(block, 0.0, None)
    return out


def update_means_add_at(data, cells: np.ndarray, previous: Centroids) -> Centroids:
    """The Lloyd mean update summing rows with ``np.add.at``, then the
    farthest-point repair of empty cells."""
    k = previous.k
    sums = np.zeros((k, data.dim))
    np.add.at(sums, cells, data.data.astype(np.float64))
    counts = np.bincount(cells, minlength=k)
    new_points = previous.points.astype(np.float64).copy()
    filled = counts > 0
    new_points[filled] = sums[filled] / counts[filled, None]
    taken: set[int] = set()
    for cell in np.flatnonzero(~filled):
        d2 = sqdist_to_centroids(data.data, previous.points[cell][None, :])[:, 0]
        order = np.argsort(-d2, kind="stable")
        pick = next(int(p) for p in order if int(p) not in taken)
        taken.add(pick)
        new_points[cell] = data.data[pick]
    return Centroids(new_points.astype(np.float32))


def kmeans_pp_per_draw(data, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding that widens the data and recomputes every |x|^2 on
    each draw. Returns the chosen rows (float32)."""
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(data.count)
    best = sqdist_to_centroids(data.data, data.data[chosen[0]][None, :])[:, 0]
    for i in range(1, k):
        total = best.sum()
        if total <= 0.0:
            chosen[i] = np.setdiff1d(np.arange(data.count), chosen[:i])[0]
        else:
            chosen[i] = rng.choice(data.count, p=best / total)
        new_d = sqdist_to_centroids(data.data, data.data[chosen[i]][None, :])[:, 0]
        np.minimum(best, new_d, out=best)
    return data.data[chosen].astype(np.float32)


def penalized_ranking(x: np.ndarray, centroids: np.ndarray, penalties=None) -> np.ndarray:
    """Every cell, for each row of ``x``, ranked by ``(value, id)`` with NaN
    last: the whole (n, k) matrix of ``sqdist_exact`` plus the penalties,
    then a full stable argsort."""
    d2 = sqdist_exact_block(x, centroids)
    if penalties is not None:
        d2 += penalties[None, :]
    return np.argsort(d2, axis=1, kind="stable")


def balance_recomputing(data, codebook: Codebook, config):
    """The balancing loop ranking every cell of every point anew on each
    iteration (``penalized_ranking``); ``scale_ratio`` is the mean of each
    point's smallest exact distance. Returns ``(codebook, records,
    scale_ratio)`` with records as ``(iteration, gamma, counts, penalties)``
    tuples.
    """
    points = codebook.centroids.points
    n_opt = data.count / codebook.k
    records = []
    gamma0 = float("nan")
    iteration = 0
    while True:
        cells = penalized_ranking(data.data, points, codebook.penalties)[:, 0]
        counts = np.bincount(cells, minlength=codebook.k)
        gamma = imbalance_factor(counts)
        if iteration == 0:
            gamma0 = gamma
        records.append((iteration, gamma, counts, codebook.penalties.copy()))
        if _stop_satisfied(config.stop, iteration, gamma, gamma0):
            break
        if config.stop.kind != STOP_FIXED_ITERS and iteration >= config.max_iters_cap:
            break
        codebook = update_penalties(codebook, counts, n_opt, config.alpha)
        iteration += 1
    scale_ratio = float(sqdist_exact_block(data.data, points).min(axis=1).mean())
    return codebook, records, scale_ratio


def assign_plain_whole_argmin(data, centroids: Centroids) -> np.ndarray:
    """Each point's Lloyd cell as one argmin over the whole BLAS distance
    matrix."""
    return np.argmin(sqdist_to_centroids(data.data, centroids.points), axis=1)


def distortion_whole(data, centroids: Centroids, cells: np.ndarray) -> float:
    """The summed distance of each point to its cell, gathered from the
    whole BLAS distance matrix."""
    d2 = sqdist_to_centroids(data.data, centroids.points)
    return float(d2[np.arange(data.count), cells].sum())


def route_cells_whole_sort(
    queries: np.ndarray, codebook: Codebook, ma: int, route: str
) -> np.ndarray:
    """The (Q, ma) probed cells: the first ma of ``penalized_ranking``, with
    the penalties on the penalized route."""
    penalties = codebook.penalties if route == ROUTE_PENALIZED else None
    return penalized_ranking(queries, codebook.centroids.points, penalties)[:, :ma]


def gaussian_mixture_one_shot(
    seed, n, dim, modes, mode_weights, spread, centers_from_seed=None
) -> VectorSet:
    """``gen_gaussian_mixture`` as one expression: the labels, then all
    n x dim normals in one draw, added to the centers in float64 and cast
    to float32 at once."""
    weights = np.asarray(mode_weights, dtype=np.float64)
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    centers = _draw_centers(rng, dim, modes)
    if centers_from_seed is not None:
        centers = mixture_centers(centers_from_seed, dim, modes)
    labels = rng.choice(modes, size=n, p=weights)
    return VectorSet.from_array(centers[labels] + rng.normal(0.0, spread, size=(n, dim)))


def _scan_records(raw: bytes, component_size: int, path: Path) -> None:
    """Walk records to pinpoint the first malformed one. Always raises."""
    offset = 0
    record = 0
    first_dim = None
    while offset < len(raw):
        if offset + 4 > len(raw):
            raise ValueError(f"{path}: truncated record {record}")
        dim = int(np.frombuffer(raw, dtype="<i4", count=1, offset=offset)[0])
        if dim <= 0:
            raise ValueError(f"{path}: record {record} declares dim {dim} <= 0")
        if first_dim is None:
            first_dim = dim
        elif dim != first_dim:
            raise ValueError(
                f"{path}: dimension mismatch at record {record}: "
                f"declares d={dim} after first record declared d={first_dim}"
            )
        offset += 4 + dim * component_size
        if offset > len(raw):
            raise ValueError(f"{path}: truncated record {record}")
        record += 1
    raise ValueError(f"{path}: malformed file")


def decode_fvecs_walking(raw: bytes, path) -> VectorSet:
    """``decode_fvecs`` with a Python walk over the records whenever the
    vectorized framing check fails, and its own finiteness check."""
    file_path = Path(path)
    if len(raw) == 0:
        return VectorSet.empty()

    is_bvecs = file_path.suffix == ".bvecs"
    component_size = 1 if is_bvecs else 4

    if len(raw) < 4:
        raise ValueError(f"{file_path}: truncated record 0")
    dim = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if dim <= 0:
        raise ValueError(f"{file_path}: record 0 declares dim {dim} <= 0")
    record_size = 4 + dim * component_size
    if len(raw) % record_size != 0:
        _scan_records(raw, component_size, file_path)
    count = len(raw) // record_size

    rows = np.frombuffer(raw, dtype=np.uint8).reshape(count, record_size)
    dims = rows[:, :4].copy().view("<i4").ravel()
    if not (dims == dim).all():
        # Uniform record size can mask a mix of dims; rescan for the index.
        _scan_records(raw, component_size, file_path)

    body = rows[:, 4:]
    if is_bvecs:
        mat = np.ascontiguousarray(body, dtype=np.float32)
    else:
        mat = np.ascontiguousarray(body).view("<f4").astype(np.float32, copy=False)
    if mat.size and not np.isfinite(mat).all():
        bad_record = int(np.argwhere(~np.isfinite(mat))[0][0])
        raise ValueError(f"{file_path}: non-finite value in record {bad_record}")
    return VectorSet(mat.reshape(count, dim))


def brute_force_nn_per_query(data, queries, r: int) -> GroundTruth:
    """``brute_force_nn`` with every point scored by ``sqdist_exact`` and
    ranked by ``top_r`` for each query, with no key cut in front."""
    ids = np.empty((queries.count, r), dtype=np.int64)
    dists = np.empty((queries.count, r), dtype=np.float64)
    point_ids = np.arange(data.count)
    for i, query in enumerate(queries.data):
        ids[i], dists[i] = top_r(point_ids, sqdist_exact_block(query[None, :], data.data)[0], r)
    return GroundTruth(ids, dists)


def key_bounds_recomputing(queries: np.ndarray, frame) -> tuple[np.ndarray, np.ndarray]:
    """``key_bounds`` of a block of queries, deriving every row-side term
    from the frame's ``center``, ``h_max`` and ``v_max`` on each call."""
    center, h_max, v_max = frame[:3]
    d = queries.shape[1]
    w = np.subtract(queries, center, dtype=np.float64)
    fixed = (_gamma(d + 4, _UNIT_ROUNDOFF32) * (1 + 2 * _gamma(d + 2, _UNIT_ROUNDOFF32)) * h_max
             + (d**0.5 * v_max + 2 * d + 2) * 2.0**-149)
    with np.errstate(over="ignore", invalid="ignore"):
        p = w.astype(np.float32)
        a = np.sqrt(sq_norms(w))
        bound = fixed + a * (_gamma(d + 3, _UNIT_ROUNDOFF32) * v_max + 2 * _gamma(d + 2) * a)
        safe = h_max + (2 * max(v_max, 0.25)) * a <= 2.0**125
    if not safe.all():
        p[~safe], bound[~safe] = 0.0, np.inf
    return p, bound


def search_concatenating(index, query: np.ndarray, params) -> QueryResult:
    """``search`` routing through a one-row ``route_cells_batch`` call and
    concatenating the probed slices of the index's vectors, half norms and
    ids, then keying them with one float32 product and cutting at the
    float32 ``κ + 2 E`` of ``key_bounds_recomputing``, rounded up."""
    query = np.asarray(query)
    cells = route_cells_batch(query[None, :], index.codebook, params.ma, params.route)[0]
    slices = [slice(index.offsets[c], index.offsets[c + 1]) for c in cells]
    vectors, half, candidates = (np.concatenate([a[s] for s in slices])
                                 for a in (index.keys.points, index.keys.half, index.ids))
    query, r = np.asarray(query, dtype=np.float64), params.r_results
    kept, rows = candidates, vectors
    if len(vectors) > r:
        p, bound = key_bounds_recomputing(query[None, :], index.keys.frame)
        if bound[0] < np.inf:
            keys = np.subtract(half, np.matmul(p[0], vectors.T))
            exact = np.partition(keys, r - 1)[r - 1] + 2.0 * bound
            cut = exact.astype(np.float32)
            np.nextafter(cut, np.inf, out=cut, where=cut < exact)
            keep = np.flatnonzero(keys <= cut)
            rows, kept = vectors[keep], candidates[keep]
    ids, dists = top_r(kept, sqdist_exact_block(query[None, :], rows)[0], r)
    return QueryResult(ids=ids, dists=dists, scanned=int(candidates.size), probed_cells=cells)
