"""Squared-L2 distance kernels shared by clustering, indexing and evaluation.

Two kernels with different determinism/speed trade-offs:

* :func:`sqdist_to_centroids` uses the BLAS expansion trick. It is fast and
  deterministic for identical inputs. Lloyd's assignment and distortion
  read it one row block at a time (:func:`blockwise`), never holding an
  n×k matrix. Its bits for one row can depend on the other rows in the
  call and on the BLAS build, so it decides no result rank and no cell of
  an index.
* :func:`sqdist_exact` computes elementwise differences, so each (row, col)
  distance is bitwise identical no matter how candidates are sliced,
  permuted, or batched. Every result rank and every cell choice is decided
  on it: an exhaustive multi-probe search must reproduce the brute-force
  ranking exactly, ties included.

One cut decides every cell choice, search and ground truth, bit for bit
as an exact scan of every row would, for any data: float32 keys taken
relative to a center of the rows (:func:`centered_half_norms`,
:func:`shifted_keys`) rank the rows as distances do, up to a proven bound
E (:func:`key_bounds`) that grows with the spread of the rows around that
center and the query's distance to it, not with the distance from the
origin. Only the rows whose key is at most κ + 2E, κ being the r-th
smallest key, reach the exact kernel, and are ranked by ``(value, id)``.
Search cuts one query's candidates with one float32 product
(:func:`nearest_r`); ground truth cuts a block of queries with float32
GEMM tiles (:func:`block_cut`); balancing, build and routing cut the
centroids, with half of each cell's penalty in its key, one float32
product per row block (:func:`nearest_cells`). So a point's cell is a
function of the point alone, whatever the batch and the BLAS build.

All arithmetic is float64 regardless of input dtype; float32 inputs widen
exactly, except in the float32 keys.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Rows per BLAS row block of sqdist_to_centroids, which blockwise walks:
# rows * k * dim, the block's multiply-adds, stays near this.
_CHUNK_ELEMS = 16 * 1024 * 1024

# Rows per tile of block_cut: a block of 32 queries holds 32 * 4096
# float32 keys (512 KB).
_TILE_ROWS = 4096

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_UNIT_ROUNDOFF32 = 2.0**-24


def _gamma(n: int, u: float = _UNIT_ROUNDOFF) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of n
    chained roundings at unit roundoff u, float64's by default (*Accuracy
    and Stability of Numerical Algorithms*, ch. 3)."""
    return n * u / (1.0 - n * u)


def _as_matrix(a: np.ndarray, name: str, dtype=None) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    return a if dtype is None else np.ascontiguousarray(a, dtype=dtype)


def _block_rows(k: int, d: int) -> int:
    """Rows per BLAS row block of :func:`sqdist_to_centroids` and
    :func:`blockwise`, counted from row 0."""
    return max(1, _CHUNK_ELEMS // max(1, k * d))


def _as_pair(x: np.ndarray, c: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``c`` as matrices of one dimension, float64 by default."""
    x, c = _as_matrix(x, "x", dtype), _as_matrix(c, "c", dtype)
    if x.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: vectors have dim {x.shape[1]}, "
            f"centroids have dim {c.shape[1]}"
        )
    return x, c


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row, summed in float64. Float32 products
    widen exactly, so float32 rows need no float64 copy."""
    return np.einsum("ij,ij->i", a, a, dtype=np.float64)


def sqdist_to_centroids(
    x: np.ndarray, c: np.ndarray, x_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared L2 distances from each row of ``x`` to each row of ``c``.

    Returns an (n, k) float64 matrix, clipped at zero (the expansion
    ``|x|^2 + |c|^2 - 2 x.c`` can go slightly negative for near-identical
    pairs). A caller that reuses one ``x`` across calls passes it widened
    to float64 and its ``x_sq = sq_norms(x)`` once; the result is the same
    bits as without it.
    """
    x, c = _as_pair(x, c)
    n, d = x.shape
    k = c.shape[0]
    if x_sq is not None and (x_sq.shape != (n,) or x_sq.dtype != np.float64):
        raise ValueError(f"x_sq must be float64 of shape ({n},)")
    c_sq = sq_norms(c)
    out = np.empty((n, k), dtype=np.float64)
    rows = _block_rows(k, d)
    for start in range(0, n, rows):
        xb = x[start : start + rows]
        xb_sq = sq_norms(xb) if x_sq is None else x_sq[start : start + rows]
        block = np.add(xb_sq[:, None], c_sq[None, :], out=out[start : start + rows])
        product = xb @ c.T
        block -= np.multiply(product, 2.0, out=product)  # exact, so the bits of 2.0 * (x.c)
        np.clip(block, 0.0, None, out=block)
    return out


def blockwise(kernel, x: np.ndarray, c: np.ndarray, fn) -> np.ndarray:
    """``fn(kernel(x[s], c), s)`` over the row blocks ``s`` of the kernel
    (the caller's ``sqdist_to_centroids``), concatenated: the bits of one
    whole-matrix call, one block alive at a time; an empty ``x`` is one block."""
    x = _as_matrix(x, "x")
    n = x.shape[0]
    rows = _block_rows(np.shape(c)[0], x.shape[1])
    return np.concatenate([fn(kernel(x[s : s + rows], c), slice(s, min(s + rows, n)))
                           for s in range(0, max(n, 1), rows)])


def sqdist_exact(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise-exact squared L2 distances, (n, k) float64.

    Each entry is computed as ``sum((x_i - c_j)**2)`` over its own pair of
    rows only, so results do not depend on which other rows are present.
    It sums d nonnegative rounded squares of rounded differences, so it is
    within ``gamma_{d+2} D`` of the real squared distance D (Higham ch. 3),
    which :func:`key_bounds` builds on. The differences are one (n, k, d)
    float64 block: callers pass one query and the rows the key cut keeps,
    about r, or every row where the cut claims nothing (25.6 MB at 100k
    rows, d=32).
    """
    x, c = _as_pair(x, c)
    diff = x[:, None, :] - c[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sqdist_pairs(x: np.ndarray, c: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`sqdist_exact` of each pair of rows ``x[i]`` and ``c[j]``, the
    same bits, in blocks of pairs that hold no pairs×d float64 copy."""
    out = np.empty(len(i))
    step = 2048
    for s in range(0, len(i), step):
        diff = np.subtract(x.take(i[s : s + step], 0), c.take(j[s : s + step], 0),
                           dtype=np.float64)
        np.einsum("ij,ij->i", diff, diff, out=out[s : s + step])
    return out


def top_r(ids: np.ndarray, d2: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest of the exact distances ``d2`` and their ``ids``,
    ranked by ``(distance, id)``, lowest id on ties and NaN last.

    ``np.partition`` finds the r-th smallest value and only the entries at
    or below it are sorted. Every entry the full sort ranks within the
    first r is at or below that value, boundary ties included, and
    ``(distance, id)`` is a total order, so the result is exactly the full
    sort's first r. The pre-cut bounds the ranking where the key cut keeps
    every row: for a query where :func:`key_bounds` claims nothing (NaN,
    or far enough out that a float32 product could overflow).
    """
    if d2.size > r:
        # Not ``d2 <= kth``: a NaN kth (NaN query) must keep every entry.
        keep = np.flatnonzero(~(d2 > np.partition(d2, r - 1)[r - 1]))
        ids, d2 = ids[keep], d2[keep]
    order = np.lexsort((ids, d2))[:r]
    return ids[order], d2[order]


class KeyFrame(NamedTuple):
    """The row side of :func:`key_bounds`: the rows' float32 ``center``, their
    largest half norm and a bound on their norms, valid for any subset."""

    center: np.ndarray
    h_max: float
    v_max: float


def centered_half_norms(rows: np.ndarray) -> tuple[np.ndarray, KeyFrame]:
    """Each float32 row's half squared distance to a float32 center,
    ``h = fl32(fl32(|fl32(v - center)|^2) / 2)``, summed in float32 one
    tile of rows at a time, and the rows' :class:`KeyFrame`. The center is
    the mean of an evenly strided sample of at least a thousand rows (all
    of them up to 2,047). As distances do not change under translation,
    any center is valid for :func:`key_bounds`, whose docstring derives
    ``v_max``.
    """
    n, d = rows.shape
    if n == 0:  # an empty index: no row to bound
        return np.empty(0, np.float32), KeyFrame(np.zeros(d, np.float32), 0.0, 0.0)
    center = rows[:: max(1, n // 1024)].mean(axis=0, dtype=np.float64).astype(np.float32)
    half = np.empty(n, dtype=np.float32)
    # Tiles of 64Ki entries. A flat subtract of a repeated center runs long
    # loops; a broadcast over the rows would loop d entries at a time.
    step = max(1, 64 * 1024 // d)
    repeated = np.tile(center, min(step, n))
    buf = np.empty_like(repeated)
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            tile = rows[start : start + step]
            diff = np.subtract(tile.reshape(-1), repeated[: tile.size], out=buf[: tile.size])
            diff = diff.reshape(tile.shape)
            np.einsum("ij,ij->i", diff, diff, out=half[start : start + len(tile)])
        half *= np.float32(0.5)
    h_max = float(half.max())
    spread = 2 * (h_max + (d + 2) * 2.0**-150) * (1 + 2 * _gamma(d + 2, _UNIT_ROUNDOFF32))
    v_max = (np.sqrt(sq_norms(center[None, :])[0]) + np.sqrt(spread)) * (1 + _gamma(d + 10))
    return half, KeyFrame(center, h_max, float(v_max))


def key_bounds(queries: np.ndarray, frame: KeyFrame) -> tuple[np.ndarray, np.ndarray]:
    """``p = fl32(q - center)`` for each float64 query of a block, and the
    bound ``E`` of its float32 keys over float32 rows, given the rows'
    :class:`KeyFrame` from :func:`centered_half_norms`. Where E is +inf,
    p is 0, whose products cannot overflow.

    The key of a query q and a row v is :func:`shifted_keys`'
    ``k = fl32(h - fl32(p.v))``. With ``w = q - center`` real, ``H`` the
    real ``|v - center|^2 / 2``, and ``C = |w|^2 / 2 + w.center``, the
    real squared distance is ``D = 2 (H - w.v + C)``, so keys rank the rows
    as distances do. With ``X`` the :func:`sqdist_exact` value, for every
    row, unless ``E`` is +inf::

        |k - (X / 2 - C)| <= E

    Then a query whose r rows have keys at most κ has an r-th smallest
    ``X / 2 - C`` of at most ``κ + E``, so no row whose ``X`` is at or below
    the r-th smallest has a key above ``κ + 2 E``.

    Derivation, after Higham ch. 3, with ``u = 2^-24``, ``gamma_n`` at u,
    ``(d + 4) u <= 1/5`` (so ``gamma_{d+4} <= 1/4``), ``g = gamma_{d+2}``
    at float64's u (see :func:`sqdist_exact`) and ``eta = 2^-150``, the
    largest float32 rounding below the normal range, where sums and
    differences are exact (IEEE gradual underflow):

    * ``fl64(q - center)`` and its float32 cast put each ``p_i`` within
      ``u' |w_i| + eta`` of ``w_i``, ``u' = u + 2^-52``, so
      ``|p - w| <= u' |w| + sqrt(d) eta``.
    * The float32 product, in any summation order, fused or not, is
      within ``gamma_d |p| |v| + 2 d eta`` of ``p.v``.
    * Each rounded difference ``fl32(v_i - center_i)`` squares to within
      ``gamma_2`` of the real square, the float32 sum adds ``gamma_d`` and
      ``d (1 + gamma_d) eta``, and halving ``eta``: ``|h - H| <=
      gamma_{d+2} H + (d + 2) eta``, so
      ``H <= (h_max + (d + 2) eta)(1 + 2 gamma_{d+2})``.
    * ``V = v_max`` bounds every row's norm: ``|v| <= |center| + sqrt(2 H)``
      (triangle inequality), and the bound on ``H`` gives
      ``|v| <= |center| + sqrt(2 (h_max + (d + 2) eta)(1 + 2 gamma_{d+2}))``.
      In float64, at most d + 5 roundings lie on any path of that sum, so
      the factor ``1 + gamma_{d+10}`` at float64's u, rounded too, leaves
      ``V`` above it.
    * The subtraction forming ``k`` adds ``u |h - fl32(p.v)|``.
    * ``|X - D| <= g D`` and ``D <= 2 |w|^2 + 4 H``.

    As ``gamma_n + u (1 + gamma_n) <= gamma_{n+1}``, ``H`` gathers
    ``gamma_{d+3} + 2 g`` and ``|w| |v|`` gathers
    ``(1 + u')(gamma_d + u (1 + gamma_d)) + u'``, which is below
    ``gamma_{d+2}`` (it exceeds ``gamma_{d+1} + u (1 + gamma_{d+1})`` by
    ``2^-52 (1 + gamma_{d+1})``, below their gap ``u gamma_{d+2}``). With
    ``a = |fl64(q - center)|`` in float64::

        E = gamma_{d+4} (1 + 2 gamma_{d+2}) h_max + gamma_{d+3} a V
            + 2 g a^2 + (sqrt(d) V + 2 d + 2) 2^-149

    The spare ``u (h_max + a V)`` over the derived terms covers ``2 g H``
    and the float64 roundings of ``a`` and of ``E`` and of the threshold
    ``κ + 2 E``. The ``eta`` terms, carried through the same steps, add up
    to at most ``1.25 sqrt(d) eta V + (3.4 d + 3) eta``, below the last
    term. ``E`` is +inf for a query where ``h_max + 2 a max(V, 1/4)``
    exceeds ``2^125`` (or is NaN): there ``p``, a float32 product or a key
    could overflow, and nothing is claimed. Below it none can, nor any
    partial sum, as every ``|p_i| <= a (1 + u') <= 2^126 (1 + u')``. The
    row terms are scalars, so a query costs a few operations on its own.

    Penalties. Cells with penalties b >= 0 (:func:`cell_keys`) key with
    ``hb = fl32(fl64(h + b / 2))`` for h, against ``Y = fl64(X + b)``.
    With ``b_max`` the largest b, ``|k - (Y / 2 - C)| <= E`` for every row
    when E gains the term ``2^-23 (h_max + b_max) + 2^-149``, the
    :class:`CellKeys`' ``term``:

    * ``|hb - (h + b / 2)| <= u' (h + b / 2) + eta + 2^-1074``, and the
      subtraction forming k adds u times that and ``u b / 2``.
    * ``|Y - (X + b)| / 2 <= 2^-54 (X + b)``. Its part in X, below
      ``2^-53 (1 + g)(|w|^2 + 2 H)``, fits in the spares: ``2 g a^2`` is
      ``g a^2 >= 3 2^-53 a^2`` above the derived ``g |w|^2``, and
      ``u h_max`` stays far above ``(2 g + 2^-51) H``.

    The rest is below ``2^-24 (1 + 2^-20)(h_max + b_max) + 2 eta``, which
    leaves the term room for its own roundings and those of ``κ + 2 E``.
    Without penalties ``hb = h`` and ``Y = X``: the term is 0. Where
    ``h_max + b_max`` exceeds ``2^125``, ``hb`` could overflow: the term,
    and so E, is +inf.
    """
    center, h_max, v_max = frame
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


def shifted_keys(p: np.ndarray, rows: np.ndarray, half: np.ndarray, out=None) -> np.ndarray:
    """The float32 keys ``fl32(half - fl32(p.v))`` of :func:`key_bounds`'
    ``p`` (one query, or a block of them) against float32 ``rows``, from one
    float32 BLAS product, into ``out`` (a contiguous float32 array of the
    result's shape) when given."""
    keys = np.matmul(p, rows.T, out=out)
    return np.subtract(half, keys, out=keys)


def nearest_r(kernel, query: np.ndarray, rows: np.ndarray, half: np.ndarray, frame: KeyFrame,
              ids: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``ids`` and ``kernel`` values of the r float32 ``rows`` nearest
    to one ``query``, ranked by :func:`top_r`: the first r of a full sort of
    every row's value. ``kernel`` is the caller's :func:`sqdist_exact`;
    ``half`` and ``frame`` are the rows' :func:`centered_half_norms` (the
    frame may be a superset's). With more than r rows, one float32 product
    gives their keys, and only the rows with keys at most κ + 2E (κ the
    r-th smallest key) reach ``kernel``, in one call: about r without
    near-ties, every row where E is +inf (a NaN query, for one).
    """
    query = np.asarray(query, dtype=np.float64)
    if len(rows) > r:
        p, bound = key_bounds(query[None, :], frame)
        if bound[0] < np.inf:
            keys = shifted_keys(p[0], rows, half)
            keep = np.flatnonzero(keys <= _cut_at(np.partition(keys, r - 1)[r - 1], bound))
            rows, ids = rows[keep], ids[keep]
    return top_r(ids, kernel(query[None, :], rows)[0], r)


def _cut_at(kappa: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The float32 ``κ + 2 E`` per query, rounded up: -inf where the caller
    set E to -inf, and far inside float32's range where E is finite."""
    exact = kappa + 2.0 * bound
    cut = exact.astype(np.float32)
    return np.nextafter(cut, np.inf, out=cut, where=cut < exact)


def _merge_best(best: np.ndarray, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The r smallest of each row of ``best`` (queries, r) together with the
    ``keys`` at row ``q`` (ascending), one padded partition for the block."""
    n, r = best.shape
    counts = np.bincount(q, minlength=n)
    pad = np.full((n, r + counts.max()), np.inf, dtype=np.float32)
    pad[:, :r] = best
    pad[q, r + np.arange(len(q)) - (np.cumsum(counts) - counts)[q]] = keys
    return np.partition(pad, r - 1, axis=1)[:, :r]


def block_cut(queries: np.ndarray, rows: np.ndarray, half: np.ndarray, frame: KeyFrame,
              r: int) -> list:
    """For each float64 query of a block, the ascending ids of the float32
    ``rows`` whose exact distance can still be among its r smallest, ties
    included, or ``slice(None)``, every row, where :func:`key_bounds`
    claims nothing (and for every query when r covers the rows). ``half``
    and ``frame`` are the rows' :func:`centered_half_norms`.

    The rows are walked in tiles of :func:`shifted_keys`. κ, each query's
    r-th smallest key so far, starts at the first tile's (one partition),
    and each tile emits the rows with keys at most ``κ + 2 E``, which then
    update κ. κ only falls, so a final cut at the last κ keeps every row
    that :func:`key_bounds` says can reach the top r: the cut of
    :func:`nearest_r`, one block of queries and one tile at a time.
    """
    n = len(rows)
    if r >= n:
        return [slice(None)] * len(queries)
    p, bound = key_bounds(queries, frame)
    closed = np.isfinite(bound)
    if not closed.any():
        return [slice(None)] * len(queries)
    # A cut at -inf emits none of their rows.
    bound[~closed] = -np.inf
    tile = max(_TILE_ROWS, r)
    buf = np.empty(len(p) * min(tile, n), dtype=np.float32)
    mask = np.empty(buf.shape, dtype=bool)
    best, found = None, []
    for start in range(0, n, tile):
        width = min(tile, n - start)
        keys = shifted_keys(p, rows[start : start + width], half[start : start + width],
                            buf[: len(p) * width].reshape(len(p), width))
        if best is None:
            best = np.partition(keys, r - 1, axis=1)[:, :r].copy()
            cut = _cut_at(best[:, -1], bound)
        hit = np.less_equal(keys, cut[:, None], out=mask[: keys.size].reshape(keys.shape))
        flat = np.flatnonzero(hit)  # far faster than a 2-d nonzero
        q, j = np.divmod(flat, width)
        found.append((q, j + start, keys.reshape(-1)[flat]))
        if start and (found[-1][2] < best[q, -1]).any():
            best = _merge_best(best, q, found[-1][2])
            cut = _cut_at(best[:, -1], bound)
    q, j, k = (np.concatenate(parts) for parts in zip(*found))
    keep = k <= cut[q]
    q, j = q[keep], j[keep]
    groups = np.split(j[np.argsort(q, kind="stable")],
                      np.cumsum(np.bincount(q, minlength=len(p)))[:-1])
    return [g if ok else slice(None) for g, ok in zip(groups, closed)]


class CellKeys(NamedTuple):
    """The centroids ``points`` as :func:`nearest_cells` keys them: their
    half norms with half of each ``penalties`` entry, their frame, and the
    penalties' ``term`` of :func:`key_bounds`."""

    points: np.ndarray
    half: np.ndarray
    frame: KeyFrame
    term: float = 0.0
    penalties: np.ndarray | None = None


def cell_keys(points: np.ndarray, penalties: np.ndarray | None = None) -> CellKeys:
    """The :class:`CellKeys` of the centroids ``points``. With ``penalties``
    (b >= 0 per cell), each :func:`centered_half_norms` value h becomes
    ``fl32(fl64(h + b / 2))``, so the keys rank the cells by distance plus
    penalty. Where float32 rounds a centroid, ``h_max`` is +inf: the keys
    decide nothing."""
    points = _as_matrix(points, "c")
    rows = np.asarray(points, dtype=np.float32)
    half, frame = centered_half_norms(rows)
    if rows is not points and not np.array_equal(rows, points):
        frame = frame._replace(h_max=np.inf)
    if penalties is None:
        return CellKeys(points, half, frame)
    with np.errstate(over="ignore"):  # past float32's range, E is +inf
        half = (half + penalties / 2).astype(np.float32)
    total = frame.h_max + float(penalties.max())
    term = 2.0**-23 * total + 2.0**-149 if total <= 2.0**125 else np.inf
    return CellKeys(points, half, frame, term, penalties)


def plain_products(x: np.ndarray, cells: CellKeys) -> tuple[np.ndarray, np.ndarray]:
    """The (n, k) float32 products ``fl32(p.c)`` of :func:`key_bounds`' p
    for the rows of ``x`` and the centroids, one product per row block, and
    each row's E without the penalties' term: what :func:`nearest_cells`
    keys the cells with, under any penalties."""
    x = _as_pair(x, cells.points, None)[0]
    rows = np.asarray(cells.points, dtype=np.float32)
    product = np.empty((len(x), len(rows)), dtype=np.float32)
    bound = np.empty(len(x))
    step = _block_rows(len(rows), x.shape[1])
    for start in range(0, len(x), step):
        block = slice(start, start + step)
        p, bound[block] = key_bounds(x[block], cells.frame)
        np.matmul(p, rows.T, out=product[block])
    return product, bound


def nearest_cells(x: np.ndarray, cells: CellKeys, m: int = 1, products=None) -> np.ndarray:
    """The (n, m) ids of the m cells with the smallest ``fl64(X + b)`` for
    each row of ``x``, X its :func:`sqdist_exact` value to a centroid and b
    the cell's penalty (0 without), lowest id on ties and NaN last: the
    first m of a full sort, a function of the row alone.

    It is :func:`nearest_r`'s cut with the centroids as the rows. Each row
    block of ``x`` keys the cells as ``fl32(hb - fl32(p.c))`` from its
    :func:`plain_products`, or from the caller's ``products`` of ``x``. A
    row that keeps one cell at m = 1 is decided; every other row, and every
    row at m > 1 so that the order is exact, is ranked on its kept cells
    (about m without near-ties, every cell where E is +inf), all rows of the
    block in one pass.
    """
    x = _as_pair(x, cells.points, None)[0]
    out = np.empty((len(x), m), dtype=np.int64)
    step = _block_rows(len(cells.half), x.shape[1])
    for start in range(0, len(x), step):
        block = slice(start, start + step)
        product, bound = (plain_products(x[block], cells) if products is None
                          else (products[0][block], products[1][block]))
        keys = np.subtract(cells.half, product)
        out[block] = _choose(x[block], keys, bound + cells.term, cells, m)
    return out


def _choose(x, keys, bound, cells: CellKeys, m: int) -> np.ndarray:
    """:func:`nearest_cells` for one row block from its float32 keys and E."""
    n, k = keys.shape
    if m == 1:
        first = keys.argmin(axis=1)
        kappa = keys[np.arange(n), first]
    else:
        kappa = np.partition(keys, m - 1, axis=1)[:, m - 1]
    keep = keys <= _cut_at(kappa, bound)[:, None]  # every cell where E is +inf
    if m == 1:
        out = first[:, None]
        # Each row keeps its first cell; a flat count finds those keeping more.
        ranked = np.flatnonzero(np.bincount(np.flatnonzero(keep) // k, minlength=n) != 1)
        if not len(ranked):
            return out
        keep = keep[ranked]
    else:
        out, ranked = np.empty((n, m), dtype=np.int64), slice(None)
    # Row-major pairs: each row's cells in ascending id order, which the
    # stable sort keeps among equal values, so ties go to the lowest id.
    row, cell = np.nonzero(keep)
    d2 = sqdist_pairs(x[ranked], cells.points, row, cell)
    if cells.penalties is not None:
        d2 += cells.penalties[cell]
    order = np.lexsort((d2, row))
    starts = np.searchsorted(row, np.arange(len(keep)))
    out[ranked] = cell[order[starts[:, None] + np.arange(m)]]
    return out
