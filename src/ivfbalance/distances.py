"""Squared-L2 distance kernels shared by clustering, indexing and evaluation.

Two kernels with different determinism/speed trade-offs:

* :func:`sqdist_to_centroids` uses the BLAS expansion trick. It is fast and
  deterministic for identical inputs. Assignment and query routing both pick
  cells from it with :func:`nearest_cells`: same sums, same tie rule.
  Its bits for one row can depend on the other rows in the call (1- and
  2-row calls have been seen to differ from the same rows in a larger
  batch), so it decides no result rank. Callers walk its row blocks with
  :func:`blockwise`, never holding an n×k matrix.
* :func:`sqdist_exact` computes elementwise differences, so each (row, col)
  distance is bitwise identical no matter how candidates are sliced,
  permuted, or batched. Candidate scoring and ground truth use this one:
  an exhaustive multi-probe search must reproduce the brute-force ranking
  exactly, ties included.

Search and ground truth rank the same way, bit for bit as an exact scan
of every row would, for any data: float32 keys taken relative to a center
of the rows (:func:`centered_half_norms`, :func:`shifted_keys`) rank the
rows as distances do, up to a proven bound E (:func:`key_bounds`) that
grows with the spread of the rows around that center and the query's
distance to it, not with the distance from the origin. Only the rows whose
key is at most κ + 2E, κ being the r-th smallest key, reach the caller's
exact kernel, and :func:`top_r` ranks them. Search cuts one query's
candidates with one float32 product (:func:`nearest_r`); ground truth
cuts a block of queries with float32 GEMM tiles (:func:`block_cut`).

All arithmetic is float64 regardless of input dtype; float32 inputs widen
exactly, except in the float32 keys and the screen :func:`nearest_cells`
reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Rows per BLAS row block of sqdist_to_centroids, which blockwise walks:
# rows * k * dim, the block's multiply-adds, stays near this.
_CHUNK_ELEMS = 16 * 1024 * 1024

# Row blocks of nearest_cells hold about this many float64 entries.
_ARGMIN_BLOCK_ELEMS = 64 * 1024

# Rows per tile of block_cut: a block of 32 queries holds 32 * 4096
# float32 keys (512 KB).
_TILE_ROWS = 4096

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_UNIT_ROUNDOFF32 = 2.0**-24

_SCREEN_REL = np.float32(1.0 + 2.0**-21)
_SCREEN_ABS = np.float32(2.0**-100)


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


def _as_pair(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``c`` as float64 matrices of one dimension."""
    x, c = _as_matrix(x, "x", np.float64), _as_matrix(c, "c", np.float64)
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


def blockwise(kernel, x: np.ndarray, c: np.ndarray, fn, only=None) -> np.ndarray:
    """``fn(kernel(x[s], c), s)`` over the row blocks ``s`` of the kernel
    (the caller's ``sqdist_to_centroids``), concatenated: the bits of one
    whole-matrix call, one block alive at a time. With ``only``, a non-empty
    sorted array of row ids, just their blocks; an empty ``x`` is one block."""
    x = _as_matrix(x, "x")
    n = x.shape[0]
    rows = _block_rows(np.shape(c)[0], x.shape[1])
    starts = range(0, max(n, 1), rows) if only is None else np.unique(only // rows) * rows
    return np.concatenate([fn(kernel(x[s : s + rows], c), slice(s, min(s + rows, n)))
                           for s in starts])


def nearest_cells(
    d2: np.ndarray, penalties: np.ndarray | None = None, m: int = 1
) -> np.ndarray:
    """The (n, m) ids of the m cells with the smallest ``d2 + penalties`` in
    each row of an (n, k) distance matrix, nearest first, lowest id on ties
    and NaN last. Cache-sized row blocks give each entry the float64 add of
    a whole-matrix one. m = 1 takes an argmin, m > 1 a stable argsort.

    A float32 ``d2`` screens a float64 plain matrix P (m = 1). Its entries
    fl(fl(P) + fl(b)) are within (1 + 2^-24)^2 of P + b, plus 2^-149 below
    float32's normal range, so one above fl(best (1 + 2^-21) + 2^-100) is
    above the best's P + b by over 2^-23 relative: in float64 it can neither
    win nor tie. A row with no other entry up to that gets its cell, others -1.
    """
    n, k = d2.shape
    if penalties is not None and penalties.shape != (k,):
        raise ValueError(f"dimension mismatch: {k} cells, {penalties.size} penalties")
    screen = d2.dtype == np.float32
    if screen and m != 1:
        raise ValueError("a float32 screen picks one cell per row")
    rows = max(1, _ARGMIN_BLOCK_ELEMS // k)
    buf = np.empty((min(rows, n), k), dtype=np.float32 if screen else np.float64)
    out = np.empty((n, m), dtype=np.int64)
    with np.errstate(over="ignore"):
        if screen and penalties is not None:
            penalties = penalties.astype(np.float32)
        for start in range(0, n, rows):
            block = d2[start : start + rows]
            if penalties is not None:
                block = np.add(block, penalties, out=buf[: len(block)])
            if m > 1:
                out[start : start + rows] = np.argsort(block, axis=1, kind="stable")[:, :m]
                continue
            cells = out[start : start + rows, 0]
            np.argmin(block, axis=1, out=cells)
            best = block[np.arange(len(block)), cells]
            nan = np.isnan(best)
            if screen:
                close = block <= (best * _SCREEN_REL + _SCREEN_ABS)[:, None]
                if np.count_nonzero(close) != len(block) or nan.any():
                    cells[np.count_nonzero(close, axis=1) != 1] = -1
            elif nan.any():
                cells[nan] = np.argsort(block[nan], axis=1, kind="stable")[:, 0]
    return out


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
    :class:`KeyFrame` from :func:`centered_half_norms`.

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
    return p, np.where(safe, bound, np.inf)


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
    return np.where(cut < exact, np.nextafter(cut, np.float32(np.inf)), cut)


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
    # p = 0 cannot overflow, and a cut at -inf emits none of their rows.
    p[~closed], bound[~closed] = 0.0, -np.inf
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
