"""Squared-L2 distance kernels shared by clustering, indexing and evaluation.

Two kernels with different determinism/speed trade-offs:

* :func:`sqdist_to_centroids` uses the BLAS expansion trick. It is fast and
  deterministic for identical inputs. Lloyd's assignment and distortion
  reduce it one row block at a time, never holding an n×k matrix. Its
  bits for one row can depend on the other rows in the call and on the
  BLAS build, so it decides no result rank and no cell of an index.
* :func:`sqdist_exact` computes elementwise differences, so each (row, col)
  distance is bitwise identical no matter how candidates are sliced,
  permuted, or batched. Every result rank and every cell choice is decided
  on it: an exhaustive multi-probe search must reproduce the brute-force
  ranking exactly, ties included.

One cut decides every cell choice, search and ground truth, bit for bit
as an exact scan of every row would, for any data: float32 keys taken
relative to a center of the rows (:func:`row_keys`)
rank the rows as distances do, up to a proven bound E (:func:`key_bounds`)
that grows with the spread of the rows around that center and the query's
distance to it, not with the distance from the origin. Only the rows
whose key is at most κ + 2E, κ being the r-th smallest key, reach the
exact kernel, and are ranked by ``(value, id)``. One query's search and
routing cut its candidate rows with one float32 product per span of them
(:func:`nearest_r`), ground truth a block of queries with float32 GEMM
tiles (:func:`block_cut`), and balancing, build and batch routing each
row block's centroids with one float32 product (:func:`keyed_blocks`,
which :func:`nearest_cells` walks); a cell's key holds half its
penalty. So a point's cell is a function of the point alone, whatever
the batch and the BLAS build.

All arithmetic is float64 regardless of input dtype; float32 inputs widen
exactly, except in the float32 keys.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

# Rows per row block of sqdist_to_centroids and keyed_blocks: rows * k * dim,
# the block's multiply-adds, stays near this.
_CHUNK_ELEMS = 16 * 1024 * 1024

# Rows per float64 block of differences of the exact kernels: at d=32, 512 KB.
_EXACT_ROWS = 2048

# Rows per tile of block_cut: a block of 32 queries holds 32 * 4096
# float32 keys (512 KB).
_TILE_ROWS = 4096

_UNIT_ROUNDOFF = 2.0**-53
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
    """Rows per row block of :func:`sqdist_to_centroids` and
    :func:`keyed_blocks`, counted from row 0."""
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
    x: np.ndarray, c: np.ndarray, x_sq: np.ndarray | None = None, reduce=None
) -> np.ndarray:
    """Squared L2 distances from each row of ``x`` to each row of ``c``: an
    (n, k) float64 matrix, clipped at zero (the expansion
    ``|x|^2 + |c|^2 - 2 x.c`` can go slightly negative for near-identical
    pairs). With ``reduce``, ``reduce(d2, s)`` of each row block ``s`` and
    its distances ``d2``, concatenated: one block alive, and widened to
    float64, at a time. A caller that reuses one ``x`` across calls passes
    it widened to float64 and its ``x_sq = sq_norms(x)`` once. The bits are
    the same either way.
    """
    x, c = _as_pair(x, c, None)
    c = np.ascontiguousarray(c, dtype=np.float64)
    n = len(x)
    if x_sq is not None and (x_sq.shape != (n,) or x_sq.dtype != np.float64):
        raise ValueError(f"x_sq must be float64 of shape ({n},)")
    c_sq = sq_norms(c)
    out = [] if reduce else np.empty((n, len(c)))
    rows = _block_rows(*c.shape)
    for start in range(0, max(n, 1), rows):
        s = slice(start, min(start + rows, n))
        xb = np.ascontiguousarray(x[s], dtype=np.float64)
        xb_sq = sq_norms(xb) if x_sq is None else x_sq[s]
        block = np.add(xb_sq[:, None], c_sq[None, :], out=None if reduce else out[s])
        product = xb @ c.T
        block -= np.multiply(product, 2.0, out=product)  # exact, so the bits of 2.0 * (x.c)
        np.clip(block, 0.0, None, out=block)
        if reduce:
            out.append(reduce(block, s))
    return np.concatenate(out) if reduce else out


def sqdist_exact(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise-exact squared L2 distances, (n, k) float64.

    Each entry is computed as ``sum((x_i - c_j)**2)`` over its own pair of
    rows only, so results do not depend on which other rows are present.
    It sums d nonnegative rounded squares of rounded differences, so it is
    within ``gamma_{d+2} D`` of the real squared distance D (Higham ch. 3),
    which :func:`key_bounds` builds on. Each row of ``x`` walks ``c`` in
    blocks of ``_EXACT_ROWS`` rows, one float64 block of differences alive
    at a time.
    """
    x, c = _as_pair(x, c, None)
    out = np.empty((len(x), len(c)))
    for i in range(len(x)):
        for s in range(0, len(c), _EXACT_ROWS):
            _sqdist_rows(c[s : s + _EXACT_ROWS], x[i], out[i, s : s + _EXACT_ROWS])
    return out


def sqdist_pairs(x: np.ndarray, c: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`sqdist_exact` of each pair of rows ``x[i]`` and ``c[j]``, the
    same bits, in blocks of pairs that hold no pairs×d float64 copy."""
    out = np.empty(len(i))
    for s in range(0, len(i), _EXACT_ROWS):
        block = slice(s, s + _EXACT_ROWS)
        _sqdist_rows(x.take(i[block], 0), c.take(j[block], 0), out[block])
    return out


def _sqdist_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``sum((a - b)**2)`` of each row of ``a`` into ``out``, ``b`` one row
    or as many rows as ``a``: one float64 block of differences, summed by a
    row ``einsum``. The exact kernels' one body."""
    diff = np.subtract(a, b, dtype=np.float64)
    np.einsum("ij,ij->i", diff, diff, out=out)


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
    """The row side of :func:`key_bounds`, valid for any subset of the rows:
    their float32 ``center``, largest half norm and a bound V on their
    norms, and E's row terms, which :func:`row_keys` derives once: ``fixed``,
    ``slope`` ``gamma32_{d+3} V``, ``quad`` ``2 gamma_{d+2}`` and the
    guard's ``2 max(V, 1/4)``."""

    center: np.ndarray
    h_max: float
    v_max: float
    fixed: float
    slope: float
    quad: float
    guard: float


def key_bounds(queries: np.ndarray, frame: KeyFrame) -> tuple:
    """``p = fl32(q - center)`` for each float64 query of a block, and the
    bound ``E`` of its float32 keys over float32 rows, given the rows'
    :class:`KeyFrame` from :func:`row_keys`. Where E is +inf, p is 0,
    whose products cannot overflow. For one 1-d query, its p and E as a
    float: the same bits, from scalar operations.

    The key of a query q and a float32 row v of half norm h (:func:`row_keys`)
    is ``k = fl32(h - fl32(p.v))``. With ``w = q - center`` real, ``H`` the
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
    row terms are the frame's, so a query costs a few operations on its own.

    Penalties. Cells with penalties b >= 0 (:func:`row_keys`) key with
    ``hb = fl32(fl64(h + b / 2))`` for h, against ``Y = fl64(X + b)``.
    With ``b_max`` the largest b, ``|k - (Y / 2 - C)| <= E`` for every row
    when E gains the term ``2^-23 (h_max + b_max) + 2^-149``, the
    :class:`RowKeys`' ``term``:

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
    w = np.subtract(queries, frame.center, dtype=np.float64)
    if w.ndim == 1:  # Python floats round as float64 arrays do, and never warn
        a = math.sqrt(sq_norms(w[None, :])[0])
        if not frame.h_max + frame.guard * a <= 2.0**125:
            return np.zeros(len(w), np.float32), math.inf
        return w.astype(np.float32), frame.fixed + a * (frame.slope + frame.quad * a)
    with np.errstate(over="ignore", invalid="ignore"):
        p = w.astype(np.float32)
        a = np.sqrt(sq_norms(w))
        bound = frame.fixed + a * (frame.slope + frame.quad * a)
        safe = frame.h_max + frame.guard * a <= 2.0**125
    if not safe.all():
        p[~safe], bound[~safe] = 0.0, np.inf
    return p, bound


def nearest_r(query: np.ndarray, keys: RowKeys, spans, r: int, ids: np.ndarray | None = None,
              kernel=sqdist_exact) -> tuple[np.ndarray, np.ndarray]:
    """The r rows nearest to one ``query`` among ``keys.points[start:end]``
    for each ``(start, end)`` of ``spans``: their ``ids`` (row numbers
    without) and values ``fl64(X + b)``, X the caller's :func:`sqdist_exact`
    ``kernel`` and b the row's penalty, if any, ranked by :func:`top_r`.
    With more than r rows, one sgemv and one subtract key each span in
    place into one buffer, and only the rows with keys at most κ + 2E (κ the
    r-th smallest key, E with the penalties' term) are mapped back to row
    numbers and reach ``kernel``, in one call: about r without near-ties,
    every row where E is +inf (a NaN query, for one).
    """
    query, points = np.asarray(query, dtype=np.float64), keys.points
    if query.shape != points.shape[1:]:
        raise ValueError(f"query must be a 1-d vector of dim {points.shape[1]}, not {query.shape}")
    stops = list(itertools.accumulate(end - start for start, end in spans))  # ends in the buffer
    p, bound = key_bounds(query, keys.frame) if stops[-1] > r else (None, math.inf)
    bound += keys.term
    if bound < math.inf:
        matrix, buf = np.asarray(points, np.float32), np.empty(stops[-1], np.float32)
        for (start, end), stop in zip(spans, stops):
            out = buf[stop - end + start : stop]
            np.subtract(keys.half[start:end], np.dot(matrix[start:end], p, out=out), out=out)
        kept = np.flatnonzero(buf <= _cut_at(np.partition(buf, r - 1)[r - 1], bound))
    else:
        kept = np.arange(stops[-1])
    shift = np.subtract([end for _, end in spans], stops)  # row minus position, per span
    rows = kept + shift[np.searchsorted(stops, kept, side="right")]
    values = kernel(query[None, :], points.take(rows, 0))[0]
    if keys.penalties is not None:
        values += keys.penalties[rows]
    return top_r(rows if ids is None else ids[rows], values, r)


def _cut_at(kappa, bound):
    """The float32 ``κ + 2 E``, rounded up, of one query or per query: -inf
    where the caller set E to -inf, far inside float32's range where finite."""
    if isinstance(bound, float):  # one query's: Python floats round as float64 arrays do
        exact = float(kappa) + 2.0 * bound
        cut = np.float32(exact)
        return np.nextafter(cut, np.float32(np.inf)) if float(cut) < exact else cut
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
    and ``frame`` are the rows' :func:`row_keys`.

    The rows are walked in tiles, one float32 GEMM of keys each. κ, each
    query's r-th smallest key so far, starts at the first tile's (one
    partition), and each tile emits the rows with keys at most ``κ + 2 E``,
    which then update κ. κ only falls, so a final cut at the last κ keeps
    every row that :func:`key_bounds` says can reach the top r: the cut of
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
        keys = np.matmul(p, rows[start : start + width].T,
                         out=buf[: len(p) * width].reshape(len(p), width))
        keys = np.subtract(half[start : start + width], keys, out=keys)
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


class RowKeys(NamedTuple):
    """The rows ``points`` as :func:`row_keys` keys them: their half norms
    (with half of each cell's ``penalties`` entry), their frame, and the
    penalties' ``term`` of :func:`key_bounds`."""

    points: np.ndarray
    half: np.ndarray
    frame: KeyFrame
    term: float = 0.0
    penalties: np.ndarray | None = None


def row_keys(points: np.ndarray, penalties: np.ndarray | None = None) -> RowKeys:
    """The :class:`RowKeys` of ``points``, read-only: each float32 row's
    half squared distance to a float32 center,
    ``h = fl32(fl32(|fl32(v - center)|^2) / 2)``, summed in float32 one
    tile of rows at a time, and the rows' :class:`KeyFrame`. The center is
    the mean of an evenly strided sample of at least a thousand rows (all
    of them up to 2,047). As distances do not change under translation,
    any center is valid for :func:`key_bounds`, whose docstring derives
    ``v_max``. Where float32 rounds a row, ``h_max`` is +inf: the keys
    decide nothing. With ``penalties`` (b >= 0 per row, a cell), each h
    becomes ``fl32(fl64(h + b / 2))``: the keys rank the cells by distance
    plus penalty.
    """
    points = _as_matrix(points, "c")
    rows = np.asarray(points, dtype=np.float32)
    n, d = rows.shape
    half = np.empty(n, dtype=np.float32)
    center, h_max, v_max = np.zeros(d, np.float32), 0.0, 0.0  # no rows: nothing to bound
    if n:
        center = rows[:: max(1, n // 1024)].mean(axis=0, dtype=np.float64).astype(np.float32)
        # Tiles of 64Ki entries. A flat subtract of a repeated center runs long
        # loops; a broadcast over the rows would loop d entries at a time.
        step = max(1, 64 * 1024 // max(1, d))
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
        v_max = (math.sqrt(sq_norms(center[None, :])[0]) + math.sqrt(spread)) * (1 + _gamma(d + 10))
    if rows is not points and not np.array_equal(rows, points):
        h_max = np.inf
    fixed = (_gamma(d + 4, _UNIT_ROUNDOFF32) * (1 + 2 * _gamma(d + 2, _UNIT_ROUNDOFF32)) * h_max
             + (d**0.5 * v_max + 2 * d + 2) * 2.0**-149)
    frame = KeyFrame(center, h_max, v_max, fixed, _gamma(d + 3, _UNIT_ROUNDOFF32) * v_max,
                     2 * _gamma(d + 2), 2 * max(v_max, 0.25))
    term = 0.0
    if penalties is not None:
        with np.errstate(over="ignore"):  # past float32's range, E is +inf
            half = (half + penalties / 2).astype(np.float32)
        total = frame.h_max + float(penalties.max())
        term = 2.0**-23 * total + 2.0**-149 if total <= 2.0**125 else np.inf
    half.flags.writeable = frame.center.flags.writeable = False
    return RowKeys(points, half, frame, term, penalties)


def keyed_blocks(x: np.ndarray, cells: RowKeys, m: int = 1, rows: np.ndarray | None = None):
    """Each kernel row block of ``x``, or of ``x[rows]`` gathered one block
    at a time, keyed against the cells: ``(block, ids, product, keys, E)``,
    with ``block`` its rows' index into ``x``, ``product`` the float32
    ``fl32(p.c)`` of :func:`key_bounds`' p with each centroid, ``keys``
    ``fl32(hb - product)``, E the rows' bound without the penalties' term,
    and ``ids`` the rows' (rows, m) :func:`nearest_cells` cells."""
    x = _as_pair(x, cells.points, None)[0]
    matrix = np.asarray(cells.points, dtype=np.float32)
    step = _block_rows(len(matrix), x.shape[1])
    for start in range(0, len(x) if rows is None else len(rows), step):
        block = slice(start, start + step) if rows is None else rows[start : start + step]
        points = x[block]
        p, bound = key_bounds(points, cells.frame)
        product = np.matmul(p, matrix.T)
        keys = np.subtract(cells.half, product)
        yield block, _choose(points, keys, bound + cells.term, cells, m), product, keys, bound
        del points, p, product, keys  # the caller's del frees them before the next block


def nearest_cells(x: np.ndarray, cells: RowKeys, m: int = 1) -> np.ndarray:
    """The (n, m) ids of the m cells with the smallest ``fl64(X + b)`` for
    each row of ``x``, X its :func:`sqdist_exact` value to a centroid and b
    the cell's penalty (0 without), lowest id on ties and NaN last: the
    first m of a full sort, a function of the row alone.

    It is :func:`nearest_r`'s cut with the centroids as the rows, over the
    :func:`keyed_blocks` of ``x``. A row that keeps one cell at m = 1 is
    decided; every other row, and every row at m > 1 so that the order is
    exact, is ranked on its kept cells (about m without near-ties, every
    cell where E is +inf), all rows of the block in one pass.
    """
    out = np.empty((len(x), m), dtype=np.int64)
    for block, ids, *_ in keyed_blocks(x, cells, m):
        out[block] = ids
    return out


def _choose(x, keys, bound, cells: RowKeys, m: int) -> np.ndarray:
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
