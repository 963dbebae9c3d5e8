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

Search and ground truth both rank with :func:`nearest_r`, the one exact
top-r: :func:`screen_float32` bounds one float32 product per row,
:func:`certified` keeps the rows that can still reach the r-th smallest,
the caller's exact kernel re-scores them and :func:`top_r` ranks them,
bit for bit as an exact scan of every row would, for any data.

All arithmetic is float64 regardless of input dtype; float32 inputs widen
exactly, except in :func:`screen_float32` and in the float32 screen that
:func:`nearest_cells` reads.
"""

from __future__ import annotations

import numpy as np

# Rows per kernel block: rows * k * dim stays near this, so the float64
# (rows, k, dim) difference block of sqdist_exact is ~128 MiB.
_CHUNK_ELEMS = 16 * 1024 * 1024

# Row blocks of nearest_cells hold about this many float64 entries.
_ARGMIN_BLOCK_ELEMS = 64 * 1024

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
    """Rows per block of either kernel, counted from row 0."""
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
    """
    x, c = _as_pair(x, c)
    n, d = x.shape
    k = c.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    rows = _block_rows(k, d)  # the bits do not depend on it
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = x[start:stop, None, :] - c[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:stop])
    return out


def screen_float32(
    query: np.ndarray, vectors: np.ndarray, v_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Squared L2 distances from one float64 ``query`` to the rows of a
    float32 matrix, screened with one float32 BLAS product, and their
    rounding-error bounds.

    ``v_sq`` holds the rows' :func:`sq_norms`. Returns ``(screened, b, g)``.
    With ``D`` the real squared distance of the query and row j, for every
    j whose ``screened[j]`` is finite::

        |screened[j] - D| <= b[j]
        |sqdist_exact(query, vectors)[j] - D| <= g * D

    With ``p = fl32(query)`` and ``t = |q|^2 + v_sq`` in float64,
    ``screened = t - 2 fl32(v.p)`` and ``b = gamma32_{d+2} t + d 2^-140``
    (Higham ch. 3; ``gamma32`` is ``gamma`` at float32's u = 2^-24). In any
    summation order, fused or not, the float32 dot is within
    ``gamma32_d |v| |p|`` of ``v.p``, plus ``d 2^-150`` for products below
    float32's normal range (sums there are exact: IEEE gradual underflow,
    numpy's default), and ``v.p`` is within ``|v| |q - p|`` of ``v.q``,
    where ``|q - p| <= u |q| + sqrt(d) 2^-150``. As ``|p| <= |q| + |q - p|``
    and ``gamma32_d + u (1 + gamma32_d) <= gamma32_{d+1}``, the doubled
    errors are at most ``2 gamma32_{d+1} |v| |q|``, so at most
    ``gamma32_{d+1} (|q|^2 + |v|^2)`` (AM-GM), plus the subnormal term
    ``2 (1 + gamma32_d) sqrt(d) 2^-150 |v|``, which AM-GM puts below
    ``2^-60 |v|^2 + d 2^-240``; that constant and the doubled ``d 2^-150``
    are far below ``d 2^-140``. ``d + 2`` leaves a spare ``u t`` over
    ``d + 1`` for the ``2^-60 |v|^2``, the float64 error of ``t`` (within
    ``gamma_{d+1}``), the add forming ``screened``, and the rounding of
    ``b`` and of the tests :func:`certified` builds on it. A float32
    product that overflows gives a non-finite ``screened[j]``, for which
    nothing is claimed. The exact kernel sums d nonnegative rounded
    squares of rounded differences, so ``g = gamma_{d+2}``.
    """
    d = vectors.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        p = query.astype(np.float32)
        t = v_sq + np.dot(query, query)
        # -2 fl32(v.p), exact in float64, plus t
        screened = np.multiply(vectors @ p, -2.0, dtype=np.float64)
        screened += t
        b = np.multiply(t, _gamma(d + 2, _UNIT_ROUNDOFF32), out=t)
        b += d * 2.0**-140
    return screened, b, _gamma(d + 2)


def certified(screened: np.ndarray, b, g: float, r: int) -> np.ndarray:
    """Indices of the entries whose exact value can still be among the r
    smallest (ties included), for screened values within ``b`` of the
    real ones and an exact kernel within relative ``g`` of them (from
    :func:`screen_float32`), 1 <= r <= len.

    Each entry's real value is at most ``screened + b`` (+inf where the
    screened value is not finite), so r exact values are at most ``hi``,
    the r-th smallest such bound times ``1 + g``, and so is the r-th
    smallest exact value. An entry with ``(screened - b) (1 - g) > hi``
    has an exact value above it and is dropped; every other one is kept,
    a non-finite screened value always. ``~(>)`` keeps NaN comparisons.
    One temporary of the screened row's size serves both tests.
    """
    bad = ~np.isfinite(screened)
    with np.errstate(invalid="ignore"):  # inf - inf where b is infinite
        bound = np.add(screened, b)
        if bad.any():
            bound[bad] = np.inf
        bound.partition(r - 1)
        hi = bound[r - 1] * (1.0 + g)
        np.subtract(screened, b, out=bound)
        bound *= 1.0 - g
    return np.flatnonzero(~(bound > hi) | bad)


def top_r(ids: np.ndarray, d2: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest of the exact distances ``d2`` and their ``ids``,
    ranked by ``(distance, id)``, lowest id on ties and NaN last.

    ``np.partition`` finds the r-th smallest value and only the entries at
    or below it are sorted. Every entry the full sort ranks within the
    first r is at or below that value, boundary ties included, and
    ``(distance, id)`` is a total order, so the result is exactly the full
    sort's first r.
    """
    if d2.size > r:
        # Not ``d2 <= kth``: a NaN kth (NaN query) must keep every entry.
        keep = np.flatnonzero(~(d2 > np.partition(d2, r - 1)[r - 1]))
        ids, d2 = ids[keep], d2[keep]
    order = np.lexsort((ids, d2))[:r]
    return ids[order], d2[order]


def nearest_r(kernel, query: np.ndarray, rows: np.ndarray, rows_sq: np.ndarray,
              ids: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``ids`` and ``kernel`` values of the r float32 ``rows`` nearest
    to one ``query``, ranked by :func:`top_r`: the first r of a full sort of
    every row's value. ``kernel`` is the caller's :func:`sqdist_exact` and
    ``rows_sq`` the rows' :func:`sq_norms`. With more than r rows, only the
    rows :func:`certified` keeps from :func:`screen_float32` reach
    ``kernel``, in one call: about r without near-ties, all for a NaN query.
    """
    query = np.asarray(query, dtype=np.float64)
    if len(rows) > r:
        keep = certified(*screen_float32(query, rows, rows_sq), r)
        rows, ids = rows[keep], ids[keep]
    return top_r(ids, kernel(query[None, :], rows)[0], r)
