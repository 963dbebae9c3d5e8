"""Squared-L2 distance kernels shared by clustering, indexing and evaluation.

Two kernels with different determinism/speed trade-offs:

* :func:`sqdist_to_centroids` uses the BLAS expansion trick. It is fast and
  deterministic for identical inputs. Assignment and query routing both pick
  cells from it with :func:`nearest_cells`: same sums, same tie rule.
  Its bits for one row can depend on the other rows in the call (1- and
  2-row calls have been seen to differ from the same rows in a larger
  batch), so it does not decide ground-truth ranks on its own.
* :func:`sqdist_exact` computes elementwise differences, so each (row, col)
  distance is bitwise identical no matter how candidates are sliced,
  permuted, or batched. Candidate scoring and ground truth use this one:
  an exhaustive multi-probe search must reproduce the brute-force ranking
  exactly, ties included.

Ground truth combines the two (screen and certify). :func:`error_bounds`
bounds how far each kernel can be from the real squared distance of its
float64 inputs. The BLAS kernel screens all pairs; every pair whose exact
value could still reach the r-th smallest is re-scored with the exact
kernel, and the exact values decide. The result is bit-identical to an
exact scan of every pair, for any data.

All arithmetic is float64 regardless of input dtype; float32 inputs widen
exactly.
"""

from __future__ import annotations

import numpy as np

# Chunk row count so a temporary (rows, k, dim) float64 block stays ~128 MiB.
_CHUNK_ELEMS = 16 * 1024 * 1024

# Row blocks of nearest_cells hold about this many float64 entries.
_ARGMIN_BLOCK_ELEMS = 64 * 1024

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of n
    chained float64 roundings (*Accuracy and Stability of Numerical
    Algorithms*, ch. 3)."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _as_f64_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_dims(x: np.ndarray, c: np.ndarray) -> None:
    if x.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: vectors have dim {x.shape[1]}, "
            f"centroids have dim {c.shape[1]}"
        )


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of a float64 matrix."""
    return np.einsum("ij,ij->i", a, a)


def sqdist_to_centroids(
    x: np.ndarray, c: np.ndarray, x_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared L2 distances from each row of ``x`` to each row of ``c``.

    Returns an (n, k) float64 matrix, clipped at zero (the expansion
    ``|x|^2 + |c|^2 - 2 x.c`` can go slightly negative for near-identical
    pairs). A caller that reuses one ``x`` against many ``c`` passes it
    widened to float64 and its ``x_sq = sq_norms(x)`` once; the result is
    the same bits as without them.
    """
    x = _as_f64_matrix(x, "x")
    c = _as_f64_matrix(c, "c")
    _check_dims(x, c)
    n, d = x.shape
    k = c.shape[0]
    if x_sq is not None and (x_sq.shape != (n,) or x_sq.dtype != np.float64):
        raise ValueError(f"x_sq must be float64 of shape ({n},)")
    c_sq = sq_norms(c)
    out = np.empty((n, k), dtype=np.float64)
    rows = max(1, _CHUNK_ELEMS // max(1, k * d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        xb = x[start:stop]
        xb_sq = sq_norms(xb) if x_sq is None else x_sq[start:stop]
        block = xb_sq[:, None] + c_sq[None, :]
        block -= 2.0 * (xb @ c.T)
        np.clip(block, 0.0, None, out=block)
        out[start:stop] = block
    return out


def nearest_cells(
    d2: np.ndarray, penalties: np.ndarray | None = None, m: int = 1
) -> np.ndarray:
    """The (n, m) ids of the m cells with the smallest ``d2 + penalties`` in
    each row of an (n, k) distance matrix, nearest first, lowest id on ties.
    Cache-sized row blocks give each entry the float64 add of a whole-matrix
    one. m = 1 takes an argmin, m > 1 a stable argsort; they differ only on
    a row mixing NaN with numbers (a query with an infinite coordinate)."""
    n, k = d2.shape
    if penalties is not None and penalties.shape != (k,):
        raise ValueError(f"dimension mismatch: {k} cells, {penalties.size} penalties")
    rows = max(1, _ARGMIN_BLOCK_ELEMS // k)
    buf = np.empty((min(rows, n), k))
    out = np.empty((n, m), dtype=np.int64)
    for start in range(0, n, rows):
        block = d2[start : start + rows]
        if penalties is not None:
            block = np.add(block, penalties, out=buf[: len(block)])
        if m == 1:
            np.argmin(block, axis=1, out=out[start : start + rows, 0])
        else:
            out[start : start + rows] = np.argsort(block, axis=1, kind="stable")[:, :m]
    return out


def sqdist_exact(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise-exact squared L2 distances, (n, k) float64.

    Each entry is computed as ``sum((x_i - c_j)**2)`` over its own pair of
    rows only, so results do not depend on which other rows are present.
    """
    x = _as_f64_matrix(x, "x")
    c = _as_f64_matrix(c, "c")
    _check_dims(x, c)
    n, d = x.shape
    k = c.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    rows = max(1, _CHUNK_ELEMS // max(1, k * max(1, d)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = x[start:stop, None, :] - c[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:stop])
    return out


def error_bounds(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Rounding-error bounds of the two kernels for the rows of ``x``
    against the rows of ``c``.

    Returns ``(b, g)``. With ``D`` the real squared distance of a pair of
    (float64-widened) rows, for every row i of ``x`` and every row j of
    ``c``::

        |sqdist_to_centroids(x, c)[i, j] - D| <= b[i]
        |sqdist_exact(x, c)[i, j] - D|        <= g * D

    The BLAS expansion ``|x|^2 + |c|^2 - 2 x.c`` rounds three d-term dot
    products, each within ``gamma_d |x| |c|``, then two sums, so its error
    is at most ``gamma_{d+2} (|x| + |c|)^2``. ``b`` doubles that with
    ``gamma_{d+4}`` and the largest ``|c|``, which also covers the rounding
    of the norms the bound is computed from and of a test built on it.
    The exact kernel sums d nonnegative rounded squares of rounded
    differences, so its relative error is at most ``gamma_{d+2}``.
    """
    x = _as_f64_matrix(x, "x")
    c = _as_f64_matrix(c, "c")
    _check_dims(x, c)
    d = x.shape[1]
    x_norm = np.sqrt(sq_norms(x))
    c_norm = np.sqrt(sq_norms(c).max(initial=0.0))
    return 2.0 * _gamma(d + 4) * (x_norm + c_norm) ** 2, _gamma(d + 2)

