"""Inverted-file index with multi-probe search over a balanced codebook.

Cell contents are defined by the penalized assignment, so query routing
uses penalized distances too by default: routing with plain distances would
probe cells inconsistent with what is stored in them. Candidates are always
re-ranked by true (unpenalized) squared L2; penalties only steer which
cells get scanned. The ``plain`` route is available for measuring the
difference.

The index is immutable after build; concurrent searches over a shared
index are safe.

This module also owns the codebook and index directory format: each file is
written once, ``META_FILE`` last, and a load parses the bytes it checked.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balancer import Codebook, assign_balanced
from .dataset import VectorSet, decode_fvecs, encode_fvecs
from .distances import sqdist_exact, sqdist_to_centroids
from .kmeans import Centroids

CENTROIDS_FILE = "centroids.fvecs"
PENALTIES_FILE = "penalties.txt"
LISTS_FILE = "lists.bin"
META_FILE = "meta.txt"

# The meta.txt key holding each index artifact's sha256.
_CHECKSUM_KEYS = {
    CENTROIDS_FILE: "checksum_centroids",
    PENALTIES_FILE: "checksum_penalties",
    LISTS_FILE: "checksum_lists",
}

ROUTE_PENALIZED = "penalized"
ROUTE_PLAIN = "plain"

DEFAULT_R_RESULTS = 100


@dataclass(frozen=True)
class SearchParams:
    """Probe count, result length, and the routing flag."""

    ma: int
    r_results: int = DEFAULT_R_RESULTS
    route: str = ROUTE_PENALIZED

    def __post_init__(self) -> None:
        if self.ma < 1:
            raise ValueError("ma must be >= 1")
        if self.r_results < 1:
            raise ValueError("r_results must be >= 1")
        if self.route not in (ROUTE_PENALIZED, ROUTE_PLAIN):
            raise ValueError(f"unknown route: {self.route!r}")


@dataclass(eq=False)
class QueryResult:
    """Ranked hits (ascending true distance, ties by id) plus scan cost."""

    ids: np.ndarray
    dists: np.ndarray
    scanned: int
    probed_cells: np.ndarray

    @property
    def hits(self) -> list[tuple[int, float]]:
        return [(int(i), float(d)) for i, d in zip(self.ids, self.dists)]


@dataclass(eq=False)
class InvertedFile:
    """Codebook plus the posting lists of all cells, in CSR form.

    ``ids`` holds every indexed point id exactly once, grouped by cell:
    list i is ``ids[offsets[i]:offsets[i + 1]]`` and holds exactly the
    points the penalized assignment maps to cell i. Construction checks
    this, so a built and a loaded index satisfy it alike.
    """

    codebook: Codebook
    offsets: np.ndarray
    ids: np.ndarray
    source: VectorSet

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        k, n = self.codebook.k, self.source.count
        if self.offsets.shape != (k + 1,) or self.offsets[0] != 0:
            raise ValueError(f"expected {k + 1} posting-list offsets, the first 0")
        if (np.diff(self.offsets) < 0).any():
            raise ValueError("posting-list offsets must not decrease")
        if self.ids.shape != (n,) or self.offsets[-1] != n:
            raise ValueError(
                f"posting lists cover {self.offsets[-1]} ids, dataset has {n}"
            )
        if n and (self.ids.min() < 0 or self.ids.max() >= n):
            raise ValueError(f"posting lists hold ids outside [0, {n})")
        if (np.bincount(self.ids, minlength=n) != 1).any():
            raise ValueError("posting lists repeat a point id")

    @property
    def k(self) -> int:
        return self.codebook.k

    @property
    def count(self) -> int:
        return self.source.count

    @property
    def lists(self) -> list[np.ndarray]:
        """Per-cell views into ``ids``."""
        return np.split(self.ids, self.offsets[1:-1])

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def cell_of_points(self) -> np.ndarray:
        """Inverse mapping: the cell id storing each point."""
        cell_of = np.empty(self.count, dtype=np.int64)
        cell_of[self.ids] = np.repeat(np.arange(self.k), self.list_sizes())
        return cell_of


def build(data: VectorSet, codebook: Codebook) -> InvertedFile:
    """Quantize the data into k posting lists under the codebook's penalties."""
    if data.count == 0:
        raise ValueError("cannot index an empty dataset")
    assignment = assign_balanced(data, codebook)
    ids = np.argsort(assignment.cell_of, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(assignment.counts)))
    return InvertedFile(codebook, offsets, ids, data)


def route_cells_batch(
    queries: np.ndarray, codebook: Codebook, ma: int, route: str = ROUTE_PENALIZED
) -> np.ndarray:
    """Per query, the ma nearest cells (ascending, lowest-index tie-break).

    Returns a (Q, ma) int array. Uses the same distance path as assignment,
    so routing a stored point with ma=1 lands on its own cell.
    """
    if not 1 <= ma <= codebook.k:
        raise ValueError(f"ma={ma} out of range [1, {codebook.k}]")
    if route not in (ROUTE_PENALIZED, ROUTE_PLAIN):
        raise ValueError(f"unknown route: {route!r}")
    d2 = sqdist_to_centroids(queries, codebook.centroids.points)
    if route == ROUTE_PENALIZED:
        d2 += codebook.penalties[None, :]
    return np.argsort(d2, axis=1, kind="stable")[:, :ma]


def select_cells(
    query: np.ndarray, codebook: Codebook, ma: int, route: str = ROUTE_PENALIZED
) -> np.ndarray:
    """The ma cells nearest to one query vector, in probe order."""
    query = np.asarray(query)
    if query.ndim != 1:
        raise ValueError("query must be a 1-d vector")
    if query.shape[0] != codebook.dim:
        raise ValueError(
            f"dimension mismatch: query dim {query.shape[0]}, "
            f"codebook dim {codebook.dim}"
        )
    return route_cells_batch(query[None, :], codebook, ma, route)[0]


def search(index: InvertedFile, query: np.ndarray, params: SearchParams) -> QueryResult:
    """Scan the probed cells and return the top results by true distance.

    ``scanned`` is the summed population of the probed cells: the quantity
    whose spread across queries measures response-time variability.
    """
    cells = select_cells(query, index.codebook, params.ma, params.route)
    offsets = index.offsets
    candidates = np.concatenate([index.ids[offsets[c] : offsets[c + 1]] for c in cells])
    query64 = np.asarray(query, dtype=np.float64)
    d2 = sqdist_exact(query64[None, :], index.source.data[candidates])[0]
    order = np.lexsort((candidates, d2))[: params.r_results]
    return QueryResult(
        ids=candidates[order],
        dists=d2[order],
        scanned=int(candidates.size),
        probed_cells=cells,
    )


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _encode_lists(index: InvertedFile) -> bytes:
    """Each list as its int32 length followed by its int32 ids, in cell order."""
    sizes = index.list_sizes()
    return np.insert(index.ids, index.offsets[:-1], sizes).astype("<i4").tobytes()


def _decode_lists(raw: bytes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_encode_lists`: the (offsets, ids) of k lists."""
    words = np.frombuffer(raw, dtype="<i4", count=len(raw) // 4)
    offsets = np.zeros(k + 1, dtype=np.int64)
    for cell in range(k):
        pos = int(offsets[cell]) + cell  # each earlier list adds one header word
        # A missing length header reads as -1: the file ends before list ``cell``.
        length = int(words[pos]) if pos < len(words) else -1
        if length < 0 or pos + 1 + length > len(words):
            raise ValueError(f"posting-list file truncated at list {cell}")
        offsets[cell + 1] = offsets[cell] + length
    if 4 * (offsets[-1] + k) != len(raw):
        raise ValueError("posting-list file has trailing bytes")
    return offsets, np.delete(words, offsets[:-1] + np.arange(k)).astype(np.int64)


def _write_directory(
    directory: str | os.PathLike, files: dict[str, bytes], meta: dict
) -> None:
    """Write each file once, then ``meta`` as key=value lines to META_FILE."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, blob in files.items():
        (directory / name).write_bytes(blob)
    lines = "".join(f"{key}={value}\n" for key, value in meta.items())
    (directory / META_FILE).write_text(lines)


def _read_directory(
    directory: Path, names: tuple[str, ...]
) -> tuple[dict[str, str], dict[str, bytes]]:
    """The key=value pairs of META_FILE and the bytes of each named file."""
    meta: dict[str, str] = {}
    for line in (directory / META_FILE).read_text().splitlines():
        line = line.strip()
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return meta, {name: (directory / name).read_bytes() for name in names}


def _encode_codebook(codebook: Codebook) -> dict[str, bytes]:
    """Float32 centroids as fvecs and penalties as float64 reprs: both lossless."""
    centroids = VectorSet.from_array(codebook.centroids.points)
    penalties = "".join(f"{float(b)!r}\n" for b in codebook.penalties)
    return {CENTROIDS_FILE: encode_fvecs(centroids), PENALTIES_FILE: penalties.encode()}


def _decode_codebook(
    directory: Path, meta: dict[str, str], files: dict[str, bytes]
) -> Codebook:
    """Parse a codebook from :func:`_read_directory` output; ValueError when
    the meta ``k`` or ``dim`` disagrees with the centroids file."""
    centroids = Centroids(
        decode_fvecs(files[CENTROIDS_FILE], directory / CENTROIDS_FILE).data
    )
    if (meta.get("k"), meta.get("dim")) != (str(centroids.k), str(centroids.dim)):
        raise ValueError(
            f"{META_FILE} declares k={meta.get('k')}, dim={meta.get('dim')}; "
            f"{CENTROIDS_FILE} holds k={centroids.k}, dim={centroids.dim}"
        )
    penalties = [float(x) for x in files[PENALTIES_FILE].splitlines() if x.strip()]
    return Codebook(centroids, penalties, int(meta.get("iteration", 0)))


def save_codebook(
    codebook: Codebook, directory: str | os.PathLike, extra_meta: dict | None = None
) -> None:
    """Persist a codebook: centroids.fvecs, penalties.txt, and meta.txt with
    k, dim, the balancing iteration and then ``extra_meta``."""
    meta = {"k": codebook.k, "dim": codebook.dim, "iteration": codebook.iteration}
    meta.update(extra_meta or {})
    _write_directory(directory, _encode_codebook(codebook), meta)


def load_codebook(directory: str | os.PathLike) -> Codebook:
    """Load a codebook persisted by :func:`save_codebook` or :func:`save_index`."""
    directory = Path(directory)
    meta, files = _read_directory(directory, (CENTROIDS_FILE, PENALTIES_FILE))
    return _decode_codebook(directory, meta, files)


def save_index(index: InvertedFile, directory: str | os.PathLike) -> None:
    """Persist the index directory: codebook files, lists.bin and meta.txt.

    meta.txt records k, dim, N, the balancing iteration, and sha256
    checksums of every artifact plus the indexed data buffer, so load can
    verify it is being paired with the right dataset.
    """
    files = _encode_codebook(index.codebook)
    files[LISTS_FILE] = _encode_lists(index)
    meta = {
        "k": index.codebook.k,
        "dim": index.codebook.dim,
        "iteration": index.codebook.iteration,
        "n": index.source.count,
    }
    meta.update({key: _sha256(files[name]) for name, key in _CHECKSUM_KEYS.items()})
    meta["checksum_data"] = _sha256(index.source.data.tobytes())
    _write_directory(directory, files, meta)


def load_index(directory: str | os.PathLike, data: VectorSet) -> InvertedFile:
    """Load a persisted index and bind it to its source vectors.

    Raises ValueError if any checksum disagrees, the supplied data does
    not match the dataset the index was built over, the meta k or dim
    disagrees with the centroids, or the posting lists are not a
    permutation of the dataset's ids.
    """
    directory = Path(directory)
    meta, files = _read_directory(directory, tuple(_CHECKSUM_KEYS))
    for name, key in _CHECKSUM_KEYS.items():
        if meta.get(key) != _sha256(files[name]):
            raise ValueError(f"checksum mismatch for {name}")
    if meta.get("checksum_data") != _sha256(data.data.tobytes()):
        raise ValueError("supplied vectors do not match the indexed dataset")
    if (meta.get("n"), meta.get("dim")) != (str(data.count), str(data.dim)):
        raise ValueError("dataset shape disagrees with index metadata")
    codebook = _decode_codebook(directory, meta, files)
    offsets, ids = _decode_lists(files[LISTS_FILE], codebook.k)
    return InvertedFile(codebook, offsets, ids, data)
