"""Inverted-file index with multi-probe search over a balanced codebook.

Cell contents are defined by the penalized assignment, so query routing
uses penalized distances too by default: routing with plain distances would
probe cells inconsistent with what is stored in them. Candidates are always
re-ranked by true (unpenalized) squared L2; penalties only steer which
cells get scanned. The ``plain`` route is available for measuring the
difference. Build and routing both pick cells with
``distances.nearest_cells``, the key cut that search and ground truth use,
over the centroids: each point's cell, and each query's probe order, is
the exact ranking of its own row, so a stored point routes to its own
cell one row at a time and in any batch.

The index is immutable after build; concurrent searches over a shared
index are safe.

This module also owns the codebook and index directory format: each file is
written through ``write_files``, ``META_FILE`` renamed last, and a load
parses the bytes it checked.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .balancer import Codebook, assign_balanced
from .dataset import VectorSet, decode_fvecs, fvecs_records, write_files
from .distances import KeyFrame, centered_half_norms, nearest_cells, nearest_r, sqdist_exact
from .distances import sqdist_to_centroids  # noqa: F401  (perfbench/spans.py wraps it here)
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
ROUTES = (ROUTE_PENALIZED, ROUTE_PLAIN)

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
        if self.route not in ROUTES:
            raise ValueError(f"unknown route: {self.route!r}")


@dataclass(eq=False)
class QueryResult:
    """Ranked hits (ascending true distance, ties by id) plus scan cost."""

    ids: np.ndarray
    dists: np.ndarray
    scanned: int
    probed_cells: np.ndarray


@dataclass(eq=False)
class InvertedFile:
    """Codebook plus the posting lists of all cells, in CSR form.

    ``ids`` holds every indexed point id exactly once, grouped by cell:
    list i is ``ids[offsets[i]:offsets[i + 1]]`` and holds exactly the
    points the penalized assignment maps to cell i. Construction checks
    this for a built and a loaded index alike, derives the point-to-cell
    map, ``vectors``, ``half`` and ``key_frame`` from the same arrays, and
    makes every array read-only.

    ``vectors`` is ``source.data[ids]``: the float32 vectors in list order,
    so cell i's vectors are the contiguous rows ``offsets[i]:offsets[i + 1]``
    and search scans slices instead of gathering rows from the whole
    dataset. The copy costs N * d * 4 bytes (12.8 MB at N=100k, d=32).
    ``half`` and ``key_frame`` are their ``centered_half_norms`` in the
    same order, for the key cut of search: N * 4 bytes (0.4 MB at N=100k)
    and a center with two scalars. All are derived at construction and
    never persisted.
    """

    codebook: Codebook
    offsets: np.ndarray
    ids: np.ndarray
    source: VectorSet
    vectors: np.ndarray = field(init=False, repr=False)
    half: np.ndarray = field(init=False, repr=False)
    key_frame: KeyFrame = field(init=False, repr=False)
    _cell_of: np.ndarray = field(init=False, repr=False)

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
        # n in-range ids leave a slot at -1 exactly when some id repeats.
        cell_of = np.full(n, -1, dtype=np.int64)
        cell_of[self.ids] = np.repeat(np.arange(k), self.list_sizes())
        if (cell_of < 0).any():
            raise ValueError("posting lists repeat a point id")
        self._cell_of = cell_of
        self.vectors = self.source.data[self.ids]
        self.half, self.key_frame = centered_half_norms(self.vectors)
        for array in (self.offsets, self.ids, cell_of, self.vectors, self.half,
                      self.key_frame.center):
            array.flags.writeable = False

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
        """Inverse mapping: the cell id storing each point (read-only)."""
        return self._cell_of


def build(data: VectorSet, codebook: Codebook) -> InvertedFile:
    """Quantize the data into k posting lists under the codebook's penalties."""
    if data.count == 0:
        raise ValueError("cannot index an empty dataset")
    cells = assign_balanced(data, codebook).cell_of
    ids = np.argsort(cells, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(cells, minlength=codebook.k))))
    return InvertedFile(codebook, offsets, ids, data)


def route_cells_batch(
    queries: np.ndarray, codebook: Codebook, ma: int, route: str = ROUTE_PENALIZED
) -> np.ndarray:
    """Per query, the ma nearest cells (ascending, lowest-index tie-break).

    Returns a (Q, ma) int array, picked by ``nearest_cells`` as build picks
    cells: each row's cells are a function of the row alone, so every
    stored point routes to its cell at ma=1, in any batch.
    """
    if not 1 <= ma <= codebook.k:
        raise ValueError(f"ma={ma} out of range [1, {codebook.k}]")
    if route not in ROUTES:
        raise ValueError(f"unknown route: {route!r}")
    return nearest_cells(queries, codebook.keys if route == ROUTE_PENALIZED
                         else codebook.centroids.keys, ma)


def select_cells(
    query: np.ndarray, codebook: Codebook, ma: int, route: str = ROUTE_PENALIZED
) -> np.ndarray:
    """The ma cells nearest to one query vector, in probe order."""
    query = np.asarray(query)
    if query.ndim != 1:
        raise ValueError("query must be a 1-d vector")
    return route_cells_batch(query[None, :], codebook, ma, route)[0]


def search(index: InvertedFile, query: np.ndarray, params: SearchParams) -> QueryResult:
    """Scan the probed cells and return the top results by true distance.

    ``scanned`` is the summed population of the probed cells: the quantity
    whose spread across queries measures response-time variability.

    Each probed cell is one contiguous slice of ``index.vectors`` and
    ``index.half``. ``distances.nearest_r`` cuts the candidates on their
    float32 keys, relative to the index's center, and ranks the survivors
    with one ``sqdist_exact`` call: exactly the first r of a full sort of
    every candidate by ``(distance, id)``.
    """
    cells = select_cells(query, index.codebook, params.ma, params.route)
    rows = [slice(index.offsets[c], index.offsets[c + 1]) for c in cells]
    vectors, half, candidates = (np.concatenate([a[s] for s in rows])
                                 for a in (index.vectors, index.half, index.ids))
    ids, dists = nearest_r(sqdist_exact, query, vectors, half, index.key_frame, candidates,
                           params.r_results)
    return QueryResult(ids=ids, dists=dists, scanned=int(candidates.size), probed_cells=cells)


def _sha256(payload: bytes | np.ndarray) -> str:
    return hashlib.sha256(payload).hexdigest()


def _encode_lists(index: InvertedFile) -> np.ndarray:
    """Each list as its int32 length followed by its int32 ids, in cell order."""
    return np.insert(index.ids, index.offsets[:-1], index.list_sizes()).astype("<i4")


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


def _save_directory(directory: str | os.PathLike, codebook: Codebook, meta: dict,
                    files: dict, **tail) -> None:
    """Write the codebook's files (float32 centroids as fvecs, penalties as
    float64 reprs: both lossless), then ``files``, then META_FILE, all
    through ``write_files``, META_FILE renamed last. It holds k, dim, the
    balancing iteration, ``meta``, each file's sha256 and ``tail``."""
    centroids = fvecs_records(VectorSet.from_array(codebook.centroids.points))
    penalties = "".join(f"{float(b)!r}\n" for b in codebook.penalties).encode()
    files = {CENTROIDS_FILE: centroids, PENALTIES_FILE: penalties, **files}
    checksums = {_CHECKSUM_KEYS[name]: _sha256(blob) for name, blob in files.items()}
    meta = {"k": codebook.k, "dim": codebook.dim, "iteration": codebook.iteration,
            **meta, **checksums, **tail}
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_files(directory, {**files, META_FILE: "".join(f"{k}={v}\n" for k, v in meta.items())})


def _read_directory(
    directory: Path, names: tuple[str, ...]
) -> tuple[dict[str, str], dict[str, bytes]]:
    """The key=value pairs of META_FILE and the bytes of each named file,
    each checked against the sha256 that META_FILE records for it."""
    meta: dict[str, str] = {}
    for line in (directory / META_FILE).read_text().splitlines():
        line = line.strip()
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    files = {name: (directory / name).read_bytes() for name in names}
    for name, blob in files.items():
        if meta.get(_CHECKSUM_KEYS[name]) != _sha256(blob):
            raise ValueError(f"checksum mismatch for {name}")
    return meta, files


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
    k, dim, the balancing iteration, ``extra_meta`` and then the sha256 of
    both files, which every load verifies."""
    _save_directory(directory, codebook, extra_meta or {}, {})


def load_codebook(directory: str | os.PathLike) -> Codebook:
    """Load a codebook persisted by :func:`save_codebook` or :func:`save_index`;
    ValueError when a file disagrees with its checksum or has none."""
    directory = Path(directory)
    meta, files = _read_directory(directory, (CENTROIDS_FILE, PENALTIES_FILE))
    return _decode_codebook(directory, meta, files)


def save_index(index: InvertedFile, directory: str | os.PathLike) -> None:
    """Persist the index directory: codebook files, lists.bin and meta.txt.

    meta.txt records k, dim, N, the balancing iteration, and sha256
    checksums of every artifact plus the indexed data buffer, so load can
    verify it is being paired with the right dataset.
    """
    _save_directory(directory, index.codebook, {"n": index.count},
                    {LISTS_FILE: _encode_lists(index)},
                    checksum_data=_sha256(np.ascontiguousarray(index.source.data)))


def load_index(directory: str | os.PathLike, data: VectorSet) -> InvertedFile:
    """Load a persisted index and bind it to its source vectors.

    Raises ValueError if any checksum disagrees, the supplied data does
    not match the dataset the index was built over, the meta k or dim
    disagrees with the centroids, or the posting lists are not a
    permutation of the dataset's ids.
    """
    directory = Path(directory)
    meta, files = _read_directory(directory, tuple(_CHECKSUM_KEYS))
    if meta.get("checksum_data") != _sha256(np.ascontiguousarray(data.data)):
        raise ValueError("supplied vectors do not match the indexed dataset")
    if (meta.get("n"), meta.get("dim")) != (str(data.count), str(data.dim)):
        raise ValueError("dataset shape disagrees with index metadata")
    codebook = _decode_codebook(directory, meta, files)
    offsets, ids = _decode_lists(files[LISTS_FILE], codebook.k)
    return InvertedFile(codebook, offsets, ids, data)
