"""Vector collections and the fvecs/bvecs interchange format.

The fvecs format is the ANN-benchmark standard: each record is a 4-byte
little-endian int32 dimension ``d`` followed by ``d`` little-endian float32
components, records concatenated with no header or footer. bvecs files use
the same framing with uint8 components and are widened to float32 on load.
Files ending in ``.bvecs`` are decoded as bvecs; everything else as fvecs.

An empty file loads as the empty sentinel ``VectorSet`` with ``count == 0``
and ``dim == 0``. The one write path, :func:`write_files`, writes every file
to a temporary renamed into place; every CSV goes through :func:`write_csv`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PathLike = str | os.PathLike

# Row blocks of gen_gaussian_mixture hold about this many float64 entries.
_GEN_BLOCK_ELEMS = 64 * 1024


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Immutable collection of fixed-dimension float32 vectors.

    ``data`` is a read-only (count, dim) row-major float32 matrix with no
    NaN/Inf entries. Safe for concurrent shared reads.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = self.data
        if not isinstance(arr, np.ndarray) or arr.ndim != 2:
            raise ValueError("VectorSet data must be a 2-d numpy array")
        if arr.dtype != np.float32:
            raise ValueError(f"VectorSet data must be float32, got {arr.dtype}")
        if arr.size and not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite value at record {bad[0]}, component {bad[1]}"
            )
        arr.setflags(write=False)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "VectorSet":
        """Build from any 2-d array-like, copying into C-order float32."""
        mat = np.ascontiguousarray(arr, dtype=np.float32)
        if mat.ndim != 2:
            raise ValueError("expected a 2-d array of vectors")
        return cls(mat)

    @classmethod
    def empty(cls) -> "VectorSet":
        """The documented empty-set sentinel: count == 0, dim == 0."""
        return cls(np.empty((0, 0), dtype=np.float32))


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


def load_fvecs(path: PathLike) -> VectorSet:
    """Load an fvecs (or .bvecs) file into a VectorSet.

    Raises ValueError with the offending record index on dimension
    mismatch, truncation, non-positive dim, or non-finite components.
    """
    file_path = Path(path)
    if not file_path.is_file():
        raise FileNotFoundError(f"no such vector file: {file_path}")
    return decode_fvecs(file_path.read_bytes(), file_path)


def decode_fvecs(raw: bytes, path: PathLike) -> VectorSet:
    """Decode the bytes read from ``path``, which names the file in errors
    and, by a ``.bvecs`` suffix, selects uint8 components."""
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
        # One copy; a no-op cast where float32 is little-endian.
        mat = np.ascontiguousarray(body).view("<f4").astype(np.float32, copy=False)
    if mat.size and not np.isfinite(mat).all():
        bad_record = int(np.argwhere(~np.isfinite(mat))[0][0])
        raise ValueError(f"{file_path}: non-finite value in record {bad_record}")
    return VectorSet(mat.reshape(count, dim))


def save_fvecs(vectors: VectorSet, path: PathLike) -> None:
    """Write a VectorSet as fvecs. load_fvecs(save_fvecs(s)) is bit-exact."""
    write_files(Path(path).parent, {Path(path).name: _fvecs_records(vectors)})


def encode_fvecs(vectors: VectorSet) -> bytes:
    """The fvecs bytes of a VectorSet; the empty set encodes as no bytes."""
    return _fvecs_records(vectors).tobytes()


def _fvecs_records(vectors: VectorSet) -> np.ndarray:
    """The fvecs records of a VectorSet as one structured array."""
    d = vectors.dim
    record = np.empty(vectors.count, dtype=np.dtype([("dim", "<i4"), ("vec", "<f4", (d,))]))
    record["dim"] = d
    record["vec"] = vectors.data
    return record


def write_files(directory: PathLike, files: dict[str, str | bytes | np.ndarray]) -> None:
    """Write each payload (text, bytes or a contiguous array) to a temporary
    ``.<name>.<random>.tmp`` beside its file, then rename each over its file
    in order; an error before the renames removes the temporaries and leaves
    every existing file as it was. Symlinks are followed; a name that is not
    a regular file (a device, say) is refused. Umask's mode; no fsync."""
    renames = []
    try:
        for name, payload in files.items():
            target = Path(os.path.realpath(Path(directory) / name))
            if target.exists() and not target.is_file():
                raise ValueError(f"{target} exists and is not a regular file")
            temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
            with open(temp, "xb") as fh:
                renames.append((temp, target))
                fh.write(payload.encode() if isinstance(payload, str) else payload)
        for temp, target in renames:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in renames:
            temp.unlink(missing_ok=True)
        raise


def format_csv(header: str, rows) -> str:
    """``header``, then per row the ``str`` of each field joined by commas.
    Pass Python scalars: ``str`` of a Python float is its repr."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def write_csv(path: PathLike, header: str, rows) -> None:
    """Write :func:`format_csv` of ``header`` and ``rows`` to ``path``."""
    write_files(Path(path).parent, {Path(path).name: format_csv(header, rows)})


def mixture_centers(seed: int, dim: int, modes: int) -> np.ndarray:
    """Mode centers for :func:`gen_gaussian_mixture`, (modes, dim) float64.

    Drawn uniformly from [-1/sqrt(dim), 1/sqrt(dim)]^dim using NumPy's
    seeded PCG64 stream, so the layout is a pure function of
    (seed, dim, modes). The shrinking box keeps typical center separations
    O(1) in any dimensionality, which keeps squared distances commensurate
    with the balancer's unit initial penalty.
    """
    if dim <= 0 or modes <= 0:
        raise ValueError("dim and modes must be positive")
    return _draw_centers(np.random.default_rng(seed), dim, modes)


def _draw_centers(rng: np.random.Generator, dim: int, modes: int) -> np.ndarray:
    half = 1.0 / np.sqrt(dim)
    return rng.uniform(-half, half, size=(modes, dim))


def gen_gaussian_mixture(
    seed: int,
    n: int,
    dim: int,
    modes: int,
    mode_weights: list[float] | np.ndarray,
    spread: float,
    centers_from_seed: int | None = None,
) -> VectorSet:
    """Sample ``n`` points from a mixture of isotropic Gaussians.

    Mode centers come from :func:`mixture_centers`; each point picks a mode
    with probability proportional to ``mode_weights`` and adds N(0, spread^2)
    noise per axis. Deterministic for fixed arguments (PCG64 via
    ``numpy.random.default_rng``). Unequal weights yield naturally imbalanced
    k-means cells downstream.

    ``centers_from_seed`` pins the mode layout to a different seed's, so a
    held-out query set can be drawn from the same mixture as a database
    generated with another seed.
    """
    if n <= 0 or dim <= 0 or modes <= 0:
        raise ValueError("n, dim and modes must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    weights = np.asarray(mode_weights, dtype=np.float64)
    if weights.shape != (modes,):
        raise ValueError(f"expected {modes} mode weights, got {weights.shape}")
    if not (weights > 0).all():
        raise ValueError("mode weights must be positive")
    weights = weights / weights.sum()

    rng = np.random.default_rng(seed)
    # Drawn even when replaced below, so the labels and noise that follow in
    # the stream do not depend on ``centers_from_seed``.
    centers = _draw_centers(rng, dim, modes)
    if centers_from_seed is not None:
        centers = mixture_centers(centers_from_seed, dim, modes)
    labels = rng.choice(modes, size=n, p=weights)
    # Row blocks draw the normal stream in the order of one (n, dim) draw
    # and round each point to float32 as a whole-array cast would.
    points = np.empty((n, dim), dtype=np.float32)
    rows = max(1, _GEN_BLOCK_ELEMS // dim)
    for start in range(0, n, rows):
        block = labels[start : start + rows]
        noise = rng.normal(0.0, spread, size=(len(block), dim))
        points[start : start + rows] = centers[block] + noise
    return VectorSet(points)
