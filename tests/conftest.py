import builtins
import errno
import hashlib
import io
import os

import numpy as np
import pytest

from ivfbalance import Centroids, Codebook, VectorSet, save_fvecs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_vectors(rng, n, dim, scale=1.0):
    """Random float32 VectorSet used across tests."""
    return VectorSet.from_array(rng.standard_normal((n, dim)) * scale)


@pytest.fixture
def small_set(rng):
    return random_vectors(rng, 100, 4)


def integer_tie_fixture():
    """Integer data and centroids, so every distance is exact whatever the
    summation order; cells 3-5 duplicate cells 0-2, so every point of those
    cells ties exactly under equal penalties."""
    rng = np.random.default_rng(7)
    data = VectorSet.from_array(rng.integers(-3, 4, size=(300, 4)))
    points = np.array(
        [[0, 0, 0, 0], [2, 2, 0, 0], [0, -2, 2, 0], [0, 0, 0, 0], [2, 2, 0, 0],
         [0, -2, 2, 0], [-2, 0, 0, 2]], dtype=np.float32,
    )
    return data, Codebook.fresh(Centroids(points))


def write_codebook_without_cells(directory):
    """A codebook directory as a k = 0 codebook would be saved: empty
    centroids.fvecs and penalties.txt, and a meta.txt whose checksums agree."""
    empty = hashlib.sha256(b"").hexdigest()
    directory.mkdir()
    (directory / "centroids.fvecs").write_bytes(b"")
    (directory / "penalties.txt").write_bytes(b"")
    (directory / "meta.txt").write_text(
        f"k=0\ndim=0\niteration=0\nchecksum_centroids={empty}\nchecksum_penalties={empty}\n")


def files_in(directory):
    """Name -> bytes of every file in ``directory``, dotfiles included."""
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))
            if (directory / name).is_file()}


class _FullDisk:
    """A file handle whose writes fail with ENOSPC, as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, _data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self._handle.name)


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(n)`` makes the n-th file opened for writing from then on
    fail as on a full disk: the open creates (or truncates) the file and
    its write raises ENOSPC. Reads pass through."""
    real_open = builtins.open

    def arm(n):
        opened = 0

        def open_(file, mode="r", *args, **kwargs):
            nonlocal opened
            handle = real_open(file, mode, *args, **kwargs)
            if set(mode) & set("wxa+"):
                opened += 1
                if opened == n:
                    return _FullDisk(handle)
            return handle

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.setattr(io, "open", open_)  # what pathlib opens through

    return arm


@pytest.fixture
def two_clusters(tmp_path):
    """(db, queries) fvecs paths: integer points in two far-apart clusters of
    4 and 3 points, and one query at a point of each, so every cell choice,
    scan count and distance is exact."""
    db, queries = tmp_path / "db.fvecs", tmp_path / "q.fvecs"
    save_fvecs(VectorSet.from_array(
        [[0, 0], [1, 0], [0, 1], [1, 1], [10, 10], [11, 10], [10, 11]]), db)
    save_fvecs(VectorSet.from_array([[0, 0], [10, 11]]), queries)
    return db, queries
