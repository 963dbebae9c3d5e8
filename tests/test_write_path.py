"""Every file goes through ``dataset.write_files``: written whole to a
temporary, then renamed into place. A failed write leaves the previous
files byte-identical and loadable, with no temporary left behind."""

import os
import stat

import numpy as np
import pytest

import ivfbalance.dataset as dataset
from ivfbalance import (
    BalanceConfig,
    Centroids,
    Codebook,
    StopRule,
    balance,
    build,
    load_codebook,
    load_fvecs,
    load_index,
    save_codebook,
    save_fvecs,
    save_index,
)
from ivfbalance.dataset import format_csv, write_csv, write_files
from ivfbalance.harness import ground_truth_cached
from ivfbalance.metrics import ScanHistogram, write_histogram_csv

from conftest import files_in, random_vectors


def codebook_with(penalties, iteration):
    points = np.array([[0, 0], [4, 0], [0, 4]], dtype=np.float32)
    return Codebook(Centroids(points), np.array(penalties), iteration)


@pytest.fixture
def data(rng):
    return random_vectors(rng, 60, 2, scale=3.0)


@pytest.fixture
def renames(monkeypatch):
    """The (temporary, target) pair of every rename, in order."""
    done = []
    real_replace = os.replace

    def replace(src, dst):
        done.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(dataset.os, "replace", replace)
    return done


class TestWriteFiles:
    def test_payloads_are_written_whole(self, tmp_path):
        array = np.arange(3, dtype="<i4")
        write_files(tmp_path, {"a.txt": "x,1\n", "b.bin": b"\x00\xff", "c.bin": array})
        assert files_in(tmp_path) == {
            "a.txt": b"x,1\n", "b.bin": b"\x00\xff", "c.bin": array.tobytes(),
        }

    def test_overwrites_and_renames_in_order(self, tmp_path, renames):
        (tmp_path / "b").write_bytes(b"old")
        write_files(tmp_path, {"b": b"new", "a": b"first"})
        directory = tmp_path.resolve()
        assert [dst for _, dst in renames] == [directory / "b", directory / "a"]
        for src, _ in renames:
            assert src.parent == directory
            assert src.name.startswith(".") and src.name.endswith(".tmp")
        assert files_in(tmp_path) == {"a": b"first", "b": b"new"}

    def test_a_symlinked_name_is_followed(self, tmp_path):
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "real.csv").write_bytes(b"old")
        (tmp_path / "link.csv").symlink_to(tmp_path / "elsewhere" / "real.csv")
        write_csv(tmp_path / "link.csv", "a", [(1,)])
        assert (tmp_path / "link.csv").is_symlink()
        assert files_in(tmp_path / "elsewhere") == {"real.csv": b"a\n1\n"}

    def test_a_name_that_is_not_a_regular_file_is_refused(self, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        (tmp_path / "dir").mkdir()
        for name in ("pipe", "dir"):
            with pytest.raises(ValueError, match="not a regular file"):
                write_files(tmp_path, {"a": b"1", name: b"2"})
        assert stat.S_ISFIFO((tmp_path / "pipe").stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["dir", "pipe"]

    def test_meta_file_is_renamed_last(self, tmp_path, data, renames):
        save_index(build(data, codebook_with([1.0, 1.0, 1.0], 0)), tmp_path / "idx")
        names = [dst.name for _, dst in renames]
        assert names == ["centroids.fvecs", "penalties.txt", "lists.bin", "meta.txt"]

    def test_failure_removes_every_temporary(self, tmp_path, full_disk):
        full_disk(3)
        with pytest.raises(OSError):
            write_files(tmp_path, {"a": b"1", "b": b"2", "c": b"3", "d": b"4"})
        assert files_in(tmp_path) == {}


class TestFailedWriteKeepsThePreviousFiles:
    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_codebook_directory(self, tmp_path, full_disk, failing):
        old = codebook_with([0.5, 1.0, 2.0], 3)
        save_codebook(old, tmp_path / "cb", extra_meta={"alpha": 0.01})
        before = files_in(tmp_path / "cb")
        full_disk(failing)
        with pytest.raises(OSError, match="No space left"):
            save_codebook(codebook_with([1.5, 0.25, 1.0], 4), tmp_path / "cb")
        assert files_in(tmp_path / "cb") == before
        loaded = load_codebook(tmp_path / "cb")
        assert loaded.penalties.tobytes() == old.penalties.tobytes()
        assert loaded.iteration == 3

    @pytest.mark.parametrize("failing", [1, 2, 3, 4])
    def test_index_directory(self, tmp_path, data, full_disk, failing):
        old = build(data, codebook_with([1.0, 1.0, 1.0], 0))
        save_index(old, tmp_path / "idx")
        before = files_in(tmp_path / "idx")
        config = BalanceConfig(stop=StopRule.fixed_iters(3), alpha=0.5)
        balanced, _ = balance(data, codebook_with([1.0, 1.0, 1.0], 0), config)
        new = build(data, balanced)
        assert not np.array_equal(new.ids, old.ids)
        full_disk(failing)
        with pytest.raises(OSError, match="No space left"):
            save_index(new, tmp_path / "idx")
        assert files_in(tmp_path / "idx") == before
        loaded = load_index(tmp_path / "idx", data)
        assert np.array_equal(loaded.ids, old.ids)
        assert np.array_equal(loaded.offsets, old.offsets)

    def test_fvecs(self, tmp_path, rng, full_disk):
        old = random_vectors(rng, 20, 3)
        save_fvecs(old, tmp_path / "x.fvecs")
        before = files_in(tmp_path)
        full_disk(1)
        with pytest.raises(OSError, match="No space left"):
            save_fvecs(random_vectors(rng, 30, 3), tmp_path / "x.fvecs")
        assert files_in(tmp_path) == before
        assert load_fvecs(tmp_path / "x.fvecs").data.tobytes() == old.data.tobytes()

    def test_csv(self, tmp_path, full_disk):
        path = tmp_path / "histogram.csv"
        write_histogram_csv(path, ScanHistogram(np.array([1, 2, 3]), 2.0))
        before = files_in(tmp_path)
        full_disk(1)
        with pytest.raises(OSError, match="No space left"):
            write_histogram_csv(path, ScanHistogram(np.array([5, 9]), 1.0))
        assert files_in(tmp_path) == before
        assert before == {"histogram.csv": b"bucket_lo,bucket_hi,count\n0.0,2.0,1\n2.0,4.0,2\n"}


def test_format_csv_joins_the_str_of_each_field():
    rows = [(1, 0.1, ""), (2, 1e-09, 0.30000000000000004)]
    assert format_csv("a,b,c", rows) == "a,b,c\n1,0.1,\n2,1e-09,0.30000000000000004\n"
    assert format_csv("a", []) == "a\n"


def test_every_written_file_has_the_umasks_mode(tmp_path, data):
    previous = os.umask(0o027)
    try:
        queries = random_vectors(np.random.default_rng(1), 3, 2)
        save_fvecs(data, tmp_path / "db.fvecs")
        codebook = codebook_with([1.0, 1.0, 1.0], 0)
        save_codebook(codebook, tmp_path / "cb")
        save_index(build(data, codebook), tmp_path / "idx")
        write_csv(tmp_path / "rows.csv", "a", [(1,)])
        ground_truth_cached(data, queries, 2, tmp_path / "gt_cache")
    finally:
        os.umask(previous)
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(written) == 1 + 3 + 4 + 1 + 1
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027, path
