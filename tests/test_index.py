import hashlib
import struct

import numpy as np
import pytest

from ivfbalance import (
    BalanceConfig,
    Centroids,
    Codebook,
    SearchParams,
    StopRule,
    VectorSet,
    assign_plain,
    balance,
    brute_force_nn,
    build,
    evaluate,
    load_codebook,
    load_index,
    lloyd_full,
    save_codebook,
    save_index,
    search,
    select_cells,
)
from ivfbalance.index import InvertedFile, route_cells_batch

from conftest import random_vectors


@pytest.fixture
def indexed(rng):
    data = random_vectors(rng, 200, 4)
    centroids = lloyd_full(data, 8, seed=5).centroids
    return data, build(data, Codebook.fresh(centroids))


class TestBuild:
    def test_single_cell_holds_everything(self, small_set):
        cb = Codebook.fresh(Centroids(small_set.data[:1].copy()))
        index = build(small_set, cb)
        assert len(index.lists) == 1
        assert np.array_equal(index.lists[0], np.arange(small_set.count))

    def test_partition_invariants(self, indexed):
        data, index = indexed
        sizes = index.list_sizes()
        assert sizes.sum() == data.count
        seen = np.concatenate(index.lists)
        assert np.array_equal(np.sort(seen), np.arange(data.count))

    def test_uniform_penalties_match_plain_kmeans_lists(self, rng):
        data = random_vectors(rng, 300, 3)
        result = lloyd_full(data, 6, seed=2)
        centroids, assignment = result.centroids, result.assignment
        cb = Codebook(centroids, np.full(6, 3.25))
        index = build(data, cb)
        plain = assign_plain(data, centroids)
        for cell in range(6):
            assert np.array_equal(index.lists[cell], np.flatnonzero(plain.cell_of == cell))

    def test_four_point_balanced_fixture_splits_evenly(self):
        data = VectorSet.from_array([[0.0], [1.0], [2.0], [10.0]])
        cb = Codebook(
            Centroids(np.array([[1.0], [10.0]], dtype=np.float32)),
            np.ones(2),
        )
        final, _ = balance(
            data, cb, BalanceConfig(stop=StopRule.target_gamma(1.0), alpha=0.2)
        )
        index = build(data, final)
        assert [len(lst) for lst in index.lists] == [2, 2]

    def test_empty_data_rejected(self):
        cb = Codebook.fresh(Centroids(np.zeros((1, 2), dtype=np.float32)))
        with pytest.raises(ValueError):
            build(VectorSet.empty(), cb)

    def test_csr_views_match_offsets(self, indexed):
        _, index = indexed
        for cell, ids in enumerate(index.lists):
            lo, hi = index.offsets[cell], index.offsets[cell + 1]
            assert np.array_equal(ids, index.ids[lo:hi])
        assert np.array_equal(index.list_sizes(), np.diff(index.offsets))

    @pytest.mark.parametrize(
        "offsets, ids, match",
        [
            ([1, 2, 4], [0, 1, 2, 3], "first 0"),
            ([0, 3, 2], [0, 1, 2, 3], "not decrease"),
            ([0, 2, 3], [0, 1, 2], "cover"),
            ([0, 2, 4], [0, 1, 2, 4], "outside"),
            ([0, 2, 4], [0, 1, 1, 3], "repeat"),
            ([0, 4], [0, 1, 2, 3], "offsets"),
        ],
    )
    def test_constructor_rejects_broken_csr(self, offsets, ids, match):
        data = VectorSet.from_array(np.arange(4, dtype=np.float32)[:, None])
        cb = Codebook.fresh(Centroids(np.array([[0.0], [3.0]], dtype=np.float32)))
        with pytest.raises(ValueError, match=match):
            InvertedFile(cb, np.array(offsets), np.array(ids), data)


class TestSelectCells:
    def test_ma_equals_k_returns_all_ordered(self, indexed):
        data, index = indexed
        cells = select_cells(data.data[0], index.codebook, 8)
        assert sorted(cells.tolist()) == list(range(8))
        d2 = ((index.codebook.centroids.points.astype(np.float64) - data.data[0]) ** 2).sum(axis=1)
        d2 += index.codebook.penalties
        assert np.all(np.diff(d2[cells]) >= 0)

    def test_query_on_centroid_selected_first(self, indexed):
        data, index = indexed
        query = index.codebook.centroids.points[2]
        cells = select_cells(query, index.codebook, 1)
        assert cells[0] == 2

    def test_penalties_steer_routing(self):
        cb = Codebook(
            Centroids(np.array([[0.0], [10.0]], dtype=np.float32)),
            np.array([50.0, 1.0]),
        )
        assert select_cells(np.array([4.0]), cb, 1)[0] == 1
        assert select_cells(np.array([4.0]), cb, 1, route="plain")[0] == 0

    def test_ma_out_of_range(self, indexed):
        _, index = indexed
        with pytest.raises(ValueError, match="ma"):
            select_cells(np.zeros(4, dtype=np.float32), index.codebook, 9)
        with pytest.raises(ValueError, match="ma"):
            select_cells(np.zeros(4, dtype=np.float32), index.codebook, 0)

    def test_batch_matches_single(self, indexed, rng):
        data, index = indexed
        queries = rng.standard_normal((20, 4)).astype(np.float32)
        batched = route_cells_batch(queries, index.codebook, 3)
        for q, row in zip(queries, batched):
            assert np.array_equal(select_cells(q, index.codebook, 3), row)


class TestSearch:
    def test_exhaustive_probe_equals_brute_force(self, indexed):
        data, index = indexed
        queries = VectorSet.from_array(data.data[:10].copy())
        truth = brute_force_nn(data, queries, 5)
        params = SearchParams(ma=8, r_results=5)
        for q in range(queries.count):
            result = search(index, queries.data[q], params)
            assert np.array_equal(result.ids, truth.ids[q])
            assert np.array_equal(result.dists, truth.dists[q])

    def test_query_equal_to_indexed_point(self, indexed):
        data, index = indexed
        result = search(index, data.data[17], SearchParams(ma=8, r_results=1))
        assert result.ids[0] == 17
        assert result.dists[0] == 0.0

    def test_partial_probe_matches_restricted_brute_force(self, rng):
        data = random_vectors(rng, 20, 2)
        centroids = lloyd_full(data, 4, seed=11).centroids
        index = build(data, Codebook.fresh(centroids))
        params = SearchParams(ma=2, r_results=20)
        query = rng.standard_normal(2).astype(np.float32)
        result = search(index, query, params)
        allowed = np.concatenate([index.lists[c] for c in result.probed_cells])
        d2 = ((data.data[allowed].astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
        order = np.lexsort((allowed, d2))
        assert np.array_equal(result.ids, allowed[order])
        assert result.scanned == allowed.size

    def test_scanned_counts_probed_populations(self, indexed, rng):
        data, index = indexed
        sizes = index.list_sizes()
        query = rng.standard_normal(4).astype(np.float32)
        for ma in (1, 3, 8):
            result = search(index, query, SearchParams(ma=ma))
            assert result.scanned == sizes[result.probed_cells].sum()

    def test_results_capped_at_r(self, indexed):
        data, index = indexed
        result = search(index, data.data[0], SearchParams(ma=8, r_results=7))
        assert len(result.ids) == 7

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams(ma=0)
        with pytest.raises(ValueError):
            SearchParams(ma=1, r_results=0)
        with pytest.raises(ValueError):
            SearchParams(ma=1, route="sideways")


def set_meta(directory, key, value):
    """Replace the ``key=`` line of meta.txt."""
    meta = directory / "meta.txt"
    lines = [
        f"{key}={value}" if line.startswith(f"{key}=") else line
        for line in meta.read_text().splitlines()
    ]
    meta.write_text("\n".join(lines) + "\n")


def rewrite_lists(directory, blob):
    """Replace lists.bin and update its checksum so only the content is wrong."""
    (directory / "lists.bin").write_bytes(blob)
    set_meta(directory, "checksum_lists", hashlib.sha256(blob).hexdigest())


class TestPersistence:
    def test_lists_file_bytes_pinned(self, tmp_path):
        # Cell 0 holds ids 1 and 3, cell 1 is empty, cell 2 holds 0, 2, 4.
        data = VectorSet.from_array([[10.0], [0.0], [11.0], [1.0], [12.0]])
        cb = Codebook(
            Centroids(np.array([[0.0], [5.5], [11.0]], dtype=np.float32)),
            np.array([0.25, 1e-9, 1.5]),
            iteration=7,
        )
        index = build(data, cb)
        save_index(index, tmp_path / "idx")
        expected = struct.pack("<8i", 2, 1, 3, 0, 3, 0, 2, 4)
        assert (tmp_path / "idx" / "lists.bin").read_bytes() == expected
        reloaded = load_index(tmp_path / "idx", data)
        assert np.array_equal(reloaded.offsets, [0, 2, 2, 5])
        assert np.array_equal(reloaded.ids, [1, 3, 0, 2, 4])

        penalties = b"0.25\n1e-09\n1.5\n"
        assert (tmp_path / "idx" / "penalties.txt").read_bytes() == penalties
        centroids = struct.pack("<ififif", 1, 0.0, 1, 5.5, 1, 11.0)
        assert (tmp_path / "idx" / "centroids.fvecs").read_bytes() == centroids

        def sha(blob):
            return hashlib.sha256(blob).hexdigest()

        assert (tmp_path / "idx" / "meta.txt").read_bytes() == (
            "k=3\ndim=1\niteration=7\nn=5\n"
            f"checksum_centroids={sha(centroids)}\n"
            f"checksum_penalties={sha(penalties)}\n"
            f"checksum_lists={sha(expected)}\n"
            f"checksum_data={sha(struct.pack('<5f', 10, 0, 11, 1, 12))}\n"
        ).encode()
        save_codebook(cb, tmp_path / "cb", extra_meta={"alpha": 0.03})
        assert (tmp_path / "cb" / "penalties.txt").read_bytes() == penalties
        meta = b"k=3\ndim=1\niteration=7\nalpha=0.03\n"
        assert (tmp_path / "cb" / "meta.txt").read_bytes() == meta

    def test_roundtrip_bit_exact(self, indexed, tmp_path):
        data, index = indexed
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        save_index(index, first_dir)
        reloaded = load_index(first_dir, data)
        save_index(reloaded, second_dir)
        for name in ("centroids.fvecs", "penalties.txt", "lists.bin"):
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_reloaded_index_evaluates_identically(self, indexed, tmp_path, rng):
        data, index = indexed
        queries = VectorSet.from_array(rng.standard_normal((30, 4)))
        truth = brute_force_nn(data, queries, 1)
        save_index(index, tmp_path / "idx")
        reloaded = load_index(tmp_path / "idx", data)
        params = SearchParams(ma=3)
        a = evaluate(index, queries, params, truth)
        b = evaluate(reloaded, queries, params, truth)
        assert (a.gamma, a.variance, a.selectivity, a.recall_at_1) == (
            b.gamma,
            b.variance,
            b.selectivity,
            b.recall_at_1,
        )
        assert a.scan_histogram == b.scan_histogram

    @pytest.mark.parametrize("name", ["centroids.fvecs", "penalties.txt", "lists.bin"])
    def test_corrupted_file_detected(self, indexed, tmp_path, name):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        path = tmp_path / "idx" / name
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"checksum mismatch for {name}"):
            load_index(tmp_path / "idx", data)

    def test_codebook_without_penalties_rejected(self, indexed, tmp_path):
        _, index = indexed
        save_codebook(index.codebook, tmp_path / "cb")
        (tmp_path / "cb" / "penalties.txt").unlink()
        with pytest.raises(FileNotFoundError, match="penalties.txt"):
            load_codebook(tmp_path / "cb")

    @pytest.mark.parametrize("key, value", [("k", 9), ("dim", 5)])
    def test_meta_shape_disagreeing_with_centroids_rejected(
        self, indexed, tmp_path, key, value
    ):
        data, index = indexed
        save_codebook(index.codebook, tmp_path / "cb")
        save_index(index, tmp_path / "idx")
        set_meta(tmp_path / "cb", key, value)
        set_meta(tmp_path / "idx", key, value)
        with pytest.raises(ValueError, match=f"{key}={value}"):
            load_codebook(tmp_path / "cb")
        # A changed dim already fails the dataset-shape check.
        with pytest.raises(ValueError, match=f"{key}={value}|dataset shape"):
            load_index(tmp_path / "idx", data)

    @pytest.mark.parametrize("match", ["repeat", "outside"])
    def test_non_permutation_lists_rejected(self, indexed, tmp_path, match):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        raw = (tmp_path / "idx" / "lists.bin").read_bytes()
        words = np.frombuffer(raw, dtype="<i4").copy()
        assert words[0] >= 2  # ids sit at words 1 and 2 of the first list
        words[2] = words[1] if match == "repeat" else data.count
        rewrite_lists(tmp_path / "idx", words.tobytes())
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "idx", data)

    @pytest.mark.parametrize("cut", [-4, -2, 4])
    def test_truncated_or_padded_lists_rejected(self, indexed, tmp_path, cut):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        raw = (tmp_path / "idx" / "lists.bin").read_bytes()
        blob = raw[:cut] if cut < 0 else raw + bytes(cut)
        rewrite_lists(tmp_path / "idx", blob)
        with pytest.raises(ValueError, match="truncated|trailing"):
            load_index(tmp_path / "idx", data)

    def test_meta_without_n_rejected(self, indexed, tmp_path):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.txt"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(f"{ln}\n" for ln in lines if not ln.startswith("n=")))
        with pytest.raises(ValueError, match="dataset shape"):
            load_index(tmp_path / "idx", data)

    def test_wrong_dataset_detected(self, indexed, tmp_path, rng):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        other = random_vectors(rng, data.count, data.dim)
        with pytest.raises(ValueError, match="match"):
            load_index(tmp_path / "idx", other)
