import numpy as np
import pytest

from ivfbalance import Centroids, VectorSet, assign_plain, init_centroids, lloyd_full
from ivfbalance.kmeans import Assignment, INIT_KMEANS_PP, INIT_RANDOM_POINTS

import ivfbalance.distances as distances

from conftest import random_vectors
from oracles import kmeans_pp_per_draw, update_means_add_at


class TestInitCentroids:
    def test_k_equals_count_uses_every_point(self, small_set):
        c = init_centroids(small_set, small_set.count, seed=3, method=INIT_RANDOM_POINTS)
        assert sorted(map(tuple, c.points.tolist())) == sorted(
            map(tuple, small_set.data.tolist())
        )

    def test_k_one(self, small_set):
        c = init_centroids(small_set, 1, seed=3, method=INIT_RANDOM_POINTS)
        assert any(np.array_equal(c.points[0], row) for row in small_set.data)

    def test_kmeans_pp_deterministic(self, rng):
        data = random_vectors(rng, 100, 2)
        a = init_centroids(data, 10, seed=5, method=INIT_KMEANS_PP)
        b = init_centroids(data, 10, seed=5, method=INIT_KMEANS_PP)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("chunk_elems", [None, 8 * 7])
    def test_kmeans_pp_matches_per_draw_oracle(self, rng, monkeypatch, chunk_elems):
        if chunk_elems is not None:
            monkeypatch.setattr(distances, "_CHUNK_ELEMS", chunk_elems)
        data = random_vectors(rng, 300, 8)
        for seed in (0, 1, 7):
            got = init_centroids(data, 20, seed=seed, method=INIT_KMEANS_PP)
            assert got.points.tobytes() == kmeans_pp_per_draw(data, 20, seed).tobytes()

    @pytest.mark.parametrize("distinct", [1, 3])
    def test_kmeans_pp_zero_mass_fallback_matches_oracle(self, distinct):
        # Once every distinct row is chosen all mass is zero; sampling with
        # p = best / 0 would raise, so only the fallback can pass here.
        rows = np.array([[1.5, -2.0, 0.25], [0.0, 1.0, 3.0], [-4.0, 0.5, 2.0]])
        data = VectorSet.from_array(np.tile(rows[:distinct], (15, 1)))
        got = init_centroids(data, 6, seed=3, method=INIT_KMEANS_PP)
        assert got.points.tobytes() == kmeans_pp_per_draw(data, 6, 3).tobytes()

    def test_k_out_of_range(self, small_set):
        with pytest.raises(ValueError):
            init_centroids(small_set, small_set.count + 1, seed=0)
        with pytest.raises(ValueError):
            init_centroids(small_set, 0, seed=0)


class TestAssignPlain:
    def test_point_on_centroid(self):
        cents = Centroids(np.array([[0.0], [5.0], [9.0], [13.0]], dtype=np.float32))
        data = VectorSet.from_array([[13.0]])
        assert assign_plain(data, cents).cell_of[0] == 3

    def test_one_dimensional_arithmetic(self):
        cents = Centroids(np.array([[0.0], [10.0]], dtype=np.float32))
        data = VectorSet.from_array([[4.0]])
        # 16 < 36
        assert assign_plain(data, cents).cell_of[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        cents = Centroids(np.array([[9.0], [2.0], [5.0]], dtype=np.float32))
        data = VectorSet.from_array([[3.5]])  # equidistant from cells 1 and 2
        assert assign_plain(data, cents).cell_of[0] == 1

    def test_dimension_mismatch(self, small_set):
        cents = Centroids(np.zeros((2, 7), dtype=np.float32))
        with pytest.raises(ValueError, match="dimension"):
            assign_plain(small_set, cents)

    def test_idempotent(self, rng):
        data = random_vectors(rng, 200, 3)
        cents = init_centroids(data, 8, seed=1)
        first = assign_plain(data, cents)
        second = assign_plain(data, cents)
        assert np.array_equal(first.cell_of, second.cell_of)

    def test_counts_sum_to_n(self, rng):
        data = random_vectors(rng, 500, 6)
        cents = init_centroids(data, 13, seed=2)
        assignment = assign_plain(data, cents)
        assert assignment.counts.sum() == data.count


class TestCentroidsType:
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_no_cells_or_no_dims_rejected(self, shape):
        with pytest.raises(ValueError, match="k, dim >= 1"):
            Centroids(np.empty(shape, dtype=np.float32))


class TestAssignmentType:
    def test_out_of_range_cell(self):
        with pytest.raises(ValueError, match="range"):
            Assignment(np.array([0, 3]), 3)


class TestLloyd:
    def test_k_distinct_points_zero_distortion(self):
        data = VectorSet.from_array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        result = lloyd_full(data, 4, seed=0)
        assert result.final_distortion == 0.0
        assert np.array_equal(np.sort(result.assignment.counts), [1, 1, 1, 1])

    def test_two_blobs_recover_means(self, rng):
        n = 400
        blob_a = rng.normal(0.0, 0.5, (n, 2))
        blob_b = rng.normal(8.0, 0.5, (n, 2))
        data = VectorSet.from_array(np.vstack([blob_a, blob_b]))
        result = lloyd_full(data, 2, seed=7)
        centroids, assignment = result.centroids, result.assignment
        found = np.sort(centroids.points[:, 0])
        tol = 3 * 0.5 / np.sqrt(n)
        assert abs(found[0] - 0.0) < tol + 0.05
        assert abs(found[1] - 8.0) < tol + 0.05
        assert assignment.counts.sum() == 2 * n

    def test_max_iters_one(self, rng):
        data = random_vectors(rng, 300, 4)
        result = lloyd_full(data, 5, seed=3, max_iters=1)
        assert result.iterations == 1

    def test_distortion_non_increasing(self, rng):
        data = random_vectors(rng, 2000, 8)
        result = lloyd_full(data, 16, seed=9)
        d = np.array(result.distortions)
        # float32 centroid rounding can tick the last step up by ~1e-13 rel
        assert np.all(d[1:] <= d[:-1] * (1 + 1e-10))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            lloyd_full(VectorSet.empty(), 1, seed=0)

    def test_duplicate_rows_stay_deterministic(self):
        # duplicated values force the empty-cluster repair path
        data = VectorSet.from_array(
            [[0.0], [0.0], [0.0], [9.0], [9.0], [9.0], [20.0], [30.0]]
        )
        result_a = lloyd_full(data, 4, seed=1, init_method=INIT_RANDOM_POINTS)
        result_b = lloyd_full(data, 4, seed=1, init_method=INIT_RANDOM_POINTS)
        assert np.array_equal(result_a.centroids.points, result_b.centroids.points)
        assert result_a.assignment.counts.sum() == 8

    def test_empty_cluster_repair_takes_farthest_point(self):
        from ivfbalance.kmeans import _update_means

        data = VectorSet.from_array([[0.0], [1.0], [2.0], [50.0]])
        cents = Centroids(np.array([[1.0], [40.0], [-100.0]], dtype=np.float32))
        # everything lands in cells 0/1; cell 2 is empty
        assignment = assign_plain(data, cents)
        assert assignment.counts[2] == 0
        updated = _update_means(data, assignment, cents)
        # farthest point from the empty cell's centroid (-100) is 50
        assert updated.points[2, 0] == 50.0

    @pytest.mark.parametrize("empty", [False, True, "ties-1e-20", "ties-1", "ties-1e15"])
    def test_mean_update_matches_add_at(self, rng, empty):
        """``empty``: no cell, cells 2 and 5, or ("ties-<scale>") every cell
        but 0 of a coarse integer grid, so the repair picks among many
        equally far rows."""
        from ivfbalance.kmeans import _update_means

        if isinstance(empty, str):
            grid = rng.integers(-2, 3, size=(200, 2)) * float(empty.split("-", 1)[1])
            data = VectorSet.from_array(grid.astype(np.float32))
            cents = Centroids(data.data[:9] + data.data[9:18])
            cells = np.zeros(data.count, dtype=np.int64)
        else:
            data = random_vectors(rng, 500, 6, scale=1e3)
            cents = init_centroids(data, 9, seed=2)
            cells = assign_plain(data, cents).cell_of
        if empty is True:
            cells[np.isin(cells, [2, 5])] = 0  # cells 2 and 5 get repaired
        want = update_means_add_at(data, cells, cents)
        got = _update_means(data, Assignment(cells, 9), cents)
        assert got.points.tobytes() == want.points.tobytes()
