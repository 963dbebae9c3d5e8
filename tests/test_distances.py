import itertools

import numpy as np
import pytest

import ivfbalance.distances as distances
from ivfbalance import Centroids, Codebook, VectorSet, assign_plain
from ivfbalance.distances import sq_norms, sqdist_to_centroids
from ivfbalance.index import ROUTES, route_cells_batch

from conftest import integer_tie_fixture
from oracles import assign_plain_whole_argmin, route_cells_whole_sort


class TestCachedNorms:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_cached_norms_match_across_chunks(self, rng, monkeypatch, k):
        d = 8
        monkeypatch.setattr(distances, "_CHUNK_ELEMS", 5 * k * d)  # 5-row chunks
        x = rng.standard_normal((37, d)).astype(np.float32)
        c = rng.standard_normal((k, d)).astype(np.float32)
        x64 = x.astype(np.float64)
        want = sqdist_to_centroids(x, c)
        got = sqdist_to_centroids(x64, c, sq_norms(x64))
        assert got.tobytes() == want.tobytes()

    def test_x_sq_is_shape_and_dtype_checked(self, rng):
        x = rng.standard_normal((6, 3))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], np.zeros(5))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], sq_norms(x).astype(np.float32))


@pytest.fixture(params=["random", "integer-ties", "nan-query"])
def routing_case(request, rng):
    """(queries, codebook) with 61 queries, one row past a multiple of the
    5-row blocks the tests below patch in. "integer-ties" has duplicate
    centroids and equal penalties, so every distance ties exactly."""
    if request.param == "integer-ties":
        data, cb = integer_tie_fixture()
        return data.data[:61], cb
    queries = rng.standard_normal((61, 4)).astype(np.float32)
    cb = Codebook(Centroids(rng.standard_normal((9, 4)).astype(np.float32)), rng.random(9))
    if request.param == "nan-query":
        queries[[0, 30]] = np.nan  # a NaN coordinate makes every distance NaN
    return queries, cb


class TestNearestCells:
    """``nearest_cells`` picks the cells of assignment and routing; it must
    match the whole-matrix argmin and stable argsort it replaced, bit for bit."""

    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_matches_whole_matrix_oracles(self, routing_case, monkeypatch, small_blocks):
        queries, cb = routing_case
        if small_blocks:
            monkeypatch.setattr(distances, "_ARGMIN_BLOCK_ELEMS", 5 * cb.k)
        for ma, route in itertools.product((1, 2, cb.k), ROUTES):
            want = route_cells_whole_sort(queries, cb, ma, route)
            assert np.array_equal(route_cells_batch(queries, cb, ma, route), want)
        if np.isfinite(queries).all():
            data = VectorSet.from_array(queries)
            want = assign_plain_whole_argmin(data, cb.centroids)
            assert np.array_equal(assign_plain(data, cb.centroids).cell_of, want)

    def test_exact_ties_go_to_the_lowest_id(self):
        data, cb = integer_tie_fixture()  # cells 3-5 duplicate cells 0-2
        rank = np.argsort(route_cells_batch(data.data, cb, cb.k), axis=1)
        assert (rank[:, :3] < rank[:, 3:6]).all()
        assert not np.isin(assign_plain(data, cb.centroids).cell_of, [3, 4, 5]).any()
