import hashlib
import itertools
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ivfbalance.balancer as balancer_mod
import ivfbalance.dataset as dataset_mod
import ivfbalance.distances as distances_mod
import ivfbalance.index as index_mod
import ivfbalance.kmeans as kmeans_mod
import ivfbalance.metrics as metrics_mod
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
    gen_gaussian_mixture,
    load_codebook,
    load_index,
    lloyd_full,
    save_codebook,
    save_index,
    search,
    select_cells,
)
from ivfbalance.distances import row_keys, sqdist_exact
from ivfbalance.index import ROUTE_PENALIZED, ROUTES, InvertedFile, route_cells_batch

from conftest import random_vectors, write_codebook_without_cells
from oracles import penalized_ranking, search_concatenating


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

    def test_cell_map_inverts_lists(self, indexed, tmp_path):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        for ix in (index, load_index(tmp_path / "idx", data)):
            expected = np.full(data.count, -1)
            for cell, ids in enumerate(ix.lists):
                expected[ids] = cell
            assert np.array_equal(ix.cell_of_points(), expected)

    def test_arrays_are_read_only(self, indexed):
        _, index = indexed
        arrays = (index.cell_of_points(), index.ids, index.offsets, index.keys.points,
                  index.keys.half, index.keys.frame.center)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_vectors_are_the_source_rows_in_list_order(self, indexed, tmp_path):
        data, index = indexed
        assert index.keys.points.dtype == np.float32
        assert np.array_equal(index.keys.points, data.data[index.ids])
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", data)
        assert loaded.keys.points.tobytes() == index.keys.points.tobytes()
        assert loaded.keys.half.tobytes() == index.keys.half.tobytes()
        assert loaded.keys.frame.center.tobytes() == index.keys.frame.center.tobytes()
        assert loaded.keys.frame[1:] == index.keys.frame[1:]

    def test_half_and_frame_are_the_sources_keys(self, indexed):
        data, index = indexed
        assert index.keys.half.dtype == np.float32
        assert index.keys.half.tobytes() == data.keys.half[index.ids].tobytes()
        assert index.keys.frame is data.keys.frame
        center = index.keys.frame.center.astype(np.float64)
        want = ((index.keys.points.astype(np.float64) - center) ** 2).sum(axis=1) / 2
        assert np.allclose(index.keys.half, want, rtol=1e-5, atol=0)

    def test_the_data_is_keyed_once(self, tmp_path, rng, monkeypatch):
        """Build, a save and load over the same set and two ground-truth
        calls all cut on the set's own keys, derived once."""
        data = random_vectors(rng, 200, 4)
        keyed = []

        def counting(points, *args):
            keyed.append(len(points))
            return row_keys(points, *args)

        for module in (dataset_mod, distances_mod, kmeans_mod, balancer_mod, index_mod,
                       metrics_mod):
            if hasattr(module, "row_keys"):
                monkeypatch.setattr(module, "row_keys", counting)
        built = build(data, Codebook.fresh(Centroids(data.data[:8].copy())))
        save_index(built, tmp_path / "idx")
        load_index(tmp_path / "idx", data)
        queries = random_vectors(rng, 5, 4)
        for _ in range(2):
            brute_force_nn(data, queries, 3)
        assert keyed.count(data.count) == 1

    def test_an_empty_index_searches_to_nothing(self):
        data = VectorSet.from_array(np.zeros((0, 2)))
        cb = Codebook.fresh(Centroids(np.eye(2, dtype=np.float32)))
        index = InvertedFile(cb, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), data)
        result = search(index, np.zeros(2), SearchParams(ma=2, r_results=3))
        assert result.ids.size == result.dists.size == result.scanned == 0

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


def gather_and_sort_search(index, query, params):
    """Reference search: gather every candidate row from the whole dataset,
    score it with ``sqdist_exact`` and sort all candidates by (distance, id)."""
    cells = select_cells(query, index.codebook, params.ma, params.route)
    candidates = np.concatenate([index.lists[c] for c in cells])
    query64 = np.asarray(query, dtype=np.float64)
    d2 = sqdist_exact(query64[None, :], index.source.data[candidates])[0]
    order = np.lexsort((candidates, d2))
    return candidates[order], d2[order], cells


@pytest.fixture(scope="module")
def tie_indexes(tmp_path_factory):
    """A built and a loaded index over tie-heavy data with two empty cells.

    40 integer points in [0, 5)^2, each stored three times, so squared
    distances from integer queries are small integers that tie at every
    rank. The last two centroids lie far from the data and hold no points.
    """
    grid = np.random.default_rng(7).integers(0, 5, (40, 2))
    data = VectorSet.from_array(np.repeat(grid, 3, axis=0))
    far = [[100.0, 100.0], [-100.0, 100.0]]
    centroids = Centroids(np.vstack([grid[:4], far]).astype(np.float32))
    index = build(data, Codebook.fresh(centroids))
    assert (index.list_sizes()[4:] == 0).all()
    directory = tmp_path_factory.mktemp("tie_index")
    save_index(index, directory)
    return index, load_index(directory, data)


@pytest.fixture(scope="module")
def balanced_indexes(tmp_path_factory):
    """A built and a loaded index over random data, under the unequal
    penalties of ten balancing iterations."""
    data = random_vectors(np.random.default_rng(11), 600, 4)
    centroids = lloyd_full(data, 12, seed=3).centroids
    config = BalanceConfig(stop=StopRule.fixed_iters(10), alpha=0.1)
    codebook, _ = balance(data, Codebook.fresh(centroids), config)
    assert np.unique(codebook.penalties).size > 1
    index = build(data, codebook)
    directory = tmp_path_factory.mktemp("balanced_index")
    save_index(index, directory)
    return index, load_index(directory, data)


@pytest.mark.parametrize("indexes", ["tie_indexes", "balanced_indexes"])
def test_stored_points_route_to_their_own_cell(request, indexes):
    """Routing every stored point as one batch with ma=1 lands each in the
    cell that stores it, in a built index and a loaded one."""
    for index in request.getfixturevalue(indexes):
        routed = route_cells_batch(index.source.data, index.codebook, 1)[:, 0]
        assert np.array_equal(routed, index.cell_of_points())


class TestPermutationTies:
    """Centroid 1 is a coordinate permutation of centroid 0 and the point
    is constant, d = 32: both cells are at the same real distance, and
    float64 BLAS rows of a one-row and a many-row call have ordered them
    differently (47 of these 3,000 seeded cases, one BLAS thread). Cell
    choice is a function of the row alone, so neither batch size matters."""

    CASES, D = 3000, 32

    def cases(self):
        for seed in range(self.CASES):
            rng = np.random.default_rng(seed)
            c0 = rng.standard_normal(self.D).astype(np.float32)
            cb = Codebook.fresh(Centroids(np.stack([c0, c0[rng.permutation(self.D)]])))
            point = np.full(self.D, rng.standard_normal(), dtype=np.float32)
            yield rng, cb, point, rng.standard_normal((63, self.D)).astype(np.float32)

    def test_one_row_routes_as_its_row_of_a_batch(self):
        for rng, cb, point, fill in self.cases():
            at = rng.integers(64)
            batch = np.insert(fill, at, point, axis=0)
            assert select_cells(point, cb, 1)[0] == route_cells_batch(batch, cb, 1)[at, 0]

    def test_stored_points_route_to_their_own_cell_one_at_a_time(self):
        for _, cb, point, fill in self.cases():
            data = VectorSet.from_array(np.vstack([point, fill[:7]]))
            cell_of = build(data, cb).cell_of_points()
            for v, cell in zip(data.data, cell_of):
                assert select_cells(v, cb, 1)[0] == cell

    def test_one_row_ranks_as_a_batch_and_the_exact_ranking(self):
        """Ten more permutations of centroid 0 tie all twelve cells in real
        arithmetic; seeded penalties tie or split them on the penalized
        route. ``select_cells`` cuts on its own one-row path."""
        for seed, (rng, cb, point, _) in zip(range(500), self.cases()):
            points = cb.centroids.points
            extra = np.stack([points[0][rng.permutation(self.D)] for _ in range(10)])
            penalties = rng.choice([1.0, 1.5], 12) if seed % 2 else np.ones(12)
            cb = Codebook(Centroids(np.vstack([points, extra])), penalties)
            for route, ma in itertools.product(ROUTES, (1, 2, 8, cb.k)):
                got = select_cells(point, cb, ma, route)
                batch = route_cells_batch(point[None, :], cb, ma, route)[0]
                assert got.tobytes() == batch.tobytes()
                want = penalized_ranking(point[None, :], cb.centroids.points,
                                         cb.penalties if route == ROUTE_PENALIZED else None)[0, :ma]
                assert np.array_equal(got, want)

    def test_an_all_nan_query_routes_in_id_order(self):
        _, cb, _, _ = next(self.cases())
        for route, ma in itertools.product(ROUTES, (1, cb.k)):
            assert np.array_equal(select_cells(np.full(self.D, np.nan), cb, ma, route),
                                  np.arange(ma))


def assert_search_matches_oracle(index, query, params):
    """``search`` against the gather-and-full-sort oracle, bit for bit;
    returns the oracle's sorted ids and distances and the probed cells."""
    result = search(index, query, params)
    ids, d2, cells = gather_and_sort_search(index, query, params)
    r = params.r_results
    assert np.array_equal(result.ids, ids[:r])
    assert result.dists.tobytes() == d2[:r].tobytes()
    assert result.scanned == ids.size
    assert np.array_equal(result.probed_cells, cells)
    return ids, d2, cells


@pytest.fixture
def exact_calls(monkeypatch):
    """The row count of each ``sqdist_exact`` call that ``search`` makes."""
    calls = []

    def counting(x, c):
        calls.append(len(c))
        return sqdist_exact(x, c)

    monkeypatch.setattr(index_mod, "sqdist_exact", counting)
    return calls


class TestSearch:
    def test_matches_gather_and_full_sort_on_ties(self, tie_indexes, exact_calls):
        queries = [(x, y) for x in range(-1, 6) for y in range(-1, 6)]
        queries += [(2.5, 1.5), (np.nan, 0.0)]  # NaN: the r-th value is NaN too
        queries = list(np.array(queries, dtype=np.float32))
        # float64 queries that float32 cannot hold, next to exact ties
        queries += [np.array([x + 1e-9, y - 3e-10]) for x, y in ((2, 1), (0, 4), (2.5, 2))]
        k = tie_indexes[0].k
        seen = set()
        for index in tie_indexes:
            for query in queries:
                for ma, r, route in itertools.product((1, 2, 3, k), (1, 2, 5, 9, 500), ROUTES):
                    params = SearchParams(ma, r, route)
                    exact_calls.clear()
                    ids, d2, cells = assert_search_matches_oracle(index, query, params)
                    assert len(exact_calls) == 1
                    if query.dtype == np.float64:
                        seen.add("float64 query")
                    if r < ids.size and d2[r - 1] == d2[r]:
                        seen.add("ties straddle rank r")
                    if r >= ids.size:
                        seen.add("r >= candidates")
                    if (index.list_sizes()[cells] == 0).any():
                        seen.add("empty probed cell")
                    if r == 1:
                        seen.add("r = 1")
                    if ma == k:
                        seen.add("ma = k")
        assert len(seen) == 6, seen

    @pytest.mark.parametrize(
        "scale, offset",
        [(1.0, 0.0), (1e-22, 0.0), (1e19, 0.0), (1.0, 1e4), (1e-3, 1e4)],
        ids=["plain", "subnormal products", "overflowing dot", "offset", "offset fine"],
    )
    def test_screen_matches_gather_and_full_sort(self, scale, offset, exact_calls):
        """Adversarial scales for the float32 key cut: at 1e-22 its products
        fall below float32's normal range, at 1e19 its half norms overflow,
        and a far offset rounds the float32 rows onto a coarse grid. Ties
        come from repeated rows; float64 queries sit between float32 values."""
        rng = np.random.default_rng(40)
        base = rng.standard_normal((60, 8))
        points = base[rng.integers(0, 60, 300)] * scale + offset
        data = VectorSet.from_array(points)
        k = 6
        index = build(data, Codebook.fresh(Centroids(data.data[:k])))
        near = data.data[rng.integers(0, 300, 12)].astype(np.float64)
        queries = list(data.data[:6]) + list(near + scale * 1e-7 * rng.standard_normal(near.shape))
        queries += [np.full(8, np.nan), np.full(8, 1e39)]  # 1e39: past float32's range
        truth = brute_force_nn(data, VectorSet.from_array(np.array(queries[:6])), 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q, query in enumerate(queries):
                for ma, r in itertools.product((1, 2, k), (1, 3, 10, 1000)):
                    exact_calls.clear()
                    assert_search_matches_oracle(index, query, SearchParams(ma, r))
                    assert len(exact_calls) == 1
                if q < 6:
                    result = search(index, query, SearchParams(k, 10))
                    assert np.array_equal(result.ids, truth.ids[q])
                    assert result.dists.tobytes() == truth.dists[q].tobytes()

    @pytest.mark.parametrize("offset, most", [(0.0, 2), (1e3, 4)],
                             ids=["at-origin", "offset-1e3"])
    def test_few_candidates_reach_the_exact_kernel(self, exact_calls, offset, most):
        """On mixture data the key cut leaves at most 2r candidates per
        query for ``sqdist_exact``: a loose bound fails here, not only in
        speed. Far from the origin it leaves at most 4r (27 at most, 47
        with E doubled), as keys are taken relative to a center of the
        rows, and E's term in ``|q - center| max|v|`` has grown."""
        weights = (0.5, 0.2, 0.15, 0.1, 0.05)
        data = gen_gaussian_mixture(3, 20_000, 16, 5, weights, 0.1)
        queries = gen_gaussian_mixture(4, 100, 16, 5, weights, 0.1, centers_from_seed=3)
        data, queries = (VectorSet.from_array(s.data + offset) for s in (data, queries))
        index = build(data, Codebook.fresh(lloyd_full(data, 64, seed=1, max_iters=2).centroids))
        params = SearchParams(ma=4, r_results=10)
        scanned = [search(index, q, params).scanned for q in queries.data]
        assert len(exact_calls) == queries.count
        assert min(scanned) > 10 * params.r_results
        assert max(exact_calls) <= most * params.r_results
        truth = brute_force_nn(data, queries, params.r_results)
        for q, ids, dists in zip(queries.data, truth.ids, truth.dists):
            result = search(index, q, SearchParams(ma=index.k, r_results=params.r_results))
            assert np.array_equal(result.ids, ids)
            assert result.dists.tobytes() == dists.tobytes()

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


def assert_same_result(got, want):
    """Every ``QueryResult`` field equal, bit for bit and dtype for dtype."""
    for name in ("ids", "dists", "probed_cells"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.scanned == want.scanned


class TestSearchKeysSpansInPlace:
    """``search`` keys the probed cells' spans in place and routes on its
    own one-row cut; it must return what routing through
    ``route_cells_batch`` and concatenating the probed slices returns."""

    def test_empty_cells_and_candidates_at_r(self, tie_indexes):
        queries = [np.array(q, dtype=np.float32) for q in ((0, 0), (2, 3), (4, 1), (9, -7))]
        queries += [np.array([2.5 + 1e-9, 1.5]), np.array([np.nan, 0.0])]
        seen = set()
        for index in tie_indexes:
            k = index.k
            for query, ma, route in itertools.product(queries, (1, 2, k - 1, k), ROUTES):
                total = search_concatenating(index, query, SearchParams(ma, 1, route)).scanned
                for r in {1, 3, max(total - 1, 1), max(total, 1), total + 1}:
                    params = SearchParams(ma, r, route)
                    want = search_concatenating(index, query, params)
                    assert_same_result(search(index, query, params), want)
                    if (index.list_sizes()[want.probed_cells] == 0).any():
                        seen.add("empty probed cell")
                    if total in (r, r + 1):
                        seen.add(f"candidates = r + {total - r}")
                    if ma == k:
                        seen.add(f"ma = k, {route}")
        assert len(seen) == 5, seen

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_nan_far_and_offset_queries(self, offset):
        rng = np.random.default_rng(21)
        data = VectorSet.from_array(offset + rng.standard_normal((800, 8)))
        codebook, _ = balance(data, Codebook.fresh(lloyd_full(data, 16, seed=2).centroids),
                              BalanceConfig(StopRule.fixed_iters(5), alpha=0.1))
        index = build(data, codebook)
        queries = list(offset + rng.standard_normal((20, 8)))
        queries += [np.full(8, np.nan), np.full(8, 1e37), np.full(8, -1e39)]
        _, bound = distances_mod.key_bounds(np.array(queries[-2:]), index.keys.frame)
        assert (bound == np.inf).all()  # far enough out that nothing is claimed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query, ma, r, route in itertools.product(queries, (1, 3, 16), (1, 10),
                                                         ROUTES):
                params = SearchParams(ma, r, route)
                assert_same_result(search(index, query, params),
                                   search_concatenating(index, query, params))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_ties(self, data):
        # Integer rows, centroids, penalties and queries: every distance is
        # exact, so ties fall at every rank and across cells.
        n, k = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
        rows = data.draw(arrays(np.float32, (n, 3), elements=st.integers(-3, 3)))
        points = data.draw(arrays(np.float32, (k, 3), elements=st.integers(-3, 3)))
        penalties = data.draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 1.0, 2.0])))
        queries = data.draw(arrays(np.float64, (3, 3), elements=st.integers(-4, 4)))
        index = build(VectorSet.from_array(rows), Codebook(Centroids(points), penalties))
        for query, ma, r, route in itertools.product(queries, {1, k}, {1, 3, n}, ROUTES):
            params = SearchParams(ma, r, route)
            assert_same_result(search(index, query, params),
                               search_concatenating(index, query, params))


def test_concurrent_searches_match_sequential(balanced_indexes):
    """Four threads search one shared index at once, each over the queries
    in its own order, and get the sequential results: no call shares a
    buffer with another."""
    index = balanced_indexes[0]
    queries = np.random.default_rng(5).standard_normal((300, 4))
    params = SearchParams(ma=6, r_results=10)
    want = [search(index, q, params) for q in queries]
    orders = [np.random.default_rng(seed).permutation(len(queries)) for seed in range(4)]
    got = [[] for _ in orders]
    start = threading.Barrier(len(orders))

    def run(order, out):
        start.wait()
        for _ in range(3):
            out.extend((i, search(index, queries[i], params)) for i in order)

    threads = [threading.Thread(target=run, args=args) for args in zip(orders, got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside each search too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for order, out in zip(orders, got):
        assert [i for i, _ in out] == 3 * order.tolist()
        for i, result in out:
            assert_same_result(result, want[i])


def set_meta(directory, key, value):
    """Replace the ``key=`` line of meta.txt."""
    meta = directory / "meta.txt"
    lines = [
        f"{key}={value}" if line.startswith(f"{key}=") else line
        for line in meta.read_text().splitlines()
    ]
    meta.write_text("\n".join(lines) + "\n")


def rewrite_checked(directory, name, blob):
    """Replace a file and update its checksum so only the content is wrong."""
    (directory / name).write_bytes(blob)
    set_meta(directory, f"checksum_{name.split('.')[0]}", hashlib.sha256(blob).hexdigest())


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
        assert (tmp_path / "cb" / "meta.txt").read_bytes() == (
            "k=3\ndim=1\niteration=7\nalpha=0.03\n"
            f"checksum_centroids={sha(centroids)}\n"
            f"checksum_penalties={sha(penalties)}\n"
        ).encode()

    def test_centroids_float32_cannot_hold_are_refused(self, indexed, tmp_path):
        # Stored as float32, they would load as other centroids than the
        # ones the lists were built with, and route elsewhere.
        data, index = indexed
        points = index.codebook.centroids.points.astype(np.float64)
        points[0, 0] += 2.0**-40
        cb = Codebook(Centroids(points), index.codebook.penalties)
        with pytest.raises(ValueError, match="float32"):
            save_codebook(cb, tmp_path / "cb")
        with pytest.raises(ValueError, match="float32"):
            save_index(InvertedFile(cb, index.offsets, index.ids, data), tmp_path / "idx")
        assert not (tmp_path / "cb").exists() and not (tmp_path / "idx").exists()

    def test_float64_centroids_float32_holds_are_saved(self, indexed, tmp_path):
        _, index = indexed
        points = index.codebook.centroids.points.astype(np.float64)
        cb = Codebook(Centroids(points), index.codebook.penalties)
        save_codebook(cb, tmp_path / "cb")
        loaded = load_codebook(tmp_path / "cb")
        assert np.array_equal(loaded.centroids.points, points)
        assert loaded.penalties.tobytes() == cb.penalties.tobytes()

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

    def test_codebook_with_another_codebooks_penalties_rejected(self, tmp_path):
        centroids = Centroids(np.eye(4, dtype=np.float32))
        for name, penalties in (("a", [0.0, 0.1, 0.2, 0.3]), ("b", [1.0, 0.5, 0.25, 0.0])):
            save_codebook(Codebook(centroids, np.array(penalties), iteration=3), tmp_path / name)
        swapped = (tmp_path / "b" / "penalties.txt").read_bytes()
        (tmp_path / "a" / "penalties.txt").write_bytes(swapped)
        with pytest.raises(ValueError, match="checksum mismatch for penalties.txt"):
            load_codebook(tmp_path / "a")

    @pytest.mark.parametrize("penalties, match", [
        (b"1.0\n1.0\n", "expected 3 penalties"),
        (b"1.0\n1.0\n1.0\n1.0\n", "expected 3 penalties"),
        (b"1.0\n-0.5\n1.0\n", "non-negative"),
        (b"1.0\nnan\n1.0\n", "finite"),
        (b"inf\n1.0\n1.0\n", "finite"),
    ], ids=["short", "long", "negative", "nan", "inf"])
    def test_codebook_with_bad_penalties_rejected(self, tmp_path, penalties, match):
        save_codebook(Codebook.fresh(Centroids(np.eye(3, dtype=np.float32))), tmp_path / "cb")
        rewrite_checked(tmp_path / "cb", "penalties.txt", penalties)
        with pytest.raises(ValueError, match=match):
            load_codebook(tmp_path / "cb")

    def test_codebook_with_negative_iteration_rejected(self, tmp_path):
        save_codebook(Codebook.fresh(Centroids(np.eye(3, dtype=np.float32))), tmp_path / "cb")
        set_meta(tmp_path / "cb", "iteration", -1)
        with pytest.raises(ValueError, match="iteration must be non-negative"):
            load_codebook(tmp_path / "cb")

    def test_codebook_without_cells_rejected(self, tmp_path):
        write_codebook_without_cells(tmp_path / "cb")
        with pytest.raises(ValueError, match="k, dim >= 1"):
            load_codebook(tmp_path / "cb")

    def test_codebook_without_checksums_rejected(self, indexed, tmp_path):
        _, index = indexed
        save_codebook(index.codebook, tmp_path / "cb")
        meta = tmp_path / "cb" / "meta.txt"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(f"{ln}\n" for ln in lines if not ln.startswith("checksum_")))
        with pytest.raises(ValueError, match="centroids.fvecs"):
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
        rewrite_checked(tmp_path / "idx", "lists.bin", words.tobytes())
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "idx", data)

    @pytest.mark.parametrize("cut", [-4, -2, 4])
    def test_truncated_or_padded_lists_rejected(self, indexed, tmp_path, cut):
        data, index = indexed
        save_index(index, tmp_path / "idx")
        raw = (tmp_path / "idx" / "lists.bin").read_bytes()
        blob = raw[:cut] if cut < 0 else raw + bytes(cut)
        rewrite_checked(tmp_path / "idx", "lists.bin", blob)
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
