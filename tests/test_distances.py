import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ivfbalance.distances as distances
import ivfbalance.kmeans as kmeans
from ivfbalance import Centroids, Codebook, VectorSet, assign_plain, build, lloyd_full
from ivfbalance.balancer import B_FLOOR
from ivfbalance.distances import (
    _gamma,
    key_bounds,
    keyed_blocks,
    nearest_r,
    row_keys,
    sq_norms,
    sqdist_exact,
    sqdist_pairs,
    sqdist_to_centroids,
)
from ivfbalance.index import ROUTE_PENALIZED, ROUTES, route_cells_batch

from conftest import integer_tie_fixture, random_vectors
from oracles import (
    assign_plain_whole_argmin,
    distortion_whole,
    key_bounds_recomputing,
    route_cells_whole_sort,
    sqdist_exact_block,
    sqdist_expansion,
)


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

    @pytest.mark.parametrize("shape", [(1000, 32), (37, 8), (7, 1), (4, 0)])
    def test_float32_rows_give_the_bits_of_their_widened_copy(self, rng, shape):
        x = rng.standard_normal(shape).astype(np.float32)
        assert sq_norms(x).tobytes() == sq_norms(x.astype(np.float64)).tobytes()

    def test_x_sq_is_shape_and_dtype_checked(self, rng):
        x = rng.standard_normal((6, 3))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], np.zeros(5))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], sq_norms(x).astype(np.float32))


class TestKernel:
    @pytest.mark.parametrize("chunk_rows", [None, 5])
    def test_matches_one_array_per_step(self, rng, monkeypatch, chunk_rows):
        k, d = 13, 6
        if chunk_rows is not None:
            monkeypatch.setattr(distances, "_CHUNK_ELEMS", chunk_rows * k * d)
        x = (rng.standard_normal((41, d)) + 100.0).astype(np.float32)
        c = (x[:k] + rng.standard_normal((k, d)) * 1e-3).astype(np.float32)
        got = sqdist_to_centroids(x, c)
        assert got.tobytes() == sqdist_expansion(x, c).tobytes()


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
    """``nearest_cells`` picks the cells of balancing, build and routing; it
    must match the whole-matrix exact penalized ranking bit for bit, and
    Lloyd's assignment the whole-matrix BLAS argmin."""

    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_matches_whole_matrix_oracles(self, routing_case, monkeypatch, small_blocks):
        queries, cb = routing_case
        if small_blocks:
            monkeypatch.setattr(distances, "_CHUNK_ELEMS", 5 * cb.k * cb.dim)
        for ma, route in itertools.product((1, 2, cb.k), ROUTES):
            want = route_cells_whole_sort(queries, cb, ma, route)
            assert np.array_equal(route_cells_batch(queries, cb, ma, route), want)
        if np.isfinite(queries).all():
            data = VectorSet.from_array(queries)
            want = assign_plain_whole_argmin(data, cb.centroids)
            assert np.array_equal(assign_plain(data, cb.centroids).cell_of, want)

    def test_keys_are_cached_on_read_only_copies(self, rng):
        # The codebook keeps its own read-only arrays: its cached keys can
        # neither go stale nor be edited from outside.
        points = rng.standard_normal((9, 4)).astype(np.float32)
        penalties = rng.random(9)
        cb = Codebook(Centroids(points), penalties)
        queries = rng.standard_normal((20, 4))
        want = route_cells_batch(queries, cb, 3)
        points[:], penalties[:] = 0.0, 9.0
        assert np.array_equal(route_cells_batch(queries, cb, 3), want)
        for array in (cb.penalties, cb.centroids.points):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_ma_routes_a_prefix_of_a_larger_one(self, data):
        # Integer centroids, penalties and queries: every distance is exact,
        # and repeated centroids and penalties tie whole cells.
        k = data.draw(st.integers(1, 8))
        points = data.draw(arrays(np.float32, (k, 3), elements=st.integers(-2, 2)))
        penalties = data.draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 1.0, 2.0])))
        queries = data.draw(arrays(np.float32, (12, 3), elements=st.integers(-3, 3)))
        cb = Codebook(Centroids(points), penalties)
        for route in ROUTES:
            whole = route_cells_batch(queries, cb, k, route)
            for ma in range(1, k + 1):
                assert np.array_equal(route_cells_batch(queries, cb, ma, route), whole[:, :ma])

    def test_exact_ties_go_to_the_lowest_id(self):
        data, cb = integer_tie_fixture()  # cells 3-5 duplicate cells 0-2
        rank = np.argsort(route_cells_batch(data.data, cb, cb.k), axis=1)
        assert (rank[:, :3] < rank[:, 3:6]).all()
        assert not np.isin(assign_plain(data, cb.centroids).cell_of, [3, 4, 5]).any()

    def test_nan_ranks_last_at_every_ma(self, rng):
        # An inf coordinate makes every exact distance inf, a NaN one NaN:
        # the cells rank by id, the same first cell at every ma, and a NaN
        # row's cells come after a finite row's in the same batch.
        cb = Codebook(Centroids(rng.standard_normal((9, 4)).astype(np.float32)), rng.random(9))
        queries = np.zeros((3, 4), dtype=np.float32)
        queries[:2, 0] = np.inf, np.nan
        d2 = sqdist_exact(queries, cb.centroids.points)
        assert np.isinf(d2[0]).all() and np.isnan(d2[1]).all() and np.isfinite(d2[2]).all()
        for route, ma in itertools.product(ROUTES, (1, 2, cb.k)):
            got = route_cells_batch(queries, cb, ma, route)
            assert np.array_equal(got[:2], np.tile(np.arange(ma), (2, 1)))
            assert np.array_equal(got, route_cells_whole_sort(queries, cb, ma, route))


class TestScreen:
    """The float32 keys screen the cells: on inputs where they decide
    little, every row still gets the exact ranking's cells, and the keys
    decide the rows they can."""

    def test_certified_rows_agree_and_near_ties_are_marked(self, rng, monkeypatch):
        # Rows at a centroid, between two, NaN, far away, tiny and tied;
        # one cell's penalty far above the distances, at the floor, near
        # the overflow guard or past float32's range.
        points = rng.standard_normal((12, 4)).astype(np.float32)
        points[1] = points[0] + 0.01 * rng.standard_normal(4)
        points[5] = points[4]
        queries = rng.standard_normal((300, 4))
        queries[0] = (points[0].astype(np.float64) + points[1]) / 2
        queries[1] = np.nan
        queries[2] = points[3]
        queries[3] = 1e20
        queries[4] = points[4]
        queries[5] *= 1e-30
        ranked = []

        def recording(x, c, rows, cells):
            for v in x[np.unique(rows)]:  # the query each ranked row is
                ranked.append(1 if np.isnan(v).all() else np.flatnonzero((queries == v).all(1))[0])
            return sqdist_pairs(x, c, rows, cells)

        monkeypatch.setattr(distances, "sqdist_pairs", recording)
        for penalty in (None, 1.0, B_FLOOR, 1e8, 2.0**124, 1e39):
            penalties = rng.random(12)
            if penalty is not None:
                penalties[11] = penalty
            cb = Codebook(Centroids(points), penalties)
            for ma, route in itertools.product((1, 3, 12), ROUTES):
                ranked.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = route_cells_batch(queries, cb, ma, route)
                assert np.array_equal(got, route_cells_whole_sort(queries, cb, ma, route))
                # A penalty far above the distances widens every row's cut.
                plain = route != ROUTE_PENALIZED
                if ma == 1 and (plain or penalty is None or penalty <= 1.0):
                    assert {1, 3} <= set(ranked) and 2 not in ranked and len(ranked) < 20
                    assert not plain or {0, 4} <= set(ranked)  # near and exact ties

    def test_gaps_near_the_bound(self, rng, monkeypatch):
        # Points between two cells whose runner-up is 2^-26 to 2^-16 above
        # the best, relative, on either side: the keys decide the wide gaps,
        # and the narrow ones are ranked on their kept cells.
        eps = 2.0 ** rng.uniform(-29, -19, 4000) * rng.choice([-1.0, 1.0], 4000)
        queries = (0.5 + eps)[:, None]
        cb = Codebook(Centroids(np.array([[0.0], [1.0]], dtype=np.float32)), np.full(2, 1e-3))
        ranked = []

        def counting(x, c, rows, cells):
            ranked.extend(np.unique(rows))
            return sqdist_pairs(x, c, rows, cells)

        monkeypatch.setattr(distances, "sqdist_pairs", counting)
        got = route_cells_batch(queries, cb, 1)
        assert np.array_equal(got, route_cells_whole_sort(queries, cb, 1, ROUTE_PENALIZED))
        assert 0.1 < len(ranked) / len(queries) < 0.9

    def test_worst_case_roundings(self, rng, monkeypatch):
        # Penalties put two nearby cells' penalized half norms hb just above
        # 2 and a query's keys hb - p.c just below it, where half an ulp of
        # hb is a whole ulp of the key. Cell 1's hb rounds down by almost
        # that much; cell 0 is up to 2^-18 better, its hb rounding either
        # way. Only the penalties' term of E covers these roundings: near
        # ties are ranked on the kept cells, wide gaps decided at ma=1.
        ranked = []

        def counting(x, c, rows, cells):
            ranked.extend(np.unique(rows))
            return sqdist_pairs(x, c, rows, cells)

        monkeypatch.setattr(distances, "sqdist_pairs", counting)
        cases, ulp = 3000, 2.0**-22  # float32's ulp in [2, 4)
        for _ in range(cases):
            points = (0.5 + 1e-3 * rng.standard_normal((2, 3))).astype(np.float32)
            x = points.mean(axis=0, dtype=np.float64) + 1e-3 * rng.uniform(0.5, 1.5, (1, 3))
            plain = row_keys(points)
            product = next(keyed_blocks(x, plain))[2][0].astype(np.float64)
            hb1 = np.float32(2 + rng.integers(256) * ulp)
            a1 = float(hb1) + ulp / 2 - 2.0**-40
            a0 = a1 - product[1] + product[0] - rng.uniform(0, 2.0**-18)
            cb = Codebook(Centroids(points), 2 * (np.array([a0, a1]) - plain.half))
            assert cb.keys.half[1] == hb1
            want = route_cells_whole_sort(x, cb, 1, ROUTE_PENALIZED)
            assert np.array_equal(route_cells_batch(x, cb, 1), want)
        assert 0 < len(ranked) < cases / 2

    def test_centroids_float32_cannot_hold_decide_nothing(self, rng):
        points = rng.standard_normal((6, 3))  # float64, not float32 values
        cb = Codebook(Centroids(points), rng.random(6))
        assert cb.centroids.keys.frame.h_max == np.inf
        queries = rng.standard_normal((50, 3))
        for ma, route in itertools.product((1, 4), ROUTES):
            got = route_cells_batch(queries, cb, ma, route)
            assert np.array_equal(got, route_cells_whole_sort(queries, cb, ma, route))


class TestRowBlocks:
    """Assignment, the distortion trace, build and routing walk the kernel's
    row blocks one at a time; at each block edge they must give the bits of
    one whole-matrix call, and build and routing key each row once."""

    K, D, ROWS = 7, 3, 5

    @pytest.fixture(params=[-1, 0, 1])
    def data(self, request, rng, monkeypatch):
        monkeypatch.setattr(distances, "_CHUNK_ELEMS", self.ROWS * self.K * self.D)
        return random_vectors(rng, 4 * self.ROWS + request.param, self.D)

    def test_assign_plain_and_the_distortion_trace(self, data, monkeypatch):
        seen = []
        for name in ("init_centroids", "_update_means"):
            orig = getattr(kmeans, name)

            def recording(*args, orig=orig, **kwargs):
                seen.append(orig(*args, **kwargs))
                return seen[-1]

            monkeypatch.setattr(kmeans, name, recording)
        result = lloyd_full(data, self.K, seed=3, max_iters=4, rel_tol=0.0)
        assert len(seen) == len(result.distortions)
        for cents, distortion in zip(seen, result.distortions):
            cells = assign_plain_whole_argmin(data, cents)
            assert np.array_equal(assign_plain(data, cents).cell_of, cells)
            assert distortion == distortion_whole(data, cents, cells)

    def test_build_and_routing(self, data, rng):
        cb = Codebook(Centroids(data.data[: self.K].copy()), rng.random(self.K))
        want = route_cells_whole_sort(data.data, cb, 1, ROUTE_PENALIZED)[:, 0]
        index = build(data, cb)
        assert np.array_equal(index.cell_of_points(), want)
        assert np.array_equal(index.ids, np.argsort(want, kind="stable"))
        for ma, route in itertools.product((1, 3), ROUTES):
            got = route_cells_batch(data.data, cb, ma, route)
            assert np.array_equal(got, route_cells_whole_sort(data.data, cb, ma, route))

    def test_build_and_routing_key_each_row_once(self, data, rng, monkeypatch):
        # One key_bounds call per row block, whatever the walk's m.
        cb = Codebook(Centroids(data.data[: self.K].copy()), rng.random(self.K))
        calls = []

        def counting(queries, frame):
            calls.append(len(queries))
            return key_bounds(queries, frame)

        monkeypatch.setattr(distances, "key_bounds", counting)
        n = data.count
        blocks = [min(self.ROWS, n - start) for start in range(0, n, self.ROWS)]
        for walk in (lambda: build(data, cb), lambda: route_cells_batch(data.data, cb, 1),
                     lambda: route_cells_batch(data.data, cb, 3)):
            calls.clear()
            walk()
            assert calls == blocks

    def test_a_walk_over_rows_is_a_walk_over_their_gather(self, data, rng):
        cb = Codebook(Centroids(data.data[: self.K].copy()), rng.random(self.K))
        rows = rng.permutation(data.count)[: 3 * self.ROWS + 2]
        for m in (1, 3):
            walked = list(keyed_blocks(data.data, cb.keys, m, rows))
            gathered = list(keyed_blocks(data.data[rows], cb.keys, m))
            assert len(walked) == len(gathered) == 4
            for (block, *got), (part, *want) in zip(walked, gathered):
                assert np.array_equal(block, rows[part])
                for a, b in zip(got, want):  # ids, product, keys and E
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_empty_input_is_still_shape_checked(self, rng):
        cb = Codebook.fresh(Centroids(rng.standard_normal((4, 3)).astype(np.float32)))
        assert route_cells_batch(np.zeros((0, 3)), cb, 2).shape == (0, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            route_cells_batch(np.zeros((0, 5)), cb, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_plain(VectorSet.from_array(np.zeros((0, 5))), cb.centroids)


def rounding_down_sums(d, side):
    """float32 terms near 1 whose running float32 sum, taken in order,
    rounds by almost half an ulp towards ``-side`` at every step."""
    steps = 1.0 + np.arange(4096) * 2.0**-23  # float32 values in [1, 1 + 2^-11)
    terms, total = [], np.float32(0.0)
    for _ in range(d):
        exact = float(total) + steps
        error = side * (exact - exact.astype(np.float32).astype(np.float64))
        terms.append(steps[np.argmax(error)])
        total = np.float32(float(total) + terms[-1])
    return np.array(terms, dtype=np.float32)


def screen_cases(rng):
    """(name, float64 query, float32 rows) for the rounding tests: scales
    at both ends of float32's range, casts, subnormals and running sums."""
    for d in (1, 3, 8, 32):
        v = rng.standard_normal((12, d)).astype(np.float32)
        yield "random", rng.standard_normal(d), v
        yield "near a row", v[3].astype(np.float64) + 1e-9 * rng.standard_normal(d), v
        yield "offset 1e4", 1e4 + rng.standard_normal(d) * 1e-2, (1e4 + v * 1e-2).astype(np.float32)
        for scale in (1e-22, 1e-19, 1e19):
            yield f"scale {scale}", rng.standard_normal(d) * scale, (v * scale).astype(np.float32)
        # Each query coordinate just short of the float32 midpoint, on the
        # side of its row's sign, so fl32(q) - q lines up with every row.
        p = rng.uniform(1, 2, d).astype(np.float32)
        signs = rng.choice([-1.0, 1.0], d)
        ulp = np.spacing(p).astype(np.float64)
        query = p + signs * ulp / 2 * (1 - 2.0**-20)
        assert np.array_equal(query.astype(np.float32), p)
        yield "cast against the rows", query, (signs * np.ones((4, d))).astype(np.float32)
        yield "tiny float64 query", rng.standard_normal(d) * 1e-50, v
        # Norms far apart (the bound's AM-GM step), and its subnormal terms.
        yield "query norm far above the rows'", rng.standard_normal(d) * 1e8, v
        yield "query norm far below the rows'", rng.standard_normal(d) * 1e-8, v
        yield "all-zero row", rng.standard_normal(d), np.vstack([v, np.zeros((1, d), np.float32)])
        subnormal = (v.astype(np.float64) * 1e-40).astype(np.float32)
        assert (np.abs(subnormal) < np.finfo(np.float32).tiny).all()
        yield "subnormal rows, query below float32", rng.standard_normal(d) * 1e-50, subnormal
        mixed, query = v.copy(), rng.standard_normal(d)
        mixed[:, ::2], query[::2] = subnormal[:, ::2], query[::2] * 1e-40
        yield "subnormal and normal coordinates", query, mixed
        for side in (1, -1):
            yield "running sum rounds", np.ones(d), rounding_down_sums(d, side)[None, :]


class TestExactKernel:
    @pytest.mark.parametrize("d", [*range(1, 70), 96, 128, 129, 256])
    def test_each_row_gives_the_bits_of_one_block(self, rng, d):
        # Rows and queries of many scales, with NaN and +-inf coordinates.
        rows = rng.standard_normal((13, d)) * 10.0 ** rng.integers(-20, 20, (13, 1))
        rows = rows.astype(np.float32)
        rows[3, 0], rows[5, -1], rows[7, d // 2] = np.nan, np.inf, -np.inf
        queries = rng.standard_normal((5, d)) * 10.0 ** rng.integers(-20, 20, (5, 1))
        queries[1, -1], queries[2, 0], queries[3, d // 2] = np.nan, np.inf, -np.inf
        # Two blocks of the kernel's rows and a tail, the NaN and inf rows in each.
        many = np.resize(rows, (2 * distances._EXACT_ROWS + 13, d))
        for x, c in ((queries, rows), (rows, rows), (queries[:1], rows[:0]), (queries[:0], rows),
                     (queries[:4], many)):
            with np.errstate(invalid="ignore"):  # inf - inf
                got, want = sqdist_exact(x, c), sqdist_exact_block(x, c)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_relative_error_holds_in_exact_arithmetic(self, rng):
        # ``sqdist_exact`` is within gamma_{d+2} relative of the real
        # squared distance, which ``key_bounds`` builds on.
        for name, query, vectors in screen_cases(rng):
            exact = sqdist_exact(query[None, :], vectors)[0]
            g = Fraction(_gamma(vectors.shape[1] + 2))
            fq = [Fraction(float(x)) for x in query]
            for j, row in enumerate(vectors):
                real = sum((a - Fraction(float(x))) ** 2 for a, x in zip(fq, row))
                assert abs(Fraction(float(exact[j])) - real) <= g * real, name


def key_cases(rng):
    """(name, float64 queries, float32 rows) for the key bound tests: the
    rounding cases, rows around far offsets, rows whose centered half
    norms round three times the same way, and rows at their own center
    whose float64 norm rounds down."""
    for name, query, vectors in screen_cases(rng):
        yield name, query[None, :], vectors
    for d in (1, 3, 8, 32):
        spread = rng.standard_normal((12, d))
        for offset in (30.0, 1e3, 1e4):
            rows = (offset + spread * 0.1).astype(np.float32)
            yield f"offset {offset}", offset + rng.standard_normal((3, d)) * 0.1, rows
    # The center is their mean, -2^-24. Each row's difference to it,
    # +-(1 + 2^-12 + 2^-24), ties and rounds to even, 1 + 2^-12 in size,
    # whose square 1 + 2^-11 + 2^-24 ties and rounds down to even again:
    # the key of the query at the center is 1.5 u below the real value.
    rows = np.array([[1 + 2.0**-12], [-(1 + 2.0**-12 + 2.0**-23)]], dtype=np.float32)
    yield "centered norms round three times", np.array([[-(2.0**-24)]]), rows
    # Equal rows are their own center, so their half norms are 0 and V is
    # the center's norm, rounded in float64: only its margin keeps V up.
    for d in (3, 32):
        while True:
            v = rng.standard_normal(d).astype(np.float32)
            norm = Fraction(float(np.sqrt(sq_norms(v[None, :])[0])))
            if norm**2 < sum(Fraction(float(x)) ** 2 for x in v):
                break
        yield "rows at their center", v + rng.standard_normal((2, d)), np.tile(v, (5, 1))


class TestKeyBoundsFrame:
    """``key_bounds`` reads its row-side terms from the frame, derived once
    by ``row_keys``: its p and E must equal the bits of the oracle that
    derives them on each call, for a block and for each query alone."""

    def test_matches_recomputing_oracle(self, rng, monkeypatch):
        def no_gamma(*args):
            raise AssertionError("key_bounds derived a gamma")

        sides = set()
        for name, queries, rows in key_cases(rng):
            frame = row_keys(rows).frame
            d = rows.shape[1]
            # |q - center| just below and above where the guard stops claiming.
            edge = (2.0**125 - frame.h_max) / frame.guard
            steps = edge * (1 + np.arange(-3, 4) * 2.0**-52)
            directions = np.vstack([np.eye(d)[0], np.full(d, d**-0.5)])
            at_edge = (frame.center + steps[:, None, None] * directions).reshape(-1, d)
            odd = np.repeat([[np.nan], [np.inf], [-np.inf]], d, axis=1)
            queries = np.vstack([queries, odd, at_edge])
            want_p, want_bound = key_bounds_recomputing(queries, frame)
            monkeypatch.setattr(distances, "_gamma", no_gamma)
            p, bound = key_bounds(queries, frame)
            assert p.tobytes() == want_p.tobytes(), name
            assert bound.tobytes() == want_bound.tobytes(), name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for query, want_q, want_e in zip(queries, want_p, want_bound):
                    one_p, one_bound = key_bounds(query, frame)
                    assert one_p.tobytes() == want_q.tobytes(), name
                    assert np.float64(one_bound).tobytes() == want_e.tobytes(), name
            monkeypatch.undo()
            sides.update(np.isinf(want_bound[-len(at_edge):]).tolist())
        assert sides == {False, True}


def float32_keys(p, rows, half):
    """The keys ``fl32(half - fl32(p.v))`` of a block of queries, from one
    float32 product, as the library's cuts compute them."""
    return np.subtract(half, np.matmul(p, rows.T))


class TestShiftedKeys:
    """The float32 keys are within ``key_bounds``' E of half the exact
    kernel's value less the query's constant, checked in rationals."""

    def test_bound_holds_in_exact_arithmetic(self, rng):
        for name, queries, rows in key_cases(rng):
            rows_keyed = row_keys(rows)
            p, bound = key_bounds(queries, rows_keyed.frame)
            safe = np.isfinite(bound)
            assert safe.all() or name == "scale 1e+19", name
            keys = float32_keys(p[safe], rows, rows_keyed.half)
            exact = sqdist_exact(queries[safe], rows)
            c = [Fraction(float(x)) for x in rows_keyed.frame.center]
            for query, query_keys, row_exact, e in zip(queries[safe], keys, exact, bound[safe]):
                w = [Fraction(float(x)) - ci for x, ci in zip(query, c)]
                constant = sum(x * x for x in w) / 2 + sum(x * ci for x, ci in zip(w, c))
                for key, x in zip(query_keys, row_exact):
                    error = Fraction(float(key)) - (Fraction(float(x)) / 2 - constant)
                    assert abs(error) <= Fraction(float(e)), name

    @pytest.mark.parametrize("penalty", ["far above", "floor", "near the guard"])
    def test_penalty_term_holds_in_exact_arithmetic(self, rng, penalty):
        # Keys of rows with penalties against Y = fl64(X + b): b far above
        # the distances, at B_FLOOR (alone and next to larger ones), and
        # with h_max + b_max just below the guard, where E stays finite.
        for name, queries, rows in key_cases(rng):
            cells = row_keys(rows)
            exact = sqdist_exact(queries, rows)
            top = np.nanmax(exact, initial=0.0, where=np.isfinite(exact))
            b = {
                "far above": (1e6 * top + 1e-30) * rng.uniform(0.5, 1.0, len(rows)),
                "floor": np.where(rng.random(len(rows)) < 0.5, B_FLOOR, rng.random(len(rows))),
                "near the guard": (2.0**125 - min(cells.frame.h_max, 2.0**124))
                * rng.uniform(0.5, 1 - 2.0**-20, len(rows)),
            }[penalty]
            keyed = row_keys(rows, b)
            p, bound = key_bounds(queries, keyed.frame)
            bound += keyed.term
            safe = np.isfinite(bound)
            assert safe.all() or "1e+19" in name, name
            keys = float32_keys(p[safe], rows, keyed.half)
            c = [Fraction(float(x)) for x in keyed.frame.center]
            for query, query_keys, row_exact, e in zip(queries[safe], keys, exact[safe] + b,
                                                       bound[safe]):
                w = [Fraction(float(x)) - ci for x, ci in zip(query, c)]
                constant = sum(x * x for x in w) / 2 + sum(x * ci for x, ci in zip(w, c))
                for key, y in zip(query_keys, row_exact):
                    error = Fraction(float(key)) - (Fraction(float(y)) / 2 - constant)
                    assert abs(error) <= Fraction(float(e)), name

    def test_past_the_guard_nothing_is_claimed(self, rng):
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        b = np.full(5, 2.0**125 * (1 + 2.0**-20))
        assert row_keys(rows, b).term == np.inf
        b[0] = 1e39  # its half norm is past float32's range too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keyed = row_keys(rows, b)
        assert np.isinf(keyed.half[0]) and keyed.term == np.inf

    def test_v_max_bounds_every_row_norm(self, rng):
        for name, _, rows in key_cases(rng):
            v_max = row_keys(rows).frame.v_max
            if v_max == np.inf:  # the half norms overflow float32
                assert name == "scale 1e+19", name
                continue
            for row in rows:
                assert sum(Fraction(float(x)) ** 2 for x in row) <= Fraction(v_max) ** 2, name

    @pytest.mark.parametrize("offset, ratio", [(0.0, 1e-5), (1e3, 0.05)])
    def test_bound_is_close_on_plain_data(self, rng, offset, ratio):
        # Loose bounds cost speed: pin their size against half the median
        # distance, at the origin and far from it.
        rows = (offset + 0.1 * rng.standard_normal((1000, 32))).astype(np.float32)
        queries = offset + 0.1 * rng.standard_normal((4, 32))
        _, bound = key_bounds(queries, row_keys(rows).frame)
        assert (bound < ratio * np.median(sqdist_exact(queries, rows)) / 2).all()


class TestNearestR:
    """``nearest_r`` against the gather-and-full-sort oracle on integer
    data, where distances tie at every rank, over one span of every row and
    over spans that skip rows, repeat none and include empty ones."""

    @pytest.fixture
    def ties(self):
        data, _ = integer_tie_fixture()
        ids = np.random.default_rng(3).permutation(data.count) + 1000
        queries = [np.array(q, dtype=np.float64) for q in ((0, 0, 0, 0), (1, -2, 3, 0))]
        queries += [np.array([0.5, 1.5, -2.5, 2.0]), np.array([np.nan, 0.0, 0.0, 0.0])]
        return data.keys, ids, queries

    def test_matches_gather_and_full_sort(self, ties, monkeypatch):
        keys, ids, queries = ties
        cuts = []

        def recording_cut(*args):
            cuts.append(1)
            return key_bounds(*args)

        monkeypatch.setattr(distances, "key_bounds", recording_cut)
        for spans, query in itertools.product(
                ([(0, 300)], [(250, 300), (7, 7), (0, 90), (120, 121)]), queries):
            rows = np.concatenate([np.arange(start, end) for start, end in spans])
            n = len(rows)
            for r in (1, n - 1, n, n + 5):
                calls, cuts[:] = [], []

                def kernel(x, c):
                    calls.append(len(c))
                    return sqdist_exact(x, c)

                got_ids, got_d2 = nearest_r(query, keys, spans, r, ids, kernel)
                d2 = sqdist_exact(query[None, :], keys.points[rows])[0]
                order = np.lexsort((ids[rows], d2))[:r]
                assert np.array_equal(got_ids, ids[rows][order])
                assert got_d2.tobytes() == d2[order].tobytes()
                assert len(calls) == 1
                assert len(cuts) == (r < n)
                if r >= n or np.isnan(query).any():
                    assert calls == [n]
