import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ivfbalance.distances as distances
import ivfbalance.kmeans as kmeans
from ivfbalance import Centroids, Codebook, VectorSet, assign_plain, build, lloyd_full
from ivfbalance.distances import (
    certified,
    nearest_cells,
    nearest_r,
    screen_float32,
    sq_norms,
    sqdist_exact,
    sqdist_to_centroids,
)
from ivfbalance.index import ROUTE_PENALIZED, ROUTES, route_cells_batch

from conftest import integer_tie_fixture, random_vectors
from oracles import (
    assign_plain_whole_argmin,
    distortion_whole,
    route_cells_whole_sort,
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

    def test_nan_ranks_last_at_every_ma(self, rng):
        # (inf, 0, ..., 0) gives a row of NaN (c_0 = 0 or inf - inf) and inf.
        cb = Codebook(Centroids(rng.standard_normal((9, 4)).astype(np.float32)), rng.random(9))
        cb.centroids.points[[0, 4], 0] = 0.0
        query = np.zeros((1, 4), dtype=np.float32)
        query[0, 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            d2 = sqdist_to_centroids(query, cb.centroids.points)
            assert np.isnan(d2).any() and np.isinf(d2).any()
            for route in ROUTES:
                first = route_cells_batch(query, cb, 1, route)[0, 0]
                assert first == route_cells_batch(query, cb, 2, route)[0, 0]
                assert not np.isnan(d2[0, first])


class TestScreen:
    """On a float32 screen of a plain matrix, ``nearest_cells`` either picks
    the float64 matrix's cell or marks the row -1."""

    def test_certified_rows_agree_and_near_ties_are_marked(self, rng):
        plain = sqdist_to_centroids(rng.standard_normal((300, 4)), rng.standard_normal((12, 4)))
        penalties = rng.random(12)
        penalties[11] = 1e39  # past float32's range
        plain[0, 1] = plain[0, 0] * (1 + 1e-9)  # near-tie in float64 ...
        plain[0, 2:] = plain[0, 0] + 10.0
        penalties[:3] = penalties[0]
        plain[1] = np.nan
        plain[2, 5] = 1e39  # a plain value past float32's range
        plain[3] = 1e40  # every plain value past it
        plain[4] = plain[4, 7]  # exact ties
        with np.errstate(over="ignore"):
            screen = plain.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_cells(screen, penalties)[:, 0]
        want = nearest_cells(plain, penalties)[:, 0]
        sure = got >= 0
        assert np.array_equal(got[sure], want[sure])
        assert not sure[[0, 1, 3, 4]].any()
        assert sure[2] and sure.sum() > 280

    def test_gaps_near_the_bound(self, rng):
        # Runner-ups 2^-26 to 2^-16 above the best, relative, in every
        # order of ids and on both sides of float32's normal range.
        plain = rng.random((4000, 6)) + 1.0
        gaps = 2.0 ** rng.uniform(-26, -16, 4000)
        plain[:, 1] = plain[:, 0] * (1 + gaps)
        plain[::2] = plain[::2, ::-1]
        plain[1::4] *= 1e-40
        penalties = np.full(6, 1e-3)
        penalties[[2, 4]] = rng.random(2) * 1e-40
        got = nearest_cells(plain.astype(np.float32), penalties)[:, 0]
        want = nearest_cells(plain, penalties)[:, 0]
        sure = got >= 0
        assert np.array_equal(got[sure], want[sure])
        assert 0.2 < sure.mean() < 0.9

    def test_worst_case_roundings(self, rng):
        # Cell 0's plain value and penalty round down to float32 by almost
        # half an ulp, cell 1's round up, and cell 1 is a few ulps away.
        def rounding_to(v, side):
            nxt = np.nextafter(v, np.float32(side * np.inf)).astype(np.float64)
            return np.nextafter((v.astype(np.float64) + nxt) / 2, -side * np.inf)

        low = rng.uniform(0.25, 1, (2, 3000)).astype(np.float32)
        steps = rng.integers(-4, 5, low.shape, dtype=np.int32)
        high = (low.view(np.int32) + steps).view(np.float32)
        plain = np.stack([rounding_to(low[0], 1), rounding_to(high[0], -1)], axis=1)
        penalties = np.stack([rounding_to(low[1], 1), rounding_to(high[1], -1)], axis=1)
        for row, b in zip(plain[:, None], penalties):
            assert nearest_cells(row.astype(np.float32), b)[0, 0] in (-1, nearest_cells(row, b)[0, 0])

    def test_one_cell_per_row_only(self, rng):
        screen = rng.random((5, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="one cell"):
            nearest_cells(screen, None, 2)


class TestRowBlocks:
    """Assignment, the distortion trace, build and routing walk the kernel's
    row blocks one at a time; at each block edge they must give the bits of
    one whole-matrix call."""

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

    def test_empty_input_is_still_shape_checked(self, rng):
        cb = Codebook.fresh(Centroids(rng.standard_normal((4, 3)).astype(np.float32)))
        assert route_cells_batch(np.zeros((0, 3)), cb, 2).shape == (0, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            route_cells_batch(np.zeros((0, 5)), cb, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_plain(VectorSet.from_array(np.zeros((0, 5))), cb.centroids)


def float32_screen(query, vectors):
    """``screen_float32`` with the squared norms an index derives."""
    return screen_float32(np.asarray(query, dtype=np.float64), vectors, sq_norms(vectors))


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
    """(name, float64 query, float32 rows) for the bound test."""
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


class TestFloat32Screen:
    """``screen_float32`` is within its bound of the real squared distance,
    and the exact kernel within ``g`` relative, checked in rationals."""

    def test_bound_holds_in_exact_arithmetic(self, rng):
        for name, query, vectors in screen_cases(rng):
            screened, b, g = float32_screen(query, vectors)
            exact = sqdist_exact(query[None, :], vectors)[0]
            fq = [Fraction(float(x)) for x in query]
            for j, row in enumerate(vectors):
                real = sum((a - Fraction(float(x))) ** 2 for a, x in zip(fq, row))
                assert abs(Fraction(float(exact[j])) - real) <= Fraction(g) * real, name
                if np.isfinite(screened[j]):
                    assert abs(Fraction(float(screened[j])) - real) <= Fraction(float(b[j])), name
                else:
                    assert name == "scale 1e+19", name

    def test_bound_is_close_on_plain_data(self, rng):
        # Loose bounds cost speed, not correctness: pin their size.
        vectors = rng.standard_normal((50, 32)).astype(np.float32)
        screened, b, _ = float32_screen(rng.standard_normal(32), vectors)
        assert (b < 1e-4 * screened).all()


class TestCertified:
    def test_keeps_what_can_reach_rank_r(self):
        screened = np.array([5.0, 1.0, 3.0, 3.0 + 1e-12, 9.0, 2.0])
        assert np.array_equal(certified(screened, 0.0, 0.0, 2), [1, 5])
        assert np.array_equal(certified(screened, 1e-9, 0.0, 3), [1, 2, 3, 5])
        assert np.array_equal(certified(screened, 0.0, 0.0, 6), np.arange(6))

    def test_keeps_every_non_finite_screened_value(self):
        screened = np.array([4.0, np.inf, 1.0, -np.inf, np.nan, 7.0, 2.0])
        assert np.array_equal(certified(screened, 0.25, 1e-15, 1), [1, 2, 3, 4])
        assert np.array_equal(certified(np.full(4, np.nan), 1.0, 0.0, 2), np.arange(4))


class TestNearestR:
    """``nearest_r`` against the gather-and-full-sort oracle on integer
    data, where distances tie at every rank."""

    @pytest.fixture
    def ties(self):
        data, _ = integer_tie_fixture()
        ids = np.random.default_rng(3).permutation(data.count) + 1000
        queries = [np.array(q, dtype=np.float64) for q in ((0, 0, 0, 0), (1, -2, 3, 0))]
        queries += [np.array([0.5, 1.5, -2.5, 2.0]), np.array([np.nan, 0.0, 0.0, 0.0])]
        return data.data, sq_norms(data.data), ids, queries

    def test_matches_gather_and_full_sort(self, ties, monkeypatch):
        rows, rows_sq, ids, queries = ties
        screens = []

        def recording_screen(*args):
            screens.append(1)
            return screen_float32(*args)

        monkeypatch.setattr(distances, "screen_float32", recording_screen)
        n = len(rows)
        for query, r in itertools.product(queries, (1, n - 1, n, n + 5)):
            calls, screens[:] = [], []

            def kernel(x, c):
                calls.append(len(c))
                return sqdist_exact(x, c)

            got_ids, got_d2 = nearest_r(kernel, query, rows, rows_sq, ids, r)
            d2 = sqdist_exact(query[None, :], rows)[0]
            order = np.lexsort((ids, d2))[:r]
            assert np.array_equal(got_ids, ids[order])
            assert got_d2.tobytes() == d2[order].tobytes()
            assert len(calls) == 1
            assert len(screens) == (r < n)
            if r >= n:
                assert calls == [n]
