import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivfbalance import (
    Centroids,
    Codebook,
    EvalReport,
    GroundTruth,
    SearchParams,
    VectorSet,
    brute_force_nn,
    build,
    evaluate,
    imbalance_factor,
    list_variance,
    lloyd_full,
    recall_at_r,
    search,
    select_cells,
)
from ivfbalance import distances, metrics
from ivfbalance.distances import sqdist_exact
from ivfbalance.metrics import ScanHistogram, write_histogram_csv, write_report_csv

from conftest import random_vectors


class TestImbalanceFactor:
    def test_balanced_is_one(self):
        assert imbalance_factor([250, 250, 250, 250]) == 1.0

    def test_collapse_is_k(self):
        assert imbalance_factor([4, 0, 0, 0]) == 4.0

    def test_three_one_split(self):
        # 2 * (0.75^2 + 0.25^2)
        assert imbalance_factor([3, 1]) == pytest.approx(1.25, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            imbalance_factor([0, 0])

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=64).filter(
            lambda c: sum(c) > 0
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds(self, counts):
        gamma = imbalance_factor(counts)
        k = len(counts)
        assert 1.0 - 1e-12 <= gamma <= k + 1e-12
        if len(set(counts)) == 1:
            assert gamma == pytest.approx(1.0, abs=1e-12)
            assert list_variance(counts) == pytest.approx(0.0, abs=1e-12)


class TestListVariance:
    def test_balanced_is_zero(self):
        assert list_variance([10, 10, 10]) == 0.0

    def test_three_one_split(self):
        # 16 * (0.75 * 0.0625 + 0.25 * 0.0625)
        assert list_variance([3, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_collapse(self):
        # 16 * (1 * 0.25 + 0)
        assert list_variance([4, 0]) == pytest.approx(4.0, abs=1e-12)

    def test_gamma_one_iff_var_zero(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 20))
            counts = rng.integers(0, 50, size=k)
            if counts.sum() == 0:
                continue
            gamma = imbalance_factor(counts)
            var = list_variance(counts)
            equal = len(np.unique(counts)) == 1
            assert (abs(gamma - 1.0) < 1e-12) == equal
            assert (var < 1e-12) == equal


class TestBruteForce:
    def test_exact_match_first(self, rng):
        data = random_vectors(rng, 50, 3)
        queries = VectorSet.from_array(data.data[7:8].copy())
        truth = brute_force_nn(data, queries, 1)
        assert truth.ids[0, 0] == 7
        assert truth.dists[0, 0] == 0.0

    def test_one_dimensional_ranking(self):
        data = VectorSet.from_array([[0.0], [5.0], [9.0]])
        queries = VectorSet.from_array([[6.0]])
        truth = brute_force_nn(data, queries, 2)
        assert truth.ids[0].tolist() == [1, 2]
        assert truth.dists[0].tolist() == [1.0, 9.0]

    def test_full_ranking_is_permutation(self, rng):
        data = random_vectors(rng, 40, 2)
        queries = random_vectors(rng, 5, 2)
        truth = brute_force_nn(data, queries, 40)
        for row in truth.ids:
            assert sorted(row.tolist()) == list(range(40))
        assert np.all(np.diff(truth.dists, axis=1) >= 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            brute_force_nn(random_vectors(rng, 10, 3), random_vectors(rng, 2, 4), 1)

    def test_r_out_of_range(self, rng):
        data = random_vectors(rng, 10, 2)
        with pytest.raises(ValueError):
            brute_force_nn(data, data, 11)


def exact_scan_nn(data, queries, r):
    """Reference ground truth: every pair through the exact kernel, then a
    stable argsort, so equal distances keep ascending ids."""
    d2 = sqdist_exact(queries.data, data.data)
    order = np.argsort(d2, axis=1, kind="stable")[:, :r]
    return order, np.take_along_axis(d2, order, axis=1)


@st.composite
def tie_fixtures(draw):
    """(data, queries, r) built to hold exact and near ties.

    ``duplicates`` repeats a few base rows, with queries on or next to
    them; ``permuted`` holds coordinate permutations of one vector, each at
    the same real distance from a constant query. Both are scaled and
    shifted, and a far offset rounds the float32 points onto a coarse grid.
    """
    kind = draw(st.sampled_from(("duplicates", "permuted")))
    n = draw(st.integers(2, 60))
    dim = draw(st.sampled_from((1, 3, 8, 32)))
    # 1e-22: float32 products are subnormal; 1e19: the float32 dot overflows.
    scale = draw(st.sampled_from((1e-22, 1e-3, 1.0, 1e3, 1e19)))
    offset = draw(st.sampled_from((0.0, 1e4)))
    r = draw(st.sampled_from((1, max(1, n // 2), n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "duplicates":
        base = rng.standard_normal((max(1, n // 4), dim))
        points = base[rng.integers(0, len(base), n)]
        queries = base[rng.integers(0, len(base), 4)]
        queries[1::2] += 1e-6 * rng.standard_normal((len(queries[1::2]), dim))
    else:
        vector = rng.standard_normal(dim)
        points = np.stack([rng.permutation(vector) for _ in range(n)])
        queries = np.full((3, dim), rng.standard_normal())
    return (
        VectorSet.from_array(points * scale + offset),
        VectorSet.from_array(queries * scale + offset),
        r,
    )


class TestCertifiedGroundTruth:
    """brute_force_nn screens with search's float32 product and re-scores
    only the points its error bound cannot rule out; its output must still
    be the exact scan's, bit for bit."""

    @given(tie_fixtures())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_scan_on_ties(self, fixture):
        data, queries, r = fixture
        ids, dists = exact_scan_nn(data, queries, r)
        truth = brute_force_nn(data, queries, r)
        assert np.array_equal(truth.ids, ids)
        assert np.array_equal(truth.dists, dists)

    @given(tie_fixtures())
    @settings(max_examples=100, deadline=None)
    def test_exhaustive_search_matches_ground_truth(self, fixture):
        data, queries, r = fixture
        k = min(4, data.count)
        index = build(data, Codebook.fresh(Centroids(data.data[:k])))
        truth = brute_force_nn(data, queries, r)
        params = SearchParams(ma=k, r_results=r)
        for q, ids, dists in zip(queries.data, truth.ids, truth.dists):
            result = search(index, q, params)
            assert np.array_equal(result.ids, ids)
            assert np.array_equal(result.dists, dists)

    def test_query_slices_concatenate_to_the_whole(self, rng):
        # On a coarse lattice, so that every top 10 holds ties.
        data = VectorSet.from_array(rng.integers(-3, 4, (100_000, 4)))
        queries = VectorSet.from_array(rng.integers(-3, 4, (200, 4)) + 0.5)
        whole = brute_force_nn(data, queries, 10)
        parts = [
            brute_force_nn(data, VectorSet.from_array(chunk), 10)
            for chunk in np.array_split(queries.data, 7)
        ]
        assert np.array_equal(whole.ids, np.concatenate([p.ids for p in parts]))
        assert np.array_equal(whole.dists, np.concatenate([p.dists for p in parts]))

    def test_point_norms_are_computed_once(self, rng, monkeypatch):
        # Every query's screen reuses the one norm pass over the points.
        data = random_vectors(rng, 1 << 17, 3)
        queries = random_vectors(rng, 20, 3)
        rows, sq_norms = [], distances.sq_norms

        def recording(a):
            rows.append(len(a))
            return sq_norms(a)

        monkeypatch.setattr(metrics, "sq_norms", recording)
        monkeypatch.setattr(distances, "sq_norms", recording)
        truth = brute_force_nn(data, queries, 5)
        monkeypatch.undo()
        assert rows.count(data.count) == 1
        ids, dists = exact_scan_nn(data, queries, 5)
        assert np.array_equal(truth.ids, ids)
        assert truth.dists.tobytes() == dists.tobytes()

    def test_rescores_few_pairs(self, rng, monkeypatch):
        data = random_vectors(rng, 5000, 16)
        queries = random_vectors(rng, 20, 16)
        columns = []

        def counting(x, c):
            columns.append(len(c))
            return sqdist_exact(x, c)

        monkeypatch.setattr(metrics, "sqdist_exact", counting)
        truth = brute_force_nn(data, queries, 10)
        monkeypatch.undo()
        assert sum(columns) < 0.02 * queries.count * data.count
        ids, dists = exact_scan_nn(data, queries, 10)
        assert np.array_equal(truth.ids, ids)
        assert np.array_equal(truth.dists, dists)


@pytest.fixture
def eval_fixture(rng):
    data = random_vectors(rng, 100, 4)
    queries = random_vectors(rng, 25, 4)
    centroids = lloyd_full(data, 4, seed=3).centroids
    index = build(data, Codebook.fresh(centroids))
    truth = brute_force_nn(data, queries, 3)
    return data, queries, index, truth


class TestEvaluate:
    def test_exhaustive_probing_is_perfect(self, eval_fixture):
        data, queries, index, truth = eval_fixture
        report = evaluate(index, queries, SearchParams(ma=4), truth)
        assert report.selectivity == 1.0
        assert report.recall_at_1 == 1.0

    def test_single_cell_scans_everything(self, rng):
        data = random_vectors(rng, 60, 2)
        index = build(data, Codebook.fresh(lloyd_full(data, 1, seed=0).centroids))
        queries = random_vectors(rng, 10, 2)
        truth = brute_force_nn(data, queries, 1)
        report = evaluate(index, queries, SearchParams(ma=1), truth)
        assert report.selectivity == 1.0

    def test_matches_independent_replay(self, eval_fixture):
        data, queries, index, truth = eval_fixture
        params = SearchParams(ma=2)
        report = evaluate(index, queries, params, truth)

        # replay: per-query select_cells + membership of the true NN
        cell_of = np.empty(data.count, dtype=int)
        for cell, ids in enumerate(index.lists):
            cell_of[ids] = cell
        sizes = np.array([len(lst) for lst in index.lists])
        hits = 0
        total_scanned = 0
        for q in range(queries.count):
            cells = select_cells(queries.data[q], index.codebook, 2)
            total_scanned += int(sizes[cells].sum())
            if cell_of[truth.ids[q, 0]] in cells:
                hits += 1
        assert report.recall_at_1 == hits / queries.count
        assert report.selectivity == total_scanned / (data.count * queries.count)

    def test_monotone_in_ma(self, eval_fixture):
        data, queries, index, truth = eval_fixture
        prev_recall, prev_sel = 0.0, 0.0
        for ma in (1, 2, 3, 4):
            report = evaluate(index, queries, SearchParams(ma=ma), truth)
            assert report.recall_at_1 >= prev_recall
            assert report.selectivity >= prev_sel
            prev_recall, prev_sel = report.recall_at_1, report.selectivity
        assert prev_sel == 1.0

    def test_mismatched_truth_rejected(self, eval_fixture):
        data, queries, index, truth = eval_fixture
        short = VectorSet.from_array(queries.data[:5].copy())
        with pytest.raises(ValueError, match="truth"):
            evaluate(index, short, SearchParams(ma=1), truth)

    def test_empty_query_set_rejected(self, eval_fixture):
        data, _, index, truth = eval_fixture
        none = VectorSet.from_array(np.empty((0, data.dim)))
        no_truth = GroundTruth(truth.ids[:0], truth.dists[:0])
        with pytest.raises(ValueError, match="empty"):
            evaluate(index, none, SearchParams(ma=1), no_truth)
        with pytest.raises(ValueError, match="empty"):
            recall_at_r(index, none, SearchParams(ma=1), no_truth, 1)

    def test_expected_cost_identity(self, rng):
        # mean single-probe scan cost over the database itself = gamma*N/k
        data = random_vectors(rng, 500, 8)
        centroids = lloyd_full(data, 10, seed=4).centroids
        cb = Codebook(centroids, rng.uniform(0.0, 2.0, 10))
        index = build(data, cb)
        truth = brute_force_nn(data, data, 1)
        report = evaluate(index, data, SearchParams(ma=1), truth)
        expected = report.gamma * data.count / 10
        assert report.scanned.mean() == pytest.approx(expected, rel=1e-9)

    def test_plain_route_matches_plain_replay(self, rng):
        data = random_vectors(rng, 120, 3)
        centroids = lloyd_full(data, 5, seed=8).centroids
        index = build(data, Codebook(centroids, rng.uniform(0.0, 4.0, 5)))
        queries = random_vectors(rng, 15, 3)
        truth = brute_force_nn(data, queries, 1)
        report = evaluate(index, queries, SearchParams(ma=2, route="plain"), truth)
        sizes = np.array([len(lst) for lst in index.lists])
        scanned = 0
        for q in range(queries.count):
            cells = select_cells(queries.data[q], index.codebook, 2, route="plain")
            scanned += int(sizes[cells].sum())
        assert report.selectivity == scanned / (data.count * queries.count)

    def test_recall_at_r_generalization(self, eval_fixture):
        data, queries, index, truth = eval_fixture
        r3 = recall_at_r(index, queries, SearchParams(ma=2), truth, 3)
        r1 = recall_at_r(index, queries, SearchParams(ma=2), truth, 1)
        full = recall_at_r(index, queries, SearchParams(ma=4), truth, 3)
        assert 0.0 <= r3 <= 1.0
        report = evaluate(index, queries, SearchParams(ma=2), truth)
        assert r1 == report.recall_at_1
        assert full == 1.0


class TestHistogram:
    def test_bucketing(self):
        hist = ScanHistogram(np.array([0, 5, 9, 10, 11, 25]), 10.0).scan_histogram
        assert hist == {0: 3, 1: 2, 2: 1}

    def test_csv_export(self, tmp_path, eval_fixture):
        data, queries, index, truth = eval_fixture
        report = evaluate(index, queries, SearchParams(ma=1), truth)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "bucket_lo,bucket_hi,count"
        counts = sum(int(line.split(",")[2]) for line in lines[1:])
        assert counts == queries.count

    def test_csv_bytes_keep_each_bound_as_its_repr(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, ScanHistogram(np.array([0, 1, 1, 2]), 0.3))
        assert path.read_bytes() == (
            b"bucket_lo,bucket_hi,count\n0.0,0.3,1\n"
            b"0.8999999999999999,1.2,2\n1.7999999999999998,2.1,1\n"
        )

    def test_report_csv_header(self, tmp_path):
        path = tmp_path / "report.csv"
        report = EvalReport(
            scanned=np.array([3]), bucket_width=1.0, gamma=1.5, variance=2.0,
            selectivity=0.25, recall_at_1=0.9,
        )
        write_report_csv(path, [(4, 1, 0, 0.01, report)])
        lines = path.read_text().splitlines()
        assert lines[0] == "k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1"
        assert lines[1] == "4,1,0,0.01,1.5,2.0,0.25,0.9"
