import numpy as np
import pytest

from ivfbalance import (
    BalanceConfig,
    Codebook,
    ExperimentSpec,
    StopRule,
    VectorSet,
    balance,
    gen_gaussian_mixture,
    run_convergence,
    run_histogram,
    run_tradeoff,
    save_fvecs,
)
from ivfbalance.harness import codebooks_at_iterations, ground_truth_cached

from conftest import random_vectors


@pytest.fixture
def mixture_files(tmp_path):
    """Small imbalanced mixture: db + held-out queries from the same modes."""
    db = gen_gaussian_mixture(21, 2000, 8, 3, [0.7, 0.2, 0.1], 0.12)
    queries = gen_gaussian_mixture(2121, 200, 8, 3, [0.7, 0.2, 0.1], 0.12, centers_from_seed=21)
    db_path = tmp_path / "db.fvecs"
    q_path = tmp_path / "q.fvecs"
    save_fvecs(db, db_path)
    save_fvecs(queries, q_path)
    return db_path, q_path


class TestSpecValidation:
    def test_empty_iters_rejected_before_output(self, mixture_files, tmp_path):
        db, q = mixture_files
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="iteration"):
            ExperimentSpec(db=db, queries=q, out=out, ks=(4,), iters=())
        assert not out.exists()

    def test_empty_k_rejected(self, mixture_files, tmp_path):
        db, q = mixture_files
        with pytest.raises(ValueError):
            ExperimentSpec(db=db, queries=q, out=tmp_path / "o", ks=())

    def test_learning_required_for_semiclosed(self, mixture_files, tmp_path):
        db, q = mixture_files
        with pytest.raises(ValueError, match="learning"):
            ExperimentSpec(db=db, queries=q, out=tmp_path / "o", ks=(4,), mode="semiclosed")

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(route="sideways"), "route"),
            (dict(mas=(0,)), "ma is required"),
            (dict(ks=(32, 0)), "k is required"),
            (dict(ks=(32, 4), mas=(1, 8)), "exceeds"),
        ],
        ids=["route", "ma-zero", "k-zero", "ma-above-k"],
    )
    def test_bad_grid_rejected_before_training(self, mixture_files, tmp_path, bad, match):
        db, q = mixture_files
        fields = dict(db=db, queries=q, out=tmp_path / "o", ks=(32,))
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**{**fields, **bad})


class TestUnusedFiles:
    def test_convergence_ignores_queries(self, mixture_files, tmp_path):
        db, _ = mixture_files
        spec = ExperimentSpec(
            db=db, queries=tmp_path / "missing.fvecs", out=tmp_path / "o",
            ks=(4,), iters=(0, 2),
        )
        assert len(run_convergence(spec)) == 1

    def test_open_convergence_ignores_database(self, mixture_files, tmp_path):
        learning, _ = mixture_files
        spec = ExperimentSpec(
            db=tmp_path / "missing.fvecs", learning=learning, out=tmp_path / "o",
            ks=(4,), iters=(0, 2), mode="open",
        )
        assert len(run_convergence(spec)) == 1

    def test_closed_tradeoff_ignores_learning(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db, queries=q, learning=tmp_path / "missing.fvecs",
            out=tmp_path / "o", ks=(4,), iters=(0, 2),
        )
        assert run_tradeoff(spec).is_file()


class TestPresetSnapshots:
    def test_prefix_property_is_exact(self, rng):
        from ivfbalance.kmeans import Centroids

        data = random_vectors(rng, 400, 4)
        cb = Codebook.fresh(Centroids(data.data[:8].copy()))
        stages, _ = codebooks_at_iterations(data, cb, (0, 3, 7), alpha=0.05)
        for r in (0, 3, 7):
            separate, _ = balance(
                data, cb, BalanceConfig(stop=StopRule.fixed_iters(r), alpha=0.05)
            )
            assert np.array_equal(stages[r].penalties, separate.penalties)
            assert stages[r].iteration == r


class TestConvergence:
    def test_balanced_input_stays_flat(self, tmp_path, rng):
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 20), np.linspace(0, 1, 20)), axis=-1
        ).reshape(-1, 2)
        save_fvecs(VectorSet.from_array(grid), tmp_path / "grid.fvecs")
        spec = ExperimentSpec(
            db=tmp_path / "grid.fvecs",
            out=tmp_path / "out",
            ks=(4,),
            iters=(0, 5, 10),
            seed=1,
        )
        (path,) = run_convergence(spec)
        rows = path.read_text().splitlines()[1:]
        gammas = [float(line.split(",")[1]) for line in rows]
        assert all(g < 1.05 for g in gammas)

    def test_gamma_drops_on_imbalanced_mixture(self, mixture_files, tmp_path):
        db, _ = mixture_files
        spec = ExperimentSpec(
            db=db, out=tmp_path / "out", ks=(16,), iters=(0, 64), seed=7
        )
        (path,) = run_convergence(spec)
        rows = path.read_text().splitlines()[1:]
        gammas = [float(line.split(",")[1]) for line in rows]
        assert len(gammas) == 65
        assert gammas[64] < gammas[0]

    def test_zero_preset_single_row(self, mixture_files, tmp_path):
        db, _ = mixture_files
        spec = ExperimentSpec(db=db, out=tmp_path / "out", ks=(4,), iters=(0,), seed=7)
        (path,) = run_convergence(spec)
        assert len(path.read_text().splitlines()) == 2

    def test_reproducible_byte_identical(self, mixture_files, tmp_path):
        db, _ = mixture_files
        blobs = []
        for name in ("a", "b"):
            spec = ExperimentSpec(
                db=db, out=tmp_path / name, ks=(8,), iters=(0, 10), seed=3
            )
            (path,) = run_convergence(spec)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestTradeoff:
    def test_grid_rows_and_exhaustive_extremes(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db,
            queries=q,
            out=tmp_path / "out",
            ks=(8,),
            mas=(2, 8),
            iters=(0, 32),
            seed=5,
        )
        path = run_tradeoff(spec)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            parts = line.split(",")
            if parts[1] == "8":  # ma == k
                assert float(parts[6]) == 1.0
                assert float(parts[7]) == 1.0

    def test_selectivity_reduced_by_balancing(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db,
            queries=q,
            out=tmp_path / "out",
            ks=(16,),
            mas=(2,),
            iters=(0, 64),
            seed=5,
        )
        path = run_tradeoff(spec)
        rows = {}
        for line in path.read_text().splitlines()[1:]:
            parts = line.split(",")
            rows[int(parts[2])] = float(parts[6])
        assert rows[64] < rows[0]

    def test_requires_queries(self, mixture_files, tmp_path):
        db, _ = mixture_files
        spec = ExperimentSpec(db=db, out=tmp_path / "out", ks=(4,), seed=5)
        with pytest.raises(ValueError, match="quer"):
            run_tradeoff(spec)


class TestHistogram:
    def test_single_cell_single_bucket(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db, queries=q, out=tmp_path / "out", ks=(1,), mas=(1,), iters=(0,), seed=5
        )
        written, _ = run_histogram(spec)
        lines = written[0].read_text().splitlines()
        assert len(lines) == 2  # header + the one bucket at N

    def test_variance_shrinks_with_balancing(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db,
            queries=q,
            out=tmp_path / "out",
            ks=(16,),
            mas=(1,),
            iters=(0, 64),
            seed=5,
        )
        _, summary = run_histogram(spec)
        variances = {}
        for line in summary.read_text().splitlines()[1:]:
            parts = line.split(",")
            variances[int(parts[2])] = float(parts[4])
        assert variances[64] < variances[0]


class TestModes:
    def test_semiclosed_equals_closed_when_learning_is_db(self, mixture_files, tmp_path):
        db, q = mixture_files
        outputs = []
        for mode, learning in (("closed", None), ("semiclosed", db)):
            spec = ExperimentSpec(
                db=db,
                queries=q,
                learning=learning,
                out=tmp_path / mode,
                ks=(8,),
                mas=(2,),
                iters=(0, 16),
                seed=9,
                mode=mode,
            )
            outputs.append(run_tradeoff(spec).read_bytes())
        assert outputs[0] == outputs[1]

    def test_open_mode_runs(self, mixture_files, tmp_path):
        db, q = mixture_files
        spec = ExperimentSpec(
            db=db,
            queries=q,
            learning=db,
            out=tmp_path / "open",
            ks=(4,),
            mas=(1,),
            iters=(0, 8),
            seed=9,
            mode="open",
        )
        assert run_tradeoff(spec).is_file()


class TestGroundTruthCache:
    def test_cache_hit_is_identical(self, tmp_path, rng):
        data = random_vectors(rng, 80, 3)
        queries = random_vectors(rng, 9, 3)
        cache = tmp_path / "cache"
        first = ground_truth_cached(data, queries, 2, cache)
        files = list(cache.glob("gt_*.npz"))
        assert len(files) == 1
        second = ground_truth_cached(data, queries, 2, cache)
        assert np.array_equal(first.ids, second.ids)
        assert np.array_equal(first.dists, second.dists)
        assert len(list(cache.glob("gt_*.npz"))) == 1

    def test_distinct_datasets_get_distinct_keys(self, tmp_path, rng):
        data = random_vectors(rng, 40, 3)
        queries = random_vectors(rng, 4, 3)
        other = random_vectors(rng, 40, 3)
        cache = tmp_path / "cache"
        ground_truth_cached(data, queries, 2, cache)
        ground_truth_cached(other, queries, 2, cache)
        assert len(list(cache.glob("gt_*.npz"))) == 2

    def test_cache_with_ids_outside_the_data_is_recomputed(self, tmp_path, rng):
        data = random_vectors(rng, 200, 3)
        queries = random_vectors(rng, 5, 3)
        cache = tmp_path / "cache"
        expected = ground_truth_cached(data, queries, 2, cache)
        (cache_file,) = cache.glob("gt_*.npz")
        for bad in (10_000, -1):
            np.savez(cache_file, ids=np.full((5, 2), bad), dists=expected.dists)
            again = ground_truth_cached(data, queries, 2, cache)
            assert np.array_equal(again.ids, expected.ids)
            with np.load(cache_file) as stored:
                assert np.array_equal(stored["ids"], expected.ids)
        assert list(cache.iterdir()) == [cache_file]

    def test_unreadable_cache_is_recomputed(self, tmp_path, rng):
        data = random_vectors(rng, 60, 3)
        queries = random_vectors(rng, 5, 3)
        cache = tmp_path / "cache"
        expected = ground_truth_cached(data, queries, 2, cache)
        (cache_file,) = cache.glob("gt_*.npz")
        cache_file.write_bytes(b"not an npz archive")
        again = ground_truth_cached(data, queries, 2, cache)
        assert np.array_equal(again.ids, expected.ids)
        assert np.array_equal(again.dists, expected.dists)
        assert list(cache.iterdir()) == [cache_file]
        with np.load(cache_file) as stored:
            assert np.array_equal(stored["ids"], expected.ids)


def test_histogram_csv_bytes(two_clusters, tmp_path):
    # k=2 splits the clusters at every preset: the queries scan 4 and 3 points.
    db, queries = two_clusters
    spec = ExperimentSpec(db=db, queries=queries, out=tmp_path / "out", ks=(1, 2), iters=(0, 8))
    written, summary = run_histogram(spec)
    assert summary.read_bytes() == (
        b"k,ma,iters,scan_mean,scan_variance,scan_cv\n"
        b"1,1,0,7.0,0.0,0.0\n1,1,8,7.0,0.0,0.0\n"
        b"2,1,0,3.5,0.5,0.20203050891044216\n2,1,8,3.5,0.5,0.20203050891044216\n"
    )
    assert [path.name for path in written] == [
        "histogram_k1_ma1_r0.csv", "histogram_k1_ma1_r8.csv",
        "histogram_k2_ma1_r0.csv", "histogram_k2_ma1_r8.csv",
    ]
    assert written[0].read_bytes() == b"bucket_lo,bucket_hi,count\n7.0,7.699999999999999,2\n"
    assert written[3].read_bytes() == (
        b"bucket_lo,bucket_hi,count\n2.8,3.15,1\n3.8499999999999996,4.199999999999999,1\n"
    )
