import csv
import hashlib

import numpy as np
import pytest

from ivfbalance.cli import main
from ivfbalance import Centroids, Codebook, brute_force_nn, load_fvecs, save_codebook

from conftest import write_codebook_without_cells


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def generated(tmp_path):
    db = tmp_path / "db.fvecs"
    queries = tmp_path / "q.fvecs"
    assert run(["gen", "--out", db, "--seed", 3, "--n", 800, "--dim", 6,
                "--modes", 2, "--weights", "0.8,0.2", "--spread", 0.1]) == 0
    assert run(["gen", "--out", queries, "--seed", 33, "--n", 50, "--dim", 6,
                "--modes", 2, "--weights", "0.8,0.2", "--spread", 0.1,
                "--centers-seed", 3]) == 0
    return db, queries


class TestPipeline:
    def test_end_to_end(self, generated, tmp_path, capsys):
        db, queries = generated
        cb_dir = tmp_path / "cb"
        bal_dir = tmp_path / "bal"
        idx_dir = tmp_path / "idx"
        assert run(["kmeans", "--db", db, "--k", 8, "--seed", 1, "--out", cb_dir]) == 0
        assert (cb_dir / "centroids.fvecs").is_file()
        meta = (cb_dir / "meta.txt").read_text()
        assert "distortion=" in meta and "seed=1" in meta

        assert run(["balance", "--db", db, "--codebook", cb_dir, "--iters", 32,
                    "--out", bal_dir]) == 0
        assert (bal_dir / "trace.csv").is_file()
        assert (bal_dir / "penalties.txt").is_file()

        assert run(["build", "--db", db, "--codebook", bal_dir, "--out", idx_dir]) == 0
        assert (idx_dir / "lists.bin").is_file()

        assert run(["search", "--index", idx_dir, "--db", db, "--queries", queries,
                    "--ma", 3, "--r", 5, "--out", tmp_path / "hits.csv"]) == 0
        lines = (tmp_path / "hits.csv").read_text().splitlines()
        assert lines[0] == "query,rank,id,dist"
        assert len(lines) == 1 + 50 * 5

        assert run(["eval", "--index", idx_dir, "--db", db, "--queries", queries,
                    "--ma", 2, "--out", tmp_path / "eval"]) == 0
        report = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        assert report[0].startswith("k,ma,iters")
        hist = (tmp_path / "eval" / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bucket_lo,bucket_hi,count"
        assert sum(int(line.split(",")[2]) for line in hist[1:]) == 50

    def test_eval_report_leaves_alpha_empty(self, generated, tmp_path):
        db, queries = generated
        assert run(["kmeans", "--db", db, "--k", 4, "--seed", 1,
                    "--out", tmp_path / "cb"]) == 0
        assert run(["build", "--db", db, "--codebook", tmp_path / "cb",
                    "--out", tmp_path / "idx"]) == 0
        assert run(["eval", "--index", tmp_path / "idx", "--db", db,
                    "--queries", queries, "--out", tmp_path / "eval"]) == 0
        with open(tmp_path / "eval" / "report.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["alpha"] == ""
        assert row["iters"] == "0"

    def test_eval_ignores_a_planted_ground_truth_file(self, generated, tmp_path):
        # A well-formed file where an earlier version cached ground truth,
        # under the key it would have read, holding in-range but wrong ids.
        db, queries = generated
        assert run(["kmeans", "--db", db, "--k", 4, "--seed", 1,
                    "--out", tmp_path / "cb"]) == 0
        assert run(["build", "--db", db, "--codebook", tmp_path / "cb",
                    "--out", tmp_path / "idx"]) == 0
        data, query_set = load_fvecs(db), load_fvecs(queries)
        truth = brute_force_nn(data, query_set, 1)
        key = hashlib.sha256(data.data)
        key.update(query_set.data)
        key.update(b"1")
        planted = tmp_path / "planted" / "gt_cache" / f"gt_{key.hexdigest()[:24]}.npz"
        planted.parent.mkdir(parents=True)
        np.savez(planted, ids=(truth.ids + 1) % data.count, dists=truth.dists)
        for out in ("empty", "planted"):
            assert run(["eval", "--index", tmp_path / "idx", "--db", db, "--queries", queries,
                        "--out", tmp_path / out]) == 0
        empty, planted_out = tmp_path / "empty", tmp_path / "planted"
        assert sorted(p.name for p in empty.iterdir()) == ["histogram.csv", "report.csv"]
        assert sorted(p.name for p in planted_out.iterdir() if p.is_file()) == [
            "histogram.csv", "report.csv"
        ]
        assert list(planted_out.rglob("*.npz")) == [planted]
        for name in ("report.csv", "histogram.csv"):
            assert (planted_out / name).read_bytes() == (empty / name).read_bytes()

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.fvecs"
        b = tmp_path / "b.fvecs"
        for out in (a, b):
            assert run(["gen", "--out", out, "--seed", 5, "--n", 100, "--dim", 3]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_fvecs(a).count == 100

    def test_balance_target_gamma(self, generated, tmp_path):
        db, _ = generated
        cb_dir = tmp_path / "cb"
        bal_dir = tmp_path / "bal"
        assert run(["kmeans", "--db", db, "--k", 8, "--seed", 1, "--out", cb_dir]) == 0
        assert run(["balance", "--db", db, "--codebook", cb_dir,
                    "--target-gamma", 1.5, "--out", bal_dir]) == 0
        meta = (bal_dir / "meta.txt").read_text()
        assert "stop=target_gamma(1.5)" in meta

    def test_balance_iters_above_the_cap_runs_in_full(self, generated, tmp_path):
        db, _ = generated
        cb_dir = tmp_path / "cb"
        bal_dir = tmp_path / "bal"
        assert run(["kmeans", "--db", db, "--k", 8, "--seed", 1, "--out", cb_dir]) == 0
        assert run(["balance", "--db", db, "--codebook", cb_dir, "--iters", 12,
                    "--max-iters-cap", 5, "--out", bal_dir]) == 0
        meta = (bal_dir / "meta.txt").read_text().splitlines()
        assert "stop=fixed_iters(12)" in meta and "balance_iterations=12" in meta

    def test_balance_target_fraction(self, generated, tmp_path):
        db, _ = generated
        cb_dir = tmp_path / "cb"
        bal_dir = tmp_path / "bal"
        assert run(["kmeans", "--db", db, "--k", 8, "--seed", 1, "--out", cb_dir]) == 0
        assert run(["balance", "--db", db, "--codebook", cb_dir,
                    "--target-fraction", 0.5, "--out", bal_dir]) == 0
        assert "stop=target_fraction(0.5)" in (bal_dir / "meta.txt").read_text()
        with open(bal_dir / "trace.csv") as fh:
            gammas = [float(row["gamma"]) for row in csv.DictReader(fh)]
        assert gammas[-1] <= 1 + 0.5 * (gammas[0] - 1) < gammas[-2]


class TestOutputBytes:
    """Exact bytes of each CSV, on data where every distance is exact."""

    @pytest.fixture
    def index_dir(self, two_clusters, tmp_path):
        db, _ = two_clusters
        centroids = Centroids(np.array([[0.5, 0.5], [10.5, 10.5]], dtype=np.float32))
        save_codebook(Codebook.fresh(centroids), tmp_path / "cb")
        assert run(["build", "--db", db, "--codebook", tmp_path / "cb",
                    "--out", tmp_path / "idx"]) == 0
        return tmp_path / "idx"

    def test_search_hits_file_and_stdout(self, two_clusters, index_dir, tmp_path, capsys):
        db, queries = two_clusters
        # Ids 1 and 2 tie at distance 1.0 from query 0: the lower id ranks first.
        hits = b"query,rank,id,dist\n0,0,0,0.0\n0,1,1,1.0\n1,0,6,0.0\n1,1,4,1.0\n"
        args = ["search", "--index", index_dir, "--db", db, "--queries", queries, "--r", 2]
        assert run(args + ["--out", tmp_path / "hits.csv"]) == 0
        assert (tmp_path / "hits.csv").read_bytes() == hits
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().out == hits.decode()

    def test_eval_report_and_histogram(self, two_clusters, index_dir, tmp_path):
        db, queries = two_clusters
        assert run(["eval", "--index", index_dir, "--db", db, "--queries", queries,
                    "--out", tmp_path / "eval"]) == 0
        # Scan counts 4 and 3 in buckets of N / (10 k) = 0.35.
        assert (tmp_path / "eval" / "histogram.csv").read_bytes() == (
            b"bucket_lo,bucket_hi,count\n2.8,3.15,1\n3.8499999999999996,4.199999999999999,1\n"
        )
        assert (tmp_path / "eval" / "report.csv").read_bytes() == (
            b"k,ma,iters,alpha,gamma,variance,selectivity,recall_at_1\n"
            b"2,1,0,,1.020408163265306,0.24999999999999994,0.5,1.0\n"
        )


class TestExperimentCommands:
    def test_convergence_and_histogram(self, generated, tmp_path):
        db, queries = generated
        out = tmp_path / "exp"
        assert run(["convergence", "--db", db, "--k", "4,8", "--iters", "0,8",
                    "--seed", 2, "--out", out]) == 0
        assert (out / "convergence_k4.csv").is_file()
        assert (out / "convergence_k8.csv").is_file()

        assert run(["histogram", "--db", db, "--queries", queries, "--k", "4",
                    "--ma", "1", "--iters", "0,8", "--seed", 2, "--out", out]) == 0
        assert (out / "histogram_k4_ma1_r8.csv").is_file()
        assert (out / "histogram_summary.csv").is_file()

    def test_tradeoff(self, generated, tmp_path):
        db, queries = generated
        out = tmp_path / "exp"
        assert run(["tradeoff", "--db", db, "--queries", queries, "--k", "4",
                    "--ma", "1,4", "--iters", "0,8", "--seed", 2, "--out", out]) == 0
        lines = (out / "tradeoff.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_tradeoff_plain_route(self, generated, tmp_path):
        db, queries = generated
        out = tmp_path / "plain"
        assert run(["tradeoff", "--db", db, "--queries", queries, "--k", "4",
                    "--ma", "1", "--iters", "0,8", "--seed", 2, "--out", out,
                    "--route", "plain"]) == 0
        assert (out / "tradeoff.csv").is_file()


class TestExitCodes:
    def test_missing_file_is_validation_error(self, tmp_path):
        assert run(["kmeans", "--db", tmp_path / "missing.fvecs", "--k", 2,
                    "--out", tmp_path / "cb"]) == 2

    def test_bad_k_is_validation_error(self, generated, tmp_path):
        db, _ = generated
        assert run(["kmeans", "--db", db, "--k", 100000, "--out", tmp_path / "cb"]) == 2

    def test_bad_target_gamma(self, generated, tmp_path):
        db, _ = generated
        cb_dir = tmp_path / "cb"
        run(["kmeans", "--db", db, "--k", 4, "--out", cb_dir])
        assert run(["balance", "--db", db, "--codebook", cb_dir,
                    "--target-gamma", 0.5, "--out", tmp_path / "bal"]) == 2

    def test_codebook_without_penalties_is_validation_error(self, generated, tmp_path):
        db, _ = generated
        cb_dir = tmp_path / "cb"
        assert run(["kmeans", "--db", db, "--k", 4, "--out", cb_dir]) == 0
        (cb_dir / "penalties.txt").unlink()
        assert run(["build", "--db", db, "--codebook", cb_dir,
                    "--out", tmp_path / "idx"]) == 2

    def test_codebook_without_cells_is_validation_error(self, generated, tmp_path):
        db, _ = generated
        write_codebook_without_cells(tmp_path / "cb")
        assert run(["balance", "--db", db, "--codebook", tmp_path / "cb",
                    "--out", tmp_path / "bal"]) == 2

    @pytest.mark.parametrize("command, flags, message", [
        ("balance", ["--codebook", "missing", "--alpha", "inf"], "alpha must be positive and finite"),
        ("tradeoff", ["--queries", "missing.fvecs", "--k", "8,8"], "each k must appear once"),
        ("histogram", ["--queries", "missing.fvecs", "--k", 8, "--ma", "2,2"],
         "each ma must appear once"),
    ], ids=["infinite-alpha", "repeated-k", "repeated-ma"])
    def test_bad_settings_exit_two_before_any_file_is_read(self, tmp_path, capsys, command,
                                                           flags, message):
        # The database does not exist: a run that read it would fail on it first.
        assert run([command, "--db", tmp_path / "missing.fvecs", *flags,
                    "--out", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_list_exits_two(self, generated, tmp_path, capsys):
        db, _ = generated
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--db", str(db), "--k", "3,x", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "expected comma-separated ints: '3,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--queries", "q.fvecs"), ("--ma", "1"), ("--route", "plain"),
    ])
    def test_convergence_takes_no_probe_flags(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--db", str(tmp_path / "db.fvecs"), "--k", "8",
                  "--out", str(tmp_path / "o"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_float_list_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path / "g.fvecs"), "--n", "5", "--dim", "2",
                  "--modes", "2", "--weights", "1,x"])
        assert exc.value.code == 2
        assert "expected comma-separated floats: '1,x'" in capsys.readouterr().err

    def test_balance_alpha_that_overflows_exits_two(self, generated, tmp_path, capsys):
        db, _ = generated
        assert run(["kmeans", "--db", db, "--k", 4, "--out", tmp_path / "cb"]) == 0
        capsys.readouterr()
        assert run(["balance", "--db", db, "--codebook", tmp_path / "cb",
                    "--alpha", 1e308, "--out", tmp_path / "bal"]) == 2
        assert "alpha=1e+308 overflows the penalties at iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "bal").exists()

    @pytest.mark.parametrize("command", ["kmeans", "build", "search", "eval", "tradeoff"])
    def test_out_naming_an_existing_file_exits_two(self, generated, tmp_path, capsys, command):
        db, queries = generated
        assert run(["kmeans", "--db", db, "--k", 4, "--out", tmp_path / "cb"]) == 0
        assert run(["build", "--db", db, "--codebook", tmp_path / "cb",
                    "--out", tmp_path / "idx"]) == 0
        afile = tmp_path / "afile"
        afile.write_text("")
        index_flags = ["--index", tmp_path / "idx", "--db", db, "--queries", queries]
        args = {
            "kmeans": ["--db", db, "--k", 4, "--out", afile],
            "build": ["--db", db, "--codebook", tmp_path / "cb", "--out", afile],
            "search": [*index_flags, "--out", afile / "x.csv"],
            "eval": [*index_flags, "--out", afile],
            "tradeoff": ["--db", db, "--queries", queries, "--k", 4, "--iters", 0,
                         "--out", afile],
        }[command]
        capsys.readouterr()
        assert run([command, *args]) == 2
        err = capsys.readouterr().err
        named = afile / "x.csv" if command == "search" else afile
        assert err.startswith("error: ") and str(named) in err and ".tmp" not in err
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", ["search", "gen"])
    def test_out_in_a_missing_directory_exits_two(self, generated, tmp_path, capsys, command):
        db, queries = generated
        if command == "search":
            assert run(["kmeans", "--db", db, "--k", 4, "--out", tmp_path / "cb"]) == 0
            assert run(["build", "--db", db, "--codebook", tmp_path / "cb",
                        "--out", tmp_path / "idx"]) == 0
        args, out = {
            "search": (["--index", tmp_path / "idx", "--db", db, "--queries", queries], "x.csv"),
            "gen": (["--n", 5, "--dim", 2], "db.fvecs"),
        }[command]
        out = tmp_path / "nodir" / out
        capsys.readouterr()
        assert run([command, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_os_error_is_runtime_error(self, tmp_path, capsys, full_disk):
        full_disk(1)
        assert run(["gen", "--out", tmp_path / "g.fvecs", "--n", 5, "--dim", 2]) == 1
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--nope"])
        assert exc.value.code == 2
