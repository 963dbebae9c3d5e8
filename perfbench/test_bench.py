"""Smoke tests of the benchmark at a tiny shape; they finish in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import ivfbalance.index as index_mod  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
QUALITY_GUARDS = ("gamma", "recall_at_1", "recall_at_10", "scan_p99")

TINY = bench.Workload(
    n=2000, dim=8, k=8, n_queries=200,
    lloyd_iters=3, balance_iters=6, ma=2, gt_queries=40,
    exact_queries=5, route_sample=100, setup_reps=2, alpha=0.01,
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run ``run.main`` on the tiny shape; returns (exit code, result, record)."""
    monkeypatch.setitem(bench.WORKLOADS, "small", TINY)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "TMP_ROOT", tmp_path / "tmp")
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, run.BLAS_THREADS)

    def go(capsys, trace=0, seed=3):
        code = run.main(["--workload", "small", "--seed", str(seed),
                         "--seconds", "0.2", "--trace", str(trace)])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        stem = f"BENCH_small_seed{seed}" + ("_trace" if trace else "")
        record = json.loads((tmp_path / "results" / f"{stem}.json").read_text())
        return code, json.loads(last), record

    return go


def test_workload_names_agree():
    declared = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(bench.WORKLOADS)
    assert declared <= set(bench.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, trace, section):
    code, result, _ = tiny(capsys, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])


def test_same_seed_gives_identical_digests(tiny, capsys):
    _, _, first = tiny(capsys)
    _, _, second = tiny(capsys)
    _, _, traced = tiny(capsys, trace=1)
    assert first["digests"] == second["digests"] == traced["digests"]
    _, _, other = tiny(capsys, seed=4)
    assert other["digests"]["centroids"] != first["digests"]["centroids"]
    # The quality guards come from the fixed reference input, not from --seed.
    assert other["reference_digests"] == first["reference_digests"]
    for name in QUALITY_GUARDS:
        assert other["metrics"][name] == first["metrics"][name]


def test_an_unbalanced_index_breaks_the_gamma_bound(tiny, capsys, monkeypatch):
    _, balanced, _ = tiny(capsys)
    monkeypatch.setitem(bench.WORKLOADS, "small", dataclasses.replace(TINY, balance_iters=0))
    _, unbalanced, _ = tiny(capsys)
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["gamma"]
    gamma = balanced["metrics"]["gamma"]["value"]
    assert unbalanced["metrics"]["gamma"]["value"] > gamma * (1 + bound)


def test_a_stalled_call_does_not_lift_its_query_latency():
    loop = bench.SearchLoop(None, bench.dataset_mod.VectorSet(np.zeros((3, 2), np.float32)), None)
    loop.latencies = [1e-3, 2e-3, 3e-3, 0.1, 2e-3, 3e-3, 1e-3, 2e-3]
    assert loop.per_query_ms().tolist() == pytest.approx([1.0, 2.0, 3.0])


def test_traced_run_reports_the_duplicate_distortion_pass(tiny, capsys):
    _, result, _ = tiny(capsys, trace=1)
    assert result["metrics"]["kmeans.sqdist_calls_per_iter"]["value"] == 2.0


def test_permuted_top_r_is_caught(tiny, capsys, monkeypatch):
    search = index_mod.search

    def permuted(index, query, params):
        res = search(index, query, params)
        res.ids = res.ids[::-1].copy()
        return res

    monkeypatch.setattr(index_mod, "search", permuted)
    code, result, record = tiny(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any(f.startswith("(a)") for f in record["failures"])
    assert any(f.startswith("(d)") for f in record["failures"])


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
