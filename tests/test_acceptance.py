"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The shared fixture is a
20000-point, 16-d, 5-mode Gaussian mixture (seed 42, spread 0.1) clustered
at k=32 and balanced for 500 iterations at alpha=0.01, plus 1000 held-out
queries drawn from the same mixture.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from ivfbalance import (
    BalanceConfig,
    Centroids,
    Codebook,
    SearchParams,
    StopRule,
    VectorSet,
    assign_balanced,
    assign_plain,
    balance,
    brute_force_nn,
    build,
    evaluate,
    gen_gaussian_mixture,
    imbalance_factor,
    list_variance,
    lloyd_full,
    load_fvecs,
    load_index,
    save_fvecs,
    save_index,
    search,
)
from ivfbalance.distances import sqdist_to_centroids
from ivfbalance.index import route_cells_batch
from ivfbalance.metrics import scan_costs

from oracles import penalized_distance_sq

SEED = 42
N = 20_000
DIM = 16
MODES = 5
WEIGHTS = [0.5, 0.2, 0.15, 0.1, 0.05]
SPREAD = 0.1
K = 32
ALPHA = 0.01
FULL_ITERS = 500
PRESETS = (0, 8, 16, 32, 64)


def scanned_counts(index, queries: VectorSet, ma: int) -> np.ndarray:
    probed = route_cells_batch(queries.data, index.codebook, ma)
    return scan_costs(index, probed).scanned


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@dataclass
class MixtureFixture:
    db: VectorSet
    queries: VectorSet
    base: Codebook
    trace: object
    _indexes: dict = field(default_factory=dict)

    def codebook_at(self, r: int) -> Codebook:
        return Codebook(self.base.centroids, self.trace.records[r].penalties.copy(), r)

    def index_at(self, r: int):
        if r not in self._indexes:
            self._indexes[r] = build(self.db, self.codebook_at(r))
        return self._indexes[r]

    @property
    def gammas(self) -> np.ndarray:
        return self.trace.gammas


@pytest.fixture(scope="session")
def fx() -> MixtureFixture:
    db = gen_gaussian_mixture(SEED, N, DIM, MODES, WEIGHTS, SPREAD)
    queries = gen_gaussian_mixture(
        4242, 1000, DIM, MODES, WEIGHTS, SPREAD, centers_from_seed=SEED
    )
    centroids = lloyd_full(db, K, seed=SEED).centroids
    base = Codebook.fresh(centroids)
    config = BalanceConfig(stop=StopRule.fixed_iters(FULL_ITERS), alpha=ALPHA)
    _, trace = balance(db, base, config)
    return MixtureFixture(db=db, queries=queries, base=base, trace=trace)


@pytest.fixture(scope="session")
def truth(fx):
    return brute_force_nn(fx.db, fx.queries, 1)


def test_criterion_01_uniform_penalty_invariance():
    rng = np.random.default_rng(101)
    worst = 0
    for _ in range(50):
        data = VectorSet.from_array(rng.standard_normal((2000, 16)))
        cents = Centroids(
            data.data[rng.choice(2000, size=32, replace=False)].copy()
        )
        beta = float(rng.uniform(0.0, 10.0))
        uniform = Codebook(cents, np.full(32, beta))
        plain_d2 = sqdist_to_centroids(data.data, cents.points)
        balanced = assign_balanced(plain_d2, uniform.penalties)
        plain = assign_plain(data, cents)
        worst = max(worst, int((balanced.cell_of != plain.cell_of).sum()))
    report(
        1,
        "uniform-penalty invariance",
        worst == 0,
        f"50 fixtures, max mismatched assignments = {worst} (need 0)",
    )


def test_criterion_02_embedding_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    total = 0
    for batch in range(10):
        d = int(rng.integers(2, 33))
        xs = rng.standard_normal((10_000, d))
        cs = rng.standard_normal((10_000, d))
        bs = rng.uniform(0.0, 5.0, 10_000)
        lifted_x = np.hstack([xs, np.zeros((10_000, 1))])
        lifted_c = np.hstack([cs, np.sqrt(bs)[:, None]])
        augmented = ((lifted_x - lifted_c) ** 2).sum(axis=1)
        for i in range(10_000):
            direct = penalized_distance_sq(xs[i], cs[i], bs[i])
            rel = abs(direct - augmented[i]) / augmented[i]
            worst = max(worst, rel)
            total += 1
    report(
        2,
        "embedding equivalence",
        worst <= 1e-9,
        f"{total} triples, worst relative error {worst:.3e} (need <= 1e-9)",
    )


def test_criterion_03_metric_identities():
    ok = (
        imbalance_factor([3, 1]) == pytest.approx(1.25, abs=1e-12)
        and list_variance([3, 1]) == pytest.approx(1.0, abs=1e-12)
        and imbalance_factor([250, 250, 250, 250]) == pytest.approx(1.0, abs=1e-12)
        and list_variance([10, 10]) == pytest.approx(0.0, abs=1e-12)
        and imbalance_factor([4, 0, 0, 0]) == pytest.approx(4.0, abs=1e-12)
    )
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 10_000 and ok:
        k = int(rng.integers(1, 65))
        if checked % 10 == 0:
            counts = np.full(k, int(rng.integers(1, 1000)))
        else:
            counts = rng.integers(0, 1000, size=k)
        if counts.sum() == 0:
            continue
        gamma = imbalance_factor(counts)
        var = list_variance(counts)
        equal = len(np.unique(counts)) == 1
        ok = (
            1.0 - 1e-12 <= gamma <= k + 1e-12
            and (abs(gamma - 1.0) <= 1e-12) == equal
            and (var <= 1e-12) == equal
        )
        checked += 1
    report(
        3,
        "metric identities",
        ok,
        f"worked examples plus {checked} random count vectors (tolerance 1e-12)",
    )


def test_criterion_04_expected_cost_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        data = VectorSet.from_array(rng.standard_normal((5000, 16)))
        cents = Centroids(data.data[rng.choice(5000, size=50, replace=False)].copy())
        codebook = Codebook(cents, rng.uniform(0.0, 2.0, 50))
        index = build(data, codebook)
        scanned = scanned_counts(index, data, ma=1)
        gamma = imbalance_factor(index.list_sizes())
        expected = gamma * data.count / 50
        rel = abs(scanned.mean() - expected) / expected
        worst = max(worst, rel)
    report(
        4,
        "expected-cost identity",
        worst <= 1e-9,
        f"20 indexes, worst relative gap |mean scanned - gamma*N/k| = {worst:.3e} (need <= 1e-9)",
    )


def test_criterion_05_balancing_convergence(fx):
    g = fx.gammas
    preset_g = [g[r] for r in PRESETS]
    non_increasing = all(preset_g[i] >= preset_g[i + 1] for i in range(len(preset_g) - 1))
    ok = g[0] > 1.2 and g[FULL_ITERS] <= 1.05 and non_increasing
    report(
        5,
        "balancing convergence",
        ok,
        f"gamma0={g[0]:.4f} (>1.2), gamma500={g[FULL_ITERS]:.6f} (<=1.05), "
        f"presets {[f'{x:.4f}' for x in preset_g]} non-increasing={non_increasing}",
    )


def test_criterion_06_closed_form_penalties(fx):
    n_opt = N / K
    worst = 0.0
    excluded = set()
    for l in range(0, 65):
        counts = np.array(
            [fx.trace.records[j].counts for j in range(l)], dtype=np.float64
        )
        if l:
            clamped = np.flatnonzero((counts == 0).any(axis=0))
            excluded.update(int(c) for c in clamped)
            log_b = ALPHA * np.log(np.maximum(counts, 1.0) / n_opt).sum(axis=0)
        else:
            log_b = np.zeros(K)
        stored = fx.trace.records[l].penalties
        floor_cells = np.flatnonzero(stored <= 1e-9)
        excluded.update(int(c) for c in floor_cells)
        keep = np.setdiff1d(np.arange(K), np.array(sorted(excluded), dtype=int))
        rel = np.abs(np.exp(log_b[keep]) - stored[keep]) / np.abs(stored[keep])
        worst = max(worst, float(rel.max()))
    report(
        6,
        "closed-form penalty check",
        worst <= 1e-6,
        f"l<=64, worst relative error {worst:.3e} (need <= 1e-6), "
        f"{len(excluded)} clamped cells excluded",
    )


def test_criterion_07_variance_reduction(fx):
    scan0 = scanned_counts(fx.index_at(0), fx.queries, ma=1)
    scan64 = scanned_counts(fx.index_at(64), fx.queries, ma=1)
    scan_full = scanned_counts(fx.index_at(FULL_ITERS), fx.queries, ma=1)
    var0 = scan0.var(ddof=1)
    var64 = scan64.var(ddof=1)
    cv = scan_full.std(ddof=1) / scan_full.mean()
    ok = var64 < var0 and cv <= 0.1
    report(
        7,
        "variance reduction",
        ok,
        f"scan variance {var0:.0f} -> {var64:.0f} at 64 iters (need strict drop), "
        f"CV after {FULL_ITERS} iters = {cv:.4f} (need <= 0.1)",
    )


def test_criterion_08_selectivity_recall_direction(fx, truth):
    params = SearchParams(ma=4)
    rep0 = evaluate(fx.index_at(0), fx.queries, params, truth)
    rep64 = evaluate(fx.index_at(64), fx.queries, params, truth)
    drop = rep0.recall_at_1 - rep64.recall_at_1
    ok = rep64.selectivity < rep0.selectivity and drop <= 0.15
    report(
        8,
        "selectivity/recall direction",
        ok,
        f"selectivity {rep0.selectivity:.4f} -> {rep64.selectivity:.4f} (need drop), "
        f"recall@1 {rep0.recall_at_1:.4f} -> {rep64.recall_at_1:.4f} "
        f"(drop {drop:.4f} <= 0.15)",
    )


def test_criterion_09_oracle_exhaustiveness():
    rng = np.random.default_rng(909)
    mismatches = 0
    queries_checked = 0
    for _ in range(20):
        data = VectorSet.from_array(rng.standard_normal((1000, 8)))
        cents = Centroids(data.data[rng.choice(1000, size=16, replace=False)].copy())
        codebook = Codebook(cents, rng.uniform(0.0, 3.0, 16))
        index = build(data, codebook)
        queries = VectorSet.from_array(rng.standard_normal((25, 8)))
        oracle = brute_force_nn(data, queries, 1000)
        params = SearchParams(ma=16, r_results=1000)
        for q in range(queries.count):
            result = search(index, queries.data[q], params)
            if not (
                np.array_equal(result.ids, oracle.ids[q])
                and np.array_equal(result.dists, oracle.dists[q])
            ):
                mismatches += 1
            queries_checked += 1
    report(
        9,
        "oracle exhaustiveness",
        mismatches == 0,
        f"20 fixtures / {queries_checked} full rankings, "
        f"{mismatches} differ from brute force (need 0; ids and order exact)",
    )


def test_criterion_10_stopping_rules(fx):
    final_g, trace_g = balance(
        fx.db,
        fx.base,
        BalanceConfig(stop=StopRule.target_gamma(1.02), alpha=ALPHA),
    )
    reported = trace_g.records[-1].gamma
    gamma_ok = reported <= 1.02

    fixed_ok = True
    for r in (0, 8):
        final_f, trace_f = balance(
            fx.db, fx.base, BalanceConfig(stop=StopRule.fixed_iters(r), alpha=ALPHA)
        )
        fixed_ok = fixed_ok and final_f.iteration == r and len(trace_f) == r + 1
    report(
        10,
        "stopping rules",
        gamma_ok and fixed_ok,
        f"target_gamma(1.02) halted at iter {trace_g.records[-1].iteration} with "
        f"gamma={reported:.4f} (<=1.02); fixed_iters trace lengths exact={fixed_ok}",
    )


def test_criterion_11_persistence_roundtrips(fx, truth, tmp_path):
    # fvecs round-trip, bit-exact
    sample = VectorSet.from_array(fx.db.data[:500].copy())
    fv = tmp_path / "rt.fvecs"
    save_fvecs(sample, fv)
    blob = fv.read_bytes()
    reloaded_set = load_fvecs(fv)
    save_fvecs(reloaded_set, fv)
    fvecs_ok = fv.read_bytes() == blob and np.array_equal(
        reloaded_set.data.view(np.uint32), sample.data.view(np.uint32)
    )

    # index round-trip, bit-exact both directions
    index = fx.index_at(64)
    first = tmp_path / "idx_a"
    second = tmp_path / "idx_b"
    save_index(index, first)
    reloaded = load_index(first, fx.db)
    save_index(reloaded, second)
    files_ok = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("centroids.fvecs", "penalties.txt", "lists.bin", "meta.txt")
    )

    params = SearchParams(ma=4)
    rep_a = evaluate(index, fx.queries, params, truth)
    rep_b = evaluate(reloaded, fx.queries, params, truth)
    eval_ok = (
        rep_a.gamma == rep_b.gamma
        and rep_a.variance == rep_b.variance
        and rep_a.selectivity == rep_b.selectivity
        and rep_a.recall_at_1 == rep_b.recall_at_1
        and rep_a.scan_histogram == rep_b.scan_histogram
    )
    report(
        11,
        "persistence round-trips",
        fvecs_ok and files_ok and eval_ok,
        f"fvecs bit-exact={fvecs_ok}, index files bit-exact={files_ok}, "
        f"evaluate identical={eval_ok}",
    )
