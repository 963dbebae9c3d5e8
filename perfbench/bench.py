"""Workloads, timed phases, correctness gate and output digests.

One call of :func:`run_workload` runs one workload in this process:

1. setup, repeated ``setup_reps`` times: generate the database and the
   queries, write both as fvecs and read them back (``setup_s``);
2. build: k-means with fixed work, balancing with a fixed iteration count,
   ``build``, ``save_index`` and ``load_index`` (``build_s``);
3. search: a closed loop with one client calling ``index.search`` once per
   query on the loaded index, cycling through the query set (``search_*``),
   in rounds that alternate with slices of exact ground truth by
   ``metrics.brute_force_nn`` on a query subset;
4. eval: ``evaluate`` and ``recall_at_r`` against that ground truth
   (``eval_s`` with the ground truth);
5. the correctness gate, untimed, on the outputs of 2-4;
6. untraced only: the quality guards, untimed, from a pass over a fixed
   reference input (see :func:`reference_pass`).

Every file goes to a fresh temporary directory under ``tmp_root`` that is
removed before the call returns. Nothing is cached between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ivfbalance.balancer as balancer_mod
import ivfbalance.dataset as dataset_mod
import ivfbalance.distances as distances_mod
import ivfbalance.index as index_mod
import ivfbalance.kmeans as kmeans_mod
import ivfbalance.metrics as metrics_mod
from spans import NullTracer, Tracer, layer_metrics

MODES = 5
WEIGHTS = (0.5, 0.2, 0.15, 0.1, 0.05)
SPREAD = 0.1
R_RESULTS = 10
# The mixture layout (mode centers) is part of the workload, as in the README
# example; --seed draws the points, the queries and the k-means start. A
# layout that moved with the seed would move recall and the scan tail more
# than any change to the code under test.
LAYOUT_SEED = 42
QUERY_SEED_OFFSET = 1_000_003
# Search and ground truth alternate in this many rounds per untraced run.
READ_ROUNDS = 10
# The quality guards (gamma, the recalls, scan_p99) come from this workload
# drawn at this seed, whatever --seed is, so they repeat exactly and only a
# change to what the code computes moves them. Its k-means cells are skewed
# (gamma0 about 1.16 at seed 0), so an index left unbalanced shows in gamma.
REFERENCE = "small"
REFERENCE_SEED = 0

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One benchmark input: data shape, training schedule and query side."""

    n: int
    dim: int
    k: int
    n_queries: int
    lloyd_iters: int
    balance_iters: int
    ma: int
    gt_queries: int
    exact_queries: int
    route_sample: int
    setup_reps: int
    alpha: float = balancer_mod.DEFAULT_ALPHA


WORKLOADS = {
    # Offline write path at the medium shape: k-means and balancing dominate.
    "build": Workload(
        n=100_000, dim=32, k=256, n_queries=1000,
        lloyd_iters=8, balance_iters=24, ma=8, gt_queries=300,
        exact_queries=8, route_sample=500, setup_reps=7,
        # At the default rate some seeds keep a few cells a fifth larger
        # than the rest after 24 iterations, and the queries that probe them
        # set the latency tail; at this rate the seeds tried end near-even.
        alpha=0.03,
    ),
    # Online read path at the medium shape: exact scan and re-rank dominate.
    "query": Workload(
        n=100_000, dim=32, k=256, n_queries=2000,
        lloyd_iters=2, balance_iters=16, ma=8, gt_queries=200,
        exact_queries=8, route_sample=500, setup_reps=7,
        # A short schedule; the rate as on build.
        alpha=0.03,
    ),
    # Acceptance-suite fixture: cache-resident, skewed cells, per-call overhead.
    "small": Workload(
        n=20_000, dim=16, k=32, n_queries=1000,
        lloyd_iters=20, balance_iters=100, ma=1, gt_queries=500,
        exact_queries=32, route_sample=1000, setup_reps=25,
    ),
}


@dataclass
class Outcome:
    """Operations and checks attempted, and the failures among them."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        """Record the exception being handled as a failure."""
        self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _make_inputs(w: Workload, seed: int, tmp: Path, tracer):
    with tracer.span("dataset.gen"):
        db = dataset_mod.gen_gaussian_mixture(
            seed, w.n, w.dim, MODES, WEIGHTS, SPREAD, centers_from_seed=LAYOUT_SEED)
        queries = dataset_mod.gen_gaussian_mixture(
            seed + QUERY_SEED_OFFSET, w.n_queries, w.dim, MODES, WEIGHTS, SPREAD,
            centers_from_seed=LAYOUT_SEED)
    t_gen = clock()
    with tracer.span("dataset.fvecs_io"):
        dataset_mod.save_fvecs(db, tmp / "db.fvecs")
        dataset_mod.save_fvecs(queries, tmp / "queries.fvecs")
        db_read = dataset_mod.load_fvecs(tmp / "db.fvecs")
        queries_read = dataset_mod.load_fvecs(tmp / "queries.fvecs")
    return db, queries, db_read, queries_read, t_gen


def setup(w: Workload, seed: int, tmp_root: Path, tracer, outcome: Outcome) -> dict:
    """Generate and round-trip the inputs ``setup_reps`` times; keep the last."""
    total, gen, io = [], [], []
    for _ in range(w.setup_reps):
        tracer.begin_run("setup")
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            t0 = clock()
            db, queries, db_read, queries_read, t_gen = _make_inputs(
                w, seed, Path(tmp), tracer)
            t1 = clock()
            nbytes = dir_bytes(Path(tmp))
        total.append(t1 - t0)
        gen.append(t_gen - t0)
        io.append(t1 - t_gen)
        outcome.check(
            np.array_equal(db.data, db_read.data)
            and np.array_equal(queries.data, queries_read.data),
            "fvecs round trip changed the vectors",
        )
    return {
        "db": db_read, "queries": queries_read, "bytes": nbytes,
        "setup_s": statistics.median(total), "setup_s_reps": total,
        "gen_s": statistics.median(gen), "io_s": statistics.median(io),
    }


@dataclass
class Built:
    lloyd: kmeans_mod.LloydResult
    codebook: balancer_mod.Codebook
    trace: balancer_mod.BalanceTrace
    index: index_mod.InvertedFile
    loaded: index_mod.InvertedFile
    index_bytes: int
    seconds: float


def build_once(w: Workload, seed: int, db, tmp_root: Path, tracer) -> Built:
    """k-means, balance, build, save and load: the timed body of ``build_s``."""
    tracer.begin_run("build")
    config = balancer_mod.BalanceConfig(
        stop=balancer_mod.StopRule.fixed_iters(w.balance_iters), alpha=w.alpha)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        t0 = clock()
        with tracer.span("kmeans.lloyd_full"):
            lloyd = kmeans_mod.lloyd_full(
                db, w.k, seed, max_iters=w.lloyd_iters, rel_tol=0.0,
                init_method=kmeans_mod.INIT_KMEANS_PP)
        tracer.start_balance()
        with tracer.span("balancer.balance"):
            codebook, trace = balancer_mod.balance(
                db, balancer_mod.Codebook.fresh(lloyd.centroids), config)
        with tracer.span("index.build"):
            index = index_mod.build(db, codebook)
        with tracer.span("index.save"):
            index_mod.save_index(index, Path(tmp) / "index")
        with tracer.span("index.load"):
            loaded = index_mod.load_index(Path(tmp) / "index", db)
        seconds = clock() - t0
        index_bytes = dir_bytes(Path(tmp) / "index")
    return Built(lloyd, codebook, trace, index, loaded, index_bytes, seconds)


class SearchLoop:
    """Closed loop, one client: the next query is sent when the last returns.

    Cycles through the query set across calls of :meth:`run`, keeping every
    latency, the results of the first pass over the set, and per call (one
    round) its first and end query and its length in seconds.
    """

    def __init__(self, index, queries, params) -> None:
        self.index, self.queries, self.params = index, queries.data, params
        self.first_pass: list = []
        self.latencies: list[float] = []
        self.rounds: list[tuple[int, int, float]] = []
        self.sent = 0

    def run(self, seconds: float, tracer, outcome: Outcome) -> None:
        """Send queries for ``seconds``, and until the first pass is complete."""
        search = index_mod.search
        index, qdata, params = self.index, self.queries, self.params
        nq = len(qdata)
        lat = self.latencies
        i = self.sent
        start = clock()
        deadline = start + seconds
        while True:
            tracer.begin_run("search")
            t0 = clock()
            try:
                with tracer.span("index.search"):
                    res = search(index, qdata[i % nq], params)
            except Exception:
                outcome.fail(f"search of query {i % nq}")
                res = None
            t1 = clock()
            lat.append(t1 - t0)
            if i < nq:
                self.first_pass.append(res)
            i += 1
            if i >= nq and t1 >= deadline:
                break
        self.rounds.append((self.sent, i, clock() - start))
        outcome.attempted += i - self.sent
        self.sent = i

    def per_query_ms(self) -> np.ndarray:
        """Each query's median latency in ms over the times it was sent.

        Query ``q`` is the one sent at positions ``q, q + nq, q + 2 nq, ...``
        of the loop, so its repeats are spread over the whole run.
        """
        lat = np.array(self.latencies) * 1e3
        nq = len(self.queries)
        return np.array([np.median(lat[q::nq]) for q in range(min(nq, len(lat)))])

    def round_stats(self) -> list[dict[str, float]]:
        """Per round: queries, seconds, queries per second and latency in ms."""
        stats = []
        for lo, hi, secs in self.rounds:
            lat = np.array(self.latencies[lo:hi]) * 1e3
            stats.append({"queries": hi - lo, "seconds": secs, "qps": (hi - lo) / secs,
                          "p50_ms": float(np.percentile(lat, 50)),
                          "p95_ms": float(np.percentile(lat, 95)),
                          "p99_ms": float(np.percentile(lat, 99))})
        return stats


@dataclass
class Evaluated:
    truth: metrics_mod.GroundTruth
    report: metrics_mod.EvalReport
    recall_at_r: float
    truth_s: list[float]     # brute_force_nn seconds per slice of queries
    report_s: float          # evaluate + recall_at_r seconds

    @property
    def seconds(self) -> float:
        return sum(self.truth_s) + self.report_s


@dataclass
class Pass:
    built: Built
    loop: SearchLoop
    ev: Evaluated


def pipeline_pass(w: Workload, seed: int, inputs: dict, tmp_root: Path,
                  seconds: float, rounds: int, tracer, outcome: Outcome) -> Pass:
    """Build, then search and compute ground truth in interleaved rounds.

    Each round runs the search loop for ``seconds / rounds``, then ground
    truth for the next slice of the query subset. The speed of a shared
    machine switches between levels every few seconds; spreading search
    and ground truth over the whole run, and averaging over rounds rather
    than taking a median that jumps between levels, steadies them.
    Evaluation runs last.
    """
    db, queries = inputs["db"], inputs["queries"]
    built = build_once(w, seed, db, tmp_root, tracer)
    index = built.loaded
    params = index_mod.SearchParams(ma=w.ma, r_results=R_RESULTS)
    loop = SearchLoop(index, queries, params)
    truths, truth_s = [], []
    sub = dataset_mod.VectorSet(queries.data[:w.gt_queries])
    for chunk in np.array_split(sub.data, rounds):
        loop.run(seconds / rounds, tracer, outcome)
        tracer.begin_run("eval")
        t0 = clock()
        with tracer.span("metrics.brute_force_nn"):
            truths.append(metrics_mod.brute_force_nn(
                db, dataset_mod.VectorSet(chunk), R_RESULTS))
        truth_s.append(clock() - t0)

    tracer.begin_run("eval")
    t0 = clock()
    truth = metrics_mod.GroundTruth(np.concatenate([t.ids for t in truths]),
                                    np.concatenate([t.dists for t in truths]))
    with tracer.span("metrics.evaluate"):
        report = metrics_mod.evaluate(index, sub, params, truth)
    with tracer.span("metrics.recall_at_r"):
        recall = metrics_mod.recall_at_r(index, sub, params, truth, R_RESULTS)
    report_s = clock() - t0

    outcome.attempted += 5 + len(truths) + 2
    return Pass(built, loop, Evaluated(truth, report, recall, truth_s, report_s))


def output_digests(p: Pass) -> dict[str, str]:
    results = [r for r in p.loop.first_pass if r is not None]
    return {
        "centroids": sha256(p.built.codebook.centroids.points),
        "penalties": sha256(p.built.codebook.penalties),
        "posting_lists": sha256(*p.built.loaded.lists),
        "search_top_r_ids": sha256(*(r.ids for r in results)),
        "ground_truth_ids": sha256(p.ev.truth.ids),
        "ground_truth_dists": sha256(p.ev.truth.dists),
    }


def correctness_gate(w: Workload, p: Pass, queries, outcome: Outcome) -> None:
    """The README's exact invariants, checked against the code under test.

    (a) search at ma = k equals brute force, ids and distances, tie order
    included; (b) a stored point routed at ma = 1 lands in the cell whose
    list holds it; (c) save/load keeps the posting lists; (d) every
    returned hit lies in a probed cell, carries its exact distance and
    comes in ranking order.
    """
    built, truth = p.built, p.ev.truth
    index = built.loaded
    exhaustive = index_mod.SearchParams(ma=index.k, r_results=R_RESULTS)
    for q in range(min(w.exact_queries, truth.num_queries)):
        try:
            res = index_mod.search(index, queries.data[q], exhaustive)
        except Exception:
            outcome.attempted += 1
            outcome.fail(f"(a) exhaustive search of query {q}")
            continue
        outcome.check(
            np.array_equal(res.ids, truth.ids[q])
            and np.array_equal(res.dists, truth.dists[q]),
            f"(a) query {q}: search at ma=k differs from brute force",
        )

    cell_of = index.cell_of_points()
    routed = index_mod.route_cells_batch(index.source.data, index.codebook, 1)[:, 0]
    bad = int(np.count_nonzero(routed != cell_of))
    outcome.check(bad == 0, f"(b) {bad} stored points route away from their cell")
    step = max(1, index.count // w.route_sample)
    for i in range(0, index.count, step):
        cell = index_mod.select_cells(index.source.data[i], index.codebook, 1)[0]
        outcome.check(cell == cell_of[i], f"(b) point {i} routes to cell {cell}, "
                                          f"stored in {cell_of[i]}")

    same = len(built.index.lists) == len(index.lists) and all(
        np.array_equal(a, b) for a, b in zip(built.index.lists, index.lists))
    outcome.check(same, "(c) load_index(save_index(idx)) changed the posting lists")

    data = index.source.data
    for q, res in enumerate(p.loop.first_pass):
        if res is None:
            continue
        # sqdist_exact is exact per pair, so a hit's distance must match bitwise.
        true_d = distances_mod.sqdist_exact(queries.data[q][None, :], data[res.ids])[0]
        outcome.check(
            bool(np.isin(cell_of[res.ids], res.probed_cells).all())
            and len(res.ids) == min(R_RESULTS, res.scanned)
            and np.array_equal(true_d, res.dists)
            and bool(np.all(np.diff(res.dists) >= 0)),
            f"(d) query {q}: a hit lies outside the probed cells, has the wrong "
            "distance or is out of order",
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scanned_counts(p: Pass) -> np.ndarray:
    return np.array([r.scanned for r in p.loop.first_pass if r is not None])


def reference_pass(w: Workload, tmp_root: Path, outcome: Outcome) -> tuple[Workload, dict, Pass]:
    """Untimed pass over the reference input, searched at the workload's ``ma``."""
    ref = dataclasses.replace(WORKLOADS[REFERENCE], ma=w.ma, setup_reps=1)
    inputs = setup(ref, REFERENCE_SEED, tmp_root, NullTracer(), outcome)
    p = pipeline_pass(ref, REFERENCE_SEED, inputs, tmp_root, 0.0, 1, NullTracer(), outcome)
    return ref, inputs, p


def quality_guards(ref: Pass) -> dict[str, float]:
    return {
        "gamma": metrics_mod.imbalance_factor(ref.built.loaded.list_sizes()),
        "recall_at_1": ref.ev.report.recall_at_1,
        "recall_at_10": ref.ev.recall_at_r,
        "scan_p99": float(np.percentile(scanned_counts(ref), 99)),
    }


def end_to_end(p: Pass, inputs: dict) -> dict[str, float]:
    """The timings and memory of the ``--seed`` run, before the reference pass."""
    rounds = p.loop.round_stats()
    return {
        "setup_s": inputs["setup_s"],
        "build_s": p.built.seconds,
        "search_qps": sum(r["queries"] for r in rounds) / sum(r["seconds"] for r in rounds),
        "search_p50_ms": statistics.fmean(r["p50_ms"] for r in rounds),
        # The tail is gated at p95 over queries of each query's median
        # latency: on a shared machine, bursts of stalls of a few ms lift the
        # p95 and p99 of whole rounds, and of whole runs, while a query's
        # repeats stay at its own cost. Each round's p95 and p99 is in the record.
        "search_p95_ms": float(np.percentile(p.loop.per_query_ms(), 95)),
        "eval_s": p.ev.seconds,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: Tracer, inputs: dict, untraced: Pass, traced: Pass) -> dict[str, float]:
    spans = layer_metrics(tracer)
    built = traced.built
    lloyd_iters = built.lloyd.iterations
    balance_iters = len(built.trace) - 1
    scanned = scanned_counts(traced)
    sizes = built.loaded.list_sizes()
    glue = traced.built.seconds - sum(spans[f"{n}.s"] for n in (
        "kmeans.lloyd", "balancer.balance", "index.build", "index.save", "index.load"))
    out = {
        "dataset.gen_s": inputs["gen_s"],
        "dataset.fvecs_io_s": inputs["io_s"],
        "dataset.bytes": inputs["bytes"],
        **{k: v for k, v in spans.items() if k != "kmeans.sqdist_in_iters"},
        "kmeans.lloyd.iterations": lloyd_iters,
        "kmeans.lloyd.iter_s": (spans["kmeans.lloyd.s"] - spans["kmeans.init_centroids.s"])
        / (lloyd_iters + 1),
        "kmeans.sqdist_calls_per_iter": spans["kmeans.sqdist_in_iters"] / (lloyd_iters + 1),
        "balancer.balance.iterations": balance_iters,
        "balancer.balance.iter_s": spans["balancer.balance.s"] / (balance_iters + 1),
        "balancer.gamma0": float(built.trace.gammas[0]),
        "balancer.gamma_final": float(built.trace.gammas[-1]),
        "index.bytes": built.index_bytes,
        "index.scanned.mean": float(scanned.mean()),
        "index.scanned.p50": float(np.percentile(scanned, 50)),
        "index.scanned.p99": float(np.percentile(scanned, 99)),
        "index.scanned.max": float(scanned.max()),
        "index.list_size.min": float(sizes.min()),
        "index.list_size.max": float(sizes.max()),
        "metrics.brute_force_nn.pairs": traced.ev.truth.num_queries * built.loaded.count,
        "trace.overhead.build_s": traced.built.seconds - untraced.built.seconds,
        "trace.overhead.search_ms": (np.mean(traced.loop.latencies)
                                     - np.mean(untraced.loop.latencies)) * 1e3,
        "trace.overhead.eval_s": traced.ev.seconds - untraced.ev.seconds,
        "trace.build_unaccounted_frac": glue / traced.built.seconds,
    }
    return {k: float(v) for k, v in out.items()}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tmp_root: Path) -> dict:
    """Run one workload; return metrics, digests, samples and failures.

    Untraced, the metrics are the end-to-end ones, the quality guards
    among them taken from :func:`reference_pass`. Traced, an untraced
    pass and then a traced pass run back to back, each with
    one pass over the queries; the metrics are the per-layer ones,
    including the difference between the two passes.
    """
    outcome = Outcome()
    tracer = Tracer() if trace else NullTracer()
    inputs = setup(w, seed, tmp_root, tracer, outcome)
    extra = {}
    if not trace:
        final = pipeline_pass(w, seed, inputs, tmp_root, seconds, READ_ROUNDS,
                              tracer, outcome)
        # Peak RSS is a high-water mark: read it before the reference pass.
        metrics = end_to_end(final, inputs)
        ref_w, ref_inputs, ref = reference_pass(w, tmp_root, outcome)
        correctness_gate(ref_w, ref, ref_inputs["queries"], outcome)
        metrics.update(quality_guards(ref))
        extra = {"reference_digests": output_digests(ref)}
    else:
        untraced = pipeline_pass(w, seed, inputs, tmp_root, 0.0, 1, NullTracer(), outcome)
        with tracer.patched():
            final = pipeline_pass(w, seed, inputs, tmp_root, 0.0, 1, tracer, outcome)
        metrics = per_layer(tracer, inputs, untraced, final)
        outcome.check(output_digests(untraced) == output_digests(final),
                      "tracing changed the outputs")
        extra = {"tracer": tracer}
    correctness_gate(w, final, inputs["queries"], outcome)
    return {
        "metrics": metrics,
        "digests": output_digests(final),
        "samples": {
            "setup_s": inputs["setup_s_reps"],
            "build_s": final.built.seconds,
            "search_rounds": final.loop.round_stats(),
            "ground_truth_s": final.ev.truth_s,
            "gt_queries": int(final.ev.truth.num_queries),
        },
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        **extra,
    }
