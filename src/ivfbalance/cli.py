"""Command-line interface.

Subcommands mirror the pipeline: ``gen`` makes synthetic data, ``kmeans``
trains a codebook, ``balance`` equalizes its cell populations, ``build``
materializes the inverted file, ``search``/``eval`` query it, and
``convergence``/``tradeoff``/``histogram`` run the full experiment sweeps.

Exit codes: 0 success, 2 validation error (bad arguments, bad files, an
output path through an existing file), 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import balancer, harness, index as index_mod, kmeans, metrics
from .dataset import format_csv, gen_gaussian_mixture, load_fvecs, save_fvecs, write_csv


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _add_route_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--route", choices=index_mod.ROUTES, default=index_mod.ROUTE_PENALIZED)


def _add_experiment_flags(sub: argparse.ArgumentParser, probed: bool) -> None:
    """The sweep flags; ``probed`` adds the query set, the probe counts and
    the route, which only the sweeps that route queries read."""
    sub.add_argument("--db", required=True, help="database fvecs file")
    sub.add_argument("--learning", help="learning-set fvecs file")
    sub.add_argument("--k", type=_int_list, required=True, help="cluster counts, comma-separated")
    sub.add_argument(
        "--iters",
        type=_int_list,
        default=harness.DEFAULT_ITER_PRESETS,
        help="balancing iteration presets, comma-separated",
    )
    sub.add_argument("--alpha", type=float, default=balancer.DEFAULT_ALPHA)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--mode", choices=harness.MODES, default=harness.MODE_CLOSED)
    if probed:
        sub.add_argument("--queries", required=True, help="query fvecs file")
        sub.add_argument("--ma", type=_int_list, default=(1,), help="probe counts, comma-separated")
        _add_route_flag(sub)


def _experiment_spec(args: argparse.Namespace) -> harness.ExperimentSpec:
    probes = dict(queries=args.queries, mas=args.ma, route=args.route) if "ma" in args else {}
    return harness.ExperimentSpec(
        db=args.db,
        learning=args.learning,
        ks=args.k,
        iters=args.iters,
        alpha=args.alpha,
        seed=args.seed,
        out=args.out,
        mode=args.mode,
        **probes,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivfbalance",
        description="Balanced inverted-file vector indexing toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic Gaussian-mixture dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--modes", type=int, default=1)
    gen.add_argument("--weights", type=_float_list, default=None,
                     help="mode weights, comma-separated (default: uniform)")
    gen.add_argument("--spread", type=float, default=1.0)
    gen.add_argument("--centers-seed", type=int, default=None,
                     help="draw mode centers from this seed's layout instead "
                          "(for query sets matching a database's mixture)")

    km = subs.add_parser("kmeans", help="train a k-means codebook")
    km.add_argument("--db", required=True)
    km.add_argument("--k", type=int, required=True)
    km.add_argument("--seed", type=int, default=0)
    km.add_argument("--max-iters", type=int, default=kmeans.DEFAULT_MAX_ITERS)
    km.add_argument("--tol", type=float, default=kmeans.DEFAULT_REL_TOL)
    km.add_argument(
        "--init",
        choices=(kmeans.INIT_KMEANS_PP, kmeans.INIT_RANDOM_POINTS),
        default=kmeans.INIT_KMEANS_PP,
    )
    km.add_argument("--out", required=True, help="codebook output directory")

    bal = subs.add_parser("balance", help="balance a codebook's cell populations")
    bal.add_argument("--db", required=True)
    bal.add_argument("--codebook", required=True, help="codebook directory")
    bal.add_argument("--alpha", type=float, default=balancer.DEFAULT_ALPHA)
    stop = bal.add_mutually_exclusive_group()
    stop.add_argument("--iters", type=int, help="run exactly this many penalty updates")
    stop.add_argument("--target-gamma", type=float, help="stop at this imbalance factor")
    stop.add_argument("--target-fraction", type=float,
                      help="stop when the excess imbalance shrinks to this fraction")
    bal.add_argument("--max-iters-cap", type=int, default=balancer.DEFAULT_MAX_ITERS_CAP,
                     help="most updates for --target-gamma and --target-fraction "
                          "(default: %(default)s); --iters N always runs N")
    bal.add_argument("--out", required=True, help="balanced codebook output directory")

    bld = subs.add_parser("build", help="build an inverted-file index")
    bld.add_argument("--db", required=True)
    bld.add_argument("--codebook", required=True)
    bld.add_argument("--out", required=True, help="index output directory")

    srch = subs.add_parser("search", help="query an index")
    srch.add_argument("--index", required=True)
    srch.add_argument("--db", required=True)
    srch.add_argument("--queries", required=True)
    srch.add_argument("--ma", type=int, default=1)
    srch.add_argument("--r", type=int, default=index_mod.DEFAULT_R_RESULTS)
    _add_route_flag(srch)
    srch.add_argument("--out", help="write hits CSV here instead of stdout")

    ev = subs.add_parser("eval", help="evaluate an index against ground truth")
    ev.add_argument("--index", required=True)
    ev.add_argument("--db", required=True)
    ev.add_argument("--queries", required=True)
    ev.add_argument("--ma", type=int, default=1)
    _add_route_flag(ev)
    ev.add_argument("--out", required=True, help="output directory")

    conv = subs.add_parser("convergence", help="gamma-per-iteration traces")
    _add_experiment_flags(conv, probed=False)

    trade = subs.add_parser("tradeoff", help="selectivity/recall sweep")
    _add_experiment_flags(trade, probed=True)

    hist = subs.add_parser("histogram", help="scan-count distributions")
    _add_experiment_flags(hist, probed=True)

    return parser


def _cmd_gen(args: argparse.Namespace) -> None:
    weights = args.weights
    if weights is None:
        weights = tuple(1.0 / args.modes for _ in range(args.modes))
    data = gen_gaussian_mixture(
        args.seed, args.n, args.dim, args.modes, list(weights), args.spread,
        centers_from_seed=args.centers_seed,
    )
    save_fvecs(data, args.out)
    print(f"wrote {data.count} x {data.dim} vectors to {args.out}")


def _cmd_kmeans(args: argparse.Namespace) -> None:
    data = load_fvecs(args.db)
    result = kmeans.lloyd_full(
        data, args.k, args.seed, args.max_iters, args.tol, args.init
    )
    codebook = balancer.Codebook.fresh(result.centroids)
    index_mod.save_codebook(
        codebook,
        args.out,
        extra_meta={
            "seed": args.seed,
            "kmeans_iterations": result.iterations,
            "distortion": repr(result.final_distortion),
        },
    )
    print(
        f"k={args.k} converged after {result.iterations} iterations, "
        f"distortion {result.final_distortion:.6g}; saved to {args.out}"
    )


def _stop_rule(args: argparse.Namespace) -> balancer.StopRule:
    if args.target_gamma is not None:
        return balancer.StopRule.target_gamma(args.target_gamma)
    if args.target_fraction is not None:
        return balancer.StopRule.target_fraction(args.target_fraction)
    return balancer.StopRule.fixed_iters(args.iters if args.iters is not None else 64)


def _cmd_balance(args: argparse.Namespace) -> None:
    config = balancer.BalanceConfig(
        stop=_stop_rule(args), alpha=args.alpha, max_iters_cap=args.max_iters_cap
    )
    data = load_fvecs(args.db)
    codebook = index_mod.load_codebook(args.codebook)
    balanced, trace = balancer.balance(data, codebook, config)
    out = Path(args.out)
    index_mod.save_codebook(
        balanced,
        out,
        extra_meta={
            "alpha": repr(args.alpha),
            "balance_iterations": balanced.iteration,
            "stop": config.stop.describe(),
        },
    )
    trace.to_csv(out / "trace.csv")
    final_gamma = trace.records[-1].gamma
    print(
        f"balanced for {balanced.iteration} iterations, "
        f"gamma {trace.records[0].gamma:.4f} -> {final_gamma:.4f}; saved to {out}"
    )


def _cmd_build(args: argparse.Namespace) -> None:
    data = load_fvecs(args.db)
    codebook = index_mod.load_codebook(args.codebook)
    inverted = index_mod.build(data, codebook)
    index_mod.save_index(inverted, args.out)
    sizes = inverted.list_sizes()
    print(
        f"indexed {data.count} vectors into {inverted.k} cells "
        f"(min {sizes.min()}, max {sizes.max()}); saved to {args.out}"
    )


def _cmd_search(args: argparse.Namespace) -> None:
    data = load_fvecs(args.db)
    queries = load_fvecs(args.queries)
    inverted = index_mod.load_index(args.index, data)
    params = index_mod.SearchParams(ma=args.ma, r_results=args.r, route=args.route)
    header = "query,rank,id,dist"
    results = (index_mod.search(inverted, query, params) for query in queries.data)
    rows = ((q, rank, pid, dist) for q, result in enumerate(results)
            for rank, (pid, dist) in enumerate(zip(result.ids.tolist(), result.dists.tolist())))
    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {queries.count} query results to {args.out}")
    else:
        sys.stdout.write(format_csv(header, rows))


def _cmd_eval(args: argparse.Namespace) -> None:
    data = load_fvecs(args.db)
    queries = load_fvecs(args.queries)
    inverted = index_mod.load_index(args.index, data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = metrics.brute_force_nn(data, queries, 1)
    params = index_mod.SearchParams(ma=args.ma, route=args.route)
    report = metrics.evaluate(inverted, queries, params, truth)
    row = (inverted.k, args.ma, inverted.codebook.iteration, "", report)
    metrics.write_report_csv(out / "report.csv", [row])
    metrics.write_histogram_csv(out / "histogram.csv", report)
    print(
        f"gamma {report.gamma:.4f}  selectivity {report.selectivity:.4f}  "
        f"recall@1 {report.recall_at_1:.4f}; report in {out}"
    )


def _cmd_convergence(args: argparse.Namespace) -> None:
    written = harness.run_convergence(_experiment_spec(args))
    for path in written:
        print(f"wrote {path}")


def _cmd_tradeoff(args: argparse.Namespace) -> None:
    path = harness.run_tradeoff(_experiment_spec(args))
    print(f"wrote {path}")


def _cmd_histogram(args: argparse.Namespace) -> None:
    written, summary = harness.run_histogram(_experiment_spec(args))
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {summary}")


_COMMANDS = {
    "gen": _cmd_gen,
    "kmeans": _cmd_kmeans,
    "balance": _cmd_balance,
    "build": _cmd_build,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "convergence": _cmd_convergence,
    "tradeoff": _cmd_tradeoff,
    "histogram": _cmd_histogram,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
