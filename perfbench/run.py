"""Benchmark entry point for the ivfbalance pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload {build,query,small,all} --seed N \
        --seconds S --trace {0,1}

One workload runs in this process and prints its metrics, one per line
with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones.
The full record (metrics, output digests, sample counts, environment,
failures) goes to ``bench_results/``; a traced run also writes its spans
there. ``--workload all`` runs every workload, each in its own process.

Exit status: 0 when every operation and check passed, 1 when one failed,
2 when the package sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"
TMP_ROOT = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("build", "query", "small")
# One BLAS thread: at most nproc, and steadier than two on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "search_qps": "1/s",
    "search_p50_ms": "ms",
    "search_p95_ms": "ms",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "gamma": "ratio",
    "recall_at_1": "ratio",
    "recall_at_10": "ratio",
    "scan_p99": "count",
}


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".pairs"):
        return "pairs"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac") or ".gamma" in name:
        return "ratio"
    if name.endswith("_per_iter"):
        return "calls/iter"
    return "count"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(incoming_threads: str | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas_num_threads_in_caller": incoming_threads or "unset",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run_one(args: argparse.Namespace) -> int:
    incoming = os.environ.get("OPENBLAS_NUM_THREADS")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy: the BLAS thread count must be set first

    TMP_ROOT.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workload = bench.WORKLOADS[args.workload]
    result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace), TMP_ROOT)
    tracer = result.pop("tracer", None)
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in result["metrics"].items()
    }
    failed = len(result["failures"])
    stem = f"BENCH_{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(incoming),
        **result,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}_spans.jsonl")

    for failure in result["failures"][:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:6s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0 and failed == 0,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed search loop (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ivfbalance" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
