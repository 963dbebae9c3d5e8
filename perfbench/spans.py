"""Span recording and per-layer attribution for the traced benchmark run.

Spans are recorded from the benchmark's own files only. The benchmark opens
a span around each top-level call it makes (``kmeans.lloyd_full``,
``index.search``, ...), and :meth:`Tracer.patched` replaces, for the traced
pass only, the names each module imported from the layer below with
span-recording wrappers. A call into ``distances`` is thereby attributed to
the module that made it, and a layer's self time is its spans' time minus
the time of their direct children. Nothing in the measured package changes.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import ivfbalance.balancer as balancer_mod
import ivfbalance.index as index_mod
import ivfbalance.kmeans as kmeans_mod
import ivfbalance.metrics as metrics_mod

LAYERS = ("dataset", "distances", "kmeans", "balancer", "index", "metrics")

# Span record fields, kept as a list per span for low recording cost.
NAME, CALLER, START, END, PARENT, RUN, PAIRS = range(7)


def _pairs(x, c, *_args, **_kwargs) -> int:
    return int(np.shape(x)[0]) * int(np.shape(c)[0])


class NullTracer:
    """Stand-in for untraced runs: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str, caller: str = "bench", pairs: int = 0):
        return self._null

    def begin_run(self, label: str) -> None:
        pass

    def start_balance(self) -> None:
        pass


class Tracer:
    """In-memory span recorder: (name, caller, start, end, parent, run, pairs).

    ``run`` groups the spans of one request: one setup repetition, one
    build, one query of the search loop, or one evaluation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_labels: list[str] = []
        self._stack: list[int] = []
        self._last_cells: np.ndarray | None = None
        self.points_moved: list[int] = []

    def begin_run(self, label: str) -> None:
        self.run_labels.append(label)

    @contextmanager
    def span(self, name: str, caller: str = "bench", pairs: int = 0):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, caller, time.perf_counter(), 0.0, parent,
               len(self.run_labels) - 1, pairs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def start_balance(self) -> None:
        """Reset the points-moved record before a ``balance`` call."""
        self._last_cells = None
        self.points_moved = []

    def _record_moves(self, assignment) -> None:
        if self._last_cells is not None:
            moved = np.count_nonzero(self._last_cells != assignment.cell_of)
            self.points_moved.append(int(moved))
        self._last_cells = assignment.cell_of

    def _wrap(self, module, attr: str, name: str, pairs=None, after=None):
        orig = getattr(module, attr)
        caller = module.__name__.rsplit(".", 1)[-1]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name, caller, pairs(*args, **kwargs) if pairs else 0):
                out = orig(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        setattr(module, attr, wrapper)
        return module, attr, orig

    @contextmanager
    def patched(self):
        """Install the layer-boundary wrappers; restore the originals on exit."""
        installed = [
            self._wrap(kmeans_mod, "sqdist_to_centroids",
                       "distances.sqdist_to_centroids", _pairs),
            self._wrap(kmeans_mod, "init_centroids", "kmeans.init_centroids"),
            self._wrap(kmeans_mod, "assign_plain", "kmeans.assign_plain"),
            self._wrap(balancer_mod, "sqdist_to_centroids",
                       "distances.sqdist_to_centroids", _pairs),
            self._wrap(balancer_mod, "assign_balanced", "balancer.assign_balanced",
                       after=self._record_moves),
            self._wrap(index_mod, "assign_balanced", "balancer.assign_balanced"),
            self._wrap(index_mod, "sqdist_to_centroids",
                       "distances.sqdist_to_centroids", _pairs),
            self._wrap(index_mod, "sqdist_exact", "distances.sqdist_exact", _pairs),
            self._wrap(index_mod, "select_cells", "index.select_cells"),
            self._wrap(metrics_mod, "sqdist_exact", "distances.sqdist_exact", _pairs),
        ]
        try:
            yield self
        finally:
            for module, attr, orig in reversed(installed):
                setattr(module, attr, orig)

    def write(self, path: Path) -> None:
        """Write runs and spans as JSON lines, start and end in seconds."""
        with open(path, "w") as fh:
            for run, label in enumerate(self.run_labels):
                fh.write(json.dumps({"run": run, "label": label}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "caller": s[CALLER],
                    "start": s[START], "end": s[END], "parent": s[PARENT],
                    "run": s[RUN], "pairs": s[PAIRS],
                }) + "\n")


def _durations(spans: list[list]) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time (duration minus direct children)."""
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur, dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate every recorded span into per-layer metrics.

    Keys are per-layer metric names without units; counts are exact, times
    in seconds.
    """
    spans = tracer.spans
    dur, self_t = _durations(spans)

    calls: dict[tuple, int] = defaultdict(int)
    secs: dict[tuple, float] = defaultdict(float)
    pairs: dict[tuple, int] = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    sqdist_in_iters = 0
    for i, s in enumerate(spans):
        for key in ((s[NAME],), (s[NAME], s[CALLER])):
            calls[key] += 1
            secs[key] += dur[i]
            pairs[key] += s[PAIRS]
        layer_self[s[NAME].split(".", 1)[0]] += self_t[i]
        if (s[NAME] == "distances.sqdist_to_centroids" and s[CALLER] == "kmeans"
                and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "kmeans.init_centroids")):
            sqdist_in_iters += 1

    search_self = sum(self_t[i] for i, s in enumerate(spans) if s[NAME] == "index.search")
    out = {
        "distances.sqdist_to_centroids.calls": calls[("distances.sqdist_to_centroids",)],
        "distances.sqdist_to_centroids.s": secs[("distances.sqdist_to_centroids",)],
        "distances.sqdist_to_centroids.pairs": pairs[("distances.sqdist_to_centroids",)],
        "distances.sqdist_exact.calls": calls[("distances.sqdist_exact",)],
        "distances.sqdist_exact.s": secs[("distances.sqdist_exact",)],
        "distances.sqdist_exact.pairs": pairs[("distances.sqdist_exact",)],
        "kmeans.sqdist.calls": calls[("distances.sqdist_to_centroids", "kmeans")],
        "kmeans.sqdist.s": secs[("distances.sqdist_to_centroids", "kmeans")],
        "balancer.sqdist.calls": calls[("distances.sqdist_to_centroids", "balancer")],
        "balancer.sqdist.s": secs[("distances.sqdist_to_centroids", "balancer")],
        "index.scan.calls": calls[("distances.sqdist_exact", "index")],
        "index.scan.s": secs[("distances.sqdist_exact", "index")],
        "index.scan.pairs": pairs[("distances.sqdist_exact", "index")],
        "metrics.sqdist_exact.s": secs[("distances.sqdist_exact", "metrics")],
        "metrics.sqdist_exact.pairs": pairs[("distances.sqdist_exact", "metrics")],
        "kmeans.init_centroids.s": secs[("kmeans.init_centroids",)],
        "kmeans.lloyd.s": secs[("kmeans.lloyd_full",)],
        "kmeans.assign_plain.calls": calls[("kmeans.assign_plain",)],
        "kmeans.assign_plain.s": secs[("kmeans.assign_plain",)],
        "balancer.balance.s": secs[("balancer.balance",)],
        "balancer.assign_balanced.calls": calls[("balancer.assign_balanced",)],
        "balancer.assign_balanced.s": secs[("balancer.assign_balanced",)],
        "balancer.points_moved": sum(tracer.points_moved),
        "balancer.points_moved_last": tracer.points_moved[-1] if tracer.points_moved else 0,
        "index.build.s": secs[("index.build",)],
        "index.save.s": secs[("index.save",)],
        "index.load.s": secs[("index.load",)],
        "index.select_cells.calls": calls[("index.select_cells",)],
        "index.select_cells.s": secs[("index.select_cells",)],
        "index.search.other_s": search_self,
        "metrics.brute_force_nn.s": secs[("metrics.brute_force_nn",)],
        "metrics.evaluate.s": secs[("metrics.evaluate",)],
        "metrics.recall_at_r.s": secs[("metrics.recall_at_r",)],
        "kmeans.sqdist_in_iters": sqdist_in_iters,
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    return {k: float(v) for k, v in out.items()}
