"""In-memory span recorder for the benchmark's traced rounds.

A span is ``[name, start, end, parent]``: ``start``/``end`` come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span, or
-1 at the top. Spans stay in a list until the round ends and writes them
out. Tracing works by replacing a function, as the calling module sees it,
with a wrapper that records a span around the call, so the package itself
is not edited. Counters are recorded by an optional ``after`` hook on the
same boundary, so ratios are measured where the work happens.
"""

from __future__ import annotations

import os
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` with a wrapper recording a span named ``name``."""
        fn = getattr(module, attr)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        setattr(module, attr, traced)


# Counter hooks: (counters, call arguments, result) -> None.

def count_classify(counters: Counter, args, decision) -> None:
    counters["distance_evals"] += len(args[0])  # one distance per snapshot entry
    if decision.value != "uncertain":
        counters["committed"] += 1


def count_oracle(counters: Counter, args, report) -> None:
    counters["oracle_calls"] += report.oracle_calls


def count_written(counters: Counter, args, result) -> None:
    counters["bytes_written"] += os.path.getsize(args[0])


def count_read(counters: Counter, args, result) -> None:
    counters["bytes_read"] += os.path.getsize(args[0])


def count_cells(counters: Counter, args, rows) -> None:
    for row in rows:
        counters["cells_ok" if row.status == "ok" else "cells_infeasible"] += 1


def instrument(tracer: Tracer, forceknn) -> None:
    """Trace every layer boundary, as the module that makes each call sees it."""
    online, grid, cli = forceknn.online, forceknn.grid, forceknn.cli
    tracer.patch(forceknn.dataset_io, "read_dataset", "dataset_io.read", count_read)
    tracer.patch(online, "preprocess", "signal.preprocess")
    tracer.patch(online, "classify", "classifier.classify", count_classify)
    tracer.patch(online, "KnnModel", "classifier.snapshot_build")
    tracer.patch(online, "run_online", "online.run", count_oracle)
    tracer.patch(grid, "preprocess", "signal.preprocess")
    tracer.patch(grid, "run_replicated", "grid.cell")
    tracer.patch(grid, "summarize_runs", "metrics.summarize")
    tracer.patch(cli, "read_dataset", "dataset_io.read", count_read)
    tracer.patch(cli, "write_dataset", "dataset_io.write")
    tracer.patch(cli, "gen_dataset", "datagen.gen")
    tracer.patch(cli, "run_replicated", "online.replicated")
    tracer.patch(cli, "summarize_runs", "metrics.summarize")
    tracer.patch(cli, "aggregate_window_series", "reports.aggregate_windows")
    for writer in ("write_records_jsonl", "write_summary_csv", "write_windows_csv", "write_grid_csv"):
        tracer.patch(cli, writer, "reports.write", count_written)
    tracer.patch(cli, "static_grid", "grid.static", count_cells)
    tracer.patch(cli, "online_grid", "grid.online", count_cells)
    tracer.patch(cli, "main", "cli")
