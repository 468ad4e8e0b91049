"""Deterministic CSV / JSON-lines emission for runs, window series and grids.

All floats are written with shortest round-trip ``repr`` and every CSV opens
with a ``#``-prefixed config echo, so identical inputs produce byte-identical
files that state how to reproduce them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset_io import _write_text_atomic
from .grid import GridRow
from .metrics import SummaryRow, TimeModel, _cells, _fold_mean, _window_counts
from .online import RecordColumns, RunReport

__all__ = [
    "WindowAggregate",
    "aggregate_window_series",
    "config_echo",
    "write_records_jsonl",
    "write_summary_csv",
    "write_windows_csv",
    "write_grid_csv",
]

def _fmt(value) -> str:
    """One CSV cell, echo value or help default: a list joined with commas, ``None`` blank."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return "" if value is None else str(value)


def config_echo(pairs: Mapping[str, object]) -> list[str]:
    return [f"# {key} = {_fmt(value)}" for key, value in pairs.items()]


@dataclass(frozen=True)
class WindowAggregate:
    """Across-run mean of one sliding-window index."""

    index: int
    mean_precision: float | None
    precision_defined_runs: int
    mean_uncertain_fraction: float
    mean_cycle_cost: float


def aggregate_window_series(
    reports: Sequence[RunReport],
    tm: TimeModel = TimeModel(),
    window: int = 100,
) -> list[WindowAggregate]:
    """Average the per-run sliding-window series index by index.

    Window precision is undefined when a window holds no classified trials;
    such runs are excluded from that index's mean and counted. Every mean
    is a left fold over runs in run order (``metrics._fold_mean``).
    """
    per_run = [_window_counts(_cells(report.records), window, tm) for report in reports]
    lengths = {len(tp) for tp, *_ in per_run}
    if len(lengths) > 1:
        raise ValueError("runs produced window series of different lengths")
    # (quantity, run, window index); an empty report list has no windows.
    tp, classified, verified, costs = np.array(per_run, dtype=float).reshape(
        len(reports), 4, lengths.pop() if lengths else 0
    ).transpose(1, 0, 2)
    precision, defined_runs = _fold_mean(tp / np.maximum(classified, 1), classified > 0)
    uncertain, _ = _fold_mean(verified / window)
    cost, _ = _fold_mean(costs / window)
    return [
        WindowAggregate(window - 1 + j, *point)
        for j, point in enumerate(zip(precision, defined_runs, uncertain, cost))
    ]


def _write_csv(
    path: Path,
    echo: Mapping[str, object],
    row_type: type,
    rows: Iterable[tuple[tuple, object]],
    lead_columns: Sequence[str] = (),
) -> None:
    """Write dataclass rows under a config echo, one column per field in order.

    ``rows`` yields ``(lead_values, row)`` pairs; ``lead_values`` fill
    ``lead_columns``, which come before the fields of ``row_type``.
    """
    names = [field.name for field in dataclasses.fields(row_type)]
    buf = io.StringIO()
    for line in config_echo(echo):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*lead_columns, *names])
    for lead, row in rows:
        writer.writerow([_fmt(value) for value in (*lead, *(getattr(row, n) for n in names))])
    _write_text_atomic(path, (buf.getvalue(),))


# A records line is head % (run, run_seed) + JSON-quoted trial id + tail. The 12 kinds
# of record are listed in the order of their code, 4 * phase + 2 * predicted + truth.
_CODES = np.arange(12)
_KINDS = RecordColumns([""] * 12, _CODES // 4, _CODES // 2 % 2, _CODES % 2)
_HEADS = [
    f'{{"decision": "{r.decision.value}", "phase": "{r.phase.value}", '
    f'"predicted": "{r.predicted.value}", "run": %d, "run_seed": %d, "trial_id": '
    for r in _KINDS
]
_TAILS = [f', "truth": "{r.truth.value}", "verified": {json.dumps(r.verified)}}}\n' for r in _KINDS]


def write_records_jsonl(path: str | Path, reports: Sequence[RunReport]) -> None:
    """One JSON object per processed trial, across all runs in order.

    Each line is ``json.dumps(payload, sort_keys=True)`` of the record's
    fields, built from the run's columns rather than ``TrialRecord`` objects.
    The trial id is the only value that needs escaping, so ``json.dumps``
    runs once per distinct id. Every other value is fixed by the record's
    (phase, predicted, truth) kind and the run, so each run fills one head
    and one tail template per kind, and is written as one join of head,
    quoted id and tail per record.
    """
    quoted: dict[str, str] = {}

    def runs() -> Iterator[str]:
        for run_index, report in enumerate(reports):
            columns = report.records
            new_ids = set(columns.ids).difference(quoted)
            quoted.update(zip(new_ids, map(json.dumps, new_ids)))
            heads = [head % (run_index, report.rng_seed) for head in _HEADS]
            kinds = (4 * columns.phase + 2 * columns.predicted + columns.truth).tolist()
            yield "".join(chain.from_iterable(zip(
                map(heads.__getitem__, kinds),
                map(quoted.__getitem__, columns.ids),
                map(_TAILS.__getitem__, kinds),
            )))

    _write_text_atomic(Path(path), runs())


def write_summary_csv(
    path: str | Path, rows: Sequence[SummaryRow], echo: Mapping[str, object]
) -> None:
    _write_csv(Path(path), echo, SummaryRow, (((), row) for row in rows))


def write_windows_csv(
    path: str | Path,
    series_by_l: Sequence[tuple[float, Sequence[WindowAggregate]]],
    echo: Mapping[str, object],
) -> None:
    _write_csv(
        Path(path),
        echo,
        WindowAggregate,
        (((l_value,), point) for l_value, series in series_by_l for point in series),
        lead_columns=("l_value",),
    )


def write_grid_csv(path: str | Path, rows: Sequence[GridRow], echo: Mapping[str, object]) -> None:
    _write_csv(Path(path), echo, GridRow, (((), row) for row in rows))
