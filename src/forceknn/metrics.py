"""Confusion accounting, precision/recall, windowed sums and the cycle-time model."""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .online import RecordColumns, RunReport, TrialRecord
from .signal import _check_count, _check_real

__all__ = [
    "ConfusionCounts",
    "TimeModel",
    "WindowCost",
    "SummaryRow",
    "confusion",
    "precision",
    "recall",
    "cycle_time",
    "verification_savings",
    "summarize_runs",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    uncertain: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn, self.uncertain) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn + self.uncertain


@dataclass(frozen=True)
class TimeModel:
    """Per-trial cost: a full iteration, minus the verification step when skipped."""

    iteration_cost: float = 45.0
    verification_cost: float = 5.0

    def __post_init__(self) -> None:
        _check_real(self.iteration_cost, "iteration_cost", 0, np.inf, "()")
        _check_real(self.verification_cost, "verification_cost", 0, self.iteration_cost, "(]")


def _ratio(num: float, den: float) -> float | None:
    """num/den, or None when the ratio is undefined (never a silent 0 or 1)."""
    if den == 0:
        return None
    return num / den


def _fold_mean(values, defined=None) -> tuple:
    """Means over the first axis of ``values`` and their entry counts, converted by ``tolist``.

    Only entries where ``defined`` is set (every entry by default) count, and
    a mean over none is None. Entries are added one after another in
    first-axis order, so each mean is the same float on every Python and
    numpy: builtin ``sum`` compensates floats since Python 3.12, and numpy's
    ``sum`` adds pairwise.
    """
    values = np.asarray(values, dtype=float)
    if defined is None:
        defined = np.ones(values.shape, dtype=bool)
    total = np.zeros(values.shape[1:])
    for row in np.where(defined, values, 0.0):
        total += row
    counts = np.count_nonzero(defined, axis=0)
    return np.where(counts > 0, total / np.maximum(counts, 1), None).tolist(), counts.tolist()


def confusion(records: Sequence[TrialRecord]) -> ConfusionCounts:
    """Tally the trials the classifier answered into confusion cells against ground truth.

    Seed and fallback trials, whose labels came from the oracle, count as ``uncertain``.
    """
    if not records:
        raise ValueError("no records to tally")
    columns = RecordColumns.of(records)
    # Cell codes: 0 tn, 1 fn, 2 fp, 3 tp (2 * predicted + truth), 4 uncertain.
    cells = 2 * columns.predicted + columns.truth
    cells[columns.verified] = 4
    tn, fn, fp, tp, uncertain = np.bincount(cells, minlength=5).tolist()
    return ConfusionCounts(tp, fp, tn, fn, uncertain)


def precision(counts: ConfusionCounts) -> float | None:
    return _ratio(counts.tp, counts.tp + counts.fp)


def recall(counts: ConfusionCounts) -> float | None:
    return _ratio(counts.tp, counts.tp + counts.fn)


class WindowCost(NamedTuple):
    index: int
    mean_cost: float


def _window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sums over each trailing window of ``values`` (none if shorter), in its dtype.

    Booleans are summed as integers.
    """
    _check_count(window, "window")
    cum = np.concatenate(([0], np.cumsum(values)))
    return cum[window:] - cum[:-window]


def _window_counts(
    records: Sequence[TrialRecord], window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classifier true and false positives, and verified trials, per trailing window."""
    columns = RecordColumns.of(records)
    classified_pos = ~columns.verified & columns.predicted
    tp = _window_sums(classified_pos & columns.truth, window)
    fp = _window_sums(classified_pos & ~columns.truth, window)
    return tp, fp, _window_sums(columns.verified, window)


def _costs(records: Sequence[TrialRecord], tm: TimeModel) -> np.ndarray:
    verified = RecordColumns.of(records).verified
    return np.where(verified, tm.iteration_cost, tm.iteration_cost - tm.verification_cost)


def cycle_time(
    records: Sequence[TrialRecord],
    tm: TimeModel = TimeModel(),
    window: int = 100,
) -> tuple[float, list[WindowCost]]:
    """Total execution time of a record stream plus its sliding-window mean cost.

    A verified trial costs the full iteration; skipping verification saves
    ``tm.verification_cost``.
    """
    costs = _costs(records, tm)
    sums = _window_sums(costs, window)
    series = [WindowCost(window - 1 + j, float(s) / window) for j, s in enumerate(sums)]
    return float(costs.sum()), series


def verification_savings(n_records: float, n_verified: float, tm: TimeModel = TimeModel()) -> float:
    """Time saved versus verifying every trial."""
    return (n_records - n_verified) * tm.verification_cost


@dataclass(frozen=True)
class SummaryRow:
    """Run-averaged statistics for one loop configuration.

    ``mean_precision``/``mean_recall`` average the per-run ratios (runs where
    the ratio is undefined are excluded and counted); the pooled variants are
    ratios of the mean confusion cells, emitted for transparency since the
    two aggregations differ.
    """

    l_value: float
    n_runs: int
    n_records: float
    mean_dataset_size: float
    mean_verification_count: float
    mean_precision: float | None
    precision_undefined_runs: int
    mean_recall: float | None
    recall_undefined_runs: int
    mean_tp: float
    mean_fp: float
    mean_tn: float
    mean_fn: float
    mean_uncertain: float
    pooled_precision: float | None
    pooled_recall: float | None


def summarize_runs(reports: Sequence[RunReport]) -> SummaryRow:
    """Average per-run statistics over replicated runs, in run order."""
    if not reports:
        raise ValueError("no reports to summarize")
    counts = np.array([astuple(confusion(report.records)) for report in reports])
    tp, fp, _, fn, _ = counts.T
    (mean_tp, mean_fp, mean_tn, mean_fn, mean_uncertain), _ = _fold_mean(counts)
    (n_records, dataset_size, verifications), _ = _fold_mean(
        [(len(r.records), r.final_dataset_size, r.verified_count) for r in reports]
    )
    mean_precision, precision_runs = _fold_mean(tp / np.maximum(tp + fp, 1), tp + fp > 0)
    mean_recall, recall_runs = _fold_mean(tp / np.maximum(tp + fn, 1), tp + fn > 0)
    n = len(reports)
    return SummaryRow(
        l_value=reports[0].config.l_value,
        n_runs=n,
        n_records=n_records,
        mean_dataset_size=dataset_size,
        mean_verification_count=verifications,
        mean_precision=mean_precision,
        precision_undefined_runs=n - precision_runs,
        mean_recall=mean_recall,
        recall_undefined_runs=n - recall_runs,
        mean_tp=mean_tp,
        mean_fp=mean_fp,
        mean_tn=mean_tn,
        mean_fn=mean_fn,
        mean_uncertain=mean_uncertain,
        pooled_precision=_ratio(mean_tp, mean_tp + mean_fp),
        pooled_recall=_ratio(mean_tp, mean_tp + mean_fn),
    )
