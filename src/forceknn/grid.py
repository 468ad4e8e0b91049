"""Grid sweeps over k, metric, minimum-agreement value and training size.

Static mode works on fixed splits: hold out a test share at the 604:100
ratio, subsample the remaining pool down to each training fraction,
classify the test split and average per-cell statistics over shuffle seeds.
It ranks through the online replay's distance store: one per metric, shared
by every seed, so one is alive at a time; each seed reads its test trials'
rows. Distances are symmetric to the bit, so a new row copies its entries
for trials that already have a row from those rows. The rows are sorted
once per (metric, seed) over the whole pool, by numpy's unstable SIMD sort
with an audit that sorts again stably every row holding a tie; each
training fraction filters that order down to its prefix, and one vote per
k decides all l-values at once. Online mode replays the growing-dataset
loop per (k, metric, l) cell.

Cells that cannot run (training set smaller than k, or a loop config whose
seed phase cannot cover k) are emitted as explicit ``infeasible`` rows.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import (
    COSINE,
    EUCLIDEAN,
    MANHATTAN,
    Label,
    Metric,
    _vote,
    min_agreeing_count,
    minkowski,
)
from .metrics import _fold_mean, summarize_runs
from .online import LabeledTrial, LoopConfig, _Distances, _feature_matrix, run_replicated
# preprocess is not called here (the feature stack is online._feature_matrix) but
# stays importable as grid.preprocess: the benchmark's tracer patches it there.
from .signal import PreprocessConfig, preprocess

__all__ = ["GridSpec", "GridRow", "static_grid", "online_grid"]

# Held-out test share of the whole dataset: 100 of 704 trials; the rest is
# the training pool.
_TEST_SHARE = 100 / 704


@dataclass(frozen=True)
class GridSpec:
    """Axes of the sweep.

    Defaults cover a spread of neighbourhood sizes, all four metrics,
    agreement thresholds from plain majority to unanimity, and training
    fractions down to 15%.
    """

    k_values: tuple[int, ...] = (5, 11, 15, 21, 25)
    metrics: tuple[Metric, ...] = (COSINE, EUCLIDEAN, MANHATTAN, minkowski(3.0))
    l_values: tuple[float, ...] = (50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
    train_fractions: tuple[float, ...] = (0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.0)

    def __post_init__(self) -> None:
        if not (self.k_values and self.metrics and self.l_values and self.train_fractions):
            raise ValueError("every grid axis must be non-empty")
        for k in self.k_values:
            for l_value in self.l_values:
                min_agreeing_count(k, l_value)  # validates k and l_value
        if any(not 0.0 < f <= 1.0 for f in self.train_fractions):
            raise ValueError("train fractions must lie in (0, 1]")
        for axis in dataclasses.fields(self):
            values = getattr(self, axis.name)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis.name} repeats a value: {', '.join(map(str, values))}")


@dataclass(frozen=True)
class GridRow:
    """One cell of the sweep; statistics are means over seeds or runs."""

    k: int
    metric: str
    l_value: float
    train_fraction: float
    status: str
    precision: float | None = None
    recall: float | None = None
    uncertain_pct: float | None = None
    tp: float | None = None
    fp: float | None = None
    tn: float | None = None
    fn: float | None = None


def _sort_key(row: GridRow):
    return (row.k, row.metric, row.l_value, row.train_fraction)


def _stable_argsort(dists: np.ndarray) -> np.ndarray:
    """``np.argsort(dists, axis=1, kind="stable")``, by way of numpy's faster unstable sort.

    A row whose sorted values strictly increase has one sorted order, so the
    unstable sort found it. Every other row (ties, NaN or -0.0 beside 0.0) is
    sorted again stably.
    """
    order = np.argsort(dists, axis=1)
    ordered = np.take_along_axis(dists, order, axis=1)
    audit_failed = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    order[audit_failed] = np.argsort(dists[audit_failed], axis=1, kind="stable")
    return order


def static_grid(
    trials: Sequence[LabeledTrial],
    grid: GridSpec = GridSpec(),
    preprocess_cfg: PreprocessConfig = PreprocessConfig(),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> list[GridRow]:
    """Sweep fixed train/test splits, averaging each cell over shuffle seeds.

    Per seed the trials are permuted once; the test split is the trailing
    100/704 share (at least one trial) and each training fraction takes a
    prefix of the remaining pool, so larger fractions extend smaller ones.
    Each seed's test rows come from the distance store, which copies a
    row's entries for trials with a stored row from those rows. They get
    one stable sort over the whole pool: an unstable sort, kept for rows
    whose sorted values strictly increase, with the other rows sorted again
    stably. A fraction keeps the entries below its training size, which is
    the stable order of its prefix, ties and NaN included. Per (fraction,
    k) one vote over an (l-values, test trials) mask fills every l-value's
    cell, and one reduction per seed counts every cell's outcomes. A cell's
    statistics are left-fold means over seeds in seed order. Seeds must be
    non-negative.
    """
    trials = list(trials)
    if not seeds:
        raise ValueError("at least one seed is required")
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be non-negative, got {', '.join(map(str, seeds))}")
    if len(trials) < 2:
        raise ValueError("dataset too small to split")
    features = _feature_matrix(trials, preprocess_cfg)
    is_pos = np.array([t.truth is Label.POSITIVE for t in trials])
    n = len(trials)
    test_size = max(1, round(n * _TEST_SHARE))
    pool_size = n - test_size

    # One column of N_c per k, one row per l-value: a vote over it decides
    # every l-value of a (fraction, k) at once.
    thresholds_of = {
        k: np.array([[min_agreeing_count(k, l_value)] for l_value in grid.l_values])
        for k in grid.k_values
    }
    shape = (len(grid.train_fractions), len(grid.k_values), len(grid.l_values))
    cells = list(itertools.product(grid.train_fractions, grid.k_values, grid.l_values))
    feasible = [round(fraction * pool_size) >= k for fraction, k, _ in cells]
    rows = []
    for metric in grid.metrics:
        distances = _Distances(features, metric)
        # tp, fp, tn, fn and uncertain per (seed, cell).
        counts = np.empty((len(seeds), len(cells), 5), dtype=np.int64)
        for seed, seed_counts in zip(seeds, counts):
            order = np.random.default_rng(seed).permutation(n)
            pool_idx, test_idx = order[:pool_size], order[pool_size:]
            pool_pos, truth_pos = is_pos[pool_idx], is_pos[test_idx]
            # The test trials' rows: each test trial, as the query, to every pool trial.
            dists = distances.between(pool_idx, test_idx)
            # A stable sort keeps equal distances in pool order, so the columns
            # below m of the full order are the stable order of the first m.
            full = _stable_argsort(dists)
            # Positive and negative votes per (fraction, k, l-value, test trial);
            # infeasible cells (train_size < k) stay undecided.
            decided = np.zeros((2, *shape, test_size), dtype=bool)
            for f, fraction in enumerate(grid.train_fractions):
                train_size = round(fraction * pool_size)
                ranked = full[full < train_size].reshape(test_size, train_size)
                for i, k in enumerate(grid.k_values):
                    if train_size >= k:
                        n_pos = pool_pos[ranked[:, :k]].sum(axis=1)
                        decided[:, f, i] = _vote(n_pos, k, thresholds_of[k])
            pos, neg = decided & distances.answered[test_idx]
            outcomes = (pos & truth_pos, pos & ~truth_pos, neg & ~truth_pos, neg & truth_pos)
            stacked = np.stack((*outcomes, ~(pos | neg)), axis=-1)
            seed_counts[:] = stacked.sum(axis=-2).reshape(-1, 5)
        tp, fp, _, fn, uncertain = counts.transpose(2, 0, 1)
        means, _ = _fold_mean(counts[..., :4])
        uncertain_pcts, _ = _fold_mean(100.0 * uncertain / test_size)
        precisions, _ = _fold_mean(tp / np.maximum(tp + fp, 1), tp + fp > 0)
        recalls, _ = _fold_mean(tp / np.maximum(tp + fn, 1), tp + fn > 0)
        for (fraction, k, l_value), ok, *stats, cell_means in zip(
            cells, feasible, precisions, recalls, uncertain_pcts, means
        ):
            rows.append(
                GridRow(k, str(metric), l_value, fraction, "ok", *stats, *cell_means)
                if ok
                else GridRow(k, str(metric), l_value, fraction, status="infeasible")
            )
    return sorted(rows, key=_sort_key)


def online_grid(
    trials: Sequence[LabeledTrial],
    grid: GridSpec,
    base_cfg: LoopConfig,
    n_runs: int,
    base_seed: int = 0,
) -> list[GridRow]:
    """Replay the online loop for every (k, metric, l) cell.

    Each cell averages ``n_runs`` shuffled runs from ``base_seed``; the training
    fraction axis does not apply (the whole stream is consumed) and is
    reported as 1.0. Cells whose config is unsatisfiable (seed phase smaller
    than k) become infeasible rows.
    """
    trials = list(trials)
    rows = []
    for metric in grid.metrics:
        # One distance store serves all k x l cells of a metric; a fresh
        # cache per metric keeps at most one store alive.
        distances: dict = {}
        for k in grid.k_values:
            for l_value in grid.l_values:
                try:
                    cfg = dataclasses.replace(base_cfg, k=k, metric=metric, l_value=l_value)
                except ValueError:
                    rows.append(GridRow(k, str(metric), l_value, 1.0, status="infeasible"))
                    continue
                reports = run_replicated(trials, cfg, n_runs, base_seed, feature_cache=distances)
                summary = summarize_runs(reports)
                rows.append(
                    GridRow(
                        k=k,
                        metric=str(metric),
                        l_value=l_value,
                        train_fraction=1.0,
                        status="ok",
                        precision=summary.mean_precision,
                        recall=summary.mean_recall,
                        uncertain_pct=100.0 * summary.mean_uncertain / summary.n_records,
                        tp=summary.mean_tp,
                        fp=summary.mean_fp,
                        tn=summary.mean_tn,
                        fn=summary.mean_fn,
                    )
                )
    return sorted(rows, key=_sort_key)
