"""Grid sweeps over k, metric, minimum-agreement value and training size.

Static mode works on fixed splits: hold out a test share at the 604:100
ratio, subsample the remaining pool down to each training fraction,
classify the test split and average per-cell statistics over shuffle seeds.
It ranks through the replay's distance rows, filled only for the trials
some seed tests, taken first: one matrix per metric, shared by every seed
and released before the next metric's is built. The rows are sorted once per
(metric, seed) over the whole pool, by numpy's unstable SIMD sort with an
audit that sorts again stably every row holding a tie; each training
fraction filters that order down to its prefix, and one vote decides all
its k and l-values at once. Online mode replays the growing-dataset loop
per (k, metric, l) cell.

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
    _distance_matrix,
    _vote,
    min_agreeing_count,
    minkowski,
)
from .metrics import _fold_mean, summarize_runs
from .online import LabeledTrial, LoopConfig, _feature_matrix, run_replicated
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


def _split_counts(
    distances: np.ndarray, answered: np.ndarray, is_pos: np.ndarray,
    order: np.ndarray, pool_size: int, grid: GridSpec, thresholds: np.ndarray,
) -> np.ndarray:
    """tp, fp, tn, fn and uncertain of each of ``static_grid``'s cells on the split ``order``.

    ``order`` and ``is_pos`` number the trials as the columns of ``distances``;
    a test trial's row and ``answered`` flag share its column's index. The split's
    arrays live for this call only, so none is alive while the next are built.
    """
    pool_idx, test_idx = order[:pool_size], order[pool_size:]
    pool_pos, truth_pos = is_pos[pool_idx], is_pos[test_idx]
    # The test trials' rows (each test trial, as the query, to every pool trial)
    # in stable order: equal distances keep pool order, so the columns below m
    # of the full order are the stable order of the first m. int32 (n < 2**14) extracts faster.
    full = _stable_argsort(distances[np.ix_(test_idx, pool_idx)]).astype(np.int32)
    # Positive and negative votes per (fraction, k, l-value, test trial), every k's count
    # read off one running count; infeasible cells (train_size < k) stay undecided.
    k_values = np.array(grid.k_values)
    shape = (len(grid.train_fractions), len(k_values), len(grid.l_values))
    decided = np.zeros((2, *shape, len(test_idx)), dtype=bool)
    for f, fraction in enumerate(grid.train_fractions):
        train_size = round(fraction * pool_size)
        feasible = k_values <= train_size
        if feasible.any():
            ks = k_values[feasible]
            ranked = np.extract(full < train_size, full).reshape(len(test_idx), train_size)
            n_pos = np.cumsum(pool_pos[ranked[:, : ks.max()]], axis=1)[:, ks - 1].T[:, np.newaxis]
            decided[:, f, feasible] = _vote(n_pos, ks.reshape(-1, 1, 1), thresholds[feasible])
    pos, neg = decided & answered[test_idx]
    outcomes = (pos & truth_pos, pos & ~truth_pos, neg & ~truth_pos, neg & truth_pos, ~(pos | neg))
    return np.count_nonzero(np.stack(outcomes, axis=-2), axis=-1).reshape(-1, 5)


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
    With the trials some seed tests taken first (388 of 704 on the default seeds),
    one matrix per metric holds their distance rows, freed before the next's is built;
    the bound check still counts 8 * n**2 bytes (past 1 GiB, ValueError before
    any trial is preprocessed). Each seed's test rows get one stable sort over
    the pool: an unstable sort, with rows whose sorted values do not strictly
    increase sorted again stably. A fraction keeps the entries below its
    training size, the stable order of its prefix, ties and NaN included, and
    one vote fills its every (k, l-value) cell. A cell's statistics are
    left-fold means over seeds in seed order. Seeds must be non-negative.
    """
    trials = list(trials)
    if not seeds:
        raise ValueError("at least one seed is required")
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be non-negative, got {', '.join(map(str, seeds))}")
    if len(trials) < 2:
        raise ValueError("dataset too small to split")
    n = len(trials)
    test_size = max(1, round(n * _TEST_SHARE))
    pool_size = n - test_size
    orders = [np.random.default_rng(seed).permutation(n) for seed in seeds]
    tested = np.zeros(n, dtype=bool)
    tested[np.concatenate([order[pool_size:] for order in orders])] = True
    first = np.concatenate((np.flatnonzero(tested), np.flatnonzero(~tested)))
    column = np.argsort(first)  # trial t's column, and a tested trial's row, in each matrix
    features = _feature_matrix(trials, preprocess_cfg)[first]
    is_pos = np.array([trials[t].truth is Label.POSITIVE for t in first])

    # N_c per (k, l-value): one vote decides every (k, l-value) of a fraction.
    thresholds = np.array(
        [[[min_agreeing_count(k, l_value)] for l_value in grid.l_values] for k in grid.k_values]
    )
    cells = list(itertools.product(grid.train_fractions, grid.k_values, grid.l_values))
    feasible = [round(fraction * pool_size) >= k for fraction, k, _ in cells]
    rows = []
    for metric in grid.metrics:
        distances, answered = _distance_matrix(features, metric, np.count_nonzero(tested))
        # tp, fp, tn, fn and uncertain per (seed, cell).
        counts = np.stack([
            _split_counts(distances, answered, is_pos, column[order], pool_size, grid, thresholds)
            for order in orders
        ])
        del distances  # one matrix alive at a time: free it before the next metric's
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
        # One distance matrix serves all k x l cells of a metric; rebinding
        # the cache frees the last metric's matrix before this one is built.
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
