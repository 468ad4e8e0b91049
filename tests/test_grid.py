"""Grid sweeps against a direct classify-per-sample oracle."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forceknn.classifier import (
    COSINE,
    EUCLIDEAN,
    MANHATTAN,
    Decision,
    KnnModel,
    Label,
    classify,
    minkowski,
)
from forceknn.datagen import gen_dataset
from forceknn.grid import GridRow, GridSpec, _stable_argsort, online_grid, static_grid
from forceknn.online import LabeledTrial, LoopConfig
from forceknn.signal import ForceTrace, PreprocessConfig, preprocess


def left_fold(values):
    """Plain left-to-right float sum: the reference order for seed means."""
    total = 0.0
    for value in values:
        total += value
    return total


def static_cell_oracle(trials, seed, fraction, k, metric, l_value):
    """Recompute one static cell with the public classify pipeline."""
    n = len(trials)
    test_size = max(1, round(n * 100 / 704))
    order = np.random.default_rng(seed).permutation(n)
    pool, test = order[: n - test_size], order[n - test_size :]
    features = [preprocess(t.trace) for t in trials]
    train_size = round(fraction * len(pool))
    model = KnnModel(
        [(features[i], trials[i].truth) for i in pool[:train_size]],
        k=k,
        metric=metric,
        l_value=l_value,
    )
    tp = fp = tn = fn = unc = 0
    for i in test:
        decision = classify(model, features[i])
        truth = trials[i].truth
        if decision is Decision.UNCERTAIN:
            unc += 1
        elif decision is Decision.POSITIVE:
            tp, fp = (tp + 1, fp) if truth is Label.POSITIVE else (tp, fp + 1)
        else:
            tn, fn = (tn + 1, fn) if truth is Label.NEGATIVE else (tn, fn + 1)
    return tp, fp, tn, fn, unc, len(test)


@pytest.fixture(scope="module")
def trials():
    return gen_dataset(25, 30, rng_seed=77)


# Few distinct values, so rows are full of exact ties, NaN, signed zeros and infinities.
_SORT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def sort_blocks(draw):
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 40))
    values = draw(st.lists(_SORT_VALUES, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    block = np.array(values, dtype=float).reshape(n_rows, n_cols)
    return block.T if draw(st.booleans()) else block  # a transpose is not contiguous


class TestStableArgsort:
    @settings(deadline=None, max_examples=200)
    @given(block=sort_blocks())
    def test_equals_numpy_stable_argsort(self, block):
        expected = np.argsort(block, axis=1, kind="stable")
        got = _stable_argsort(block)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(k_values=())
        with pytest.raises(ValueError):
            GridSpec(k_values=(0,))
        with pytest.raises(ValueError):
            GridSpec(l_values=(40.0,))
        with pytest.raises(ValueError):
            GridSpec(train_fractions=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(train_fractions=(1.5,))

    @pytest.mark.parametrize(
        "axes",
        [
            {"k_values": (3, 5, 3)},
            {"metrics": (COSINE, EUCLIDEAN, COSINE)},
            {"l_values": (50.0, 50)},
            {"train_fractions": (1.0, 0.5, 1.0)},
        ],
    )
    def test_repeated_axis_value_rejected(self, axes):
        with pytest.raises(ValueError, match="repeats a value"):
            GridSpec(**axes)


class TestStaticGrid:
    def test_single_cell_matches_classify_oracle(self, trials):
        grid = GridSpec(
            k_values=(5,), metrics=(COSINE,), l_values=(80.0,), train_fractions=(0.8,)
        )
        rows = static_grid(trials, grid, seeds=(3,))
        assert len(rows) == 1
        row = rows[0]
        tp, fp, tn, fn, unc, n_test = static_cell_oracle(trials, 3, 0.8, 5, COSINE, 80.0)
        assert (row.tp, row.fp, row.tn, row.fn) == (tp, fp, tn, fn)
        assert row.uncertain_pct == pytest.approx(100.0 * unc / n_test)
        assert row.status == "ok"
        expected_precision = tp / (tp + fp) if tp + fp else None
        assert row.precision == expected_precision

    def test_multi_seed_cells_average_the_oracle(self):
        grid = GridSpec(
            k_values=(3, 7),
            metrics=(EUCLIDEAN,),
            l_values=(50.0, 100.0),
            train_fractions=(0.5, 1.0),
        )
        # Ten seeds, since numpy's unrolled sum reorders from eight values on.
        # On this dataset some cell's mean changes when the seeds are added in
        # reverse, pairwise or compensated, so the exact check pins the order.
        trials = gen_dataset(40, 40, rng_seed=7)
        seeds = tuple(range(10))
        rows = static_grid(trials, grid, seeds=seeds)
        assert len(rows) == 8
        for row in rows:
            per_seed = [
                static_cell_oracle(trials, s, row.train_fraction, row.k, EUCLIDEAN, row.l_value)
                for s in seeds
            ]
            assert (row.tp, row.fp, row.tn, row.fn) == tuple(
                left_fold(c[i] for c in per_seed) / len(seeds) for i in range(4)
            )
            uncertain = [100.0 * c[4] / c[5] for c in per_seed]
            assert row.uncertain_pct == left_fold(uncertain) / len(seeds)
            precisions = [c[0] / (c[0] + c[1]) for c in per_seed if c[0] + c[1] > 0]
            recalls = [c[0] / (c[0] + c[3]) for c in per_seed if c[0] + c[3] > 0]
            assert row.precision == (
                left_fold(precisions) / len(precisions) if precisions else None
            )
            assert row.recall == (left_fold(recalls) / len(recalls) if recalls else None)

    def test_zero_norm_trial_follows_the_classify_rules(self, trials):
        # an all-zero trace abstains as a query and sits at cosine distance 1
        # as a reference; odd k at l=50 abstains on nothing else
        zero = ForceTrace(np.zeros(len(trials[0].trace)), trials[0].trace.sample_rate)
        with_zero = [LabeledTrial("zero", zero, Label.POSITIVE), *trials]
        n = len(with_zero)
        test_size = max(1, round(n * 100 / 704))
        in_test = {
            s: 0 in np.random.default_rng(s).permutation(n)[n - test_size :] for s in range(40)
        }
        grid = GridSpec(
            k_values=(3,), metrics=(COSINE,), l_values=(50.0,), train_fractions=(1.0,)
        )
        for answer in (True, False):
            seed = min(s for s in in_test if in_test[s] is answer)
            row = static_grid(with_zero, grid, seeds=(seed,))[0]
            tp, fp, tn, fn, unc, n_test = static_cell_oracle(with_zero, seed, 1.0, 3, COSINE, 50.0)
            assert (row.tp, row.fp, row.tn, row.fn) == (tp, fp, tn, fn)
            assert row.uncertain_pct == pytest.approx(100.0 * unc / n_test)
            assert unc == int(in_test[seed])

    def test_minkowski2_row_equals_euclidean_row(self, trials):
        grid = GridSpec(
            k_values=(5,),
            metrics=(EUCLIDEAN, minkowski(2.0)),
            l_values=(50.0, 100.0),
            train_fractions=(1.0,),
        )
        rows = static_grid(trials, grid, seeds=(0, 1))
        by_metric = {}
        for row in rows:
            by_metric.setdefault(row.metric, {})[row.l_value] = row
        for l_value in (50.0, 100.0):
            a, b = by_metric["euclidean"][l_value], by_metric["minkowski:2"][l_value]
            for attr in ("precision", "recall", "uncertain_pct", "tp", "fp", "tn", "fn"):
                va, vb = getattr(a, attr), getattr(b, attr)
                if va is None or vb is None:
                    assert va == vb
                else:
                    assert va == pytest.approx(vb, abs=1e-9)

    def test_infeasible_cells_are_explicit_rows(self, trials):
        # 55 trials -> test 8, pool 47; fraction 0.05 trains on 2 samples
        grid = GridSpec(
            k_values=(3, 21), metrics=(COSINE,), l_values=(100.0,), train_fractions=(0.05, 1.0)
        )
        rows = static_grid(trials, grid, seeds=(0,))
        status = {(row.k, row.train_fraction): row.status for row in rows}
        assert status[(3, 0.05)] == "infeasible"
        assert status[(21, 0.05)] == "infeasible"
        assert status[(3, 1.0)] == "ok"
        assert status[(21, 1.0)] == "ok"
        infeasible = [row for row in rows if row.status == "infeasible"]
        assert all(row.precision is None and row.tp is None for row in infeasible)

    def test_rows_sorted_deterministically(self, trials):
        grid = GridSpec(
            k_values=(7, 3),
            metrics=(EUCLIDEAN, COSINE),
            l_values=(100.0, 50.0),
            train_fractions=(1.0, 0.5),
        )
        rows = static_grid(trials, grid, seeds=(0,))
        keys = [(r.k, r.metric, r.l_value, r.train_fraction) for r in rows]
        assert keys == sorted(keys)

    def test_requires_seeds_and_data(self, trials):
        with pytest.raises(ValueError):
            static_grid(trials, seeds=())
        with pytest.raises(ValueError):
            static_grid(trials[:1])

    def test_negative_seed_rejected(self, trials):
        with pytest.raises(ValueError, match="seeds must be an integer >= 0"):
            static_grid(trials, seeds=(0, -1))

    def test_one_distance_matrix_alive_at_a_time(self):
        # Coarse features keep each row fill's temporaries small beside the matrix.
        # A split's sort holds about 0.6 matrices of (test, pool) arrays at any n,
        # so one live matrix peaks near 1.6; a second one would pass 2.
        trials = gen_dataset(150, 150, rng_seed=3)
        coarse = PreprocessConfig(ds_window=50, ds_stride=50)
        grid = GridSpec(k_values=(5, 11), l_values=(50.0, 100.0), train_fractions=(0.5, 1.0))
        static_grid(trials[:40], grid, coarse)  # caches the smoothing projection
        tracemalloc.start()
        try:
            static_grid(trials, grid, coarse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid.metrics) == 4
        matrix = 8 * len(trials) ** 2
        features = 8 * len(trials) * len(preprocess(trials[0].trace, coarse))
        assert peak < 1.75 * matrix + features

    def test_fills_only_the_tested_rows(self):
        # Two seeds test at most 86 of 300 trials, so the restricted matrix and a
        # split's arrays stay well below one square matrix.
        trials = gen_dataset(150, 150, rng_seed=3)
        coarse = PreprocessConfig(ds_window=50, ds_stride=50)
        grid = GridSpec(k_values=(5, 11), l_values=(50.0, 100.0), train_fractions=(0.5, 1.0))
        static_grid(trials[:40], grid, coarse, seeds=(0, 1))  # caches the smoothing projection
        tracemalloc.start()
        try:
            static_grid(trials, grid, coarse, seeds=(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = 8 * len(trials) ** 2
        features = 8 * len(trials) * len(preprocess(trials[0].trace, coarse))
        assert peak < matrix + features

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, a few ms of every grid run.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys; from forceknn.datagen import gen_dataset; "
            "from forceknn.grid import static_grid; static_grid(gen_dataset(20, 20, rng_seed=1)); "
            "print('numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_tie_group_split_by_a_fraction_boundary(self):
        # Exact copies with the opposite label tie with their source on every
        # metric, and all-zero traces tie with each other; the seed puts
        # members of a tie group on both sides of the two smallest training
        # prefixes, so each prefix must keep the stable order of its own part.
        base = gen_dataset(12, 12, rng_seed=5)
        flip = {Label.POSITIVE: Label.NEGATIVE, Label.NEGATIVE: Label.POSITIVE}
        copies = [
            LabeledTrial(f"copy{j}.{c}", base[j].trace, flip[base[j].truth])
            for j in range(4)
            for c in range(2)
        ]
        flat = ForceTrace(np.zeros(len(base[0].trace)), base[0].trace.sample_rate)
        zeros = [
            LabeledTrial(f"zero{i}", flat, (Label.POSITIVE, Label.NEGATIVE)[i % 2])
            for i in range(4)
        ]
        dataset = base + copies + zeros
        n = len(dataset)
        copy_groups = [[j, len(base) + 2 * j, len(base) + 2 * j + 1] for j in range(4)]
        zero_group = list(range(n - len(zeros), n))
        pool_size = n - max(1, round(n * 100 / 704))
        grid = GridSpec(k_values=(1, 3, 5))
        smallest = sorted(round(f * pool_size) for f in grid.train_fractions)[:2]

        def split(group, pool, size):
            inside = [i in pool[:size] for i in group if i in pool]
            return any(inside) and not all(inside)

        def splits_ties(seed):
            pool = list(np.random.default_rng(seed).permutation(n)[:pool_size])
            return split(zero_group, pool, smallest[0]) and all(
                any(split(group, pool, size) for group in copy_groups) for size in smallest
            )

        seed = min(s for s in range(100) if splits_ties(s))
        rows = static_grid(dataset, grid, seeds=(seed,))
        assert len(rows) == 3 * 4 * 6 * 7
        for row in rows:
            metric = next(m for m in grid.metrics if str(m) == row.metric)
            tp, fp, tn, fn, unc, n_test = static_cell_oracle(
                dataset, seed, row.train_fraction, row.k, metric, row.l_value
            )
            assert row.status == "ok"
            assert (row.tp, row.fp, row.tn, row.fn) == (tp, fp, tn, fn)
            assert row.uncertain_pct == 100.0 * unc / n_test

    def test_unsorted_axes_give_the_sorted_axes_rows(self, trials):
        axes = dict(metrics=(MANHATTAN, COSINE), train_fractions=(1.0, 0.3))
        unsorted = GridSpec(k_values=(21, 5, 11), l_values=(90.0, 50.0, 100.0, 70.0), **axes)
        in_order = GridSpec(k_values=(5, 11, 21), l_values=(50.0, 70.0, 90.0, 100.0), **axes)
        rows = static_grid(trials, unsorted, seeds=(5,))
        assert rows == static_grid(trials, in_order, seeds=(5,))
        assert len(rows) == 3 * 2 * 4 * 2
        pool_size = len(trials) - max(1, round(len(trials) * 100 / 704))
        for row in rows:
            if round(row.train_fraction * pool_size) < row.k:
                assert row.status == "infeasible"
                continue
            metric = next(m for m in axes["metrics"] if str(m) == row.metric)
            tp, fp, tn, fn, unc, n_test = static_cell_oracle(
                trials, 5, row.train_fraction, row.k, metric, row.l_value
            )
            assert (row.tp, row.fp, row.tn, row.fn) == (tp, fp, tn, fn)
            assert row.uncertain_pct == 100.0 * unc / n_test


@st.composite
def static_cases(draw):
    """A small generated dataset plus a grid spec and shuffle seeds for it.

    The dataset may hold exact copies of other traces (any label), which tie
    on distance, and all-zero traces, which abstain as cosine queries and
    sit at cosine distance 1 as references.
    """
    trials = gen_dataset(
        draw(st.integers(8, 14)), draw(st.integers(8, 14)), rng_seed=draw(st.integers(0, 999))
    )
    labels = st.sampled_from(Label)
    sources = draw(st.lists(st.integers(0, 3), max_size=16))
    copies = [
        LabeledTrial(f"copy{i}", trials[j].trace, draw(labels)) for i, j in enumerate(sources)
    ]
    flat = ForceTrace(np.zeros(len(trials[0].trace)), trials[0].trace.sample_rate)
    zeros = [LabeledTrial(f"zero{i}", flat, draw(labels)) for i in range(draw(st.integers(0, 3)))]
    pool = trials + copies + zeros
    dataset = [pool[i] for i in draw(st.permutations(range(len(pool))))]
    metrics = [COSINE, EUCLIDEAN, MANHATTAN, minkowski(3.0)]
    # Up to 4 k values, reaching past the smallest training sizes, so that one
    # fraction's vote can hold feasible and infeasible k side by side.
    grid = GridSpec(
        k_values=tuple(draw(st.lists(st.integers(1, 15), min_size=1, max_size=4, unique=True))),
        metrics=tuple(
            draw(st.lists(st.sampled_from(metrics), min_size=1, max_size=2, unique=True))
        ),
        l_values=tuple(draw(st.lists(st.floats(50.0, 100.0), min_size=1, max_size=2, unique=True))),
        train_fractions=tuple(
            draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3, unique=True))
        ),
    )
    seeds = tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2)))
    return dataset, grid, seeds


class TestStaticGridMatchesClassify:
    @settings(deadline=None, max_examples=100)
    @given(case=static_cases())
    def test_every_cell_averages_the_oracle(self, case):
        dataset, grid, seeds = case
        rows = static_grid(dataset, grid, seeds=seeds)
        assert len(rows) == (
            len(grid.k_values) * len(grid.metrics) * len(grid.l_values) * len(grid.train_fractions)
        )
        pool_size = len(dataset) - max(1, round(len(dataset) * 100 / 704))
        for row in rows:
            assert row.metric in {str(m) for m in grid.metrics}
            metric = next(m for m in grid.metrics if str(m) == row.metric)
            if round(row.train_fraction * pool_size) < row.k:
                assert row.status == "infeasible" and row.tp is None
                continue
            cells = [
                static_cell_oracle(dataset, s, row.train_fraction, row.k, metric, row.l_value)
                for s in seeds
            ]
            n = len(cells)
            assert row.status == "ok"
            assert (row.tp, row.fp, row.tn, row.fn) == tuple(
                left_fold(cell[i] for cell in cells) / n for i in range(4)
            )
            uncertain = [100.0 * cell[4] / cell[5] for cell in cells]
            assert row.uncertain_pct == left_fold(uncertain) / n
            precisions = [tp / (tp + fp) for tp, fp, *_ in cells if tp + fp]
            recalls = [tp / (tp + fn) for tp, _, _, fn, *_ in cells if tp + fn]
            assert row.precision == (
                left_fold(precisions) / len(precisions) if precisions else None
            )
            assert row.recall == (left_fold(recalls) / len(recalls) if recalls else None)


class TestOnlineGrid:
    def test_cells_match_replicated_summary(self, trials):
        from forceknn.metrics import summarize_runs
        from forceknn.online import run_replicated

        grid = GridSpec(
            k_values=(5,), metrics=(COSINE,), l_values=(100.0,), train_fractions=(1.0,)
        )
        base_cfg = LoopConfig(k=5, seed_size=12)
        rows = online_grid(trials, grid, base_cfg, 3)
        assert len(rows) == 1
        reports = run_replicated(trials, LoopConfig(k=5, seed_size=12, l_value=100.0), 3)
        summary = summarize_runs(reports)
        assert rows[0].precision == summary.mean_precision
        assert rows[0].tp == summary.mean_tp
        assert rows[0].uncertain_pct == pytest.approx(
            100.0 * summary.mean_uncertain / summary.n_records
        )

    def test_every_cell_matches_its_replicated_summary(self, trials, monkeypatch):
        import forceknn.online
        from forceknn.metrics import summarize_runs
        from forceknn.online import run_replicated

        preprocessed = []
        feature_matrix = forceknn.online._feature_matrix

        def counting_feature_matrix(trials, cfg):
            preprocessed.extend(trial.trace for trial in trials)
            return feature_matrix(trials, cfg)

        monkeypatch.setattr(forceknn.online, "_feature_matrix", counting_feature_matrix)
        grid = GridSpec(
            k_values=(3, 5),
            metrics=(COSINE, EUCLIDEAN, minkowski(3.0)),
            l_values=(60.0, 100.0),
            train_fractions=(1.0,),
        )
        base_cfg = LoopConfig(seed_size=12)
        rows = online_grid(trials, grid, base_cfg, 2, base_seed=4)
        # one distance matrix per metric serves all of that metric's k x l cells
        assert len(preprocessed) == len(trials) * len(grid.metrics)
        keys = [(r.k, r.metric, r.l_value) for r in rows]
        assert keys == sorted(keys) and len(keys) == 12
        for row in rows:
            metric = next(m for m in grid.metrics if str(m) == row.metric)
            cfg = LoopConfig(k=row.k, metric=metric, l_value=row.l_value, seed_size=12)
            summary = summarize_runs(run_replicated(trials, cfg, 2, base_seed=4))
            assert row.status == "ok" and row.train_fraction == 1.0
            assert (row.precision, row.recall, row.tp, row.fp, row.tn, row.fn) == (
                summary.mean_precision,
                summary.mean_recall,
                summary.mean_tp,
                summary.mean_fp,
                summary.mean_tn,
                summary.mean_fn,
            )
            assert row.uncertain_pct == 100.0 * summary.mean_uncertain / summary.n_records

    def test_seed_phase_smaller_than_k_is_infeasible(self, trials):
        grid = GridSpec(
            k_values=(5, 25), metrics=(COSINE,), l_values=(100.0,), train_fractions=(1.0,)
        )
        rows = online_grid(trials, grid, LoopConfig(k=5, seed_size=12), 2)
        status = {row.k: row.status for row in rows}
        assert status[5] == "ok"
        assert status[25] == "infeasible"
