"""Confusion tallies, ratios, window series and cycle-time arithmetic."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forceknn.classifier import Decision, Label
from forceknn.metrics import (
    ConfusionCounts,
    ConfusionMode,
    TimeModel,
    _fold_mean,
    confusion,
    cycle_time,
    cycle_time_total,
    precision,
    recall,
    sliding_window_series,
    summarize_runs,
    verification_savings,
)
from forceknn.online import LoopConfig, Phase, RecordColumns, RunReport, TrialRecord


def left_fold(values):
    """Plain left-to-right float sum: the reference order for run means."""
    total = 0.0
    for value in values:
        total += value
    return total


def record(predicted, truth, phase=Phase.CLASSIFIED, index=0):
    return TrialRecord(f"t{index}", predicted, truth, phase)


def random_records(rng, n):
    out = []
    for i in range(n):
        phase = Phase(rng.choice(["seed", "classified", "fallback"], p=[0.1, 0.6, 0.3]))
        truth = Label(rng.choice(["positive", "negative"]))
        if phase is Phase.CLASSIFIED:
            predicted = Label(rng.choice(["positive", "negative"]))
        else:
            predicted = truth
        out.append(record(predicted, truth, phase, i))
    return out


def tally_oracle(records, mode):
    tp = fp = tn = fn = unc = 0
    for r in records:
        if mode is ConfusionMode.CLASSIFIER_ONLY and r.phase is not Phase.CLASSIFIED:
            unc += 1
        elif r.predicted is Label.POSITIVE and r.truth is Label.POSITIVE:
            tp += 1
        elif r.predicted is Label.POSITIVE:
            fp += 1
        elif r.truth is Label.NEGATIVE:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn, unc


class TestTrialRecord:
    def test_decision_and_verified_follow_phase(self):
        for phase in (Phase.SEED, Phase.FALLBACK):
            r = record(Label.NEGATIVE, Label.NEGATIVE, phase)
            assert (r.decision, r.verified) == (Decision.UNCERTAIN, True)
        for label in Label:
            r = record(label, Label.POSITIVE)
            assert (r.decision, r.verified) == (Decision.from_label(label), False)


class TestConfusion:
    def test_all_verified_records_count_as_uncertain(self):
        records = [record(Label.POSITIVE, Label.POSITIVE, Phase.FALLBACK, i) for i in range(7)]
        counts = confusion(records)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 0, 0)
        assert counts.uncertain == 7

    def test_one_record_per_cell(self):
        records = [
            record(Label.POSITIVE, Label.POSITIVE, index=0),
            record(Label.POSITIVE, Label.NEGATIVE, index=1),
            record(Label.NEGATIVE, Label.NEGATIVE, index=2),
            record(Label.NEGATIVE, Label.POSITIVE, index=3),
        ]
        counts = confusion(records)
        assert (counts.tp, counts.fp, counts.tn, counts.fn, counts.uncertain) == (1, 1, 1, 1, 0)

    @pytest.mark.parametrize("mode", list(ConfusionMode))
    def test_matches_tally_oracle(self, mode):
        rng = np.random.default_rng(2)
        for _ in range(20):
            records = random_records(rng, int(rng.integers(1, 60)))
            counts = confusion(records, mode)
            assert (counts.tp, counts.fp, counts.tn, counts.fn, counts.uncertain) == tally_oracle(
                records, mode
            )

    def test_end_to_end_scores_fallbacks_as_correct(self):
        records = [
            record(Label.POSITIVE, Label.POSITIVE, Phase.FALLBACK, 0),
            record(Label.NEGATIVE, Label.NEGATIVE, Phase.SEED, 1),
            record(Label.NEGATIVE, Label.POSITIVE, Phase.CLASSIFIED, 2),
        ]
        counts = confusion(records, ConfusionMode.END_TO_END)
        assert (counts.tp, counts.fp, counts.tn, counts.fn, counts.uncertain) == (1, 0, 1, 1, 0)

    def test_cell_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            records = random_records(rng, int(rng.integers(1, 80)))
            counts = confusion(records)
            assert counts.total == len(records)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            confusion([])
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestPrecisionRecall:
    def test_perfect_predictions(self):
        counts = ConfusionCounts(tp=2)
        assert precision(counts) == 1.0
        assert recall(counts) == 1.0

    def test_half_precision(self):
        assert precision(ConfusionCounts(tp=50, fp=50)) == 0.5

    def test_undefined_ratios_are_none_not_sentinels(self):
        counts = ConfusionCounts(tn=10, uncertain=5)
        assert precision(counts) is None
        assert recall(counts) is None

    def test_bounds_when_defined(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = ConfusionCounts(*(int(x) for x in rng.integers(0, 30, size=5)))
            for value in (precision(counts), recall(counts)):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_pooled_table_means_differ_from_per_run_mean(self):
        # ratios of mean cells: 110.2 / (110.2 + 2.6) = 0.97695...; the
        # reported 97.72% must therefore be a mean of per-run precisions
        pooled = 110.2 / (110.2 + 2.6)
        assert pooled == pytest.approx(0.9770, abs=5e-4)
        assert abs(pooled - 0.9772) > 1e-4


class TestSlidingWindowSeries:
    def test_hundred_correct_classified_records(self):
        records = [record(Label.POSITIVE, Label.POSITIVE, index=i) for i in range(100)]
        series = sliding_window_series(records, 100)
        assert len(series) == 1
        assert series[0].index == 99
        assert series[0].precision == 1.0
        assert series[0].uncertain_fraction == 0.0

    def test_hundred_verified_records(self):
        records = [record(Label.NEGATIVE, Label.NEGATIVE, Phase.FALLBACK, i) for i in range(100)]
        series = sliding_window_series(records, 100)
        assert len(series) == 1
        assert series[0].precision is None
        assert series[0].uncertain_fraction == 1.0

    def test_short_stream_gives_empty_series(self):
        records = [record(Label.POSITIVE, Label.POSITIVE)]
        assert sliding_window_series(records, 100) == []

    def test_matches_per_window_recomputation(self):
        rng = np.random.default_rng(7)
        records = random_records(rng, 150)
        for window in (1, 5, 50):
            series = sliding_window_series(records, window)
            assert len(series) == 150 - window + 1
            for point in series:
                chunk = records[point.index - window + 1 : point.index + 1]
                counts = confusion(chunk)
                assert point.precision == precision(counts)
                expected_unc = sum(1 for r in chunk if r.verified) / window
                assert point.uncertain_fraction == pytest.approx(expected_unc)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            sliding_window_series([record(Label.POSITIVE, Label.POSITIVE)], 0)


class TestCycleTime:
    def test_no_verifications(self):
        records = [record(Label.POSITIVE, Label.POSITIVE, index=i) for i in range(12)]
        total, _ = cycle_time(records, TimeModel(45.0, 5.0))
        assert total == 12 * 40.0

    def test_random_flags_match_summation_oracle(self):
        rng = np.random.default_rng(11)
        tm = TimeModel(45.0, 5.0)
        for _ in range(20):
            records = random_records(rng, int(rng.integers(1, 120)))
            total, series = cycle_time(records, tm, window=10)
            expected = sum(45.0 if r.verified else 40.0 for r in records)
            assert total == pytest.approx(expected, rel=1e-12)
            for point in series:
                chunk = records[point.index - 9 : point.index + 1]
                window_mean = sum(45.0 if r.verified else 40.0 for r in chunk) / 10
                assert point.mean_cost == pytest.approx(window_mean, rel=1e-12)

    def test_linearity_in_verification_count(self):
        tm = TimeModel(45.0, 5.0)
        base = [record(Label.POSITIVE, Label.POSITIVE, Phase.CLASSIFIED, i) for i in range(20)]
        flipped = list(base)
        flipped[7] = record(Label.POSITIVE, Label.POSITIVE, Phase.FALLBACK, 7)
        assert cycle_time(flipped, tm)[0] - cycle_time(base, tm)[0] == pytest.approx(
            tm.verification_cost
        )

    def test_closed_form_with_fractional_means(self):
        tm = TimeModel(45.0, 5.0)
        assert cycle_time_total(704, 401.7, tm) == pytest.approx(704 * 45 - (704 - 401.7) * 5)
        assert verification_savings(704, 401.7, tm) == pytest.approx(1511.5)

    def test_time_model_validation(self):
        with pytest.raises(ValueError):
            TimeModel(0.0, 5.0)
        with pytest.raises(ValueError):
            TimeModel(45.0, 0.0)
        with pytest.raises(ValueError):
            TimeModel(4.0, 5.0)


def report_from_records(records, l_value=100.0):
    cfg = LoopConfig(l_value=l_value)
    dataset_size = sum(1 for r in records if r.verified)
    return RunReport(
        records=tuple(records),
        final_dataset_size=dataset_size,
        config=cfg,
        rng_seed=0,
        oracle_calls=dataset_size,
    )


class TestSummarizeRuns:
    def test_single_run_echoes_its_stats(self):
        records = [
            record(Label.POSITIVE, Label.POSITIVE, Phase.SEED, 0),
            record(Label.POSITIVE, Label.POSITIVE, index=1),
            record(Label.POSITIVE, Label.NEGATIVE, index=2),
            record(Label.NEGATIVE, Label.POSITIVE, index=3),
        ]
        row = summarize_runs([report_from_records(records)])
        assert row.n_runs == 1
        assert row.mean_precision == pytest.approx(0.5)
        assert row.mean_recall == pytest.approx(0.5)
        assert (row.mean_tp, row.mean_fp, row.mean_fn) == (1.0, 1.0, 1.0)
        assert row.mean_uncertain == 1.0
        assert row.mean_verification_count == 1.0

    def test_mean_of_two_run_precisions(self):
        run_a = [record(Label.POSITIVE, Label.POSITIVE, index=i) for i in range(10)]
        run_b = [record(Label.POSITIVE, Label.POSITIVE, index=i) for i in range(9)] + [
            record(Label.POSITIVE, Label.NEGATIVE, index=9)
        ]
        row = summarize_runs([report_from_records(run_a), report_from_records(run_b)])
        assert row.mean_precision == pytest.approx((1.0 + 0.9) / 2)

    def test_undefined_precision_runs_are_excluded_and_counted(self):
        defined = [record(Label.POSITIVE, Label.POSITIVE, index=i) for i in range(4)]
        undefined = [record(Label.NEGATIVE, Label.NEGATIVE, index=i) for i in range(4)]
        row = summarize_runs([report_from_records(defined), report_from_records(undefined)])
        assert row.mean_precision == 1.0
        assert row.precision_undefined_runs == 1
        assert row.recall_undefined_runs == 1

    def test_thirty_runs_match_flat_recomputation(self):
        rng = np.random.default_rng(13)
        reports = [report_from_records(random_records(rng, 40)) for _ in range(30)]
        row = summarize_runs(reports)
        per_run = [tally_oracle(r.records, ConfusionMode.CLASSIFIER_ONLY) for r in reports]
        assert row.mean_tp == left_fold(t[0] for t in per_run) / 30
        assert row.mean_fp == left_fold(t[1] for t in per_run) / 30
        assert row.mean_tn == left_fold(t[2] for t in per_run) / 30
        assert row.mean_fn == left_fold(t[3] for t in per_run) / 30
        assert row.mean_uncertain == left_fold(t[4] for t in per_run) / 30
        run_precisions = [t[0] / (t[0] + t[1]) for t in per_run if t[0] + t[1] > 0]
        assert row.mean_precision == left_fold(run_precisions) / len(run_precisions)
        run_recalls = [t[0] / (t[0] + t[3]) for t in per_run if t[0] + t[3] > 0]
        assert row.mean_recall == left_fold(run_recalls) / len(run_recalls)
        assert row.pooled_precision == row.mean_tp / (row.mean_tp + row.mean_fp)
        assert row.mean_verification_count == left_fold(r.verified_count for r in reports) / 30

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])


class TestFoldMean:
    def test_adds_left_to_right(self):
        # Python 3.12's compensated sum gives 2.0 / 4 here.
        mean, count = _fold_mean([1.0, 1e100, 1.0, -1e100])
        assert (mean, count) == (0.0, 4)
        assert type(mean) is float and type(count) is int
        # Left to right the sum is 1.0; numpy's pairwise sum gives 0.0 and
        # Python 3.12's sum 2.0.
        assert _fold_mean([1e100, 1.0, -1e100, 1.0, 0.0, 0.0, 0.0, 0.0]) == (0.125, 8)

    def test_skips_undefined_entries_and_counts_the_rest(self):
        values = [[1.0, np.nan], [np.nan, np.inf], [4.0, 2.0]]
        defined = [[True, False], [False, False], [True, False]]
        assert _fold_mean(values, defined) == ([2.5, None], [2, 0])

    def test_all_undefined_runs_give_none(self):
        undefined = report_from_records([record(Label.NEGATIVE, Label.NEGATIVE)])
        row = summarize_runs([undefined, undefined])
        assert row.mean_precision is None and row.precision_undefined_runs == 2


@st.composite
def record_tuples(draw):
    """Records with any (phase, predicted, truth) combination, as a plain tuple."""
    kinds = st.tuples(st.sampled_from(Label), st.sampled_from(Label), st.sampled_from(Phase))
    return tuple(
        TrialRecord(f"t{i}", *kind)
        for i, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=60)))
    )


class TestColumnsMatchRecordTuples:
    @settings(deadline=None, max_examples=150)
    @given(
        runs=st.lists(record_tuples(), min_size=1, max_size=4),
        window=st.integers(1, 25),
        l_value=st.sampled_from([50.0, 100.0]),
    )
    def test_every_metric_agrees(self, runs, window, l_value):
        tm = TimeModel(45.0, 5.0)
        for records in runs:
            columns = RecordColumns.of(records)
            assert columns == records
            for mode in ConfusionMode:
                counts = confusion(columns, mode)
                assert counts == confusion(records, mode)
                assert dataclasses.astuple(counts) == tally_oracle(records, mode)
            assert sliding_window_series(columns, window) == sliding_window_series(
                records, window
            )
            assert cycle_time(columns, tm, window) == cycle_time(records, tm, window)
        from_tuples = [report_from_records(records, l_value) for records in runs]
        from_columns = [
            dataclasses.replace(report, records=RecordColumns.of(records))
            for report, records in zip(from_tuples, runs)
        ]
        for mode in ConfusionMode:
            assert summarize_runs(from_columns, mode) == summarize_runs(from_tuples, mode)
