"""Report writers: content, determinism, and window aggregation."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from forceknn.datagen import gen_dataset
from forceknn.metrics import TimeModel, confusion, precision, summarize_runs
from forceknn.classifier import COSINE, Label
from forceknn.online import (
    LabeledTrial,
    LoopConfig,
    Phase,
    RunReport,
    TrialRecord,
    run_replicated,
)
from forceknn.reports import (
    aggregate_window_series,
    config_echo,
    write_records_jsonl,
    write_summary_csv,
    write_windows_csv,
)


def left_fold(values):
    """Plain left-to-right float sum: the reference order for run means."""
    total = 0.0
    for value in values:
        total += value
    return total


def report_of(phase, n=4):
    """A run of ``n`` correct positive records, all in ``phase``."""
    records = tuple(TrialRecord(f"t{i}", Label.POSITIVE, Label.POSITIVE, phase) for i in range(n))
    verified = n if phase is not Phase.CLASSIFIED else 0
    return RunReport(records, verified, LoopConfig(), rng_seed=0, oracle_calls=verified)


@pytest.fixture(scope="module")
def reports():
    trials = gen_dataset(20, 25, rng_seed=5)
    return run_replicated(trials, LoopConfig(l_value=100.0), 3, base_seed=2)


class TestAggregateWindowSeries:
    def test_matches_per_window_recomputation(self, reports):
        # each run's window slice, tallied record by record; means fold runs left to right
        tm = TimeModel(45.0, 5.0)
        for window in (1, 10):
            aggregates = aggregate_window_series(reports, tm, window)
            assert len(aggregates) == len(reports[0].records) - window + 1
            for agg in aggregates:
                chunks = [
                    list(r.records)[agg.index - window + 1 : agg.index + 1] for r in reports
                ]
                defined = [p for p in (precision(confusion(c)) for c in chunks) if p is not None]
                assert agg.precision_defined_runs == len(defined)
                assert agg.mean_precision == (
                    left_fold(defined) / len(defined) if defined else None
                )
                verified = [sum(r.verified for r in chunk) for chunk in chunks]
                assert agg.mean_uncertain_fraction == left_fold(
                    v / window for v in verified
                ) / len(reports)
                assert agg.mean_cycle_cost == left_fold(
                    (window * 40.0 + 5.0 * v) / window for v in verified
                ) / len(reports)

    def test_a_window_of_verified_trials_has_no_precision(self):
        verified_only = report_of(Phase.FALLBACK)
        (agg,) = aggregate_window_series([verified_only, verified_only], window=4)
        assert (agg.index, agg.mean_precision, agg.precision_defined_runs) == (3, None, 0)
        assert (agg.mean_uncertain_fraction, agg.mean_cycle_cost) == (1.0, 45.0)

    def test_a_window_of_correct_classified_trials_has_full_precision(self):
        classified_only = report_of(Phase.CLASSIFIED)
        (agg,) = aggregate_window_series([classified_only, classified_only], window=4)
        assert (agg.index, agg.mean_precision, agg.precision_defined_runs) == (3, 1.0, 2)
        assert (agg.mean_uncertain_fraction, agg.mean_cycle_cost) == (0.0, 40.0)

    def test_precision_averages_only_the_runs_that_define_it(self):
        runs = [report_of(Phase.FALLBACK), report_of(Phase.CLASSIFIED)]
        (agg,) = aggregate_window_series(runs, window=4)
        assert (agg.mean_precision, agg.precision_defined_runs) == (1.0, 1)
        assert (agg.mean_uncertain_fraction, agg.mean_cycle_cost) == (0.5, 42.5)

    def test_window_must_be_positive(self, reports):
        with pytest.raises(ValueError, match="^window must be an integer >= 1, got 0$"):
            aggregate_window_series(reports, window=0)

    def test_empty_when_stream_shorter_than_window(self, reports):
        assert aggregate_window_series(reports, window=10_000) == []


class TestWriters:
    def test_jsonl_layout_and_determinism(self, tmp_path, reports):
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records_jsonl(path_a, reports)
        write_records_jsonl(path_b, reports)
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text(encoding="utf-8").splitlines()
        assert len(lines) == sum(len(r.records) for r in reports)
        first = json.loads(lines[0])
        assert set(first) == {
            "run",
            "run_seed",
            "trial_id",
            "phase",
            "decision",
            "verified",
            "predicted",
            "truth",
        }
        assert first["run"] == 0
        assert first["phase"] == "seed"
        for line, report in zip(lines, reports):
            assert json.loads(line)["run_seed"] == report.rng_seed
            break

    def test_jsonl_lines_are_sorted_key_json_dumps(self, tmp_path, reports):
        # the writer fills a template; each line must equal json.dumps of its
        # record, including ids that need escaping
        odd_ids = ['quote"d', "back\\slash", "tab\tid", "caf\u00e9", "\u2603 snow"]
        renamed = [
            dataclasses.replace(
                report,
                records=tuple(
                    dataclasses.replace(record, trial_id=odd_ids[i % len(odd_ids)] + str(i))
                    for i, record in enumerate(report.records)
                ),
            )
            for report in reports
        ]
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, renamed)
        expected = [
            json.dumps(
                {
                    "run": run,
                    "run_seed": report.rng_seed,
                    "trial_id": record.trial_id,
                    "phase": record.phase.value,
                    "decision": record.decision.value,
                    "verified": record.verified,
                    "predicted": record.predicted.value,
                    "truth": record.truth.value,
                },
                sort_keys=True,
            )
            for run, report in enumerate(renamed)
            for record in report.records
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
        write_records_jsonl(path, [])
        assert path.read_bytes() == b""

    def test_jsonl_equals_per_record_reference(self, tmp_path):
        # replayed trials whose ids need JSON escaping, so every id repeats in
        # each run, next to a report built from a tuple of records
        odd_ids = ['q"uote', "back\\slash", "caf\u00e9", "\u2603", "nl\nid", "plain"]
        trials = [
            LabeledTrial(f"{odd_ids[i % len(odd_ids)]}-{i}", trial.trace, trial.truth)
            for i, trial in enumerate(gen_dataset(12, 14, rng_seed=8))
        ]
        replayed = run_replicated(trials, LoopConfig(l_value=80.0), 3, base_seed=4)
        built = RunReport(
            records=(
                TrialRecord('"', Label.POSITIVE, Label.POSITIVE, Phase.SEED),
                TrialRecord("\\", Label.NEGATIVE, Label.POSITIVE, Phase.CLASSIFIED),
                TrialRecord("\u00fc", Label.NEGATIVE, Label.NEGATIVE, Phase.FALLBACK),
                TrialRecord("x", Label.POSITIVE, Label.NEGATIVE, Phase.CLASSIFIED),
            ),
            final_dataset_size=2,
            config=LoopConfig(),
            rng_seed=2**63 + 5,
            oracle_calls=2,
        )
        reports = [*replayed, built, replayed[0]]
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, reports)
        expected = "".join(
            json.dumps(
                {
                    "run": run,
                    "run_seed": report.rng_seed,
                    "trial_id": record.trial_id,
                    "phase": record.phase.value,
                    "decision": record.decision.value,
                    "verified": record.verified,
                    "predicted": record.predicted.value,
                    "truth": record.truth.value,
                },
                sort_keys=True,
            )
            + "\n"
            for run, report in enumerate(reports)
            for record in report.records
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_summary_csv_has_echo_and_rows(self, tmp_path, reports):
        row = summarize_runs(reports)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [row], {"dataset": "x.csv", "runs": 3})
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "# dataset = x.csv"
        assert lines[1] == "# runs = 3"
        assert lines[2].startswith("l_value,n_runs,")
        assert len(lines) == 4
        assert lines[3].startswith("100.0,3,")

    def test_none_values_serialize_as_empty_fields(self, tmp_path, reports):
        row = summarize_runs(reports)
        import dataclasses

        row = dataclasses.replace(row, mean_precision=None)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [row], {})
        data_line = path.read_text(encoding="utf-8").splitlines()[-1]
        fields = data_line.split(",")
        assert fields[5] == ""

    def test_failed_write_keeps_old_file(self, tmp_path, reports):
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [summarize_runs(reports)], {"runs": 3})
        before = path.read_bytes()
        # A lone surrogate cannot be encoded as UTF-8, so the write fails midway.
        with pytest.raises(UnicodeEncodeError):
            write_summary_csv(path, [summarize_runs(reports)], {"runs": "\ud800"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_windows_csv_round_trip_shape(self, tmp_path, reports):
        series = aggregate_window_series(reports, window=10)
        path = tmp_path / "windows.csv"
        write_windows_csv(path, [(100.0, series)], {"window": 10})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# window = 10"
        assert lines[1].startswith("l_value,index,")
        assert len(lines) == 2 + len(series)
        assert lines[2].split(",")[0] == "100.0"

    def test_config_echo_formats_floats_with_repr(self):
        assert config_echo({"a": 0.1, "b": None, "c": "x"}) == [
            "# a = 0.1",
            "# b = ",
            "# c = x",
        ]

    def test_config_echo_writes_values_as_the_flags_take_them(self):
        echo = {"k": [5, 11], "l": (100.0, 50.0), "x": np.float64(0.1), "m": [COSINE]}
        assert config_echo(echo) == ["# k = 5,11", "# l = 100.0,50.0", "# x = 0.1", "# m = cosine"]
