"""Report writers: content, determinism, and window aggregation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from forceknn.datagen import gen_dataset
from forceknn.metrics import TimeModel, cycle_time, sliding_window_series, summarize_runs
from forceknn.classifier import Label
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


@pytest.fixture(scope="module")
def reports():
    trials = gen_dataset(20, 25, rng_seed=5)
    return run_replicated(trials, LoopConfig(l_value=100.0, n_runs=3), base_seed=2)


class TestAggregateWindowSeries:
    def test_matches_per_run_series(self, reports):
        tm = TimeModel()
        window = 10
        aggregates = aggregate_window_series(reports, tm, window)
        per_run_points = [sliding_window_series(r.records, window) for r in reports]
        per_run_costs = [cycle_time(r.records, tm, window)[1] for r in reports]
        assert len(aggregates) == len(per_run_points[0])
        for j, agg in enumerate(aggregates):
            assert agg.index == per_run_points[0][j].index
            uncs = [points[j].uncertain_fraction for points in per_run_points]
            assert agg.mean_uncertain_fraction == pytest.approx(sum(uncs) / len(uncs))
            costs = [costs[j].mean_cost for costs in per_run_costs]
            assert agg.mean_cycle_cost == pytest.approx(sum(costs) / len(costs))
            defined = [
                p[j].precision for p in per_run_points if p[j].precision is not None
            ]
            if defined:
                assert agg.mean_precision == pytest.approx(sum(defined) / len(defined))
                assert agg.precision_defined_runs == len(defined)
            else:
                assert agg.mean_precision is None

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
        replayed = run_replicated(trials, LoopConfig(l_value=80.0, n_runs=3), base_seed=4)
        built = RunReport(
            records=(
                TrialRecord('"', Label.POSITIVE, Label.POSITIVE, Phase.SEED),
                TrialRecord("\\", Label.NEGATIVE, Label.POSITIVE, Phase.CLASSIFIED),
                TrialRecord("\u00fc", Label.NEGATIVE, Label.NEGATIVE, Phase.FALLBACK),
                TrialRecord("x", Label.POSITIVE, Label.NEGATIVE, Phase.CLASSIFIED),
            ),
            final_dataset_size=2,
            config=LoopConfig(n_runs=1),
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
