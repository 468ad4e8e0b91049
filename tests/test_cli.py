"""CLI subcommands: file outputs, exit codes, config-file handling."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forceknn
from forceknn import cli, online
from forceknn.classifier import EUCLIDEAN, MANHATTAN, Label
from forceknn.cli import _GRID_UNREAD, EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from forceknn.dataset_io import read_dataset, write_dataset
from forceknn.online import LoopConfig
from forceknn.signal import ForceTrace, PreprocessConfig

# Run in a fresh interpreter: every top-level module that gen and online load beyond
# those loaded at start-up. numpy's Cython extensions register the two runtime modules
# named in the filter, which come from no other package.
DEPENDENCY_PROBE = """
import sys
loaded = set(sys.modules)
from forceknn.cli import main
dataset, out = sys.argv[1:]
assert main(["gen", "--out", dataset, "--n-pos", "12", "--n-neg", "12", "--n-samples", "40"]) == 0
assert main(["online", "--dataset", dataset, "--out", out, "--runs", "2",
             "--seed-size", "12"]) == 0
assert not {"fractions", "decimal"} & set(sys.modules), "fractions or decimal loaded"
new = {name.partition(".")[0] for name in set(sys.modules) - loaded}
print(sorted(name for name in new - set(sys.stdlib_module_names)
             if name != "cython_runtime" and not name.startswith("_cython_")))
"""


def test_runtime_dependencies_are_numpy_alone(tmp_path):
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    assert re.findall(r'"([\w.-]+)', declared.group(1)) == ["numpy"]
    env = {**os.environ, "PYTHONPATH": str(Path(forceknn.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE, str(tmp_path / "d.csv"), str(tmp_path / "o")],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['forceknn', 'numpy']"


# Run in a fresh interpreter: the library leaves the collector alone, and only the
# command-line entry point, which owns the process, freezes what is alive at its start.
# Only its first call freezes, so a cycle that an in-process caller drops between two
# calls is still collected.
FREEZE_PROBE = """
import gc
import weakref
import forceknn
from forceknn.cli import main
trials = forceknn.gen_dataset(12, 12, forceknn.GenParams(n_samples=40))
forceknn.run_replicated(trials, forceknn.LoopConfig(k=3, seed_size=8), 2)
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
assert main(["--version"]) == 0
frozen = gc.get_freeze_count()
assert frozen > 0
class Node:
    pass
node = Node()
node.self = node
alive = weakref.ref(node)
del node
assert main(["--version"]) == 0
gc.collect()
assert alive() is None, "a cycle made between two calls was frozen"
assert gc.get_freeze_count() == frozen, (gc.get_freeze_count(), frozen)
"""


def test_only_the_cli_freezes_the_collector():
    env = {**os.environ, "PYTHONPATH": str(Path(forceknn.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE], env=env, capture_output=True, text=True,
        encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr


# Run in a fresh interpreter: the package re-exports each module's ``__all__`` in this
# order, leaves no other public name, and loads neither the reports nor the CLI.
PACKAGE_PROBE = """
import sys
import forceknn
names = ["signal", "classifier", "online", "metrics", "datagen", "dataset_io", "grid"]
modules = [sys.modules["forceknn." + name] for name in names]
exported = ["__version__"] + [name for module in modules for name in module.__all__]
assert forceknn.__all__ == exported and len(set(exported)) == len(exported), forceknn.__all__
assert all(getattr(forceknn, name) is getattr(module, name)
           for module in modules for name in module.__all__)
public = {name for name in vars(forceknn) if not name.startswith("_")}
assert public == set(exported[1:]) | set(names), sorted(public ^ (set(exported[1:]) | set(names)))
print(*sorted(name for name in sys.modules if name.startswith("forceknn.")))
"""


def test_package_reexports_each_modules_all():
    env = {**os.environ, "PYTHONPATH": str(Path(forceknn.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", PACKAGE_PROBE], env=env, capture_output=True, text=True,
        encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "forceknn." + name
        for name in ("classifier", "datagen", "dataset_io", "grid", "metrics", "online", "signal")
    ]
    assert {"RecordColumns", "WindowCost"} <= set(forceknn.__all__)


def test_benchmark_tracer_finds_every_patch_target():
    # bench/spans.py replaces functions by name in the package's modules; a
    # renamed or removed target would otherwise fail only in a traced run.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    probe = "import forceknn, forceknn.cli, spans; spans.instrument(spans.Tracer(), forceknn)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["gen", "online", "grid"])
def test_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == EXIT_OK
    assert "--rng-seed" in capsys.readouterr().out


def test_grid_help_names_the_mode_of_each_mode_only_option(capsys):
    assert main(["grid", "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help lines
    helps = {entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", text)}
    for mode, other in (("online", "static"), ("static", "online")):
        for key in _GRID_UNREAD[other]:
            assert helps["--" + key.replace("_", "-")].count(f"({mode} mode)") == 1
    marked = [flag for flag, entry in helps.items() if " mode)" in entry]
    assert sorted(marked) == sorted(
        ["--rng-seed", "--runs", "--retrain-interval", "--seed-size", "--train-fraction",
         "--static-seeds"]
    )
    assert "(online mode)" in helps["--rng-seed"] and "(static mode)" in helps["--rng-seed"]


def run_gen(tmp_path, name="data.csv", n_pos=14, n_neg=16, extra=()):
    path = tmp_path / name
    code = main(
        ["gen", "--out", str(path), "--n-pos", str(n_pos), "--n-neg", str(n_neg), *extra]
    )
    assert code == EXIT_OK
    return path


def read_csv_rows(path):
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


class TestGen:
    def test_writes_request_sized_dataset(self, tmp_path):
        path = run_gen(tmp_path, n_pos=297, n_neg=407, extra=["--n-samples", "40"])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 705
        assert lines[0] == "id,label,40,500.0"

    def test_zero_trials_gives_header_only_file(self, tmp_path):
        path = run_gen(tmp_path, n_pos=0, n_neg=0)
        assert path.read_text(encoding="utf-8") == "id,label,1000,500.0\n"

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = run_gen(tmp_path, "a.csv", extra=["--rng-seed", "4", "--n-samples", "50"])
        b = run_gen(tmp_path, "b.csv", extra=["--rng-seed", "4", "--n-samples", "50"])
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        path = run_gen(tmp_path)
        code = main(["gen", "--out", str(path), "--n-pos", "1", "--n-neg", "1"])
        assert code == EXIT_DATA
        assert "exists" in capsys.readouterr().err
        code = main(
            ["gen", "--out", str(path), "--n-pos", "2", "--n-neg", "2", "--n-samples", "30",
             "--force"]
        )
        assert code == EXIT_OK
        assert len(read_dataset(path)) == 4

    @pytest.mark.parametrize("rate", ["inf", "nan", "0"])
    def test_bad_sample_rate_is_usage_error(self, tmp_path, capsys, rate):
        out = tmp_path / "data.csv"
        code = main(["gen", "--out", str(out), "--n-pos", "2", "--n-neg", "2",
                     "--sample-rate", rate])
        assert code == EXIT_USAGE
        assert "sample_rate must be a finite number in (0, inf)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [["--n-pos", "5", "--n-neg", "5"], []], ids=["10", "704"])
    @pytest.mark.parametrize(
        "flag, value", [("noise-std", "nan"), ("outlier-scale", "nan"), ("outlier-scale", "inf")]
    )
    def test_non_finite_generator_setting_is_usage_error(self, tmp_path, capsys, size, flag, value):
        out = tmp_path / "data.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["gen", "--out", str(out), *size, f"--{flag}", value])
        assert code == EXIT_USAGE
        message = f"error: {flag.replace('-', '_')} must be a finite number in "
        assert message in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize(
        "size", [["--n-pos", "5", "--n-neg", "5", "--outlier-prob", "0.5"], []], ids=["10", "704"]
    )
    def test_overflowing_trace_names_its_trial_without_numpy_warnings(self, tmp_path, capsys, size):
        out = tmp_path / "data.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["gen", "--out", str(out), *size, "--outlier-scale", "1e308"])
        assert code == EXIT_USAGE
        assert re.search(r"^error: trial-\d{4}: trace contains non-finite values; the settings "
                         r"overflow the float range$", capsys.readouterr().err, re.MULTILINE)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_a_tiny_sample_rate_writes_a_finite_file_without_numpy_warnings(self, tmp_path):
        # 1e-320 Hz overflows every sample time past the first, which the template's clip absorbs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = run_gen(tmp_path, n_pos=5, n_neg=5, extra=["--sample-rate", "1e-320"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert [t.trace.sample_rate for t in read_dataset(path)] == [1e-320] * 10

    def test_generator_knobs_reach_params(self, tmp_path):
        quiet = run_gen(tmp_path, "q.csv", 2, 2, ["--noise-std", "0", "--n-samples", "64"])
        noisy = run_gen(tmp_path, "n.csv", 2, 2, ["--noise-std", "2.5", "--n-samples", "64"])
        quiet_heads = [t.trace.samples[:8].std() for t in read_dataset(quiet)]
        noisy_heads = [t.trace.samples[:8].std() for t in read_dataset(noisy)]
        assert max(quiet_heads) < min(noisy_heads)


    def test_outlier_probability_is_one_key_for_flag_config_and_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["gen", "--out", str(out), "--outlier-prob", "1"]) == EXIT_USAGE
        assert "error: outlier_probability must be a finite number in [0, 1), got 1.0" in (
            capsys.readouterr().err
        )
        config = tmp_path / "gen.cfg"
        config.write_text("outlier_probability = 0.5\n", encoding="utf-8")
        from_config = run_gen(tmp_path, "c.csv", 5, 5, ["--config", str(config)])
        from_flag = run_gen(tmp_path, "f.csv", 5, 5, ["--outlier-probability", "0.5"])
        default = run_gen(tmp_path, "d.csv", 5, 5)
        assert from_config.read_bytes() == from_flag.read_bytes() != default.read_bytes()
        config.write_text("outlier_prob = 0.5\n", encoding="utf-8")
        assert main(["gen", "--out", str(out), "--config", str(config)]) == EXIT_USAGE
        assert f"{config}:1: unknown config key 'outlier_prob'" in capsys.readouterr().err
        assert not out.exists()

@pytest.fixture()
def dataset(tmp_path):
    return run_gen(tmp_path, "trials.csv", n_pos=16, n_neg=20)


ONLINE_FLAGS = ["--runs", "2", "--seed-size", "12", "--rng-seed", "3"]


class TestOnline:
    def test_produces_all_outputs(self, tmp_path, dataset):
        out = tmp_path / "out"
        code = main(["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS])
        assert code == EXIT_OK
        assert (out / "records-l100.jsonl").exists()
        assert (out / "records-l50.jsonl").exists()
        rows = read_csv_rows(out / "summary.csv")
        assert [row["l_value"] for row in rows] == ["100.0", "50.0"]
        echo = [
            line
            for line in (out / "summary.csv").read_text(encoding="utf-8").splitlines()
            if line.startswith("#")
        ]
        assert any(line.startswith("# dataset = ") for line in echo)
        assert any(line.startswith("# rng_seed = 3") for line in echo)

    def test_l50_verification_equals_seed_phase(self, tmp_path, dataset):
        out = tmp_path / "out"
        main(["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS,
              "--l-value", "50"])
        row = read_csv_rows(out / "summary.csv")[0]
        # nothing falls back after seeding, so the dataset never outgrows it
        assert float(row["mean_verification_count"]) == float(row["mean_dataset_size"])
        assert float(row["mean_uncertain"]) == float(row["mean_verification_count"])

    def test_window_csv_uses_window_sized_streams(self, tmp_path, dataset):
        out = tmp_path / "out"
        main(["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS])
        rows = read_csv_rows(out / "windows.csv")
        # 36 trials per run, window 100 -> no full window, hence no rows
        assert rows == []

    def test_colliding_records_names_rejected_before_writing(self, tmp_path, dataset, capsys):
        out = tmp_path / "out"
        code = main(["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS,
                     "--l-value", "50,70,50.000001"])
        assert code == EXIT_USAGE
        assert "records file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_l_value_list_is_usage_error_before_reading(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text("l-value =\n", encoding="utf-8")
        extra = ["--l-value", ""] if source == "flag" else ["--config", str(config)]
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["online", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     *extra])
        assert code == EXIT_USAGE
        assert "at least one l-value" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_failing_on_the_data_makes_no_output_directory(self, tmp_path, dataset, capsys):
        # The 36-trial stream is no longer than the seed phase.
        out = tmp_path / "out"
        code = main(["online", "--dataset", str(dataset), "--out", str(out), "--seed-size", "36"])
        assert code == EXIT_CONFIG
        assert "too short for seed_size 36" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_distance_exits_infeasible(self, tmp_path, dataset, capsys):
        # Every feature sum raised to the power 1000 overflows.
        out = tmp_path / "out"
        argv = ["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape main()
            assert main([*argv, "--metric", "minkowski:0.001"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "infeasible config: minkowski:0.001 distance overflows the float range\n"
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, dataset):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["online", "--dataset", str(dataset), *ONLINE_FLAGS]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        for name in ("summary.csv", "windows.csv", "records-l100.jsonl", "records-l50.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_rerun_into_the_same_out_replaces_every_file(self, tmp_path, dataset):
        # The second run renames its files over the first run's, through temporary files.
        out = tmp_path / "out"
        args = ["online", "--dataset", str(dataset), "--out", str(out), *ONLINE_FLAGS]
        assert main(args) == EXIT_OK
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        inodes = {path.name: path.stat().st_ino for path in out.iterdir()}
        assert main(args) == EXIT_OK
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        assert all(path.stat().st_ino != inodes[path.name] for path in out.iterdir())
        assert sorted(first) == ["records-l100.jsonl", "records-l50.jsonl", "summary.csv",
                                 "windows.csv"]


def constant_trial_dataset(dataset, value="0.0"):
    """The dataset with its first trial's samples all set to ``value`` (zeros: a dropped-out trace)."""
    lines = dataset.read_text(encoding="utf-8").splitlines()
    n_samples = int(lines[0].split(",")[2])
    trial_id, label = lines[1].split(",")[:2]
    lines[1] = ",".join([trial_id, label, *[value] * n_samples])
    path = dataset.with_name("constant.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["online", "--out", "out", *ONLINE_FLAGS],
        ["grid", "--out", "static.csv", "--mode", "static", "--k", "5", "--static-seeds", "3"],
        ["grid", "--out", "online.csv", "--mode", "online", "--k", "5", "--l-value", "50,100",
         *ONLINE_FLAGS],
    ],
)
def test_all_zero_trial_runs_under_cosine(tmp_path, dataset, monkeypatch, argv):
    path = constant_trial_dataset(dataset)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--dataset", str(path), "--metric", "cosine"]) == EXIT_OK


@pytest.mark.parametrize(
    ("argv", "out"),
    [
        (["online", "--out", "out", *ONLINE_FLAGS], "out/records-l100.jsonl"),
        (["grid", "--out", "static.csv", "--mode", "static", "--k", "5", "--static-seeds", "3"],
         "static.csv"),
        (["grid", "--out", "online.csv", "--mode", "online", "--k", "5", "--l-value", "50",
          *ONLINE_FLAGS], "online.csv"),
    ],
    ids=["online", "grid-static", "grid-online"],
)
def test_trial_whose_features_overflow_is_data_error(tmp_path, dataset, monkeypatch, capsys,
                                                     argv, out):
    # Finite samples, but smoothing them overflows to inf.
    path = constant_trial_dataset(dataset, "1.7e308")
    trial_id = read_dataset(path)[0].id
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would escape main()
        assert main([*argv, "--dataset", str(path)]) == EXIT_DATA
    assert f"data error: trial {trial_id}: " in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize(
    ("argv", "out"),
    [
        (["online", "--out", "out", *ONLINE_FLAGS], "out"),
        (["grid", "--out", "static.csv", "--mode", "static", "--k", "5"], "static.csv"),
        (["grid", "--out", "online.csv", "--mode", "online", "--k", "5", *ONLINE_FLAGS],
         "online.csv"),
    ],
    ids=["online", "grid-static", "grid-online"],
)
def test_distance_matrix_over_the_bound_is_infeasible_before_preprocessing(
    tmp_path, dataset, monkeypatch, capsys, argv, out
):
    n = len(read_dataset(dataset))  # 36 trials: a 10 368-byte matrix
    monkeypatch.setattr(online, "_MATRIX_BYTES", 8 * n * n - 1)
    # The stacked feature kernel: the replay and the grid preprocess through it alone.
    monkeypatch.setattr(online, "_features", mock.Mock(side_effect=AssertionError))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--dataset", str(dataset)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"infeasible config: {n} trials need a {8 * n * n}-byte distance matrix" in err
    online._features.assert_not_called()
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize(
    "argv",
    [["online", "--out", "out", "--dataset", "missing.csv"],
     ["grid", "--out", "online.csv", "--mode", "online", "--dataset", "missing.csv"],
     ["gen", "--out", "gen.csv", "--n-pos", "1", "--n-neg", "1"]],
    ids=["online", "grid-online", "gen"],
)
def test_negative_rng_seed_is_usage_error_before_reading(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    # the dataset does not exist: reading it first would exit with EXIT_DATA
    assert main([*argv, "--rng-seed", "-1"]) == EXIT_USAGE
    assert "error: rng_seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / argv[2]).exists()


@pytest.mark.parametrize(
    "argv",
    [["gen", "--out", "gen.csv", "--n-pos", "-1"],
     ["online", "--out", "out", "--runs", "0"],
     ["online", "--out", "out", "--seed-size", "5", "--k", "11"],
     ["online", "--out", "out", "--l-value", "100,150"],
     ["online", "--out", "out", "--k", "0"],
     ["online", "--out", "out", "--retrain-interval", "0"],
     ["online", "--out", "out", "--sg-window", "14"],
     ["grid", "--out", "online.csv", "--mode", "online", "--runs", "0"],
     ["grid", "--out", "online.csv", "--mode", "online", "--seed-size", "0"],
     ["grid", "--out", "static.csv", "--mode", "static", "--sg-window", "4"]],
    ids=["gen-n-pos", "online-runs", "online-seed-size", "online-l-value", "online-k",
         "online-retrain-interval", "online-sg-window", "grid-online-runs",
         "grid-online-seed-size", "grid-static-sg-window"],
)
def test_rejected_setting_exits_2_before_reading(tmp_path, monkeypatch, capsys, argv):
    # Every setting that a config object or a count check rejects is a bad argument.
    monkeypatch.chdir(tmp_path)
    # the dataset does not exist: reading it first would exit with EXIT_DATA
    dataset = [] if argv[0] == "gen" else ["--dataset", "missing.csv"]
    assert main([*argv, *dataset]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [("--k", "5,11"), ("--metric", "cosine,euclidean")])
def test_online_refuses_a_list_of_k_or_metric_before_reading(tmp_path, monkeypatch, capsys,
                                                             flag, value):
    # online runs one k and one metric: argparse rejects a list, after printing its usage line
    monkeypatch.chdir(tmp_path)
    # the dataset does not exist: reading it first would exit with EXIT_DATA
    assert main(["online", "--out", "out", "--dataset", "missing.csv", flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {flag}: invalid" in captured.err
    assert not any(tmp_path.iterdir())


# Non-default loop and preprocessing settings, and the preprocessing config they make.
PREPROCESS_SETTINGS = {"sg_window": 9, "sg_order": 3, "ds_window": 5, "ds_stride": 4}
LOOP_SETTINGS = {"retrain_interval": 7, "seed_size": 13, **PREPROCESS_SETTINGS}
PREPROCESS = PreprocessConfig(**PREPROCESS_SETTINGS)


@pytest.mark.parametrize("via", ["flag", "config"])
class TestSettingsReachTheirConfigs:
    """Each setting, given as a flag or as a config key, lands in the config that the
    command hands to the library call it runs."""

    @staticmethod
    def calls(tmp_path, dataset, via, target, argv, settings):
        if via == "flag":
            given = [arg for key, value in settings.items()
                     for arg in (f"--{key.replace('_', '-')}", str(value))]
        else:
            config = tmp_path / "settings.cfg"
            config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()),
                              encoding="utf-8")
            given = ["--config", str(config)]
        with mock.patch.object(cli, target, wraps=getattr(cli, target)) as spy:
            assert main([*argv, "--dataset", str(dataset), *given]) == EXIT_OK
        return spy.call_args_list

    def test_online_loop_configs(self, tmp_path, dataset, via):
        argv = ["online", "--out", str(tmp_path / "out"), "--runs", "2"]
        settings = {"k": 5, "metric": "euclidean", **LOOP_SETTINGS}
        calls = self.calls(tmp_path, dataset, via, "run_replicated", argv, settings)
        assert [call.args[1] for call in calls] == [
            LoopConfig(k=5, metric=EUCLIDEAN, l_value=l_value, retrain_interval=7,
                       seed_size=13, preprocess=PREPROCESS)
            for l_value in (100.0, 50.0)
        ]

    def test_online_grid_base_config(self, tmp_path, dataset, via):
        argv = ["grid", "--mode", "online", "--out", str(tmp_path / "grid.csv"), "--runs", "2",
                "--k", "5", "--metric", "manhattan", "--l-value", "50"]
        [call] = self.calls(tmp_path, dataset, via, "online_grid", argv, LOOP_SETTINGS)
        assert call.kwargs["base_cfg"] == LoopConfig(
            k=1, metric=MANHATTAN, l_value=50.0, retrain_interval=7, seed_size=13,
            preprocess=PREPROCESS,
        )

    def test_static_grid_preprocessing(self, tmp_path, dataset, via):
        argv = ["grid", "--out", str(tmp_path / "grid.csv"), "--k", "5", "--metric", "cosine",
                "--l-value", "100", "--train-fraction", "1", "--static-seeds", "1"]
        [call] = self.calls(tmp_path, dataset, via, "static_grid", argv, PREPROCESS_SETTINGS)
        assert call.kwargs["preprocess_cfg"] == PREPROCESS


class TestGrid:
    def test_single_cell_static_csv(self, tmp_path, dataset):
        out = tmp_path / "grid.csv"
        code = main(
            ["grid", "--dataset", str(dataset), "--out", str(out), "--mode", "static",
             "--k", "5", "--metric", "cosine", "--l-value", "100", "--train-fraction", "1.0",
             "--static-seeds", "2"]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["k"] == "5"
        assert rows[0]["metric"] == "cosine"
        assert rows[0]["status"] == "ok"

    def test_minkowski2_matches_euclidean_statistics(self, tmp_path, dataset):
        out = tmp_path / "grid.csv"
        main(
            ["grid", "--dataset", str(dataset), "--out", str(out),
             "--k", "5", "--metric", "euclidean,minkowski:2", "--l-value", "50,100",
             "--train-fraction", "1.0", "--static-seeds", "2"]
        )
        rows = read_csv_rows(out)
        by_key = {(r["metric"], r["l_value"]): r for r in rows}
        for l_value in ("50.0", "100.0"):
            a, b = by_key[("euclidean", l_value)], by_key[("minkowski:2", l_value)]
            for col in ("precision", "recall", "uncertain_pct", "tp", "fp", "tn", "fn"):
                if a[col] == "" or b[col] == "":
                    assert a[col] == b[col]
                else:
                    assert float(a[col]) == pytest.approx(float(b[col]), abs=1e-9)

    @pytest.mark.parametrize(
        "axis",
        [["--k", "3,3"], ["--metric", "cosine,cosine"], ["--l-value", "50,50"],
         ["--train-fraction", "1.0,1"]],
    )
    def test_repeated_axis_value_is_usage_error_before_reading(self, tmp_path, capsys, axis):
        out = tmp_path / "grid.csv"
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["grid", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--mode", "static", *axis])
        assert code == EXIT_USAGE
        assert "repeats a value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [(["--static-seeds", "0"], "error: static_seeds must be an integer >= 1, got 0"),
         (["--static-seeds", "-2"], "error: static_seeds must be an integer >= 1, got -2"),
         (["--rng-seed", "-1"], "error: rng_seed must be an integer >= 0, got -1")],
        ids=["no-seeds", "negative-seed-count", "negative-rng-seed"],
    )
    def test_bad_static_seeds_are_usage_errors_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "grid.csv"
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["grid", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--mode", "static", *flags])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("mode", "key"),
        [("static", "runs"), ("static", "retrain_interval"), ("static", "seed_size"),
         ("online", "train_fraction"), ("online", "static_seeds")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_option_the_mode_does_not_read_is_usage_error_before_reading(
        self, tmp_path, capsys, mode, key, source
    ):
        out, config = tmp_path / "grid.csv", tmp_path / "run.cfg"
        flag, value = "--" + key.replace("_", "-"), "0.5" if key == "train_fraction" else "3"
        config.write_text(f"k = 5\n{key} = {value}\n", encoding="utf-8")
        given = [flag, value] if source == "flag" else ["--config", str(config)]
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["grid", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--mode", mode, *given])
        assert code == EXIT_USAGE
        where = flag if source == "flag" else f"{config}:2: config key {key!r}"
        assert capsys.readouterr().err == f"error: {where} is not read by grid --mode {mode}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["--k", "--metric", "--l-value", "--train-fraction"])
    def test_empty_axis_is_usage_error_before_reading(self, tmp_path, capsys, axis):
        out = tmp_path / "grid.csv"
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["grid", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     axis, ""])
        assert code == EXIT_USAGE
        assert "every grid axis must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_online_mode_with_infeasible_k(self, tmp_path, dataset):
        out = tmp_path / "grid.csv"
        code = main(
            ["grid", "--dataset", str(dataset), "--out", str(out), "--mode", "online",
             "--k", "5,25", "--metric", "cosine", "--l-value", "100",
             "--runs", "2", "--seed-size", "12"]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out)
        status = {row["k"]: row["status"] for row in rows}
        assert status == {"5": "ok", "25": "infeasible"}


class TestConfigFileAndExitCodes:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path, dataset):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# loop settings\nl-value = 50\nruns = 2\nseed_size = 12\nrng-seed = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(out), "--config", str(config)]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out / "summary.csv")
        assert [row["l_value"] for row in rows] == ["50.0"]

        out2 = tmp_path / "out2"
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(out2),
             "--config", str(config), "--l-value", "100"]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out2 / "summary.csv")
        assert [row["l_value"] for row in rows] == ["100.0"]

    def test_unknown_config_key_is_usage_error(self, tmp_path, dataset, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 7\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(out), "--config", str(config)]
        )
        assert code == EXIT_USAGE
        assert f"error: {config}:1: unknown config key 'mystery'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "dataset", "mode"])
    def test_non_option_flag_is_unknown_config_key(self, tmp_path, dataset, capsys, key):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = x\n", encoding="utf-8")
        code = main(["grid", "--dataset", str(dataset), "--out", str(tmp_path / "grid.csv"),
                     "--config", str(config)])
        assert code == EXIT_USAGE
        assert f"{config}:1: unknown config key '{key}'" in capsys.readouterr().err

    # online runs one k and one metric, so a list of either is a bad value too
    @pytest.mark.parametrize(
        "key, value", [("k", "x"), ("k", "5,11"), ("metric", "cosine,euclidean")]
    )
    def test_bad_config_value_is_usage_error_naming_its_line(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# loop settings\nruns = 2\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["online", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--config", str(config)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {config}:3: bad config value for {key}: {value!r}" in err
        assert not out.exists()

    def test_malformed_config_line_is_usage_error(self, tmp_path, dataset):
        config = tmp_path / "bad.cfg"
        config.write_text("runs: 2\n", encoding="utf-8")
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
             "--config", str(config)]
        )
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path, dataset, capsys):
        code = main(["online", "--dataset", str(dataset), "--out", "o", "--bogus"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["online", "--dataset", str(tmp_path / "nope.csv"), "--out", "o"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "argv",
        [
            ["online", "--dataset", "{file}/x", "--out", "{tmp}/o"],
            ["online", "--dataset", "{file}", "--out", "{file}/sub"],
            ["online", "--dataset", "{file}", "--out", "{tmp}/o", "--config", "{file}/x"],
            ["gen", "--out", "{file}/x.csv", "--n-pos", "1", "--n-neg", "1"],
        ],
        ids=["dataset", "out", "config", "gen-out"],
    )
    def test_path_below_a_file_is_data_error(self, tmp_path, dataset, capsys, argv):
        code = main([arg.format(file=dataset, tmp=tmp_path) for arg in argv])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [dataset]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n-pos", "1", "--n-neg", "1"],
            ["grid", "--dataset", "{file}", "--k", "5", "--metric", "cosine", "--l-value", "50",
             "--train-fraction", "1"],
        ],
        ids=["gen", "grid"],
    )
    def test_write_into_a_missing_directory_names_the_path(self, tmp_path, dataset, capsys, argv):
        out = tmp_path / "nodir" / "x.csv"
        code = main([arg.format(file=dataset) for arg in argv] + ["--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert sorted(tmp_path.iterdir()) == [dataset]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n-pos", "1", "--n-neg", "1", "--force"],
            ["grid", "--dataset", "{file}", "--k", "5", "--metric", "cosine", "--l-value", "50",
             "--train-fraction", "1"],
        ],
        ids=["gen", "grid"],
    )
    def test_write_over_a_directory_names_the_path(self, tmp_path, dataset, capsys, argv):
        # The temporary file is made, but renaming it over the directory fails.
        out = tmp_path / "cfgdir"
        out.mkdir()
        code = main([arg.format(file=dataset) for arg in argv] + ["--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == [out, dataset] and not any(out.iterdir())

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,2,500.0\nx,pos,1.0\n", encoding="utf-8")
        code = main(["online", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_undecodable_dataset_is_data_error_on_its_line(self, tmp_path, capsys):
        # line 3 opens with the bad byte, after a full 1000-sample row
        bad = run_gen(tmp_path, "bad.csv", n_pos=3, n_neg=0)
        lines = bad.read_bytes().split(b"\n")
        bad.write_bytes(b"\n".join([*lines[:2], b"\xff" + lines[2], *lines[3:]]))
        code = main(["online", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: line 3: byte 0xff ")

    def test_undecodable_config_is_usage_error_naming_its_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"runs = 2\nk = \xff\n")
        out = tmp_path / "out"
        # the dataset does not exist: reading it first would exit with EXIT_DATA
        code = main(["online", "--dataset", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--config", str(config)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {config}:2: byte 0xff ")
        assert not out.exists()

    def test_header_defect_is_data_error_on_line_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,2,inf\nx,pos,1.0,2.0\n", encoding="utf-8")
        code = main(["online", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "line 1: sample_rate" in capsys.readouterr().err

    def test_non_finite_minkowski_exponent_is_usage_error(self, tmp_path, dataset, capsys):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--dataset", str(dataset), "--out", str(out),
                     "--metric", "minkowski:inf"])
        assert code == EXIT_USAGE
        capsys.readouterr()
        assert not out.exists()

    def test_infeasible_config_exit_code(self, tmp_path, dataset, capsys):
        # A setting that a config object rejects is a bad argument, with or without a dataset.
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
             "--l-value", "150"]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
             "--seed-size", "5", "--k", "11"]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        # windows longer than the traces: the config is at fault, not a trial
        code = main(
            ["online", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
             "--sg-window", "1001"]
        )
        assert code == EXIT_CONFIG
        assert "trace of length 1000 is shorter than window 1001" in capsys.readouterr().err


# Each command's flags for a small fuzzed dataset, given the dataset and output paths.
FUZZED_COMMANDS = {
    "online": lambda d, out: ["online", "--dataset", d, "--out", out, "--k", "3",
                              "--runs", "2", "--seed-size", "4"],
    "grid-static": lambda d, out: ["grid", "--mode", "static", "--dataset", d, "--out", out,
                                   "--k", "1,3", "--static-seeds", "2"],
    "grid-online": lambda d, out: ["grid", "--mode", "online", "--dataset", d, "--out", out,
                                   "--k", "1,3", "--l-value", "50,100", "--runs", "2",
                                   "--seed-size", "4"],
}
PREFIXES = {EXIT_DATA: "data error: ", EXIT_CONFIG: "infeasible config: "}


def parse_outputs(out: Path) -> None:
    """Parse every file the run wrote: JSON lines, or CSV under '#' echo lines."""
    for path in sorted(out.iterdir()) if out.is_dir() else [out]:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            for line in text.splitlines():
                json.loads(line)
        else:
            rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
            assert rows and all(len(row) == len(rows[0]) for row in rows), path


@pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan", "minkowski:3"])
@pytest.mark.parametrize("command", FUZZED_COMMANDS)
@settings(deadline=None, max_examples=10)
@given(
    rng_seed=st.integers(0, 2**16),
    n_pos=st.integers(0, 12),
    n_neg=st.integers(0, 12),
    n_samples=st.sampled_from([40, 5]),  # 5 is shorter than the smoothing window
    scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e200, 1e300]),
    scale_all=st.booleans(),
    # zero, constant, and smoothed past the float range
    constant=st.lists(st.tuples(st.integers(0, 23), st.sampled_from([0.0, 2.5, 1.7e308])),
                      max_size=3),
    copies=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=3),
)
# One trial at 1e200: its features stay finite, but its cosine norm overflows.
@example(rng_seed=0, n_pos=8, n_neg=8, n_samples=40, scale=1e200, scale_all=False,
         constant=[], copies=[])
def test_fuzzed_dataset_exits_cleanly(command, metric, rng_seed, n_pos, n_neg, n_samples,
                                      scale, scale_all, constant, copies):
    # Magnitudes from 1e-300 to 1e300, zero and constant traces, exact duplicates, one
    # class or none, too few trials and too short traces: each run exits 0, 3 or 4 with
    # one stderr line and no warning, and writes parseable files or none.
    n = n_pos + n_neg
    rng = np.random.default_rng(rng_seed)
    samples = rng.normal(size=(n, n_samples)) + np.linspace(0.0, 3.0, n_samples)
    samples[:n_pos] *= 2.0  # the classes differ in peak force
    if n:
        samples[: n if scale_all else 1] *= scale
        for i, value in constant:
            samples[i % n] = value
        for i, j in copies:
            samples[i % n] = samples[j % n]
    labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * n_neg
    trials = [online.LabeledTrial(f"t{i}", ForceTrace(row), label)
              for i, (row, label) in enumerate(zip(samples, labels))]
    with tempfile.TemporaryDirectory() as tmp:
        dataset, out = Path(tmp) / "d.csv", Path(tmp) / "out"
        write_dataset(dataset, trials, n_samples=n_samples, sample_rate=500.0)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")  # a numpy warning would escape main()
            code = main([*FUZZED_COMMANDS[command](str(dataset), str(out)), "--metric", metric])
        err = stderr.getvalue()
        if code == EXIT_OK:
            assert err == ""
            parse_outputs(out)
        else:
            assert code in PREFIXES, err
            assert err.startswith(PREFIXES[code]) and err.count("\n") == 1 and err.endswith("\n")
            assert not out.exists()
