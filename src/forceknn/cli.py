"""Command-line interface: dataset generation, online replay and grid search.

Exit codes: 0 success, 2 bad arguments, 3 data error, 4 infeasible config.
Each subcommand declares its settings once, in an options table: each key
is a flag, a ``key = value`` config-file key (``--config``) and a line of the
outputs' config echo. Command-line flags win over the file, which wins over
the defaults, most of them read from the dataclasses they configure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import __version__
from .classifier import Metric
from .datagen import GenParams, gen_dataset
from .dataset_io import DatasetFormatError, _not_utf8, read_dataset, write_dataset
from .grid import GridRow, GridSpec, online_grid, static_grid
from .metrics import TimeModel, summarize_runs
from .online import LoopConfig, TrialDataError, _check_runs, run_replicated
from .reports import (
    _fmt,
    aggregate_window_series,
    write_grid_csv,
    write_records_jsonl,
    write_summary_csv,
    write_windows_csv,
)
from .signal import PreprocessConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _metric_list(text: str) -> list[Metric]:
    return [Metric.parse(part) for part in text.split(",") if part.strip()]


class _UsageError(Exception):
    pass


class _Option(NamedTuple):
    """One setting; its key names the flag (``--key-with-dashes``), config key and echo line."""

    convert: Callable[[str], Any]
    default: Any
    help: str


_LOOP = LoopConfig()
_PREPROCESS = PreprocessConfig()
_GEN = GenParams()
_GRID = GridSpec()

# The options of each subcommand, in echo order.
_GEN_OPTIONS = {
    "rng_seed": _Option(int, 0, "seed of the generator"),
    "n_pos": _Option(int, 297, "positive trials"),
    "n_neg": _Option(int, 407, "negative trials"),
    "n_samples": _Option(int, _GEN.n_samples, "samples per trace"),
    "sample_rate": _Option(float, _GEN.sample_rate, "sample rate in Hz"),
    "noise_std": _Option(float, _GEN.noise_std, "standard deviation of the noise in N"),
    "outlier_prob": _Option(float, _GEN.outlier_probability, "chance of an amplified-peak trial"),
    "outlier_scale": _Option(float, _GEN.outlier_scale, "peak factor of an outlier trial"),
}

_LOOP_OPTIONS = {
    "rng_seed": _Option(int, 0, "base seed of the runs' shuffles"),
    "k": _Option(_int_list, (_LOOP.k,), "comma-separated k values"),
    "metric": _Option(_metric_list, (_LOOP.metric,),
                      "comma-separated: cosine, euclidean, manhattan, minkowski[:p]"),
    "l_value": _Option(_float_list, (100.0, 50.0),
                       "comma-separated minimum-agreement percentages in [50, 100]"),
    "retrain_interval": _Option(int, _LOOP.retrain_interval, "trials between snapshot refreshes"),
    "seed_size": _Option(int, _LOOP.seed_size, "oracle-labelled trials before classifying"),
    "runs": _Option(int, 30, "number of shuffled runs"),
    "sg_window": _Option(int, _PREPROCESS.sg_window, "smoothing window (odd)"),
    "sg_order": _Option(int, _PREPROCESS.sg_order, "smoothing polynomial order"),
    "ds_window": _Option(int, _PREPROCESS.ds_window, "down-sampling window"),
    "ds_stride": _Option(int, _PREPROCESS.ds_stride, "down-sampling stride"),
}

_GRID_OPTIONS = {
    **_LOOP_OPTIONS,
    "rng_seed": _Option(int, 0, "base seed of the runs' shuffles (online mode), "
                                "first split seed (static mode)"),
    "k": _LOOP_OPTIONS["k"]._replace(default=_GRID.k_values),
    "metric": _LOOP_OPTIONS["metric"]._replace(default=_GRID.metrics),
    "l_value": _LOOP_OPTIONS["l_value"]._replace(default=_GRID.l_values),
    "train_fraction": _Option(_float_list, _GRID.train_fractions,
                              "comma-separated fractions in (0, 1]"),
    "static_seeds": _Option(int, 5, "number of split seeds to average"),
}
# The grid options that each mode does not read: setting one is a usage error.
# The help marks each with the mode that reads it.
_GRID_UNREAD = {
    "static": ("runs", "retrain_interval", "seed_size"),
    "online": ("train_fraction", "static_seeds"),
}
_GRID_OPTIONS.update(
    (key, _GRID_OPTIONS[key]._replace(help=f"{_GRID_OPTIONS[key].help} ({mode} mode)"))
    for mode, other in (("online", "static"), ("static", "online"))
    for key in _GRID_UNREAD[other]
)


def _add_options(parser: argparse.ArgumentParser, options: dict[str, _Option]) -> None:
    parser.add_argument("--config", help="key = value file supplying flag defaults")
    for key, option in options.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=option.convert,
            help=f"{option.help} (default {_fmt(option.default)})",
        )


def _load_config(path: str, options: dict[str, _Option], unread: dict[str, str]) -> dict:
    values = {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        problem = _not_utf8(raw)
        if problem is not None:
            raise _UsageError(f"{path}:{line_no}: {problem}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in unread:
            raise _UsageError(f"{path}:{line_no}: config key {key!r} {unread[key]}")
        try:
            values[key] = options[key].convert(value)
        except ValueError:
            raise _UsageError(f"{path}:{line_no}: bad config value for {key}: {value!r}") from None
    return values


def _resolve(
    args: argparse.Namespace, options: dict[str, _Option], unread: dict[str, str] | None = None
) -> dict:
    """Merge flag values, config-file values and defaults for one subcommand.

    The result holds every option in table order. Every subcommand takes
    ``--rng-seed``; a negative one is rejected here, before any file is read
    or written. So is a flag or config key in ``unread``, which maps each
    option that this run ignores to the reason given.
    """
    unread = unread or {}
    resolved = {key: option.default for key, option in options.items()}
    if args.config:
        resolved.update(_load_config(args.config, options, unread))
    given = [key for key in options if getattr(args, key) is not None]
    for key in given:
        if key in unread:
            raise _UsageError(f"--{key.replace('_', '-')} {unread[key]}")
    resolved.update((key, getattr(args, key)) for key in given)
    if resolved["rng_seed"] < 0:
        raise _UsageError(f"--rng-seed must be non-negative, got {resolved['rng_seed']}")
    return resolved


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forceknn",
        description="Force-based insertion classification: synthetic data, online replay, grid search.",
    )
    parser.add_argument("--version", action="version", version=f"forceknn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    gen.add_argument("--out", required=True, help="dataset file to write")
    gen.add_argument("--force", action="store_true", help="overwrite an existing file")
    _add_options(gen, _GEN_OPTIONS)
    gen.set_defaults(func=_cmd_gen)

    online = sub.add_parser("online", help="replay the online self-supervised loop")
    online.add_argument("--dataset", required=True, help="dataset file to read")
    online.add_argument("--out", required=True, help="output directory")
    _add_options(online, _LOOP_OPTIONS)
    online.set_defaults(func=_cmd_online)

    grid = sub.add_parser("grid", help="sweep k / metric / l-value / training size")
    grid.add_argument("--dataset", required=True, help="dataset file to read")
    grid.add_argument("--out", required=True, help="CSV file to write")
    grid.add_argument("--mode", choices=("static", "online"), default="static")
    _add_options(grid, _GRID_OPTIONS)
    grid.set_defaults(func=_cmd_grid)
    return parser


def _single(values: list, what: str):
    if len(values) != 1:
        raise _UsageError(f"expected exactly one {what}, got {values!r}")
    return values[0]


def _cmd_gen(args: argparse.Namespace) -> int:
    opts = _resolve(args, _GEN_OPTIONS)
    try:
        params = GenParams(
            n_samples=opts["n_samples"],
            sample_rate=opts["sample_rate"],
            noise_std=opts["noise_std"],
            outlier_probability=opts["outlier_prob"],
            outlier_scale=opts["outlier_scale"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    trials = gen_dataset(opts["n_pos"], opts["n_neg"], params, opts["rng_seed"])
    write_dataset(
        args.out,
        trials,
        overwrite=args.force,
        n_samples=params.n_samples,
        sample_rate=params.sample_rate,
    )
    print(f"wrote {len(trials)} trials to {args.out}")
    return EXIT_OK


def _preprocess_config(opts: dict) -> PreprocessConfig:
    return PreprocessConfig(**{f.name: opts[f.name] for f in dataclasses.fields(PreprocessConfig)})


def _loop_config(opts: dict, k: int, metric: Metric, l_value: float) -> LoopConfig:
    return LoopConfig(
        k=k,
        metric=metric,
        l_value=l_value,
        retrain_interval=opts["retrain_interval"],
        seed_size=opts["seed_size"],
        preprocess=_preprocess_config(opts),
    )


def _echo_pairs(opts: dict, dataset: str, extra: dict) -> dict:
    return {"forceknn_version": __version__, "dataset": dataset, **opts, **extra}


def _cmd_online(args: argparse.Namespace) -> int:
    opts = _resolve(args, _LOOP_OPTIONS)
    k = _single(opts["k"], "k value")
    metric = _single(opts["metric"], "metric")
    if not opts["l_value"]:
        raise _UsageError("expected at least one l-value, got none")
    records_names = [f"records-l{l_value:g}.jsonl" for l_value in opts["l_value"]]
    if len(set(records_names)) != len(records_names):
        raise _UsageError(f"l-values {opts['l_value']} would share a records file name")
    # An infeasible config exits before the dataset is read, and a replay that
    # fails on the data before the directory is made.
    configs = [_loop_config(opts, k, metric, l_value) for l_value in opts["l_value"]]
    _check_runs(opts["runs"], opts["rng_seed"])
    trials = read_dataset(args.dataset)
    out_dir = Path(args.out)
    tm = TimeModel()
    distances: dict = {}  # one distance matrix, shared by every l-value
    summary_rows = []
    window_series = []
    for cfg, records_name in zip(configs, records_names):
        reports = run_replicated(trials, cfg, opts["runs"], opts["rng_seed"],
                                 feature_cache=distances)
        summary_rows.append(summarize_runs(reports))
        window_series.append((cfg.l_value, aggregate_window_series(reports, tm)))
        records_path = out_dir / records_name
        out_dir.mkdir(parents=True, exist_ok=True)
        write_records_jsonl(records_path, reports)
        print(f"wrote {records_path}")
    echo = _echo_pairs(opts, args.dataset, {
        "n_trials": len(trials),
        "iteration_cost": tm.iteration_cost,
        "verification_cost": tm.verification_cost,
    })
    summary_path = out_dir / "summary.csv"
    write_summary_csv(summary_path, summary_rows, echo)
    print(f"wrote {summary_path}")
    windows_path = out_dir / "windows.csv"
    write_windows_csv(windows_path, window_series, echo)
    print(f"wrote {windows_path}")
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    why = f"is not read by grid --mode {args.mode}"
    opts = _resolve(args, _GRID_OPTIONS, dict.fromkeys(_GRID_UNREAD[args.mode], why))
    try:
        grid = GridSpec(
            k_values=tuple(opts["k"]),
            metrics=tuple(opts["metric"]),
            l_values=tuple(opts["l_value"]),
            train_fractions=tuple(opts["train_fraction"]),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if opts["static_seeds"] < 1:
        raise _UsageError(f"--static-seeds must be at least 1, got {opts['static_seeds']}")
    # An infeasible config exits before the dataset is read.
    if args.mode == "static":
        seeds = [opts["rng_seed"] + i for i in range(opts["static_seeds"])]
        sweep = functools.partial(
            static_grid, grid=grid, preprocess_cfg=_preprocess_config(opts), seeds=seeds
        )
    else:
        # k=1 satisfies any seed_size; online_grid swaps in each cell's k.
        base_cfg = _loop_config(opts, k=1, metric=grid.metrics[0], l_value=grid.l_values[0])
        _check_runs(opts["runs"], opts["rng_seed"])
        sweep = functools.partial(online_grid, grid=grid, base_cfg=base_cfg,
                                  n_runs=opts["runs"], base_seed=opts["rng_seed"])
    trials = read_dataset(args.dataset)
    rows: list[GridRow] = sweep(trials)
    echo = _echo_pairs(opts, args.dataset, {"mode": args.mode, "n_trials": len(trials)})
    write_grid_csv(args.out, rows, echo)
    print(f"wrote {args.out} ({len(rows)} cells)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # A command runs once and the process exits, so what is alive at the first call (the
    # interpreter's, numpy's and this package's modules and classes) lives until exit anyway;
    # frozen, no full collection walks it again. Later calls freeze nothing, so an in-process
    # caller's garbage is still collected. The library leaves the collector alone.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, TrialDataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"infeasible config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
