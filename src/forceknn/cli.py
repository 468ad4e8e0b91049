"""Command-line interface: dataset generation, online replay and grid search.

Exit codes: 0 success, 2 bad arguments, 3 data error, 4 infeasible config.
Every flag can also be set in a ``key = value`` config file (``--config``);
command-line flags win over the file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .classifier import Metric
from .datagen import GenParams, gen_dataset
from .dataset_io import DatasetFormatError, read_dataset, write_dataset
from .grid import GridRow, GridSpec, online_grid, static_grid
from .metrics import TimeModel, summarize_runs
from .online import LoopConfig, TrialDataError, run_replicated
from .reports import (
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


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> dict:
    """Merge flag values, config-file values and defaults for one subcommand.

    Every subcommand takes ``--rng-seed``; a negative one is rejected here,
    before any file is read or written.
    """
    config = _load_config(args.config) if args.config else {}
    known = set(spec)
    for key in config:
        if key not in known:
            raise _UsageError(f"unknown config key {key!r}")
    resolved = {}
    for key, (convert, default) in spec.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            try:
                resolved[key] = convert(config[key])
            except ValueError:
                raise _UsageError(f"bad config value for {key}: {config[key]!r}") from None
        else:
            resolved[key] = default
    if resolved["rng_seed"] < 0:
        raise _UsageError(f"--rng-seed must be non-negative, got {resolved['rng_seed']}")
    return resolved


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file supplying flag defaults")
    parser.add_argument("--rng-seed", dest="rng_seed", type=int)


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_int_list, help="comma-separated k values")
    parser.add_argument("--metric", type=_metric_list,
                        help="comma-separated: cosine, euclidean, manhattan, minkowski[:p]")
    parser.add_argument("--l-value", dest="l_value", type=_float_list,
                        help="comma-separated minimum-agreement percentages in [50, 100]")
    parser.add_argument("--retrain-interval", dest="retrain_interval", type=int)
    parser.add_argument("--seed-size", dest="seed_size", type=int)
    parser.add_argument("--runs", type=int, help="number of shuffled runs")
    parser.add_argument("--sg-window", dest="sg_window", type=int)
    parser.add_argument("--sg-order", dest="sg_order", type=int)
    parser.add_argument("--ds-window", dest="ds_window", type=int)
    parser.add_argument("--ds-stride", dest="ds_stride", type=int)


_GEN_SPEC = {
    "rng_seed": (int, 0),
    "n_pos": (int, 297),
    "n_neg": (int, 407),
    "n_samples": (int, 1000),
    "sample_rate": (float, 500.0),
    "noise_std": (float, None),
    "outlier_prob": (float, None),
    "outlier_scale": (float, None),
}

_LOOP_SPEC = {
    "rng_seed": (int, 0),
    "k": (_int_list, [11]),
    "metric": (_metric_list, [Metric.parse("cosine")]),
    "l_value": (_float_list, [100.0, 50.0]),
    "retrain_interval": (int, 20),
    "seed_size": (int, 22),
    "runs": (int, 30),
    "sg_window": (int, 15),
    "sg_order": (int, 2),
    "ds_window": (int, 10),
    "ds_stride": (int, 10),
}

_GRID_SPEC = {
    **_LOOP_SPEC,
    "k": (_int_list, None),
    "metric": (_metric_list, None),
    "l_value": (_float_list, None),
    "train_fraction": (_float_list, None),
    "static_seeds": (int, 5),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forceknn",
        description="Force-based insertion classification: synthetic data, online replay, grid search.",
    )
    parser.add_argument("--version", action="version", version=f"forceknn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    _add_common(gen)
    gen.add_argument("--out", required=True, help="dataset file to write")
    gen.add_argument("--n-pos", dest="n_pos", type=int, help="positive trials (default 297)")
    gen.add_argument("--n-neg", dest="n_neg", type=int, help="negative trials (default 407)")
    gen.add_argument("--n-samples", dest="n_samples", type=int)
    gen.add_argument("--sample-rate", dest="sample_rate", type=float)
    gen.add_argument("--noise-std", dest="noise_std", type=float)
    gen.add_argument("--outlier-prob", dest="outlier_prob", type=float)
    gen.add_argument("--outlier-scale", dest="outlier_scale", type=float)
    gen.add_argument("--force", action="store_true", help="overwrite an existing file")
    gen.set_defaults(func=_cmd_gen)

    online = sub.add_parser("online", help="replay the online self-supervised loop")
    _add_common(online)
    online.add_argument("--dataset", required=True, help="dataset file to read")
    online.add_argument("--out", required=True, help="output directory")
    _add_loop_flags(online)
    online.set_defaults(func=_cmd_online)

    grid = sub.add_parser("grid", help="sweep k / metric / l-value / training size")
    _add_common(grid)
    grid.add_argument("--dataset", required=True, help="dataset file to read")
    grid.add_argument("--out", required=True, help="CSV file to write")
    grid.add_argument("--mode", choices=("static", "online"), default="static")
    _add_loop_flags(grid)
    grid.add_argument("--train-fraction", dest="train_fraction", type=_float_list,
                      help="comma-separated fractions in (0, 1] (static mode)")
    grid.add_argument("--static-seeds", dest="static_seeds", type=int,
                      help="number of split seeds to average (static mode)")
    grid.set_defaults(func=_cmd_grid)
    return parser


def _single(values: list, what: str):
    if len(values) != 1:
        raise _UsageError(f"expected exactly one {what}, got {values!r}")
    return values[0]


def _cmd_gen(args: argparse.Namespace) -> int:
    opts = _resolve(args, _GEN_SPEC)
    param_overrides = {
        "n_samples": opts["n_samples"],
        "sample_rate": opts["sample_rate"],
    }
    if opts["noise_std"] is not None:
        param_overrides["noise_std"] = opts["noise_std"]
    if opts["outlier_prob"] is not None:
        param_overrides["outlier_probability"] = opts["outlier_prob"]
    if opts["outlier_scale"] is not None:
        param_overrides["outlier_scale"] = opts["outlier_scale"]
    try:
        params = GenParams(**param_overrides)
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
    return PreprocessConfig(
        sg_window=opts["sg_window"],
        sg_order=opts["sg_order"],
        ds_window=opts["ds_window"],
        ds_stride=opts["ds_stride"],
    )


def _loop_config(opts: dict, k: int, metric: Metric, l_value: float) -> LoopConfig:
    return LoopConfig(
        k=k,
        metric=metric,
        l_value=l_value,
        retrain_interval=opts["retrain_interval"],
        seed_size=opts["seed_size"],
        preprocess=_preprocess_config(opts),
        rng_seed=opts["rng_seed"],
        n_runs=opts["runs"],
    )


def _echo_pairs(opts: dict, dataset: str, extra: dict | None = None) -> dict:
    pairs = {"forceknn_version": __version__, "dataset": dataset}
    pairs.update({key: _echo_value(value) for key, value in opts.items()})
    if extra:
        pairs.update(extra)
    return pairs


def _echo_value(value):
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value


def _cmd_online(args: argparse.Namespace) -> int:
    opts = _resolve(args, _LOOP_SPEC)
    k = _single(opts["k"], "k value")
    metric = _single(opts["metric"], "metric")
    records_names = [f"records-l{l_value:g}.jsonl" for l_value in opts["l_value"]]
    if len(set(records_names)) != len(records_names):
        raise _UsageError(f"l-values {opts['l_value']} would share a records file name")
    # An infeasible config exits before the dataset is read or the directory made.
    configs = [_loop_config(opts, k, metric, l_value) for l_value in opts["l_value"]]
    trials = read_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tm = TimeModel()
    distances: dict = {}  # one distance store, shared by every l-value
    summary_rows = []
    window_series = []
    for cfg, records_name in zip(configs, records_names):
        reports = run_replicated(trials, cfg, feature_cache=distances)
        summary_rows.append(summarize_runs(reports))
        window_series.append((cfg.l_value, aggregate_window_series(reports, tm)))
        records_path = out_dir / records_name
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
    opts = _resolve(args, _GRID_SPEC)
    defaults = GridSpec()
    try:
        grid = GridSpec(
            k_values=tuple(opts["k"]) if opts["k"] else defaults.k_values,
            metrics=tuple(opts["metric"]) if opts["metric"] else defaults.metrics,
            l_values=tuple(opts["l_value"]) if opts["l_value"] else defaults.l_values,
            train_fractions=tuple(opts["train_fraction"])
            if opts["train_fraction"]
            else defaults.train_fractions,
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
        sweep = functools.partial(online_grid, grid=grid, base_cfg=base_cfg)
    trials = read_dataset(args.dataset)
    rows: list[GridRow] = sweep(trials)
    opts.update(
        k=list(grid.k_values),
        metric=list(grid.metrics),
        l_value=list(grid.l_values),
        train_fraction=list(grid.train_fractions),
    )
    echo = _echo_pairs(opts, args.dataset, {"mode": args.mode, "n_trials": len(trials)})
    write_grid_csv(args.out, rows, echo)
    print(f"wrote {args.out} ({len(rows)} cells)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
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
    except (DatasetFormatError, TrialDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FileNotFoundError, FileExistsError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"infeasible config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
