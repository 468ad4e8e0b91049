"""Command-line interface: dataset generation, online replay and grid search.

Exit codes: 0 success, 2 bad arguments, 3 data error, 4 infeasible config.
Each subcommand checks every setting, then returns its work, which reads the
dataset; ``main`` alone maps errors to codes: a ValueError is 2 before the
work starts and 4 (the dataset rules the settings out) from the work.
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
from .signal import PreprocessConfig, _check_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4


def _comma_list(convert: Callable[[str], Any]) -> Callable[[str], list]:
    """A converter of comma-separated values: ``convert`` takes each non-blank part."""
    return lambda text: [convert(part) for part in text.split(",") if part.strip()]


def _flag_value(convert: Callable[[str], Any], text: str) -> Any:
    """``convert(text)``; argparse prints a ValueError's own message, not the converter's name."""
    try:
        return convert(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


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
    "outlier_probability": _Option(float, _GEN.outlier_probability,
                                   "chance of an amplified-peak trial"),
    "outlier_scale": _Option(float, _GEN.outlier_scale, "peak factor of an outlier trial"),
}

_LOOP_OPTIONS = {
    "rng_seed": _Option(int, 0, "base seed of the runs' shuffles"),
    "k": _Option(int, _LOOP.k, "neighbours that vote"),
    "metric": _Option(Metric.parse, _LOOP.metric,
                      "cosine, euclidean, manhattan or minkowski[:p]"),
    "l_value": _Option(_comma_list(float), (100.0, 50.0),
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
    "k": _Option(_comma_list(int), _GRID.k_values, "comma-separated k values"),
    "metric": _Option(_comma_list(Metric.parse), _GRID.metrics,
                      "comma-separated: cosine, euclidean, manhattan, minkowski[:p]"),
    "l_value": _LOOP_OPTIONS["l_value"]._replace(default=_GRID.l_values),
    "train_fraction": _Option(_comma_list(float), _GRID.train_fractions,
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
            type=functools.partial(_flag_value, option.convert),
            help=f"{option.help} (default {_fmt(option.default)})",
        )


def _load_config(path: str, options: dict[str, _Option], unread: dict[str, str]) -> dict:
    values = {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        problem = _not_utf8(raw)
        if problem is not None:
            raise ValueError(f"{path}:{line_no}: {problem}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in unread:
            raise ValueError(f"{path}:{line_no}: config key {key!r} {unread[key]}")
        try:
            values[key] = options[key].convert(value)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{line_no}: bad config value for {key}: {value!r}: {exc}"
            ) from None
    return values


def _resolve(
    args: argparse.Namespace, options: dict[str, _Option], unread: dict[str, str] | None = None
) -> dict:
    """Merge flag values, config-file values and defaults for one subcommand.

    The result holds every option in table order. Every subcommand takes
    ``--rng-seed``; a negative one is rejected here. So is a flag or config
    key in ``unread``, which maps each option that this run ignores to the
    reason given.
    """
    unread = unread or {}
    resolved = {key: option.default for key, option in options.items()}
    if args.config:
        resolved.update(_load_config(args.config, options, unread))
    given = [key for key in options if getattr(args, key) is not None]
    for key in given:
        if key in unread:
            raise ValueError(f"--{key.replace('_', '-')} {unread[key]}")
    resolved.update((key, getattr(args, key)) for key in given)
    _check_count(resolved["rng_seed"], "rng_seed", 0)
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


def _from_options(cls: type, opts: dict) -> Any:
    """An instance of the dataclass ``cls`` built from the options named as its fields."""
    return cls(**{f.name: opts[f.name] for f in dataclasses.fields(cls) if f.name in opts})


def _cmd_gen(args: argparse.Namespace) -> Callable[[], None]:
    opts = _resolve(args, _GEN_OPTIONS)
    params = _from_options(GenParams, opts)
    trials = gen_dataset(opts["n_pos"], opts["n_neg"], params, opts["rng_seed"])

    def work() -> None:
        write_dataset(
            args.out,
            trials,
            overwrite=args.force,
            n_samples=params.n_samples,
            sample_rate=params.sample_rate,
        )
        print(f"wrote {len(trials)} trials to {args.out}")

    return work


def _loop_config(opts: dict, **cell) -> LoopConfig:
    """The options' ``LoopConfig``; the fields in ``cell`` override the options."""
    preprocess = _from_options(PreprocessConfig, opts)
    return _from_options(LoopConfig, {**opts, "preprocess": preprocess, **cell})


def _echo_pairs(opts: dict, dataset: str, extra: dict) -> dict:
    return {"forceknn_version": __version__, "dataset": dataset, **opts, **extra}


def _cmd_online(args: argparse.Namespace) -> Callable[[], None]:
    opts = _resolve(args, _LOOP_OPTIONS)
    if not opts["l_value"]:
        raise ValueError("expected at least one l-value, got none")
    records_names = [f"records-l{l_value:g}.jsonl" for l_value in opts["l_value"]]
    if len(set(records_names)) != len(records_names):
        raise ValueError(f"l-values {opts['l_value']} would share a records file name")
    configs = [_loop_config(opts, l_value=l_value) for l_value in opts["l_value"]]
    _check_runs(opts["runs"], opts["rng_seed"])

    def work() -> None:
        trials = read_dataset(args.dataset)
        ranks: dict = {}  # one rank store, shared by every l-value
        replays = [run_replicated(trials, cfg, opts["runs"], opts["rng_seed"],
                                  feature_cache=ranks) for cfg in configs]
        ranks.clear()  # frees the store: the reports below need only the replays
        n_trials = len(trials)
        del trials  # and the traces: the reports reuse their heap
        out_dir = Path(args.out)
        tm = TimeModel()
        summary_rows = []
        window_series = []
        for cfg, records_name, reports in zip(configs, records_names, replays):
            summary_rows.append(summarize_runs(reports))
            window_series.append((cfg.l_value, aggregate_window_series(reports, tm)))
            records_path = out_dir / records_name
            out_dir.mkdir(parents=True, exist_ok=True)  # a replay failing on the data makes none
            write_records_jsonl(records_path, reports)
            print(f"wrote {records_path}")
        echo = _echo_pairs(opts, args.dataset, {
            "n_trials": n_trials,
            "iteration_cost": tm.iteration_cost,
            "verification_cost": tm.verification_cost,
        })
        summary_path = out_dir / "summary.csv"
        write_summary_csv(summary_path, summary_rows, echo)
        print(f"wrote {summary_path}")
        windows_path = out_dir / "windows.csv"
        write_windows_csv(windows_path, window_series, echo)
        print(f"wrote {windows_path}")

    return work


def _cmd_grid(args: argparse.Namespace) -> Callable[[], None]:
    why = f"is not read by grid --mode {args.mode}"
    opts = _resolve(args, _GRID_OPTIONS, dict.fromkeys(_GRID_UNREAD[args.mode], why))
    grid = GridSpec(
        k_values=tuple(opts["k"]),
        metrics=tuple(opts["metric"]),
        l_values=tuple(opts["l_value"]),
        train_fractions=tuple(opts["train_fraction"]),
    )
    _check_count(opts["static_seeds"], "static_seeds")
    if args.mode == "static":
        seeds = [opts["rng_seed"] + i for i in range(opts["static_seeds"])]
        sweep = functools.partial(static_grid, grid=grid, seeds=seeds,
                                  preprocess_cfg=_from_options(PreprocessConfig, opts))
    else:
        # k=1 satisfies any seed_size; online_grid swaps in each cell's k.
        base_cfg = _loop_config(opts, k=1, metric=grid.metrics[0], l_value=grid.l_values[0])
        _check_runs(opts["runs"], opts["rng_seed"])
        sweep = functools.partial(online_grid, grid=grid, base_cfg=base_cfg,
                                  n_runs=opts["runs"], base_seed=opts["rng_seed"])

    def work() -> None:
        trials = read_dataset(args.dataset)
        rows: list[GridRow] = sweep(trials)
        echo = _echo_pairs(opts, args.dataset, {"mode": args.mode, "n_trials": len(trials)})
        write_grid_csv(args.out, rows, echo)
        print(f"wrote {args.out} ({len(rows)} cells)")

    return work


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
    work = None
    try:
        work = args.func(args)
        work()
    except (DatasetFormatError, TrialDataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        prefix, code = ("error", EXIT_USAGE) if work is None else ("infeasible config", EXIT_CONFIG)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
