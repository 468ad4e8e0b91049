"""Count settings: every entry point takes a Python or numpy integer, and never a float.

A float count (2.5, or 15.0 alike) raises ValueError naming its setting before any
work starts, instead of a TypeError from inside numpy or slicing; a numpy integer
gives what the same Python int gives.
"""

from __future__ import annotations

import numpy as np
import pytest

from forceknn.classifier import COSINE, min_agreeing_count
from forceknn.datagen import GenParams, gen_dataset
from forceknn.grid import GridSpec, online_grid, static_grid
from forceknn.metrics import cycle_time
from forceknn.online import LoopConfig, run_replicated
from forceknn.reports import aggregate_window_series
from forceknn.signal import PreprocessConfig, downsample_mean, preprocess, savgol_smooth

TRIALS = gen_dataset(60, 60, GenParams(n_samples=200), rng_seed=1)
TRACE = TRIALS[0].trace
SMALL_GRID = GridSpec(k_values=(3,), metrics=(COSINE,), l_values=(50.0,), train_fractions=(1.0,))
SMALL_LOOP = LoopConfig(k=3, seed_size=8)


def _replay(cfg=LoopConfig(), n_runs=1, base_seed=0):
    return run_replicated(TRIALS, cfg, n_runs, base_seed)


REPORTS = _replay(n_runs=2)
RECORDS = REPORTS[0].records


def _trials(trials):
    return [(t.id, t.truth, t.trace.samples.tolist()) for t in trials]


def _features(**settings):
    return preprocess(TRACE, PreprocessConfig(**settings)).values.tolist()


def _gen(n_pos=1, params=GenParams(n_samples=50), rng_seed=0):
    return _trials(gen_dataset(n_pos, 1, params, rng_seed))


# name: (the setting the message names, its default or a small count, a float, the call).
ENTRY_POINTS = {
    "LoopConfig.retrain_interval": (
        "retrain_interval", 20, 2.5, lambda v: _replay(LoopConfig(retrain_interval=v))),
    "LoopConfig.seed_size": ("seed_size", 22, 22.0, lambda v: _replay(LoopConfig(seed_size=v))),
    "PreprocessConfig.sg_window": ("sg_window", 15, 15.0, lambda v: _features(sg_window=v)),
    "PreprocessConfig.sg_order": ("sg_order", 2, 2.0, lambda v: _features(sg_order=v)),
    "PreprocessConfig.ds_window": (
        "ds_window", 10, np.float64(10.0), lambda v: _features(ds_window=v)),
    "PreprocessConfig.ds_stride": ("ds_stride", 10, 2.5, lambda v: _features(ds_stride=v)),
    "savgol_smooth.window": (
        "sg_window", 15, 15.0, lambda v: savgol_smooth(TRACE, v).samples.tolist()),
    "savgol_smooth.order": (
        "sg_order", 2, 2.0, lambda v: savgol_smooth(TRACE, 15, v).samples.tolist()),
    "downsample_mean.window": (
        "ds_window", 10, np.float64(10.0), lambda v: downsample_mean(TRACE, v).values.tolist()),
    "downsample_mean.stride": (
        "ds_stride", 10, 2.5, lambda v: downsample_mean(TRACE, 10, v).values.tolist()),
    "run_replicated.n_runs": ("n_runs", 2, 2.0, lambda v: _replay(n_runs=v)),
    "run_replicated.base_seed": ("base_seed", 0, 0.5, lambda v: _replay(base_seed=v)),
    "online_grid.n_runs": (
        "n_runs", 2, 2.0, lambda v: online_grid(TRIALS, SMALL_GRID, SMALL_LOOP, v)),
    "GenParams.n_samples": (
        "n_samples", 1000, 1000.0, lambda v: _gen(params=GenParams(n_samples=v))),
    "gen_dataset.n_pos": ("n_pos", 3, 2.5, lambda v: _gen(n_pos=v)),
    "gen_dataset.n_neg": (
        "n_neg", 1, 1.0, lambda v: _trials(gen_dataset(1, v, GenParams(n_samples=50)))),
    "gen_dataset.rng_seed": ("rng_seed", 0, np.float64(0.0), lambda v: _gen(rng_seed=v)),
    "min_agreeing_count.k": ("k", 11, 11.0, lambda v: min_agreeing_count(v, 90.0)),
    "static_grid.seeds": ("seeds", 0, 0.5, lambda v: static_grid(TRIALS, SMALL_GRID, seeds=(v,))),
    "cycle_time.window": ("window", 100, 10.0, lambda v: cycle_time(RECORDS, window=v)),
    "aggregate_window_series.window": (
        "window", 100, np.float64(10.0), lambda v: aggregate_window_series(REPORTS, window=v)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_float_count_raises_value_error_naming_its_setting(entry):
    name, _, bad, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got "):
        call(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_numpy_integer_count_gives_what_the_int_gives(entry):
    _, count, _, call = ENTRY_POINTS[entry]
    expected = call(count)
    assert call(np.int64(count)) == expected
    assert expected != []  # the comparison saw output

