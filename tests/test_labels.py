"""The label rule: every entry point that reads a label takes a ``Label`` and nothing else.

A value that is not a ``Label`` (the string ``"positive"``, say) raises ValueError naming
it, and the trial that holds it where there is one, instead of counting as negative.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from forceknn.classifier import COSINE, KnnModel, Label, decide
from forceknn.datagen import GenParams, gen_dataset, gen_trial
from forceknn.dataset_io import write_dataset
from forceknn.grid import GridSpec, static_grid
from forceknn.online import LoopConfig, Phase, RunReport, TrialRecord, run_online
from forceknn.signal import FeatureVector

TRIALS = gen_dataset(12, 12, GenParams(n_samples=200), rng_seed=3)
# The stream with trial 5's truth, which the seed phase reads, given as a string.
BAD_TRIALS = [
    dataclasses.replace(t, truth="positive") if i == 5 else t for i, t in enumerate(TRIALS)
]
BAD_ID = TRIALS[5].id


def _write(tmp_path):
    write_dataset(tmp_path / "bad.csv", BAD_TRIALS)


def _report(predicted, truth):
    record = TrialRecord("r1", predicted, truth, Phase.CLASSIFIED)
    return lambda _: RunReport((record,), 0, LoopConfig(), 0, 0)


# name: (the message's start, the call given pytest's tmp_path).
ENTRY_POINTS = {
    "decide": ("", lambda _: decide(["positive"] * 11, 11, 100.0)),
    "KnnModel": ("", lambda _: KnnModel([(FeatureVector(np.ones(3)), "positive")] * 3, k=3)),
    "run_online": (f"trial {BAD_ID}: ", lambda _: run_online(BAD_TRIALS, LoopConfig(k=3))),
    "static_grid": (
        f"trial {BAD_ID}: ",
        lambda _: static_grid(
            BAD_TRIALS, GridSpec(k_values=(3,), metrics=(COSINE,), l_values=(50.0,)), seeds=(0,)
        ),
    ),
    "write_dataset": (f"trial {BAD_ID}: ", _write),
    "RunReport predicted": ("trial r1: ", _report("positive", Label.POSITIVE)),
    "RunReport truth": ("trial r1: ", _report(Label.POSITIVE, "positive")),
    "gen_trial": (
        "trial t: ",
        lambda _: gen_trial("positive", GenParams(n_samples=50), np.random.default_rng(0), "t"),
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_value_that_is_not_a_label_raises_value_error_naming_it(tmp_path, entry):
    where, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{where}expected a Label, got 'positive'$"):
        call(tmp_path)
    assert not any(tmp_path.iterdir())  # write_dataset rejects the label before the file opens
