"""Real-valued settings: one range rule, so NaN, infinity or a value out of range raises
ValueError naming its field, worded one way, and each bound is open or closed as stated.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from forceknn.classifier import Metric, min_agreeing_count
from forceknn.datagen import ClassProfile, GenParams, gen_dataset
from forceknn.dataset_io import write_dataset
from forceknn.grid import GridSpec
from forceknn.metrics import TimeModel
from forceknn.signal import ForceTrace

PROFILE = {"peak_force_mean": 22.0, "peak_force_std": 2.0,
           "plateau_force_mean": 5.5, "plateau_force_std": 1.0}
GEN_FIELDS = {
    "sample_rate": "(0, inf)",
    "contact_time_mean": "[0, inf)",
    "contact_time_jitter": "[0, 8.988465674311579e+307]",
    "ramp_duration": "(0, inf)",
    "relax_duration": "(0, inf)",
    "noise_std": "[0, inf)",
    "outlier_probability": "[0, 1)",
    "outlier_scale": "[1, inf)",
    "min_separation_stds": "[0, inf)",
}

# entry: (the field its message names, the field's interval as printed, the call).
FIELDS = {
    "ForceTrace.sample_rate": ("sample_rate", "(0, inf)", lambda v: ForceTrace(np.ones(4), v)),
    "Metric.p": ("minkowski p", "(0, inf)", lambda v: Metric("minkowski", v)),
    "min_agreeing_count.l_value": ("l_value", "[50, 100]", lambda v: min_agreeing_count(11, v)),
    "GridSpec.train_fractions": (
        "train_fraction", "(0, 1]", lambda v: GridSpec(train_fractions=(0.5, v))),
    **{
        f"ClassProfile.{name}": (
            name, "[0, inf)" if name.endswith("std") else "(-inf, inf)",
            lambda v, name=name: ClassProfile(**{**PROFILE, name: v}))
        for name in PROFILE
    },
    **{
        f"GenParams.{name}": (name, interval, lambda v, name=name: GenParams(**{name: v}))
        for name, interval in GEN_FIELDS.items()
    },
    "TimeModel.iteration_cost": (
        "iteration_cost", "(0, inf)", lambda v: TimeModel(v, verification_cost=5e-324)),
    "TimeModel.verification_cost": (
        "verification_cost", "(0, 45.0]", lambda v: TimeModel(45.0, verification_cost=v)),
    "write_dataset.sample_rate": (
        "an empty dataset's sample_rate", "(0, inf)",
        lambda v: write_dataset("empty.csv", [], overwrite=True, sample_rate=v)),
}


def _bounds(interval: str) -> list[tuple[float, bool, float]]:
    """Each finite end of ``interval``: (the bound, whether it is closed, the outward direction)."""
    opening, low, high, closing = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", interval).groups()
    ends = [(float(low), opening == "[", -math.inf), (float(high), closing == "]", math.inf)]
    return [end for end in ends if math.isfinite(end[0])]


def _outside(interval: str) -> list[float]:
    """Values just outside each finite end: the bound itself when open, its neighbour when closed."""
    return [np.nextafter(bound, out) if closed else bound for bound, closed, out in _bounds(interval)]


def _inside(interval: str) -> list[float]:
    """Values just inside each finite end: the bound itself when closed, its neighbour when open."""
    return [bound if closed else np.nextafter(bound, -out) for bound, closed, out in _bounds(interval)]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # write_dataset's entry writes a file


@pytest.mark.parametrize("entry", FIELDS)
def test_non_finite_or_out_of_range_raises_value_error_naming_its_field(entry):
    name, interval, call = FIELDS[entry]
    for value in [math.nan, math.inf, -math.inf, *_outside(interval)]:
        message = f"^{re.escape(name)} must be a finite number in {re.escape(interval)}, got "
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize("entry", FIELDS)
def test_each_finite_bound_is_open_or_closed_as_stated(entry):
    _, interval, call = FIELDS[entry]
    for value in _inside(interval):
        call(value)


def test_one_wording():
    with pytest.raises(ValueError) as caught:
        GenParams(noise_std=math.nan)
    assert str(caught.value) == "noise_std must be a finite number in [0, inf), got nan"
    with pytest.raises(ValueError, match=r"^verification_cost must be a finite number in \(0, 4\.5\], "):
        TimeModel(4.5, 5.0)


def test_a_missing_minkowski_exponent_keeps_its_message():
    with pytest.raises(ValueError, match="^minkowski requires an explicit finite exponent p > 0$"):
        Metric("minkowski")


def test_a_contact_jitter_whose_draw_would_overflow_is_rejected():
    # rng.uniform(-j, j) spans 2j, which overflows past half the largest float
    with pytest.raises(ValueError, match=r"^contact_time_jitter must be a finite number in \[0, "):
        GenParams(contact_time_jitter=1e308)
    trials = gen_dataset(2, 2, GenParams(contact_time_jitter=np.finfo(float).max / 2))
    assert all(np.isfinite(t.trace.samples).all() for t in trials)
