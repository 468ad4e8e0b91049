"""Synthetic generator: template exactness, determinism, statistical sanity."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from forceknn.classifier import COSINE, Decision, KnnModel, Label, classify
from forceknn.datagen import (
    ClassProfile,
    GenParams,
    gen_dataset,
    gen_trial,
    profile_template,
)
from forceknn.datagen import _interleaved_labels
from forceknn.signal import preprocess


def noiseless_params() -> GenParams:
    base = GenParams()
    return dataclasses.replace(
        base,
        contact_time_jitter=0.0,
        noise_std=0.0,
        outlier_probability=0.0,
        positive=dataclasses.replace(base.positive, peak_force_std=0.0, plateau_force_std=0.0),
        negative=dataclasses.replace(base.negative, peak_force_std=0.0, plateau_force_std=0.0),
    )


class TestProfileTemplate:
    def test_piecewise_segments(self):
        curve = profile_template(1000, 500.0, 0.4, 20.0, 8.0, 0.2, 0.3)
        t = np.arange(1000) / 500.0
        assert np.all(curve[t < 0.4] == 0.0)
        peak_index = np.searchsorted(t, 0.6)
        assert curve[peak_index] == pytest.approx(20.0)
        assert np.all(curve[t >= 0.9] == pytest.approx(8.0))
        assert curve.max() == pytest.approx(20.0)

    def test_monotone_ramp(self):
        curve = profile_template(1000, 500.0, 0.1, 15.0, 5.0, 0.3, 0.2)
        t = np.arange(1000) / 500.0
        ramp = curve[(t >= 0.1) & (t <= 0.4)]
        assert np.all(np.diff(ramp) >= 0)


class TestGenTrial:
    def test_noiseless_trial_is_exactly_the_template(self):
        params = noiseless_params()
        for label in Label:
            trial = gen_trial(label, params, np.random.default_rng(0), "x")
            profile = params.profile(label)
            expected = profile_template(
                params.n_samples,
                params.sample_rate,
                params.contact_time_mean,
                profile.peak_force_mean,
                profile.plateau_force_mean,
                params.ramp_duration,
                params.relax_duration,
            )
            np.testing.assert_array_equal(trial.trace.samples, expected)
            assert trial.truth is label
            assert trial.trace.sample_rate == params.sample_rate

    def test_same_seed_reproduces_trace(self):
        params = GenParams()
        a = gen_trial(Label.POSITIVE, params, np.random.default_rng(42), "a")
        b = gen_trial(Label.POSITIVE, params, np.random.default_rng(42), "b")
        np.testing.assert_array_equal(a.trace.samples, b.trace.samples)

    def test_peak_sample_mean_within_three_standard_errors(self):
        # outliers and noise off so the trace maximum equals the peak draw
        params = dataclasses.replace(GenParams(), noise_std=0.0, outlier_probability=0.0)
        rng = np.random.default_rng(123)
        for label in Label:
            profile = params.profile(label)
            peaks = [
                gen_trial(label, params, rng, f"t{i}").trace.samples.max() for i in range(1000)
            ]
            stderr = profile.peak_force_std / np.sqrt(len(peaks))
            assert abs(np.mean(peaks) - profile.peak_force_mean) < 3 * stderr

    def test_outliers_scale_the_peak(self):
        params = dataclasses.replace(
            noiseless_params(), outlier_probability=0.999999, outlier_scale=2.0
        )
        trial = gen_trial(Label.POSITIVE, params, np.random.default_rng(1), "o")
        assert trial.trace.samples.max() == pytest.approx(
            2.0 * params.positive.peak_force_mean
        )

    def test_an_overflowing_trace_names_its_trial_without_numpy_warnings(self):
        # finite settings: an outlier peak of 1e308 x 22 N overflows, and the template
        # multiplies it by zero before contact
        params = GenParams(outlier_probability=0.999999, outlier_scale=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^o: trace contains non-finite values; the settings overflow the float range$"
            with pytest.raises(ValueError, match=message):
                gen_trial(Label.POSITIVE, params, np.random.default_rng(1), "o")
            # 1e-320 Hz overflows every sample time past the first, which the clip absorbs
            tiny_rate = gen_trial(Label.NEGATIVE, GenParams(sample_rate=1e-320),
                                  np.random.default_rng(1))
        assert np.all(np.isfinite(tiny_rate.trace.samples))


class TestGenParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GenParams(n_samples=0)
        with pytest.raises(ValueError):
            GenParams(sample_rate=0.0)
        with pytest.raises(ValueError):
            GenParams(noise_std=-1.0)
        with pytest.raises(ValueError):
            GenParams(outlier_probability=1.0)
        with pytest.raises(ValueError):
            GenParams(outlier_scale=0.5)
        with pytest.raises(ValueError):
            ClassProfile(20.0, -1.0, 5.0, 1.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1.0])
    def test_sample_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match=r"^sample_rate must be a finite number in \(0, inf\)"):
            GenParams(sample_rate=rate)

    def test_separability_guard_with_escape_hatch(self):
        overlapping = ClassProfile(22.0, 2.0, 6.0, 1.0)
        with pytest.raises(ValueError, match="min_separation_stds"):
            GenParams(positive=overlapping, negative=overlapping)
        GenParams(positive=overlapping, negative=overlapping, min_separation_stds=0.0)


class TestGenDataset:
    def test_empty_dataset(self):
        assert gen_dataset(0, 0) == []

    def test_benchmark_sizes_and_label_counts(self):
        trials = gen_dataset(297, 407, rng_seed=3)
        assert len(trials) == 704
        assert sum(1 for t in trials if t.truth is Label.POSITIVE) == 297
        assert len({t.id for t in trials}) == 704

    def test_interleaving_spreads_positives(self):
        trials = gen_dataset(297, 407, rng_seed=3)
        labels = [t.truth for t in trials]
        # every 100-trial block carries roughly its proportional share
        for start in range(0, 700, 100):
            block = labels[start : start + 100]
            n_pos = sum(1 for label in block if label is Label.POSITIVE)
            assert 35 <= n_pos <= 50

    def test_interleaving_formula_matches_a_running_count(self):
        def counted(n_pos, n_neg):  # a positive label wherever the running share steps up
            labels, placed, total = [], 0, n_pos + n_neg
            for i in range(total):
                positive = (i + 1) * n_pos // total > placed
                placed += positive
                labels.append(Label.POSITIVE if positive else Label.NEGATIVE)
            return labels

        for n_pos, n_neg in [*np.ndindex(60, 60), (297, 407)]:
            assert _interleaved_labels(n_pos, n_neg) == counted(n_pos, n_neg)
        assert _interleaved_labels(np.int64(3), np.int64(4)) == counted(3, 4)

    def test_same_seed_is_bitwise_identical(self):
        first = gen_dataset(10, 10, rng_seed=9)
        second = gen_dataset(10, 10, rng_seed=9)
        for a, b in zip(first, second):
            assert a.id == b.id and a.truth is b.truth
            np.testing.assert_array_equal(a.trace.samples, b.trace.samples)

    def test_traces_finite_with_requested_shape(self):
        params = dataclasses.replace(GenParams(), n_samples=300, sample_rate=100.0)
        for trial in gen_dataset(5, 5, params, rng_seed=1):
            assert len(trial.trace) == 300
            assert np.all(np.isfinite(trial.trace.samples))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            gen_dataset(-1, 5)


class TestGeneratorSelfConsistency:
    def test_default_separability_supports_accurate_knn(self):
        # generator contract: defaults must let an 11-NN cosine model trained
        # on 100 samples per class reach 95% accuracy on 200 held-out samples
        train = gen_dataset(100, 100, rng_seed=100)
        test = gen_dataset(100, 100, rng_seed=200)
        model = KnnModel(
            [(preprocess(t.trace), t.truth) for t in train], k=11, metric=COSINE, l_value=50.0
        )
        correct = sum(
            1
            for t in test
            if classify(model, preprocess(t.trace)) is Decision.from_label(t.truth)
        )
        assert correct / len(test) >= 0.95
