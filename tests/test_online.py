"""Online loop behaviour against a straight-line reference interpreter."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from forceknn import classifier, online
from forceknn.classifier import (
    COSINE,
    EUCLIDEAN,
    MANHATTAN,
    Decision,
    KnnModel,
    Label,
    _batch_distances,
    _count_nearest,
    _distance_matrix,
    _reference_norms,
    classify,
    minkowski,
)
from forceknn.datagen import GenParams, gen_dataset, gen_trial
from forceknn.online import (
    LabeledTrial,
    LoopConfig,
    Phase,
    RecordColumns,
    RunReport,
    TrialRecord,
    _run_seed,
    run_online,
    run_replicated,
)
from forceknn.signal import ForceTrace, PreprocessConfig, preprocess


def reference_run(trials, cfg: LoopConfig):
    """Literal transcription of the loop: seed, classify-or-fallback, periodic rebuild.

    Returns (records, final_dataset_size, oracle_calls).
    """
    records = []
    dataset = []
    oracle_calls = 0
    quota = math.ceil(cfg.seed_size * 0.5)  # at least half positive
    n_pos = 0
    position = 0
    while position < len(trials) and (len(dataset) < cfg.seed_size or n_pos < quota):
        trial = trials[position]
        position += 1
        oracle_calls += 1
        dataset.append((preprocess(trial.trace, cfg.preprocess), trial.truth))
        n_pos += trial.truth is Label.POSITIVE
        records.append(TrialRecord(trial.id, trial.truth, trial.truth, Phase.SEED))
    assert len(dataset) >= cfg.seed_size and n_pos >= quota

    model = KnnModel(dataset, cfg.k, cfg.metric, cfg.l_value)
    for step, trial in enumerate(trials[position:], start=1):
        feature = preprocess(trial.trace, cfg.preprocess)
        decision = classify(model, feature) if len(model) >= cfg.k else Decision.UNCERTAIN
        if decision is Decision.UNCERTAIN:
            oracle_calls += 1
            dataset.append((feature, trial.truth))
            records.append(TrialRecord(trial.id, trial.truth, trial.truth, Phase.FALLBACK))
        else:
            records.append(
                TrialRecord(trial.id, decision.to_label(), trial.truth, Phase.CLASSIFIED)
            )
        if step % cfg.retrain_interval == 0:
            model = KnnModel(dataset, cfg.k, cfg.metric, cfg.l_value)
    return tuple(records), len(dataset), oracle_calls


def small_stream(n_pos=20, n_neg=20, seed=5):
    return gen_dataset(n_pos, n_neg, rng_seed=seed)


class TestLoopConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="seed_size"):
            LoopConfig(k=11, seed_size=10)
        with pytest.raises(ValueError):
            LoopConfig(l_value=45.0)
        with pytest.raises(ValueError):
            LoopConfig(retrain_interval=0)


class TestSeedPhase:
    def test_stream_of_duplicated_seeds_never_abstains(self):
        # every post-seed trial repeats a seed trial exactly, so all 11
        # nearest neighbours sit at distance zero with one unanimous label
        params = GenParams(
            contact_time_jitter=0.0,
            noise_std=0.0,
            outlier_probability=0.0,
            positive=_exact(GenParams().positive),
            negative=_exact(GenParams().negative),
        )
        rng = np.random.default_rng(0)
        base = [
            gen_trial(Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE, params, rng, f"s{i}")
            for i in range(22)
        ]
        repeats = [
            LabeledTrial(f"r{i}", trial.trace, trial.truth)
            for i, trial in enumerate(base * 2)
        ]
        cfg = LoopConfig(l_value=100.0)
        report = run_online(base + repeats, cfg)
        assert report.seed_count == 22
        assert report.verified_count == 22
        post = [r for r in report.records if r.phase is not Phase.SEED]
        assert all(r.phase is Phase.CLASSIFIED for r in post)
        assert all(r.predicted is r.truth for r in post)

    def test_seed_extends_until_positive_quota(self):
        trials = small_stream(30, 30, seed=2)
        negatives = [t for t in trials if t.truth is Label.NEGATIVE]
        positives = [t for t in trials if t.truth is Label.POSITIVE]
        stream = negatives[:20] + positives + negatives[20:]
        cfg = LoopConfig(seed_size=12)
        report = run_online(stream, cfg)
        # 20 negatives precede the first positive, so the seed phase must
        # stretch to 20 + ceil(12 * 0.5) = 26 trials
        assert report.seed_count == 26
        seed_records = report.records[:26]
        assert all(r.phase is Phase.SEED and r.verified for r in seed_records)

    def test_stream_exhausted_during_seeding(self):
        trials = small_stream(2, 30, seed=3)
        cfg = LoopConfig(seed_size=12)
        with pytest.raises(ValueError, match="exhausted"):
            run_online(trials, cfg)

    def test_stream_too_short_or_single_class(self):
        trials = small_stream(6, 6, seed=4)
        with pytest.raises(ValueError, match="too short"):
            run_online(trials, LoopConfig(seed_size=12))
        negatives = [t for t in small_stream(0, 30, seed=5) if t.truth is Label.NEGATIVE]
        with pytest.raises(ValueError, match="both classes"):
            run_online(negatives, LoopConfig(seed_size=12))

    def test_duplicate_trial_ids_rejected(self):
        trials = small_stream(8, 8, seed=6)
        clashing = trials + [LabeledTrial(trials[0].id, trials[1].trace, trials[1].truth)]
        with pytest.raises(ValueError, match="unique"):
            run_online(clashing, LoopConfig(seed_size=12))


def _exact(profile):
    """Zero-spread copy of a class profile (deterministic template draws)."""
    import dataclasses

    return dataclasses.replace(profile, peak_force_std=0.0, plateau_force_std=0.0)


class TestRunOnline:
    def test_matches_reference_interpreter(self):
        trials = small_stream(20, 20, seed=7)
        for cfg in [
            LoopConfig(l_value=100.0),
            LoopConfig(l_value=50.0),
            LoopConfig(l_value=80.0, retrain_interval=5, seed_size=14),
            LoopConfig(k=5, metric=EUCLIDEAN, l_value=100.0, seed_size=12, retrain_interval=3),
        ]:
            report = run_online(trials, cfg)
            records, size, calls = reference_run(trials, cfg)
            assert report.records == records
            assert report.final_dataset_size == size
            assert report.oracle_calls == calls

    def test_l50_with_odd_k_never_verifies_after_seeding(self):
        trials = small_stream(25, 25, seed=11)
        report = run_online(trials, LoopConfig(l_value=50.0))
        assert report.fallback_count == 0
        assert report.verified_count == report.seed_count

    def test_accounting_invariants(self):
        for seed in range(5):
            trials = small_stream(18, 22, seed=seed)
            report = run_online(trials, LoopConfig(l_value=100.0))
            assert report.final_dataset_size == report.seed_count + report.fallback_count
            assert report.oracle_calls == report.verified_count
            # plain ints, as the JSON writers and the benchmark's report take them
            assert type(report.final_dataset_size) is type(report.oracle_calls) is int
            assert len(report.records) == len(trials)

    def test_oracle_soundness(self):
        trials = small_stream(15, 25, seed=13)
        report = run_online(trials, LoopConfig(l_value=90.0))
        for record in report.records:
            if record.verified:
                assert record.predicted is record.truth
            assert record.verified == (record.phase is not Phase.CLASSIFIED)

    def test_snapshot_is_stale_between_rebuilds(self):
        # queries at 4.0 sit between the seed clusters at 0.0 and 10.0, so
        # their two nearest seed neighbours disagree and they keep falling
        # back until the rebuild makes the accumulated 4.0 samples visible
        def trial(i, value, truth):
            return LabeledTrial(f"t{i}", ForceTrace(np.full(4, value), 4.0), truth)

        cfg = LoopConfig(
            k=2,
            metric=EUCLIDEAN,
            l_value=100.0,
            seed_size=2,
            retrain_interval=3,
            preprocess=PreprocessConfig(sg_window=1, sg_order=0, ds_window=1, ds_stride=1),
        )
        stream = [
            trial(0, 0.0, Label.POSITIVE),
            trial(1, 10.0, Label.NEGATIVE),
            trial(2, 4.0, Label.POSITIVE),
            trial(3, 4.0, Label.POSITIVE),
            trial(4, 4.0, Label.POSITIVE),
            trial(5, 4.0, Label.POSITIVE),
        ]
        report = run_online(stream, cfg)
        phases = [r.phase for r in report.records]
        assert phases[:2] == [Phase.SEED, Phase.SEED]
        # trials 2-4 all see only the seed snapshot even though each fallback
        # grew the dataset; a fresh snapshot would have classified 3 and 4
        assert phases[2:5] == [Phase.FALLBACK] * 3
        # the boundary after the third post-seed trial refreshed the snapshot
        assert report.records[5].phase is Phase.CLASSIFIED
        assert report.records[5].predicted is Label.POSITIVE

    def test_replay_is_deterministic(self):
        trials = small_stream(14, 16, seed=21)
        cfg = LoopConfig(l_value=100.0)
        assert run_online(trials, cfg) == run_online(trials, cfg)


IDENTITY = PreprocessConfig(sg_window=1, sg_order=0, ds_window=1, ds_stride=1)
P, N = Label.POSITIVE, Label.NEGATIVE
SEED, OK, FALLBACK = Phase.SEED, Phase.CLASSIFIED, Phase.FALLBACK


def point_stream(points):
    """Trials whose features are the given points: (samples, truth) pairs."""
    return [
        LabeledTrial(f"t{i}", ForceTrace(np.atleast_1d(np.asarray(x, dtype=float)), 4.0), truth)
        for i, (x, truth) in enumerate(points)
    ]


# Seed: positives at 0 and 1, negatives at 10 and 11. Under k=2 a query at
# 5.4 has one neighbour of each class (4.4 and 4.6 away) and falls back; once
# one 5.4 has joined, the next is classified. Every other query is classified.
LINE = [(0, P), (1, P), (10, N), (11, N)] + [
    (0.5, P), (10.5, N),
    (0.4, P), (10.4, N), (0.6, P), (10.6, N),
    (0.3, P), (10.3, N), (0.7, P), (10.7, N), (5.4, P), (5.4, P), (5.4, P), (10.2, N),
    (0.2, P), (10.8, N), (0.1, P),
]
# Seed: positives near (1, 0), negatives near (0, 1). The one zero-norm query
# abstains under cosine and joins at distance 1 from every later query.
PLANE = [((1, 0.1), P), ((1, 0.2), P), ((0.1, 1), N), ((0.2, 1), N)] + [
    ((1, 0.15), P), ((0.15, 1), N),
    ((1, 0.12), P), ((0.12, 1), N), ((1, 0.18), P), ((0.18, 1), N),
    ((1, 0.11), P), ((0.11, 1), N), ((1, 0.19), P), ((0.19, 1), N), ((0, 0), N), ((1, 0.14), P),
    ((0.14, 1), N), ((1, 0.16), P),
    ((0.16, 1), N), ((1, 0.13), P), ((0.13, 1), N),
]


class TestVoteAhead:
    """Hand-built streams whose snapshot holds for several blocks, against the reference."""

    @pytest.mark.parametrize(
        ("points", "metric", "interval", "phases"),
        [
            # Windows of 1, 2 and 4 blocks of 2: the 5.4s fall back in the third
            # block of the 4-block window, so the step commits three blocks and
            # recomputes the fourth on the new snapshot; the last window of 2
            # blocks runs past the stream's end.
            (LINE, EUCLIDEAN, 2, [SEED] * 4 + [OK] * 10 + [FALLBACK] * 2 + [OK] * 5),
            # One-query blocks: the second 5.4 already sees the first.
            (LINE, EUCLIDEAN, 1, [SEED] * 4 + [OK] * 10 + [FALLBACK] + [OK] * 6),
            (PLANE, COSINE, 2, [SEED] * 4 + [OK] * 10 + [FALLBACK] + [OK] * 6),
        ],
        ids=["mid-window", "interval-1", "cosine-zero-norm"],
    )
    def test_matches_reference(self, points, metric, interval, phases):
        stream = point_stream(points)
        cfg = LoopConfig(
            k=2, metric=metric, retrain_interval=interval, seed_size=4, preprocess=IDENTITY
        )
        report = run_online(stream, cfg)
        assert (report.records, report.final_dataset_size, report.oracle_calls) == reference_run(
            stream, cfg
        )
        assert [record.phase for record in report.records] == phases
        assert all(record.predicted is record.truth for record in report.records)


class TestRecordColumns:
    def test_reads_like_the_tuple_of_its_records(self):
        trials = small_stream(14, 16, seed=23)
        report = run_online(trials, LoopConfig(l_value=90.0))
        columns = report.records
        records = tuple(columns)
        assert isinstance(columns, RecordColumns)
        assert len(columns) == len(records) == len(trials)
        assert [r.trial_id for r in records] == [t.id for t in trials]
        for index in (0, 5, -1, -len(records)):
            assert columns[index] == records[index]
        for index in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                columns[index]
        for cut in (slice(3, 9), slice(None, None, -2), slice(-4, None), slice(40, 50)):
            assert columns[cut] == records[cut]
            assert records[cut] == columns[cut]
        assert columns == records and records == columns
        assert columns != records[:-1] and columns[1:] != columns[:-1]
        assert hash(columns) == hash(records)
        assert RecordColumns.of(records) == columns
        assert RecordColumns.of(columns) is columns
        assert columns.index(records[7]) == 7 and records[7] in columns
        with pytest.raises(ValueError):
            columns.phase[0] = 1

    def test_report_built_from_records_converts_them_once(self):
        records = (
            TrialRecord("a", Label.POSITIVE, Label.POSITIVE, Phase.SEED),
            TrialRecord("b", Label.NEGATIVE, Label.POSITIVE, Phase.CLASSIFIED),
            TrialRecord("c", Label.NEGATIVE, Label.NEGATIVE, Phase.FALLBACK),
        )
        report = RunReport(records, 2, LoopConfig(), 0, 2)
        assert isinstance(report.records, RecordColumns)
        assert report.records == records
        assert report.records.phase.tolist() == [0, 1, 2]
        assert report.records.predicted.tolist() == [True, False, False]
        assert report.records.truth.tolist() == [True, True, False]
        assert (report.seed_count, report.fallback_count, report.verified_count) == (1, 1, 2)
        with pytest.raises(ValueError):
            RecordColumns(["a", "b"], [0], [True], [True])


class TestRunReplicated:
    def test_same_base_seed_reproduces_reports(self):
        trials = small_stream(15, 15, seed=31)
        cfg = LoopConfig(l_value=100.0)
        first = run_replicated(trials, cfg, 3, base_seed=9)
        second = run_replicated(trials, cfg, 3, base_seed=9)
        assert first == second

    def test_identity_permutation_seed_equals_unshuffled_run(self):
        all_trials = small_stream(2, 2, seed=33)
        trials = sorted(all_trials, key=lambda t: t.truth is Label.NEGATIVE)  # P, P, N, N
        # find a base seed whose first-run shuffle happens to be the identity
        from forceknn.online import _run_seed

        base = next(
            b
            for b in range(100000)
            if np.array_equal(
                np.random.default_rng(_run_seed(b, 0)).permutation(len(trials)),
                np.arange(len(trials)),
            )
        )
        cfg = LoopConfig(k=2, seed_size=3)
        replicated = run_replicated(trials, cfg, 1, base_seed=base)
        direct = run_online(trials, cfg)
        assert len(replicated) == 1
        assert replicated[0].records == direct.records
        assert replicated[0].final_dataset_size == direct.final_dataset_size

    def test_each_run_matches_reference_on_its_shuffle(self):
        trials = small_stream(15, 15, seed=41)
        cfg = LoopConfig(l_value=100.0)
        reports = run_replicated(trials, cfg, 3, base_seed=17)
        from forceknn.online import _run_seed

        for run_index, report in enumerate(reports):
            run_seed = _run_seed(17, run_index)
            assert report.rng_seed == run_seed
            order = np.random.default_rng(run_seed).permutation(len(trials))
            shuffled = [trials[j] for j in order]
            records, size, calls = reference_run(shuffled, cfg)
            assert report.records == records
            assert report.final_dataset_size == size
            assert report.oracle_calls == calls

    def test_runs_differ_across_indices(self):
        trials = small_stream(15, 15, seed=43)
        reports = run_replicated(trials, LoopConfig(), 2, base_seed=3)
        assert reports[0].records != reports[1].records

    def test_negative_base_seed_rejected(self):
        trials = small_stream(15, 15, seed=44)
        with pytest.raises(ValueError):
            run_replicated(trials, LoopConfig(), 1, base_seed=-2)

    def test_validation(self):
        trials = small_stream(15, 15, seed=44)
        with pytest.raises(ValueError, match="n_runs"):
            run_replicated(trials, LoopConfig(), 0)
        with pytest.raises(ValueError, match="base_seed"):
            run_replicated(trials, LoopConfig(), 1, base_seed=-1)

    def test_cache_shared_with_another_dataset_of_the_same_ids(self):
        # gen_dataset names every dataset's trials trial-0000, ..., so ids
        # alone cannot tell the second dataset's cached rows from the first's.
        cfg = LoopConfig(k=5, seed_size=12, l_value=50.0)
        first, second = gen_dataset(20, 20, rng_seed=1), gen_dataset(20, 20, rng_seed=2)
        assert [t.id for t in first] == [t.id for t in second]
        shared: dict = {}
        run_online(first, cfg, feature_cache=shared)
        assert run_online(second, cfg, feature_cache=shared) == run_online(second, cfg)

    def test_cache_entry_rebuilt_for_another_dataset_frees_the_old_matrix_first(self):
        coarse = PreprocessConfig(ds_window=50, ds_stride=50)  # small beside the matrix
        cfg = LoopConfig(k=5, seed_size=12, l_value=50.0, preprocess=coarse)
        first, second = gen_dataset(150, 150, rng_seed=1), gen_dataset(150, 150, rng_seed=2)
        shared: dict = {}
        tracemalloc.start()
        try:
            run_online(first, cfg, feature_cache=shared)
            tracemalloc.reset_peak()
            run_online(second, cfg, feature_cache=shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * len(second) ** 2  # two matrices at once would pass 2

    def test_calls_run_online_once_per_run_through_the_module(self):
        # The benchmark's tracer wraps online.run_online and sums the oracle
        # calls of the reports it returns; that count must equal the verified
        # records of every run.
        trials = small_stream(15, 15, seed=45)
        real, returned = online.run_online, []

        def wrapper(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        with mock.patch.object(online, "run_online", wrapper):
            reports = run_replicated(trials, LoopConfig(), 4, base_seed=5)
        assert returned == reports and len(returned) == 4
        verified = sum(int(np.count_nonzero(r.records.verified)) for r in reports)
        assert sum(report.oracle_calls for report in returned) == verified


class TestVerificationMonotonicity:
    def test_l100_verifies_at_least_as_much_as_l50(self):
        trials = small_stream(20, 25, seed=51)
        cfg100 = LoopConfig(l_value=100.0)
        cfg50 = LoopConfig(l_value=50.0)
        cache: dict = {}
        reports100 = run_replicated(trials, cfg100, 5, base_seed=1, feature_cache=cache)
        reports50 = run_replicated(trials, cfg50, 5, base_seed=1, feature_cache=cache)
        for high, low in zip(reports100, reports50):
            assert high.verified_count >= low.verified_count


@st.composite
def replay_cases(draw):
    """A small generated stream plus a loop config that can complete its seed phase.

    The stream may hold exact copies of other traces (any label), which tie
    on distance, and all-zero traces, which abstain as cosine queries and
    sit at cosine distance 1 as references.
    """
    trials = gen_dataset(
        draw(st.integers(8, 14)), draw(st.integers(8, 14)), rng_seed=draw(st.integers(0, 999))
    )
    labels = st.sampled_from(Label)
    # copies of a few sources, so that ties often straddle the k-th neighbour
    sources = draw(st.lists(st.integers(0, 3), max_size=16))
    copies = [LabeledTrial(f"copy{i}", trials[j].trace, draw(labels)) for i, j in enumerate(sources)]
    flat = ForceTrace(np.zeros(len(trials[0].trace)), trials[0].trace.sample_rate)
    zeros = [LabeledTrial(f"zero{i}", flat, draw(labels)) for i in range(draw(st.integers(0, 2)))]
    pool = trials + copies + zeros
    stream = [pool[i] for i in draw(st.permutations(range(len(pool))))]
    k = draw(st.integers(1, 7))
    cfg = LoopConfig(
        k=k,
        metric=draw(st.sampled_from([COSINE, EUCLIDEAN, MANHATTAN, minkowski(3.0)])),
        l_value=draw(st.floats(50.0, 100.0)),
        retrain_interval=draw(st.integers(1, 8)),
        seed_size=draw(st.integers(k, k + 6)),
    )
    return stream, cfg


@st.composite
def feature_rows(draw):
    """Rows of very different scales, some of them all zero and some exact duplicates.

    Up to 70 rows: a cosine fill takes 16 query rows at a time, so these span up to
    five blocks, and zero-norm rows are drawn on the blocks' edges too.
    """
    n = draw(st.integers(2, 70), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="rng seed"))
    features = rng.normal(size=(n, 9)) * rng.uniform(1e-3, 1e3, size=(n, 1))
    index = st.integers(0, n - 1)
    edges = st.sampled_from([i for i in (0, 15, 16, 31, 32, 47, 48, 63, 64, n - 1) if i < n])
    for i in draw(st.lists(index | edges, max_size=4), label="zero-norm rows"):
        features[i] = 0.0
    for i, j in draw(st.lists(st.tuples(index, index), max_size=4), label="duplicates"):
        features[i] = features[j]
    return features


METRICS = st.sampled_from([COSINE, EUCLIDEAN, MANHATTAN, minkowski(3.0), minkowski(1.5)])


def per_query_rows(features, metric, n_rows):
    """Rows 0 to n_rows - 1 as queries over every row, one ``_batch_distances`` call each."""
    norms, _ = _reference_norms(features)
    expected = np.ones((n_rows, len(features)))  # a zero-norm cosine query's row is all 1.0
    answered = np.zeros(n_rows, dtype=bool)
    for j in range(n_rows):
        row = _batch_distances(features, norms, features[j], metric)
        if row is not None:
            expected[j], answered[j] = row, True
    return expected, answered


class TestDistanceStore:
    @settings(deadline=None, max_examples=150)
    @given(metric=METRICS, features=feature_rows())
    def test_rows_equal_batch_distances_over_the_full_matrix(self, metric, features):
        expected, expected_answered = per_query_rows(features, metric, len(features))
        distances, answered = _distance_matrix(features, metric)
        assert distances.tobytes() == expected.tobytes()
        assert np.array_equal(answered, expected_answered)

    @settings(deadline=None, max_examples=150)
    @given(metric=METRICS, features=feature_rows(), data=st.data())
    def test_restricted_rows_equal_the_square_matrix_rows(self, metric, features, data):
        # The static grid's use: the tested rows taken first, then the rest.
        n = len(features)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="rows")
        rows = np.array(rows, dtype=int)  # unique, in any order
        first = np.concatenate((rows, np.delete(np.arange(n), rows)))
        square, square_answered = _distance_matrix(features, metric)
        distances, answered = _distance_matrix(features[first], metric, len(rows))
        assert distances.shape == (len(rows), n)
        assert distances.tobytes() == square[np.ix_(rows, first)].tobytes()
        assert np.array_equal(answered, square_answered[rows])
        expected, expected_answered = per_query_rows(features[first], metric, len(rows))
        assert distances.tobytes() == expected.tobytes()
        assert np.array_equal(answered, expected_answered)

    @pytest.mark.parametrize("n_rows", [1, 15, 16, 17, 37, 53])
    def test_cosine_blocks_with_zero_norm_rows_on_their_edges(self, n_rows):
        features = np.random.default_rng(1).normal(size=(53, 7))
        features[[0, 15, 16, 32, 47, 52]] = 0.0
        features[31] *= 1e-170  # not zero, but its squares underflow: zero norm
        expected, expected_answered = per_query_rows(features, COSINE, n_rows)
        distances, answered = _distance_matrix(features, COSINE, n_rows)
        assert distances.tobytes() == expected.tobytes()
        assert np.array_equal(answered, expected_answered)

    def test_zero_norm_row_inside_the_filled_prefix_abstains(self):
        features = np.random.default_rng(0).normal(size=(6, 4))
        features[1] = 0.0
        distances, answered = _distance_matrix(features, COSINE, 3)
        assert answered.tolist() == [True, False, True]
        assert np.all(distances[1] == 1.0)
        assert np.all(distances[:, 1] == 1.0)

    def test_zero_norm_row_outside_the_filled_prefix_sits_at_one(self):
        features = np.random.default_rng(0).normal(size=(6, 4))
        features[4] = 0.0
        distances, answered = _distance_matrix(features, COSINE, 3)
        assert distances.shape == (3, 6) and answered.all()
        assert np.all(distances[:, 4] == 1.0)

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN, minkowski(3.0)], ids=str)
    def test_overflowing_row_outside_the_filled_prefix_raises(self, metric):
        # Under cosine its column reads a finite 1.0: only its norm shows the overflow.
        # (Manhattan distances of these rows stay finite.)
        features = np.random.default_rng(0).normal(size=(6, 4))
        features[4] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape
            with pytest.raises(ValueError, match=f"^{metric} distance overflows the float range$"):
                _distance_matrix(features, metric, 3)

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN], ids=str)
    def test_one_errstate_and_one_finiteness_scan_per_fill(self, metric):
        features = np.random.default_rng(0).normal(size=(40, 5))
        with mock.patch.object(np, "errstate", wraps=np.errstate) as errstate, \
                mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            _distance_matrix(features, metric)
        assert errstate.call_count == isfinite.call_count == 1

    @pytest.mark.parametrize("n_rows", [None, 3])
    def test_cosine_fill_sums_each_norm_once(self, n_rows):
        # One norms pass gives both the reference norms and the rows that answer.
        features = np.random.default_rng(0).normal(size=(6, 4))
        features[1] = 0.0
        with mock.patch.object(classifier, "_norms", wraps=classifier._norms) as norms:
            _, answered = _distance_matrix(features, COSINE, n_rows)
        assert norms.call_count == 1
        assert answered.tolist() == [True, False, True, True, True, True][:n_rows]


class TestFeatureMatrix:
    @pytest.mark.parametrize("n", [15, 16, 17])
    @pytest.mark.parametrize(
        "cfg",
        [PreprocessConfig(), PreprocessConfig(ds_window=10, ds_stride=7)],
        ids=["default", "stride7"],
    )
    def test_stacks_equal_per_trial_features(self, n, cfg):
        trials = gen_dataset(9, 9, rng_seed=8)[:n]
        expected = np.stack([preprocess(trial.trace, cfg).values for trial in trials])
        assert online._feature_matrix(trials, cfg).tobytes() == expected.tobytes()

    def test_two_trace_lengths(self):
        # 1000 and 1009 samples both give 100 features; the runs of one length
        # straddle the stack size.
        trials = gen_dataset(15, 15, rng_seed=9)
        longer = gen_dataset(10, 10, GenParams(n_samples=1009), rng_seed=10)
        mixed = trials[:5] + longer + trials[5:]
        expected = np.stack([preprocess(trial.trace).values for trial in mixed])
        assert online._feature_matrix(mixed, PreprocessConfig()).tobytes() == expected.tobytes()

    def test_first_overflowing_trial_of_a_stack_is_named(self):
        trials = gen_dataset(10, 10, rng_seed=8)
        huge = ForceTrace(np.full(len(trials[0].trace), 1.7e308), trials[0].trace.sample_rate)
        for i in (9, 12):  # both in the first stack of 16
            trials[i] = LabeledTrial(f"huge{i}", huge, Label.POSITIVE)
        # The finished matrix is scanned once: no trial goes through preprocess again.
        with warnings.catch_warnings(), mock.patch.object(online, "preprocess") as preprocess:
            warnings.simplefilter("error")  # an overflow warning would escape
            with pytest.raises(online.TrialDataError) as error:
                online._feature_matrix(trials, PreprocessConfig())
        preprocess.assert_not_called()
        assert str(error.value) == "trial huge9: trace overflows the float range when preprocessed"

    def test_too_short_trace_is_a_plain_value_error(self):
        trials = gen_dataset(10, 10, rng_seed=8)
        with pytest.raises(ValueError) as error:
            online._feature_matrix(trials, PreprocessConfig(sg_window=1001))
        assert type(error.value) is ValueError
        assert str(error.value) == "trace of length 1000 is shorter than window 1001"


# Distances drawn mostly from values that tie or do not order: -0.0 equals 0.0,
# NaN sorts last, and inf ties with inf.
DISTANCES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]), st.floats()
)


class TestCountNearest:
    @settings(deadline=None, max_examples=400)
    @given(data=st.data())
    def test_equals_the_count_over_the_stable_sort(self, data):
        n = data.draw(st.integers(1, 12), label="entries")
        queries = data.draw(st.integers(0, 6), label="queries (0: one 1-d row)")
        if queries == 0:
            dists = data.draw(hnp.arrays(np.float64, n, elements=DISTANCES), label="dists")
        elif data.draw(st.booleans(), label="transposed"):
            drawn = data.draw(hnp.arrays(np.float64, (n, queries), elements=DISTANCES))
            dists = drawn.T  # a strided (queries, entries) view
        else:
            dists = data.draw(hnp.arrays(np.float64, (queries, n), elements=DISTANCES))
        is_pos = data.draw(hnp.arrays(np.bool_, n), label="is_pos")
        k = data.draw(st.integers(1, n), label="k")
        expected = is_pos[np.argsort(dists, axis=-1, kind="stable")[..., :k]].sum(axis=-1)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as stable_sort:
            got = _count_nearest(dists, is_pos, k)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # Only rows whose k nearest are not one set by value alone are sorted:
        # the k-th smallest is NaN or equals the next one (a NaN column pads k = n).
        rows = dists.reshape(-1, n)
        ordered = np.sort(np.hstack([rows, np.full((len(rows), 1), np.nan)]), axis=1)
        undetermined = np.isnan(ordered[:, k - 1]) | (ordered[:, k] == ordered[:, k - 1])
        calls = stable_sort.call_args_list
        sorted_rows = sum(call.args[0].reshape(-1, n).shape[0] for call in calls)
        assert sorted_rows == np.count_nonzero(undetermined)


class TestBatchedReplayMatchesReference:
    @settings(deadline=None, max_examples=100)
    @given(case=replay_cases(), base_seed=st.integers(0, 2**32))
    def test_run_online_and_run_replicated(self, case, base_seed):
        stream, cfg = case
        cache: dict = {}
        report = run_online(stream, cfg, feature_cache=cache)
        replicated = run_replicated(stream, cfg, 2, base_seed, feature_cache=cache)
        assert (report.records, report.final_dataset_size, report.oracle_calls) == reference_run(
            stream, cfg
        )
        # the cached distances were built in stream order and serve every shuffle
        for run_index, report in enumerate(replicated):
            order = np.random.default_rng(_run_seed(base_seed, run_index)).permutation(len(stream))
            shuffled = [stream[j] for j in order]
            assert (
                report.records,
                report.final_dataset_size,
                report.oracle_calls,
            ) == reference_run(shuffled, cfg)

    @settings(deadline=None, max_examples=60)
    @given(case=replay_cases(), n_runs=st.integers(1, 5), base_seed=st.integers(0, 2**32))
    def test_every_replicated_run_matches_reference_record_by_record(
        self, case, n_runs, base_seed
    ):
        stream, cfg = case
        reports = run_replicated(stream, cfg, n_runs, base_seed)
        assert len(reports) == n_runs
        for run_index, report in enumerate(reports):
            order = np.random.default_rng(_run_seed(base_seed, run_index)).permutation(len(stream))
            records, size, calls = reference_run([stream[j] for j in order], cfg)
            assert len(report.records) == len(records)
            for i, want in enumerate(records):
                assert report.records[i] == want
                assert report.records[i - len(records)] == want
            assert list(report.records) == list(records)
            assert report.seed_count == sum(r.phase is Phase.SEED for r in records)
            assert report.fallback_count == sum(r.phase is Phase.FALLBACK for r in records)
            assert report.verified_count == sum(r.verified for r in records) == calls
            assert (report.final_dataset_size, report.oracle_calls) == (size, calls)
