"""Distance metrics, neighbour search and the minimum-agreement voting rule."""

from __future__ import annotations

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forceknn.classifier import (
    COSINE,
    EUCLIDEAN,
    MANHATTAN,
    Decision,
    KnnModel,
    Label,
    Metric,
    classify,
    decide,
    distance,
    min_agreeing_count,
    minkowski,
    nearest_labels,
)
from forceknn.classifier import _batch_distances, _reference_norms
from forceknn.datagen import gen_dataset
from forceknn.grid import GridSpec
from forceknn.online import LoopConfig, _feature_matrix
from forceknn.signal import FeatureVector, PreprocessConfig

ALL_METRICS = [COSINE, EUCLIDEAN, MANHATTAN, minkowski(3.0), minkowski(1.7)]

# Every l-value type min_agreeing_count accepts, drawn from [50, 100] and its boundaries.
_REAL_L = st.one_of(
    st.sampled_from([50.0, 90.0, 100.0, 50.000001, 66.66666666666667]),
    st.floats(50.0, 100.0),
)
L_VALUES = st.one_of(
    _REAL_L.flatmap(lambda x: st.sampled_from([x, np.float64(x), Fraction(x), Decimal(x)])),
    st.integers(50, 100).flatmap(lambda n: st.sampled_from([n, np.int64(n)])),
    st.fractions(50, 100),
    st.decimals(50, 100, allow_nan=False, allow_infinity=False),
)


def loop_distance(a, b, metric: Metric) -> float:
    """Element-by-element reference implementation."""
    if metric.kind == "cosine":
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        return 1.0 - dot / (na * nb)
    if metric.kind == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if metric.kind == "manhattan":
        return sum(abs(x - y) for x, y in zip(a, b))
    return sum(abs(x - y) ** metric.p for x, y in zip(a, b)) ** (1.0 / metric.p)


def brute_force_decision(dataset, query, k: int, metric: Metric, l_value: float) -> Decision:
    """Full-sort pipeline: sort all (distance, index) pairs, vote, threshold."""
    ranked = sorted(
        (loop_distance(feature.values, query.values, metric), index)
        for index, (feature, _) in enumerate(dataset)
    )
    labels = [dataset[index][1] for _, index in ranked[:k]]
    n_pos = sum(1 for label in labels if label is Label.POSITIVE)
    n_neg = k - n_pos
    if n_pos == n_neg:
        return Decision.UNCERTAIN
    majority, count = (Label.POSITIVE, n_pos) if n_pos > n_neg else (Label.NEGATIVE, n_neg)
    return Decision.from_label(majority) if count * 100 >= l_value * k else Decision.UNCERTAIN


def _fv(*values) -> FeatureVector:
    return FeatureVector(np.asarray(values, dtype=float))


class TestDistance:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_identical_vectors_have_zero_distance(self, metric):
        v = _fv(1.0, 2.0, 3.0)
        assert distance(v, v, metric) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        a, b = _fv(1.0, 0.0), _fv(0.0, 1.0)
        assert distance(a, b, COSINE) == pytest.approx(1.0)
        assert distance(a, b, EUCLIDEAN) == pytest.approx(math.sqrt(2))
        assert distance(a, b, MANHATTAN) == pytest.approx(2.0)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_elementwise_loop_oracle(self, metric):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = FeatureVector(rng.normal(size=100))
            b = FeatureVector(rng.normal(size=100))
            expected = loop_distance(a.values, b.values, metric)
            assert distance(a, b, metric) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_symmetry(self, metric):
        rng = np.random.default_rng(23)
        a, b = FeatureVector(rng.normal(size=20)), FeatureVector(rng.normal(size=20))
        assert distance(a, b, metric) == pytest.approx(distance(b, a, metric), rel=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=str)
    def test_batch_distances_symmetric_to_the_bit(self, metric):
        # the online replay keeps one row per reference and reads it as the
        # distances of every query to that reference
        rng = np.random.default_rng(29)
        for _ in range(20):
            matrix = rng.normal(size=(int(rng.integers(2, 40)), int(rng.integers(2, 120))))
            matrix *= rng.uniform(1e-3, 1e3, size=(len(matrix), 1))
            matrix[-1] = 2.5 * matrix[0]
            norms, _ = _reference_norms(matrix)
            rows = np.stack([_batch_distances(matrix, norms, q, metric) for q in matrix])
            assert np.array_equal(rows, rows.T)

    def test_minkowski_3_cubes_by_multiplication(self):
        # numpy's pow differs from the product in 26% of these cubes and 6% of these
        # distances (numpy 2.4, AVX-512); p = 2.5 keeps numpy's pow
        features = _feature_matrix(gen_dataset(297, 407, rng_seed=0), PreprocessConfig())
        for query in features[::50]:
            d = np.abs(features - query)
            cubes = _batch_distances(features, None, query, minkowski(3.0))
            assert cubes.tobytes() == ((d * (d * d)).sum(axis=1) ** (1 / 3)).tobytes()
            powers = _batch_distances(features, None, query, minkowski(2.5))
            assert powers.tobytes() == ((d**2.5).sum(axis=1) ** (1 / 2.5)).tobytes()

    def test_minkowski_3_cube_overflows_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(distance(_fv(5e102, 1.0), _fv(0.0, 1.0), minkowski(3.0)))
            message = "^minkowski:3 distance overflows the float range$"
            with pytest.raises(ValueError, match=message):
                distance(_fv(6e102, 1.0), _fv(0.0, 1.0), minkowski(3.0))

    def test_cosine_zero_for_positive_scalar_multiple(self):
        v = _fv(0.5, -2.0, 4.0)
        scaled = FeatureVector(3.7 * v.values)
        assert distance(v, scaled, COSINE) == pytest.approx(0.0, abs=1e-12)
        assert distance(v, scaled, COSINE) >= 0.0

    def test_cosine_zero_norm_is_an_error(self):
        zero, v = _fv(0.0, 0.0), _fv(1.0, 2.0)
        with pytest.raises(ValueError, match="zero-norm"):
            distance(zero, v, COSINE)
        with pytest.raises(ValueError, match="zero-norm"):
            distance(v, zero, COSINE)

    @pytest.mark.parametrize(
        "metric, scale",
        # 3 ** 1000 from the root; a square; the difference itself; a power of 3; a cosine
        # norm, of the reference a or of the query b alone, whose distances read finite.
        [(minkowski(0.001), 1.0), (EUCLIDEAN, 1e200), (MANHATTAN, 1e308), (minkowski(3.0), 1e200),
         pytest.param(COSINE, (1e200, 1.0), id="cosine-huge-reference"),
         pytest.param(COSINE, (1.0, 1e200), id="cosine-huge-query")],
        ids=lambda value: str(value),
    )
    def test_overflow_is_one_error_without_warnings(self, metric, scale):
        scale_a, scale_b = scale if isinstance(scale, tuple) else (scale, scale)
        a, b = _fv(scale_a, -scale_a, 2.0), _fv(-scale_b, scale_b, 0.5)
        model = KnnModel([(a, Label.POSITIVE)], k=1, metric=metric)
        message = re.escape(f"{metric} distance overflows the float range")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            with pytest.raises(ValueError, match=message):
                distance(a, b, metric)
            with pytest.raises(ValueError, match=message):
                classify(model, b)

    @pytest.mark.parametrize("metric", ALL_METRICS[:4], ids=str)
    def test_dimension_mismatch(self, metric):
        with pytest.raises(ValueError, match="^dimension mismatch: query 3, dataset 2$"):
            distance(_fv(1.0, 2.0), _fv(1.0, 2.0, 3.0), metric)

    def test_minkowski_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = FeatureVector(rng.normal(size=rng.integers(2, 40)))
            b = FeatureVector(rng.normal(size=len(a)))
            assert distance(a, b, minkowski(2.0)) == pytest.approx(
                distance(a, b, EUCLIDEAN), rel=1e-12
            )
            assert distance(a, b, minkowski(1.0)) == pytest.approx(
                distance(a, b, MANHATTAN), rel=1e-12
            )


class TestMetric:
    def test_minkowski_requires_explicit_p(self):
        with pytest.raises(ValueError):
            Metric("minkowski")
        with pytest.raises(ValueError):
            Metric("minkowski", 0.0)
        with pytest.raises(ValueError):
            Metric("cosine", 2.0)
        with pytest.raises(ValueError):
            Metric("chebyshev")

    def test_minkowski_rejects_non_finite_p(self):
        # p = inf would put every pair at distance 1.0, a tie across the board
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Metric("minkowski", p)
        with pytest.raises(ValueError, match="finite"):
            Metric.parse("minkowski:inf")

    def test_parse_round_trip(self):
        for text in ["cosine", "euclidean", "manhattan", "minkowski:3", "minkowski:2.5"]:
            assert str(Metric.parse(text)) == text
        assert Metric.parse("minkowski") == minkowski(3.0)
        with pytest.raises(ValueError):
            Metric.parse("hamming")


class TestNearestLabels:
    def test_all_duplicates_of_query(self):
        query = _fv(1.0, 2.0, 3.0)
        model = KnnModel([(query, Label.POSITIVE)] * 11, k=11)
        assert nearest_labels(model, query) == [Label.POSITIVE] * 11

    def test_hand_computed_three_point_example(self):
        # points at 0.0, 1.0, 2.0 on a line; query at 0.9 gives distances
        # 0.9, 0.1, 1.1, so the two nearest are [Pos, Neg].
        dataset = [
            (_fv(0.0, 1.0), Label.NEGATIVE),
            (_fv(1.0, 1.0), Label.POSITIVE),
            (_fv(2.0, 1.0), Label.NEGATIVE),
        ]
        model = KnnModel(dataset, k=2, metric=EUCLIDEAN)
        assert nearest_labels(model, _fv(0.9, 1.0)) == [Label.POSITIVE, Label.NEGATIVE]

    def test_exact_ties_break_by_insertion_index(self):
        point = _fv(1.0, 1.0)
        dataset = [
            (point, Label.NEGATIVE),
            (point, Label.POSITIVE),
            (point, Label.NEGATIVE),
            (_fv(5.0, 5.0), Label.POSITIVE),
        ]
        model = KnnModel(dataset, k=3, metric=EUCLIDEAN)
        assert nearest_labels(model, _fv(1.0, 1.0)) == [
            Label.NEGATIVE,
            Label.POSITIVE,
            Label.NEGATIVE,
        ]

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_full_sort_oracle(self, metric):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n, dim = int(rng.integers(5, 200)), int(rng.integers(2, 20))
            dataset = [
                (FeatureVector(rng.normal(size=dim)), Label(rng.choice(["positive", "negative"])))
                for _ in range(n)
            ]
            query = FeatureVector(rng.normal(size=dim))
            ranked = sorted(
                (loop_distance(f.values, query.values, metric), i)
                for i, (f, _) in enumerate(dataset)
            )
            for k in (1, min(5, n), n):
                model = KnnModel(dataset, k=k, metric=metric)
                expected = [dataset[i][1] for _, i in ranked[:k]]
                assert nearest_labels(model, query) == expected

    def test_errors(self):
        model = KnnModel([(_fv(1.0, 2.0), Label.POSITIVE)], k=2)
        with pytest.raises(ValueError, match="entries"):
            nearest_labels(model, _fv(1.0, 2.0))
        model = KnnModel([(_fv(1.0, 2.0), Label.POSITIVE)] * 3, k=2)
        with pytest.raises(ValueError, match="dimension"):
            nearest_labels(model, _fv(1.0, 2.0, 3.0))

    def test_model_rejects_mixed_dimensions_and_bad_params(self):
        with pytest.raises(ValueError, match="mixed dimension"):
            KnnModel([(_fv(1.0), Label.POSITIVE), (_fv(1.0, 2.0), Label.NEGATIVE)])
        with pytest.raises(ValueError):
            KnnModel([], k=0)
        with pytest.raises(ValueError):
            KnnModel([], l_value=40.0)
        with pytest.raises(ValueError):
            KnnModel([], l_value=101.0)


class TestDecide:
    def test_paper_boundary_k11_l90(self):
        # at l=90 and k=11 the rule needs N_c >= 9.9, i.e. at least 10 votes
        assert decide([Label.POSITIVE] * 10 + [Label.NEGATIVE], 11, 90.0) is Decision.POSITIVE
        assert (
            decide([Label.POSITIVE] * 9 + [Label.NEGATIVE] * 2, 11, 90.0) is Decision.UNCERTAIN
        )

    def test_unanimous_at_l100(self):
        assert decide([Label.NEGATIVE] * 11, 11, 100.0) is Decision.NEGATIVE

    def test_ten_of_eleven_fails_l100(self):
        assert (
            decide([Label.POSITIVE] * 10 + [Label.NEGATIVE], 11, 100.0) is Decision.UNCERTAIN
        )

    def test_simple_majority_at_l50(self):
        assert (
            decide([Label.POSITIVE] * 6 + [Label.NEGATIVE] * 5, 11, 50.0) is Decision.POSITIVE
        )

    def test_odd_k_at_l50_always_decides(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.choice([1, 3, 5, 7, 11, 25]))
            n_pos = int(rng.integers(0, k + 1))
            labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * (k - n_pos)
            assert decide(labels, k, 50.0) is not Decision.UNCERTAIN

    def test_even_split_abstains(self):
        labels = [Label.POSITIVE, Label.NEGATIVE] * 3
        assert decide(labels, 6, 50.0) is Decision.UNCERTAIN

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        labels = [Label.POSITIVE] * 7 + [Label.NEGATIVE] * 4
        reference = decide(labels, 11, 70.0)
        for _ in range(20):
            shuffled = list(labels)
            rng.shuffle(shuffled)
            assert decide(shuffled, 11, 70.0) is reference

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            decide([], 0, 50.0)
        with pytest.raises(ValueError, match="exactly"):
            decide([Label.POSITIVE] * 3, 4, 50.0)
        with pytest.raises(ValueError):
            decide([Label.POSITIVE], 1, 49.0)
        with pytest.raises(ValueError):
            decide([Label.POSITIVE], 1, 100.5)

    def test_exhaustive_against_integer_inequality(self):
        for k in range(1, 26):
            for n_pos in range(k + 1):
                labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * (k - n_pos)
                for l_value in range(50, 101):
                    got = decide(labels, k, float(l_value))
                    majority_count = max(n_pos, k - n_pos)
                    if n_pos == k - n_pos or majority_count * 100 < l_value * k:
                        assert got is Decision.UNCERTAIN
                    elif n_pos > k - n_pos:
                        assert got is Decision.POSITIVE
                    else:
                        assert got is Decision.NEGATIVE

    def test_min_agreeing_count_boundary_values(self):
        assert min_agreeing_count(11, 90.0) == 10
        assert min_agreeing_count(11, 50.0) == 6
        assert min_agreeing_count(11, 100.0) == 11
        assert min_agreeing_count(10, 50.0) == 5

    @settings(deadline=None, max_examples=300)
    @given(k=st.integers(1, 64), l_value=L_VALUES)
    def test_min_agreeing_count_is_the_exact_rational_ceiling(self, k, l_value):
        assert min_agreeing_count(k, l_value) == math.ceil(Fraction(l_value) * k / 100)


# Every entry point that takes k, at l=90; KnnModel is compared by its repr.
K_ENTRY_POINTS = {
    "min_agreeing_count": lambda k: min_agreeing_count(k, 90.0),
    "KnnModel": lambda k: repr(KnnModel([(_fv(1.0, 0.0), Label.POSITIVE)] * 11, k, COSINE, 90.0)),
    "LoopConfig": lambda k: LoopConfig(k=k, l_value=90.0),
    "GridSpec": lambda k: GridSpec(k_values=(k,), l_values=(90.0,)),
    "decide": lambda k: decide([Label.POSITIVE] * 10 + [Label.NEGATIVE], k, 90.0),
}


class TestIntegerK:
    @pytest.mark.parametrize("k", [11.0, 11.5, np.float64(11.0)], ids=["11.0", "11.5", "np11.0"])
    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    def test_rejects_a_float_k(self, entry, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            K_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    def test_takes_a_numpy_integer_k(self, entry):
        assert K_ENTRY_POINTS[entry](np.int64(11)) == K_ENTRY_POINTS[entry](11)


class TestAbstentionMonotonicity:
    def test_definite_decisions_survive_lower_thresholds(self):
        rng = np.random.default_rng(99)
        levels = [50.0 + 0.5 * j for j in range(101)]
        for _ in range(300):
            k = int(rng.integers(1, 26))
            n_pos = int(rng.integers(0, k + 1))
            labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * (k - n_pos)
            decisions = [decide(labels, k, level) for level in levels]
            definite = {d for d in decisions if d is not Decision.UNCERTAIN}
            assert len(definite) <= 1  # never flips between the two labels
            for lower, higher in zip(decisions, decisions[1:]):
                if higher is not Decision.UNCERTAIN:
                    assert lower is higher


class TestClassify:
    def test_composition_of_parts(self):
        rng = np.random.default_rng(13)
        for metric in ALL_METRICS:
            dataset = [
                (FeatureVector(rng.normal(size=8)), Label(rng.choice(["positive", "negative"])))
                for _ in range(30)
            ]
            model = KnnModel(dataset, k=7, metric=metric, l_value=70.0)
            query = FeatureVector(rng.normal(size=8))
            assert classify(model, query) is decide(
                nearest_labels(model, query), model.k, model.l_value
            )

    def test_unanimous_duplicate_dataset_decides_at_any_l(self):
        query = _fv(2.0, 4.0)
        model_pos = KnnModel([(query, Label.POSITIVE)] * 5, k=5, l_value=100.0)
        assert classify(model_pos, query) is Decision.POSITIVE
        model_neg = KnnModel([(query, Label.NEGATIVE)] * 5, k=5, l_value=50.0)
        assert classify(model_neg, query) is Decision.NEGATIVE

    def test_three_point_example_mixed_neighbors_abstain_at_l100(self):
        dataset = [
            (_fv(0.0, 1.0), Label.NEGATIVE),
            (_fv(1.0, 1.0), Label.POSITIVE),
            (_fv(2.0, 1.0), Label.NEGATIVE),
        ]
        model = KnnModel(dataset, k=2, metric=EUCLIDEAN, l_value=100.0)
        assert classify(model, _fv(0.9, 1.0)) is Decision.UNCERTAIN

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_brute_force_pipeline(self, metric):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n, dim = int(rng.integers(11, 120)), int(rng.integers(2, 20))
            dataset = [
                (FeatureVector(rng.normal(size=dim)), Label(rng.choice(["positive", "negative"])))
                for _ in range(n)
            ]
            k = int(rng.integers(1, min(n, 25) + 1))
            l_value = float(rng.integers(50, 101))
            model = KnnModel(dataset, k=k, metric=metric, l_value=l_value)
            query = FeatureVector(rng.normal(size=dim))
            assert classify(model, query) is brute_force_decision(
                dataset, query, k, metric, l_value
            )

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(66)
        dataset = [
            (FeatureVector(rng.normal(size=12)), Label(rng.choice(["positive", "negative"])))
            for _ in range(40)
        ]
        model = KnnModel(dataset, k=9, metric=COSINE, l_value=80.0)
        for _ in range(25):
            query = FeatureVector(rng.normal(size=12))
            base = classify(model, query)
            for scale in (1e-3, 0.5, 7.0, 1e4):
                assert classify(model, FeatureVector(scale * query.values)) is base

    def test_zero_norm_query_abstains_under_cosine(self):
        rng = np.random.default_rng(41)
        dataset = [(FeatureVector(rng.normal(size=5)), Label.POSITIVE) for _ in range(7)]
        model = KnnModel(dataset, k=3, metric=COSINE, l_value=50.0)
        zero = _fv(0.0, 0.0, 0.0, 0.0, 0.0)
        assert classify(model, zero) is Decision.UNCERTAIN
        with pytest.raises(ValueError, match="zero-norm"):
            nearest_labels(model, zero)

    def test_zero_norm_reference_sits_at_cosine_distance_one(self):
        query = _fv(1.0, 2.0)
        dataset = [
            (_fv(-1.0, -2.0), Label.NEGATIVE),  # distance 2
            (_fv(2.0, -1.0), Label.NEGATIVE),  # orthogonal: distance 1, after the zero row
            (_fv(0.0, 0.0), Label.POSITIVE),  # distance 1
        ]
        model = KnnModel(dataset, k=1, metric=COSINE, l_value=100.0)
        assert nearest_labels(model, query) == [Label.NEGATIVE]
        model = KnnModel([dataset[0], dataset[2], dataset[1]], k=2, metric=COSINE)
        assert nearest_labels(model, query) == [Label.POSITIVE, Label.NEGATIVE]
        assert classify(KnnModel(dataset[::2], k=1), query) is Decision.POSITIVE
        near = (FeatureVector(query.values + 0.1), Label.NEGATIVE)
        assert classify(KnnModel([*dataset, near], k=1), query) is Decision.NEGATIVE

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=str)
    def test_exact_duplicate_references_tie_in_insertion_order(self, metric):
        # copies of one vector sit at one distance wherever they stand in the
        # snapshot, so the nearest are the earliest copies
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, dim = int(rng.integers(2, 12)), int(rng.integers(2, 40))
            reference = FeatureVector(rng.normal(size=dim))
            labels = [Label.POSITIVE if i % 2 else Label.NEGATIVE for i in range(n)]
            model = KnnModel([(reference, label) for label in labels], k=n, metric=metric)
            assert nearest_labels(model, FeatureVector(rng.normal(size=dim))) == labels

    def test_determinism(self):
        rng = np.random.default_rng(88)
        dataset = [
            (FeatureVector(rng.normal(size=6)), Label(rng.choice(["positive", "negative"])))
            for _ in range(25)
        ]
        model = KnnModel(dataset, k=5, l_value=60.0)
        query = FeatureVector(rng.normal(size=6))
        decisions = {classify(model, query) for _ in range(10)}
        assert len(decisions) == 1


class TestDecisionLabelConversion:
    def test_round_trip(self):
        for label in Label:
            assert Label(Decision.from_label(label).value) is label
