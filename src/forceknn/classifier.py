"""Abstaining k-nearest-neighbour classification of force features.

A query is answered with the majority label of its k nearest reference
samples only when the share of agreeing neighbours reaches a configurable
minimum-agreement percentage; below that the classifier abstains and the
caller is expected to fall back to an authoritative check. The vote is one
function, shared by ``classify``, ``decide``, the online replay and the
static grid sweep.

Cosine distance is undefined for a zero-norm vector. A zero-norm query (a dropped-out
trace) abstains, and a zero-norm reference sits at cosine distance 1.0 (similarity 0)
from every query; ``distance`` itself still rejects a zero-norm argument. Finite features
that overflow the float range raise one ``ValueError`` under every metric (``_OVERFLOW``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .signal import FeatureVector, _check_count, _check_real

__all__ = [
    "Label",
    "Decision",
    "Metric",
    "COSINE",
    "EUCLIDEAN",
    "MANHATTAN",
    "minkowski",
    "KnnModel",
    "distance",
    "nearest_labels",
    "decide",
    "classify",
    "min_agreeing_count",
]


class Label(Enum):
    """Ground-truth outcome of an insertion trial."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


_LABELS = (Label.NEGATIVE, Label.POSITIVE)  # indexed by a positive flag: the rule's inverse


def _is_positive(label: Label, trial_id: str | None = None) -> bool:
    """The label rule: ``label``'s positive flag; ValueError naming any value that is no Label."""
    if isinstance(label, Label):
        return label is Label.POSITIVE
    where = "" if trial_id is None else f"trial {trial_id}: "
    raise ValueError(f"{where}expected a Label, got {label!r}")


class Decision(Enum):
    """Three-way classifier verdict; UNCERTAIN means the vote abstained."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNCERTAIN = "uncertain"

    @classmethod
    def from_label(cls, label: Label) -> "Decision":
        return cls(label.value)


@dataclass(frozen=True)
class Metric:
    """Distance metric; Minkowski carries an explicit finite exponent p > 0."""

    kind: str
    p: float | None = None

    _KINDS = ("cosine", "euclidean", "manhattan", "minkowski")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "minkowski":
            if self.p is None:
                raise ValueError("minkowski requires an explicit finite exponent p > 0")
            _check_real(self.p, "minkowski p", 0, math.inf, "()")
        elif self.p is not None:
            raise ValueError(f"{self.kind} does not take an exponent")

    def __str__(self) -> str:
        if self.kind == "minkowski":
            return f"minkowski:{self.p:g}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "Metric":
        """Parse ``cosine`` / ``euclidean`` / ``manhattan`` / ``minkowski[:p]``.

        A bare ``minkowski`` defaults to p = 3 so it stays distinct from the
        euclidean metric.
        """
        token = text.strip().lower()
        if token in ("cosine", "euclidean", "manhattan"):
            return cls(token)
        if token == "minkowski":
            return cls("minkowski", 3.0)
        if token.startswith("minkowski:"):
            return cls("minkowski", float(token.split(":", 1)[1]))
        raise ValueError(f"unknown metric {text!r}")


COSINE = Metric("cosine")
EUCLIDEAN = Metric("euclidean")
MANHATTAN = Metric("manhattan")


def minkowski(p: float = 3.0) -> Metric:
    return Metric("minkowski", p)


def min_agreeing_count(k: int, l_value: float) -> int:
    """Smallest neighbour count N_c satisfying N_c * 100 >= l_value * k.

    Evaluated in exact integer arithmetic on l_value's ratio, so threshold
    cases sitting on the boundary (e.g. k=11, l=90, where N_c >= 9.9 means
    at least 10 agreeing neighbours) can never be lost to floating-point rounding.
    """
    _check_count(k, "k")
    _check_real(l_value, "l_value", 50, 100, "[]")
    try:
        num, den = l_value.as_integer_ratio()
    except AttributeError:  # numpy integers have no as_integer_ratio
        num, den = operator.index(l_value), 1
    return -(-num * operator.index(k) // (den * 100))


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, summed as ``np.linalg.norm`` sums them."""
    return np.sqrt(np.add.reduce(vectors * vectors, axis=-1))


def _reference_norms(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms for cosine, and which are non-zero; a zero row gets norm 1 (similarity 0)."""
    norms = _norms(matrix)
    nonzero = norms != 0.0
    return np.where(nonzero, norms, 1.0), nonzero


def _cosine_distances(dots: np.ndarray, norms: np.ndarray, query_norms) -> np.ndarray:
    """``1 - clip(dots / (norms * query_norms), -1, 1)``, computed in ``dots``."""
    dots /= norms * query_norms
    np.maximum(dots, -1.0, out=dots)  # np.clip's bits, without its Python wrapper
    np.minimum(dots, 1.0, out=dots)
    return np.subtract(1.0, dots, out=dots)


def _batch_distances(
    matrix: np.ndarray, norms: np.ndarray | None, query: np.ndarray, metric: Metric
) -> np.ndarray | None:
    """Distances from every row of ``matrix`` to ``query``; None for a zero cosine query.

    An unchecked kernel, except that a cosine query whose norm overflows raises ValueError.
    ``norms`` holds the rows' ``_reference_norms``, read only under cosine.
    """
    if metric.kind == "cosine":
        # Summed like the reference norms, so that distances are symmetric
        # to the bit: the static grid's fill mirrors a query's row into a
        # column of every query's distances to it.
        query_norm = _norms(query)
        if query_norm == 0.0:
            return None
        if query_norm == math.inf:
            raise ValueError(f"{metric} {_OVERFLOW}")
        # One dot product per row, not a matrix-vector product: BLAS rounds a
        # row of ``matrix @ query`` differently by its position in ``matrix``,
        # which would split exact-duplicate references and make a row's
        # distance depend on which snapshot holds it.
        return _cosine_distances(np.vecdot(matrix, query), norms, query_norm)
    diff = matrix - query  # a fresh array: the kernels below work in it
    if metric.kind == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    np.abs(diff, out=diff)
    if metric.kind == "manhattan":
        return diff.sum(axis=1)
    if metric.p == 3.0:
        # |d| * (|d| * |d|): half the time of numpy's pow, and the same bits on every CPU
        diff *= diff * diff
    else:
        diff **= metric.p  # numpy's pow, its square and sqrt shortcuts included
    return diff.sum(axis=1) ** (1.0 / metric.p)


# Query rows per fill step of a cosine matrix and of every rank store: larger blocks were
# no faster and hold more memory (64-row rank blocks raised online's peak by 1.4 MB).
_COSINE_BLOCK = 16
# The error, after the metric, for finite features that overflow: the elementwise metrics
# check distances, cosine its norms (an overflowing one divides dot products to a finite 1.0).
_OVERFLOW = "distance overflows the float range"


def _distance_matrix(
    features: np.ndarray, metric: Metric, n_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The distances from the first ``n_rows`` rows of ``features`` (default all) to every row.

    Row r holds ``_batch_distances`` with row r as the query over rows r onwards, mirrored
    into column r of the later filled rows: that routine is symmetric to the bit. Cosine
    fills ``_COSINE_BLOCK`` rows per step, over the columns from the block's first row on,
    by one ``np.vecdot`` over the broadcast (row, column) pairs, each pair taking the steps
    of ``_batch_distances``, so the same bits. The other metrics fill one row per call:
    blocks were no faster, and their (rows, n, d) temporaries would raise peak memory.
    ``answered`` flags the filled rows that answer; a zero-norm cosine query's row is 1.0,
    its norm counted as 1. The fill runs under one ``np.errstate``; one scan then checks
    every row's norm under cosine, filled or not, or every distance (``_OVERFLOW``).
    """
    n_rows = len(features) if n_rows is None else n_rows
    distances, answered = np.empty((n_rows, len(features))), np.ones(n_rows, dtype=bool)
    step = _COSINE_BLOCK if metric.kind == "cosine" else 1
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.kind == "cosine":
            norms, answered = _reference_norms(features)  # answered is cut to n_rows below
        for r in range(0, n_rows, step):
            stop = min(r + step, n_rows)
            if metric.kind == "cosine":
                dots = np.vecdot(features[r:], features[r:stop, np.newaxis])
                block = _cosine_distances(dots, norms[r:], norms[r:stop, np.newaxis])
            else:
                block = _batch_distances(features[r:], None, features[r], metric)[np.newaxis]
            distances[r:stop, r:] = block
            distances[stop:, r:stop] = block[:, stop - r : n_rows - r].T
    if not np.isfinite(norms if metric.kind == "cosine" else distances).all():
        raise ValueError(f"{metric} {_OVERFLOW}")
    return distances, answered[:n_rows]


def _rank_matrix(features: np.ndarray, metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """Each row's dense distance ranks over every row of ``features``, and the answering rows.

    Row r numbers the sorted distinct values of ``_distance_matrix``'s row r 0, 1, 2, ...,
    equal distances sharing a rank, so it keeps that row's order and ties in int16 (n < 2**15
    rows): 2 * n**2 bytes, and no n x n float array. ``_COSINE_BLOCK`` rows at a time are
    filled against every column, unmirrored, by the same kernels, so from the same bits:
    one ``np.vecdot`` per block under cosine, one ``_batch_distances`` call per row
    otherwise. It flags the answering rows and raises as ``_distance_matrix`` does.
    """
    n = len(features)
    ranks, answered = np.empty((n, n), dtype=np.int16), np.ones(n, dtype=bool)
    starts = np.arange(0, _COSINE_BLOCK * n, n)[:, np.newaxis]  # each block row's flat start
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.kind == "cosine":
            norms, answered = _reference_norms(features)
        for r in range(0, n, _COSINE_BLOCK):
            rows = slice(r, min(r + _COSINE_BLOCK, n))
            if metric.kind == "cosine":
                dots = np.vecdot(features, features[rows, np.newaxis])
                block = _cosine_distances(dots, norms, norms[rows, np.newaxis])
            else:
                block = np.stack([_batch_distances(features, None, q, metric)
                                  for q in features[rows]])
            if not np.isfinite(norms[rows] if metric.kind == "cosine" else block).all():
                raise ValueError(f"{metric} {_OVERFLOW}")
            # Flat positions of each row's values in ascending order, over the block's rows.
            order = block.argsort(axis=1) + starts[: len(block)]
            ordered = block.take(order)
            dense = np.zeros(block.shape, dtype=np.int16)
            np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, dtype=np.int16, out=dense[:, 1:])
            ranks[rows].reshape(-1)[order] = dense
    return ranks, answered


def distance(a: FeatureVector, b: FeatureVector, metric: Metric = COSINE) -> float:
    """Distance between two feature vectors under the given metric.

    Cosine distance is 1 - cos(a, b) with the similarity clipped to [-1, 1],
    so it is exactly 0 for positive scalar multiples and never negative. It raises
    ValueError when either vector has zero norm, and, as ``b``'s distance in the
    one-entry snapshot of ``a``, under every metric when their dimensions differ
    or it overflows the float range.
    """
    with np.errstate(over="ignore"):
        if metric.kind == "cosine" and not (_norms(a.values) and _norms(b.values)):
            raise ValueError("cosine distance is undefined for a zero-norm vector")
    return float(_query_distances(KnnModel([(a, Label.POSITIVE)], 1, metric), b)[0])


def _vote(n_pos, k: int, threshold):
    """Positive and negative masks of the minimum-agreement vote.

    ``n_pos`` counts the positive labels among k neighbours, as an int or an
    int array. A side wins when it holds a strict majority of at least
    ``threshold`` votes; neither mask is set for an abstention. An array
    ``threshold`` broadcasts against ``n_pos``: the static grid passes one
    row per l-value and gets one row of masks per l-value.
    """
    n_neg = k - n_pos
    return (n_pos > n_neg) & (n_pos >= threshold), (n_neg > n_pos) & (n_neg >= threshold)


def _count_nearest(dists: np.ndarray, is_pos: np.ndarray, k: int) -> np.ndarray:
    """Positive entries among the k nearest of each row of ``dists``.

    ``dists`` holds one row per query and one column per entry, in insertion
    order, or is one query's 1-d row, which gets one count instead of an
    array; any values ordered as the distances are, such as the replay's
    int16 ranks, give the same counts. ``is_pos`` flags the positive
    entries. The count equals the one over the first k of the stable sort,
    ``np.argsort(dists, axis=-1, kind="stable")[..., :k]``, without sorting:
    a partition finds each row's k-th smallest distance v, and when exactly
    k entries lie at or below v they are those k. A row with a tie at v, or
    fewer than k comparable entries (NaN), is counted again from the stable
    sort.
    """
    if dists.ndim == 1:  # one query: whole-array counts cost less than axis reductions
        within = dists <= np.partition(dists, k - 1)[k - 1]
        if np.count_nonzero(within) == k:
            return np.count_nonzero(within & is_pos)
        return np.count_nonzero(is_pos[np.argsort(dists, kind="stable")[:k]])
    within = dists <= np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    n_pos = (within & is_pos).sum(axis=1)
    audit_failed = within.sum(axis=1) != k
    if audit_failed.any():
        order = np.argsort(dists[audit_failed], axis=1, kind="stable")[:, :k]
        n_pos[audit_failed] = is_pos[order].sum(axis=1)
    return n_pos


def _decision(n_pos: int, k: int, threshold: int) -> Decision:
    positive, negative = _vote(n_pos, k, threshold)
    return Decision.POSITIVE if positive else Decision.NEGATIVE if negative else Decision.UNCERTAIN


def _check_dimensions(dims: Iterable[int]) -> None:
    """Raise ValueError unless every feature vector in a dataset has the same dimension."""
    dims = set(dims)
    if len(dims) > 1:
        raise ValueError(f"feature vectors of mixed dimension: {sorted(dims)}")


class KnnModel:
    """Immutable k-NN snapshot over a labelled feature dataset.

    Dataset order is significant: exact distance ties are broken by insertion
    index, which makes classification fully deterministic. Growing the
    reference set means building a new snapshot, never mutating this one.
    """

    def __init__(
        self,
        dataset: Iterable[tuple[FeatureVector, Label]],
        k: int = 11,
        metric: Metric = COSINE,
        l_value: float = 100.0,
    ) -> None:
        entries = tuple(dataset)
        self._threshold = min_agreeing_count(k, l_value)
        _check_dimensions(len(feature) for feature, _ in entries)
        self.k = int(k)
        self.metric = metric
        self.l_value = float(l_value)
        self._matrix = np.stack([f.values for f, _ in entries]) if entries else np.empty((0, 0))
        with np.errstate(over="ignore"):  # an overflowing norm raises at each query
            self._norms = _reference_norms(self._matrix)[0] if metric.kind == "cosine" else None
        self._overflows = self._norms is not None and not np.isfinite(self._norms).all()
        self._is_pos = np.array([_is_positive(label) for _, label in entries], dtype=bool)

    def __len__(self) -> int:
        return len(self._is_pos)

    def __repr__(self) -> str:
        return (
            f"KnnModel(n={len(self)}, k={self.k}, metric={self.metric}, "
            f"l_value={self.l_value:g})"
        )


# A decorator enters numpy's error state in 0.25 µs a call, a with block in 0.6 (numpy 2.4, EPYC).
@np.errstate(over="ignore", invalid="ignore")
def _query_distances(model: KnnModel, query: FeatureVector) -> np.ndarray | None:
    """Distance from each entry, in insertion order, to ``query``; None if none is defined."""
    if len(model) < model.k:
        raise ValueError(f"dataset holds {len(model)} entries but k={model.k}")
    q = query.values
    if q.size != model._matrix.shape[1]:
        raise ValueError(f"dimension mismatch: query {q.size}, dataset {model._matrix.shape[1]}")
    distances = _batch_distances(model._matrix, model._norms, q, model.metric)
    if model._overflows or (model._norms is None and not np.isfinite(distances).all()):
        raise ValueError(f"{model.metric} {_OVERFLOW}")
    return distances


def nearest_labels(model: KnnModel, query: FeatureVector) -> list[Label]:
    """Labels of the k dataset entries closest to ``query``.

    Ordered by (distance, insertion index) ascending; the stable sort makes
    exact-distance ties deterministic. Raises ValueError for a zero-norm
    query under cosine, which has no neighbours.
    """
    dists = _query_distances(model, query)
    if dists is None:
        raise ValueError("cosine distance is undefined for a zero-norm query")
    nearest = model._is_pos[np.argsort(dists, kind="stable")[: model.k]]
    return [_LABELS[flag] for flag in nearest.tolist()]


def decide(neighbor_labels: Sequence[Label], k: int, l_value: float) -> Decision:
    """Apply the minimum-agreement voting rule to k neighbour labels.

    The majority label is returned only when its vote count N_c satisfies
    N_c * 100 >= l_value * k; otherwise the classifier abstains. At
    l_value = 50 with odd k this reduces to classic majority voting. An
    exact 50/50 split has no majority label and always abstains.
    """
    labels = list(neighbor_labels)
    if not labels:
        raise ValueError("neighbor label list is empty")
    threshold = min_agreeing_count(k, l_value)
    if len(labels) != k:
        raise ValueError(f"expected exactly k={k} neighbor labels, got {len(labels)}")
    n_pos = sum(map(_is_positive, labels))
    return _decision(n_pos, k, threshold)


def classify(model: KnnModel, query: FeatureVector) -> Decision:
    """Nearest-neighbour vote with abstention; a zero-norm cosine query abstains.

    The k nearest entries are those of ``nearest_labels``, ties broken by
    insertion index; only their positive count is taken, by ``_count_nearest``.
    """
    dists = _query_distances(model, query)
    if dists is None:
        return Decision.UNCERTAIN
    return _decision(int(_count_nearest(dists, model._is_pos, model.k)), model.k, model._threshold)
