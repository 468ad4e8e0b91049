"""Replay of the online self-supervised insertion-verification loop.

The loop consumes a stream of force trials. An initial seed phase sends
every trial to the label oracle (the stand-in for the physical height
check) until enough balanced samples exist; afterwards each trial is
classified against the current reference snapshot and only abstentions
fall back to the oracle. Oracle-labelled trials, and only those, join the
growing dataset. The snapshot is refreshed on a fixed cadence, so
classifications between refreshes deliberately use a stale snapshot.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# KnnModel and classify are not used here but stay importable: callers reach
# the single-query API through this module.
from .classifier import COSINE, Decision, KnnModel, Label, Metric, classify, min_agreeing_count
from .classifier import _batch_distances, _reference_norms, _vote
from .signal import ForceTrace, PreprocessConfig, preprocess

__all__ = [
    "LabeledTrial",
    "LoopConfig",
    "Phase",
    "TrialRecord",
    "RecordColumns",
    "RunReport",
    "TrialDataError",
    "run_online",
    "run_replicated",
]


@dataclass(frozen=True, eq=False)
class LabeledTrial:
    """One insertion trial plus its ground truth.

    ``truth`` is visible only to the oracle and to post-hoc evaluation; the
    classification path sees nothing but the trace.
    """

    id: str
    trace: ForceTrace
    truth: Label


class Phase(Enum):
    SEED = "seed"
    CLASSIFIED = "classified"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one processed trial.

    ``decision`` and ``verified`` are derived from ``phase``: a classified
    trial carries the classifier's answer (``predicted``) and skipped
    verification; seed and fallback trials carry an uncertain decision and
    were verified by the oracle.
    """

    trial_id: str
    predicted: Label
    truth: Label
    phase: Phase

    @property
    def verified(self) -> bool:
        return self.phase is not Phase.CLASSIFIED

    @property
    def decision(self) -> Decision:
        if self.verified:
            return Decision.UNCERTAIN
        return Decision.from_label(self.predicted)


@dataclass(frozen=True)
class LoopConfig:
    """Parameters of one online run.

    ``l_value`` is the minimum-agreement percentage of the voting rule;
    ``retrain_interval`` counts post-seed trials between snapshot refreshes;
    ``seed_size`` is the minimum number of oracle-labelled samples collected
    before classification starts, of which at least
    ``ceil(seed_size * seed_min_positive_fraction)`` must be positive.
    """

    k: int = 11
    metric: Metric = COSINE
    l_value: float = 100.0
    retrain_interval: int = 20
    seed_size: int = 22
    seed_min_positive_fraction: float = 0.5
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self) -> None:
        min_agreeing_count(self.k, self.l_value)  # validates k and l_value
        if self.retrain_interval < 1:
            raise ValueError("retrain_interval must be >= 1")
        if self.seed_size < self.k:
            raise ValueError(f"seed_size ({self.seed_size}) must be >= k ({self.k})")
        if not 0.0 < self.seed_min_positive_fraction <= 1.0:
            raise ValueError("seed_min_positive_fraction must lie in (0, 1]")


# Phase codes of RecordColumns.phase: code i is _PHASES[i].
_PHASES = (Phase.SEED, Phase.CLASSIFIED, Phase.FALLBACK)
_SEED, _CLASSIFIED, _FALLBACK = range(3)
_LABELS = (Label.NEGATIVE, Label.POSITIVE)  # indexed by a positive flag


class RecordColumns(Sequence):
    """One run's trial records, stored as columns and read as ``TrialRecord`` objects.

    ``ids`` is the stream's trial ids; ``phase`` holds phase codes (0 seed,
    1 classified, 2 fallback) and ``predicted``/``truth`` positive flags, all
    read-only arrays. Record i is built on access. Indexing, slicing (which
    gives columns) and iteration behave as on a tuple of the records, and
    the columns equal another ``RecordColumns`` or a tuple holding the same
    records.
    """

    __slots__ = ("ids", "phase", "predicted", "truth")

    def __init__(self, ids, phase, predicted, truth) -> None:
        self.ids = tuple(ids)
        self.phase = np.asarray(phase, dtype=np.int8)
        self.predicted = np.asarray(predicted, dtype=bool)
        self.truth = np.asarray(truth, dtype=bool)
        for column in (self.phase, self.predicted, self.truth):
            if column.shape != (len(self.ids),):
                raise ValueError("record columns must be 1-d and of equal length")
            column.flags.writeable = False

    @classmethod
    def of(cls, records: Sequence[TrialRecord]) -> RecordColumns:
        """``records`` as columns: converted once, or passed through if already columns."""
        if isinstance(records, cls):
            return records
        return cls(
            [r.trial_id for r in records],
            [_PHASES.index(r.phase) for r in records],
            [_LABELS.index(r.predicted) for r in records],
            [_LABELS.index(r.truth) for r in records],
        )

    @property
    def verified(self) -> np.ndarray:
        """Per record: whether the oracle labelled it (a seed or fallback trial)."""
        return self.phase != _CLASSIFIED

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordColumns(
                self.ids[index], self.phase[index], self.predicted[index], self.truth[index]
            )
        i = range(len(self.ids))[index]  # IndexError and negative indices as on a tuple
        return TrialRecord(
            self.ids[i],
            _LABELS[self.predicted.item(i)],
            _LABELS[self.truth.item(i)],
            _PHASES[self.phase.item(i)],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (RecordColumns, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class RunReport:
    """One run's trial records and dataset accounting.

    ``records`` is stored as ``RecordColumns``: per-run arrays of phase
    codes and predicted and true positive flags beside the trial ids, which
    metrics and the JSON-lines writer read directly. Any other sequence of
    ``TrialRecord`` objects passed in is converted once.
    """

    records: RecordColumns
    final_dataset_size: int
    config: LoopConfig
    rng_seed: int
    oracle_calls: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", RecordColumns.of(self.records))

    @property
    def seed_count(self) -> int:
        return int(np.count_nonzero(self.records.phase == _SEED))

    @property
    def fallback_count(self) -> int:
        return int(np.count_nonzero(self.records.phase == _FALLBACK))

    @property
    def verified_count(self) -> int:
        return int(np.count_nonzero(self.records.verified))


# The most a distance store holds: 1 GiB, or 2**27 / n rows of n distances.
# Past it the store forgets its rows and starts over. A row for every trial
# fits up to n = 11585; one run adds a row per dataset entry (108 at n = 704).
_STORE_BYTES = 2**30


class _Distances:
    """Distances between the rows of one feature matrix under one metric.

    Row j is filled the first time it is asked for: row ``slot[j]`` of
    ``store`` holds the distances from every row of ``features`` (the
    columns) to row j, by the per-query routine of ``classify`` with row j
    as the query. That routine is symmetric to the bit, so row j also holds
    each query's distance to reference j, and a new row takes its entries
    for trials with a stored row from those rows. Only the other columns
    are computed, against one copy of their features per call.
    Under cosine a zero-norm row sits at distance 1 from every query and,
    as a query, abstains (``answered``).
    """

    def __init__(self, features: np.ndarray, metric: Metric) -> None:
        self.features = features
        self.norms = _reference_norms(features)
        self.metric = metric
        # The zero-norm rule of _batch_distances, for every query at once.
        zero = np.linalg.norm(features, axis=1) == 0.0
        self.answered = ~zero if metric.kind == "cosine" else np.ones(len(features), dtype=bool)
        self.slot = np.full(len(features), -1)
        self.store = np.empty((0, len(features)))
        self.n_rows = 0

    def between(self, columns, rows: np.ndarray) -> np.ndarray:
        """The stored ``rows`` (computed if missing), restricted to ``columns``."""
        missing = rows[self.slot[rows] < 0]
        need = self.n_rows + len(missing)
        if need > len(self.store):
            n = len(self.slot)
            limit = max(_STORE_BYTES // (8 * n), len(rows))  # rows the store may hold
            if need > limit:  # full: forget every row, keep the asked-for ones
                self.slot[:] = -1
                self.n_rows, missing, need = 0, rows, len(rows)
            if need > len(self.store):  # grow by doubling, up to the limit
                grown = np.empty((min(n, limit, max(2 * len(self.store), need, 64)), n))
                grown[: self.n_rows] = self.store[: self.n_rows]
                self.store = grown
        if len(missing):
            new = slice(self.n_rows, self.n_rows + len(missing))
            stored = np.flatnonzero(self.slot >= 0)
            # Stored row i holds every query's distance to i, so also each new row's.
            self.store[new, stored] = self.store[self.slot[stored][:, np.newaxis], missing].T
            fresh = np.flatnonzero(self.slot < 0)
            features, norms = self.features[fresh], self.norms[fresh]
            for at, j in enumerate(missing, start=new.start):
                row = _batch_distances(features, norms, self.features[j], self.metric)
                self.store[at, fresh] = 1.0 if row is None else row
            self.slot[missing] = np.arange(new.start, new.stop)
            self.n_rows = new.stop
        return self.store[np.ix_(self.slot[rows], columns)]


class TrialDataError(ValueError):
    """A trial whose finite trace gives non-finite features; the message names the trial."""


def _feature_matrix(trials: Sequence[LabeledTrial], cfg: PreprocessConfig) -> np.ndarray:
    """The trials' preprocessed features, one row each.

    A finite trace near the float range can overflow while it is
    preprocessed; ``preprocess`` raises a ``ValueError`` for it, re-raised
    here as a ``TrialDataError``. A trace too short for the windows stays a
    plain ``ValueError``: the config is at fault.
    """
    rows = []
    for trial in trials:
        try:
            rows.append(preprocess(trial.trace, cfg).values)
        except ValueError as exc:
            if len(trial.trace) < max(cfg.sg_window, cfg.ds_window):
                raise
            raise TrialDataError(f"trial {trial.id}: {exc}") from None
    return np.stack(rows)


def _distances(trials: list[LabeledTrial], cfg: LoopConfig, cache: dict):
    """The cached trial-to-row map and distances for ``cfg``; new ones if the map lacks a trial."""
    key = (cfg.metric, cfg.preprocess)
    entry = cache.get(key)
    if entry is None or not all(trial in entry[0] for trial in trials):
        features = _feature_matrix(trials, cfg.preprocess)
        row_of = {trial: i for i, trial in enumerate(trials)}  # two datasets may share ids
        entry = cache[key] = row_of, _Distances(features, cfg.metric)
    return entry


def run_online(
    trials: list[LabeledTrial],
    cfg: LoopConfig,
    rng_seed: int = 0,
    *,
    feature_cache: dict | None = None,
) -> RunReport:
    """Replay the self-supervised loop over ``trials`` in stream order.

    The loop itself is deterministic; ``rng_seed`` is only echoed into the
    report (it identifies the shuffle that produced the stream order).
    Between refreshes the snapshot is frozen, so each block of up to
    ``retrain_interval`` queries is ranked and voted on in one step, over
    stored rows of distances from each snapshot entry to every trial. Its
    verdicts land in the report's record columns by slice assignment.

    ``feature_cache`` memoises those rows, with the preprocessed features,
    under ``(cfg.metric, cfg.preprocess)``; share it across runs over the
    same trials, and across l-values and k. An entry stores 8 * n bytes per
    trial that has sat in a snapshot, for n trials: one run adds a row per
    dataset entry (under 1 MB at n = 704), many runs approach 8 * n**2 bytes
    (4 MB at n = 704), and no entry passes 1 GiB.

    Raises ValueError if the stream is no longer than the seed phase, lacks
    one of the classes, or is exhausted before the seed quota is met.
    """
    trials = list(trials)
    if len(trials) <= cfg.seed_size:
        raise ValueError(
            f"stream of {len(trials)} trials is too short for seed_size {cfg.seed_size}"
        )
    positive = np.array([trial.truth is Label.POSITIVE for trial in trials])
    if positive.all() or not positive.any():
        raise ValueError("trial stream must contain both classes")
    ids = tuple(trial.id for trial in trials)
    if len(set(ids)) != len(ids):
        raise ValueError("trial ids must be unique")  # the records name trials by id

    row_of, distances = _distances(trials, cfg, {} if feature_cache is None else feature_cache)
    rows = np.array([row_of[trial] for trial in trials])
    # The oracle is exact, so a dataset entry's label is its trial's truth.
    row_positive = np.zeros(len(row_of), dtype=bool)
    row_positive[rows] = positive

    # Seed phase: oracle-label from the stream head until both the size and
    # the positive quota are met; a shortfall of positives extends the phase.
    positive_quota = math.ceil(cfg.seed_size * cfg.seed_min_positive_fraction)
    met = (np.arange(1, len(trials) + 1) >= cfg.seed_size) & (
        np.cumsum(positive) >= positive_quota
    )
    if not met.any():
        raise ValueError("stream exhausted before the seed phase completed")
    consumed = int(met.argmax()) + 1
    # The dataset's rows in insertion order. The oracle is asked once per seed
    # and fallback trial, and only those trials join, labelled by the truth.
    dataset = rows[:consumed].tolist()
    phase = np.full(len(trials), _CLASSIFIED, dtype=np.int8)
    phase[:consumed] = _SEED
    predicted = positive.copy()

    # Each block sees the snapshot taken at its start. The seed phase holds at
    # least seed_size >= k entries, so every snapshot has k neighbours to rank.
    threshold = min_agreeing_count(cfg.k, cfg.l_value)
    for start in range(consumed, len(trials), cfg.retrain_interval):
        stop = start + cfg.retrain_interval
        block = rows[start:stop]
        snapshot = np.array(dataset)
        ranked = np.argsort(distances.between(block, snapshot), axis=0, kind="stable")
        n_pos = row_positive[snapshot][ranked[: cfg.k]].sum(axis=0)
        is_pos, is_neg = _vote(n_pos, cfg.k, threshold)
        committed = (is_pos | is_neg) & distances.answered[block]
        predicted[start:stop][committed] = is_pos[committed]
        phase[start:stop][~committed] = _FALLBACK
        dataset.extend(block[~committed].tolist())

    return RunReport(
        records=RecordColumns(ids, phase, predicted, positive),
        final_dataset_size=len(dataset),
        config=cfg,
        rng_seed=rng_seed,
        oracle_calls=len(dataset),  # one oracle answer per dataset entry
    )


def _run_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence([base_seed, run_index]).generate_state(1)[0])


def _check_runs(n_runs: int, base_seed: int) -> None:
    """Raise ValueError unless ``run_replicated`` can make ``n_runs`` runs from ``base_seed``."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")


def run_replicated(
    trials: list[LabeledTrial],
    cfg: LoopConfig,
    n_runs: int,
    base_seed: int = 0,
    *,
    feature_cache: dict | None = None,
) -> list[RunReport]:
    """Run the loop ``n_runs`` times over per-run shuffles of ``trials``.

    Run i shuffles with a seed derived deterministically from
    ``(base_seed, i)``, so replays are reproducible and runs are independent.
    Every run ranks over the distance rows kept in ``feature_cache``, so a
    row computed by one run serves the later ones (see ``run_online``; up to
    8 * n**2 bytes per metric and preprocessing config).
    """
    _check_runs(n_runs, base_seed)
    trials = list(trials)
    cache = feature_cache if feature_cache is not None else {}
    reports = []
    for run_index in range(n_runs):
        run_seed = _run_seed(base_seed, run_index)
        order = np.random.default_rng(run_seed).permutation(len(trials))
        shuffled = [trials[j] for j in order]
        reports.append(run_online(shuffled, cfg, rng_seed=run_seed, feature_cache=cache))
    return reports
