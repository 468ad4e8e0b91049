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

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

import numpy as np

# KnnModel, classify and preprocess are unused here: bench/child.py calls them
# through this module, and bench/spans.py patches all three here.
from .classifier import COSINE, Decision, KnnModel, Label, Metric, classify, min_agreeing_count
from .classifier import _check_dimensions, _count_nearest, _is_positive, _rank_matrix
from .classifier import _LABELS, _vote
from .signal import _OVERFLOW, ForceTrace, PreprocessConfig, _check_count
from .signal import _features, preprocess

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


# Phase codes of RecordColumns.phase: code i is _PHASES[i].
_PHASES = tuple(Phase)
_SEED, _CLASSIFIED, _FALLBACK = range(3)


def _phase_code(phase: Phase, trial_id: str) -> int:
    """The phase rule: ``phase``'s code; ValueError naming its trial for a value that is no Phase."""
    if isinstance(phase, Phase):
        return _PHASES.index(phase)
    raise ValueError(f"trial {trial_id}: expected a Phase, got {phase!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one processed trial.

    ``decision`` and ``verified`` are derived from ``phase``: a classified
    trial carries the classifier's answer (``predicted``) and skipped
    verification; seed and fallback trials carry an uncertain decision and
    were verified by the oracle. Both read ``phase`` and ``predicted`` through their rules.
    """

    trial_id: str
    predicted: Label
    truth: Label
    phase: Phase

    @property
    def verified(self) -> bool:
        return _phase_code(self.phase, self.trial_id) != _CLASSIFIED

    @property
    def decision(self) -> Decision:
        if self.verified:
            return Decision.UNCERTAIN
        return Decision.POSITIVE if _is_positive(self.predicted, self.trial_id) else Decision.NEGATIVE


@dataclass(frozen=True)
class LoopConfig:
    """Parameters of one online run.

    ``l_value`` is the minimum-agreement percentage of the voting rule;
    ``retrain_interval`` counts post-seed trials between snapshot refreshes;
    ``seed_size`` is the minimum number of oracle-labelled samples collected
    before classification starts, of which at least half, rounded up, must
    be positive.
    """

    k: int = 11
    metric: Metric = COSINE
    l_value: float = 100.0
    retrain_interval: int = 20
    seed_size: int = 22
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self) -> None:
        min_agreeing_count(self.k, self.l_value)  # validates k and l_value
        _check_count(self.retrain_interval, "retrain_interval")
        _check_count(self.seed_size, "seed_size", self.k)


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
            [_phase_code(r.phase, r.trial_id) for r in records],
            [_is_positive(r.predicted, r.trial_id) for r in records],
            [_is_positive(r.truth, r.trial_id) for r in records],
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


# The most a distance matrix may take: 1 GiB, 8 * n**2 bytes for n trials, so n <= 11585.
# The static grid fills float64 matrices; the replay's int16 rank store takes a quarter of
# that, and n < 2**15 keeps its ranks in range.
_MATRIX_BYTES = 2**30
_STACK = 16  # traces per preprocessing pass: larger stacks save little and hold more memory


class TrialDataError(ValueError):
    """A trial whose finite trace gives non-finite features; the message names the trial."""


def _feature_matrix(trials: Sequence[LabeledTrial], cfg: PreprocessConfig) -> np.ndarray:
    """The trials' preprocessed features, one row each, for a distance matrix.

    Up to ``_STACK`` consecutive traces of one length pass through ``preprocess``'s kernel
    at once, under one ``np.errstate``, each row equal to ``preprocess``'s bit for bit.
    Raises ValueError before any trial is preprocessed when the trials' distance matrix
    would pass ``_MATRIX_BYTES``, for a trace too short for the windows, and, as
    ``KnnModel`` does, for features of mixed dimension. One scan of
    the matrix then finds the first trial whose finite trace overflows: a
    ``TrialDataError`` names it, worded as ``preprocess`` words the overflow.
    """
    n = len(trials)
    if 8 * n * n > _MATRIX_BYTES:
        raise ValueError(f"{n} trials need a {8 * n * n}-byte distance matrix, over {_MATRIX_BYTES}")
    groups = [list(group) for _, group in itertools.groupby(trials, key=lambda t: len(t.trace))]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [
            _features(np.stack([trial.trace.samples for trial in group[i : i + _STACK]]), cfg)
            for group in groups for i in range(0, len(group), _STACK)
        ]
    _check_dimensions(block.shape[1] for block in blocks)
    features = np.concatenate(blocks)
    for trial in itertools.compress(trials, ~np.isfinite(features).all(axis=1)):
        raise TrialDataError(f"trial {trial.id}: {_OVERFLOW}")  # the first that overflows
    return features


def _rows(trials: list[LabeledTrial], cfg: LoopConfig, cache: dict):
    """Each trial's row, each row's positive flag, the rank store and its answering rows."""
    key = (cfg.metric, cfg.preprocess)  # an entry that lacks one of the trials is rebuilt
    row_of, truth, ranks, answered = cache.pop(key, ({}, None, None, None))
    rows = np.array(list(map(row_of.get, trials, itertools.repeat(-1))))
    if -1 in rows:
        del ranks  # free a stale entry's store before the new one is built
        row_of = {trial: i for i, trial in enumerate(trials)}  # two datasets may share ids
        truth = np.array([_is_positive(trial.truth, trial.id) for trial in trials])
        ranks, answered = _rank_matrix(_feature_matrix(trials, cfg.preprocess), cfg.metric)
        rows = np.arange(len(trials))
    cache[key] = row_of, truth, ranks, answered
    return rows, truth, ranks, answered


def run_online(
    trials: list[LabeledTrial],
    cfg: LoopConfig,
    rng_seed: int = 0,
    *,
    feature_cache: dict | None = None,
) -> RunReport:
    """Replay the self-supervised loop over ``trials`` in stream order.

    The loop itself is deterministic; ``rng_seed`` is only echoed into the
    report (it identifies the shuffle that produced the stream order). The
    dataset is the verified (seed and fallback) trials so far, and the
    snapshot their rows and positive flags in stream order, frozen between
    refreshes. A block of ``retrain_interval`` queries without a fallback
    leaves the next block the same snapshot, so each step votes a window of
    blocks at once, by ``_count_nearest`` over rows of the rank store and
    a table of the vote's verdict per positive count. A step commits up to the
    end of its first block with a fallback, or its whole window if none has
    one; the window doubles after a step without a fallback and falls back to
    one block after a step with one. Each trial's flat offset into the store
    and its zero-norm flag are looked up once per run; a step stores its
    counts and fallback flags by slice, and the phases and predictions are
    read off them once, after the last step.

    The replay reads distances only by their order within a query's row, so
    it ranks over ``_rank_matrix``'s store: each row's dense distance ranks,
    which keep that order and its ties exactly, in int16. ``feature_cache``
    memoises the store, 2 * n**2 bytes for n trials (1 MB at n = 704), and
    each trial's row in it under ``(cfg.metric, cfg.preprocess)``; share it
    across runs over the same trials, and across l-values and k; clear it once
    the last run is done to free the store, as the CLI does before it writes.
    When a float64 distance matrix (8 * n**2 bytes) would pass 1 GiB
    (n > 11585) the run raises ValueError before any trial is preprocessed.

    Raises ValueError if a trial's truth is not a ``Label``, or if the stream
    is no longer than the seed phase, lacks one of the classes, or is
    exhausted before the seed quota is met.
    """
    trials = list(trials)
    if len(trials) <= cfg.seed_size:
        raise ValueError(
            f"stream of {len(trials)} trials is too short for seed_size {cfg.seed_size}"
        )
    cache = {} if feature_cache is None else feature_cache
    rows, truth, ranks, answered = _rows(trials, cfg, cache)
    positive = truth[rows]
    if positive.all() or not positive.any():
        raise ValueError("trial stream must contain both classes")
    ids = tuple(map(attrgetter("id"), trials))
    if len(set(ids)) != len(ids):
        raise ValueError("trial ids must be unique")  # the records name trials by id

    # Seed phase: oracle-label from the stream head until both the size and
    # the positive quota are met; a shortfall of positives extends the phase.
    met = np.cumsum(positive) >= -(-cfg.seed_size // 2)  # at least half, rounded up
    met[: cfg.seed_size - 1] = False  # fewer than seed_size samples
    if not met.any():
        raise ValueError("stream exhausted before the seed phase completed")
    seed_end = start = int(met.argmax()) + 1
    offsets = rows * len(ranks)  # each stream trial's row in the flat store
    unanswered = ~answered[rows]
    verified = np.ones(len(trials), dtype=bool)  # seed and fallback trials
    n_pos = np.zeros(len(trials), dtype=np.intp)  # positive neighbours of classified trials

    # The vote's verdict for each count of positive neighbours, 0 to k.
    pos_of, neg_of = _vote(np.arange(cfg.k + 1), cfg.k, min_agreeing_count(cfg.k, cfg.l_value))
    undecided = ~(pos_of | neg_of)
    # Each block sees the snapshot taken at its start: the verified trials before it. The
    # seed phase holds seed_size >= k of them, so every snapshot has k neighbours to rank.
    interval = window = cfg.retrain_interval
    while start < len(trials):
        snapshot = np.flatnonzero(verified[:start])
        # One gather by flat index: no (window, n) copy of whole rows on the way.
        dists = ranks.take(offsets[start : start + window, np.newaxis] + rows[snapshot])
        counts = _count_nearest(dists, positive[snapshot], cfg.k)
        fallback = undecided[counts] | unanswered[start : start + window]
        if fallback.any():  # the snapshot changes after this fallback's block
            end = (int(fallback.argmax()) // interval + 1) * interval
            fallback, counts, window = fallback[:end], counts[:end], interval
        else:
            window *= 2
        block = slice(start, start + len(fallback))
        n_pos[block], verified[block] = counts, fallback
        start = block.stop
    phase = np.where(verified, _FALLBACK, _CLASSIFIED)
    phase[:seed_end] = _SEED
    predicted = np.where(verified, positive, pos_of[n_pos])
    size = int(np.count_nonzero(verified))  # the final dataset: every verified trial
    return RunReport(
        records=RecordColumns(ids, phase, predicted, positive),
        final_dataset_size=size,
        config=cfg,
        rng_seed=rng_seed,
        oracle_calls=size,  # one oracle answer per dataset entry
    )


def _run_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence([base_seed, run_index]).generate_state(1)[0])


def _check_runs(n_runs: int, base_seed: int) -> None:
    """Raise ValueError unless ``run_replicated`` can make ``n_runs`` runs from ``base_seed``."""
    _check_count(n_runs, "n_runs")
    _check_count(base_seed, "base_seed", 0)


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
    Every run ranks over the rank store kept in ``feature_cache``, so the
    store built for the first run serves the later ones (see
    ``run_online``). The reports hold no reference to it, nor to ``trials``:
    clearing ``feature_cache`` frees the store, as the CLI does before it
    writes.
    """
    _check_runs(n_runs, base_seed)
    trials = list(trials)
    cache = feature_cache if feature_cache is not None else {}
    reports = []
    for run_index in range(n_runs):
        run_seed = _run_seed(base_seed, run_index)
        order = np.random.default_rng(run_seed).permutation(len(trials))
        shuffled = list(map(trials.__getitem__, order.tolist()))
        reports.append(run_online(shuffled, cfg, rng_seed=run_seed, feature_cache=cache))
    return reports
