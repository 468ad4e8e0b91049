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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .classifier import COSINE, Decision, KnnModel, Label, Metric, classify, min_agreeing_count
from .signal import FeatureVector, ForceTrace, PreprocessConfig, preprocess

__all__ = [
    "LabeledTrial",
    "LoopConfig",
    "Phase",
    "TrialRecord",
    "RunReport",
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
    rng_seed: int = 0
    n_runs: int = 30

    def __post_init__(self) -> None:
        min_agreeing_count(self.k, self.l_value)  # validates k and l_value
        if self.retrain_interval < 1:
            raise ValueError("retrain_interval must be >= 1")
        if self.seed_size < self.k:
            raise ValueError(f"seed_size ({self.seed_size}) must be >= k ({self.k})")
        if not 0.0 < self.seed_min_positive_fraction <= 1.0:
            raise ValueError("seed_min_positive_fraction must lie in (0, 1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


@dataclass(frozen=True)
class RunReport:
    """Per-trial records and dataset accounting for one run."""

    records: tuple[TrialRecord, ...]
    final_dataset_size: int
    config: LoopConfig
    rng_seed: int
    oracle_calls: int

    @property
    def seed_count(self) -> int:
        return sum(1 for r in self.records if r.phase is Phase.SEED)

    @property
    def fallback_count(self) -> int:
        return sum(1 for r in self.records if r.phase is Phase.FALLBACK)

    @property
    def verified_count(self) -> int:
        return sum(1 for r in self.records if r.verified)


class _HeightCheckOracle:
    """Exact stand-in for the physical height check; counts invocations."""

    def __init__(self) -> None:
        self.calls = 0

    def label(self, trial: LabeledTrial) -> Label:
        self.calls += 1
        return trial.truth


def run_online(
    trials: list[LabeledTrial],
    cfg: LoopConfig = LoopConfig(),
    rng_seed: int | None = None,
    *,
    feature_cache: dict[str, FeatureVector] | None = None,
) -> RunReport:
    """Replay the self-supervised loop over ``trials`` in stream order.

    The loop itself is deterministic; ``rng_seed`` is only echoed into the
    report (it identifies the shuffle that produced the stream order).
    ``feature_cache`` maps trial id to preprocessed feature and may be shared
    across runs over the same trials and preprocessing config.

    Raises ValueError if the stream is no longer than the seed phase, lacks
    one of the classes, or is exhausted before the seed quota is met.
    """
    trials = list(trials)
    if len(trials) <= cfg.seed_size:
        raise ValueError(
            f"stream of {len(trials)} trials is too short for seed_size {cfg.seed_size}"
        )
    present = {trial.truth for trial in trials}
    if present != {Label.POSITIVE, Label.NEGATIVE}:
        raise ValueError("trial stream must contain both classes")
    if len({trial.id for trial in trials}) != len(trials):
        raise ValueError("trial ids must be unique")  # the feature cache keys on them

    features = feature_cache if feature_cache is not None else {}

    def feature_of(trial: LabeledTrial) -> FeatureVector:
        cached = features.get(trial.id)
        if cached is None:
            cached = preprocess(trial.trace, cfg.preprocess)
            features[trial.id] = cached
        return cached

    oracle = _HeightCheckOracle()
    records: list[TrialRecord] = []
    dataset: list[tuple[FeatureVector, Label]] = []

    # Seed phase: oracle-label from the stream head until both the size and
    # the positive quota are met; a shortfall of positives extends the phase.
    positive_quota = math.ceil(cfg.seed_size * cfg.seed_min_positive_fraction)
    n_positive = 0
    consumed = 0
    while consumed < len(trials) and (len(dataset) < cfg.seed_size or n_positive < positive_quota):
        trial = trials[consumed]
        consumed += 1
        label = oracle.label(trial)
        dataset.append((feature_of(trial), label))
        if label is Label.POSITIVE:
            n_positive += 1
        records.append(TrialRecord(trial.id, label, trial.truth, Phase.SEED))
    if len(dataset) < cfg.seed_size or n_positive < positive_quota:
        raise ValueError("stream exhausted before the seed phase completed")

    snapshot = KnnModel(dataset, k=cfg.k, metric=cfg.metric, l_value=cfg.l_value)
    snapshot_size = len(dataset)

    processed = 0
    for trial in trials[consumed:]:
        feature = feature_of(trial)
        if len(snapshot) < cfg.k:
            decision = Decision.UNCERTAIN  # cold start: defer to the oracle
        else:
            decision = classify(snapshot, feature)
        if decision is Decision.UNCERTAIN:
            label = oracle.label(trial)
            dataset.append((feature, label))
            records.append(TrialRecord(trial.id, label, trial.truth, Phase.FALLBACK))
        else:
            records.append(
                TrialRecord(trial.id, decision.to_label(), trial.truth, Phase.CLASSIFIED)
            )
        processed += 1
        if processed % cfg.retrain_interval == 0 and len(dataset) > snapshot_size:
            snapshot = KnnModel(dataset, k=cfg.k, metric=cfg.metric, l_value=cfg.l_value)
            snapshot_size = len(dataset)

    return RunReport(
        records=tuple(records),
        final_dataset_size=len(dataset),
        config=cfg,
        rng_seed=cfg.rng_seed if rng_seed is None else rng_seed,
        oracle_calls=oracle.calls,
    )


def _run_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence([base_seed, run_index]).generate_state(1)[0])


def run_replicated(
    trials: list[LabeledTrial],
    cfg: LoopConfig = LoopConfig(),
    base_seed: int | None = None,
    *,
    feature_cache: dict[str, FeatureVector] | None = None,
) -> list[RunReport]:
    """Run the loop ``cfg.n_runs`` times over per-run shuffles of ``trials``.

    Run i shuffles with a seed derived deterministically from
    ``(base_seed, i)``, so replays are reproducible and runs are independent.
    ``base_seed`` defaults to ``cfg.rng_seed``.
    """
    trials = list(trials)
    base = cfg.rng_seed if base_seed is None else base_seed
    if base < 0:
        raise ValueError("base_seed must be non-negative")
    features = feature_cache if feature_cache is not None else {}
    reports = []
    for run_index in range(cfg.n_runs):
        run_seed = _run_seed(base, run_index)
        order = np.random.default_rng(run_seed).permutation(len(trials))
        shuffled = [trials[j] for j in order]
        reports.append(run_online(shuffled, cfg, rng_seed=run_seed, feature_cache=features))
    return reports
