"""Synthetic insertion force-profile generator.

Stands in for real force recordings: every trial follows one piecewise
template (quiet approach, smooth ramp to a contact peak, relaxation onto a
holding plateau) and the two classes differ in their peak/plateau force
distributions. Everything here is invented plumbing -- the template, the
Gaussian noise and the occasional amplified-peak outlier are controllable
knobs, not physics. Defaults give classes that overlap enough to produce
occasional misclassifications while a modest reference set still separates
them well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import _LABELS, Label, _is_positive
from .online import LabeledTrial
from .signal import ForceTrace, _check_count, _check_real

__all__ = [
    "ClassProfile",
    "GenParams",
    "profile_template",
    "gen_trial",
    "gen_dataset",
]


@dataclass(frozen=True)
class ClassProfile:
    """Force-amplitude distribution of one class."""

    peak_force_mean: float
    peak_force_std: float
    plateau_force_mean: float
    plateau_force_std: float

    def __post_init__(self) -> None:
        for name in ("peak_force", "plateau_force"):
            _check_real(getattr(self, f"{name}_mean"), f"{name}_mean")
            _check_real(getattr(self, f"{name}_std"), f"{name}_std", 0, math.inf, "[)")


@dataclass(frozen=True)
class GenParams:
    """Generator configuration.

    ``min_separation_stds`` guards the default separable-but-overlapping
    regime: class means must differ by at least that many combined standard
    deviations for both peak and plateau. Set it to 0 to allow fully
    overlapping classes in stress tests.
    """

    n_samples: int = 1000
    sample_rate: float = 500.0
    contact_time_mean: float = 0.35
    contact_time_jitter: float = 0.02
    ramp_duration: float = 0.25
    relax_duration: float = 0.40
    positive: ClassProfile = field(
        default_factory=lambda: ClassProfile(22.0, 2.0, 5.5, 1.0)
    )
    negative: ClassProfile = field(
        default_factory=lambda: ClassProfile(27.0, 2.0, 12.5, 1.0)
    )
    noise_std: float = 0.6
    outlier_probability: float = 0.02
    outlier_scale: float = 1.8
    min_separation_stds: float = 1.0

    def __post_init__(self) -> None:
        _check_count(self.n_samples, "n_samples")
        for names, low, high, ends in (
            (("sample_rate", "ramp_duration", "relax_duration"), 0, math.inf, "()"),
            (("contact_time_mean", "noise_std", "min_separation_stds"), 0, math.inf, "[)"),
            # rng.uniform(-jitter, jitter) overflows past half the largest float
            (("contact_time_jitter",), 0, np.finfo(float).max / 2, "[]"),
            (("outlier_probability",), 0, 1, "[)"),
            (("outlier_scale",), 1, math.inf, "[)"),
        ):
            for name in names:
                _check_real(getattr(self, name), name, low, high, ends)
        pos, neg = self.positive, self.negative
        for name in ("peak", "plateau"):
            gap = getattr(pos, f"{name}_force_mean") - getattr(neg, f"{name}_force_mean")
            combined = getattr(pos, f"{name}_force_std") + getattr(neg, f"{name}_force_std")
            if abs(gap) < self.min_separation_stds * combined:
                raise ValueError(
                    f"{name} force means are closer than min_separation_stds allows; "
                    "lower min_separation_stds for overlapping classes"
                )


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * (3.0 - 2.0 * u)


def profile_template(
    n_samples: int,
    sample_rate: float,
    contact_time: float,
    peak_force: float,
    plateau_force: float,
    ramp_duration: float,
    relax_duration: float,
) -> np.ndarray:
    """Noise-free piecewise force profile.

    Zero until ``contact_time``, smooth ramp to ``peak_force`` over
    ``ramp_duration``, smooth relaxation to ``plateau_force`` over
    ``relax_duration``, then constant.
    """
    t = np.arange(n_samples) / sample_rate
    ramp_end = contact_time + ramp_duration
    u_ramp = np.clip((t - contact_time) / ramp_duration, 0.0, 1.0)
    u_relax = np.clip((t - ramp_end) / relax_duration, 0.0, 1.0)
    return peak_force * _smoothstep(u_ramp) + (plateau_force - peak_force) * _smoothstep(u_relax)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite trace raises below
def gen_trial(
    label: Label,
    params: GenParams,
    rng: np.random.Generator,
    trial_id: str = "trial",
) -> LabeledTrial:
    """Draw one synthetic trial of the given class.

    Draw order is fixed (contact jitter, peak, plateau, outlier, noise), so a
    seeded generator reproduces the trace exactly. A ``label`` that is not a ``Label``, or
    a trace that overflows the float range, raises ``ValueError`` naming the trial.
    """
    profile = params.positive if _is_positive(label, trial_id) else params.negative
    contact = params.contact_time_mean + rng.uniform(
        -params.contact_time_jitter, params.contact_time_jitter
    )
    peak = rng.normal(profile.peak_force_mean, profile.peak_force_std)
    plateau = rng.normal(profile.plateau_force_mean, profile.plateau_force_std)
    if rng.uniform() < params.outlier_probability:
        peak *= params.outlier_scale
    samples = profile_template(
        params.n_samples,
        params.sample_rate,
        contact,
        peak,
        plateau,
        params.ramp_duration,
        params.relax_duration,
    )
    samples = samples + rng.normal(0.0, params.noise_std, params.n_samples)
    try:
        return LabeledTrial(trial_id, ForceTrace(samples, params.sample_rate), label)
    except ValueError as exc:  # the settings are checked, so the samples overflowed
        raise ValueError(f"{trial_id}: {exc}; the settings overflow the float range") from None


def _interleaved_labels(n_pos: int, n_neg: int) -> list[Label]:
    """Evenly spread n_pos positive labels through a stream of n_pos + n_neg."""
    total = n_pos + n_neg
    return [_LABELS[(i + 1) * n_pos // total - i * n_pos // total] for i in range(total)]


def gen_dataset(
    n_pos: int,
    n_neg: int,
    params: GenParams = GenParams(),
    rng_seed: int = 0,
) -> list[LabeledTrial]:
    """Generate a deterministic interleaved stream of labelled trials.

    Each trial draws from its own seed spawned from ``rng_seed``, so the
    stream is reproducible and trials could be generated in parallel.
    """
    for name, count in (("n_pos", n_pos), ("n_neg", n_neg), ("rng_seed", rng_seed)):
        _check_count(count, name, 0)
    labels = _interleaved_labels(n_pos, n_neg)
    seeds = np.random.SeedSequence(rng_seed).spawn(len(labels))
    return [
        gen_trial(label, params, np.random.default_rng(seed), trial_id=f"trial-{i:04d}")
        for i, (label, seed) in enumerate(zip(labels, seeds))
    ]
