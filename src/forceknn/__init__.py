"""forceknn: abstaining k-NN classification of insertion force signals.

Pipeline: smooth and down-sample a force trace into a feature vector,
classify it against a labelled reference set with a minimum-agreement
voting rule, and grow that reference set online by falling back to a label
oracle whenever the vote abstains. Includes a synthetic profile generator,
evaluation metrics and a reporting/grid-search CLI.
"""

__version__ = "0.1.0"

from .classifier import (
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
from .datagen import ClassProfile, GenParams, gen_dataset, gen_trial, profile_template
from .dataset_io import DatasetFormatError, read_dataset, write_dataset
from .grid import GridRow, GridSpec, online_grid, static_grid
from .metrics import (
    ConfusionCounts,
    ConfusionMode,
    SummaryRow,
    TimeModel,
    confusion,
    cycle_time,
    cycle_time_total,
    precision,
    recall,
    sliding_window_series,
    summarize_runs,
    verification_savings,
)
from .online import (
    LabeledTrial,
    LoopConfig,
    Phase,
    RunReport,
    TrialDataError,
    TrialRecord,
    run_online,
    run_replicated,
)
from .signal import (
    FeatureVector,
    ForceTrace,
    PreprocessConfig,
    downsample_mean,
    preprocess,
    savgol_smooth,
)

__all__ = [
    "__version__",
    "ForceTrace",
    "FeatureVector",
    "PreprocessConfig",
    "savgol_smooth",
    "downsample_mean",
    "preprocess",
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
    "LabeledTrial",
    "LoopConfig",
    "Phase",
    "TrialRecord",
    "RunReport",
    "TrialDataError",
    "run_online",
    "run_replicated",
    "ConfusionMode",
    "ConfusionCounts",
    "TimeModel",
    "SummaryRow",
    "confusion",
    "precision",
    "recall",
    "sliding_window_series",
    "cycle_time",
    "cycle_time_total",
    "verification_savings",
    "summarize_runs",
    "ClassProfile",
    "GenParams",
    "profile_template",
    "gen_trial",
    "gen_dataset",
    "DatasetFormatError",
    "write_dataset",
    "read_dataset",
    "GridSpec",
    "GridRow",
    "static_grid",
    "online_grid",
]
