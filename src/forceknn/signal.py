"""Force-trace preprocessing: Savitzky-Golay smoothing and mean down-sampling.

The smoothing filter is a fixed projection matrix, cached per (window, order).
``preprocess`` runs both steps in one pass over plain arrays, with no
intermediate trace object; it shares its two kernels (the smoother and the
window view) with ``savgol_smooth`` and ``downsample_mean``, so its features
equal theirs composed, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ForceTrace",
    "FeatureVector",
    "PreprocessConfig",
    "savgol_smooth",
    "downsample_mean",
    "preprocess",
]


# A finite trace near the float range can overflow while it is smoothed or
# down-sampled; every entry point words that one way.
_OVERFLOW = "trace overflows the float range when preprocessed"


def _as_finite_1d(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence of numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ForceTrace:
    """Fixed-rate z-axis force recording of one insertion trial.

    The canonical recording is 1000 samples at 500 Hz (2 s), but any
    non-empty finite trace is accepted.
    """

    samples: np.ndarray
    sample_rate: float = 500.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _as_finite_1d(self.samples, "trace"))
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be positive and finite")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return len(self) / self.sample_rate


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Smoothed, down-sampled force profile as consumed by the classifier."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_finite_1d(self.values, "feature vector"))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class PreprocessConfig:
    """Smoothing and down-sampling parameters.

    Defaults: 15-sample quadratic smoothing, then non-overlapping 10-sample
    mean windows, which reduce a 1000-sample trace to a 100-dimensional
    feature vector.
    """

    sg_window: int = 15
    sg_order: int = 2
    ds_window: int = 10
    ds_stride: int = 10

    def __post_init__(self) -> None:
        if self.sg_window < 1 or self.sg_window % 2 == 0:
            raise ValueError("sg_window must be an odd positive integer")
        if self.sg_order < 0 or self.sg_order >= self.sg_window:
            raise ValueError("sg_order must satisfy 0 <= sg_order < sg_window")
        if self.ds_window < 1:
            raise ValueError("ds_window must be >= 1")
        if self.ds_stride < 1:
            raise ValueError("ds_stride must be >= 1")


@lru_cache(maxsize=None)
def _savgol_projection(window: int, order: int) -> np.ndarray:
    """Read-only least-squares hat matrix: row r gives the fit's value at offset r.

    Built as ``Q Q^T`` from a QR factorisation of the Vandermonde matrix of
    centred, scaled offsets, which stays accurate as ``order`` nears ``window``.
    """
    half = window // 2
    offsets = (np.arange(window) - half) / max(half, 1)
    basis, _ = np.linalg.qr(np.vander(offsets, order + 1, increasing=True))
    projection = basis @ basis.T
    projection.flags.writeable = False
    return projection


def _windows(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Read-only view of every ``stride``-th length-``window`` run of contiguous ``x``.

    The same shape and strides as ``sliding_window_view(x, window)[::stride]``,
    built without its Python overhead. ``np.add.reduce(rows, axis=1) / window``
    over it is exactly ``rows.mean(axis=1)`` for float64.
    """
    if x.size < window:
        raise ValueError(f"trace of length {x.size} is shorter than window {window}")
    shape = ((x.size - window) // stride + 1, window)
    rows = np.ndarray(shape, x.dtype, buffer=x, strides=(stride * x.itemsize, x.itemsize))
    rows.flags.writeable = False
    return rows


def _smooth(x: np.ndarray, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing of contiguous ``x`` into a new array.

    The interior goes first, so a trace shorter than ``window`` gets the
    length error from ``_windows``, not a shape error from an edge product.
    """
    projection = _savgol_projection(window, order)
    half = window // 2
    smoothed = np.empty_like(x)
    smoothed[half : x.size - half] = _windows(x, window, 1) @ projection[half]
    smoothed[:half] = projection[:half] @ x[:window]
    smoothed[x.size - half :] = projection[half + 1 :] @ x[-window:]
    return smoothed


def savgol_smooth(trace: ForceTrace, window: int = 15, order: int = 2) -> ForceTrace:
    """Smooth a trace with a least-squares polynomial (Savitzky-Golay) filter.

    Each interior sample takes the value of the degree-``order`` polynomial
    fitted to the ``window`` samples centred on it. Near the edges the
    first/last full window is fitted once and the polynomial evaluated at the
    boundary offsets, so any polynomial of degree <= ``order`` passes through
    the filter unchanged at every index. Output length equals input length.
    The filter is a fixed projection matrix, cached per (window, order). A
    trace whose smoothing overflows raises ``ValueError``, without numpy
    warnings.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd positive integer")
    if order < 0 or order >= window:
        raise ValueError("order must satisfy 0 <= order < window")
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed = _smooth(trace.samples, window, order)
    try:
        return ForceTrace(smoothed, trace.sample_rate)
    except ValueError:
        raise ValueError(_OVERFLOW) from None


def downsample_mean(trace: ForceTrace, window: int = 10, stride: int = 10) -> FeatureVector:
    """Reduce a trace to the means of sliding windows.

    Output j is the arithmetic mean of samples ``[j*stride, j*stride+window)``;
    trailing samples that do not fill a window are dropped, giving
    ``floor((n - window) / stride) + 1`` values.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return FeatureVector(np.add.reduce(_windows(trace.samples, window, stride), axis=1) / window)


def preprocess(trace: ForceTrace, cfg: PreprocessConfig = PreprocessConfig()) -> FeatureVector:
    """Smooth then down-sample: the full trace-to-feature pipeline.

    Equal, bit for bit, to ``downsample_mean(savgol_smooth(trace, ...), ...)``.
    A trace whose smoothing or down-sampling overflows raises the same
    ``ValueError`` as ``savgol_smooth``, without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed = _smooth(trace.samples, cfg.sg_window, cfg.sg_order)
        rows = _windows(smoothed, cfg.ds_window, cfg.ds_stride)
        values = np.add.reduce(rows, axis=1) / cfg.ds_window
    try:
        return FeatureVector(values)
    except ValueError:
        raise ValueError(_OVERFLOW) from None
