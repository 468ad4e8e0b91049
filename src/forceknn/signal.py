"""Force-trace preprocessing: Savitzky-Golay smoothing and mean down-sampling.

The smoothing filter is a fixed projection matrix, cached per (window, order).
``preprocess`` runs both steps over plain arrays, with no intermediate trace
object, by kernels that work along the last axis of one trace or a stack of
traces. ``savgol_smooth``, ``downsample_mean`` and the replay's stacked
feature matrix share them, so all their features agree bit for bit.
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
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


def _check_count(value, name: str, floor: int = 1) -> None:
    """ValueError naming ``name`` unless ``value`` is a Python or numpy integer >= ``floor``."""
    if not isinstance(value, (int, np.integer)) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


def _check_real(value, name: str, low=-np.inf, high=np.inf, ends: str = "()") -> None:
    """ValueError naming ``name`` unless ``value`` lies in ``low``..``high``, which ``ends``
    brackets as printed: ``[``/``]`` closed, ``(``/``)`` open, as an infinite end must be."""
    if not (low < value < high or value == low and ends[0] == "["
            or value == high and ends[1] == "]"):
        raise ValueError(f"{name} must be a finite number in {ends[0]}{low}, {high}{ends[1]}, "
                         f"got {value!r}")


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
        _check_real(self.sample_rate, "sample_rate", 0, np.inf, "()")

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
        for name, floor in (("sg_window", 1), ("sg_order", 0), ("ds_window", 1), ("ds_stride", 1)):
            _check_count(getattr(self, name), name, floor)
        if self.sg_window % 2 == 0:
            raise ValueError(f"sg_window must be odd, got {self.sg_window}")
        if self.sg_order >= self.sg_window:
            raise ValueError(f"sg_order must be < sg_window {self.sg_window}, got {self.sg_order}")


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
    """View of every ``stride``-th length-``window`` run along the last axis of contiguous ``x``.

    For one trace, the shape and strides of ``sliding_window_view(x, window)[::stride]``,
    built without its Python overhead; read-only when ``x`` is, and only ever an operand.
    ``np.add.reduce(rows, axis=-1) / window`` over it is exactly ``rows.mean(axis=-1)``.
    """
    length = x.shape[-1]
    if length < window:
        raise ValueError(f"trace of length {length} is shorter than window {window}")
    shape = x.shape[:-1] + ((length - window) // stride + 1, window)
    strides = x.strides[:-1] + (stride * x.itemsize, x.itemsize)
    return np.ndarray(shape, x.dtype, buffer=x, strides=strides)


def _smooth(x: np.ndarray, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing along the last axis of contiguous ``x``, into a new array.

    The interior goes first, so a too-short trace gets ``_windows``' length error. Each
    edge is one matrix-vector product per trace, so a stacked trace keeps its lone bits.
    """
    projection = _savgol_projection(window, order)
    half, stop = window // 2, x.shape[-1] - window // 2
    smoothed = np.empty_like(x)
    np.matmul(_windows(x, window, 1), projection[half], out=smoothed[..., half:stop])
    np.matmul(projection[:half], x[..., :window, None], out=smoothed[..., :half, None])
    np.matmul(projection[half + 1 :], x[..., -window:, None], out=smoothed[..., stop:, None])
    return smoothed


def _window_means(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Means of every ``stride``-th length-``window`` run along the last axis of ``x``."""
    return np.add.reduce(_windows(x, window, stride), axis=-1) / window


def _features(x: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """``preprocess``'s values of a trace or a stack of traces; overflow leaves them non-finite."""
    return _window_means(_smooth(x, cfg.sg_window, cfg.sg_order), cfg.ds_window, cfg.ds_stride)


def _checked(make, values: np.ndarray, *args):
    """``make(values, *args)``, a trace or features; an overflow's non-finite values raise."""
    try:
        return make(values, *args)
    except ValueError:
        raise ValueError(_OVERFLOW) from None


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
    PreprocessConfig(sg_window=window, sg_order=order)  # checks window and order
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked(ForceTrace, _smooth(trace.samples, window, order), trace.sample_rate)


def downsample_mean(trace: ForceTrace, window: int = 10, stride: int = 10) -> FeatureVector:
    """Reduce a trace to the means of sliding windows.

    Output j is the arithmetic mean of samples ``[j*stride, j*stride+window)``;
    trailing samples that do not fill a window are dropped, giving
    ``floor((n - window) / stride) + 1`` values. A trace whose window sums
    overflow raises the same ``ValueError`` as ``savgol_smooth``, without
    numpy warnings.
    """
    PreprocessConfig(ds_window=window, ds_stride=stride)  # checks window and stride
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked(FeatureVector, _window_means(trace.samples, window, stride))


@np.errstate(over="ignore", invalid="ignore")  # by decorator: cheaper per call than a with block
def preprocess(trace: ForceTrace, cfg: PreprocessConfig = PreprocessConfig()) -> FeatureVector:
    """Smooth then down-sample: the full trace-to-feature pipeline.

    Equal, bit for bit, to ``downsample_mean(savgol_smooth(trace, ...), ...)``.
    A trace whose smoothing or down-sampling overflows raises the same
    ``ValueError`` as ``savgol_smooth``, without numpy warnings.
    """
    return _checked(FeatureVector, _features(trace.samples, cfg))
