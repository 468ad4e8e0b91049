"""Smoothing and down-sampling against independent brute-force oracles."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from forceknn.signal import (
    FeatureVector,
    ForceTrace,
    PreprocessConfig,
    _savgol_projection,
    downsample_mean,
    preprocess,
    savgol_smooth,
)


def _polyfit_window(segment: np.ndarray, offsets, order: int) -> np.ndarray:
    """Least-squares polynomial fit via normal equations, evaluated at offsets."""
    t = np.arange(len(segment), dtype=float)
    design = np.vander(t, order + 1, increasing=True)
    coef = np.linalg.solve(design.T @ design, design.T @ segment)
    offsets = np.asarray(offsets, dtype=float)
    return sum(coef[j] * offsets**j for j in range(order + 1))


def savgol_oracle(x: np.ndarray, window: int, order: int) -> np.ndarray:
    """Smoothing oracle: fit every window independently.

    Interior index i takes the centre value of the fit over its own window;
    the first/last half-windows take the first/last full-window fit evaluated
    at their offsets.
    """
    n = len(x)
    half = window // 2
    out = np.empty(n)
    for i in range(half, n - half):
        out[i] = _polyfit_window(x[i - half : i + half + 1], [half], order)[0]
    out[:half] = _polyfit_window(x[:window], np.arange(half), order)
    out[n - half :] = _polyfit_window(x[n - window :], np.arange(half + 1, window), order)
    return out


def exact_hat_matrix(window: int, order: int) -> list[list[Fraction]]:
    """Least-squares hat matrix ``V (V^T V)^-1 V^T`` in exact rational arithmetic.

    ``V`` is the Vandermonde matrix of offsets ``0..window-1``; row r maps a
    window of samples to the fitted polynomial's value at offset r.
    """
    m = order + 1
    vander = [[Fraction(t) ** j for j in range(m)] for t in range(window)]
    gram = [[sum(row[a] * row[b] for row in vander) for b in range(m)] for a in range(m)]
    # Gauss-Jordan elimination of [gram | I] leaves [I | gram^-1].
    aug = [gram[a] + [Fraction(int(a == b)) for b in range(m)] for a in range(m)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(m):
            if r != c and aug[r][c]:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    inverse = [row[m:] for row in aug]
    coef = [[sum(v * inv[b] for v, inv in zip(row, inverse)) for b in range(m)] for row in vander]
    return [[sum(c * v for c, v in zip(ci, vj)) for vj in vander] for ci in coef]


def exact_savgol(x: np.ndarray, window: int, order: int) -> np.ndarray:
    """Smoothing oracle in exact arithmetic, rounded once to float at the end."""
    hat = exact_hat_matrix(window, order)
    xs = [Fraction(v) for v in x.tolist()]
    n, half = len(xs), window // 2
    out = []
    for i in range(n):
        if i < half:
            row, segment = hat[i], xs[:window]
        elif i >= n - half:
            row, segment = hat[window - (n - i)], xs[n - window :]
        else:
            row, segment = hat[half], xs[i - half : i + half + 1]
        out.append(float(sum(h * v for h, v in zip(row, segment))))
    return np.array(out)


def preprocess_reference(samples, cfg: PreprocessConfig) -> np.ndarray:
    """The two-step pipeline as first written: window views, three matmuls, ``mean``.

    Same projection and same kernels on the same layouts, so it pins the
    feature bits, not just their values to a tolerance.
    """
    x = np.array(samples, dtype=float)
    window, half = cfg.sg_window, cfg.sg_window // 2
    projection = _savgol_projection(window, cfg.sg_order)
    smoothed = np.empty_like(x)
    smoothed[:half] = projection[:half] @ x[:window]
    smoothed[half : x.size - half] = sliding_window_view(x, window) @ projection[half]
    smoothed[x.size - half :] = projection[half + 1 :] @ x[-window:]
    return sliding_window_view(smoothed, cfg.ds_window)[:: cfg.ds_stride].mean(axis=1)


def downsample_oracle(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    out = []
    start = 0
    while start + window <= len(x):
        out.append(sum(x[start : start + window]) / window)
        start += stride
    return np.array(out)


class TestForceTrace:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            ForceTrace(np.array([]))
        with pytest.raises(ValueError):
            ForceTrace(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            ForceTrace(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            ForceTrace(np.ones(4), sample_rate=0.0)

    def test_rejects_non_finite_sample_rate(self):
        for rate in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                ForceTrace(np.ones(4), sample_rate=rate)

    def test_duration(self):
        assert ForceTrace(np.ones(1000), 500.0).duration == pytest.approx(2.0)

    def test_samples_are_immutable(self):
        trace = ForceTrace(np.ones(8))
        with pytest.raises(ValueError):
            trace.samples[0] = 3.0


class TestSavgolSmooth:
    def test_constant_trace_unchanged(self):
        trace = ForceTrace(np.full(100, 5.0))
        out = savgol_smooth(trace, 15, 2)
        assert len(out) == 100
        assert out.sample_rate == trace.sample_rate
        np.testing.assert_allclose(out.samples, 5.0, atol=1e-12)

    def test_quadratic_trace_reproduced_exactly(self):
        i = np.arange(100, dtype=float)
        quad = 0.01 * i**2 - 0.3 * i + 2.0
        out = savgol_smooth(ForceTrace(quad), 15, 2)
        np.testing.assert_allclose(out.samples, quad, atol=1e-9)

    def test_polynomial_reproduction_all_degrees_and_boundaries(self):
        rng = np.random.default_rng(11)
        i = np.arange(80, dtype=float)
        for order in (0, 1, 2, 3):
            coeffs = rng.normal(size=order + 1)
            poly = sum(c * i**j for j, c in enumerate(coeffs))
            out = savgol_smooth(ForceTrace(poly), 15, max(order, 2))
            np.testing.assert_allclose(out.samples, poly, atol=1e-9)

    def test_matches_per_window_least_squares_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=rng.integers(30, 200))
            out = savgol_smooth(ForceTrace(x), 15, 2)
            np.testing.assert_allclose(out.samples, savgol_oracle(x, 15, 2), atol=1e-9)

    def test_other_window_orders_match_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        for window, order in [(5, 1), (7, 3), (21, 4)]:
            out = savgol_smooth(ForceTrace(x), window, order)
            np.testing.assert_allclose(out.samples, savgol_oracle(x, window, order), atol=1e-9)

    @pytest.mark.parametrize("window, order", [(15, 10), (15, 14), (21, 20)])
    def test_high_orders_match_exact_rational_oracle(self, window, order):
        # The normal-equation oracle above is itself ill-conditioned here.
        x = np.random.default_rng(order).normal(size=40)
        out = savgol_smooth(ForceTrace(x), window, order)
        np.testing.assert_allclose(out.samples, exact_savgol(x, window, order), atol=1e-6)

    @settings(deadline=None)
    @given(half=st.integers(0, 20), extra=st.integers(0, 40), data=st.data())
    def test_polynomials_up_to_order_pass_unchanged(self, half, extra, data):
        window = 2 * half + 1
        order = data.draw(st.integers(0, window - 1), label="order")
        coeffs = data.draw(
            st.lists(st.floats(-10, 10), min_size=1, max_size=order + 1), label="coeffs"
        )
        poly = np.polynomial.polynomial.polyval(np.linspace(-1, 1, window + extra), coeffs)
        out = savgol_smooth(ForceTrace(poly), window, order)
        np.testing.assert_allclose(out.samples, poly, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=50), rng.normal(size=50)
        a, b = 2.5, -1.25
        combined = savgol_smooth(ForceTrace(a * x + b * y), 15, 2).samples
        separate = a * savgol_smooth(ForceTrace(x), 15, 2).samples + b * savgol_smooth(
            ForceTrace(y), 15, 2
        ).samples
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    @pytest.mark.parametrize(
        "window, order, n",
        [(14, 2, 100), (15, 15, 100), (15, 16, 100), (15, 2, 14), (0, 0, 100), (-3, 1, 100)],
    )
    def test_rejects_bad_arguments(self, window, order, n):
        with pytest.raises(ValueError):
            savgol_smooth(ForceTrace(np.ones(n)), window, order)

    @pytest.mark.parametrize(
        "window, order, field", [(14, 2, "sg_window"), (15, 15, "sg_order"), (15, 16, "sg_order")]
    )
    def test_bad_arguments_name_the_config_field(self, window, order, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            savgol_smooth(ForceTrace(np.ones(100)), window, order)


class TestDownsampleMean:
    def test_pairwise_means(self):
        out = downsample_mean(ForceTrace(np.array([1.0, 1.0, 1.0, 1.0])), 2, 2)
        np.testing.assert_array_equal(out.values, [1.0, 1.0])

    def test_identity_configuration(self):
        x = np.arange(10, dtype=float)
        out = downsample_mean(ForceTrace(x), 1, 1)
        np.testing.assert_array_equal(out.values, x)

    def test_1000_samples_default_windows_against_direct_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=1000)
        out = downsample_mean(ForceTrace(x), 10, 10)
        assert len(out) == 100
        expected = np.array([sum(x[10 * j : 10 * j + 10]) / 10 for j in range(100)])
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_overlapping_and_gapped_windows_match_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=57)
        for window, stride in [(4, 1), (5, 3), (3, 7), (10, 10)]:
            out = downsample_mean(ForceTrace(x), window, stride)
            np.testing.assert_allclose(out.values, downsample_oracle(x, window, stride), atol=1e-12)

    def test_output_length_formula_by_enumeration(self):
        x = np.arange(50, dtype=float)
        for n in range(1, 51):
            for window in range(1, 11):
                if n < window:
                    continue
                for stride in range(1, 11):
                    out = downsample_mean(ForceTrace(x[:n]), window, stride)
                    assert len(out) == (n - window) // stride + 1, (n, window, stride)

    @pytest.mark.parametrize("window, stride, n", [(0, 1, 10), (1, 0, 10), (11, 1, 10)])
    def test_rejects_bad_arguments(self, window, stride, n):
        with pytest.raises(ValueError):
            downsample_mean(ForceTrace(np.ones(n)), window, stride)

    @pytest.mark.parametrize("window, stride, field", [(0, 1, "ds_window"), (1, 0, "ds_stride")])
    def test_bad_arguments_name_the_config_field(self, window, stride, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            downsample_mean(ForceTrace(np.ones(10)), window, stride)


class TestPreprocess:
    def test_constant_trace_end_to_end(self):
        out = preprocess(ForceTrace(np.full(1000, 3.75)))
        assert len(out) == 100
        np.testing.assert_allclose(out.values, 3.75, atol=1e-12)

    def test_quadratic_window_means_closed_form(self):
        i = np.arange(1000, dtype=float)
        quad = 2e-5 * i**2 - 0.004 * i + 1.0
        out = preprocess(ForceTrace(quad))
        expected = np.array([quad[10 * j : 10 * j + 10].mean() for j in range(100)])
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    def test_equals_composition_of_steps(self):
        rng = np.random.default_rng(21)
        cfg = PreprocessConfig(sg_window=9, sg_order=3, ds_window=7, ds_stride=4)
        for _ in range(5):
            trace = ForceTrace(rng.normal(size=300))
            via_pipeline = preprocess(trace, cfg)
            via_steps = downsample_mean(
                savgol_smooth(trace, cfg.sg_window, cfg.sg_order), cfg.ds_window, cfg.ds_stride
            )
            np.testing.assert_array_equal(via_pipeline.values, via_steps.values)

    @settings(deadline=None, max_examples=300)
    @given(
        half=st.integers(0, 12),
        n=st.integers(1, 260),
        ds_window=st.integers(1, 40),
        ds_stride=st.integers(1, 40),
        layout=st.sampled_from(["strided", "reversed", "float32", "int list", "read-only"]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 250.0, 1e6]),
        data=st.data(),
    )
    def test_bitwise_equal_to_steps_and_reference(
        self, half, n, ds_window, ds_stride, layout, seed, scale, data
    ):
        order = data.draw(st.integers(0, 2 * half), label="sg_order")
        cfg = PreprocessConfig(2 * half + 1, order, ds_window, ds_stride)
        base = np.random.default_rng(seed).normal(scale=scale, size=2 * n) + scale
        if layout == "strided":
            samples = base[::2]
        elif layout == "reversed":
            samples = base[:n][::-1]
        elif layout == "float32":
            samples = base[:n].astype(np.float32)
        elif layout == "int list":
            samples = np.round(base[:n]).astype(int).tolist()
        else:
            samples = base[:n].copy()
            samples.flags.writeable = False
        before = np.array(samples).tobytes()
        trace = ForceTrace(samples)

        def via_steps():
            smoothed = savgol_smooth(trace, cfg.sg_window, cfg.sg_order)
            return downsample_mean(smoothed, cfg.ds_window, cfg.ds_stride)

        if n < max(cfg.sg_window, cfg.ds_window):
            window = cfg.sg_window if n < cfg.sg_window else cfg.ds_window
            message = f"^trace of length {n} is shorter than window {window}$"
            for pipeline in (via_steps, lambda: preprocess(trace, cfg)):
                with pytest.raises(ValueError, match=message):
                    pipeline()
            return
        out = preprocess(trace, cfg)
        assert out.values.dtype == np.float64
        assert out.values.tobytes() == via_steps().values.tobytes()
        assert out.values.tobytes() == preprocess_reference(samples, cfg).tobytes()
        assert not out.values.flags.writeable
        assert np.array(samples).tobytes() == before
        assert trace.samples.tobytes() == np.asarray(samples, dtype=float).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(sg_window=14)
        with pytest.raises(ValueError):
            PreprocessConfig(sg_order=15)
        with pytest.raises(ValueError):
            PreprocessConfig(ds_window=0)
        with pytest.raises(ValueError):
            PreprocessConfig(ds_stride=0)

    def test_feature_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1.0, np.nan]))

    def test_overflow_is_one_error_without_warnings(self):
        # Finite samples: 1.7e308 overflows while smoothed, 1e308 only while down-sampled.
        cases = [
            (preprocess, 1.7e308),
            (savgol_smooth, 1.7e308),
            (preprocess, 1e308),
            (downsample_mean, 1e308),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step, value in cases:
                with pytest.raises(ValueError) as error:
                    step(ForceTrace(np.full(1000, value)))
                assert str(error.value) == "trace overflows the float range when preprocessed"
