"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints a ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them as they happen) and then asserts, so the suite doubles as a checklist.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np
import pytest

import forceknn as fk
from forceknn.cli import EXIT_OK, main
from forceknn.classifier import Decision, Label, decide, minkowski
from forceknn.metrics import TimeModel, verification_savings
from forceknn.online import Phase
from forceknn.reports import aggregate_window_series
from forceknn.signal import FeatureVector, ForceTrace


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


# --- independent oracles -------------------------------------------------


def _polyfit_eval(segment: np.ndarray, offsets, order: int) -> np.ndarray:
    t = np.arange(len(segment), dtype=float)
    design = np.vander(t, order + 1, increasing=True)
    coef = np.linalg.solve(design.T @ design, design.T @ segment)
    offsets = np.asarray(offsets, dtype=float)
    return sum(coef[j] * offsets**j for j in range(order + 1))


def _savgol_oracle(x: np.ndarray, window: int, order: int) -> np.ndarray:
    n, half = len(x), window // 2
    out = np.empty(n)
    for i in range(half, n - half):
        out[i] = _polyfit_eval(x[i - half : i + half + 1], [half], order)[0]
    out[:half] = _polyfit_eval(x[:window], np.arange(half), order)
    out[n - half :] = _polyfit_eval(x[n - window :], np.arange(half + 1, window), order)
    return out


def _loop_distance(a, b, metric) -> float:
    if metric.kind == "cosine":
        dot = sum(x * y for x, y in zip(a, b))
        return 1.0 - dot / (
            math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        )
    if metric.kind == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if metric.kind == "manhattan":
        return sum(abs(x - y) for x, y in zip(a, b))
    return sum(abs(x - y) ** metric.p for x, y in zip(a, b)) ** (1.0 / metric.p)


def _brute_force_decision(dataset, query, k, metric, l_value) -> Decision:
    ranked = sorted(
        (_loop_distance(f.values, query.values, metric), i)
        for i, (f, _) in enumerate(dataset)
    )
    labels = [dataset[i][1] for _, i in ranked[:k]]
    n_pos = sum(1 for label in labels if label is Label.POSITIVE)
    n_neg = k - n_pos
    if n_pos == n_neg:
        return Decision.UNCERTAIN
    majority, count = (Label.POSITIVE, n_pos) if n_pos > n_neg else (Label.NEGATIVE, n_neg)
    return Decision.from_label(majority) if count * 100 >= l_value * k else Decision.UNCERTAIN


# --- criteria ------------------------------------------------------------


def test_criterion_1_filter_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    ok = True
    i = np.arange(200, dtype=float)
    for _ in range(25):
        c2, c1, c0 = rng.normal(size=3)
        poly = c2 * (i / 50) ** 2 + c1 * i + c0
        out = fk.savgol_smooth(ForceTrace(poly), 15, 2)
        ok &= bool(np.max(np.abs(out.samples - poly)) <= 1e-9)
    for _ in range(100):
        x = rng.normal(scale=rng.uniform(0.5, 20.0), size=int(rng.integers(20, 400)))
        out = fk.savgol_smooth(ForceTrace(x), 15, 2)
        ok &= bool(np.max(np.abs(out.samples - _savgol_oracle(x, 15, 2))) <= 1e-9)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, f"Savitzky-Golay polynomial exactness and oracle match ({elapsed:.2f}s)", ok)


def test_criterion_2_knn_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    metrics = [fk.COSINE, fk.EUCLIDEAN, fk.MANHATTAN, minkowski(3.0)]
    ok = True
    for trial in range(500):
        metric = metrics[trial % 4]
        n, dim = int(rng.integers(2, 201)), int(rng.integers(2, 21))
        base = rng.normal(size=(n, dim))
        # duplicate a block of rows to force exact distance ties
        n_dup = int(rng.integers(0, max(n // 3, 1)))
        if n_dup:
            base[rng.choice(n, n_dup, replace=False)] = base[
                rng.choice(n, n_dup, replace=True)
            ]
        dataset = [
            (FeatureVector(row), Label.POSITIVE if rng.uniform() < 0.5 else Label.NEGATIVE)
            for row in base
        ]
        k = int(rng.integers(1, min(n, 25) + 1))
        l_value = float(rng.integers(50, 101))
        query = (
            FeatureVector(base[rng.integers(0, n)].copy())
            if rng.uniform() < 0.3
            else FeatureVector(rng.normal(size=dim))
        )
        model = fk.KnnModel(dataset, k=k, metric=metric, l_value=l_value)
        ok &= fk.classify(model, query) is _brute_force_decision(
            dataset, query, k, metric, l_value
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, f"500 classify calls match the full-sort pipeline ({elapsed:.2f}s)", ok)


def test_criterion_3_voting_rule_boundary():
    start = time.perf_counter()
    ok = True
    for k in range(1, 26):
        for n_pos in range(k + 1):
            labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * (k - n_pos)
            for l_value in range(50, 101):
                got = decide(labels, k, float(l_value))
                n_maj = max(n_pos, k - n_pos)
                if n_pos == k - n_pos or n_maj * 100 < l_value * k:
                    ok &= got is Decision.UNCERTAIN
                else:
                    expected = Decision.POSITIVE if n_pos > k - n_pos else Decision.NEGATIVE
                    ok &= got is expected
    ten = decide([Label.POSITIVE] * 10 + [Label.NEGATIVE], 11, 90.0)
    nine = decide([Label.POSITIVE] * 9 + [Label.NEGATIVE] * 2, 11, 90.0)
    ok &= ten is Decision.POSITIVE and nine is Decision.UNCERTAIN
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(3, f"voting rule exhaustive vs rational inequality ({elapsed:.2f}s)", ok)


def test_criterion_4_abstention_monotonicity():
    rng = np.random.default_rng(4004)
    levels = [float(v) for v in range(50, 101)]
    ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 26))
        n_pos = int(rng.integers(0, k + 1))
        labels = [Label.POSITIVE] * n_pos + [Label.NEGATIVE] * (k - n_pos)
        decisions = [decide(labels, k, level) for level in levels]
        definite = {d for d in decisions if d is not Decision.UNCERTAIN}
        ok &= len(definite) <= 1
        for lower, higher in zip(decisions, decisions[1:]):
            if higher is not Decision.UNCERTAIN:
                ok &= lower is higher
    _report(4, "definite decisions survive every lower threshold, never flip", ok)


def test_criterion_5_online_loop_accounting():
    ok = True
    for seed in range(50):
        trials = fk.gen_dataset(18, 22, rng_seed=seed)
        report = fk.run_online(trials, fk.LoopConfig(l_value=100.0, n_runs=1))
        seeds = sum(1 for r in report.records if r.phase is Phase.SEED)
        fallbacks = sum(1 for r in report.records if r.phase is Phase.FALLBACK)
        ok &= report.final_dataset_size == seeds + fallbacks
        ok &= report.oracle_calls == report.verified_count
        low = fk.run_online(trials, fk.LoopConfig(l_value=50.0, n_runs=1))
        ok &= low.fallback_count == 0
        ok &= low.oracle_calls == low.seed_count
    _report(5, "dataset growth accounting, no-peek and l=50 zero fallbacks (50 streams)", ok)


def test_criterion_6_cycle_time_arithmetic():
    tm = TimeModel(45.0, 5.0)
    rng = np.random.default_rng(6006)
    ok = True
    for v in [0, 1, 250, 401, 704]:
        flags = np.zeros(704, dtype=bool)
        flags[rng.choice(704, v, replace=False)] = True
        records = [
            fk.TrialRecord(
                f"t{i}",
                Label.POSITIVE,
                Label.POSITIVE,
                Phase.FALLBACK if flag else Phase.CLASSIFIED,
            )
            for i, flag in enumerate(flags)
        ]
        total, _ = fk.cycle_time(records, tm)
        ok &= total == pytest.approx(704 * 45 - (704 - v) * 5, rel=1e-12)
    savings = verification_savings(704, 401.7, tm)
    ok &= savings == pytest.approx(1511.5, abs=1e-9)
    ok &= abs(savings - 1511.0) <= 1.0
    _report(6, "cycle-time totals and the 1511.5s savings at 401.7 verifications", ok)


def test_criterion_7_qualitative_trends():
    start = time.perf_counter()
    trials = fk.gen_dataset(297, 407, rng_seed=0)
    cache: dict = {}
    reports = {
        l: fk.run_replicated(trials, fk.LoopConfig(l_value=l, n_runs=30), feature_cache=cache)
        for l in (100.0, 50.0)
    }
    summary_100 = fk.summarize_runs(reports[100.0])
    summary_50 = fk.summarize_runs(reports[50.0])
    windows = aggregate_window_series(reports[100.0], TimeModel())
    elapsed = time.perf_counter() - start
    ok = summary_100.mean_precision is not None and summary_50.mean_precision is not None
    ok &= summary_100.mean_precision > summary_50.mean_precision
    ok &= windows[-1].mean_uncertain_fraction < windows[0].mean_uncertain_fraction
    ok &= windows[-1].mean_cycle_cost < windows[0].mean_cycle_cost
    ok &= elapsed < 120.0
    _report(
        7,
        "30-run trends: precision(l=100) > precision(l=50), abstention and cycle "
        f"time decay ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_metric_identities_and_scale_invariance():
    rng = np.random.default_rng(8008)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 50))
        a, b = FeatureVector(rng.normal(size=dim)), FeatureVector(rng.normal(size=dim))
        eu, mi2 = fk.distance(a, b, fk.EUCLIDEAN), fk.distance(a, b, minkowski(2.0))
        ma, mi1 = fk.distance(a, b, fk.MANHATTAN), fk.distance(a, b, minkowski(1.0))
        ok &= abs(eu - mi2) <= 1e-12 * max(abs(eu), abs(mi2))
        ok &= abs(ma - mi1) <= 1e-12 * max(abs(ma), abs(mi1))
    for _ in range(200):
        dim = int(rng.integers(2, 20))
        dataset = [
            (FeatureVector(rng.normal(size=dim)), Label.POSITIVE if rng.uniform() < 0.5 else Label.NEGATIVE)
            for _ in range(int(rng.integers(11, 60)))
        ]
        model = fk.KnnModel(dataset, k=11, metric=fk.COSINE, l_value=float(rng.integers(50, 101)))
        query = FeatureVector(rng.normal(size=dim))
        base = fk.classify(model, query)
        scale = float(rng.uniform(1e-4, 1e4))
        ok &= fk.classify(model, FeatureVector(scale * query.values)) is base
    _report(8, "Minkowski identities at 1e-12 and cosine scale invariance", ok)


def test_criterion_9_cli_determinism(tmp_path):
    dataset = tmp_path / "trials.csv"
    assert main(["gen", "--out", str(dataset), "--n-pos", "16", "--n-neg", "20"]) == EXIT_OK
    out_dir = tmp_path / "out"
    flags = [
        "online", "--dataset", str(dataset), "--out", str(out_dir),
        "--runs", "3", "--seed-size", "12", "--rng-seed", "5",
    ]
    assert main(flags) == EXIT_OK
    names = ["summary.csv", "windows.csv", "records-l100.jsonl", "records-l50.jsonl"]
    first = {name: (out_dir / name).read_bytes() for name in names}
    shutil.rmtree(out_dir)
    assert main(flags) == EXIT_OK
    second = {name: (out_dir / name).read_bytes() for name in names}
    _report(9, "cmd_online emits byte-identical outputs on identical flags", first == second)
