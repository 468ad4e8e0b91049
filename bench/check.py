"""Output checks that share no code path with the forceknn package.

Everything here is recomputed from the dataset file with numpy alone:

* features: a per-window least-squares polynomial fit (Savitzky-Golay,
  edges evaluated from the first/last full window's fit) followed by
  window means;
* decisions: a brute-force vote that ranks every reference by
  (distance, insertion index) in full and applies the minimum-agreement
  rule N_c * 100 >= l * k in integer arithmetic.

A decision that differs from the brute-force one is forgiven only where the
k-th and (k+1)-th ranked distances lie within ``TIE_RTOL`` of each other
(relative), since there the ranking hinges on the last bits of the arithmetic.
Each ``check_*`` function returns a ``Verdict``: a list of failures plus
counts, never an exception for a wrong output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TIE_RTOL = 1e-9
FEATURE_ATOL = 1e-9
VALUE_RTOL = 1e-12

# The online loop's published rules: seed phase of at least SEED_SIZE
# oracle labels with at least half positive, snapshot refresh every
# RETRAIN_INTERVAL post-seed trials, and the time model of the reports.
SEED_SIZE = 22
SEED_MIN_POSITIVE_FRACTION = 0.5
RETRAIN_INTERVAL = 20
WINDOW = 100
ITERATION_COST = 45.0
VERIFICATION_COST = 5.0
TEST_SHARE = 100 / 704


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    forgiven_ties: int = 0
    decisions: int = 0          # trial-decisions found in the outputs
    failed_ops: int = 0         # operations that raised instead of deciding
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Data:
    ids: list[str]
    is_pos: np.ndarray          # bool per trial
    features: np.ndarray        # (n_trials, n_features), computed here


def read_data(path: Path) -> Data:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n_samples = int(lines[0].split(",")[2])
    ids, labels, rows = [], [], []
    for line in lines[1:]:
        trial_id, label, values = line.split(",", 2)
        ids.append(trial_id)
        labels.append(label == "pos")
        rows.append(np.array(values.split(","), dtype=float))
    traces = np.stack(rows)
    if traces.shape[1] != n_samples:
        raise ValueError(f"{path}: rows do not hold {n_samples} samples")
    return Data(ids, np.array(labels), features(traces))


def savgol_lstsq(traces: np.ndarray, window: int = 15, order: int = 2) -> np.ndarray:
    """Least-squares polynomial fit of every window, evaluated at its centre.

    The first and last ``window // 2`` samples take the value of the first and
    last full window's fit at their own offsets.
    """
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    vander = offsets[:, None] ** np.arange(order + 1)
    out = np.empty_like(traces, dtype=float)
    for start in range(0, traces.shape[0], 64):
        block = traces[start:start + 64]
        windows = sliding_window_view(block, window, axis=1)          # (m, w_n, window)
        m, n_windows, _ = windows.shape
        coef = np.linalg.lstsq(vander, windows.reshape(-1, window).T, rcond=None)[0]
        coef = coef.reshape(order + 1, m, n_windows)
        out[start:start + m, half:-half] = coef[0]                    # value at offset 0
        out[start:start + m, :half] = (vander[:half] @ coef[:, :, 0]).T
        out[start:start + m, -half:] = (vander[half + 1:] @ coef[:, :, -1]).T
    return out


def features(traces: np.ndarray, ds_window: int = 10, ds_stride: int = 10) -> np.ndarray:
    smoothed = savgol_lstsq(traces)
    return sliding_window_view(smoothed, ds_window, axis=1)[:, ::ds_stride].mean(axis=2)


def check_features(data: Data, sample: dict[int, list[float]]) -> Verdict:
    """Compare package features of a sample of trials with the ones computed here."""
    verdict = Verdict()
    for index, values in sample.items():
        theirs = np.asarray(values)
        ours = data.features[index]
        if theirs.shape != ours.shape:
            verdict.fail(f"features of {data.ids[index]}: shape {theirs.shape} != {ours.shape}")
            continue
        worst = float(np.max(np.abs(theirs - ours)))
        verdict.notes["max_feature_diff"] = max(worst, verdict.notes.get("max_feature_diff", 0.0))
        if worst > FEATURE_ATOL:
            verdict.fail(f"features of {data.ids[index]} differ by {worst:.3g} > {FEATURE_ATOL}")
    return verdict


def distances(queries: np.ndarray, refs: np.ndarray, metric: str) -> np.ndarray:
    """(n_queries, n_refs) distances under cosine / euclidean / manhattan / minkowski:p."""
    if metric == "cosine":
        qn = np.sqrt((queries * queries).sum(axis=1))
        rn = np.sqrt((refs * refs).sum(axis=1))
        return 1.0 - np.clip((queries @ refs.T) / np.outer(qn, rn), -1.0, 1.0)
    p = {"euclidean": 2.0, "manhattan": 1.0}.get(metric)
    if p is None:
        p = float(metric.split(":", 1)[1])
    out = np.empty((len(queries), len(refs)))
    for start in range(0, len(queries), 32):
        diff = np.abs(queries[start:start + 32, None, :] - refs[None, :, :])
        out[start:start + 32] = (diff ** p).sum(axis=2) ** (1.0 / p)
    return out


def min_agreeing(k: int, l_value: float) -> int:
    return math.ceil(Fraction(l_value) * k / 100)


def rank(dist: np.ndarray) -> np.ndarray:
    """Full ranking of every row's references by (distance, insertion index)."""
    index = np.broadcast_to(np.arange(dist.shape[1]), dist.shape)
    return np.lexsort((index, dist), axis=-1)


def neighbours(dist: np.ndarray, order: np.ndarray, ref_pos: np.ndarray, k: int):
    """Positive votes among each row's k nearest, and whether the k-th and
    (k+1)-th distances are a near-tie."""
    n_pos = ref_pos[order[:, :k]].sum(axis=1)
    if dist.shape[1] > k:
        ranked = np.take_along_axis(dist, order[:, k - 1:k + 1], axis=1)
        scale = np.maximum(np.abs(ranked[:, 0]), np.abs(ranked[:, 1]))
        near = np.abs(ranked[:, 1] - ranked[:, 0]) <= TIE_RTOL * scale
    else:
        near = np.zeros(len(dist), dtype=bool)
    return n_pos, near


def decide(n_pos: np.ndarray, k: int, l_value: float) -> np.ndarray:
    """The minimum-agreement rule: the majority label when N_c * 100 >= l * k, else abstain."""
    n_neg = k - n_pos
    commit = (n_pos != n_neg) & (np.maximum(n_pos, n_neg) >= min_agreeing(k, l_value))
    return np.where(commit, np.where(n_pos > n_neg, "positive", "negative"), "uncertain")


def vote(dist: np.ndarray, ref_pos: np.ndarray, k: int, l_value: float):
    """Brute-force decisions and near-tie flags, one per query row."""
    n_pos, near = neighbours(dist, rank(dist), ref_pos, k)
    return decide(n_pos, k, l_value), near


def seed_length(is_pos_stream: np.ndarray) -> int:
    quota = math.ceil(SEED_SIZE * SEED_MIN_POSITIVE_FRACTION)
    positives = np.cumsum(is_pos_stream)
    for n in range(SEED_SIZE, len(is_pos_stream) + 1):
        if positives[n - 1] >= quota:
            return n
    raise ValueError("stream exhausted before the seed phase completed")


def replay(data: Data, stream: np.ndarray, k: int, metric: str, l_value: float,
           recorded: list[str] | None = None):
    """Replay the online loop over ``stream`` (trial indices).

    Returns the seed length, the brute-force decision of every post-seed
    trial and its near-tie flag. Between refreshes the snapshot is frozen, so
    each block of ``RETRAIN_INTERVAL`` trials is voted against the dataset as
    it stood at the block's start. The dataset grows by the trials that fell
    back: those of ``recorded`` (the loop's own decisions) when given, else
    those of the brute-force decisions.
    """
    is_pos = data.is_pos[stream]
    n_seed = seed_length(is_pos)
    dataset = list(stream[:n_seed])
    decisions, near = [], []
    for start in range(n_seed, len(stream), RETRAIN_INTERVAL):
        block = stream[start:start + RETRAIN_INTERVAL]
        if len(dataset) < k:
            block_dec = np.full(len(block), "uncertain")
            block_near = np.zeros(len(block), dtype=bool)
        else:
            refs = np.array(dataset)
            dist = distances(data.features[block], data.features[refs], metric)
            block_dec, block_near = vote(dist, data.is_pos[refs], k, l_value)
        grown_by = block_dec if recorded is None else recorded[start - n_seed:start - n_seed + len(block)]
        dataset.extend(int(t) for t, d in zip(block, grown_by) if d == "uncertain")
        decisions.extend(block_dec)
        near.extend(block_near)
    return n_seed, np.array(decisions), np.array(near, dtype=bool)


def run_seed(base_seed: int, run_index: int) -> int:
    """Shuffle seed of replicated run ``run_index`` (the loop's published rule)."""
    return int(np.random.SeedSequence([base_seed, run_index]).generate_state(1)[0])


# -- summary statistics ------------------------------------------------------

def _ratio(num, den):
    return None if den == 0 else num / den


def run_cells(classified, pred_pos, truth_pos):
    """Classifier-only confusion cells of one run (seed/fallback count as uncertain)."""
    tp = int((classified & pred_pos & truth_pos).sum())
    fp = int((classified & pred_pos & ~truth_pos).sum())
    tn = int((classified & ~pred_pos & ~truth_pos).sum())
    fn = int((classified & ~pred_pos & truth_pos).sum())
    return tp, fp, tn, fn, int((~classified).sum())


def summarize(cells: list[tuple[int, int, int, int, int]]) -> dict:
    n = len(cells)
    precisions = [p for p in (_ratio(c[0], c[0] + c[1]) for c in cells) if p is not None]
    recalls = [r for r in (_ratio(c[0], c[0] + c[3]) for c in cells) if r is not None]
    means = [sum(c[i] for c in cells) / n for i in range(5)]
    return {
        "mean_precision": sum(precisions) / len(precisions) if precisions else None,
        "precision_undefined_runs": n - len(precisions),
        "mean_recall": sum(recalls) / len(recalls) if recalls else None,
        "recall_undefined_runs": n - len(recalls),
        "mean_tp": means[0], "mean_fp": means[1], "mean_tn": means[2], "mean_fn": means[3],
        "mean_uncertain": means[4],
        "pooled_precision": _ratio(means[0], means[0] + means[1]),
        "pooled_recall": _ratio(means[0], means[0] + means[3]),
    }


def _close(expected, text: str) -> bool:
    if expected is None:
        return text == ""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return abs(value - expected) <= VALUE_RTOL * max(1.0, abs(expected))


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _compare_row(verdict: Verdict, where: str, row: dict[str, str], expected: dict) -> None:
    for key, value in expected.items():
        if not _close(value, row.get(key, "<missing>")):
            verdict.fail(f"{where}: {key} = {row.get(key)!r}, recomputed {value!r}")


# -- online-default ------------------------------------------------------------

def _load_runs(path: Path) -> dict[int, list[dict]]:
    runs: dict[int, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs.setdefault(record["run"], []).append(record)
    return runs


def check_online(out_dir: Path, data: Data, k: int, metric: str, l_values: list[float],
                 n_runs: int, oracle_calls: int | None = None) -> Verdict:
    """Check ``forceknn online`` outputs: records, summary.csv and windows.csv."""
    verdict = Verdict()
    id_index = {trial_id: i for i, trial_id in enumerate(data.ids)}
    n_trials = len(data.ids)
    summary = {float(row["l_value"]): row for row in read_csv(out_dir / "summary.csv")}
    windows = read_csv(out_dir / "windows.csv")
    verified_total = 0
    precision_by_l = {}
    for l_value in l_values:
        where = f"l={l_value:g}"
        runs = _load_runs(out_dir / f"records-l{l_value:g}.jsonl")
        if sorted(runs) != list(range(n_runs)):
            verdict.fail(f"{where}: runs {sorted(runs)[:5]}... instead of 0..{n_runs - 1}")
            continue
        flags = np.zeros((4, n_runs, n_trials), dtype=bool)  # classified, pred_pos, truth_pos, verified
        cells = []
        for run, records in runs.items():
            verdict.decisions += len(records)
            run_where = f"{where} run {run}"
            if len(records) != n_trials:
                verdict.fail(f"{run_where}: {len(records)} records, expected {n_trials}")
                continue
            stream = np.array([id_index.get(r["trial_id"], -1) for r in records])
            if (stream < 0).any() or len(set(stream.tolist())) != n_trials:
                verdict.fail(f"{run_where}: trial ids are not each dataset trial exactly once")
                continue
            _check_records(verdict, run_where, records, data, stream, k, metric, l_value)
            classified = np.array([r["phase"] == "classified" for r in records])
            pred_pos = np.array([r["predicted"] == "positive" for r in records])
            truth_pos = data.is_pos[stream]
            verified = np.array([bool(r["verified"]) for r in records])
            flags[:, run] = classified, pred_pos, truth_pos, verified
            cells.append(run_cells(classified, pred_pos, truth_pos))
        if len(cells) != n_runs:
            continue
        verified_total += int(flags[3].sum())
        expected = summarize(cells)
        expected.update(
            n_runs=n_runs,
            n_records=float(n_trials),
            mean_dataset_size=float(flags[3].sum(axis=1).mean()),   # seed + fallback
            mean_verification_count=float(flags[3].sum(axis=1).mean()),
        )
        row = summary.get(l_value)
        if row is None:
            verdict.fail(f"summary.csv has no row for {where}")
        else:
            _compare_row(verdict, f"summary.csv {where}", row, expected)
            precision_by_l[l_value] = expected["mean_precision"]
        _check_windows(verdict, where, [w for w in windows if float(w["l_value"]) == l_value], flags)
    if oracle_calls is not None and oracle_calls != verified_total:
        verdict.fail(f"oracle calls {oracle_calls} != verified records {verified_total}")
    # The paper's trend (stricter agreement, higher precision) is a statistical
    # claim about the data, not an invariant of the method: it is reported,
    # not enforced.
    if 100.0 in precision_by_l and 50.0 in precision_by_l:
        verdict.notes["precision_l100_ge_l50"] = bool(
            (precision_by_l[100.0] or 0.0) >= (precision_by_l[50.0] or 0.0))
    return verdict


def _check_records(verdict, where, records, data, stream, k, metric, l_value) -> None:
    n_seed = seed_length(data.is_pos[stream])
    for i, r in enumerate(records):
        truth = "positive" if data.is_pos[stream[i]] else "negative"
        if r["truth"] != truth:
            verdict.fail(f"{where} #{i}: truth {r['truth']} but the dataset says {truth}")
        phase = r["phase"]
        if (i < n_seed) != (phase == "seed"):
            verdict.fail(f"{where} #{i}: phase {phase}, seed phase has {n_seed} trials")
        if phase in ("seed", "fallback"):
            consistent = r["verified"] is True and r["decision"] == "uncertain" and r["predicted"] == truth
        else:
            consistent = (phase == "classified" and r["verified"] is False
                          and r["decision"] in ("positive", "negative") and r["predicted"] == r["decision"])
        if not consistent:
            verdict.fail(f"{where} #{i}: inconsistent record {r}")
    recorded = [r["decision"] for r in records[n_seed:]]
    _, expected, near = replay(data, stream, k, metric, l_value, recorded=recorded)
    _compare_decisions(verdict, where, recorded, expected, near, offset=n_seed)


def _compare_decisions(verdict, where, got, expected, near, offset=0) -> None:
    for i, (g, e, tie) in enumerate(zip(got, expected, near)):
        if g != e:
            if tie:
                verdict.forgiven_ties += 1
            else:
                verdict.fail(f"{where} #{i + offset}: decision {g}, brute force {e}")


def _window_sums(values: np.ndarray) -> np.ndarray:
    cum = np.concatenate((np.zeros((values.shape[0], 1)), np.cumsum(values, axis=1)), axis=1)
    return cum[:, WINDOW:] - cum[:, :-WINDOW]


def _check_windows(verdict, where, rows, flags) -> None:
    classified, pred_pos, truth_pos, verified = flags
    tp = _window_sums(classified & pred_pos & truth_pos)
    fp = _window_sums(classified & pred_pos & ~truth_pos)
    ver = _window_sums(verified)
    cost = _window_sums(np.where(verified, ITERATION_COST, ITERATION_COST - VERIFICATION_COST))
    n_points = tp.shape[1]
    if len(rows) != n_points:
        verdict.fail(f"windows.csv {where}: {len(rows)} rows, expected {n_points}")
        return
    defined = (tp + fp) > 0
    precision = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=defined)
    for j, row in enumerate(rows):
        n_defined = int(defined[:, j].sum())
        expected = {
            "index": WINDOW - 1 + j,
            "mean_precision": float(precision[:, j].sum() / n_defined) if n_defined else None,
            "precision_defined_runs": n_defined,
            "mean_uncertain_fraction": float((ver[:, j] / WINDOW).mean()),
            "mean_cycle_cost": float((cost[:, j] / WINDOW).mean()),
        }
        _compare_row(verdict, f"windows.csv {where} index {WINDOW - 1 + j}", row, expected)


# -- grids ------------------------------------------------------------------------

def _grid_rows(path: Path, verdict: Verdict, axes: dict) -> dict | None:
    rows = {}
    for row in read_csv(path):
        key = (int(row["k"]), row["metric"], float(row["l_value"]), float(row["train_fraction"]))
        if key in rows:
            verdict.fail(f"duplicate grid row {key}")
        rows[key] = row
    wanted = {(k, m, l, f) for k in axes["k"] for m in axes["metric"]
              for l in axes["l_value"] for f in axes["train_fraction"]}
    if set(rows) != wanted:
        verdict.fail(f"grid rows differ from the axes: missing {sorted(wanted - set(rows))[:3]}, "
                     f"extra {sorted(set(rows) - wanted)[:3]}")
        return None
    return rows


def _cell_expectation(cells) -> dict:
    stats = summarize(cells)
    return {cell: stats[f"mean_{cell}"] for cell in ("tp", "fp", "tn", "fn")} | {
        "precision": stats["mean_precision"], "recall": stats["mean_recall"]}


def _check_grid_identities(verdict, rows, n_eval, feasible) -> None:
    """Status follows feasibility; counts plus abstentions fill the evaluation set."""
    for (k, m, l, f), row in rows.items():
        want = "ok" if feasible(k, f) else "infeasible"
        if row["status"] != want:
            verdict.fail(f"grid cell {(k, m, l, f)}: status {row['status']}, expected {want}")
            continue
        if want == "ok":
            total = sum(float(row[c]) for c in ("tp", "fp", "tn", "fn"))
            total += float(row["uncertain_pct"]) * n_eval / 100
            if abs(total - n_eval) > 1e-9 * n_eval:
                verdict.fail(f"grid cell {(k, m, l, f)}: counts + abstained = {total!r}, not {n_eval}")


def check_grid_static(path: Path, data: Data, axes: dict, seeds: list[int]) -> Verdict:
    """Check ``forceknn grid --mode static``: identities, monotone abstention, brute force."""
    verdict = Verdict()
    rows = _grid_rows(path, verdict, axes)
    if rows is None:
        return verdict
    n = len(data.ids)
    test_size = max(1, round(n * TEST_SHARE))
    pool_size = n - test_size
    train_size = {f: round(f * pool_size) for f in axes["train_fraction"]}
    _check_grid_identities(verdict, rows, test_size, lambda k, f: train_size[f] >= k)
    for k in axes["k"]:
        for m in axes["metric"]:
            for f in axes["train_fraction"]:
                if rows[(k, m, axes["l_value"][0], f)]["status"] != "ok":
                    continue
                pcts = [float(rows[(k, m, l, f)]["uncertain_pct"]) for l in sorted(axes["l_value"])]
                if any(b < a - 1e-12 for a, b in zip(pcts, pcts[1:])):
                    verdict.fail(f"grid cell {(k, m, f)}: uncertain_pct falls as l rises: {pcts}")

    cells: dict[tuple, list] = {}
    tied: set[tuple] = set()
    for seed in seeds:
        order = np.random.default_rng(seed).permutation(n)
        pool, test = order[:pool_size], order[pool_size:]
        truth = data.is_pos[test]
        for m in axes["metric"]:
            dist = distances(data.features[test], data.features[pool], m)
            for f, size in train_size.items():
                train_dist = dist[:, :size]
                order = rank(train_dist)
                for k in axes["k"]:
                    if size < k:
                        continue
                    n_pos, near = neighbours(train_dist, order, data.is_pos[pool[:size]], k)
                    for l in axes["l_value"]:
                        decisions = decide(n_pos, k, l)
                        classified = decisions != "uncertain"
                        cells.setdefault((k, m, l, f), []).append(
                            run_cells(classified, decisions == "positive", truth))
                        if near.any():
                            tied.add((k, m, l, f))
                        verdict.decisions += len(test)
    for key, seed_cells in cells.items():
        if key in tied:
            verdict.forgiven_ties += 1
            continue
        expected = _cell_expectation(seed_cells)
        expected["uncertain_pct"] = sum(100.0 * c[4] / test_size for c in seed_cells) / len(seed_cells)
        _compare_row(verdict, f"grid cell {key}", rows[key], expected)
    return verdict


def check_grid_online(path: Path, data: Data, axes: dict, n_runs: int, base_seed: int = 0) -> Verdict:
    """Check ``forceknn grid --mode online``: identities and an independent replay of every cell."""
    verdict = Verdict()
    rows = _grid_rows(path, verdict, axes)
    if rows is None:
        return verdict
    n = len(data.ids)
    _check_grid_identities(verdict, rows, n, lambda k, f: SEED_SIZE >= k)
    streams = [np.random.default_rng(run_seed(base_seed, i)).permutation(n) for i in range(n_runs)]
    for key, row in rows.items():
        k, m, l, _ = key
        if row["status"] != "ok":
            continue
        cells, tie = [], False
        for stream in streams:
            n_seed, decisions, near = replay(data, stream, k, m, l)
            classified = np.zeros(n, dtype=bool)
            pred_pos = np.zeros(n, dtype=bool)
            classified[n_seed:] = decisions != "uncertain"
            pred_pos[n_seed:] = decisions == "positive"
            cells.append(run_cells(classified, pred_pos, data.is_pos[stream]))
            tie = tie or bool(near.any())
            verdict.decisions += n
        if tie:
            verdict.forgiven_ties += 1
            continue
        expected = _cell_expectation(cells)
        expected["uncertain_pct"] = 100.0 * (sum(c[4] for c in cells) / n_runs) / n
        _compare_row(verdict, f"grid cell {key}", row, expected)
    return verdict


# -- inline-classify -------------------------------------------------------------

def check_inline(outcomes: list[str], plan: dict, data: Data) -> Verdict:
    """Every answered query equals the brute-force vote; dropped-out traces must abstain."""
    verdict = Verdict()
    queries = np.array(plan["queries"])
    if len(outcomes) != len(queries):
        verdict.fail(f"{len(outcomes)} outcomes for {len(queries)} queries")
        return verdict
    snapshot = np.array(plan["snapshot"])
    expected = np.full(len(queries), "uncertain", dtype=object)   # dropped-out: abstain
    near = np.zeros(len(queries), dtype=bool)
    live = queries >= 0
    dist = distances(data.features[queries[live]], data.features[snapshot], plan["metric"])
    expected[live], near[live] = vote(dist, data.is_pos[snapshot], plan["k"], plan["l_value"])
    for i, outcome in enumerate(outcomes):
        if outcome.startswith("error"):
            verdict.failed_ops += 1
            if live[i]:
                verdict.notes.setdefault("unexpected_errors", []).append(f"query {i}: {outcome}")
            continue
        verdict.decisions += 1
        if outcome != expected[i]:
            if near[i]:
                verdict.forgiven_ties += 1
            else:
                kind = "dropped-out" if not live[i] else "query"
                verdict.fail(f"{kind} {i}: decision {outcome}, expected {expected[i]}")
    return verdict
