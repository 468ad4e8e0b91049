"""forceknn benchmark: four workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload online-default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each run generates its dataset from ``--seed`` (``forceknn gen --rng-seed``),
then repeats whole rounds of the workload, each in a fresh interpreter, for
``--seconds`` seconds, and checks the first round's outputs against the
independent computations in ``check.py``; later rounds must produce
byte-identical outputs. With ``--trace 0`` it reports the end-to-end metrics
(medians over rounds); with ``--trace 1`` rounds alternate traced and
untraced, and it reports per-layer metrics from the traced rounds plus the
tracing overhead. The last line of standard output is one JSON object; a
result file with machine and version metadata goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One thread per process: the workloads are defined as single-process,
# single-thread runs on a 2-core machine.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
ROUND_TIMEOUT_S = 120

N_TRIALS = 297 + 407          # `forceknn gen` defaults
ONLINE = {"k": 11, "metric": "cosine", "l_value": [100.0, 50.0], "runs": 30}
GRID_STATIC = {
    "k": [5, 11, 15, 21, 25],
    "metric": ["cosine", "euclidean", "manhattan", "minkowski:3"],
    "l_value": [50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
    "train_fraction": [0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.0],
    "seeds": [0, 1, 2, 3, 4],
}
# The default online grid (120 cells x 30 runs) takes minutes; this one keeps
# its shape: k on both sides of seed_size (25 is infeasible), all four
# metrics, both l extremes, fewer runs.
GRID_ONLINE = {
    "k": [5, 11, 25],
    "metric": ["cosine", "euclidean", "manhattan", "minkowski:3"],
    "l_value": [50.0, 100.0],
    "train_fraction": [1.0],
    "runs": 4,
}
# The snapshot size is the median final dataset size (151.75) of the default
# loop at l=100 over dataset seeds 0-39. Every DROPPED_EVERY-th query is an
# all-zero (dropped-out sensor) trace, the same on every seed.
INLINE = {"k": 11, "metric": "cosine", "l_value": 100.0, "snapshot": 152, "queries": 2000,
          "dropped_every": 50}
FEATURE_SAMPLE = 16

# Workloads, metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# grid-online is runnable and checked in full, but not declared: its rounds
# are the longest, and with it the declared workloads could not run long
# enough each to hold their bounds on the reference machine.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["grid-online"]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
UNBOUNDED_LATENCIES = ("decide_p50_ms", "decide_p99_ms")


class BenchError(Exception):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- rounds ----------------------------------------------------------------------

def run_child(job: dict, workdir: Path, tag: str) -> dict:
    """Run one job in a fresh interpreter; returns its report plus wall time and peak RSS."""
    job = dict(job, src=str(SRC), report=str(workdir / f"{tag}.report.json"))
    job_path = workdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = workdir / f"{tag}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{tail}")
    report = json.loads(Path(job["report"]).read_text(encoding="utf-8"))
    report.update(t0=start, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024)
    return report


def workload_job(name: str, data: Path, out: Path) -> dict:
    """The child job of one round, writing its outputs under ``out``."""
    if name == "inline-classify":
        return {"role": "inline", "data": str(data), "plan": str(data.parent / "plan.json"),
                "outcomes": str(out / "outcomes.json")}
    if name == "online-default":
        argv = ["online", "--dataset", str(data), "--out", str(out)]
    elif name == "grid-static":
        argv = ["grid", "--mode", "static", "--dataset", str(data), "--out", str(out / "grid.csv")]
    else:
        argv = ["grid", "--mode", "online", "--dataset", str(data), "--out", str(out / "grid.csv"),
                "--k", ",".join(map(str, GRID_ONLINE["k"])),
                "--metric", ",".join(GRID_ONLINE["metric"]),
                "--l-value", ",".join(f"{l:g}" for l in GRID_ONLINE["l_value"]),
                "--runs", str(GRID_ONLINE["runs"])]
    return {"role": "cli", "argv": argv}


def inline_plan(seed: int) -> dict:
    """Snapshot trials and the query stream of ``inline-classify`` (-1: dropped-out trace)."""
    order = np.random.default_rng(seed).permutation(N_TRIALS).tolist()
    snapshot, pool = order[:INLINE["snapshot"]], order[INLINE["snapshot"]:]
    every = INLINE["dropped_every"]
    queries = [-1 if i % every == every - 1 else pool[i % len(pool)] for i in range(INLINE["queries"])]
    return {key: INLINE[key] for key in ("k", "metric", "l_value")} | {
        "snapshot": snapshot, "queries": queries}


def expected_operations(name: str) -> int:
    """Operations per round, fixed by the workload's make-up: trial-decisions
    for the CLI workloads, queries (answered or not) for inline-classify."""
    if name == "online-default":
        return N_TRIALS * ONLINE["runs"] * len(ONLINE["l_value"])
    if name == "grid-static":
        test = round(N_TRIALS * check.TEST_SHARE)
        pool = N_TRIALS - test
        feasible = sum(round(f * pool) >= k for k in GRID_STATIC["k"] for f in GRID_STATIC["train_fraction"])
        return test * feasible * len(GRID_STATIC["metric"]) * len(GRID_STATIC["l_value"]) * len(GRID_STATIC["seeds"])
    if name == "grid-online":
        ok_k = sum(k <= check.SEED_SIZE for k in GRID_ONLINE["k"])
        return N_TRIALS * GRID_ONLINE["runs"] * ok_k * len(GRID_ONLINE["metric"]) * len(GRID_ONLINE["l_value"])
    return INLINE["queries"]


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


# -- checks ------------------------------------------------------------------------

def check_round(name: str, out: Path, data: check.Data, plan: dict | None, traced: dict | None) -> check.Verdict:
    if name == "online-default":
        oracle_calls = traced["counters"].get("oracle_calls", 0) if traced else None
        return check.check_online(out, data, ONLINE["k"], ONLINE["metric"], ONLINE["l_value"],
                                  ONLINE["runs"], oracle_calls)
    if name == "grid-static":
        return check.check_grid_static(out / "grid.csv", data, GRID_STATIC, GRID_STATIC["seeds"])
    if name == "grid-online":
        return check.check_grid_online(out / "grid.csv", data, GRID_ONLINE, GRID_ONLINE["runs"])
    outcomes = json.loads((out / "outcomes.json").read_text(encoding="utf-8"))
    return check.check_inline(outcomes, plan, data)


# -- metrics -----------------------------------------------------------------------

def _span_stats(report: dict) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Durations per span name, and self time per name (duration minus child spans)."""
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
    return durations, self_time


def layer_metrics(report: dict, prepare: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (and of the traced preparation)."""
    durations, self_time = _span_stats(report)
    prep_durations, _ = _span_stats(prepare)
    counters = report["counters"]

    def total(name, source=durations):
        return float(sum(source.get(name, [])))

    def count(name):
        return len(durations.get(name, []))

    def p50(name, scale=1.0):
        values = durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    read_s = total("dataset_io.read")
    classify_calls = count("classifier.classify")
    cells = counters.get("cells_ok", 0) + counters.get("cells_infeasible", 0)
    static_s = total("grid.static")
    return {
        "import.forceknn_s": report["import_s"],
        "import.modules_loaded": report["modules_loaded"],
        "dataset_io.read_s": read_s,
        "dataset_io.read_mb_per_s": counters.get("bytes_read", 0) / 1e6 / read_s if read_s else 0.0,
        "dataset_io.write_s": total("dataset_io.write", prep_durations),
        "datagen.gen_s": total("datagen.gen", prep_durations),
        "signal.preprocess_calls": count("signal.preprocess"),
        "signal.preprocess_s": total("signal.preprocess"),
        "signal.preprocess_us_p50": p50("signal.preprocess", 1e6),
        "classifier.classify_calls": classify_calls,
        "classifier.classify_s": total("classifier.classify"),
        "classifier.classify_us_p50": p50("classifier.classify", 1e6),
        "classifier.snapshot_builds": count("classifier.snapshot_build"),
        "classifier.snapshot_build_s": total("classifier.snapshot_build"),
        "classifier.distance_evals": counters.get("distance_evals", 0),
        "classifier.committed_ratio": counters.get("committed", 0) / classify_calls if classify_calls else 0.0,
        "online.runs": count("online.run"),
        "online.run_s_p50": p50("online.run"),
        "online.self_s": self_time.get("online.run", 0.0),
        "online.oracle_calls": counters.get("oracle_calls", 0),
        "metrics.summarize_s": total("metrics.summarize"),
        "reports.aggregate_windows_s": total("reports.aggregate_windows"),
        "reports.write_s": total("reports.write"),
        "reports.bytes_written": counters.get("bytes_written", 0),
        "grid.static_s": static_s,
        "grid.online_s": total("grid.online"),
        # The static grid computes its cells in vectorised batches, so its
        # per-cell time is the grid time shared evenly over the cells.
        "grid.cell_s_p50": p50("grid.cell") if count("grid.cell") else (static_s / cells if static_s else 0.0),
        "grid.cells_ok": counters.get("cells_ok", 0),
        "grid.cells_infeasible": counters.get("cells_infeasible", 0),
        "cli.self_s": self_time.get("cli", 0.0),
    }


def round_metrics(name: str, report: dict, decisions: int, factor: float = 1.0) -> dict[str, float]:
    """End-to-end metrics of one untraced round; a run reports their medians over rounds.

    Every time is multiplied by ``factor``, the run's host-speed factor
    (``hostspeed.factor``); 1.0 gives the raw figures.
    """
    setup = (report["t_setup"] - report["t0"]) * factor
    wall = report["wall_s"] * factor
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "decisions_per_s": decisions / (wall - setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if name == "inline-classify":
        # 1960 answered queries per round, so 19 beyond the 99th percentile.
        latencies = [ns for ns, ok in zip(report["latencies_ns"], report["answered"]) if ok]
        metrics["decide_p50_ms"] = float(np.percentile(latencies, 50)) / 1e6 * factor
        metrics["decide_p99_ms"] = float(np.percentile(latencies, 99)) / 1e6 * factor
    return metrics


# -- one run -----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_workload(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    data_path = workdir / "data.csv"
    sample = np.random.default_rng(seed).choice(N_TRIALS, FEATURE_SAMPLE, replace=False).tolist()
    prepare = run_child({"role": "prepare", "trace": trace, "data": str(data_path), "seed": seed,
                         "feature_sample": sample}, workdir, "prepare")
    plan = None
    if name == "inline-classify":
        plan = inline_plan(seed)
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    rounds: list[dict] = []
    first_digest = None
    start = time.perf_counter()
    calibrations = [hostspeed.calibrate()]
    min_rounds = 2 if trace else 1
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 0
        out = workdir / f"round-{len(rounds)}"
        out.mkdir()
        job = dict(workload_job(name, data_path, out), trace=traced)
        report = run_child(job, workdir, out.name)
        calibrations.append(hostspeed.calibrate())
        report["traced"] = traced
        if name == "inline-classify":
            outcomes = json.loads((out / "outcomes.json").read_text(encoding="utf-8"))
            report["answered"] = [not o.startswith("error") for o in outcomes]
        rounds.append(report)
        if first_digest is None:
            first_digest = digest(out)
        else:
            report["same_outputs"] = digest(out) == first_digest
            shutil.rmtree(out)
    measured_s = time.perf_counter() - start

    log(f"{name}: {len(rounds)} rounds in {measured_s:.1f} s; checking outputs")
    data = check.read_data(data_path)
    traced_rounds = [r for r in rounds if r["traced"]]
    try:
        verdict = check_round(name, workdir / "round-0", data, plan, traced_rounds[0] if trace else None)
    except (OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
        verdict = check.Verdict(failures=[f"outputs unreadable: {exc!r}"])
    features = check.check_features(data, {int(i): v for i, v in prepare["features"].items()})
    verdict.failures += features.failures
    verdict.notes.update(features.notes)
    for i, r in enumerate(rounds[1:], start=1):
        if not r["same_outputs"]:
            verdict.fail(f"round {i} outputs differ from round 0")
    per_round = expected_operations(name)
    decisions, failed_per_round = verdict.decisions, verdict.failed_ops
    if decisions + failed_per_round != per_round:
        verdict.fail(f"outputs hold {decisions} decisions and {failed_per_round} failures, "
                     f"expected {per_round} operations")
    if verdict.notes.get("unexpected_errors"):
        verdict.fail(f"queries other than dropped-out ones raised: {verdict.notes['unexpected_errors'][:3]}")
    factor = hostspeed.factor(calibrations)
    if trace:
        round_values = [layer_metrics(r, prepare) for r in traced_rounds]
        metrics = {key: statistics.median(m[key] for m in round_values) for key in round_values[0]}
        # Rounds alternate traced, untraced: the median over adjacent pairs
        # cancels most of the machine's slow speed drift.
        metrics["trace.overhead_s"] = statistics.median(
            traced["wall_s"] - untraced["wall_s"] for traced, untraced in zip(rounds[0::2], rounds[1::2]))
        units = LAYER_UNITS
    else:
        round_values = [round_metrics(name, r, decisions, factor) for r in rounds]
        metrics = {key: statistics.median(m[key] for m in round_values) for key in round_values[0]}
        raw_values = [round_metrics(name, r, decisions) for r in rounds]
        raw = {key: statistics.median(m[key] for m in raw_values) for key in raw_values[0]}
        units = E2E_UNITS
    return {
        "workload": name,
        "correct": verdict.ok,
        "attempted": per_round * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        # Query latency percentiles are reported but not declared with a bound
        # in BENCHMARK.json: on a shared host they drift too much between runs.
        "unbounded_metrics": {key: {"value": metrics[key], "unit": "ms"}
                              for key in UNBOUNDED_LATENCIES if key in metrics},
        "rounds": len(rounds),
        "measured_s": measured_s,
        "per_round": round_values,
        "calibrations_s": calibrations,
        "host_speed_factor": factor,
        # The same metrics without the host-speed factor.
        "raw_metrics": raw if not trace else None,
        "check": {"failures": verdict.failures[:20], "n_failures": len(verdict.failures),
                  "forgiven_ties": verdict.forgiven_ties, "notes": verdict.notes},
    }


# -- entry point -------------------------------------------------------------------

def environment(seed: int, trace: bool) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "seed": seed, "trace": trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"), "git_sha": sha,
        "machine": platform.machine(),
    }


def print_result(result: dict) -> None:
    print(f"{result['workload']}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, {result['rounds']} rounds in {result['measured_s']:.1f} s")
    for key, metric in (result["metrics"] | result["unbounded_metrics"]).items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    for failure in result["check"]["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "forceknn" / "__init__.py").is_file():
        log(f"error: no forceknn sources under {SRC}; run from a checkout of the repository")
        return 2

    # Rounds and calibrations share one CPU (children inherit the affinity),
    # so the host-speed factor is measured where the rounds run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            log(f"error: {name}: {exc}")
            return 1
        result["environment"] = environment(args.seed, bool(args.trace))
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        print_result(result)
        results.append(result)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({key: results[0][key] for key in keys}))
    else:
        print(json.dumps({r["workload"]: {key: r[key] for key in keys} for r in results}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
