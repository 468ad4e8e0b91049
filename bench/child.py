"""One benchmark round in a fresh interpreter: ``python child.py JOB.json``.

The job file names a role and its arguments:

* ``prepare``: ``forceknn gen`` writes the workload's dataset, and the
  package's features of a few sample trials are saved for the checker;
* ``cli``: one ``forceknn`` command line (``online`` or ``grid``);
* ``inline``: the single-query API in a closed loop, one caller waiting for
  each ``Decision``.

With ``trace`` set, spans are recorded around every layer boundary (see
``spans.py``); without it only the end of the dataset read is time-stamped,
which marks the end of set-up. The round's report is written to
``job["report"]`` as JSON when the round ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


def _mark_setup(report: dict, read):
    def marked(*args, **kwargs):
        result = read(*args, **kwargs)
        report["t_setup"] = time.perf_counter()
        return result

    return marked


def run_inline(forceknn, plan: dict, data_path: str, report: dict) -> list[str]:
    """Send raw traces one at a time through preprocess then classify.

    Returns one outcome per query: the decision's value, or ``error: ...``
    for a query that raised. Latencies (ns) go to ``report["latencies_ns"]``.
    """
    import numpy as np

    online = forceknn.online
    trials = forceknn.dataset_io.read_dataset(data_path)
    report["t_setup"] = time.perf_counter()
    model = online.KnnModel(
        [(online.preprocess(trials[i].trace), trials[i].truth) for i in plan["snapshot"]],
        k=plan["k"],
        metric=forceknn.Metric.parse(plan["metric"]),
        l_value=plan["l_value"],
    )
    rate = trials[0].trace.sample_rate
    dropped_out = np.zeros(len(trials[0].trace))
    raw = [trials[i].trace.samples if i >= 0 else dropped_out for i in plan["queries"]]
    force_trace = forceknn.ForceTrace
    clock = time.perf_counter_ns
    outcomes, latencies = [], []
    for samples in raw:
        start = clock()
        try:
            outcome = online.classify(model, online.preprocess(force_trace(samples, rate))).value
        except ValueError as exc:
            outcome = f"error: {exc}"
        latencies.append(clock() - start)
        outcomes.append(outcome)
    report["latencies_ns"] = latencies
    return outcomes


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    report: dict = {}
    loaded = len(sys.modules)
    start = time.perf_counter()
    import forceknn
    report["import_s"] = time.perf_counter() - start
    report["modules_loaded"] = len(sys.modules) - loaded
    import forceknn.cli

    if not Path(forceknn.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"forceknn was imported from {forceknn.__file__}, not {job['src']}", file=sys.stderr)
        return 3
    tracer = spans.Tracer()
    if job["trace"]:
        spans.instrument(tracer, forceknn)
    forceknn.cli.read_dataset = _mark_setup(report, forceknn.cli.read_dataset)

    status = 0
    role = job["role"]
    if role == "prepare":
        status = forceknn.cli.main(["gen", "--out", job["data"], "--rng-seed", str(job["seed"])])
        trials = forceknn.read_dataset(job["data"])
        report["features"] = {
            str(i): forceknn.preprocess(trials[i].trace).values.tolist() for i in job["feature_sample"]
        }
    elif role == "cli":
        status = forceknn.cli.main(job["argv"])
    elif role == "inline":
        plan = json.loads(Path(job["plan"]).read_text(encoding="utf-8"))
        outcomes = run_inline(forceknn, plan, job["data"], report)
        Path(job["outcomes"]).write_text(json.dumps(outcomes), encoding="utf-8")
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    report["spans"] = tracer.spans
    report["counters"] = dict(tracer.counters)
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
