"""Self-test of the benchmark's checks: they pass on real outputs and catch injected errors.

    python3 bench/selftest.py

Runs one untraced round of every workload on the seed-0 dataset, checks the
outputs (every check must pass), then injects one error at a time and checks
again (every check must fail):

* one flipped decision in ``records-l100.jsonl``;
* one perturbed cell in each grid CSV;
* a wrong ``Decision`` returned by ``classify`` in ``inline-classify``, and a
  committed decision for a dropped-out trace.

Exits 0 when every injected error is caught and no clean output is refused.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

import check
import child
import run


def flip_one_decision(out: Path) -> None:
    path = out / "records-l100.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["phase"] == "classified":
            flipped = "negative" if record["decision"] == "positive" else "positive"
            record.update(decision=flipped, predicted=flipped)
            lines[i] = json.dumps(record, sort_keys=True)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def perturb_one_cell(out: Path) -> None:
    """Nudge the precision of the first feasible grid row by one part in a million."""
    path = out / "grid.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = next(csv.reader([lines[header]]))
    for i in range(header + 1, len(lines)):
        row = next(csv.reader([lines[i]]))
        if row[columns.index("status")] == "ok":
            col = columns.index("precision")
            row[col] = repr(float(row[col]) * (1 + 1e-6))
            lines[i] = ",".join(row)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def inline_outcomes(forceknn, plan: dict, data: Path, classify) -> list[str]:
    """Run the inline-classify loop in this process with ``classify`` swapped in."""
    original = forceknn.online.classify
    forceknn.online.classify = classify
    try:
        return child.run_inline(forceknn, plan, str(data), {})
    finally:
        forceknn.online.classify = original


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import forceknn

    workdir = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results: list[tuple[str, bool]] = []

    def expect(label: str, verdict: check.Verdict, ok: bool) -> None:
        passed = verdict.ok == ok
        results.append((label, passed))
        detail = "" if verdict.ok else f" ({len(verdict.failures)} failures, first: {verdict.failures[0]})"
        print(f"{'PASS' if passed else 'FAIL'} {label}: check {'passed' if verdict.ok else 'failed'}{detail}")

    try:
        data_path = workdir / "data.csv"
        run.run_child({"role": "prepare", "trace": False, "data": str(data_path), "seed": 0,
                       "feature_sample": [0]}, workdir, "prepare")
        data = check.read_data(data_path)
        mutations = {"online-default": flip_one_decision, "grid-static": perturb_one_cell,
                     "grid-online": perturb_one_cell}
        for name, mutate in mutations.items():
            out = workdir / name
            out.mkdir()
            run.run_child(dict(run.workload_job(name, data_path, out), trace=False), workdir, name)
            expect(f"{name} clean outputs", run.check_round(name, out, data, None, None), ok=True)
            mutate(out)
            expect(f"{name} {mutate.__name__}", run.check_round(name, out, data, None, None), ok=False)

        plan = run.inline_plan(0)
        decision = forceknn.Decision
        outcomes = inline_outcomes(forceknn, plan, data_path, forceknn.online.classify)
        expect("inline-classify clean outcomes", check.check_inline(outcomes, plan, data), ok=True)

        calls = iter(range(len(plan["queries"])))

        def one_wrong(model, query):
            answer = forceknn.classify(model, query)
            if next(calls) == 3:
                return decision.NEGATIVE if answer is decision.POSITIVE else decision.POSITIVE
            return answer

        outcomes = inline_outcomes(forceknn, plan, data_path, one_wrong)
        expect("inline-classify one wrong Decision", check.check_inline(outcomes, plan, data), ok=False)

        def dropped_out_commits(model, query):
            if not query.values.any():
                return decision.NEGATIVE
            return forceknn.classify(model, query)

        outcomes = inline_outcomes(forceknn, plan, data_path, dropped_out_commits)
        expect("inline-classify dropped-out trace committed", check.check_inline(outcomes, plan, data), ok=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [label for label, passed in results if not passed]
    print(f"{len(results) - len(failed)}/{len(results)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
