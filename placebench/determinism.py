"""Determinism test of the benchmark itself.

    python3 placebench/determinism.py

Run from the repository root.  For each workload it makes two traced
runs and one untraced run of one second each, so each run takes its
minimum sample count, then asserts that ``ref_cost``,
``violations``, ``anneal.accept_ratio``, ``engine.propose_calls``,
``seqpair.lp_fallbacks`` and ``parallel.events`` are identical across
the two traced runs and between traced and untraced samples.  Identical
values show that the traced engine wrapper forwards every call without
changing the walk.  It also asserts that ``seqpair.lp_fallbacks`` is
above 0 on seqpair-sym100 and 0 elsewhere.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from specs import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
#: run labels (``--seed``) of the three runs, kept apart from steadiness runs
TRACED_SEEDS = (9001, 9002)
UNTRACED_SEED = 9003
SECONDS = 1.0
COMPARED = (
    "violations",
    "anneal.accept_ratio",
    "engine.propose_calls",
    "seqpair.lp_fallbacks",
    "parallel.events",
)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[dict]]:
    """(final JSON report, raw samples) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run.py printed nothing: {proc.stderr.strip()}")
    report = json.loads(lines[-1])
    record = BENCH_DIR / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return report, json.loads(record.read_text())["samples"]


def check(workload: str) -> list[str]:
    problems = []
    traced = [bench(workload, seed, 1) for seed in TRACED_SEEDS]
    untraced = bench(workload, UNTRACED_SEED, 0)
    for report, _ in traced + [untraced]:
        if not report["correct"] or report["failed"]:
            problems.append(f"run not correct: {report['failed']} failed samples")
    first, second = (report["metrics"] for report, _ in traced)
    for name in COMPARED:
        if first[name]["value"] != second[name]["value"]:
            problems.append(
                f"{name}: {first[name]['value']} vs {second[name]['value']} across traced runs"
            )
    # every sample, traced or not, must agree on the walk's deterministic
    # outputs (ref_cost, violations, steps, accepted moves, events)
    samples = [s for _, run in traced + [untraced] for s in run]
    outputs = {json.dumps(s["deterministic"], sort_keys=True) for s in samples}
    if len(outputs) != 1:
        problems.append(f"samples disagree on deterministic outputs: {sorted(outputs)}")
    ref_cost = untraced[0]["metrics"]["ref_cost"]["value"]
    if ref_cost != samples[0]["deterministic"]["ref_cost"]:
        problems.append(f"reported ref_cost {ref_cost} differs from the samples'")
    lp = first["seqpair.lp_fallbacks"]["value"]
    if workload == "seqpair-sym100" and not lp > 0:
        problems.append("seqpair.lp_fallbacks is 0: the scipy fallback no longer fires")
    if workload != "seqpair-sym100" and lp != 0:
        problems.append(f"seqpair.lp_fallbacks is {lp}, expected 0")
    return problems


def main() -> int:
    failed = False
    for workload in sorted(WORKLOADS):
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
