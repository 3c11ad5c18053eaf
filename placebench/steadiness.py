"""Steadiness record: repeated runs per workload, with quartiles and bounds.

    python3 placebench/steadiness.py

Run from the repository root.  Runs ``run.py --trace 0`` ten times per
workload, each with another ``--seed``, for ``run_seconds`` from
BENCHMARK.json, and records every end-to-end metric's values, median,
quartiles (``statistics.quantiles(values, n=4)``) and spread (the
distance between the quartiles as a share of the median) next to the
bound BENCHMARK.json fixes.  Each timing is recorded twice: as the run
reported it, scaled to a quiet machine's speed, and as the median of
the run's unscaled samples; each run's per-sample scale factors are
recorded too.  The whole sequence runs in two sets, and the record also
gives how far the second set's median moved from the first.  Writes
``steadiness.json`` and ``STEADINESS.md`` here.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(final JSON report, run record from ``placebench/runs/``)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    record = BENCH_DIR / "runs" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"run_seconds": config["run_seconds"], "runs": RUNS, "workloads": {}}
    for set_index in range(SETS):
        for workload in (w["name"] for w in config["workloads"]):
            reports, runs = [], []
            for seed in range(RUNS):
                report, run = one_run(workload, seed, config["run_seconds"])
                reports.append(report)
                runs.append(run)
                print(workload, f"set {set_index + 1} seed {seed}",
                      {k: round(v["value"], 4) for k, v in report["metrics"].items()},
                      flush=True)
            metrics = {}
            for name in bounds:
                metrics[name] = describe([r["metrics"][name]["value"] for r in reports])
                if name in runs[0]["unscaled"]:
                    metrics[name]["unscaled"] = describe(
                        [run["unscaled"][name][1] for run in runs]
                    )
            entry = record["workloads"].setdefault(workload, {"sets": []})
            entry["sets"].append({
                "correct": all(r["correct"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "samples_per_run": [r["attempted"] for r in reports],
                "scale_factors": [run["scales"] for run in runs],
                "kernel_ratios": [run["kernel_ratios"] for run in runs],
                "metrics": metrics,
            })
    lines = [
        "# Steadiness record",
        "",
        f"{RUNS} runs of {config['run_seconds']} s per workload and set, "
        "each with another `--seed`; written by `placebench/steadiness.py`.",
        "Spread is (q3 - q1) / median of the runs' values.  A benchmark is "
        "steady when each spread is within its bound (setup_s exempt) and "
        "a second set's median is no worse than the first's by more than "
        "the bound.  The last column is the spread of the same runs' "
        "unscaled medians (see README.md, \"Steadiness\").",
        "",
        "| workload | set | metric | median | q1 | q3 | spread | bound | median moved | unscaled spread |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, entry in record["workloads"].items():
        first = entry["sets"][0]["metrics"]
        for set_index, result in enumerate(entry["sets"], start=1):
            for name, stats in result["metrics"].items():
                moved = stats["median"] / first[name]["median"] - 1 if first[name]["median"] else 0.0
                stats["median_moved"] = moved
                unscaled = f"{stats['unscaled']['spread']:.3f}" if "unscaled" in stats else "-"
                lines.append(
                    f"| {workload} | {set_index} | {name} | {stats['median']:.6g} | "
                    f"{stats['q1']:.6g} | {stats['q3']:.6g} | {stats['spread']:.3f} | "
                    f"{bounds[name]} | {moved:+.3f} | {unscaled} |"
                )
    (BENCH_DIR / "steadiness.json").write_text(json.dumps(record, indent=1) + "\n")
    (BENCH_DIR / "STEADINESS.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
