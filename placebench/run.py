"""End-to-end placement benchmark.

    python3 placebench/run.py --workload hbtree-gen1k --seed 0 --seconds 20 --trace 0

Run from the repository root.  The runner starts ``walk.py`` in a fresh
interpreter once per sample, one after another, until ``--seconds`` are
used; each sample is one whole ``place`` run of the workload.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced samples (interleaved with untraced ones, to
measure the tracing overhead).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A metric is the
median over the run's samples; each sample's times are first scaled to a
quiet machine's speed with the calibration ``walk.py`` takes before the
place run (``calibrate.py``).  The unscaled samples, their scale factors,
and the spans of traced samples, are written to ``placebench/runs/``.

Every sample's outputs are checked (see README.md); a sample that fails
a check or raises counts as failed, and a run fails when its samples
disagree on any deterministic output, or when most of its samples are
flagged by the calibration guard.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from specs import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
clock = time.perf_counter

#: call counts every traced sample of a run must repeat exactly
ENGINE_COUNTS = ("engine.propose_calls", "engine.snapshot_calls", "commits", "rollbacks")

#: units of time, which are scaled to a quiet machine's speed
TIME_UNITS = ("s", "ms", "us")
#: a run takes at least this many untraced samples, whatever --seconds is
MIN_SAMPLES = 3
#: no new sample starts after this many seconds (runs must end in 180 s)
HARD_STOP_S = 120.0
#: a sample that takes longer than this is killed and counted as failed
SAMPLE_TIMEOUT_S = 50.0
#: a sample is flagged when its calibration kernel ran this many times
#: slower after the place run than before it; a run fails when more than
#: half of its samples are flagged
GUARD_RATIO = 1.5


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q=0.5`` is the median)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def layout_error(root: Path) -> str | None:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no src/repro package under {root}: run from the repository root"
    return None


def run_sample(root: Path, circuit: str, walk_seed: int, args, traced: bool, walk_id: int) -> dict:
    """One ``walk.py`` process; returns its parsed report (``ok`` False on failure)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned_at = clock()
    command = [
        sys.executable, str(BENCH_DIR / "walk.py"),
        "--workload", args.workload, "--circuit", circuit,
        "--walk-seed", str(walk_seed), "--trace", str(int(traced)),
        "--walk-id", str(walk_id), "--spawned-at", repr(spawned_at),
    ]
    # own process group, so a timed-out sample's portfolio workers die too
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "traced": traced, "errors": [f"timed out after {SAMPLE_TIMEOUT_S} s"]}
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-5:]
        return {"ok": False, "traced": traced,
                "errors": [f"exit {proc.returncode}, no report: {' | '.join(tail)}"]}
    report["traced"] = traced
    if proc.returncode != 0:
        report["ok"] = False
        report.setdefault("errors", []).append(f"exit {proc.returncode}")
    return report


def speed_scale(report: dict) -> float:
    """Factor that turns this sample's times into quiet-machine times:
    the reference kernel time over the kernel time taken before the
    program was imported."""
    return REFERENCE_S / report["calibration"]["kernel_s"]


def kernel_ratio(report: dict) -> float:
    """The kernel time after the sample's checks over the one before its
    place run; work the program left running would raise it."""
    return report["calibration_after"]["kernel_s"] / report["calibration"]["kernel_s"]


def scaled(value: float, unit: str, scale: float) -> float:
    if unit in TIME_UNITS:
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def raw_end_to_end(report: dict) -> dict[str, float]:
    """One sample's end-to-end timings as measured, calibration excluded."""
    spawned = report["spawned_at"] + report["calibration"]["wall_s"]
    return {
        "setup_s": report["setup_end"] - spawned,
        "wall_s": report["done"] - spawned,
        "cpu_s": report["cpu_s"] - report["calibration"]["cpu_s"],
        "steps_per_s": report["steps"] / report["anneal_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "ref_cost": report["deterministic"]["ref_cost"],
    }


def layer_values(report: dict, kind: str) -> dict[str, float]:
    """One traced sample's per-layer values as measured (absent: 0)."""
    det = report["deterministic"]
    phases = report["phases"]
    values = {
        f"{phase}_s": phases[phase]
        for phase in ("cli.import", "workloads.resolve", "cost.reference", "circuit.violations")
    }
    values["violations"] = det["violations"]
    values["seqpair.lp_fallbacks"] = report["lp_fallbacks"]
    values["anneal.steps"] = det["steps"]
    values["anneal.run_s"] = report["anneal_s"]
    if kind == "portfolio":
        values["parallel.construct_s"] = phases["parallel.construct"]
        values["parallel.run_s"] = phases["parallel.run"]
        values.update(report["parallel"])
        values["anneal.run_s"] = values["parallel.exec_s"]
        values["anneal.accept_ratio"] = det["accepted"] / det["walked"]
    else:
        engine = report["engine"]
        values["placer.build_s"] = phases["placer.build"]
        values["placer.finalize_s"] = phases["placer.finalize"]
        values.update(engine)
        values.update(report["replay"])
        values["anneal.warmup_moves"] = engine["engine.propose_calls"] - det["steps"]
        values["anneal.accept_ratio"] = engine["commits"] / (
            engine["commits"] + engine["rollbacks"]
        )
    return values


def median_scaled(samples: list[tuple[dict, float]], name: str, unit: str) -> float:
    return statistics.median(scaled(v.get(name, 0.0), unit, s) for v, s in samples)


def end_to_end(untraced: list[dict], units: dict[str, str]) -> tuple[dict, dict]:
    """(metric values, raw summary): each metric is the median over the
    untraced samples of its scaled value; the raw summary gives the
    unscaled quartiles."""
    samples = [(raw_end_to_end(r), speed_scale(r)) for r in untraced]
    values = {name: median_scaled(samples, name, unit) for name, unit in units.items()}
    raw = {}
    for name, unit in units.items():
        if unit in TIME_UNITS or unit == "1/s":
            series = [v[name] for v, _ in samples]
            raw[name] = [quantile(series, q) for q in (0.25, 0.5, 0.75)]
    return values, raw


def per_layer(traced: list[dict], untraced: list[dict], kind: str, units: dict[str, str]) -> dict:
    """Per-layer metric values: medians over traced samples of their
    scaled values (0 where a layer is not on the workload's path)."""
    samples = [(layer_values(r, kind), speed_scale(r)) for r in traced]
    values = {name: median_scaled(samples, name, unit) for name, unit in units.items()}
    if untraced:
        def anneal_s(reports: list[dict]) -> float:
            return statistics.median(r["anneal_s"] * speed_scale(r) for r in reports)

        values["trace.overhead_frac"] = anneal_s(traced) / anneal_s(untraced) - 1.0
    return values


def consistency_errors(reports: list[dict]) -> list[str]:
    """Deterministic outputs must agree across every sample of a run, and
    the traced engine's call counts must match the walk's own stats."""
    errors = []
    base = reports[0]["deterministic"]
    for r in reports[1:]:
        if r["deterministic"] != base:
            errors.append(f"deterministic outputs differ: {base} vs {r['deterministic']}")
            break
    traced = [r for r in reports if r["traced"]]
    counts = set()
    for r in traced:
        engine = r.get("engine", {})
        counts.add(json.dumps(
            [r["lp_fallbacks"]] + [engine.get(k) for k in ENGINE_COUNTS]
        ))
        if engine:
            det = r["deterministic"]
            warmup = engine["engine.propose_calls"] - det["steps"]
            if engine["commits"] - warmup != det["accepted"] or (
                engine["commits"] + engine["rollbacks"] - warmup != det["steps"]
            ):
                errors.append("traced engine calls disagree with the walk's stats")
    if len(counts) > 1:
        errors.append(f"traced samples disagree on call counts: {sorted(counts)}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end placement benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed; recorded in the report (workloads pin their "
                             "circuit and walk seeds, see README.md)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuit-seed", type=int, default=None,
                        help="override the workload's circuit seed")
    parser.add_argument("--walk-seed", type=int, default=None,
                        help="override the workload's walk seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = layout_error(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # byte-compile up front: users run from compiled modules, so the
    # first sample's set-up time must not include compilation
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    circuit_seed = workload.circuit_seed if args.circuit_seed is None else args.circuit_seed
    walk_seed = workload.walk_seed if args.walk_seed is None else args.walk_seed
    circuit = workload.circuit_name(circuit_seed)
    traced_run = bool(args.trace)

    started = clock()
    deadline = started + args.seconds
    reports: list[dict] = []
    durations: list[float] = []
    while True:
        # a traced run alternates traced and untraced samples
        traced = traced_run and len(reports) % 2 == 0
        t0 = clock()
        reports.append(run_sample(root, circuit, walk_seed, args, traced, len(reports)))
        durations.append(clock() - t0)
        now = clock()
        enough = len(reports) >= (2 if traced_run else MIN_SAMPLES)
        if now - started > HARD_STOP_S or (
            enough and now + statistics.median(durations) > deadline
        ):
            break

    failed = [r for r in reports if not r.get("ok")]
    good = [r for r in reports if r.get("ok")]
    errors = [e for r in failed for e in r.get("errors", [])]
    errors += consistency_errors(good) if good else []
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    ratios = [kernel_ratio(r) for r in good]
    flagged = sum(ratio > GUARD_RATIO for ratio in ratios)
    if 2 * flagged > len(good):
        errors.append(
            f"{flagged} of {len(good)} samples ran the calibration kernel over "
            f"{GUARD_RATIO}x slower after the place run than before it: the "
            "program may leave work running"
        )

    runs_dir = BENCH_DIR / "runs"
    runs_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload, "seed": args.seed, "circuit": circuit,
        "walk_seed": walk_seed, "errors": errors,
        "scales": [speed_scale(r) for r in good],
        "kernel_ratios": ratios,
        "samples": [
            {k: v for k, v in r.items() if k != "spans"} for r in reports
        ],
    }
    if traced:
        with open(runs_dir / f"{stem}.spans.jsonl", "w") as handle:
            for r in traced:
                for row in r["spans"]:
                    handle.write(json.dumps(row) + "\n")

    # metric names and units come from BENCHMARK.json at the checkout root
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["per_layer" if traced_run else "end_to_end"]}
    metrics = {}
    if (traced if traced_run else untraced):
        if traced_run:
            metrics = per_layer(traced, untraced, workload.kind, units)
        else:
            metrics, raw = end_to_end(untraced, units)
            summary["unscaled"] = raw
            print(f"{len(untraced)} samples; unscaled q1 / median / q3:")
            for name, (q1, median, q3) in raw.items():
                print(f"  {name:<12} {q1:.6g} / {median:.6g} / {q3:.6g}")
    print(f"calibration guard: {flagged} of {len(good)} samples flagged "
          f"(kernel over {GUARD_RATIO}x slower after the place run)")
    if metrics and set(metrics) != set(units):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    (runs_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, value in metrics.items():
        print(f"{name:<26} {value:>14.6g} {units.get(name, '?')}")
    correct = not errors and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
