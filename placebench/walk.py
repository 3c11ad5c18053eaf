"""One placement run in a fresh interpreter, as ``python -m repro place`` does it.

The runner (``run.py``) starts this file once per sample.  It drives the
library's public API: import ``repro.cli``, resolve the workload, build
the placer and its engine, anneal, finalize, score with the reference
model and count constraint violations; a portfolio workload runs
``PortfolioRunner(...).run()`` instead of the single walk.  Timestamps
are taken before the checks, which run after the place flow ends.  The
last stdout line is one JSON object for the runner.

Before anything of the program is imported, ``calibrate.py`` times a
fixed kernel; the runner scales this sample's times to a quiet machine's
speed with it.  The kernel is timed again after the checks, only as a
guard: the runner flags a sample whose second time is much slower than
its first, as it would be if the program left work running.

With ``--trace 1`` the engine handed to the annealer is wrapped, calls
to ``scipy.optimize.linprog`` are counted, and the full-evaluation path
is replayed after the walk; see ``spans.py``.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import traceback

from calibrate import calibrate
from spans import LinprogCounter, SpanLog, TracedEngine, clock, self_times
from specs import WORKLOADS

#: full-evaluation replays after a traced walk: at least 3, at most 31,
#: stopping once this many seconds are spent
REPLAY_SECONDS = 0.5


def usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0


def placement_errors(placement, module_names, tol: float = 1e-9) -> list[str]:
    """Every module placed exactly once, and no two rectangles overlap."""
    errors = []
    placed = [p.name for p in placement]
    if sorted(placed) != sorted(module_names):
        missing = set(module_names) - set(placed)
        extra = len(placed) - len(set(placed))
        errors.append(f"module set differs: {len(missing)} missing, {extra} duplicated")
    rects = sorted(
        (p.rect.x0, p.rect.y0, p.rect.x1, p.rect.y1, p.name) for p in placement
    )
    active: list[tuple] = []
    for rect in rects:
        active = [a for a in active if a[2] > rect[0] + tol]
        for a in active:
            if min(a[3], rect[3]) - max(a[1], rect[1]) > tol:
                errors.append(f"{a[4]} overlaps {rect[4]}")
                return errors
        active.append(rect)
    return errors


def same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def median_ms(fn, arg) -> float:
    samples = []
    deadline = clock() + REPLAY_SECONDS
    while len(samples) < 3 or (len(samples) < 31 and clock() < deadline):
        start = clock()
        fn(arg)
        samples.append(clock() - start)
    return 1e3 * statistics.median(samples)


def run_single(workload, circuit_name: str, walk_seed: int, log: SpanLog,
               counter: LinprogCounter | None) -> dict:
    traced = counter is not None
    with log.span("cli.import"):
        import repro.cli  # noqa: F401  (what `python -m repro place` imports)
        from repro.bstar import BStarPlacer, BStarPlacerConfig, HierarchicalPlacer
        from repro.cost import reference_model
        from repro.perf import placement_to_coords
        from repro.seqpair import PlacerConfig, SequencePairPlacer
        from repro.workloads import resolve_workload
    placers = {
        "hbtree": (HierarchicalPlacer, BStarPlacerConfig),
        "bstar": (BStarPlacer, BStarPlacerConfig),
        "seqpair": (SequencePairPlacer, PlacerConfig),
    }
    placer_cls, config_cls = placers[workload.engine]
    with log.span("workloads.resolve"):
        circuit = resolve_workload(circuit_name)
    with log.span("placer.build"):
        placer = placer_cls.for_circuit(
            circuit, config_cls(seed=walk_seed, **dict(workload.budget))
        )
        rng = random.Random(walk_seed)
        engine = placer.engine()
        engine.reset(placer.initial_state(rng))
    setup_end = clock()
    with log.span("anneal.run") as anneal_span:
        if traced:
            engine = TracedEngine(engine, log, anneal_span)
        outcome = placer.annealer(engine, rng).run()
    with log.span("placer.finalize"):
        placement = placer.finalize(outcome.best_state)
    with log.span("cost.reference"):
        ref_cost = reference_model(circuit).evaluate_placement(placement)
    with log.span("circuit.violations"):
        violations = circuit.constraints().violations(placement)
    done = clock()
    cpu_s, rss_mb = usage()
    lp_fallbacks = counter.calls if traced else None

    errors = placement_errors(placement, circuit.modules().names())
    best = outcome.best_cost
    if not same_float(placer.cost(outcome.best_state), best):
        errors.append(f"placer.cost(best_state) != best_cost {best!r}")
    coords = placement_to_coords(placement)
    if not same_float(placer.cost_model.evaluate(coords), best):
        errors.append(f"cost_model.evaluate(finalized) != best_cost {best!r}")
    replay = {}
    if traced:
        eval_ms = median_ms(placer.cost, outcome.best_state)
        cost_ms = median_ms(placer.cost_model.evaluate, coords)
        replay = {"replay.eval_ms": eval_ms, "replay.cost_ms": cost_ms,
                  "replay.pack_ms": eval_ms - cost_ms}
    stats = outcome.stats
    return {
        "errors": errors,
        "setup_end": setup_end,
        "done": done,
        "anneal_s": log.rows[anneal_span][2] - log.rows[anneal_span][1],
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "steps": stats.steps,
        "lp_fallbacks": lp_fallbacks,
        "deterministic": {
            "ref_cost": ref_cost,
            "violations": len(violations),
            "best_cost": best,
            "steps": stats.steps,
            "accepted": stats.accepted,
        },
        "replay": replay,
    }


def run_portfolio(workload, circuit_name: str, walk_seed: int, log: SpanLog,
                  counter: LinprogCounter | None) -> dict:
    traced = counter is not None
    with log.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro.cost import reference_model
        from repro.workloads import resolve_workload
    with log.span("workloads.resolve"):
        circuit = resolve_workload(circuit_name)
    events = []

    def on_event(event) -> None:
        now = clock()
        events.append(now)
        if traced:
            log.rows.append(("parallel.event", now, now, run_span))

    with log.span("parallel.construct"):
        from repro.parallel import PortfolioRunner

        runner = PortfolioRunner(
            circuit_name,
            (workload.engine,),
            starts=workload.starts,
            workers=workload.workers,
            base_seed=walk_seed,
            on_event=on_event,
        )
    setup_end = clock()
    with log.span("parallel.run") as run_span:
        result = runner.run()
    with log.span("cost.reference"):
        ref_cost = reference_model(circuit).evaluate_placement(result.placement)
    with log.span("circuit.violations"):
        violations = circuit.constraints().violations(result.placement)
    done = clock()
    cpu_s, rss_mb = usage()
    lp_fallbacks = counter.calls if traced else None
    workers_usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    errors = placement_errors(result.placement, circuit.modules().names())
    if not same_float(ref_cost, result.winner.ref_cost):
        errors.append(
            f"winner ref_cost {result.winner.ref_cost!r} re-evaluates to {ref_cost!r}"
        )
    for failure in result.failures:
        errors.append(f"quarantined: {failure.summary_line()}")
    run_start, run_end = log.rows[run_span][1], log.rows[run_span][2]
    run_s = run_end - run_start
    exec_s = sum(row.elapsed_s for row in result.leaderboard)
    accepted = sum(row.stats.accepted for row in result.leaderboard if row.stats)
    walked = sum(row.stats.steps for row in result.leaderboard if row.stats)
    return {
        "errors": errors,
        "setup_end": setup_end,
        "done": done,
        "anneal_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "steps": result.total_steps,
        "lp_fallbacks": lp_fallbacks,
        "deterministic": {
            "ref_cost": ref_cost,
            "violations": len(violations),
            "best_cost": result.cost,
            "steps": result.total_steps,
            "accepted": accepted,
            "walked": walked,
            "events": len(events),
        },
        "parallel": {
            "parallel.first_event_s": events[0] - run_start if events else run_s,
            "parallel.exec_s": exec_s,
            "parallel.overhead_s": run_s - exec_s / max(1, result.workers),
            "parallel.walk_steps_per_s": result.total_steps / exec_s if exec_s else 0.0,
            "parallel.child_cpu_s": workers_usage.ru_utime + workers_usage.ru_stime,
            "parallel.events": len(events),
            "parallel.retries": result.retries,
            "parallel.respawns": result.respawns,
            "parallel.failed_walks": len(result.failures),
        },
    }


def engine_layers(log: SpanLog, anneal_span: int) -> dict:
    """Per-layer metrics of one traced single walk, from its spans."""
    rows = log.records()
    durations: dict[str, list[float]] = {}
    for row in rows:
        if row["parent"] == anneal_span:
            durations.setdefault(row["name"], []).append(row["end"] - row["start"])
    propose = sorted(durations.get("engine.propose", []))
    commits = len(durations.get("engine.commit", []))
    rollbacks = len(durations.get("engine.rollback", []))
    anneal_self = self_times(rows)[anneal_span]
    return {
        "engine.propose_s": sum(propose),
        "engine.propose_calls": len(propose),
        "engine.propose_us_p50": 1e6 * statistics.median(propose) if propose else 0.0,
        "engine.propose_us_p99": 1e6 * propose[int(0.99 * (len(propose) - 1))] if propose else 0.0,
        "engine.commit_s": sum(durations.get("engine.commit", [])),
        "engine.rollback_s": sum(durations.get("engine.rollback", [])),
        "engine.snapshot_s": sum(durations.get("engine.snapshot", [])),
        "engine.snapshot_calls": len(durations.get("engine.snapshot", [])),
        "anneal.self_s": anneal_self,
        "commits": commits,
        "rollbacks": rollbacks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--circuit", required=True)
    parser.add_argument("--walk-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--walk-id", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    counter = None
    if args.trace:
        counter = LinprogCounter()
        counter.install()
    log = SpanLog(args.walk_id)
    run = run_portfolio if workload.kind == "portfolio" else run_single
    calibration = calibrate()
    try:
        out = run(workload, args.circuit, args.walk_seed, log, counter)
    except Exception:
        # a walk that raises is a failed operation, reported, never dropped
        print(json.dumps({"ok": False, "errors": [traceback.format_exc()]}))
        return 0
    out["ok"] = not out["errors"]
    out["spawned_at"] = args.spawned_at
    out["calibration"] = calibration
    out["phases"] = {
        name: end - start for name, start, end, parent in log.rows
        if parent is None
    }
    if args.trace:
        if workload.kind == "single":
            anneal_span = next(
                i for i, row in enumerate(log.rows) if row[0] == "anneal.run"
            )
            out["engine"] = engine_layers(log, anneal_span)
        out["spans"] = log.records()
    out["calibration_after"] = calibrate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
