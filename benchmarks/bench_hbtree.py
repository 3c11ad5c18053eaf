"""HB*-tree hot path — steps/sec, reference cost and violations.

Measures the hierarchical placer (``HierarchicalPlacer`` over its
``HBIncrementalEngine``), the one engine that returns legal placements
on constrained circuits at n=1000, on the generated circuits the
end-to-end benchmark pins (``placebench``'s ``hbtree-gen1k``):

* ``gen:n=1000,seed=1`` with walk seed 0 (the pinned pair) and
  ``gen:n=1000,seed=2`` with walk seed 7 (the hold-out pair), each a
  127-epoch x 2-step schedule (254 steps plus 32 warm-up proposals);
* per walk: the anneal's steps/sec (the fastest of the repeats, the
  one least disturbed by other load on the host; only ``run()`` is
  timed, not circuit resolution or engine construction),
  the best placement's reference cost and its violation count;
* identity: the engine's best cost must equal the functional
  ``model(hb.pack_coords(state))`` cost of the best state bit for bit,
  and every repeat must land on the same best cost.

Results are **appended** to ``BENCH_perf_kernel.json`` as
``mode: "hbtree"`` entries.

Run standalone:   python benchmarks/bench_hbtree.py [--quick] [--no-write]
Run under pytest: pytest benchmarks/bench_hbtree.py -q
"""

from __future__ import annotations

import argparse
import random
import time

from bench_perf_kernel import JSON_PATH, record_trajectory_entry

from repro.bstar import BStarPlacerConfig, HierarchicalPlacer
from repro.cost import reference_model
from repro.workloads import resolve_workload

#: (circuit, walk seed): the pinned and the hold-out pair
WALKS = (("gen:n=1000,seed=1", 0), ("gen:n=1000,seed=2", 7))
#: smoke tier: a small constrained circuit, nested symmetry + proximity
QUICK_WALKS = (("gen:n=150,seed=3", 0),)

STEPS_PER_EPOCH = 2


def measure(circuit_name: str, walk_seed: int, *, repeats: int) -> dict:
    """Anneal one walk ``repeats`` times; report the fastest rate."""
    circuit = resolve_workload(circuit_name)
    config = BStarPlacerConfig(seed=walk_seed, steps_per_epoch=STEPS_PER_EPOCH)
    rates = []
    best_costs = set()
    for _ in range(repeats):
        placer = HierarchicalPlacer.for_circuit(circuit, config)
        rng = random.Random(walk_seed)
        engine = placer.engine()
        engine.reset(placer.initial_state(rng))
        t0 = time.perf_counter()
        outcome = placer.annealer(engine, rng).run()
        elapsed = time.perf_counter() - t0
        rates.append(outcome.stats.steps / elapsed)
        best_costs.add(outcome.best_cost)
    placement = placer.finalize(outcome.best_state)
    return {
        "workload": circuit_name,
        "walk_seed": walk_seed,
        "modules": len(circuit.modules()),
        "steps": outcome.stats.steps,
        "steps_per_sec": round(max(rates), 1),
        "best_cost": outcome.best_cost,
        "ref_cost": reference_model(circuit).evaluate_placement(placement),
        "violations": len(circuit.constraints().violations(placement)),
        "functional_identical": outcome.best_cost == placer.cost(outcome.best_state),
        "deterministic": len(best_costs) == 1,
    }


def run(fast: bool = False, write: bool = False) -> dict:
    """Measure every walk; optionally append a trajectory entry."""
    walks = QUICK_WALKS if fast else WALKS
    repeats = 1 if fast else 5
    recorded = record_trajectory_entry(
        "hbtree",
        {
            "engine": "hbtree",
            "steps_per_epoch": STEPS_PER_EPOCH,
            "runs": [measure(c, s, repeats=repeats) for c, s in walks],
        },
        write=write,
    )
    entry = recorded["entry"]
    lines = [
        f"{'workload':<20} {'walk':>4} {'steps':>6} {'steps/s':>9} "
        f"{'ref cost':>10} {'viol':>5}  identical"
    ]
    for row in entry["runs"]:
        lines.append(
            f"{row['workload']:<20} {row['walk_seed']:>4} {row['steps']:>6} "
            f"{row['steps_per_sec']:>9,.0f} {row['ref_cost']:>10.4f} "
            f"{row['violations']:>5}  {row['functional_identical']}"
        )
    return {
        "benchmark": "hbtree_steps_per_sec",
        "mode": entry["mode"],
        "runs": entry["runs"],
        "entry": entry,
        "appended": recorded["appended"],
        "table": "\n".join(lines),
    }


def test_hbtree_report(emit, benchmark):
    """Smoke tier: the constrained walk anneals, is seed-stable and
    matches the functional path — without touching the trajectory."""
    results = benchmark.pedantic(lambda: run(fast=True), rounds=1, iterations=1)
    emit("hbtree_hot_path", results["table"])
    for row in results["runs"]:
        assert row["steps_per_sec"] > 0
        assert row["functional_identical"], row
        assert row["deterministic"], row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="one small walk (seconds, for CI)"
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and report only; do not append to BENCH_perf_kernel.json",
    )
    args = parser.parse_args(argv)
    outcome = run(fast=args.quick, write=not args.no_write)
    print(outcome["table"])
    if outcome["appended"]:
        print(f"\nappended trajectory entry: {JSON_PATH}")
    bad = [
        r["workload"]
        for r in outcome["runs"]
        if not (r["functional_identical"] and r["deterministic"])
    ]
    if bad:
        print(f"NOT BIT-IDENTICAL: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
