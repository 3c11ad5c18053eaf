"""The four placement workloads: circuit, engine, step budget and seeds.

A workload pins its circuit seed and walk seed.  Both are arguments of
the benchmark (``--circuit-seed``, ``--walk-seed``).  README.md gives a
hold-out pair per workload, for checking a claimed gain on inputs that
were not used while the change was written, and why each workload and
seed was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``single`` (one walk through the placer walk API) or ``portfolio``
    kind: str
    engine: str
    #: workload spec; ``{seed}`` is replaced by the circuit seed
    circuit: str
    circuit_seed: int | None
    walk_seed: int
    #: placer config overrides that size the step budget
    budget: tuple[tuple[str, object], ...] = ()
    starts: int = 1
    workers: int = 0

    def circuit_name(self, circuit_seed: int | None) -> str:
        return self.circuit.format(seed=circuit_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hbtree-gen1k",
            kind="single",
            engine="hbtree",
            circuit="gen:n=1000,seed={seed}",
            circuit_seed=1,
            walk_seed=0,
            # 127 epochs x 2 = 254 steps (+32 warm-up proposals)
            budget=(("steps_per_epoch", 2),),
        ),
        Workload(
            name="bstar-gen1k",
            kind="single",
            engine="bstar",
            circuit="gen:n=1000,seed={seed},sym=0,prox=0",
            circuit_seed=1,
            walk_seed=0,
            budget=(("steps_per_epoch", 2),),
        ),
        Workload(
            name="seqpair-sym100",
            kind="single",
            engine="seqpair",
            circuit="gen:n=100,seed={seed},sym=0.2",
            circuit_seed=11,
            # of walk seeds 0 to 5, seed 0 fires the scipy linprog
            # fallback most; see README.md
            walk_seed=0,
            # 42 epochs x 1 = 42 steps (+32 warm-up proposals)
            budget=(("alpha", 0.8), ("steps_per_epoch", 1)),
        ),
        Workload(
            name="portfolio-miller",
            kind="portfolio",
            engine="hbtree",
            circuit="miller_opamp",
            circuit_seed=None,
            walk_seed=0,
            # default schedule: 4 starts x 7,620 steps = 30,480 steps
            starts=4,
            workers=2,
        ),
    )
}
