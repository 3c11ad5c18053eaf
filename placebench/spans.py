"""Outside-in tracing for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer of the library; nothing in ``src/`` is touched.
A span is ``(name, start, end, parent)``; its id is its index in the
walk's list, and every span of one walk carries that walk's id when it
is written out.  Times are ``time.perf_counter()`` seconds, which on
Linux is the system-wide monotonic clock, so spans of different
processes line up.

Run this file on a trace to read it::

    python3 placebench/spans.py placebench/runs/hbtree-gen1k-seed0-trace1.spans.jsonl

It prints, per span name, the call count, total time and self time
(a span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import importlib.abc
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class SpanLog:
    """The spans of one walk, kept in memory until the run ends."""

    def __init__(self, walk: int) -> None:
        self.walk = walk
        #: ``[name, start, end, parent]`` rows; a row's id is its index
        self.rows: list = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its id."""
        span_id = len(self.rows)
        self.rows.append([name, clock(), None, self._open[-1] if self._open else None])
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.rows[span_id][2] = clock()

    def records(self) -> list[dict]:
        return [
            {"walk": self.walk, "id": i, "name": name, "start": start,
             "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.rows)
        ]


class TracedEngine:
    """Forwards every call to an annealing engine and times the ones the
    annealer makes (``propose``/``commit``/``rollback``/``snapshot`` in
    the loop, ``reset`` after the warm-up) as children of ``parent``.

    Arguments and results pass through untouched, so a traced walk is
    the same walk as an untraced one; the benchmark's determinism check
    compares the two.
    """

    def __init__(self, engine, log: SpanLog, parent: int) -> None:
        self._engine = engine
        self._rows = log.rows
        self._parent = parent

    def propose(self, rng):
        start = clock()
        cost = self._engine.propose(rng)
        self._rows.append(("engine.propose", start, clock(), self._parent))
        return cost

    def commit(self):
        start = clock()
        self._engine.commit()
        self._rows.append(("engine.commit", start, clock(), self._parent))

    def rollback(self):
        start = clock()
        self._engine.rollback()
        self._rows.append(("engine.rollback", start, clock(), self._parent))

    def snapshot(self):
        start = clock()
        state = self._engine.snapshot()
        self._rows.append(("engine.snapshot", start, clock(), self._parent))
        return state

    def reset(self, state):
        start = clock()
        cost = self._engine.reset(state)
        self._rows.append(("engine.reset", start, clock(), self._parent))
        return cost

    def __getattr__(self, name):
        return getattr(self._engine, name)


class LinprogCounter(importlib.abc.MetaPathFinder):
    """Counts calls to ``scipy.optimize.linprog`` without importing scipy.

    Installed on ``sys.meta_path``, it wraps ``linprog`` the moment the
    program first imports ``scipy.optimize``, so an untouched import
    order (and import time) is kept, and a walk that never needs scipy
    never loads it.  A missing scipy still raises in the program.
    """

    def __init__(self) -> None:
        self.calls = 0

    def install(self) -> None:
        sys.meta_path.insert(0, self)

    def find_spec(self, fullname, path, target=None):
        if fullname != "scipy.optimize":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, self)
                sys.meta_path.remove(self)
                return spec
        return None

    def wrap(self, module) -> None:
        linprog = module.linprog

        def counted_linprog(*args, **kwargs):
            self.calls += 1
            return linprog(*args, **kwargs)

        module.linprog = counted_linprog


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, counter: LinprogCounter) -> None:
        self._loader = loader
        self._counter = counter

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._counter.wrap(module)


def self_times(rows: list[dict]) -> dict[int, float]:
    """Span id -> self time (duration minus its children's durations)."""
    child_time: dict[int, float] = defaultdict(float)
    for row in rows:
        if row["parent"] is not None:
            child_time[row["parent"]] += row["end"] - row["start"]
    return {
        row["id"]: row["end"] - row["start"] - child_time[row["id"]]
        for row in rows
    }


def summarize(rows: list[dict]) -> list[tuple[str, int, float, float]]:
    """Per name: (name, calls, total s, self s), summed over all walks."""
    by_walk: dict[int, list[dict]] = defaultdict(list)
    for row in rows:
        by_walk[row["walk"]].append(row)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for walk_rows in by_walk.values():
        selfs = self_times(walk_rows)
        for row in walk_rows:
            calls[row["name"]] += 1
            total[row["name"]] += row["end"] - row["start"]
            own[row["name"]] += selfs[row["id"]]
    return [(name, calls[name], total[name], own[name]) for name in calls]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 placebench/spans.py TRACE.jsonl", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    walks = len({row["walk"] for row in rows})
    print(f"{len(rows)} spans over {walks} walks")
    print(f"{'span':<22} {'calls':>8} {'total s':>10} {'self s':>10}")
    for name, n, total, own in summarize(rows):
        print(f"{name:<22} {n:>8} {total:>10.4f} {own:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
