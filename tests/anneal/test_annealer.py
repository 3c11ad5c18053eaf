"""Tests for the generic annealing engine: the one annealing loop,
:class:`IncrementalAnnealer`, driving functional moves through the
:class:`StateEngine` adapter."""

import random

from repro.anneal import (
    FunctionMoveSet,
    GeometricSchedule,
    IncrementalAnnealer,
    StateEngine,
)


def quadratic_cost(x: float) -> float:
    return (x - 3.0) ** 2


def gaussian_step(x: float, rng: random.Random) -> float:
    return x + rng.gauss(0.0, 0.5)


def anneal(initial, cost=quadratic_cost, schedule=None, rng=None, **kwargs):
    engine = StateEngine(cost, FunctionMoveSet(gaussian_step), initial)
    return IncrementalAnnealer(engine, schedule, rng, **kwargs).run()


class TestAnnealer:
    def test_optimizes_quadratic(self):
        result = anneal(
            20.0,
            schedule=GeometricSchedule(
                t_initial=1.0, t_final=1e-5, alpha=0.9, steps_per_epoch=50
            ),
            rng=random.Random(0),
        )
        assert abs(result.best_state - 3.0) < 0.5
        assert result.best_cost < 0.25

    def test_best_never_worse_than_initial(self):
        result = anneal(10.0, rng=random.Random(1))
        assert result.best_cost <= quadratic_cost(10.0)

    def test_deterministic_given_seed(self):
        def run(seed):
            return anneal(
                5.0,
                schedule=GeometricSchedule(t_final=0.01, steps_per_epoch=10),
                rng=random.Random(seed),
            )

        a, b = run(42), run(42)
        assert a.best_state == b.best_state
        assert a.best_cost == b.best_cost

    def test_stats_counters(self):
        schedule = GeometricSchedule(t_final=0.01, steps_per_epoch=10)
        result = anneal(5.0, schedule=schedule, rng=random.Random(2))
        stats = result.stats
        assert stats.steps == schedule.total_steps
        assert 0 < stats.accepted <= stats.steps
        assert 0.0 < stats.acceptance_ratio <= 1.0
        assert stats.best_cost == result.best_cost

    def test_trace(self):
        result = anneal(
            5.0,
            schedule=GeometricSchedule(t_final=0.1, steps_per_epoch=10),
            rng=random.Random(3),
            trace_every=10,
        )
        assert len(result.stats.cost_trace) > 0

    def test_handles_infinite_cost_moves(self):
        def cost(x):
            return float("inf") if x < 0 else x

        result = anneal(2.0, cost=cost, rng=random.Random(4), auto_t0=False)
        assert result.best_cost < 2.0
        assert result.best_state >= 0
