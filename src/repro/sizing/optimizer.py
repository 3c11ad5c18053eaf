"""Simulation-based sizing optimization.

Section V: "the electrical sizing process is carried out by using a
simulation-based optimization approach ... thousands of different
circuit sizings are evaluated."  The optimizer is simulated annealing
over the sizing vector; the cost is a spec-penalty plus the design
objectives (power always; area and aspect ratio when the flow is
geometry-aware).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..anneal import FunctionMoveSet, GeometricSchedule, IncrementalAnnealer, StateEngine
from .amplifier import CONTINUOUS_BOUNDS, FOLD_BOUNDS, FoldedCascodeSizing
from .parasitics import Parasitics, extract
from .performance import Performance, evaluate
from .specs import SpecSet
from .template import TemplateLayout, generate_layout


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimization parameters shared by both Fig.-10 flows."""

    seed: int = 0
    iterations_scale: int = 1  # multiplies the schedule length
    spec_weight: float = 60.0
    power_weight: float = 0.12
    area_weight: float = 0.0       # > 0 only in the geometry-aware flow
    aspect_weight: float = 0.0     # > 0 only in the geometry-aware flow
    target_aspect: float = 1.0
    t_initial: float = 1.0
    t_final: float = 5e-4
    alpha: float = 0.92
    steps_per_epoch: int = 80


@dataclass
class SizingOutcome:
    """Result of one optimization run."""

    sizing: FoldedCascodeSizing
    performance: Performance
    cost: float
    evaluations: int
    runtime_s: float
    extraction_s: float

    @property
    def extraction_fraction(self) -> float:
        """Share of runtime spent in parasitic extraction (the paper
        reports about 17% for cells of this size)."""
        return self.extraction_s / self.runtime_s if self.runtime_s else 0.0


class SizingOptimizer:
    """Anneal the sizing vector against a spec set.

    ``use_parasitics`` turns on in-loop layout generation + extraction
    (the parasitic-aware technique); ``use_geometry`` adds the folding
    factors to the move set and area/aspect terms to the cost (the
    geometrically-constrained technique).  The plain electrical flow of
    Fig. 10(a) uses neither.
    """

    def __init__(
        self,
        specs: SpecSet,
        config: OptimizerConfig | None = None,
        *,
        use_parasitics: bool,
        use_geometry: bool,
    ) -> None:
        self._specs = specs
        self._config = config or OptimizerConfig()
        self._use_parasitics = use_parasitics
        self._use_geometry = use_geometry
        self._evaluations = 0
        self._extraction_s = 0.0
        # Normalization for the area objective (µm²).
        self._area_scale = 40_000.0

    # -- evaluation ----------------------------------------------------------------

    def _layout_and_parasitics(
        self, sizing: FoldedCascodeSizing
    ) -> tuple[TemplateLayout, Parasitics]:
        start = time.perf_counter()
        layout = generate_layout(sizing)
        parasitics = extract(sizing, layout)
        self._extraction_s += time.perf_counter() - start
        return layout, parasitics

    def cost(self, sizing: FoldedCascodeSizing) -> float:
        cfg = self._config
        self._evaluations += 1
        layout: TemplateLayout | None = None
        if self._use_parasitics or self._use_geometry:
            layout, parasitics = self._layout_and_parasitics(sizing)
            perf = evaluate(sizing, parasitics if self._use_parasitics else None)
        else:
            perf = evaluate(sizing, None)
        cost = cfg.spec_weight * self._specs.penalty(perf.as_dict())
        cost += cfg.power_weight * perf.power_mw
        if self._use_geometry and layout is not None:
            if cfg.area_weight:
                cost += cfg.area_weight * layout.area / self._area_scale
            if cfg.aspect_weight:
                ratio = layout.aspect_ratio
                skew = max(ratio, 1.0 / ratio) / cfg.target_aspect
                cost += cfg.aspect_weight * max(0.0, skew - 1.0)
        return cost

    # -- moves ------------------------------------------------------------------

    def _propose(self, sizing: FoldedCascodeSizing, rng: random.Random) -> FoldedCascodeSizing:
        names = list(CONTINUOUS_BOUNDS)
        if self._use_geometry:
            names += list(FOLD_BOUNDS)
        name = rng.choice(names)
        if name in CONTINUOUS_BOUNDS:
            value = getattr(sizing, name) * math.exp(rng.gauss(0.0, 0.18))
            return sizing.with_values({name: value})
        step = rng.choice((-2, -1, 1, 2))
        return sizing.with_values({name: getattr(sizing, name) + step})

    # -- run --------------------------------------------------------------------

    def run(
        self, initial: FoldedCascodeSizing | None = None
    ) -> SizingOutcome:
        cfg = self._config
        rng = random.Random(cfg.seed)
        self._evaluations = 0
        self._extraction_s = 0.0
        start = time.perf_counter()

        schedule = GeometricSchedule(
            t_initial=cfg.t_initial,
            t_final=cfg.t_final,
            alpha=cfg.alpha,
            steps_per_epoch=cfg.steps_per_epoch * cfg.iterations_scale,
        )
        engine = StateEngine(
            self.cost,
            FunctionMoveSet(self._propose),
            (initial or FoldedCascodeSizing()).clamped(),
        )
        outcome = IncrementalAnnealer(engine, schedule, rng).run()
        runtime = time.perf_counter() - start

        best = outcome.best_state
        if self._use_parasitics:
            _, parasitics = self._layout_and_parasitics(best)
            perf = evaluate(best, parasitics)
        else:
            perf = evaluate(best, None)
        return SizingOutcome(
            sizing=best,
            performance=perf,
            cost=outcome.best_cost,
            evaluations=self._evaluations,
            runtime_s=runtime,
            extraction_s=self._extraction_s,
        )
