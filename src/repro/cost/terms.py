"""The cost-term catalog: pluggable objectives for placement annealing.

A :class:`CostTerm` is one weighted component of a placement objective.
Terms are *declarative* — each carries its name, weight and whatever
precomputed scales it needs — and a :class:`~repro.cost.CostModel` is
nothing but an ordered tuple of them.  Two evaluation tiers:

* **full** — :meth:`CostTerm.accumulate` folds the term into a running
  total given a flat coordinate table (plus optional precomputed
  inputs: the bounding box, an explicit area, the incremental HPWL
  total, the rich placement for boundary-tier terms);
* **delta** — a term that can be maintained incrementally returns a
  stateful helper from :meth:`CostTerm.delta` (today:
  :class:`HPWLTerm` -> :class:`~repro.cost.DeltaHPWL`); stateless terms
  return ``None`` and are simply recomputed, which is exact and — for
  area/aspect off a maintained bounding box — already O(1).
  :class:`ProximityTerm` is recomputed too, but remembers each group's
  last member coordinates and verdict, so only groups with a moved
  member run the connectivity check.

Nothing here allocates geometry objects: coordinates stay ``(x0, y0,
x1, y1)`` tuples, and proximity connectivity is the tuple
:func:`~repro.circuit.constraints.rects_connected` shared with
:meth:`ProximityGroup.is_satisfied`.

Bit-identity contract
=====================

``accumulate`` must reproduce the float operations of the legacy
per-placer objectives *operation for operation* (same multiplies, same
divides, same accumulation order), so that a model built from these
terms anneals the exact trajectories the placer-private cost code did.
That is why ``accumulate`` folds into the running total instead of
returning a contribution to be summed: :class:`ProximityTerm` adds its
weight once per unsatisfied group — separate additions, exactly like
the legacy loop — which is *not* the same float as adding
``weight * count`` in one step.  ``tests/cost/`` locks all of this
property-style against replicas of the legacy formulas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..circuit.constraints import ConstraintSet, ProximityGroup
from .hpwl import DeltaHPWL, hpwl_of, resolve_nets

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..geometry import Net, Placement
    from ..perf.coords import Coords

#: bounding box of an empty coordinate table (degenerate at the origin)
EMPTY_BOUNDING = (0.0, 0.0, 0.0, 0.0)


def _member_coords(
    group: ProximityGroup, coords: Coords
) -> tuple[tuple[float, float, float, float], ...]:
    """The placed members' coordinate tuples, in member order."""
    return tuple(coords[m] for m in group.members_ if m in coords)


def proximity_satisfied(group: ProximityGroup, coords: Coords, *, tol: float = 1e-6) -> bool:
    """Coordinate-table twin of :meth:`ProximityGroup.is_satisfied`."""
    return group.connects(_member_coords(group, coords), tol=tol)


class CostTerm:
    """One weighted component of a placement objective.

    Subclasses implement :meth:`accumulate`; everything else (naming,
    activity gating, delta support, description) has shared defaults.
    ``accumulate`` receives positional inputs so the hot loop pays no
    keyword overhead:

    ``coords``
        flat ``name -> (x0, y0, x1, y1)`` table (may be empty for
        area-only evaluations that pass ``area`` explicitly);
    ``hpwl``
        incrementally maintained weighted-HPWL total, or ``None``
        (terms that consume it must recompute when absent);
    ``bounding``
        ``(x0, y0, x1, y1)`` of the whole table, or ``None`` when no
        term in the model asked for it;
    ``area``
        explicit chip area overriding the bounding-box product (the
        slicing placer scores the selected shape's area);
    ``placement``
        rich :class:`~repro.geometry.Placement` for boundary-tier terms
        (:class:`ViolationTerm`); ``None`` inside annealing hot loops.
    """

    #: how the term consumes the model-level bounding box:
    #: ``None`` (never), ``"area"`` (only when no explicit area is
    #: given) or ``"always"`` (whenever the term is active)
    bounding_role: str | None = None

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight

    @property
    def active(self) -> bool:
        """Whether the term contributes at all (legacy gating parity:
        a zero weight skips the term's arithmetic entirely)."""
        return bool(self.weight)

    def accumulate(
        self,
        total: float,
        coords: Coords,
        hpwl: float | None,
        bounding: tuple[float, float, float, float] | None,
        area: float | None,
        placement: Placement | None,
    ) -> float:
        """Fold this term into ``total`` and return the new total."""
        raise NotImplementedError

    def contribution(
        self,
        coords: Coords,
        hpwl: float | None = None,
        bounding: tuple[float, float, float, float] | None = None,
        area: float | None = None,
        placement: Placement | None = None,
    ) -> float:
        """This term's weighted contribution in isolation (reporting
        tier; totals are always produced by :meth:`accumulate`)."""
        return self.accumulate(0.0, coords, hpwl, bounding, area, placement)

    def delta(self) -> DeltaHPWL | None:
        """A fresh incremental helper, or ``None`` for stateless terms."""
        return None

    def describe(self) -> str:
        """One-line term description for reports and ``docs/cost.md``."""
        return f"{self.name} (weight {self.weight:g})"


class AreaTerm(CostTerm):
    """Chip area of the bounding box, normalized by total module area.

    ``weight * (width * height) / area_scale`` — or, when an explicit
    ``area`` is supplied (slicing scores the Stockmeyer-selected shape,
    not the union of blocks), ``weight * area / area_scale``.
    """

    bounding_role = "area"

    def __init__(self, weight: float, area_scale: float) -> None:
        super().__init__("area", weight)
        self.area_scale = area_scale

    @property
    def active(self) -> bool:
        # legacy parity: every placer computes its area term
        # unconditionally (a zero weight still multiplies through)
        return True

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if area is None:
            bx0, by0, bx1, by1 = bounding
            area = (bx1 - bx0) * (by1 - by0)
        return total + self.weight * area / self.area_scale


class HPWLTerm(CostTerm):
    """Weighted half-perimeter wirelength over module centers.

    Nets are resolved against the placeable names once; the scale is
    ``sqrt(area_scale) * net count`` so the weight stays
    size-independent.  Full evaluation is :func:`~repro.cost.hpwl_of`;
    the delta path is :class:`~repro.cost.DeltaHPWL`, handed in by the
    engines as the maintained ``hpwl`` input.
    """

    def __init__(
        self,
        weight: float,
        nets: tuple[Net, ...],
        names: Sequence[str],
        area_scale: float,
    ) -> None:
        super().__init__("wirelength", weight)
        nets = tuple(nets)
        self._names = tuple(names)
        self._has_nets = bool(nets)
        self.resolved = resolve_nets(nets, self._names)
        self.wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    @property
    def active(self) -> bool:
        # legacy gate: `if nets and cfg.wirelength_weight:`
        return self._has_nets and bool(self.weight)

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if not (self._has_nets and self.weight):
            return total
        if hpwl is None:
            hpwl = hpwl_of(self.resolved, coords)
        return total + self.weight * hpwl / self.wl_scale

    def delta(self) -> DeltaHPWL:
        """A fresh per-net incremental HPWL cache for this term's nets."""
        return DeltaHPWL(self.resolved, self._names)


class AspectTerm(CostTerm):
    """Penalty for deviating from a target aspect ratio.

    ``weight * max(0, max(h/w, w/h) / target - 1)`` over the bounding
    box; inactive on degenerate (zero-extent) boxes.
    """

    bounding_role = "always"

    def __init__(self, weight: float, target_aspect: float = 1.0) -> None:
        super().__init__("aspect", weight)
        self.target_aspect = target_aspect

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if not self.weight:
            return total
        bx0, by0, bx1, by1 = bounding
        width = bx1 - bx0
        height = by1 - by0
        if width > 0 and height > 0:
            ratio = height / width
            deviation = max(ratio, 1.0 / ratio) / max(self.target_aspect, 1e-12)
            total = total + self.weight * max(0.0, deviation - 1.0)
        return total


class ProximityTerm(CostTerm):
    """Flat penalty per unsatisfied proximity group.

    Adds ``weight`` once per group whose members do not form a single
    connected cluster — separate additions in group order, replicating
    the legacy accumulation bit for bit.

    Connectivity is a pure function of the members' coordinates, so
    each group remembers the member tuples it was last checked on and
    its verdict: a group none of whose members moved since is not
    re-checked.  The memo holds one entry per group (it is overwritten,
    never grown) and is keyed by value, so it stays valid whatever
    sequence of proposals, commits and rollbacks produced the table.
    """

    def __init__(self, weight: float, groups: tuple[ProximityGroup, ...]) -> None:
        super().__init__("proximity", weight)
        self.groups = tuple(groups)
        # group index -> (member coords last checked, satisfied?)
        self._seen: list[tuple[tuple, bool] | None] = [None] * len(self.groups)

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if self.weight:
            seen = self._seen
            for i, group in enumerate(self.groups):
                rects = _member_coords(group, coords)
                last = seen[i]
                if last is not None and last[0] == rects:
                    satisfied = last[1]
                else:
                    satisfied = group.connects(rects)
                    seen[i] = (rects, satisfied)
                if not satisfied:
                    total += self.weight
        return total


class OutlineTerm(CostTerm):
    """Penalty for spilling over a fixed die outline.

    ``weight * (max(0, w - W)/W + max(0, h - H)/H)`` for an outline of
    ``W x H`` — zero whenever the packing fits.  Not part of any
    placer's default objective (the paper's flow is outline-free); add
    it to a model to run fixed-outline floorplanning experiments.
    """

    bounding_role = "always"

    def __init__(self, weight: float, outline: tuple[float, float]) -> None:
        super().__init__("outline", weight)
        width, height = outline
        if width <= 0 or height <= 0:
            raise ValueError(f"outline must be positive, got {outline!r}")
        self.outline = (float(width), float(height))

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if not self.weight:
            return total
        bx0, by0, bx1, by1 = bounding
        max_w, max_h = self.outline
        excess = max(0.0, (bx1 - bx0) - max_w) / max_w + max(
            0.0, (by1 - by0) - max_h
        ) / max_h
        return total + self.weight * excess


class ViolationTerm(CostTerm):
    """Flat penalty per violated layout constraint (boundary tier).

    Charges ``weight * len(constraints.violations(placement))`` —
    symmetry, common-centroid and proximity groups alike — so engines
    that ignore constraint classes by construction cannot outrank a
    constraint-clean placement on raw compactness.  Needs the rich
    :class:`~repro.geometry.Placement` (constraint validators measure
    axes and centroids), so it belongs in boundary-tier models like
    :func:`~repro.cost.reference_model`, never in an annealing hot
    loop.
    """

    def __init__(self, weight: float, constraints: ConstraintSet) -> None:
        super().__init__("violations", weight)
        self.constraints = constraints

    def accumulate(self, total, coords, hpwl, bounding, area, placement):
        if not self.weight:
            return total
        if placement is None:
            raise ValueError(
                "the 'violations' term needs a rich Placement: evaluate "
                "through CostModel.evaluate_placement(), not over raw coords"
            )
        return total + self.weight * len(self.constraints.violations(placement))
