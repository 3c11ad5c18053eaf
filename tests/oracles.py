"""Reference implementations that exist only to prove fast paths equal them.

Each definition is the straightforward object-tier formulation that a
library fast path replaced; the equivalence tests, and the benchmarks
that measure the tiers against each other, assert that the two agree.
Nothing under ``src/repro`` may import this module
(``tools/check_private_imports.py`` enforces it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Mapping

from repro.anneal import AnnealingResult, AnnealingStats, initial_temperature_from_samples
from repro.bstar import BStarState, BStarTree
from repro.bstar.common_centroid import common_centroid_placement
from repro.bstar.perturb import InPlaceBStarMoves
from repro.circuit import CommonCentroidGroup, SymmetryGroup
from repro.geometry import ModuleSet, Orientation, PlacedModule, Placement, Rect, total_hpwl
from repro.cost import hpwl_of, proximity_satisfied, resolve_nets
from repro.perf import BStarKernel, bounding_of

_ISLAND = "__island__"


# -- contour packing ------------------------------------------------------------


@dataclass(slots=True)
class _Segment:
    x0: float
    x1: float
    y: float


class Contour:
    """Skyline over x >= 0 as a sorted segment list, initially flat at y = 0."""

    def __init__(self) -> None:
        self._segments: list[_Segment] = [_Segment(0.0, float("inf"), 0.0)]

    def reset(self) -> None:
        """Return to the flat initial skyline."""
        del self._segments[1:]
        first = self._segments[0]
        first.x0 = 0.0
        first.x1 = float("inf")
        first.y = 0.0

    def height_over(self, x0: float, x1: float) -> float:
        """Maximum contour height over the open interval (x0, x1)."""
        if x1 <= x0:
            raise ValueError("empty interval")
        best = 0.0
        for seg in self._segments:
            if seg.x1 <= x0:
                continue
            if seg.x0 >= x1:
                break
            best = max(best, seg.y)
        return best

    def place(self, x0: float, x1: float, top: float) -> None:
        """Raise the contour to ``top`` over [x0, x1)."""
        if x1 <= x0:
            raise ValueError("empty interval")
        new_segments: list[_Segment] = []
        for seg in self._segments:
            if seg.x1 <= x0 or seg.x0 >= x1:
                new_segments.append(seg)
                continue
            if seg.x0 < x0:
                new_segments.append(_Segment(seg.x0, x0, seg.y))
            if seg.x1 > x1:
                new_segments.append(_Segment(x1, seg.x1, seg.y))
        new_segments.append(_Segment(x0, x1, top))
        new_segments.sort(key=lambda s: s.x0)
        # merge equal-height neighbors
        merged: list[_Segment] = []
        for seg in new_segments:
            if merged and merged[-1].y == seg.y and merged[-1].x1 == seg.x0:
                merged[-1] = _Segment(merged[-1].x0, seg.x1, seg.y)
            else:
                merged.append(seg)
        self._segments = merged

    def max_height(self) -> float:
        """Highest finite contour point."""
        return max((s.y for s in self._segments), default=0.0)

    def profile(self) -> list[tuple[float, float, float]]:
        """The skyline as (x0, x1, y) triples."""
        return [(s.x0, s.x1, s.y) for s in self._segments]


def pack_sizes(
    tree: BStarTree,
    sizes: Mapping[str, tuple[float, float]],
    contour: Contour | None = None,
) -> dict[str, Rect]:
    """Pack raw (w, h) footprints; returns name -> placed rect.

    Pre-order traversal with an explicit stack (right child pushed
    first): a left child starts at its parent's right edge, a right
    child at its parent's left edge; y is the contour height over the
    module's x span.  Pass a ``contour`` to reuse its storage.
    """
    rects: dict[str, Rect] = {}
    if tree.root is None:
        return rects
    if contour is None:
        contour = Contour()
    else:
        contour.reset()
    stack: list[tuple[str, float]] = [(tree.root, 0.0)]
    while stack:
        name, x = stack.pop()
        w, h = sizes[name]
        y = contour.height_over(x, x + w)
        rects[name] = Rect.from_size(x, y, w, h)
        contour.place(x, x + w, y + h)
        right = tree.right[name]
        if right is not None:
            stack.append((right, x))
        left = tree.left[name]
        if left is not None:
            stack.append((left, x + w))
    return rects


def pack(
    tree: BStarTree,
    modules: ModuleSet,
    orientations: Mapping[str, Orientation] | None = None,
    variants: Mapping[str, int] | None = None,
) -> Placement:
    """Pack a B*-tree over a module set into a :class:`Placement`."""
    orientations = orientations or {}
    variants = variants or {}
    sizes = {
        name: modules[name].footprint(
            variants.get(name, 0), orientations.get(name, Orientation.R0)
        )
        for name in tree.nodes()
    }
    return Placement.of(
        PlacedModule(
            modules[name],
            rect,
            variant=variants.get(name, 0),
            orientation=orientations.get(name, Orientation.R0),
        )
        for name, rect in pack_sizes(tree, sizes).items()
    )


# -- symmetry islands and the HB*-tree forest -----------------------------------


def asf_pack(asf, modules: ModuleSet) -> Placement:
    """The full symmetry island of an ``ASFBStarTree``, mirrored about
    the axis x = 0: every pair partner is its representative's rect
    mirrored, with the representative's variant and its orientation
    mirrored about the y axis."""
    selfsym = set(asf.group.self_symmetric)
    sizes = {}
    for name in asf.tree.nodes():
        w, h = modules[name].footprint(
            asf.variants.get(name, 0), asf.orientations.get(name, Orientation.R0)
        )
        sizes[name] = (w / 2.0 if name in selfsym else w, h)
    placed: list[PlacedModule] = []
    for name, rect in pack_sizes(asf.tree, sizes).items():
        variant = asf.variants.get(name, 0)
        orient = asf.orientations.get(name, Orientation.R0)
        if name in selfsym:
            full = Rect(-rect.width, rect.y0, rect.width, rect.y1)
            placed.append(PlacedModule(modules[name], full, variant, orient))
        else:
            placed.append(PlacedModule(modules[name], rect, variant, orient))
            placed.append(
                PlacedModule(
                    modules[asf.group.sym(name)],
                    rect.mirrored_x(0.0),
                    variant,
                    orient.mirrored_y(),
                )
            )
    return Placement.of(placed)


def hb_pack(hb, state) -> Placement:
    """Pack an ``HBStarTreePlacement`` state level by level through
    intermediate :class:`Placement` objects; normalized to the origin."""
    modules = hb._modules

    def pack_node(node) -> Placement:
        level = state.levels[node.name]
        sub: dict[str, Placement] = {
            child.name: pack_node(child).normalized() for child in node.children
        }
        if isinstance(node.constraint, SymmetryGroup):
            sub[_ISLAND] = asf_pack(level.asf, modules).normalized()
        elif isinstance(node.constraint, CommonCentroidGroup):
            array = common_centroid_placement(
                node.constraint, modules, variant=level.cc_variant
            ).normalized()
            if _ISLAND not in level.tree:
                return array  # the level consists of the array alone
            sub[_ISLAND] = array

        sizes = {}
        for item in level.tree.nodes():
            if item in sub:
                bb = sub[item].bounding_box()
                sizes[item] = (bb.width, bb.height)
            else:
                sizes[item] = modules[item].footprint()
        merged = Placement.empty()
        loose = []
        rects = pack_sizes(level.tree, sizes)
        for item, rect in rects.items():
            if item in sub:
                merged = merged.merged_with(sub[item].translated(rect.x0, rect.y0))
            else:
                loose.append(PlacedModule(modules[item], rect))
        return merged.merged_with(Placement.of(loose)) if loose else merged

    return pack_node(hb._hierarchy).normalized()


# -- functional move set and full-repack engine ---------------------------------


class BStarMoveSet:
    """Random rotate / move / swap / reshape perturbations that clone the
    tree and never mutate their input (op mix and weights of
    :class:`InPlaceBStarMoves`; the move op draws its insert target from
    ``tree.nodes()``, so walks differ draw for draw)."""

    def __init__(self, modules: ModuleSet, *, allow_rotation: bool = True) -> None:
        self._modules = modules
        self._names = list(modules.names())
        self._rotatable = (
            [n for n in self._names if modules[n].rotatable] if allow_rotation else []
        )
        self._soft = [n for n in self._names if len(modules[n].variants) > 1]
        ops = [self._move, self._swap]
        weights = [4.0, 4.0]
        if self._rotatable:
            ops.append(self._rotate)
            weights.append(2.0)
        if self._soft:
            ops.append(self._reshape)
            weights.append(1.5)
        self._ops = ops
        self._weights = weights

    def initial_state(self, rng: random.Random) -> BStarState:
        return BStarState(BStarTree.random(self._names, rng))

    def propose(self, state: BStarState, rng: random.Random) -> BStarState:
        (op,) = rng.choices(self._ops, weights=self._weights, k=1)
        return op(state, rng)

    def _move(self, state: BStarState, rng: random.Random) -> BStarState:
        if len(self._names) < 2:
            return state
        tree = state.tree.clone()
        name = rng.choice(self._names)
        tree.remove(name)
        parent = rng.choice(list(tree.nodes()))
        tree.insert(name, parent, rng.choice(("left", "right")))
        return replace(state, tree=tree)

    def _swap(self, state: BStarState, rng: random.Random) -> BStarState:
        if len(self._names) < 2:
            return state
        a, b = rng.sample(self._names, 2)
        tree = state.tree.clone()
        tree.swap_nodes(a, b)
        return replace(state, tree=tree)

    def _rotate(self, state: BStarState, rng: random.Random) -> BStarState:
        name = rng.choice(self._rotatable)
        orientations = dict(state.orientations)
        current = orientations.get(name, Orientation.R0)
        orientations[name] = Orientation.R90 if current == Orientation.R0 else Orientation.R0
        return replace(state, orientations=orientations)

    def _reshape(self, state: BStarState, rng: random.Random) -> BStarState:
        name = rng.choice(self._soft)
        variants = dict(state.variants)
        variants[name] = rng.randrange(len(self._modules[name].variants))
        return replace(state, variants=variants)


class FullRepackBStarEngine:
    """The incremental engine's protocol and random draws, evaluated by
    a full repack and a full net rescan on every proposal.

    Both engines draw from :class:`InPlaceBStarMoves`, so equal seeds
    give the *same annealing walk*: incremental evaluation changes
    speed, not answers.
    """

    def __init__(self, modules, nets=(), proximity=(), config=None, *, allow_rotation=True):
        if config is None:
            raise ValueError("FullRepackBStarEngine requires a cost config")
        self._moves = InPlaceBStarMoves(modules, allow_rotation=allow_rotation)
        self._kernel = BStarKernel(modules, nets, proximity, config)
        self._tree = None
        self._orients: dict[str, Orientation] = {}
        self._variants: dict[str, int] = {}
        self._cost = math.inf
        self._pending_cost = math.inf
        self._rec = None

    def initial_state(self, rng: random.Random) -> BStarState:
        return self._moves.initial_state(rng)

    def reset(self, state: BStarState) -> float:
        self._tree = state.tree.clone()
        self._orients = dict(state.orientations)
        self._variants = dict(state.variants)
        self._cost = self._kernel.cost(self._tree, self._orients, self._variants)
        return self._cost

    def initial_cost(self) -> float:
        return self._cost

    def propose(self, rng: random.Random) -> float:
        self._rec = self._moves.apply(self._tree, self._orients, self._variants, rng)
        self._pending_cost = self._kernel.cost(self._tree, self._orients, self._variants)
        return self._pending_cost

    def commit(self) -> None:
        self._cost = self._pending_cost
        self._rec = None

    def rollback(self) -> None:
        self._moves.undo(self._tree, self._orients, self._variants, self._rec)
        self._rec = None

    def snapshot(self) -> BStarState:
        return BStarState(
            tree=self._tree.clone(),
            orientations=dict(self._orients),
            variants=dict(self._variants),
        )


# -- annealing loop -------------------------------------------------------------


def functional_anneal(cost, propose, initial, schedule, rng) -> AnnealingResult:
    """Simulated annealing over immutable states (Kirkpatrick et al.).

    ``propose(state, rng)`` returns a new state.  A discarded 32-move
    warmup walk rescales the schedule's temperatures from its uphill
    deltas; every step then draws one proposal and, for an uphill move,
    one acceptance number.
    """
    current, current_cost = initial, cost(initial)
    best, best_cost = current, current_cost
    stats = AnnealingStats(initial_cost=current_cost)
    deltas = []
    state, state_cost = current, current_cost
    for _ in range(32):
        state = propose(state, rng)
        next_cost = cost(state)
        deltas.append(next_cost - state_cost)
        state_cost = next_cost
    t_scale = initial_temperature_from_samples(deltas) / schedule.temperature(0)
    for step in range(schedule.total_steps):
        temperature = schedule.temperature(step) * t_scale
        candidate = propose(current, rng)
        candidate_cost = cost(candidate)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-300)):
            current, current_cost = candidate, candidate_cost
            stats.accepted += 1
            if current_cost < best_cost:
                best, best_cost = current, current_cost
                stats.improved += 1
    return AnnealingResult(best_state=best, best_cost=best_cost, stats=stats)


# -- cost ---------------------------------------------------------------------


def object_cost(modules, nets, proximity, config):
    """The B*-tree placers' cost over a :class:`Placement`, as computed
    before the unified :class:`repro.cost.CostModel`: area, HPWL and
    aspect terms under ``config``'s weights, plus the proximity weight
    per unsatisfied group, in that accumulation order."""
    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def cost(placement: Placement) -> float:
        bb = placement.bounding_box()
        total = config.area_weight * bb.area / area_scale
        if nets and config.wirelength_weight:
            total += config.wirelength_weight * total_hpwl(nets, placement) / wl_scale
        if config.aspect_weight and bb.width > 0 and bb.height > 0:
            ratio = bb.height / bb.width
            deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
            total += config.aspect_weight * max(0.0, deviation - 1.0)
        if config.proximity_weight:
            for group in proximity:
                if not group.is_satisfied(placement):
                    total += config.proximity_weight
        return total

    return cost


def flat_cost(modules, nets, proximity, config):
    """:func:`object_cost` over a flat coordinate table, as the flat
    kernel computed it before the unified :class:`repro.cost.CostModel`
    (bounding box by one scan, HPWL over pre-resolved nets)."""
    resolved = resolve_nets(nets, modules.names())
    area_scale = max(modules.total_module_area(), 1e-12)
    wl_scale = max(area_scale**0.5 * max(len(nets), 1), 1e-12)

    def evaluate(coords) -> float:
        bx0, by0, bx1, by1 = bounding_of(coords.values())
        width = bx1 - bx0
        height = by1 - by0
        cost = config.area_weight * (width * height) / area_scale
        if nets and config.wirelength_weight:
            cost += config.wirelength_weight * hpwl_of(resolved, coords) / wl_scale
        if config.aspect_weight and width > 0 and height > 0:
            ratio = height / width
            deviation = max(ratio, 1.0 / ratio) / max(config.target_aspect, 1e-12)
            cost += config.aspect_weight * max(0.0, deviation - 1.0)
        if config.proximity_weight:
            for group in proximity:
                if not proximity_satisfied(group, coords):
                    cost += config.proximity_weight
        return cost

    return evaluate


# -- proximity connectivity -----------------------------------------------------


def rects_connected_rects(rects: list[Rect], gap: float) -> bool:
    """Union-find connectivity of :class:`Rect` objects under ``gap``:
    adjacency is ``a.inflated(gap / 2).overlaps(b.inflated(gap / 2),
    strict=False)`` (the original, allocating formulation of
    :func:`repro.circuit.constraints.rects_connected`)."""
    n = len(rects)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i in range(n):
        gi = rects[i].inflated(gap / 2.0)
        for j in range(i + 1, n):
            if gi.overlaps(rects[j].inflated(gap / 2.0), strict=False):
                union(i, j)
    root = find(0)
    return all(find(i) == root for i in range(n))
