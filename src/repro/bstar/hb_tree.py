"""Hierarchical B*-trees (Lin & Lin [17], paper section III-B).

An HB*-tree models the floorplan of one hierarchy level; *hierarchy
nodes* inside it stand for whole sub-circuits whose internal floorplan
is modelled by their own HB*-tree.  "The number of HB*-trees will be
equal to that of the sub-circuits plus the one modelling the top
design."  Perturbation picks one tree of the forest and applies a
B*-tree operation to it; packing is a recursive pre-order traversal.

Constraint handling per hierarchy node (Fig. 5):

* **symmetry** — the group members form an ASF-B*-tree symmetry island,
  which enters the level tree as a single block;
* **common-centroid** — the unit array comes from the deterministic
  interdigitation generator; its grid variant is the annealable choice;
* **proximity** — the node's members are packed in their own level tree,
  so they stay together; connectivity is additionally rewarded in the
  placer cost;
* **plain** — an ordinary B*-tree over the node's modules and sub-blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping

from ..circuit import (
    CommonCentroidGroup,
    HierarchyNode,
    SymmetryGroup,
)
from ..geometry import ModuleSet, Orientation, Placement
from ..perf.coords import (
    Coords,
    bounding_of,
    coords_to_placement,
    normalize_bounded,
    placement_to_coords,
)
from ..perf.kernel import Skyline, pack_tree_coords
from .asf import ASFBStarTree, ASFMoveSet
from .common_centroid import common_centroid_placement, n_variants
from .tree import BStarTree


_ISLAND = "__island__"

#: a normalized subtree coordinate table and its ``(width, height)``
Subtree = tuple[Coords, tuple[float, float]]


@dataclass(frozen=True)
class LevelState:
    """Annealing state of one hierarchy level.

    ``tree`` spans the level's *items*: plain module names, child
    hierarchy-node names, and (when the level carries a symmetry
    constraint) the pseudo-item ``__island__`` for the ASF block.
    ``asf`` / ``cc_variant`` hold the constraint sub-states.
    """

    tree: BStarTree = field(compare=False)
    asf: ASFBStarTree | None = None
    cc_variant: int = 0


@dataclass(frozen=True)
class HBState:
    """The whole forest: hierarchy-node name -> level state."""

    levels: Mapping[str, LevelState]


class HBStarTreePlacement:
    """Recursive packer and move generator for a design hierarchy."""

    def __init__(self, hierarchy: HierarchyNode, modules: ModuleSet) -> None:
        hierarchy.validate()
        self._hierarchy = hierarchy
        self._modules = modules
        self._nodes: dict[str, HierarchyNode] = {n.name: n for n in hierarchy.walk()}
        self._asf_moves: dict[str, ASFMoveSet] = {}
        # Levels pack strictly bottom-up, so one reusable skyline serves
        # every level of every coordinate-tier pack.
        self._skyline = Skyline()
        # node name -> normalized common-centroid array per grid variant:
        # an array is a pure function of (group, variant), and a group
        # has at most two variants, so all are built once, up front
        self._cc_arrays: dict[str, tuple[Subtree, ...]] = {}
        for node in hierarchy.walk():
            if isinstance(node.constraint, SymmetryGroup):
                self._asf_moves[node.name] = ASFMoveSet(modules, node.constraint)
            elif isinstance(node.constraint, CommonCentroidGroup):
                arrays = []
                for variant in range(n_variants(node.constraint)):
                    coords = placement_to_coords(
                        common_centroid_placement(node.constraint, modules, variant=variant)
                    )
                    arrays.append(normalize_bounded(coords, bounding_of(coords.values())))
                self._cc_arrays[node.name] = tuple(arrays)

    # -- level items -------------------------------------------------------------

    def level_items(self, node: HierarchyNode) -> list[str]:
        """Names packed by the level tree of ``node``."""
        items = [child.name for child in node.children]
        if isinstance(node.constraint, SymmetryGroup):
            members = node.constraint.member_set()
            items += [m.name for m in node.modules if m.name not in members]
            items.append(_ISLAND)
        elif isinstance(node.constraint, CommonCentroidGroup):
            members = node.constraint.member_set()
            extra = [m.name for m in node.modules if m.name not in members]
            if extra:
                items += extra
                items.append(_ISLAND)  # the unit array enters as one block
            else:
                items = [_ISLAND] + items
        else:
            items += [m.name for m in node.modules]
        return items

    # -- initial state -----------------------------------------------------------

    def initial_state(self, rng: random.Random) -> HBState:
        levels: dict[str, LevelState] = {}
        for name, node in self._nodes.items():
            tree = BStarTree.random(self.level_items(node), rng)
            asf = None
            if isinstance(node.constraint, SymmetryGroup):
                asf = self._asf_moves[name].initial_state(rng)
            levels[name] = LevelState(tree=tree, asf=asf)
        return HBState(levels=levels)

    # -- packing ------------------------------------------------------------------

    def pack(self, state: HBState) -> Placement:
        """Pack the full hierarchy; the result is normalized to origin.

        Island members carry their ASF orientation and variant (see
        :meth:`ASFBStarTree.island_overrides`); every other module is
        placed as variant 0, R0.
        """
        orientations: dict[str, Orientation] = {}
        variants: dict[str, int] = {}
        for level in state.levels.values():
            if level.asf is not None:
                island_orients, island_variants = level.asf.island_overrides()
                orientations.update(island_orients)
                variants.update(island_variants)
        return coords_to_placement(
            self.pack_coords(state), self._modules, orientations, variants
        )

    def pack_coords(self, state: HBState) -> Coords:
        """The full hierarchy as a coordinate table normalized to origin.

        Packs bottom-up: every level packs its items with
        :func:`~repro.perf.kernel.pack_tree_coords` on the shared
        skyline, and child subtrees, symmetry islands and
        common-centroid arrays enter their parent level as normalized
        coordinate tables, so no intermediate ``Placement`` is built.
        """
        return self._pack_node_coords(self._hierarchy, state)[0]

    def _pack_node_coords(self, node: HierarchyNode, state: HBState) -> Subtree:
        sub: dict[str, Subtree] = {}
        for child in node.children:
            sub[child.name] = self._pack_node_coords(child, state)
        return self.pack_level_coords(node, state, sub)

    def pack_level_coords(
        self,
        node: HierarchyNode,
        state: HBState,
        sub: dict[str, Subtree],
    ) -> Subtree:
        """Pack one hierarchy level given its children's subtrees.

        ``sub`` maps child hierarchy-node names to their normalized
        subtree tables with the tables' ``(width, height)`` — exactly
        what this method returns, so the recursion (and the incremental
        engine, which feeds cached children without re-descending
        unchanged subtrees) never rescans a child table.  Constraint
        blocks (symmetry island / common-centroid array) are added here.

        The level's bounding box is that of its packed items: a child
        table is anchored at the origin with extent ``(w, h)``, so its
        translated entries span exactly the item rectangle
        ``(x, y, x + w, y + h)`` the level tree packed it into.
        """
        level = state.levels[node.name]

        if isinstance(node.constraint, SymmetryGroup):
            sub[_ISLAND] = level.asf.pack_coords(self._modules, self._skyline)
        elif isinstance(node.constraint, CommonCentroidGroup):
            array = self._cc_arrays[node.name][level.cc_variant]
            if _ISLAND in level.tree:
                sub[_ISLAND] = array
            else:
                # The level consists of the array alone.
                return array

        sizes: dict[str, tuple[float, float]] = {}
        for item in level.tree.nodes():
            inner = sub.get(item)
            if inner is not None:
                sizes[item] = inner[1]
            else:
                sizes[item] = self._modules[item].footprint()
        rects = pack_tree_coords(level.tree, sizes, self._skyline)

        out: Coords = {}
        for item, rect in rects.items():
            inner = sub.get(item)
            if inner is not None:
                dx, dy = rect[0], rect[1]
                for name, (a, b, c, d) in inner[0].items():
                    out[name] = (a + dx, b + dy, c + dx, d + dy)
            else:
                out[item] = rect
        return normalize_bounded(out, bounding_of(rects.values()))

    # -- perturbation ------------------------------------------------------------

    def propose_level(
        self, state: HBState, rng: random.Random
    ) -> tuple[str, LevelState | None]:
        """Draw one level perturbation: ``(level name, new level state)``.

        Returns ``(name, None)`` when the selected level has no legal
        move.  The draw sequence is shared by :meth:`propose` and the
        incremental engine, so both walk the same trajectory for a
        given rng.
        """
        name = rng.choice(list(self._nodes))
        node = self._nodes[name]
        level = state.levels[name]

        choices = []
        if len(level.tree) >= 2:
            choices.append("tree")
        if level.asf is not None and (node.constraint.pairs or len(node.constraint.self_symmetric) > 1):
            choices.append("asf")
        if isinstance(node.constraint, CommonCentroidGroup) and n_variants(node.constraint) > 1:
            choices.append("cc")
        if not choices:
            return name, None
        kind = rng.choice(choices)

        if kind == "tree":
            new_level = replace(level, tree=self._perturb_tree(level.tree, rng))
        elif kind == "asf":
            new_level = replace(level, asf=self._asf_moves[name].propose(level.asf, rng))
        else:
            new_level = replace(
                level,
                cc_variant=(level.cc_variant + 1) % n_variants(node.constraint),
            )
        return name, new_level

    def propose(self, state: HBState, rng: random.Random) -> HBState:
        """Perturb one randomly selected tree of the forest (section III-B:
        'one of the HB*-trees should be selected first')."""
        name, new_level = self.propose_level(state, rng)
        if new_level is None:
            return state
        levels = dict(state.levels)
        levels[name] = new_level
        return HBState(levels=levels)

    @staticmethod
    def _perturb_tree(tree: BStarTree, rng: random.Random) -> BStarTree:
        names = list(tree.nodes())
        out = tree.clone()
        if len(names) < 2:
            return out
        if rng.random() < 0.5:
            a, b = rng.sample(names, 2)
            out.swap_nodes(a, b)
        else:
            name = rng.choice(names)
            out.remove(name)
            parent = rng.choice(list(out.nodes()))
            out.insert(name, parent, rng.choice(("left", "right")))
        return out


class HBIncrementalEngine:
    """Incremental propose/commit/rollback engine for the HB*-tree forest.

    Implements the :class:`repro.anneal.IncrementalEngine` protocol.  A
    perturbation touches exactly one level, so only the path from that
    level to the hierarchy root needs repacking: every other node's
    subtree coordinates are served from a cache of normalized tables,
    each stored with its ``(width, height)`` so neither a parent level
    nor the cost model ever rescans a table for its bounding box.  The
    merged root table is then diffed module-by-module against the
    last committed placement by the unified model's
    :class:`~repro.cost.CostEvaluator`, whose
    :class:`~repro.cost.DeltaHPWL` rescans only the nets of modules
    that actually moved.  Costs — and, for equal seeds, whole annealing
    trajectories — are bit-identical to the non-cached
    ``model(hb.pack_coords(state))`` path (see ``tests/perf/``).
    """

    def __init__(
        self,
        hb: HBStarTreePlacement,
        modules: ModuleSet,
        nets=(),
        proximity=(),
        config=None,
    ) -> None:
        if config is None:
            raise ValueError("HBIncrementalEngine requires a cost config")
        from ..cost import model_for_config

        self._hb = hb
        self._eval = model_for_config(modules, nets, proximity, config).evaluator()
        # hierarchy-node name -> parent name, for dirty-path invalidation
        self._parents: dict[str, str | None] = {hb._hierarchy.name: None}
        for node in hb._hierarchy.walk():
            for child in node.children:
                self._parents[child.name] = node.name
        self._state: HBState | None = None
        # hierarchy-node name -> normalized subtree table and extent;
        # a commit replaces entries, so the cache never outgrows the
        # hierarchy
        self._cache: dict[str, Subtree] = {}
        self._cost = float("inf")
        # pending proposal
        self._pending_state: HBState | None = None
        self._pending_cost = float("inf")
        self._overlay: dict[str, Subtree] = {}
        self._dirty: frozenset[str] = frozenset()
        self._proposed = False

    # -- setup ---------------------------------------------------------------

    def reset(self, state: HBState) -> float:
        """Adopt ``state``; build the full cache; return its cost."""
        self._state = state
        self._cache = {}
        self._overlay = {}
        self._dirty = frozenset(self._parents)
        coords, (width, height) = self._pack_cached(self._hb._hierarchy, state)
        self._cache.update(self._overlay)
        self._overlay = {}
        self._dirty = frozenset()
        self._cost = self._eval.reset(coords, bounding=(0.0, 0.0, width, height))
        return self._cost

    def initial_cost(self) -> float:
        return self._cost

    # -- protocol ------------------------------------------------------------

    def propose(self, rng: random.Random) -> float:
        if self._proposed:
            raise RuntimeError("previous proposal not committed or rolled back")
        name, new_level = self._hb.propose_level(self._state, rng)
        self._proposed = True
        if new_level is None:
            self._pending_state = None
            self._pending_cost = self._cost
            return self._cost
        levels = dict(self._state.levels)
        levels[name] = new_level
        candidate = HBState(levels=levels)
        dirty = set()
        walk: str | None = name
        while walk is not None:
            dirty.add(walk)
            walk = self._parents[walk]
        self._dirty = frozenset(dirty)
        self._overlay = {}
        coords, (width, height) = self._pack_cached(self._hb._hierarchy, candidate)
        self._pending_state = candidate
        # The root table is normalized, so its bounding box is its
        # extent at the origin (the area and aspect terms read only the
        # box's width and height).
        self._pending_cost = self._eval.propose(
            coords, bounding=(0.0, 0.0, width, height)
        )
        return self._pending_cost

    def commit(self) -> None:
        if self._pending_state is not None:
            self._state = self._pending_state
            self._cache.update(self._overlay)
            self._eval.commit()
        self._cost = self._pending_cost
        self._clear_pending()

    def rollback(self) -> None:
        if self._pending_state is not None:
            self._eval.rollback()
        self._clear_pending()

    def snapshot(self) -> HBState:
        # HBState is frozen and level states are replaced, never
        # mutated — the current state *is* the snapshot.
        return self._state

    # -- internals -----------------------------------------------------------

    def _clear_pending(self) -> None:
        self._pending_state = None
        self._pending_cost = self._cost
        self._overlay = {}
        self._dirty = frozenset()
        self._proposed = False

    def _pack_cached(self, node, state: HBState) -> Subtree:
        """Normalized subtree table and extent for ``node``, cached off-path.

        Matches ``hb._pack_node_coords(node, state)`` bit for bit:
        unchanged subtrees return their cached entry (the same floats a
        recompute would produce), dirty ones recompute through the
        shared :meth:`HBStarTreePlacement.pack_level_coords`.
        """
        name = node.name
        if name not in self._dirty:
            return self._cache[name]
        sub: dict[str, Subtree] = {}
        for child in node.children:
            sub[child.name] = self._pack_cached(child, state)
        out = self._hb.pack_level_coords(node, state, sub)
        self._overlay[name] = out
        return out
