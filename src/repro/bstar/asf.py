"""ASF-B*-trees: automatically symmetric-feasible B*-trees (Lin & Lin [16]).

An ASF-B*-tree represents only the *right half* of a symmetric placement:

* each symmetric pair contributes one **representative** node (the right
  member); the left member is obtained by mirroring;
* each self-symmetric module contributes a **half node** of half its
  width that must sit on the symmetry axis, i.e. at x = 0.

Packing the half-tree and mirroring yields a *symmetry island*: a
connected placement that satisfies the symmetry constraint by
construction — no checking required during annealing, which is the whole
point of the formulation.

The x = 0 requirement is enforced structurally: self-symmetric nodes are
kept on the right-child spine of the root (every node on that spine
packs at the root's x, which is 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping

from ..circuit import SymmetryGroup
from ..geometry import ModuleSet, Orientation, Placement
from ..perf.coords import Coords, bounding_of, coords_to_placement, normalize_bounded
from ..perf.kernel import Skyline, pack_tree_coords
from .tree import BStarTree


@dataclass(frozen=True)
class ASFBStarTree:
    """Immutable ASF-B*-tree state for one symmetry group.

    ``tree`` spans the representative names: right members of pairs plus
    all self-symmetric modules.  ``spine`` lists the self-symmetric
    modules bottom-to-top on the axis.
    """

    group: SymmetryGroup
    tree: BStarTree = field(compare=False)
    orientations: Mapping[str, Orientation] = field(default_factory=dict)
    variants: Mapping[str, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def initial(cls, group: SymmetryGroup, rng: random.Random) -> "ASFBStarTree":
        """Random valid ASF-tree: self-symmetric spine + random rep forest."""
        reps = [b for _, b in group.pairs]
        selfsym = list(group.self_symmetric)
        rng.shuffle(reps)
        rng.shuffle(selfsym)
        if selfsym:
            tree = BStarTree.chain(selfsym, direction="right")
            for rep in reps:
                # attach anywhere except as a right child of a spine node's
                # last slot reserved for the spine itself
                candidates = [
                    (node, side)
                    for node in tree.nodes()
                    for side in ("left", "right")
                    if cls._slot_ok(tree, selfsym, node, side)
                ]
                node, side = rng.choice(candidates)
                tree.insert(rep, node, side)
        else:
            tree = BStarTree.random(reps, rng)
        return cls(group, tree)

    @staticmethod
    def _slot_ok(tree: BStarTree, selfsym: list[str], node: str, side: str) -> bool:
        """A representative may not be inserted *into* the self-symmetric
        right-child spine (that would push spine nodes off the axis)."""
        if side == "left":
            return True
        return node not in selfsym

    def validate(self) -> None:
        """Structural invariants: spine intact, representatives complete."""
        self.tree.validate()
        selfsym = set(self.group.self_symmetric)
        if selfsym:
            if self.tree.root not in selfsym:
                raise ValueError("ASF root must be self-symmetric when any exist")
            node = self.tree.root
            seen = set()
            while node is not None and node in selfsym:
                seen.add(node)
                node = self.tree.right[node]
            if seen != selfsym:
                raise ValueError("self-symmetric modules must form the root right spine")
            if node is not None:
                raise ValueError("non-self-symmetric node on the axis spine")
        expected = {b for _, b in self.group.pairs} | selfsym
        if set(self.tree.nodes()) != expected:
            raise ValueError("ASF tree does not span the representatives")

    # -- packing ------------------------------------------------------------------

    def _sizes(self, modules: ModuleSet) -> dict[str, tuple[float, float]]:
        sizes = {}
        selfsym = set(self.group.self_symmetric)
        for name in self.tree.nodes():
            variant = self.variants.get(name, 0)
            orient = self.orientations.get(name, Orientation.R0)
            w, h = modules[name].footprint(variant, orient)
            if name in selfsym:
                w /= 2.0  # half module straddling the axis
            sizes[name] = (w, h)
        return sizes

    def island_overrides(self) -> tuple[dict[str, Orientation], dict[str, int]]:
        """Orientation and variant of every island member.

        A representative keeps its own orientation; its mirrored partner
        gets that orientation mirrored about the y axis (R0 -> MY); both
        members of a pair share the pair's variant.
        """
        orientations: dict[str, Orientation] = {}
        variants: dict[str, int] = {}
        selfsym = self.group.self_symmetric
        for name in self.tree.nodes():
            orient = self.orientations.get(name, Orientation.R0)
            variant = self.variants.get(name, 0)
            orientations[name] = orient
            variants[name] = variant
            if name not in selfsym:
                partner = self.group.sym(name)
                orientations[partner] = orient.mirrored_y()
                variants[partner] = variant
        return orientations, variants

    def _island_coords(self, modules: ModuleSet, skyline: Skyline | None) -> Coords:
        """The full island about the axis x = 0, in placement order.

        Packs the half-tree with :func:`~repro.perf.kernel.pack_tree_coords`
        and mirrors each representative about ``x = 0``; a self-symmetric
        half node of width ``w`` becomes the full module ``(-w, w)``.
        """
        half = pack_tree_coords(self.tree, self._sizes(modules), skyline)
        selfsym = self.group.self_symmetric
        sym = self.group.sym
        out: Coords = {}
        for name, (x0, y0, x1, y1) in half.items():
            if name in selfsym:
                if abs(x0) > 1e-9:
                    raise ValueError(
                        f"self-symmetric module {name!r} packed off-axis (x={x0:g})"
                    )
                width = x1 - x0
                out[name] = (-width, y0, width, y1)
            else:
                out[name] = (x0, y0, x1, y1)
                # 0.0 - x, not -x: an edge on the axis stays +0.0, as
                # Rect.mirrored_x(0.0) computes it (2.0 * 0.0 - x)
                out[sym(name)] = (0.0 - x1, y0, 0.0 - x0, y1)
        return out

    def pack(self, modules: ModuleSet) -> Placement:
        """The full symmetry island, mirrored about the axis x = 0."""
        orientations, variants = self.island_overrides()
        return coords_to_placement(
            self._island_coords(modules, None), modules, orientations, variants
        )

    def pack_coords(
        self, modules: ModuleSet, skyline: Skyline | None = None
    ) -> tuple[Coords, tuple[float, float]]:
        """The island as a normalized coordinate table, plus its
        ``(width, height)``: ``pack(modules).normalized()`` without
        building the placement.  Pass a ``skyline`` to reuse its storage.
        """
        out = self._island_coords(modules, skyline)
        return normalize_bounded(out, bounding_of(out.values()))


class ASFMoveSet:
    """Spine-preserving perturbations of an ASF-B*-tree."""

    def __init__(self, modules: ModuleSet, group: SymmetryGroup, *, allow_rotation: bool = False) -> None:
        self._modules = modules
        self._group = group
        self._reps = [b for _, b in group.pairs]
        self._selfsym = list(group.self_symmetric)
        # Rotation of a pair representative changes both halves coherently;
        # self-symmetric modules may not rotate (footprint must straddle axis).
        self._rotatable = (
            [r for r in self._reps if modules[r].rotatable] if allow_rotation else []
        )

    def initial_state(self, rng: random.Random) -> ASFBStarTree:
        return ASFBStarTree.initial(self._group, rng)

    def propose(self, state: ASFBStarTree, rng: random.Random) -> ASFBStarTree:
        ops = []
        if len(self._reps) >= 1:
            ops.append(self._move_rep)
        if len(self._reps) >= 2:
            ops.append(self._swap_reps)
        if len(self._selfsym) >= 2:
            ops.append(self._shuffle_spine)
        if self._rotatable:
            ops.append(self._rotate_rep)
        if not ops:
            return state
        return rng.choice(ops)(state, rng)

    def _move_rep(self, state: ASFBStarTree, rng: random.Random) -> ASFBStarTree:
        tree = state.tree.clone()
        name = rng.choice(self._reps)
        tree.remove(name)
        if tree.root is None:
            tree.insert_root(name)
        else:
            candidates = [
                (node, side)
                for node in tree.nodes()
                for side in ("left", "right")
                if ASFBStarTree._slot_ok(tree, self._selfsym, node, side)
            ]
            node, side = rng.choice(candidates)
            tree.insert(name, node, side)
        return replace(state, tree=tree)

    def _swap_reps(self, state: ASFBStarTree, rng: random.Random) -> ASFBStarTree:
        a, b = rng.sample(self._reps, 2)
        tree = state.tree.clone()
        tree.swap_nodes(a, b)
        return replace(state, tree=tree)

    def _shuffle_spine(self, state: ASFBStarTree, rng: random.Random) -> ASFBStarTree:
        """Rebuild with a new self-symmetric order, keeping rep subtrees
        attached to the same spine indices where possible."""
        return ASFBStarTree.initial(self._group, rng)

    def _rotate_rep(self, state: ASFBStarTree, rng: random.Random) -> ASFBStarTree:
        name = rng.choice(self._rotatable)
        orientations = dict(state.orientations)
        current = orientations.get(name, Orientation.R0)
        orientations[name] = Orientation.R90 if current == Orientation.R0 else Orientation.R0
        return replace(state, orientations=orientations)
