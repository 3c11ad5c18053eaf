"""B*-tree packing: tree + module footprints -> compacted placement."""

from __future__ import annotations

from typing import Mapping

from ..geometry import ModuleSet, Orientation, Placement
from ..perf.coords import coords_to_placement
from ..perf.kernel import pack_tree_coords
from .tree import BStarTree


def pack(
    tree: BStarTree,
    modules: ModuleSet,
    orientations: Mapping[str, Orientation] | None = None,
    variants: Mapping[str, int] | None = None,
) -> Placement:
    """Pack a B*-tree over a module set into a :class:`Placement`."""
    sizes = {
        name: modules[name].footprint(
            variants.get(name, 0) if variants else 0,
            orientations.get(name, Orientation.R0) if orientations else Orientation.R0,
        )
        for name in tree.nodes()
    }
    return coords_to_placement(
        pack_tree_coords(tree, sizes), modules, orientations, variants
    )
