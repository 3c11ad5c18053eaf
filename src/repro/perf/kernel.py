"""The B*-tree packing kernel: tree -> flat coordinates, no objects.

The kernel packs a :class:`~repro.bstar.BStarTree` straight into a
:data:`~repro.perf.coords.Coords` table:

* footprints are precomputed per (module, variant, orientation) at
  construction, so the loop does two dict lookups instead of a
  ``Module.footprint`` call per node;
* the traversal is iterative (explicit stack) — degenerate chain trees
  of any depth pack without recursion;
* the skyline is a reusable parallel-list structure with an O(1) reset
  and snapshot/restore for the incremental engine's checkpoints, so one
  kernel instance serves an entire annealing run with no per-step
  allocation beyond the output dict.

This is the library's only B*-tree packer: flat trees, ASF-B*-tree
symmetry islands and every HB*-tree level pack through
:func:`pack_tree_coords`.  The segment-list ``Contour`` / ``pack_sizes``
formulation it replaced survives as a test oracle in
``tests/oracles.py``, and ``tests/perf/`` asserts the two agree bit for
bit (same traversal order, same ``x + w`` / ``y + h`` arithmetic, same
exact min/max skyline queries).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Mapping

from ..circuit import ProximityGroup
from ..geometry import ModuleSet, Net, Orientation, Placement
from .coords import Coords, coords_to_placement

_INF = float("inf")

#: a skyline snapshot: (starts, heights) list copies
SkylineSnapshot = tuple[list[float], list[float]]


class Skyline:
    """Contour over x >= 0 as parallel ``starts`` / ``heights`` lists.

    Segment ``i`` spans ``[starts[i], starts[i+1])`` (the last one runs
    to infinity) at height ``heights[i]``; starts are strictly
    increasing, so the query side of :meth:`raise_over` is a C-level
    ``bisect`` (linear for short profiles) plus a slice ``max``, and the
    update side is two list splices.  Heights come out of the same
    ``max`` / ``y + h`` float operations as the segment-list
    ``Contour`` oracle in ``tests/oracles.py``, so packings agree bit
    for bit (see ``tests/perf/``).
    """

    __slots__ = ("_starts", "_heights")

    def __init__(self) -> None:
        self._starts: list[float] = [0.0]
        self._heights: list[float] = [0.0]

    def reset(self) -> None:
        """Return to the flat initial skyline."""
        self._starts[:] = (0.0,)
        self._heights[:] = (0.0,)

    def snapshot(self) -> SkylineSnapshot:
        """An immutable-by-convention copy of the current profile.

        The incremental engine checkpoints the skyline at fixed pre-order
        strides; snapshots are never mutated, only :meth:`restore`\\ d
        (which copies again), so stored checkpoints stay valid.
        """
        return (self._starts.copy(), self._heights.copy())

    def restore(self, snapshot: SkylineSnapshot) -> None:
        """Load a snapshot taken by :meth:`snapshot`."""
        starts, heights = snapshot
        self._starts[:] = starts
        self._heights[:] = heights

    def max_height(self) -> float:
        """Maximum height over the whole skyline (exact max, no rounding)."""
        return max(self._heights)

    def rightmost_edge(self) -> float:
        """The right edge of the rightmost raised interval (0.0 if flat).

        Every placed module raised the skyline over its exact
        ``(x0, x1)`` span, so this is bit-identical to ``max(x1)`` over
        the placed modules.  (A zero-height tail always trails the
        raised region, so the scan from the right is short.)
        """
        heights = self._heights
        for i in range(len(heights) - 1, -1, -1):
            if heights[i] != 0.0:
                return self._starts[i + 1]
        return 0.0

    def raise_over(self, x0: float, x1: float, h: float) -> float:
        """Fused query-and-place: return the height over (x0, x1) and
        raise the skyline to ``height + h`` there (the packing inner
        loop calls only this)."""
        starts = self._starts
        heights = self._heights
        n = len(starts)
        # segment containing x0: last start <= x0 (starts[0] == 0.0 <= x0).
        # Short profiles (every fresh pack starts with one) scan faster
        # than they bisect.
        if n < 16:
            i = 0
            while i + 1 < n and starts[i + 1] <= x0:
                i += 1
        else:
            i = bisect_right(starts, x0) - 1
        # segments covering any of (x0, x1): starts strictly below x1 —
        # a module usually spans only a couple of segments, so scan.
        j = i + 1
        while j < n and starts[j] < x1:
            j += 1
        if j - i == 1:
            best = heights[i]
        else:
            best = max(heights[i:j])
        tail = heights[j - 1]
        if starts[i] < x0:
            new_starts = [starts[i], x0]
            new_heights = [heights[i], best + h]
        else:
            new_starts = [x0]
            new_heights = [best + h]
        end = starts[j] if j < len(starts) else _INF
        if x1 < end:
            new_starts.append(x1)
            new_heights.append(tail)
        starts[i:j] = new_starts
        heights[i:j] = new_heights
        return best

def pack_tree_coords(
    tree,
    sizes: Mapping[str, tuple[float, float]],
    skyline: Skyline | None = None,
) -> Coords:
    """Pack raw (w, h) footprints into a coordinate table.

    Pre-order traversal with an explicit stack (safe on chains of any
    depth): a left child starts at its parent's right edge, a right
    child at its parent's left edge, and y is the skyline height over
    the module's x span.  Table order is the pre-order (left subtree
    before right).  Pass a ``skyline`` to reuse its storage across
    calls.
    """
    out: Coords = {}
    root = tree.root
    if root is None:
        return out
    if skyline is None:
        skyline = Skyline()
    else:
        skyline.reset()
    tree_left, tree_right = tree.left, tree.right
    # Skyline.raise_over inlined (this loop and the incremental
    # engine's suffix repack are the two hottest paths in the library).
    starts = skyline._starts
    heights = skyline._heights
    bis_r = bisect_right
    stack: list[tuple[str, float]] = [(root, 0.0)]
    push = stack.append
    pop = stack.pop
    while stack:
        name, x = pop()
        w, h = sizes[name]
        x1 = x + w
        n = len(starts)
        if n < 16:
            i = 0
            while i + 1 < n and starts[i + 1] <= x:
                i += 1
        else:
            i = bis_r(starts, x) - 1
        j = i + 1
        while j < n and starts[j] < x1:
            j += 1
        if j - i == 1:
            y = heights[i]
        else:
            y = max(heights[i:j])
        top = y + h
        tail = heights[j - 1]
        if starts[i] < x:
            new_s = [starts[i], x]
            new_h = [heights[i], top]
        else:
            new_s = [x]
            new_h = [top]
        if x1 < (starts[j] if j < n else _INF):
            new_s.append(x1)
            new_h.append(tail)
        starts[i:j] = new_s
        heights[i:j] = new_h
        out[name] = (x, y, x1, top)
        right = tree_right[name]
        if right is not None:
            push((right, x))
        left = tree_left[name]
        if left is not None:
            push((left, x1))
    return out


class BStarKernel:
    """Reusable pack-and-cost engine for B*-tree annealing.

    Construct once per placement problem; every annealing step then calls
    :meth:`cost` (or :meth:`pack`), which touches only precomputed
    tables, the reusable skyline and one output dict.  The rich
    :class:`Placement` is materialized by :meth:`placement` for the
    best/final state only.
    """

    def __init__(
        self,
        modules: ModuleSet,
        nets: tuple[Net, ...] = (),
        proximity: tuple[ProximityGroup, ...] = (),
        config=None,
    ) -> None:
        # deferred import: repro.cost imports repro.perf.coords, so the
        # model builder must not be pulled in at perf import time
        from ..cost.model import model_for_config

        self._modules = modules
        self._skyline = Skyline()
        self._cost_model = (
            model_for_config(modules, nets, proximity, config)
            if config is not None
            else None
        )
        # footprint table: name -> variant index -> orientation -> (w, h)
        self._footprints: dict[str, list[dict[Orientation, tuple[float, float]]]] = {
            m.name: [
                {o: m.footprint(v, o) for o in Orientation}
                for v in range(len(m.variants))
            ]
            for m in modules
        }
        # default footprints (variant 0, R0): the pack loop copies this
        # table and overrides only the explicitly rotated/reshaped
        # modules, so the per-node work is a single dict lookup.
        self._default_sizes: dict[str, tuple[float, float]] = {
            m.name: self._footprints[m.name][0][Orientation.R0] for m in modules
        }

    def resolved_sizes(
        self,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Mapping[str, tuple[float, float]]:
        """The effective footprint table for an override pair.

        Copy-on-default: overrides are normalized first, and entries
        whose footprint equals the default (variant 0, R0 — e.g. a
        square module rotated, or an explicit variant-0 entry) are
        dropped; when nothing survives, the shared default table is
        returned without any copy at all.
        """
        sizes = self._default_sizes
        if not orientations and not variants:
            return sizes
        footprints = self._footprints
        overrides: dict[str, tuple[float, float]] = {}
        if orientations:
            for name, orient in orientations.items():
                variant = variants.get(name, 0) if variants else 0
                wh = footprints[name][variant][orient]
                if wh != sizes[name]:
                    overrides[name] = wh
        if variants:
            for name, variant in variants.items():
                if not orientations or name not in orientations:
                    wh = footprints[name][variant][Orientation.R0]
                    if wh != sizes[name]:
                        overrides[name] = wh
        if not overrides:
            return sizes
        sizes = sizes.copy()
        sizes.update(overrides)
        return sizes

    @property
    def model(self):
        """The kernel's :class:`~repro.cost.CostModel` (``None`` when
        the kernel was built without a cost config)."""
        return self._cost_model

    def pack(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Coords:
        """Pack a tree into flat coordinates."""
        return pack_tree_coords(tree, self.resolved_sizes(orientations, variants), self._skyline)

    def cost(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> float:
        """Pack and evaluate in one step (requires a ``config``)."""
        if self._cost_model is None:
            raise ValueError("BStarKernel was built without a cost config")
        return self._cost_model(self.pack(tree, orientations, variants))

    def placement(
        self,
        tree,
        orientations: Mapping[str, Orientation] | None = None,
        variants: Mapping[str, int] | None = None,
    ) -> Placement:
        """Materialize the rich :class:`Placement` (boundary tier)."""
        return coords_to_placement(
            self.pack(tree, orientations, variants), self._modules, orientations, variants
        )
