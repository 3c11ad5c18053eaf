"""Flat coordinate tables: the hot-loop placement representation.

A placement inside the annealing loop is just ``name -> (x0, y0, x1,
y1)`` in an insertion-ordered dict.  No :class:`~repro.geometry.Rect`
or :class:`~repro.geometry.PlacedModule` objects are created until a
result actually leaves the loop; the helpers here convert between the
two tiers and mirror the float operations of the rich classes exactly
(``x1`` is always ``x0 + width`` just like ``Rect.from_size``,
normalization adds ``-min`` just like ``Placement.normalized``), so the
two representations agree bit for bit.

Packers that already know a table's bounding box (the HB*-tree forest
reads it off the packed level items) normalize through
:func:`normalize_bounded`, which returns the table's extent with it, so
no table is scanned twice.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..geometry import (
    ModuleSet,
    Orientation,
    PlacedModule,
    Placement,
    Rect,
)

#: name -> (x0, y0, x1, y1); insertion order is the placement order.
Coords = dict[str, tuple[float, float, float, float]]


def bounding_of(rects: Iterable[tuple[float, float, float, float]]) -> tuple[float, float, float, float]:
    """Bounding box of coordinate 4-tuples (mirrors :meth:`Rect.bounding`)."""
    it = iter(rects)
    try:
        x0, y0, x1, y1 = next(it)
    except StopIteration:
        raise ValueError("bounding_of() of an empty iterable") from None
    for a, b, c, d in it:
        if a < x0:
            x0 = a
        if b < y0:
            y0 = b
        if c > x1:
            x1 = c
        if d > y1:
            y1 = d
    return x0, y0, x1, y1


def normalize_coords(coords: Coords) -> Coords:
    """Translate so the bounding box sits at the origin.

    Performs the same float operation as ``Placement.normalized()``
    (adding ``-min``), so the results are bit-identical.
    """
    if not coords:
        return coords
    return normalize_bounded(coords, bounding_of(coords.values()))[0]


def normalize_bounded(
    coords: Coords, bounding: tuple[float, float, float, float]
) -> tuple[Coords, tuple[float, float]]:
    """:func:`normalize_coords` for a table whose bounding box is known.

    Returns the normalized table and its ``(width, height)``.  Rounding
    is monotone, so the normalized table's bounding box is exactly
    ``(0, 0, width, height)`` with ``width = x1 - x0`` — callers keep
    the extent next to the table instead of rescanning it.
    """
    x0, y0, x1, y1 = bounding
    extent = (x1 - x0, y1 - y0)
    if x0 == 0.0 and y0 == 0.0:
        # Already anchored; skip the no-op translation (adding -0.0 is
        # the identity on every coordinate, including 0.0 itself).
        return coords, extent
    dx, dy = -x0, -y0
    return {
        name: (a + dx, b + dy, c + dx, d + dy)
        for name, (a, b, c, d) in coords.items()
    }, extent


def placement_to_coords(placement: Placement) -> Coords:
    """Flatten a rich placement (placement order preserved)."""
    return {
        p.name: (p.rect.x0, p.rect.y0, p.rect.x1, p.rect.y1)
        for p in placement
    }


def coords_to_placement(
    coords: Coords,
    modules: ModuleSet,
    orientations: Mapping[str, Orientation] | None = None,
    variants: Mapping[str, int] | None = None,
) -> Placement:
    """Materialize the rich placement for a coordinate table.

    Used once per annealing run, for the best/final state only.
    """
    placed = []
    for name, (x0, y0, x1, y1) in coords.items():
        orient = orientations.get(name, Orientation.R0) if orientations else Orientation.R0
        variant = variants.get(name, 0) if variants else 0
        placed.append(
            PlacedModule(modules[name], Rect(x0, y0, x1, y1), variant=variant, orientation=orient)
        )
    return Placement.of(placed)
