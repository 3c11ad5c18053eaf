"""Reference implementations that exist only to prove fast paths equal them.

Each function here is the straightforward object-tier formulation a hot
path replaced; the equivalence tests assert the two agree.
"""

from __future__ import annotations

from repro.geometry import Rect


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
