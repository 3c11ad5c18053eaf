"""Tests for B*-tree packing and the segment-list contour oracle.

``pack`` is the library's packer (skyline kernel); ``Contour`` and
``pack_sizes`` are the reference formulation in ``tests/oracles.py``
that the kernel is proven equal to.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import BStarTree, pack
from repro.geometry import Module, ModuleSet, Orientation
from tests.oracles import Contour, pack_sizes
from tests.strategies import module_sets, names


class TestContour:
    def test_initially_flat(self):
        c = Contour()
        assert c.height_over(0, 100) == 0.0
        assert c.max_height() == 0.0

    def test_place_raises_height(self):
        c = Contour()
        c.place(0, 5, 3.0)
        assert c.height_over(0, 5) == 3.0
        assert c.height_over(5, 10) == 0.0
        assert c.height_over(2, 7) == 3.0

    def test_stacking(self):
        c = Contour()
        c.place(0, 4, 2.0)
        c.place(2, 6, 5.0)
        assert c.height_over(0, 2) == 2.0
        assert c.height_over(2, 6) == 5.0
        assert c.max_height() == 5.0

    def test_profile_merges_equal_heights(self):
        c = Contour()
        c.place(0, 2, 3.0)
        c.place(2, 4, 3.0)
        finite = [s for s in c.profile() if s[2] > 0]
        assert finite == [(0.0, 4.0, 3.0)]

    def test_empty_interval_rejected(self):
        c = Contour()
        with pytest.raises(ValueError):
            c.height_over(3, 3)
        with pytest.raises(ValueError):
            c.place(3, 3, 1.0)


class TestPackingKnownShapes:
    def test_left_chain_is_row(self):
        mods = ModuleSet.of([Module.hard(n, 2, 3) for n in names(3)])
        t = BStarTree.chain(names(3), direction="left")
        p = pack(t, mods)
        assert [p[n].rect.x0 for n in names(3)] == [0.0, 2.0, 4.0]
        assert all(p[n].rect.y0 == 0.0 for n in names(3))

    def test_right_chain_is_stack(self):
        mods = ModuleSet.of([Module.hard(n, 2, 3) for n in names(3)])
        t = BStarTree.chain(names(3), direction="right")
        p = pack(t, mods)
        assert [p[n].rect.y0 for n in names(3)] == [0.0, 3.0, 6.0]
        assert all(p[n].rect.x0 == 0.0 for n in names(3))

    def test_right_child_drops_onto_contour(self):
        # root wide and flat, left child tall, right child should sit on root only
        mods = ModuleSet.of(
            [Module.hard("r", 4, 1), Module.hard("l", 2, 5), Module.hard("u", 3, 1)]
        )
        t = BStarTree("r")
        t.insert("l", "r", "left")
        t.insert("u", "r", "right")
        p = pack(t, mods)
        assert p["l"].rect.x0 == 4.0
        assert p["u"].rect.x0 == 0.0
        assert p["u"].rect.y0 == 1.0  # on top of the root, not the tall sibling

    def test_orientation(self):
        mods = ModuleSet.of([Module.hard("a", 2, 6)])
        t = BStarTree.chain(["a"])
        p = pack(t, mods, orientations={"a": Orientation.R90})
        assert p["a"].rect.width == 6.0

    def test_pack_sizes_raw(self):
        t = BStarTree.chain(["a", "b"], direction="left")
        rects = pack_sizes(t, {"a": (2.0, 2.0), "b": (3.0, 1.0)})
        assert rects["b"].x0 == 2.0


class TestPackingProperties:
    @given(module_sets(min_size=1, max_size=12), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_always_overlap_free_and_anchored(self, mods, seed):
        t = BStarTree.random(mods.names(), random.Random(seed))
        p = pack(t, mods)
        assert p.is_overlap_free()
        bb = p.bounding_box()
        assert bb.x0 == 0.0
        assert bb.y0 == 0.0

    @given(module_sets(min_size=2, max_size=10), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_left_child_abuts_parent_x(self, mods, seed):
        t = BStarTree.random(mods.names(), random.Random(seed))
        p = pack(t, mods)
        for node in t.nodes():
            left = t.left[node]
            if left is not None:
                assert p[left].rect.x0 == pytest.approx(p[node].rect.x1)
            right = t.right[node]
            if right is not None:
                assert p[right].rect.x0 == pytest.approx(p[node].rect.x0)

    @given(module_sets(min_size=1, max_size=10), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_modules_rest_on_something(self, mods, seed):
        """Bottom-compaction: every module touches y=0 or another
        module's top edge."""
        t = BStarTree.random(mods.names(), random.Random(seed))
        p = pack(t, mods)
        for pm in p:
            if pm.rect.y0 == 0.0:
                continue
            supported = any(
                other.rect.y1 == pytest.approx(pm.rect.y0)
                and other.rect.x0 < pm.rect.x1
                and pm.rect.x0 < other.rect.x1
                for other in p
                if other.name != pm.name
            )
            assert supported, f"{pm.name} floats in the air"
