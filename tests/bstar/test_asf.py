"""Tests for ASF-B*-trees (symmetry islands)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import ASFBStarTree, ASFMoveSet
from repro.circuit import SymmetryGroup
from repro.geometry import Module, ModuleSet
from repro.perf import Skyline, placement_to_coords
from tests.oracles import asf_pack
from tests.strategies import symmetric_problems


def island_problem():
    mods = ModuleSet.of(
        [
            Module.hard("a", 3, 2, rotatable=False),
            Module.hard("b", 3, 2, rotatable=False),
            Module.hard("c", 2, 4, rotatable=False),
            Module.hard("d", 2, 4, rotatable=False),
            Module.hard("s", 4, 2, rotatable=False),
        ]
    )
    group = SymmetryGroup("g", pairs=(("a", "b"), ("c", "d")), self_symmetric=("s",))
    return mods, group


class TestASFConstruction:
    def test_initial_is_valid(self):
        mods, group = island_problem()
        asf = ASFBStarTree.initial(group, random.Random(0))
        asf.validate()

    def test_tree_spans_representatives(self):
        mods, group = island_problem()
        asf = ASFBStarTree.initial(group, random.Random(1))
        assert set(asf.tree.nodes()) == {"b", "d", "s"}

    def test_selfsym_root_spine(self):
        mods, group = island_problem()
        for seed in range(10):
            asf = ASFBStarTree.initial(group, random.Random(seed))
            assert asf.tree.root == "s"


class TestIslandPacking:
    def test_island_is_exactly_symmetric(self):
        mods, group = island_problem()
        for seed in range(20):
            asf = ASFBStarTree.initial(group, random.Random(seed))
            island = asf.pack(mods)
            assert island.is_overlap_free()
            assert group.symmetry_error(island) == pytest.approx(0.0, abs=1e-9)

    def test_axis_at_zero(self):
        mods, group = island_problem()
        asf = ASFBStarTree.initial(group, random.Random(3))
        island = asf.pack(mods)
        assert group.axis_of(island) == pytest.approx(0.0, abs=1e-9)

    def test_selfsym_straddles_axis(self):
        mods, group = island_problem()
        asf = ASFBStarTree.initial(group, random.Random(4))
        island = asf.pack(mods)
        rect = island["s"].rect
        assert rect.x0 == pytest.approx(-rect.x1)

    def test_all_modules_present(self):
        mods, group = island_problem()
        asf = ASFBStarTree.initial(group, random.Random(5))
        island = asf.pack(mods)
        assert set(p.name for p in island) == {"a", "b", "c", "d", "s"}

    def test_pairs_only_group(self):
        mods = ModuleSet.of(
            [Module.hard("a", 2, 2, rotatable=False), Module.hard("b", 2, 2, rotatable=False)]
        )
        group = SymmetryGroup("g", pairs=(("a", "b"),))
        asf = ASFBStarTree.initial(group, random.Random(0))
        island = asf.pack(mods)
        assert island.is_overlap_free()
        assert group.symmetry_error(island) == pytest.approx(0.0, abs=1e-9)

    @given(symmetric_problems(max_free=0), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_groups_always_symmetric(self, problem, seed):
        mods, group = problem
        asf = ASFBStarTree.initial(group, random.Random(seed))
        asf.validate()
        island = asf.pack(mods)
        assert island.is_overlap_free()
        assert group.symmetry_error(island) <= 1e-9


class TestIslandCoords:
    """``pack`` and ``pack_coords`` equal the object-tier island of
    ``tests/oracles.py``: same rects in the same order, same variants
    and orientations, and ``pack_coords`` is its normalized table."""

    @staticmethod
    def _assert_twin(state, mods, skyline):
        coords, (width, height) = state.pack_coords(mods, skyline)
        expected = asf_pack(state, mods)
        island = expected.normalized()
        assert list(coords) == [p.name for p in island]  # placement order
        assert coords == placement_to_coords(island)
        bb = island.bounding_box()
        assert (width, height) == (bb.width, bb.height)
        assert [(p.name, p.rect, p.variant, p.orientation) for p in state.pack(mods)] == [
            (p.name, p.rect, p.variant, p.orientation) for p in expected
        ]

    @given(symmetric_problems(max_free=0), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_normalized_island_over_moves(self, problem, seed):
        mods, group = problem
        moves = ASFMoveSet(mods, group)
        rng = random.Random(seed)
        state = moves.initial_state(rng)
        skyline = Skyline()  # reused across packs, as the forest does
        for _ in range(10):
            self._assert_twin(state, mods, skyline)
            state = moves.propose(state, rng)

    def test_rotated_representatives(self):
        mods = ModuleSet.of(
            [
                Module.hard("a", 3, 2, rotatable=True),
                Module.hard("b", 3, 2, rotatable=True),
                Module.hard("c", 5, 1.5, rotatable=True),
                Module.hard("d", 5, 1.5, rotatable=True),
                Module.hard("s", 4, 2, rotatable=False),
            ]
        )
        group = SymmetryGroup("g", pairs=(("a", "b"), ("c", "d")), self_symmetric=("s",))
        moves = ASFMoveSet(mods, group, allow_rotation=True)
        rng = random.Random(4)
        state = moves.initial_state(rng)
        rotated = False
        for _ in range(40):
            self._assert_twin(state, mods, None)
            rotated = rotated or bool(state.orientations)
            state = moves.propose(state, rng)
        assert rotated


class TestASFMoves:
    @given(symmetric_problems(max_free=0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_moves_preserve_validity_and_symmetry(self, problem, seed):
        mods, group = problem
        moves = ASFMoveSet(mods, group)
        rng = random.Random(seed)
        state = moves.initial_state(rng)
        for _ in range(15):
            state = moves.propose(state, rng)
            state.validate()
            island = state.pack(mods)
            assert island.is_overlap_free()
            assert group.symmetry_error(island) <= 1e-9

    def test_moves_do_not_mutate(self):
        mods, group = island_problem()
        moves = ASFMoveSet(mods, group)
        rng = random.Random(0)
        state = moves.initial_state(rng)
        before = sorted(state.tree.left.items())
        for _ in range(10):
            moves.propose(state, rng)
        assert sorted(state.tree.left.items()) == before
