"""Deep degenerate trees: the iterative traversals must not recurse.

Before the perf kernel, ``pack_sizes`` recursed once per tree level, so
a chain of a few thousand modules (a single row or stack) died with
``RecursionError``.  Both the flat kernel and the reference packer in
``tests/oracles.py`` are explicit-stack traversals; these tests pin that
down at 5000+ modules, well past the default interpreter recursion
limit.
"""

from __future__ import annotations

import sys

import pytest

from repro.bstar.tree import BStarTree
from repro.geometry import Module, ModuleSet
from repro.perf import BStarKernel, pack_tree_coords
from tests.oracles import pack_sizes

N_DEEP = 5000


@pytest.fixture(scope="module")
def deep_names():
    return [f"m{i}" for i in range(N_DEEP)]


@pytest.fixture(scope="module")
def deep_sizes(deep_names):
    return {name: (1.0, 2.0) for name in deep_names}


def test_chain_depth_exceeds_recursion_limit(deep_names):
    assert N_DEEP > sys.getrecursionlimit()


@pytest.mark.parametrize("direction", ["left", "right"])
def test_pack_sizes_handles_deep_chain(deep_names, deep_sizes, direction):
    tree = BStarTree.chain(deep_names, direction=direction)
    rects = pack_sizes(tree, deep_sizes)
    assert len(rects) == N_DEEP
    if direction == "left":
        # a left chain is a row: x advances by one module width each step
        assert rects[deep_names[-1]].x0 == float(N_DEEP - 1)
        assert all(r.y0 == 0.0 for r in rects.values())
    else:
        # a right chain is a stack: y advances by one module height
        assert rects[deep_names[-1]].y0 == 2.0 * (N_DEEP - 1)
        assert all(r.x0 == 0.0 for r in rects.values())


@pytest.mark.parametrize("direction", ["left", "right"])
def test_kernel_handles_deep_chain(deep_names, deep_sizes, direction):
    tree = BStarTree.chain(deep_names, direction=direction)
    coords = pack_tree_coords(tree, deep_sizes)
    assert len(coords) == N_DEEP
    rects = pack_sizes(tree, deep_sizes)
    assert coords == {
        name: (r.x0, r.y0, r.x1, r.y1) for name, r in rects.items()
    }


def test_full_kernel_packs_deep_chain(deep_names):
    modules = ModuleSet.of([Module.hard(n, 1.0, 2.0) for n in deep_names])
    tree = BStarTree.chain(deep_names, direction="left")
    kernel = BStarKernel(modules)
    coords = kernel.pack(tree)
    assert len(coords) == N_DEEP
    x0, y0, x1, y1 = coords[deep_names[-1]]
    assert (x0, y0) == (float(N_DEEP - 1), 0.0)
