"""The tuple proximity check equals its ``Rect`` oracle, memo included.

``rects_connected`` works on ``(x0, y0, x1, y1)`` tuples and
:class:`~repro.cost.ProximityTerm` re-checks a group only when its
members' tuples changed.  Both must answer exactly like the original
``Rect.inflated`` / ``Rect.overlaps(strict=False)`` union-find, kept in
``tests/oracles.py``, including rectangles that touch at exactly the
gap, and whatever commit/rollback sequence produced the table.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bstar import BStarPlacerConfig
from repro.circuit import ProximityGroup
from repro.circuit.constraints import rects_connected
from repro.cost import ProximityTerm, model_for_config, proximity_satisfied
from repro.geometry import Module, ModuleSet, PlacedModule, Placement, Rect

from tests.oracles import rects_connected_rects

#: coarse grid values, so generated rectangles often touch or nearly touch
_COORD = st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.25, 10.0])
_GAP = st.sampled_from([0.0, 1e-6, 0.1, 0.5, 1.0, 1.5, 0.3 + 1e-6])


_SIZE = st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def rect_tuples(draw, sizes=_COORD):
    """Rectangles on the coarse grid; the default sizes include zero."""
    x0, y0 = draw(_COORD), draw(_COORD)
    w, h = draw(sizes), draw(sizes)
    return (x0, y0, x0 + w, y0 + h)


def _oracle(rects, gap):
    return rects_connected_rects([Rect(*r) for r in rects], gap)


class TestRectsConnected:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rect_tuples(), min_size=1, max_size=8), _GAP)
    def test_matches_rect_oracle(self, rects, gap):
        assert rects_connected(rects, gap) == _oracle(rects, gap)

    @settings(max_examples=200, deadline=None)
    @given(rect_tuples(), _COORD, _GAP, st.sampled_from(["x", "y"]))
    def test_touching_at_exactly_the_gap(self, a, offset, gap, axis):
        """A second rectangle ``gap`` away from the first (to the float
        operation) is decided exactly as the oracle decides it."""
        x0, y0, x1, y1 = a
        if axis == "x":
            bx0 = x1 + gap
            b = (bx0, y0 + offset, bx0 + 1.0, y1 + offset)
        else:
            by0 = y1 + gap
            b = (x0 + offset, by0, x1 + offset, by0 + 1.0)
        for rects in ([a, b], [b, a]):
            assert rects_connected(rects, gap) == _oracle(rects, gap)

    def test_touching_edges_connect_and_gaps_split(self):
        a = (0.0, 0.0, 1.0, 1.0)
        assert rects_connected([a, (1.0, 0.0, 2.0, 1.0)], 0.0)
        assert rects_connected([a, (1.5, 0.0, 2.0, 1.0)], 0.5)
        assert not rects_connected([a, (1.5, 0.0, 2.0, 1.0)], 0.25)
        # a chain connects through its middle member
        assert rects_connected([a, (3.0, 0.0, 4.0, 1.0), (1.0, 0.0, 3.0, 1.0)], 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(rect_tuples(_SIZE), min_size=1, max_size=6),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_group_check_agrees_across_tiers(self, rects, margin):
        """``ProximityGroup.is_satisfied`` (rich placement) and
        ``proximity_satisfied`` (coordinate table) share one check."""
        names = [f"m{i}" for i in range(len(rects))]
        group = ProximityGroup("g", tuple(names), margin=margin)
        placement = Placement.of(
            PlacedModule(Module.hard(n, r[2] - r[0], r[3] - r[1]), Rect(*r))
            for n, r in zip(names, rects)
        )
        coords = dict(zip(names, rects))
        expected = len(rects) <= 1 or _oracle(rects, margin + 1e-6)
        assert group.is_satisfied(placement) == expected
        assert proximity_satisfied(group, coords) == expected


def _oracle_term(weight, groups, coords):
    total = 0.0
    for group in groups:
        rects = [Rect(*coords[m]) for m in group.members_ if m in coords]
        if not (len(rects) <= 1 or rects_connected_rects(rects, group.margin + 1e-6)):
            total += weight
    return total


class TestProximityMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_memo_follows_every_table_through_commit_and_rollback(self, seed):
        """Drive a model evaluator through proposals that are committed
        or rolled back; every proposal revisits or perturbs recent
        tables, so the memo is hit, missed and re-keyed after rollbacks.
        The proximity contribution must equal the memo-free oracle."""
        rng = random.Random(seed)
        names = [f"m{i}" for i in range(8)]
        modules = ModuleSet.of([Module.hard(n, 1.0, 1.0) for n in names])
        groups = (
            ProximityGroup("p0", tuple(names[:4]), margin=0.5),
            ProximityGroup("p1", tuple(names[3:7])),
            ProximityGroup("p2", (names[7],)),
        )
        config = BStarPlacerConfig(proximity_weight=2.0)
        model = model_for_config(modules, (), groups, config)
        term = model.term("proximity")
        evaluator = model.evaluator()

        def table():
            return {n: _unit(rng.choice([0.0, 1.0, 1.5, 2.0, 3.0]),
                             rng.choice([0.0, 1.0, 2.0])) for n in names}

        committed = table()
        evaluator.reset(committed)
        history = [committed]
        for _ in range(40):
            pick = rng.random()
            if pick < 0.3:
                candidate = rng.choice(history)  # a table seen before
            else:
                candidate = dict(committed)
                moved = rng.choice(names)
                candidate[moved] = _unit(rng.choice([0.0, 1.0, 1.5, 2.0, 3.0, 4.0]),
                                         rng.choice([0.0, 1.0, 2.0]))
            evaluator.propose(candidate)
            assert term.contribution(candidate) == _oracle_term(2.0, groups, candidate)
            if rng.random() < 0.5:
                evaluator.commit()
                committed = candidate
            else:
                evaluator.rollback()
            # the committed table re-scores identically after either outcome
            assert term.contribution(committed) == _oracle_term(2.0, groups, committed)
            history.append(candidate)

    def test_memo_holds_one_entry_per_group(self):
        groups = (ProximityGroup("p0", ("a", "b")), ProximityGroup("p1", ("b", "c")))
        term = ProximityTerm(1.0, groups)
        for dx in range(50):
            coords = {
                "a": _unit(float(dx), 0.0),
                "b": _unit(float(dx) + 1.0, 0.0),
                "c": _unit(float(dx) + 3.0, 0.0),
            }
            assert term.contribution(coords) == 1.0  # p1 split, p0 joined
        assert len(term._seen) == len(groups)


def _unit(x, y):
    return (x, y, x + 1.0, y + 1.0)
