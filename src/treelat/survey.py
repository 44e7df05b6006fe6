"""Exhaustive enumeration of complete VH data on small alphabets.

The search walks the corner map directly: it assigns an image to the first
uncovered corner (a, b), lets orientation closure force the rest of the
orbit, prunes on corner or image conflicts, and recurses.  Every complete,
orientation-closed square set with the given involutions is produced
exactly once; nothing is filtered through `validate`, which keeps the two
routes independent and lets the test suite cross-check one against the
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .localaction import local_groups
from .permcore import PermGroup, order
from .vhcomplex import (
    Alphabet,
    MealyAutomaton,
    VhDatum,
    horizontal_automaton,
    vertical_automaton,
)

_Orbit = tuple[tuple[int, int], ...]


def _orbit_table(horiz: Alphabet, vert: Alphabet) -> list[list[_Orbit]]:
    """forced[c][i]: the (corner, image) pairs that assigning c -> i forces.

    A corner (a, b) has index c = a*m + b and an image (a2, b2) index
    i = a2*m + b2.  The pairs are the squares of the orientation orbit of
    (a, b, a2, b2), each once, and they never clash.  Of the other three
    squares, one has corner (inv a, b2) and one (a2, inv b), so neither
    shares the corner (a, b); the third, (inv a2, inv b2, inv a, inv b),
    does only when a2 = inv a and b2 = inv b, and is then the square
    itself.  The orbit is that of a group, so this holds between any two of
    its squares, and for images by the same argument."""
    n, m = horiz.size, vert.size
    h_inv, v_inv = horiz.involution, vert.involution
    return [[tuple(dict.fromkeys((
                (a * m + b, a2 * m + b2),
                (h_inv[a] * m + b2, h_inv[a2] * m + b),
                (a2 * m + v_inv[b], a * m + v_inv[b2]),
                (h_inv[a2] * m + v_inv[b2], h_inv[a] * m + v_inv[b]),
            ))) for a2 in range(n) for b2 in range(m)]
            for a in range(n) for b in range(m)]


def enumerate_complete_data(horiz: Alphabet, vert: Alphabet) -> Iterator[VhDatum]:
    """All complete orientation-closed square sets over the two alphabets.

    The walk keeps one flat list of images by corner index, -1 while
    unset, and one of used images.  Guesses for the first unset corner are
    tried in image order, so the data come out in lexicographic order of
    that list."""
    m = vert.size
    size = horiz.size * m
    forced = _orbit_table(horiz, vert)
    letters = [divmod(x, m) for x in range(size)]
    img = [-1] * size
    used = [False] * size

    def search(pos: int) -> Iterator[list[tuple[int, int, int, int]]]:
        while pos < size and img[pos] >= 0:
            pos += 1
        if pos == size:
            # a list: tuple() of a generator grows its result by resizing,
            # past CPython's tuple free list, which then keeps one per datum
            yield [(*letters[c], *letters[i]) for c, i in enumerate(img)]
            return
        for orbit in forced[pos]:
            for c, i in orbit:
                if img[c] >= 0 or used[i]:
                    break
            else:
                for c, i in orbit:
                    img[c] = i
                    used[i] = True
                yield from search(pos + 1)
                for c, i in orbit:
                    img[c] = -1
                    used[i] = False

    try:
        for squares in search(0):
            yield VhDatum(horiz=horiz, vert=vert, squares=tuple(squares))
    finally:
        # `search` reaches itself through its closure cell; emptying the
        # cell breaks that cycle, so the walk's state is freed when the
        # generator finishes or is closed, not at the next full collection
        search = None


@dataclass
class SurveyResult:
    """Recorded output of a level-growth survey; counts are observations,
    not asserted expectations."""

    total: int = 0
    nontrivial_p1: int = 0
    growth_count: int = 0  # data with |P2| > |P1| on at least one side
    max_p1_order: int = 1
    max_p2_order: int = 1
    first_growth: Optional[VhDatum] = None
    p1_orders_seen: set = field(default_factory=set)

    @property
    def any_growth(self) -> bool:
        return self.growth_count > 0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "nontrivial_p1": self.nontrivial_p1,
            "growth_count": self.growth_count,
            "any_growth": self.any_growth,
            "max_p1_order": self.max_p1_order,
            "max_p2_order": self.max_p2_order,
            "p1_orders_seen": sorted(self.p1_orders_seen),
        }


def _level2_key(aut: MealyAutomaton) -> bytes:
    """The automaton's letter involution, its `out` rows, and for each state
    s and letter x the row out[nxt[s][x]], as bytes (letters fit in a
    byte on any alphabet the walk can finish)."""
    rows = list(map(bytes, aut.out))
    return (bytes(aut.letters.involution) + b"".join(rows)
            + b"".join([rows[t] for moves in aut.nxt for t in moves]))


def survey_level_growth(horiz: Alphabet, vert: Alphabet) -> SurveyResult:
    """Enumerate all complete data and record whether any has |P2| > |P1|.

    |P1| and |P2| are computed once per distinct `_level2_key` of the two
    automata of each datum.  P1's generators are the `out` rows.  P2's
    generator for state s is assembled from the involution, out[s] and the
    rows out[t] for t = nxt[s][x], which are P1's generators t; the
    reduced-word check and the truncation guard read nothing else.  So the
    key fixes both generator tuples, and a repeated key passes or raises
    exactly as its first occurrence did.  Underneath, a group's order
    depends only on the set of its generators, so each distinct set's order
    is computed once per call.  The T4 x T4 survey has 3,128 automata.
    With one involution on both sides they have 436 keys, and 135
    stabilizer chains are built; with two different involutions, 872 keys
    and 219 to 236 chains."""
    result = SurveyResult()
    orders: dict[frozenset, int] = {}
    levels: dict[bytes, tuple[int, ...]] = {}

    def order_of(group: PermGroup) -> int:
        key = frozenset(group.generators)
        if key not in orders:
            orders[key] = order(group)
        return orders[key]

    def level_orders(automaton: MealyAutomaton) -> tuple[int, ...]:
        key = _level2_key(automaton)
        if key not in levels:
            levels[key] = tuple(map(order_of, local_groups(automaton, 2)))
        return levels[key]

    for d in enumerate_complete_data(horiz, vert):
        result.total += 1
        growth = False
        nontrivial = False
        for automaton in (vertical_automaton(d), horizontal_automaton(d)):
            p1, p2 = level_orders(automaton)
            result.max_p1_order = max(result.max_p1_order, p1)
            result.max_p2_order = max(result.max_p2_order, p2)
            result.p1_orders_seen.add(p1)
            if p1 > 1:
                nontrivial = True
            if p2 > p1:
                growth = True
        if nontrivial:
            result.nontrivial_p1 += 1
        if growth:
            result.growth_count += 1
            if result.first_growth is None:
                result.first_growth = d
    return result
