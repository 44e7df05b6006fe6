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
from typing import Callable, Iterator, Optional

from .localaction import _local_group_from_automaton, sphere_index
from .permcore import order
from .vhcomplex import (
    Alphabet,
    VhDatum,
    horizontal_automaton,
    vertical_automaton,
)


def enumerate_complete_data(horiz: Alphabet, vert: Alphabet) -> Iterator[VhDatum]:
    """All complete orientation-closed square sets over the two alphabets."""
    n, m = horiz.size, vert.size
    h_inv, v_inv = horiz.involution, vert.involution
    corners = [(a, b) for a in range(n) for b in range(m)]
    corner_idx = {c: i for i, c in enumerate(corners)}
    assign: list[Optional[tuple[int, int]]] = [None] * (n * m)
    used_img = [False] * (n * m)

    def orbit_assignments(a: int, b: int, a2: int, b2: int
                          ) -> Optional[list[tuple[int, int]]]:
        forced = [
            ((a, b), (a2, b2)),
            ((h_inv[a], b2), (h_inv[a2], b)),
            ((a2, v_inv[b]), (a, v_inv[b2])),
            ((h_inv[a2], v_inv[b2]), (h_inv[a], v_inv[b])),
        ]
        merged: dict[tuple[int, int], tuple[int, int]] = {}
        for corner, image in forced:
            if merged.get(corner, image) != image:
                return None
            merged[corner] = image
        images = list(merged.values())
        if len(set(images)) != len(images):
            return None
        return list(merged.items())

    def search(start: int) -> Iterator[list[tuple[int, int, int, int]]]:
        pos = start
        while pos < len(corners) and assign[pos] is not None:
            pos += 1
        if pos == len(corners):
            yield [(a, b, *assign[corner_idx[(a, b)]]) for a, b in corners]
            return
        a, b = corners[pos]
        for a2 in range(n):
            for b2 in range(m):
                orbit = orbit_assignments(a, b, a2, b2)
                if orbit is None:
                    continue
                ok = True
                for corner, image in orbit:
                    ci = corner_idx[corner]
                    ii = image[0] * m + image[1]
                    if (assign[ci] is not None and corner != (a, b)) or used_img[ii]:
                        ok = False
                        break
                    if corner == (a, b) and assign[ci] is not None:
                        ok = False
                        break
                if not ok:
                    continue
                for corner, image in orbit:
                    assign[corner_idx[corner]] = image
                    used_img[image[0] * m + image[1]] = True
                yield from search(pos + 1)
                for corner, image in orbit:
                    assign[corner_idx[corner]] = None
                    used_img[image[0] * m + image[1]] = False

    for squares in search(0):
        yield VhDatum(horiz=horiz, vert=vert, squares=tuple(squares))


@dataclass
class SurveyResult:
    """Recorded output of a level-growth survey; counts are observations,
    not asserted expectations."""

    total: int = 0
    nontrivial_p1: int = 0
    growth_count: int = 0  # data with |P2| > |P1| on at least one side
    max_p1_order: int = 1
    max_p2_order: int = 1
    first_nontrivial: Optional[VhDatum] = None
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


def survey_level_growth(horiz: Alphabet, vert: Alphabet,
                        progress: Optional[Callable[[int], None]] = None
                        ) -> SurveyResult:
    """Enumerate all complete data and record whether any has |P2| > |P1|."""
    result = SurveyResult()
    # the vertical automaton acts on horizontal words and vice versa; both
    # alphabets are fixed, so their spheres are indexed once per survey
    spheres = [(sphere_index(letters, 1), sphere_index(letters, 2))
               for letters in (horiz, vert)]
    for d in enumerate_complete_data(horiz, vert):
        result.total += 1
        growth = False
        nontrivial = False
        automata = (vertical_automaton(d), horizontal_automaton(d))
        for automaton, (sphere1, sphere2) in zip(automata, spheres):
            p1 = order(_local_group_from_automaton(automaton, sphere1))
            p2 = order(_local_group_from_automaton(automaton, sphere2))
            result.max_p1_order = max(result.max_p1_order, p1)
            result.max_p2_order = max(result.max_p2_order, p2)
            result.p1_orders_seen.add(p1)
            if p1 > 1:
                nontrivial = True
            if p2 > p1:
                growth = True
        if nontrivial:
            result.nontrivial_p1 += 1
            if result.first_nontrivial is None:
                result.first_nontrivial = d
        if growth:
            result.growth_count += 1
            if result.first_growth is None:
                result.first_growth = d
        if progress and result.total % 1000 == 0:
            progress(result.total)
    return result
