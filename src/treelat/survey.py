"""Exhaustive enumeration of complete VH data on small alphabets.

The search walks the corner map directly: it assigns an image to the first
uncovered corner (a, b), lets orientation closure force the rest of the
orbit, prunes on corner or image conflicts, and recurses.  Every complete,
orientation-closed square set with the given involutions is produced
exactly once; nothing is filtered through `validate`, which keeps the two
routes independent and lets the test suite cross-check one against the
other.

The level-growth survey reads both automata of each datum off the walk's
lists and keys them there, and types each class of automata, equal up to
state order and letter labels, once; it builds a datum only for its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional

from .errors import ResourceCapExceeded
from .localaction import local_groups
from .permcore import PermGroup, order
from .vhcomplex import Alphabet, MealyAutomaton, VhDatum, _orientation_orbit

_Orbit = tuple[tuple[int, int], ...]


def _orbit_table(horiz: Alphabet, vert: Alphabet) -> list[list[_Orbit]]:
    """forced[c][i]: the (corner, image) pairs that assigning c -> i forces.

    A corner (a, b) has index c = a*m + b and an image (a2, b2) index
    i = a2*m + b2.  The pairs are the squares of the orientation orbit of
    (a, b, a2, b2), that square first and each once, and they never clash.
    Of the other three squares, one has corner (inv a, b2) and one
    (a2, inv b), so neither shares the corner (a, b); the third,
    (inv a2, inv b2, inv a, inv b), does only when a2 = inv a and
    b2 = inv b, and is then the square itself.  The orbit is that of a
    group, so this holds between any two of its squares, and for images
    likewise.  Each orbit is computed once, and the entry of each of its
    squares is the orbit turned to start at that square."""
    n, m = horiz.size, vert.size
    forced: list[list[_Orbit]] = [[()] * (n * m) for _ in range(n * m)]
    for c in range(n * m):
        for i in range(n * m):
            if not forced[c][i]:
                orbit = [(a * m + b, a2 * m + b2) for a, b, a2, b2
                         in _orientation_orbit(horiz, vert, (*divmod(c, m), *divmod(i, m)))]
                for k, (c2, i2) in enumerate(orbit):
                    forced[c2][i2] = (*orbit[k:], *orbit[:k])
    return forced


def _walk(horiz: Alphabet, vert: Alphabet) -> Iterator[tuple[list[int], list[int]]]:
    """Every complete orientation-closed square set over the two alphabets,
    as the walk's flat list img of images by corner index and its inverse
    pre, of corners by image index.

    Both lists hold -1 while unset; pre also marks the images in use.
    Guesses for the first unset corner are tried in image order, so the
    sets come out in lexicographic order of img.  The lists are the walk's
    own state and change when it resumes; a caller copies what it keeps."""
    size = horiz.size * vert.size
    forced = _orbit_table(horiz, vert)
    img = [-1] * size
    pre = [-1] * size

    def search(pos: int) -> Iterator[tuple[list[int], list[int]]]:
        while pos < size and img[pos] >= 0:
            pos += 1
        if pos == size:
            yield img, pre
            return
        for orbit in forced[pos]:
            for c, i in orbit:
                if img[c] >= 0 or pre[i] >= 0:
                    break
            else:
                for c, i in orbit:
                    img[c] = i
                    pre[i] = c
                yield from search(pos + 1)
                for c, i in orbit:
                    img[c] = -1
                    pre[i] = -1

    try:
        yield from search(0)
    finally:
        # `search` reaches itself through its closure cell; emptying the
        # cell breaks that cycle, so the walk's state is freed when the
        # generator finishes or is closed, not at the next full collection
        search = None


def _datum(horiz: Alphabet, vert: Alphabet, letters: list[tuple[int, int]],
           img: list[int]) -> VhDatum:
    """The datum whose corner index c has image index img[c]; letters[x]
    is the letter pair (a, b) of index x = a*m + b."""
    # a list: tuple() of a generator grows its result by resizing, past
    # CPython's tuple free list, which then keeps one per datum
    squares = [(*letters[c], *letters[i]) for c, i in enumerate(img)]
    return VhDatum(horiz=horiz, vert=vert, squares=tuple(squares))


def _letters(horiz: Alphabet, vert: Alphabet) -> list[tuple[int, int]]:
    return [divmod(x, vert.size) for x in range(horiz.size * vert.size)]


def enumerate_complete_data(horiz: Alphabet, vert: Alphabet) -> Iterator[VhDatum]:
    """All complete orientation-closed square sets over the two alphabets,
    in lexicographic order of the corner map; see `_walk`."""
    letters = _letters(horiz, vert)
    for img, _ in _walk(horiz, vert):
        yield _datum(horiz, vert, letters, img)


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


def _key(involution: bytes, out: bytes, nxt: bytes) -> bytes:
    """The letter involution, the `out` rows, and for each state s and
    letter x the row out[nxt[s][x]], as bytes; `out` and `nxt` hold the
    rows one after the other, in state order."""
    width = len(involution)
    rows = [out[k:k + width] for k in range(0, len(out), width)]
    return involution + out + b"".join([rows[t] for t in nxt])


def _automaton_from_rows(states: Alphabet, letters: Alphabet, out: bytes,
                         nxt: bytes) -> MealyAutomaton:
    """The automaton of the flat rows `out` and `nxt`, as in `_key`."""
    width = letters.size
    return MealyAutomaton(
        states=states, letters=letters,
        out=tuple(tuple(out[k:k + width]) for k in range(0, len(out), width)),
        nxt=tuple(tuple(nxt[k:k + width]) for k in range(0, len(nxt), width)))


def _relabelling(letters: Alphabet, states: int) -> tuple[bytes, bytes, itemgetter]:
    """The standard involution on as many letters, and for the map λ that
    sends the i-th 2-cycle of `letters`' involution, ordered by its smaller
    point, to (2i, 2i+1): its translate table, and the itemgetter that
    moves entry x of each of `states` flat rows to position λx."""
    involution, width = letters.involution, letters.size
    lam = [0] * width
    for i, x in enumerate([x for x in range(width) if x < involution[x]]):
        lam[x], lam[involution[x]] = 2 * i, 2 * i + 1
    back = sorted(range(width), key=lam.__getitem__)
    return (bytes(Alphabet.with_adjacent_pairs(width).involution),
            bytes.maketrans(bytes(range(width)), bytes(lam)),
            itemgetter(*[q * width + x for q in range(states) for x in back]))


def _class_form(relabelling: tuple[bytes, bytes, itemgetter], out: bytes,
                nxt: bytes) -> tuple[bytes, bytes, bytes]:
    """The class key and the flat `out` and `nxt` rows of the automaton's
    class form: its letters relabelled by λ, then its states renumbered in
    order of their sort bytes; see `survey_level_growth`."""
    involution, table, positions = relabelling
    width = len(involution)
    out, nxt = bytes(positions(out.translate(table))), bytes(positions(nxt))
    rows = [out[k:k + width] for k in range(0, len(out), width)]
    moves = [nxt[k:k + width] for k in range(0, len(nxt), width)]
    sort = [row + b"".join([rows[t] for t in step]) for row, step in zip(rows, moves)]
    order = sorted(range(len(rows)), key=sort.__getitem__)
    out = b"".join([rows[q] for q in order])
    nxt = b"".join([moves[q] for q in order]).translate(
        bytes.maketrans(bytes(order), bytes(range(len(order)))))
    return _key(involution, out, nxt), out, nxt


def _walk_keys(horiz: Alphabet, vert: Alphabet) -> Iterator[
        tuple[list[int], tuple[bytes, bytes, bytes], tuple[bytes, bytes, bytes]]]:
    """For each set of `_walk`: img, and the key and the flat `out` and
    `nxt` rows of its vertical and of its horizontal automaton, read off
    img and pre as `survey_level_growth` says.  Indices are kept in bytes,
    so at most 256 corners are taken, far more than any walk can finish."""
    n, m = horiz.size, vert.size
    if n * m > 256:
        raise ResourceCapExceeded(
            f"the survey takes at most 256 corners, got {n} x {m} = {n * m}")
    indices = bytes(range(n * m))
    high = bytes.maketrans(indices, bytes(x // m for x in indices))
    low = bytes.maketrans(indices, bytes(x % m for x in indices))
    # the indices a*m + b in order of (b, a)
    by_column = itemgetter(*[a * m + b for b in range(m) for a in range(n)])
    h_involution, v_involution = bytes(horiz.involution), bytes(vert.involution)
    for img, pre in _walk(horiz, vert):
        h, v = bytes(img), bytes(by_column(pre))
        v_out, v_nxt = v.translate(high), v.translate(low)
        h_out, h_nxt = h.translate(low), h.translate(high)
        yield (img, (_key(h_involution, v_out, v_nxt), v_out, v_nxt),
               (_key(v_involution, h_out, h_nxt), h_out, h_nxt))


def survey_level_growth(horiz: Alphabet, vert: Alphabet) -> SurveyResult:
    """Enumerate all complete data and record whether any has |P2| > |P1|.

    The automata are read off the walk's lists, with no datum built but
    the recorded `first_growth`.  A square (a, b, a2, b2) has corner index
    c = a*m + b and image index i = a2*m + b2 = img[c], and pre[i] = c.
    The horizontal automaton has out[a][b] = img[a*m + b] % m and
    nxt[a][b] = img[a*m + b] // m.  The vertical one has
    out[b][a] = pre[a*m + b] // m and nxt[b][a] = pre[a*m + b] % m.

    |P1| and |P2| are computed once per class: the automata equal up to
    renumbering their states and relabelling their letters onto the
    standard involution 0<->1, 2<->3, ...  An automaton's `_key` is looked
    up first.  P1's generators are the `out` rows.  P2's generator for
    state s is assembled from the involution, out[s] and the rows out[t]
    for t = nxt[s][x], which are P1's generators t; the reduced-word check
    and the truncation guard read nothing else.  So the key fixes both
    generator tuples, and a repeated key passes or raises exactly as its
    first occurrence did.  On a miss the class key is looked up, and on a
    class miss the class form is built and typed; the flags are stored
    under both keys.

    The class form: with w letters and involution ι, λ sends the i-th
    2-cycle of ι, ordered by its smaller point, to (2i, 2i+1), the pairs
    of the standard ι'.  The letters are relabelled, out'[q][λx] =
    λ(out[q][x]) and nxt'[q][λx] = nxt[q][x], then the states renumbered
    in order of the bytes out'[q] + out'[nxt'[q][0]] + ... +
    out'[nxt'[q][w-1]].  The class key is `_key` of the result, with ι'.
    - φ(x1...xk) = λx1...λxk is a bijection from the ι-reduced words to
      the ι'-reduced ones, as y = ιx exactly when λy = ι'λx, and it
      commutes with truncation.  State q of the relabelled automaton sends
      φ(v) to φ(q.v), so each P_k' = φP_kφ⁻¹, of the same order.
    - λ carries each equation of the permutation check, the reduced-word
      check (out[t][ιx] = ι out[s][x] for t = nxt[s][x]) and the
      truncation guard to the same equation of the relabelled automaton,
      so they hold for both or for neither.
    - Renumbering the states only reorders the generator tuples and the
      checks' equations.  Two states with equal sort bytes have equal P1
      and P2 generators, as those bytes fix them, so ties do not matter.
    A class is built from its class form, on standard alphabets, so what
    a survey builds does not depend on the involutions.  The T4 x T4
    survey has 3,128 automata: 436 keys with one involution on both
    sides, 872 with two, and 86 classes either way.  It builds 172 local
    groups and, as a group's order depends only on the set of its
    generators and each set's order is computed once per call, 135
    stabilizer chains.

    Every check of the route through `VhDatum` and `vertical_automaton`
    still holds, or is decided once per class:
    - a state reading a letter in more than one square, or in none: the
      walk yields only when img is total (every corner up to `size` has
      an image) and injective (pre marks each image used), so each corner,
      and each image, lies in exactly one square;
    - `VhDatum`'s letter range checks: every index is below n*m, so its
      quotient by m is below n and its remainder below m;
    - `MealyAutomaton`'s permutation check and `local_groups`'
      reduced-word check and truncation guard run on the class form, on
      the class's first occurrence, and decide every member, as above."""
    result = SurveyResult()
    orders: dict[frozenset, int] = {}
    # key or class key -> 1 if |P1| > 1, plus 2 if |P2| > |P1|
    flags: dict[bytes, int] = {}
    levels: list[tuple[int, int]] = []

    def order_of(group: PermGroup) -> int:
        key = frozenset(group.generators)
        if key not in orders:
            orders[key] = order(group)
        return orders[key]

    # per side: the class form's states and letters, and λ
    sides = [(Alphabet.with_adjacent_pairs(states.size), Alphabet.with_adjacent_pairs(letters.size),
              _relabelling(letters, states.size))
             for states, letters in ((vert, horiz), (horiz, vert))]
    for img, *keyed in _walk_keys(horiz, vert):
        result.total += 1
        found = 0
        for (states, letters, relabelling), (key, out, nxt) in zip(sides, keyed):
            if key not in flags:
                cls, out, nxt = _class_form(relabelling, out, nxt)
                if cls not in flags:
                    automaton = _automaton_from_rows(states, letters, out, nxt)
                    p1, p2 = map(order_of, local_groups(automaton, 2))
                    levels.append((p1, p2))
                    flags[cls] = (p1 > 1) | (p2 > p1) << 1
                flags[key] = flags[cls]
            found |= flags[key]
        result.nontrivial_p1 += found & 1
        if found & 2:
            result.growth_count += 1
            if result.first_growth is None:
                result.first_growth = _datum(horiz, vert, _letters(horiz, vert), img)
    for p1, p2 in levels:
        result.max_p1_order = max(result.max_p1_order, p1)
        result.max_p2_order = max(result.max_p2_order, p2)
        result.p1_orders_seen.add(p1)
    return result
