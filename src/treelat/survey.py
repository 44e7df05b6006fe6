"""Exhaustive enumeration of complete VH data on small alphabets.

The search walks the corner map directly: it assigns an image to the first
uncovered corner (a, b), lets orientation closure force the rest of the
orbit, prunes on corner or image conflicts, and recurses.  Every complete,
orientation-closed square set with the given involutions is produced
exactly once; nothing is filtered through `validate`, which keeps the two
routes independent and lets the test suite cross-check one against the
other.

The level-growth survey reads both automata of each datum off the walk's
lists and keys each by its class there, and types each class of automata,
equal up to state order and every relabelling of the letters that keeps
the involution, once; it builds a datum only for its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
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
    classes_typed: int = 0  # automaton classes whose local groups were built

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


def _standard_relabelling(involution: tuple[int, ...]) -> list[int]:
    """λ: the i-th 2-cycle of `involution`, ordered by its smaller point,
    goes to (2i, 2i+1), a 2-cycle of the standard involution x <-> x^1."""
    lam = [0] * len(involution)
    for i, x in enumerate([x for x in range(len(involution)) if x < involution[x]]):
        lam[x], lam[involution[x]] = 2 * i, 2 * i + 1
    return lam


def _centralizer(width: int) -> list[tuple[int, ...]]:
    """The letter permutations μ that commute with x <-> x^1, the identity
    first: μ(2i + e) = 2π(i) + (e xor f_i), for a permutation π of the
    pairs and flips f, so 2^k k! of them on k pairs."""
    pairs = width // 2
    return [tuple(2 * p + (e ^ (flips >> i & 1)) for i, p in enumerate(perm) for e in (0, 1))
            for perm in permutations(range(pairs)) for flips in range(2 ** pairs)]


class _Side:
    """How the survey reads and keys one automaton of each walked set.

    `rows(entries)` gives the flat `out` and `nxt` rows of the automaton
    with its letters relabelled by λ, from the walk's list `entries` (pre
    for the vertical automaton, img for the horizontal one); `entry(q, x)`
    is the list index that holds state q's move on letter x, and
    `split[v]` the (letter, state) pair an entry v encodes."""

    def __init__(self, states: int, letters: Alphabet, entry, split) -> None:
        width = letters.size
        lam = _standard_relabelling(letters.involution)
        back = sorted(range(width), key=lam.__getitem__)
        self.states = Alphabet.with_adjacent_pairs(states)
        self.letters = Alphabet.with_adjacent_pairs(width)
        self.width = width
        self.prefix = bytes([width])
        self._gather = itemgetter(*[entry(q, x) for q in range(states) for x in back])
        self._out = bytes(lam[y] for y, _ in split).ljust(256, b"\0")
        self._nxt = bytes(t for _, t in split).ljust(256, b"\0")
        # per μ: its translate table, the positions that move each
        # state's bytes to those of the relabelled automaton, and those
        # that move the flat rows
        chunk = width * (width + 1)
        self._relabellings = []
        for mu in _centralizer(width):
            inv = sorted(range(width), key=mu.__getitem__)
            in_chunk = [b * width + inv[y] for b in [0, *(1 + x for x in inv)] for y in range(width)]
            self._relabellings.append((
                bytes.maketrans(bytes(range(width)), bytes(mu)),
                itemgetter(*[q * chunk + p for q in range(states) for p in in_chunk]),
                itemgetter(*[q * width + inv[y] for q in range(states) for y in range(width)])))

    def rows(self, entries: list[int]) -> tuple[bytes, bytes]:
        raw = bytes(self._gather(entries))
        return raw.translate(self._out), raw.translate(self._nxt)

    def key(self, out: bytes, nxt: bytes) -> bytes:
        """The class key: the width, then the sorted bytes of the states,
        each its row out[q] and then the rows out[t] for t = nxt[q][x]."""
        width = self.width
        rows = [out[k:k + width] for k in range(0, len(out), width)]
        moved = b"".join([rows[t] for t in nxt])
        size = width * width
        return self.prefix + b"".join(sorted([
            row + moved[k:k + size] for row, k in zip(rows, range(0, len(moved), size))]))

    def least(self, key: bytes) -> tuple[bytes, int]:
        """The least class key over the relabellings μ, and the index of a
        μ that gives it."""
        body = key[1:]
        chunk = self.width * (self.width + 1)
        forms = []
        for index, (table, in_states, _) in enumerate(self._relabellings):
            moved = bytes(in_states(body)).translate(table)
            forms.append((self.prefix + b"".join(sorted([
                moved[k:k + chunk] for k in range(0, len(moved), chunk)])), index))
        return min(forms)

    def automaton(self, out: bytes, nxt: bytes, index: int) -> MealyAutomaton:
        """The automaton of the rows relabelled by the index-th μ."""
        table, _, in_rows = self._relabellings[index]
        out, nxt = bytes(in_rows(out)).translate(table), bytes(in_rows(nxt))
        width = self.width
        return MealyAutomaton(
            states=self.states, letters=self.letters,
            out=tuple(tuple(out[k:k + width]) for k in range(0, len(out), width)),
            nxt=tuple(tuple(nxt[k:k + width]) for k in range(0, len(nxt), width)))


def _sides(horiz: Alphabet, vert: Alphabet) -> tuple[_Side, _Side]:
    """The vertical and the horizontal side, read off pre and img as
    `survey_level_growth` says.  Indices are kept in bytes, so at most 256
    corners are taken, far more than any walk can finish."""
    n, m = horiz.size, vert.size
    if n * m > 256:
        raise ResourceCapExceeded(
            f"the survey takes at most 256 corners, got {n} x {m} = {n * m}")
    return (_Side(m, horiz, lambda b, a: a * m + b, [divmod(c, m) for c in range(n * m)]),
            _Side(n, vert, lambda a, b: a * m + b,
                  [divmod(i, m)[::-1] for i in range(n * m)]))


def survey_level_growth(horiz: Alphabet, vert: Alphabet) -> SurveyResult:
    """Enumerate all complete data and record whether any has |P2| > |P1|.

    The automata are read off the walk's lists, with no datum built but
    the recorded `first_growth`.  A square (a, b, a2, b2) has corner index
    c = a*m + b and image index i = a2*m + b2 = img[c], and pre[i] = c.
    The horizontal automaton has out[a][b] = img[a*m + b] % m and
    nxt[a][b] = img[a*m + b] // m.  The vertical one has
    out[b][a] = pre[a*m + b] // m and nxt[b][a] = pre[a*m + b] % m.

    |P1| and |P2| are computed once per class: the automata equal up to
    renumbering their states and relabelling their letters by any
    bijection that carries one's involution to the other's.  Each
    automaton is read with its letters relabelled by λ, which sends the
    i-th 2-cycle of its involution ι, ordered by its smaller point, to
    (2i, 2i+1), a pair of the standard involution ι' = x <-> x^1:
    out'[q][λx] = λ(out[q][x]) and nxt'[q][λx] = nxt[q][x].  With w
    letters, state q's bytes are out'[q] + out'[nxt'[q][0]] + ... +
    out'[nxt'[q][w-1]], and the class key is w followed by the states'
    bytes in sorted order.  On a class key not seen before, the least
    class key over the relabellings μ that commute with ι' is taken:
    those of C2≀C2, of order 8, on 4 letters, and of C2≀S3, of order 48,
    on 6.  On a least key not seen before either, the automaton relabelled
    by a μ that gives it is built and typed.  The flags are stored under
    both keys, and a key of one width never equals a key of another.

    (i) The class key fixes P1, P2 and the checks.  P1's generators are
    the `out` rows.  P2's generator for state s is assembled from the
    involution, out[s] and the rows out[t] for t = nxt[s][x], which are
    P1's generators t; the reduced-word check (out[t][ιx] = ι out[s][x]
    for t = nxt[s][x]) and the truncation guard read nothing else.  So
    P1's and P2's generator sets, and whether the checks pass, depend only
    on the set of the states' bytes, which the class key fixes; in
    particular renumbering the states changes nothing, and two states with
    equal bytes have equal generators, so ties in the sort do not matter.

    (ii) A relabelling keeps |P1|, |P2| and the checks.  Let μ be a letter
    bijection with μι = ι''μ, and relabel out''[q][μx] = μ(out[q][x]) and
    nxt''[q][μx] = nxt[q][x].
    - φ(x1...xk) = μx1...μxk is a bijection from the ι-reduced words to
      the ι''-reduced ones, as y = ιx exactly when μy = ι''μx, and it
      commutes with truncation.  State q of the relabelled automaton sends
      φ(v) to φ(q.v), so each P_k'' = φP_kφ⁻¹, of the same order.
    - μ carries each equation of the permutation check, the reduced-word
      check and the truncation guard to the same equation of the
      relabelled automaton, so they hold for both or for neither.
    λ is such a bijection from ι to ι', each μ above one from ι' to ι',
    and so is their composite.  So two automata with one class key, or
    with one least key, have the same |P1| and |P2| and pass or fail the
    checks together, and a class is built on standard alphabets whatever
    the survey's involutions.  The T4 x T4 survey has 3,128 automata, with
    86 class keys and 44 least keys on every pairing of involutions.  It
    builds 88 local groups and, as a group's order depends only on the set
    of its generators and each set's order is computed once per call, 72
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
      reduced-word check and truncation guard run on the automaton built
      for the class, on the class's first occurrence, and decide every
      member, as above."""
    sides = _sides(horiz, vert)
    result = SurveyResult()
    orders: dict[frozenset, int] = {}
    # class key or least key -> 1 if |P1| > 1, plus 2 if |P2| > |P1|
    flags: dict[bytes, int] = {}
    levels: list[tuple[int, int]] = []

    def order_of(group: PermGroup) -> int:
        key = frozenset(group.generators)
        if key not in orders:
            orders[key] = order(group)
        return orders[key]

    for img, pre in _walk(horiz, vert):
        result.total += 1
        found = 0
        for side, entries in zip(sides, (pre, img)):
            out, nxt = side.rows(entries)
            key = side.key(out, nxt)
            if key not in flags:
                least, index = side.least(key)
                if least not in flags:
                    p1, p2 = map(order_of, local_groups(side.automaton(out, nxt, index), 2))
                    levels.append((p1, p2))
                    flags[least] = (p1 > 1) | (p2 > p1) << 1
                flags[key] = flags[least]
            found |= flags[key]
        result.nontrivial_p1 += found & 1
        if found & 2:
            result.growth_count += 1
            if result.first_growth is None:
                result.first_growth = _datum(horiz, vert, _letters(horiz, vert), img)
    result.classes_typed = len(levels)
    for p1, p2 in levels:
        result.max_p1_order = max(result.max_p1_order, p1)
        result.max_p2_order = max(result.max_p2_order, p2)
        result.p1_orders_seen.add(p1)
    return result
