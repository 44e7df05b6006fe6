"""One-vertex VH square-complex data and the derived Mealy automata.

A datum consists of two alphabets with fixed-point-free involutions
(horizontal and vertical letters with their inverses) and a set of
oriented squares (a, b, a2, b2), each encoding the relation

    a . b  =  b2 . a2        (horizontal-then-vertical = vertical-then-horizontal)

stored first-corner-major.  A complete, orientation-closed square set is
exactly the combinatorial description of a one-vertex square complex whose
universal cover is the product of the two regular trees; completeness of
the corner map is the criterion implemented here (the equivalence with the
link condition is standard and not re-proven by the tool).

Orientation closure: (a, b, a2, b2) in the set forces

    (inv a, b2, inv a2, b)   and   (a2, inv b, a, inv b2)

and hence also the double application (inv a2, inv b2, inv a, inv b).
Orbits under these rules have size 4, or size 2 exactly when
(a2, b2) = (inv a, inv b) (self-paired squares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    InvalidDatum,
    InvolutionNotFpf,
    MalformedDocument,
    OddAlphabet,
)

Square = tuple[int, int, int, int]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class Alphabet:
    """Letter set 0..size-1 with a fixed-point-free involution (inverses)."""

    size: int
    involution: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "involution", tuple(self.involution))
        if self.size < 2 or self.size % 2 != 0:
            raise OddAlphabet(f"alphabet size must be an even integer >= 2, got {self.size}")
        if len(self.involution) != self.size:
            raise InvolutionNotFpf(
                f"involution has length {len(self.involution)}, expected {self.size}")
        for i, j in enumerate(self.involution):
            if not isinstance(j, int) or not 0 <= j < self.size:
                raise InvolutionNotFpf(f"involution[{i}] = {j!r} out of range")
            if j == i:
                raise InvolutionNotFpf(f"involution fixes letter {i}")
            if self.involution[j] != i:
                raise InvolutionNotFpf(f"involution not an involution at letter {i}")

    def inv(self, letter: int) -> int:
        return self.involution[letter]

    @staticmethod
    def with_adjacent_pairs(size: int) -> "Alphabet":
        """Involution 0<->1, 2<->3, ..."""
        inv = []
        for i in range(0, size, 2):
            inv.extend([i + 1, i])
        return Alphabet(size=size, involution=tuple(inv))


def _orientation_orbit(h: Alphabet, v: Alphabet, sq: Square) -> set[Square]:
    a, b, a2, b2 = sq
    return {
        (a, b, a2, b2),
        (h.inv(a), b2, h.inv(a2), b),
        (a2, v.inv(b), a, v.inv(b2)),
        (h.inv(a2), v.inv(b2), h.inv(a), v.inv(b)),
    }


@dataclass(frozen=True)
class VhDatum:
    """Paired alphabets plus oriented squares, first-corner-major."""

    horiz: Alphabet
    vert: Alphabet
    squares: tuple[Square, ...]
    name: Optional[str] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        canon = []
        for sq in self.squares:
            t = tuple(sq)
            if len(t) != 4:
                raise MalformedDocument(f"square {sq!r} is not a 4-tuple")
            a, b, a2, b2 = t
            for x in (a, a2):
                if not isinstance(x, int) or not 0 <= x < self.horiz.size:
                    raise MalformedDocument(f"horizontal letter {x!r} out of range in {t}")
            for x in (b, b2):
                if not isinstance(x, int) or not 0 <= x < self.vert.size:
                    raise MalformedDocument(f"vertical letter {x!r} out of range in {t}")
            canon.append(t)
        object.__setattr__(self, "squares", tuple(sorted(canon)))

    @property
    def n(self) -> int:
        return self.horiz.size

    @property
    def m(self) -> int:
        return self.vert.size


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]
    geometric_count: Optional[int] = None

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "violations": list(self.violations),
                "warnings": list(self.warnings),
                "geometric_count": self.geometric_count}


def validate(d: VhDatum, strict: bool = False) -> ValidationReport:
    """Check completeness (the corner map is a total bijection) and
    orientation closure; violations carry the offending pair or tuple."""
    violations: list[str] = []
    warnings: list[str] = []
    n, m = d.n, d.m

    if len(d.squares) != n * m:
        violations.append(f"expected {n * m} oriented squares, found {len(d.squares)}")

    by_corner: dict[tuple[int, int], list[Square]] = {}
    by_image: dict[tuple[int, int], list[Square]] = {}
    for sq in d.squares:
        a, b, a2, b2 = sq
        by_corner.setdefault((a, b), []).append(sq)
        by_image.setdefault((b2, a2), []).append(sq)
    for a in range(n):
        for b in range(m):
            hits = by_corner.get((a, b), [])
            if not hits:
                violations.append(f"no square with first corner ({a},{b})")
            elif len(hits) > 1:
                violations.append(f"pair ({a},{b}) covered twice: {hits}")
    for b2 in range(m):
        for a2 in range(n):
            hits = by_image.get((b2, a2), [])
            if not hits:
                violations.append(f"no square with image pair ({b2},{a2})")
            elif len(hits) > 1:
                violations.append(f"image pair ({b2},{a2}) covered twice: {hits}")

    square_set = set(d.squares)
    closure_ok = True
    for sq in sorted(square_set):
        for forced in sorted(_orientation_orbit(d.horiz, d.vert, sq) - {sq}):
            if forced not in square_set:
                closure_ok = False
                violations.append(
                    f"orientation closure broken: {sq} present but {forced} missing")

    geometric_count = None
    if closure_ok and not violations:
        seen: set[Square] = set()
        count = 0
        self_paired = 0
        for sq in d.squares:
            if sq in seen:
                continue
            orbit = _orientation_orbit(d.horiz, d.vert, sq)
            seen.update(orbit)
            count += 1
            if len(orbit) == 2:
                self_paired += 1
        geometric_count = count
        if self_paired:
            msg = f"{self_paired} self-paired square(s) (orientation orbit of size 2)"
            if strict:
                violations.append(msg + " rejected in strict mode")
            else:
                warnings.append(msg)

    if d.n == 2 or d.m == 2:
        warnings.append("alphabet of size 2: the corresponding tree is degenerate (a line)")

    return ValidationReport(ok=not violations,
                            violations=tuple(violations),
                            warnings=tuple(warnings),
                            geometric_count=geometric_count)


# ---------------------------------------------------------------------------
# Mealy automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MealyAutomaton:
    """Transition system whose states rewrite words over the other side's
    letters: out[s][x] is the emitted letter, nxt[s][x] the next state."""

    states: Alphabet
    letters: Alphabet
    out: tuple[tuple[int, ...], ...]
    nxt: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for s in range(self.states.size):
            if sorted(self.out[s]) != list(range(self.letters.size)):
                raise InvalidDatum(
                    f"state {s}: output row {self.out[s]} is not a permutation of letters")


def _automaton(states: Alphabet, letters: Alphabet,
               moves: Iterable[tuple[int, int, int, int]]) -> MealyAutomaton:
    """The automaton with out[s][x] = y and nxt[s][x] = t for each move
    (s, x, y, t); every state must read every letter in exactly one move."""
    out = [[-1] * letters.size for _ in range(states.size)]
    nxt = [[-1] * letters.size for _ in range(states.size)]
    for s, x, y, t in moves:
        if out[s][x] != -1:
            raise InvalidDatum(f"state {s} reads letter {x} in more than one square")
        out[s][x] = y
        nxt[s][x] = t
    for s, row in enumerate(out):
        if -1 in row:
            raise InvalidDatum(f"no square where state {s} reads letter {row.index(-1)}")
    return MealyAutomaton(states=states, letters=letters,
                          out=tuple(map(tuple, out)), nxt=tuple(map(tuple, nxt)))


def vertical_automaton(d: VhDatum) -> MealyAutomaton:
    """States are the vertical letters, input letters the horizontal ones;
    row b sends a to a* with next state b*, from b . a = a* . b*, that is
    from the square (a*, b*, a, b)."""
    return _automaton(d.vert, d.horiz,
                      ((b, a, a_star, b_star) for a_star, b_star, a, b in d.squares))


def horizontal_automaton(d: VhDatum) -> MealyAutomaton:
    """Dual construction: states are horizontal letters acting on vertical
    words, row a sends b to b2 with next state a2, from a . b = b2 . a2."""
    return _automaton(d.horiz, d.vert,
                      ((a, b, b2, a2) for a, b, a2, b2 in d.squares))


def automaton_for_side(d: VhDatum, side: str) -> MealyAutomaton:
    """The automaton whose states generate the local action on the given
    side's tree: the other side's letters are the states."""
    if side == HORIZONTAL:
        return vertical_automaton(d)
    if side == VERTICAL:
        return horizontal_automaton(d)
    raise MalformedDocument(f"side must be '{HORIZONTAL}' or '{VERTICAL}', got {side!r}")


def dual(d: VhDatum) -> VhDatum:
    """Swap the two sides; squares re-orient by tuple reversal."""
    return VhDatum(horiz=d.vert, vert=d.horiz,
                   squares=tuple(tuple(reversed(sq)) for sq in d.squares),
                   name=d.name, source=d.source)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _involution_from_pairs(size: int, pairs, label: str) -> Alphabet:
    if not isinstance(pairs, list):
        raise MalformedDocument(f"{label} must be a list of 2-element lists")
    inv = [-1] * size
    for pair in pairs:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(x) is int for x in pair)):
            raise MalformedDocument(f"{label} entry {pair!r} is not a pair of letters")
        i, j = pair
        if not (0 <= i < size and 0 <= j < size):
            raise MalformedDocument(f"{label} entry {pair!r} out of range 0..{size - 1}")
        if inv[i] != -1 or inv[j] != -1:
            raise InvolutionNotFpf(f"{label}: letter in {pair!r} paired twice")
        inv[i], inv[j] = j, i
    if -1 in inv:
        raise InvolutionNotFpf(f"{label}: letter {inv.index(-1)} left unpaired")
    return Alphabet(size=size, involution=tuple(inv))


def parse_datum(document: dict) -> VhDatum:
    """Parse the datum JSON document; geometric squares (oriented=false,
    the default) are expanded to their full orientation orbits."""
    if not isinstance(document, dict):
        raise MalformedDocument("datum document must be a JSON object")
    try:
        n = document["n"]
        m = document["m"]
        h_pairs = document["h_involution"]
        v_pairs = document["v_involution"]
        raw_squares = document["squares"]
    except (KeyError, TypeError) as exc:
        raise MalformedDocument(f"missing field in datum document: {exc}") from exc
    # `type(x) is int` also rejects JSON booleans, which are ints to Python
    if type(n) is not int or type(m) is not int:
        raise MalformedDocument("n and m must be integers")
    if n % 2 or m % 2 or n < 2 or m < 2:
        raise OddAlphabet(f"alphabet sizes must be even integers >= 2, got n={n}, m={m}")
    horiz = _involution_from_pairs(n, h_pairs, "h_involution")
    vert = _involution_from_pairs(m, v_pairs, "v_involution")
    oriented = document.get("oriented", False)
    if not isinstance(raw_squares, list):
        raise MalformedDocument("squares must be a list of 4-element lists")
    squares: list[Square] = []
    for sq in raw_squares:
        if not isinstance(sq, list) or len(sq) != 4 or not all(type(x) is int for x in sq):
            raise MalformedDocument(f"square {sq!r} is not a list of 4 letters")
        squares.append(tuple(sq))
    if not oriented:
        expanded: set[Square] = set()
        for sq in squares:
            a, b, a2, b2 = sq
            if not (0 <= a < n and 0 <= a2 < n and 0 <= b < m and 0 <= b2 < m):
                raise MalformedDocument(f"square {sq!r} has letters out of range")
            expanded |= _orientation_orbit(horiz, vert, sq)
        squares = sorted(expanded)
    return VhDatum(horiz=horiz, vert=vert, squares=tuple(squares),
                   name=document.get("name"), source=document.get("source"))


def _involution_pairs(alphabet: Alphabet) -> list[list[int]]:
    return [[i, alphabet.inv(i)] for i in range(alphabet.size) if i < alphabet.inv(i)]


def serialize_datum(d: VhDatum, oriented: bool = False) -> dict:
    """Inverse of parse_datum up to square ordering.

    By default emits canonical geometric representatives (the smallest
    tuple of each orientation orbit); falls back to the full oriented list
    when the square set is not orientation-closed.
    """
    squares: list[Square]
    emit_oriented = oriented
    if not oriented:
        square_set = set(d.squares)
        reps = []
        seen: set[Square] = set()
        closed = True
        for sq in d.squares:
            if sq in seen:
                continue
            orbit = _orientation_orbit(d.horiz, d.vert, sq)
            if not orbit <= square_set:
                closed = False
                break
            seen.update(orbit)
            reps.append(min(orbit))
        if closed and len(seen) == len(d.squares):
            squares = sorted(reps)
        else:
            emit_oriented = True
            squares = list(d.squares)
    else:
        squares = list(d.squares)
    doc = {
        "n": d.n,
        "m": d.m,
        "h_involution": _involution_pairs(d.horiz),
        "v_involution": _involution_pairs(d.vert),
        "oriented": emit_oriented,
        "squares": [list(sq) for sq in squares],
    }
    if d.name is not None:
        doc["name"] = d.name
    if d.source is not None:
        doc["source"] = d.source
    return doc


def commuting_datum(n: int, m: int, name: Optional[str] = None) -> VhDatum:
    """The datum whose squares all read a.b = b.a (direct-product complex);
    both derived automata are the identity."""
    horiz = Alphabet.with_adjacent_pairs(n)
    vert = Alphabet.with_adjacent_pairs(m)
    squares = tuple((a, b, a, b) for a in range(n) for b in range(m))
    return VhDatum(horiz=horiz, vert=vert, squares=squares,
                   name=name or f"commuting_t{n}x{m}",
                   source="direct product construction (built in)")
