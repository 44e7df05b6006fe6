"""Local groups on tree spheres and the discreteness verdict.

For one side of a valid datum, the states of the other side's automaton
act on reduced words over this side's alphabet.  Restricting to the words
of length k gives a permutation group P_k on the radius-k sphere of the
regular tree; P_1 is the local permutation group of the projection's
closure, and the tower P_1, P_2, ... stabilizing in order is the
computational signature of a discrete projection.

Spheres rather than balls: an automorphism fixing the center and the
radius-k sphere pointwise fixes the whole ball, so nothing is lost and
the permutation degree stays as small as possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    DepthOverflow,
    InternalInvariantError,
    LetterOutOfRange,
    TowerTooShort,
)
from .permcore import PermGroup, order
from .vhcomplex import (
    HORIZONTAL,
    VERTICAL,
    Alphabet,
    MealyAutomaton,
    VhDatum,
    automaton_for_side,
)

# the most words a sphere may have
WORD_BOUND = 1_000_000
DEFAULT_DEPTH = 5

Word = tuple[int, ...]

DISCRETE = "discrete"
NO_STABILIZATION = "no_stabilization"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class SphereIndex:
    """Reduced words of a fixed length in lexicographic order."""

    alphabet: Alphabet
    depth: int
    words: tuple[Word, ...]
    _position: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._position.update({w: i for i, w in enumerate(self.words)})

    def position(self, word: Word) -> int:
        return self._position[word]

    def __len__(self) -> int:
        return len(self.words)


def sphere_size(n: int, k: int) -> int:
    return n * (n - 1) ** (k - 1)


def sphere_index(alphabet: Alphabet, k: int) -> SphereIndex:
    """All reduced words of length k, lexicographically."""
    if k < 1:
        raise DepthOverflow(f"sphere depth must be >= 1, got {k}")
    count = sphere_size(alphabet.size, k)
    if count > WORD_BOUND:
        raise DepthOverflow(
            f"sphere of depth {k} has {count} words, exceeding bound {WORD_BOUND}")
    words: list[Word] = [(a,) for a in range(alphabet.size)]
    for _ in range(k - 1):
        words = [w + (c,) for w in words
                 for c in range(alphabet.size) if c != alphabet.inv(w[-1])]
    return SphereIndex(alphabet=alphabet, depth=k, words=tuple(words))


def act_word(aut: MealyAutomaton, state: int, word: Word) -> Word:
    """Rewrite a word letter by letter: emit out[s][x], continue in nxt[s][x]."""
    if not 0 <= state < aut.states.size:
        raise LetterOutOfRange(f"state {state} out of range")
    out = []
    s = state
    for x in word:
        if not 0 <= x < aut.letters.size:
            raise LetterOutOfRange(f"letter {x} out of range")
        out.append(aut.out[s][x])
        s = aut.nxt[s][x]
    return tuple(out)


@dataclass(frozen=True)
class LocalTower:
    """P_1 ... P_K on the spheres of one side's tree, with their orders."""

    side: str
    groups: tuple[PermGroup, ...]
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.orders, self.orders[1:]):
            if b < a:
                raise InternalInvariantError(
                    f"tower orders must be non-decreasing, got {self.orders}")

    @property
    def depth(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class DiscretenessVerdict:
    kind: str  # "discrete" | "no_stabilization" | "not_applicable"
    at: Optional[int]

    def to_json(self) -> dict:
        return {"kind": self.kind, "at": self.at}


def local_group(d: VhDatum, side: str, k: int) -> PermGroup:
    """The group of permutations of the depth-k sphere words generated by
    the states of the other side's automaton."""
    aut = automaton_for_side(d, side)
    return _local_group_from_automaton(aut, sphere_index(aut.letters, k))


def _local_group_from_automaton(aut: MealyAutomaton, sphere: SphereIndex) -> PermGroup:
    """The states' action on the words of an indexed sphere."""
    gens = tuple(tuple(sphere.position(act_word(aut, s, w)) for w in sphere.words)
                 for s in range(aut.states.size))
    return PermGroup(degree=len(sphere), generators=gens)


def tower(d: VhDatum, side: str, depth: int = DEFAULT_DEPTH) -> LocalTower:
    """P_1 ... P_depth with generator-wise restriction compatibility checked
    during construction."""
    if depth < 1:
        raise DepthOverflow(f"tower depth must be >= 1, got {depth}")
    aut = automaton_for_side(d, side)
    groups = []
    spheres = []
    for k in range(1, depth + 1):
        spheres.append(sphere_index(aut.letters, k))
        groups.append(_local_group_from_automaton(aut, spheres[-1]))
    for k in range(len(groups) - 1):
        _assert_restriction(spheres[k], spheres[k + 1], groups[k], groups[k + 1])
    return LocalTower(side=side, groups=tuple(groups),
                      orders=tuple(order(g) for g in groups))


def _assert_restriction(small: SphereIndex, big: SphereIndex,
                        p_small: PermGroup, p_big: PermGroup) -> None:
    """Truncating each depth-(k+1) generator must reproduce the matching
    depth-k generator."""
    parent = [small.position(w[:-1]) for w in big.words]
    for g_small, g_big in zip(p_small.generators, p_big.generators):
        for i, j in enumerate(g_big):
            if g_small[parent[i]] != parent[j]:
                raise InternalInvariantError(
                    "tower restriction mismatch: truncated generator disagrees")


def discreteness_verdict(t: LocalTower) -> DiscretenessVerdict:
    """Discrete(k) at the first k with |P_{k+1}| = |P_k|; stabilization must
    then persist through the computed depth (a violation would contradict
    the self-similar section structure and raises an internal error)."""
    if t.depth < 2:
        raise TowerTooShort(f"discreteness needs a tower of depth >= 2, got {t.depth}")
    stabilized = None
    for k in range(len(t.orders) - 1):
        if t.orders[k + 1] == t.orders[k]:
            stabilized = k + 1  # 1-based level index
            break
    if stabilized is None:
        return DiscretenessVerdict(kind=NO_STABILIZATION, at=t.depth)
    for k in range(stabilized, len(t.orders)):
        if t.orders[k] != t.orders[stabilized - 1]:
            raise InternalInvariantError(
                f"stabilization at level {stabilized} does not persist: {t.orders}")
    return DiscretenessVerdict(kind=DISCRETE, at=stabilized)


def tower_report(t: LocalTower) -> dict:
    """The tower JSON document."""
    return {
        "side": t.side,
        "depths": t.depth,
        "orders": list(t.orders),
        "verdict": discreteness_verdict(t).to_json(),
    }


def side_label(side: str) -> str:
    if side in (HORIZONTAL, "h"):
        return HORIZONTAL
    if side in (VERTICAL, "v"):
        return VERTICAL
    raise LetterOutOfRange(f"unknown side {side!r}")
