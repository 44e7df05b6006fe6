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

from dataclasses import dataclass
from typing import Optional

from .errors import (
    DepthOverflow,
    InternalInvariantError,
    LetterOutOfRange,
    TowerTooShort,
)
from .permcore import PermGroup, order
from .vhcomplex import (
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


def sphere_size(n: int, k: int) -> int:
    return n * (n - 1) ** (k - 1)


def check_sphere(alphabet: Alphabet, k: int) -> None:
    """Refuse a depth below 1 or a sphere of more than WORD_BOUND words."""
    if k < 1:
        raise DepthOverflow(f"sphere depth must be >= 1, got {k}")
    count = sphere_size(alphabet.size, k)
    if count > WORD_BOUND:
        raise DepthOverflow(
            f"sphere of depth {k} has {count} words, exceeding bound {WORD_BOUND}")


def sphere_index(alphabet: Alphabet, k: int) -> dict[Word, int]:
    """Each reduced word of length k mapped to its lexicographic position;
    the dict iterates the words in that order."""
    check_sphere(alphabet, k)
    words: list[Word] = [(a,) for a in range(alphabet.size)]
    for _ in range(k - 1):
        words = [w + (c,) for w in words
                 for c in range(alphabet.size) if c != alphabet.inv(w[-1])]
    return {w: i for i, w in enumerate(words)}


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


def local_group(d: VhDatum, side: str, k: int) -> PermGroup:
    """The group of permutations of the depth-k sphere words generated by
    the states of the other side's automaton."""
    aut = automaton_for_side(d, side)
    return _local_group_from_automaton(aut, sphere_index(aut.letters, k))


def _local_group_from_automaton(aut: MealyAutomaton, sphere: dict[Word, int]) -> PermGroup:
    """The states' action on the words of an indexed sphere."""
    gens = tuple(tuple(sphere[act_word(aut, s, w)] for w in sphere)
                 for s in range(aut.states.size))
    return PermGroup(degree=len(sphere), generators=gens)


def tower(d: VhDatum, side: str, depth: int = DEFAULT_DEPTH) -> LocalTower:
    """P_1 ... P_depth with generator-wise restriction compatibility checked
    during construction."""
    aut = automaton_for_side(d, side)
    # the deepest sphere is the largest: refuse it before any level is built
    check_sphere(aut.letters, depth)
    spheres = [sphere_index(aut.letters, k) for k in range(1, depth + 1)]
    groups = [_local_group_from_automaton(aut, sphere) for sphere in spheres]
    for k in range(depth - 1):
        _assert_restriction(spheres[k], spheres[k + 1], groups[k], groups[k + 1])
    return LocalTower(side=side, groups=tuple(groups),
                      orders=tuple(order(g) for g in groups))


def _assert_restriction(small: dict[Word, int], big: dict[Word, int],
                        p_small: PermGroup, p_big: PermGroup) -> None:
    """Truncating each depth-(k+1) generator must reproduce the matching
    depth-k generator."""
    parent = [small[w[:-1]] for w in big]
    for g_small, g_big in zip(p_small.generators, p_big.generators):
        for i, j in enumerate(g_big):
            if g_small[parent[i]] != parent[j]:
                raise InternalInvariantError(
                    "tower restriction mismatch: truncated generator disagrees")


def discreteness_verdict(t: LocalTower) -> DiscretenessVerdict:
    """Discrete(k) at the first k with |P_{k+1}| = |P_k|; stabilization must
    then persist through the computed depth, and a violation raises an
    internal error.

    Persistence is a lemma of Burger and Mozes (*Groups acting on trees:
    from local to global structure*, Publ. IHÉS 92, 2000).  Let H be the
    closure of the projection and H_x^{(k)} the elements of H_x fixing the
    k-ball about x, so P_k = H_x/H_x^{(k)}.  |P_{k+1}| = |P_k| means
    H_x^{(k)} = H_x^{(k+1)}, at every vertex as H is vertex-transitive.  So
    g in H_x^{(k)} fixes the (k+1)-ball about x, hence the k-ball about each
    neighbour y, hence the (k+1)-ball about y: the (k+2)-ball about x.
    Walking outward, g = 1, so H_x^{(k)} = 1 and every later order is
    |P_k|.  The check below guards the computation, not the lemma.
    """
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
    """The tower document; `cli.json_data` encodes its verdict."""
    return {"side": t.side, "depths": t.depth, "orders": t.orders,
            "verdict": discreteness_verdict(t)}
