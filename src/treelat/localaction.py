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
from typing import Iterator, Optional

from .errors import DepthOverflow, InternalInvariantError, InvalidDatum, TowerTooShort
from .permcore import DEGREE_BOUND, PermGroup, StabilizerChain, order
from .vhcomplex import (
    Alphabet,
    MealyAutomaton,
    VhDatum,
    automaton_for_side,
)

DEFAULT_DEPTH = 5

DISCRETE = "discrete"
NO_STABILIZATION = "no_stabilization"
NOT_APPLICABLE = "not_applicable"


def sphere_index(alphabet: Alphabet, k: int) -> range:
    """The positions of the reduced words of length k in lexicographic
    order; a depth below 1 or more than DEGREE_BOUND words is refused.
    The n * (n-1)^(k-1) words are counted level by level up to the first
    depth past the bound, and for n = 2 they are 2 at every depth."""
    if k < 1:
        raise DepthOverflow(f"sphere depth must be >= 1, got {k}")
    n = alphabet.size
    count, depth = n, 1
    while n > 2 and depth < k and count <= DEGREE_BOUND:
        count *= n - 1
        depth += 1
    if count > DEGREE_BOUND:
        raise DepthOverflow(
            f"sphere of depth {depth} has more than {DEGREE_BOUND} words, exceeding bound")
    return range(count)


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


def _local_group_from_automaton(aut: MealyAutomaton,
                                below: Optional[PermGroup]) -> PermGroup:
    """The states' action on the depth-k sphere, from their action `below`
    on the depth-(k-1) sphere; at depth 1, with `below` None, the action is
    the `out` rows.  The sphere has n words at depth 1, and n-1 per word
    below at each deeper level.

    Under state s the word x.w' goes to y = out[s][x] followed by the image
    of w' under nxt[s][x].  The B = (n-1)^(k-1) words that begin with x hold
    positions x*B onwards, in the order of their tails one level down, where
    the tails that begin with inv(x) are skipped; so a tail's rank drops by
    the size of that block when it lies past it.  The same holds on the
    image side with inv(y)."""
    inv = aut.letters.involution
    if below is None:
        # x.a is reduced for every a but inv(x), so the state after x must
        # send inv(x) to inv(out[s][x]) for all images to stay reduced
        if any(aut.out[t][inv[x]] != inv[y] for row, moves in zip(aut.out, aut.nxt)
               for x, (y, t) in enumerate(zip(row, moves))):
            raise InvalidDatum("the automaton sends a reduced word to an unreduced one")
        return PermGroup(degree=aut.letters.size, generators=aut.out)
    q = aut.letters.size - 1
    degree = below.degree * q
    block = degree // aut.letters.size
    tail = block // q
    gens = []
    for s, (row, moves) in enumerate(zip(aut.out, aut.nxt)):
        image: list[int] = []
        for x, (y, t) in enumerate(zip(row, moves)):
            tails = below.generators[t]
            skip = inv[x] * tail
            base, cut = y * block, inv[y] * tail
            image += [r + base if r < cut else r + base - tail
                      for r in tails[:skip] + tails[skip + tail:]]
        # truncation guard: the parent of word j is word j // q, and
        # dropping the last letter must commute with the action
        if [r // q for r in image] != [p for p in below.generators[s] for _ in range(q)]:
            raise InternalInvariantError(
                "tower restriction mismatch: truncated generator disagrees")
        gens.append(tuple(image))
    return PermGroup(degree=degree, generators=tuple(gens))


def local_groups(aut: MealyAutomaton, depth: int) -> Iterator[PermGroup]:
    """P_1 ... P_depth of the automaton's states, each level built from the
    one below.  The deepest sphere is the largest, so it alone is passed
    to `sphere_index`, and refused there before any level is built."""
    sphere_index(aut.letters, depth)
    below = None
    for _ in range(depth):
        below = _local_group_from_automaton(aut, below)
        yield below


def _kernel_order(group: PermGroup, q: int, k: int, below: int) -> int:
    """|K_k| from one chain of P_{k+1} = `group` on its fibres of q words,
    whose own order, |P_k|, must equal `below`."""
    chain = StabilizerChain(group.degree, group.generators, block=q)
    if chain.order() != below:
        raise InternalInvariantError(
            f"P_{k + 1} permutes the fibres of its sphere as a group of order "
            f"{chain.order()}, but |P_{k}| = {below}")
    return 1 if chain.kernel is None else chain.kernel.order()


def tower(d: VhDatum, side: str, depth: int = DEFAULT_DEPTH) -> LocalTower:
    """P_1 ... P_depth and their orders.

    |P_1| is read off P_1's chain, and |P_{k+1}| = |P_k| * |K_k|, where
    K_k is the kernel of truncation P_{k+1} -> P_k.  With q = n-1 for an
    n-letter alphabet, the depth-(k+1) words j*q ... j*q+q-1 form the
    fibre over word j of the depth-k sphere.  P_{k+1} permutes the fibres
    as P_k permutes the words below, with kernel K_k, so one chain of
    P_{k+1} on its fibres gives |K_k|, and no deeper level gets a chain on
    its whole sphere.  That chain's own order must equal |P_k| as carried
    up from below; a mismatch is an internal error."""
    aut = automaton_for_side(d, side)
    groups = tuple(local_groups(aut, depth))
    orders = [order(groups[0])]
    for k, group in enumerate(groups[1:], 1):
        kernel = _kernel_order(group, aut.letters.size - 1, k, orders[-1])
        orders.append(orders[-1] * kernel)
    return LocalTower(side=side, groups=groups, orders=tuple(orders))


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
