"""Finite permutations and the deterministic Schreier-Sims engine.

Conventions, fixed once and asserted in the test suite:

* points are the integers 0..degree-1;
* a permutation is its image tuple: ``p[x]`` is the image of ``x``;
* permutations act on the left, ``compose(p, q)`` applies ``q`` first,
  so ``compose(p, q)[x] == p[q[x]]``;
* stabilizer chains pick each new base point as the smallest point moved
  by the generator being installed, which makes every chain (and hence
  every order, transversal and report) reproducible;
* a transversal stores inverse representatives: for a point x of the i-th
  basic orbit it holds an element carrying x to the i-th base point, which
  is the factor a sift multiplies by.  ``elements()`` inverts them when it
  lists the group.

Chains are built by the incremental Schreier-Sims algorithm (Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 4.4; Seress,
*Permutation Group Algorithms*, ch. 4).  Installing a strong generator
extends the basic orbits it acts on from the points they already have, and
never replaces a representative.  Each level remembers which Schreier
generators already sifted to the identity; because orbits only grow, such
a generator and its sift path never change, so it is never sifted again.
``StabilizerChain.extend`` grows a finished chain in place, which is how
``normal_closure`` keeps one chain for the whole closure.

Image tuples are not validated here: outside data enters through
``group_from_raw``, which checks that every generator is a bijection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    DegreeMismatch,
    MalformedDocument,
    PointOutOfRange,
)

DEFAULT_ENUM_CAP = 1_000_000

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations as image tuples
# ---------------------------------------------------------------------------

def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Product applying q first: compose(p, q)[x] = p[q[x]]."""
    if len(q) < 2:
        # itemgetter with one index returns the item, not a 1-tuple
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_identity(p: Sequence[int]) -> bool:
    return tuple(p) == identity(len(p))


def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        if cycle:
            images[cycle[-1]] = cycle[0]
    return tuple(images)


def element_order(p: Sequence[int]) -> int:
    """Least k >= 1 with p^k the identity: the lcm of the cycle lengths."""
    seen = [False] * len(p)
    result = 1
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            result = lcm(result, length)
    return result


# ---------------------------------------------------------------------------
# Stabilizer chain (BSGS)
# ---------------------------------------------------------------------------

class StabilizerChain:
    """Base and strong generating set built by deterministic Schreier-Sims.

    ``base[i]`` is the i-th base point.  ``transversals[i]`` maps each point
    x of the i-th basic orbit to its inverse representative: an element of
    the level's group carrying x back to ``base[i]``.  ``strong`` holds every
    strong generator; the ones relevant at level i are those fixing
    ``base[:i]`` pointwise, kept in installation order in ``_gens[i]``
    together with their inverses.

    ``_verified[i]`` maps a point x of the i-th orbit to the number of
    level-i generators s whose Schreier generator for (x, s) is known to
    sift to the identity.  Each point's generators are checked in order and
    the scan stops at the first failure, so the verified ones always form a
    prefix of ``_gens[i]``.
    """

    __slots__ = ("degree", "base", "strong", "transversals", "_gens", "_verified",
                 "_identity")

    def __init__(self, degree: int, generators: Iterable[Sequence[int]],
                 base_prefix: Sequence[int] = ()):
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Perm] = []
        self.transversals: list[dict[int, Perm]] = []
        self._gens: list[list[tuple[Perm, Perm]]] = []
        self._verified: list[dict[int, int]] = []
        self._identity = identity(degree)
        for b in base_prefix:
            if not 0 <= b < degree:
                raise PointOutOfRange(f"base point {b} out of range for degree {degree}")
            if b not in self.base:
                self._add_level(b)
        for g in generators:
            t = tuple(g)
            if len(t) != degree:
                raise DegreeMismatch(f"generator degree {len(t)} != {degree}")
            if t != self._identity and t not in self.strong:
                self._install(t)
        self._complete(len(self.base) - 1)

    # -- construction ------------------------------------------------------

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.transversals.append({point: self._identity})
        self._gens.append([])
        self._verified.append({})

    def _install(self, g: Perm) -> int:
        """Add a strong generator and extend the orbits it acts on; returns
        the deepest level whose generators changed."""
        self.strong.append(g)
        j = None
        for idx, b in enumerate(self.base):
            if g[b] != b:
                j = idx
                break
        if j is None:
            # new base point: smallest point moved by the incoming generator
            self._add_level(next(x for x in range(self.degree) if g[x] != x))
            j = len(self.base) - 1
        pair = (g, inverse(g))
        for i in range(j + 1):
            self._gens[i].append(pair)
            self._extend_orbit(i, pair)
        return j

    def _extend_orbit(self, i: int, pair: tuple[Perm, Perm]) -> None:
        """Close level i's orbit under its generators after `pair` joined
        them.  Points already present keep their representatives."""
        trans = self.transversals[i]
        g, g_inv = pair
        new = []
        for x, v in list(trans.items()):
            y = g[x]
            if y not in trans:
                trans[y] = compose(v, g_inv)
                new.append(y)
        gens = self._gens[i]
        for x in new:  # `new` grows while it is walked: a breadth-first search
            v = trans[x]
            for s, s_inv in gens:
                y = s[x]
                if y not in trans:
                    trans[y] = compose(v, s_inv)
                    new.append(y)

    def _sift_from(self, level: int, g: Perm) -> tuple[Perm, int]:
        """Sift g through levels >= level; returns (residue, stuck_level)."""
        for i in range(level, len(self.base)):
            v = self.transversals[i].get(g[self.base[i]])
            if v is None:
                return g, i
            g = compose(v, g)
        return g, len(self.base)

    def _process_level(self, i: int) -> Optional[int]:
        """Sift the Schreier generators of level i not yet verified; install
        the first non-trivial residue and return the level it changed."""
        gens = self._gens[i]
        trans = self.transversals[i]
        verified = self._verified[i]
        ident = self._identity
        for beta, v_beta in trans.items():
            done = verified.get(beta, 0)
            if done == len(gens):
                continue
            u_beta = inverse(v_beta)
            for k in range(done, len(gens)):
                s = gens[k][0]
                schreier = compose(trans[s[beta]], compose(s, u_beta))
                if schreier != ident:
                    residue, _ = self._sift_from(i + 1, schreier)
                    if residue != ident:
                        # the orbits only grow, so every verified pair stays
                        # verified: its Schreier generator and sift path are
                        # fixed.  Returning at once also keeps `trans`, which
                        # _install extends, from changing under this loop.
                        verified[beta] = k
                        return self._install(residue)
            verified[beta] = len(gens)
        return None

    def _complete(self, level: int) -> None:
        """Process levels from `level` down to 0, going back to the deepest
        level an install changed."""
        i = level
        while i >= 0:
            changed = self._process_level(i)
            if changed is None:
                i -= 1
            else:
                i = changed

    def extend(self, g: Perm) -> bool:
        """Add g to the group in place; False, leaving the chain unchanged,
        when g is already a member."""
        residue, _ = self._sift_from(0, g)
        if residue == self._identity:
            return False
        self._complete(self._install(residue))
        return True

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def sift(self, g: Sequence[int]) -> Perm:
        residue, _ = self._sift_from(0, tuple(g))
        return residue

    def contains(self, g: Sequence[int]) -> bool:
        return self.sift(g) == self._identity

    def elements(self) -> list[Perm]:
        """All group elements as image tuples (size = order)."""
        elems = [self._identity]
        for trans in reversed(self.transversals):
            reps = [inverse(trans[x]) for x in sorted(trans)]
            elems = [compose(u, e) for u in reps for e in elems]
        return elems

    def stabilizer_suffix(self) -> tuple[list[Perm], "StabilizerChain"]:
        """Strong generators fixing base[0], plus the chain they head.

        The suffix of a verified chain is itself a verified chain for the
        stabilizer of the first base point.  It shares its levels with this
        chain, so only one of the two may be extended afterwards.
        """
        b0 = self.base[0]
        gens = [g for g in self.strong if g[b0] == b0]
        sub = StabilizerChain.__new__(StabilizerChain)
        sub.degree = self.degree
        sub.base = self.base[1:]
        sub.strong = gens
        sub.transversals = self.transversals[1:]
        sub._gens = self._gens[1:]
        sub._verified = self._verified[1:]
        sub._identity = self._identity
        return gens, sub


# ---------------------------------------------------------------------------
# PermGroup and its operations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PermGroup:
    """A permutation group given by generators, with a cached BSGS.

    Treated as immutable after construction; the only mutation is the
    write-once attachment of the stabilizer chain, which is deterministic
    for fixed input and therefore safe to share between threads.
    """

    degree: int
    generators: tuple[Perm, ...]
    bsgs: Optional[StabilizerChain] = field(default=None, repr=False)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        for g in self.generators:
            if len(g) != self.degree:
                raise DegreeMismatch(
                    f"generator of degree {len(g)} in group of degree {self.degree}")

    def chain(self) -> StabilizerChain:
        if self.bsgs is None:
            self.bsgs = StabilizerChain(self.degree, self.generators)
        return self.bsgs


def perm_group(generators: Iterable[Sequence[int]], degree: Optional[int] = None,
               name: Optional[str] = None) -> PermGroup:
    gens = tuple(tuple(g) for g in generators)
    if degree is None:
        if not gens:
            raise DegreeMismatch("degree required for a group with no generators")
        degree = len(gens[0])
    return PermGroup(degree=degree, generators=gens, name=name)


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree=degree, generators=())


def orbit(g: PermGroup, point: int) -> set[int]:
    """Smallest generator-closed set of points containing `point`."""
    if not 0 <= point < g.degree:
        raise PointOutOfRange(f"point {point} out of range for degree {g.degree}")
    seen = {point}
    queue = [point]
    while queue:
        beta = queue.pop()
        for s in g.generators:
            gamma = s[beta]
            if gamma not in seen:
                seen.add(gamma)
                queue.append(gamma)
    return seen


def order(g: PermGroup) -> int:
    return g.chain().order()


def contains(g: PermGroup, p: Sequence[int]) -> bool:
    if len(p) != g.degree:
        raise DegreeMismatch(f"degrees {len(p)} != {g.degree}")
    return g.chain().contains(p)


def point_stabilizer(g: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point: the strong generators fixing it in a chain
    based at that point, with the rest of that chain as its own."""
    if not 0 <= point < g.degree:
        raise PointOutOfRange(f"point {point} out of range for degree {g.degree}")
    chain = StabilizerChain(g.degree, g.generators, base_prefix=(point,))
    gens, sub = chain.stabilizer_suffix()
    return PermGroup(degree=g.degree, generators=tuple(gens), bsgs=sub)


def normal_closure(g: PermGroup, seeds: Iterable[Perm]) -> PermGroup:
    """Smallest subgroup containing the seeds and closed under conjugation
    by the generators of g."""
    seed_tuples = []
    for s in seeds:
        if len(s) != g.degree:
            raise DegreeMismatch(f"seed degree {len(s)} != {g.degree}")
        if not is_identity(s):
            seed_tuples.append(s)
    conjugators = [(x, inverse(x)) for x in g.generators]

    gens: list[Perm] = []
    chain = StabilizerChain(g.degree, ())
    for t in seed_tuples:
        if chain.extend(t):
            gens.append(t)
    queue = list(gens)
    while queue:
        h = queue.pop()
        for x, x_inv in conjugators:
            c = compose(x_inv, compose(h, x))
            if chain.extend(c):
                gens.append(c)
                queue.append(c)
    return PermGroup(degree=g.degree, generators=tuple(gens), bsgs=chain)


def derived_subgroup(g: PermGroup) -> PermGroup:
    """Commutator subgroup: normal closure of generator commutators."""
    comms = []
    for a in g.generators:
        a_inv = inverse(a)
        for b in g.generators:
            b_inv = inverse(b)
            c = compose(compose(a_inv, b_inv), compose(a, b))
            if not is_identity(c):
                comms.append(c)
    return normal_closure(g, comms)


def derived_series(g: PermGroup) -> list[PermGroup]:
    """G >= G' >= G'' ... ; stops at the trivial group, or repeats the last
    term once to witness a non-trivial stationary point."""
    series = [g]
    current = g
    while True:
        nxt = derived_subgroup(current)
        if order(nxt) == order(current):
            if order(current) > 1:
                series.append(nxt)
            return series
        series.append(nxt)
        if order(nxt) == 1:
            return series
        current = nxt


def conjugacy_class_representatives(g: PermGroup) -> list[Perm]:
    """One representative image tuple per conjugacy class of g.

    Classes are found by closing the element set under conjugation by the
    generators; deterministic because elements() order is deterministic.
    The result is memoized on the group value (write-once, deterministic).
    """
    cached = getattr(g, "_class_reps", None)
    if cached is not None:
        return cached
    elements = g.chain().elements()
    conjugators = [(x, inverse(x)) for x in g.generators]
    # the elements not yet in a class; holding the listed tuples rather than
    # the conjugates found keeps one copy of each element alive, not two
    unassigned = set(elements)
    reps: list[Perm] = []
    for e in elements:
        if e not in unassigned:
            continue
        reps.append(e)
        queue = [e]
        unassigned.remove(e)
        while queue:
            h = queue.pop()
            for x, x_inv in conjugators:
                c = compose(x_inv, compose(h, x))
                if c in unassigned:
                    unassigned.remove(c)
                    queue.append(c)
    g._class_reps = reps
    return reps


def group_from_raw(document: dict) -> PermGroup:
    """Parse the raw group JSON document {"degree": d, "generators": [...]},
    checking that every generator is a bijection of 0..d-1."""
    if not isinstance(document, dict):
        raise MalformedDocument("raw group document must be a JSON object")
    try:
        degree = document["degree"]
        raw_gens = document["generators"]
    except (KeyError, TypeError) as exc:
        raise MalformedDocument(f"missing field in raw group document: {exc}") from exc
    # `type(x) is int` also rejects JSON booleans, which are ints to Python
    if type(degree) is not int or degree < 1:
        raise MalformedDocument(f"degree must be a positive integer, got {degree!r}")
    if not isinstance(raw_gens, list):
        raise MalformedDocument("generators must be a list of image lists")
    for images in raw_gens:
        if (not isinstance(images, list) or any(type(x) is not int for x in images)
                or sorted(images) != list(range(degree))):
            raise MalformedDocument(
                f"generator {images!r} is not a bijection of 0..{degree - 1}")
    name = document.get("name")
    return PermGroup(degree=degree, generators=tuple(tuple(x) for x in raw_gens),
                     name=name)


def group_to_raw(g: PermGroup) -> dict:
    doc: dict = {"degree": g.degree, "generators": [list(p) for p in g.generators]}
    if g.name is not None:
        doc["name"] = g.name
    return doc


# convenience constructors used by the catalog and tests

def symmetric_group(n: int) -> PermGroup:
    if n < 2:
        return trivial_group(max(n, 1))
    gens = (from_cycles(n, [tuple(range(n))]), from_cycles(n, [(0, 1)]))
    return PermGroup(degree=n, generators=gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        return trivial_group(max(n, 1))
    three = from_cycles(n, [(0, 1, 2)])
    if n == 3:
        gens = (three,)
    elif n % 2 == 1:
        gens = (three, from_cycles(n, [tuple(range(n))]))
    else:
        gens = (three, from_cycles(n, [tuple(range(1, n))]))
    return PermGroup(degree=n, generators=gens, name=f"A{n}")


def induced_action_on_pairs(g: PermGroup) -> PermGroup:
    """Action induced on the 2-element subsets of the point set, subsets
    ordered lexicographically."""
    pairs = list(itertools.combinations(range(g.degree), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = tuple(tuple(index[tuple(sorted((p[a], p[b])))] for a, b in pairs)
                 for p in g.generators)
    new_name = f"{g.name}_on_pairs" if g.name else None
    return PermGroup(degree=len(pairs), generators=gens, name=new_name)
