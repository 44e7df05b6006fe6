"""Finite permutations and the deterministic Schreier-Sims engine.

Conventions, fixed once and asserted in the test suite:

* points are the integers 0..degree-1;
* a permutation is its image tuple: ``p[x]`` is the image of ``x``;
* permutations act on the left, ``compose(p, q)`` applies ``q`` first,
  so ``compose(p, q)[x] == p[q[x]]``;
* stabilizer chains pick each new base point as the smallest point moved
  by the generator being installed, which makes every chain (and hence
  every order, transversal and report) reproducible.

Image tuples are not validated here: outside data enters through
``group_from_raw``, which checks that every generator is a bijection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm
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
    return tuple(p[i] for i in q)


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_identity(p: Sequence[int]) -> bool:
    return all(i == j for i, j in enumerate(p))


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

    ``base[i]`` is the i-th base point, ``transversals[i]`` maps each point
    of the i-th basic orbit to a permutation (image tuple) carrying
    ``base[i]`` to it.  ``strong`` holds every strong generator; the ones
    relevant at level i are those fixing ``base[:i]`` pointwise.
    """

    __slots__ = ("degree", "base", "strong", "transversals")

    def __init__(self, degree: int, generators: Iterable[Sequence[int]],
                 base_prefix: Sequence[int] = ()):
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[tuple[int, ...]] = []
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        for b in base_prefix:
            if not 0 <= b < degree:
                raise PointOutOfRange(f"base point {b} out of range for degree {degree}")
            if b not in self.base:
                self.base.append(b)
                self.transversals.append({b: identity(degree)})
        for g in generators:
            t = tuple(g)
            if len(t) != degree:
                raise DegreeMismatch(f"generator degree {len(t)} != {degree}")
            if not is_identity(t) and t not in self.strong:
                self._install(t)
        self._complete()

    # -- construction ------------------------------------------------------

    def _level_gens(self, i: int) -> list[tuple[int, ...]]:
        prefix = self.base[:i]
        return [g for g in self.strong if all(g[b] == b for b in prefix)]

    def _rebuild(self, i: int) -> None:
        gens = self._level_gens(i)
        b = self.base[i]
        trans = {b: identity(self.degree)}
        queue = [b]
        while queue:
            beta = queue.pop(0)
            u = trans[beta]
            for s in gens:
                gamma = s[beta]
                if gamma not in trans:
                    trans[gamma] = compose(s, u)
                    queue.append(gamma)
        self.transversals[i] = trans

    def _install(self, g: tuple[int, ...]) -> int:
        """Add a strong generator; returns the deepest level whose gens changed."""
        self.strong.append(g)
        j = None
        for idx, b in enumerate(self.base):
            if g[b] != b:
                j = idx
                break
        if j is None:
            # new base point: smallest point moved by the incoming generator
            point = next(x for x in range(self.degree) if g[x] != x)
            self.base.append(point)
            self.transversals.append({})
            j = len(self.base) - 1
        for i in range(j + 1):
            self._rebuild(i)
        return j

    def _sift_from(self, level: int, g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Sift g through levels >= level; returns (residue, stuck_level)."""
        for i in range(level, len(self.base)):
            x = g[self.base[i]]
            u = self.transversals[i].get(x)
            if u is None:
                return g, i
            g = compose(inverse(u), g)
        return g, len(self.base)

    def _process_level(self, i: int) -> Optional[int]:
        """Sift all Schreier generators of level i; install the first residue."""
        gens = self._level_gens(i)
        trans = self.transversals[i]
        for beta in sorted(trans):
            u_beta = trans[beta]
            for s in gens:
                u_gamma = trans[s[beta]]
                schreier = compose(inverse(u_gamma), compose(s, u_beta))
                if is_identity(schreier):
                    continue
                residue, stuck = self._sift_from(i + 1, schreier)
                if not is_identity(residue):
                    return self._install(residue)
        return None

    def _complete(self) -> None:
        i = len(self.base) - 1
        while i >= 0:
            changed = self._process_level(i)
            if changed is None:
                i -= 1
            else:
                i = changed

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def sift(self, g: Sequence[int]) -> tuple[int, ...]:
        residue, _ = self._sift_from(0, tuple(g))
        return residue

    def contains(self, g: Sequence[int]) -> bool:
        return is_identity(self.sift(g))

    def elements(self) -> list[tuple[int, ...]]:
        """All group elements as image tuples (size = order)."""
        elems = [identity(self.degree)]
        for trans in reversed(self.transversals):
            reps = [trans[x] for x in sorted(trans)]
            elems = [compose(u, e) for u in reps for e in elems]
        return elems

    def stabilizer_suffix(self) -> tuple[list[tuple[int, ...]], "StabilizerChain"]:
        """Strong generators fixing base[0], plus the chain they head.

        The suffix of a verified chain is itself a verified chain for the
        stabilizer of the first base point.
        """
        b0 = self.base[0]
        gens = [g for g in self.strong if g[b0] == b0]
        sub = StabilizerChain.__new__(StabilizerChain)
        sub.degree = self.degree
        sub.base = self.base[1:]
        sub.strong = gens
        sub.transversals = self.transversals[1:]
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
    queue: list[Perm] = []
    for t in seed_tuples:
        if not chain.contains(t):
            gens.append(t)
            chain = StabilizerChain(g.degree, gens)
            queue.append(t)
    while queue:
        h = queue.pop()
        for x, x_inv in conjugators:
            c = compose(x_inv, compose(h, x))
            if not chain.contains(c):
                gens.append(c)
                chain = StabilizerChain(g.degree, gens)
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


def conjugacy_class_representatives(g: PermGroup,
                                    elements: Optional[list[Perm]] = None
                                    ) -> list[Perm]:
    """One representative image tuple per conjugacy class of g.

    Classes are found by closing the element set under conjugation by the
    generators; deterministic because elements() order is deterministic.
    The result is memoized on the group value (write-once, deterministic).
    """
    cached = getattr(g, "_class_reps", None)
    if cached is not None:
        return cached
    if elements is None:
        elements = g.chain().elements()
    conjugators = [(x, inverse(x)) for x in g.generators]
    assigned: set[Perm] = set()
    reps: list[Perm] = []
    for e in elements:
        if e in assigned:
            continue
        reps.append(e)
        queue = [e]
        assigned.add(e)
        while queue:
            h = queue.pop()
            for x, x_inv in conjugators:
                c = compose(x_inv, compose(h, x))
                if c not in assigned:
                    assigned.add(c)
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
