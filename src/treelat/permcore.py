"""Finite permutations and the deterministic Schreier-Sims engine.

Conventions, fixed once and asserted in the test suite:

* points are the integers 0..degree-1;
* a permutation is its image tuple: ``p[x]`` is the image of ``x``;
* permutations act on the left, ``compose(p, q)`` applies ``q`` first,
  so ``compose(p, q)[x] == p[q[x]]``;
* every chain ``StabilizerChain`` builds starts at base point 0, so the
  stabilizer of point 0 is read off the group's own chain; each later
  base point is the smallest point moved by the generator being
  installed, which makes every chain (and hence every order, transversal
  and report) reproducible;
* a transversal stores inverse representatives: for a point x of the i-th
  basic orbit it holds an element carrying x to the i-th base point, which
  is the factor a sift multiplies by.  ``elements()`` inverts them when it
  lists the group.  A chain on blocks keys its transversals by the blocks'
  first points instead, which ``_starts`` maps every point to.

Chains are built by the incremental Schreier-Sims algorithm (Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 4.4; Seress,
*Permutation Group Algorithms*, ch. 4).  Installing a strong generator
extends the basic orbits it acts on from the points they already have, and
never replaces a representative.  Each level remembers which Schreier
generators already sifted to the identity; because orbits only grow, such
a generator and its sift path never change, so it is never sifted again.
Level 0 forms its Schreier generators from the chain's inputs alone (the
generators it was built from and the residues ``extend`` installed): by
Schreier's lemma any generating set of the group gives the stabilizer of
the first base point, and the inputs are usually far fewer than the
strong generators.  A deeper level's group is known only through the
chain being built, so it uses its strong generators.

Three rules spare work without changing any chain that is built.  Only a
level's root, the representative of its base point, is the chain's
identity object ``_identity``; every other representative moves its
point.  So a sift, an orbit extension, a Schreier generator, a random
element and the element list skip the product when a factor ``is`` that
object.  A normal closure's random phase starts from it, and puts it back
whenever the running product equals the identity, so it skips those
products too.  The Schreier generator of a point β and a generator s is
v_γ·s·v_β⁻¹, where γ is the image of β and v a representative; it is the
identity exactly when w = v_γ·s equals v_β, so v_β⁻¹ is formed only at
β's first generator where they differ, once per visit of β.  A block
chain remembers the residues it has handed to its kernel and drops a
repeat before any block test or sift.
``StabilizerChain.extend`` grows a finished chain in place, which is how
``normal_closure`` keeps one chain for the whole closure.  That private
chain, and a block chain's kernel, are the only ones ever extended: a
group shares its chain's levels with its point stabilizer.

A chain needs no verification when its group's order is known (Seress,
*Permutation Group Algorithms*, ch. 4).  Grow a chain from elements of a
group H, installing each residue that is not the identity with no
completion: each basic orbit lies in the orbit of the stabilizer in H of
the base points before it, so the chain's order is at most |H|.  At |H|
every basic orbit is that whole orbit and the base's pointwise stabilizer
is trivial, so the chain is a complete chain of H; the same bound, from
any level on, shows that the level's strong generators generate its
stabilizer.  ``chain_of_known_order`` grows one to a known order, for
``groupprops._on_support``.  ``normal_closure`` grows one from random
elements of the closure N of seeds in g, and returns g once it reaches
|g|, which proves N = g.  Typing meets such whole closures at every level
of a simplicity proof, as a perfect group's derived subgroup; only a
proper closure is completed.

Random elements come from generators seeded with ``DRAW_SEED``, whose
only readers are ``StabilizerChain.draws`` and ``normal_closure``; each
call seeds its own, so every search replays the same draws on every run.

Image tuples are not validated here: outside data enters through
``group_from_raw``, which checks that every generator is a bijection.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, field
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegreeMismatch,
    MalformedDocument,
    PointOutOfRange,
    optional_field,
)

# the most points a permutation the engine builds or reads may move
DEGREE_BOUND = 1_000_000
# read only by StabilizerChain.draws and normal_closure (module
# docstring); normal_closure completes its chain after _CLOSURE_MISSES
# draws in a row sift to the identity
DRAW_SEED = 0
_CLOSURE_MISSES = 4

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


def _is_even(p: Sequence[int]) -> bool:
    """Whether p is an even permutation: with c cycles, fixed points
    included, it is a product of degree - c transpositions."""
    seen = [False] * len(p)
    cycles = 0
    for start in range(len(p)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = p[x]
    return (len(p) - cycles) % 2 == 0


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
    the level's group carrying x back to ``base[i]``.  ``_gens[i]`` holds
    the strong generators fixing ``base[:i]`` pointwise, in installation
    order, each with its inverse; ``_gens[0]`` holds them all.

    ``_inputs`` holds the generators the group was given by, each with its
    inverse: the constructor's generators other than the identity, each
    once, then each residue ``extend`` installed.  Residues installed while
    completing the chain are not inputs, and neither is a generator a block
    chain sends to its kernel.  The inputs are a sub-list of ``_gens[0]``,
    and a chain from ``stabilizer()`` takes its own level-0 generators as
    its inputs.  ``_reps`` lists the representatives of each level with
    more than one point, for ``random_element``, until an install changes
    the chain.

    ``_verified[i]`` maps a point x of the i-th orbit to the number of
    generators s whose Schreier generator for (x, s) is known to sift to
    the identity, where s runs over the inputs at level 0 and over
    ``_gens[i]`` at a deeper level.  Each point's generators are checked in
    order and the scan stops at the first failure, so the verified ones
    always form a prefix of that list.

    With ``block`` q > 1 the chain acts on the blocks of q consecutive
    points, which every generator must permute.  A block is named by its
    first point, ``_starts[x]`` for x in it: base points and transversal
    keys are first points, so the image ``g[b]`` of a first point b finds
    its representative at ``transversals[i][_starts[g[b]]]``.  When q = 1,
    ``_starts`` is the identity tuple and every point is a block of its
    own.  Elements stay at full degree, ``order()`` is the order of the
    action on the blocks, and a residue that fixes every block goes to
    ``kernel``, a chain of the kernel K of that action, or None while K is
    trivial.  By Schreier's lemma for a homomorphism (Seress, *Permutation
    Group Algorithms*, ch. 4-5) these residues, with the generators that
    fix every block, generate K as a normal subgroup.  The inputs generate
    the group, and those that fix every block are in ``kernel`` already, so
    closing ``kernel`` under conjugation by the others gives K.  A block
    chain is never extended.

    ``_sent`` holds residues that a block chain has handed to ``kernel``.
    The kernel chain only grows, so a residue handed over once stays a
    member, and ``_install`` returns at once on a repeat, with no block
    test and no sift through the kernel.  The set stops growing once it
    holds as many tuples as the transversals, so it at most doubles the
    chain's memory; a residue past that bound is sifted as before.
    ``stabilizer()`` shares the set, as it shares the kernel the set
    describes.

    A transversal's root value is the object ``_identity`` and no other
    value is, which is what the ``is`` tests in sifting, orbit extension
    and ``_process_level`` rely on.  ``_process_level`` forms a point's
    inverse representative only when one of its Schreier generators is
    not the identity.
    """

    __slots__ = ("degree", "block", "base", "transversals", "kernel", "_gens",
                 "_inputs", "_verified", "_identity", "_starts", "_reps", "_sent")

    def __init__(self, degree: int, generators: Iterable[Sequence[int]], block: int = 1):
        self.degree = degree
        self.block = block
        self.base: list[int] = []
        self.transversals: list[dict[int, Perm]] = []
        self.kernel: Optional[StabilizerChain] = None
        self._gens: list[list[tuple[Perm, Perm]]] = []
        self._inputs: list[tuple[Perm, Perm]] = []
        self._verified: list[dict[int, int]] = []
        self._identity = identity(degree)
        self._starts = (self._identity if block == 1
                        else tuple(x - x % block for x in range(degree)))
        self._reps: Optional[list[list[Perm]]] = None
        self._sent: set[Perm] = set()
        # the first level is point 0's orbit, trivial when every generator
        # fixes 0; the chain from level 1 on is then the stabilizer's own
        self._add_level(0)
        # degrees are checked by PermGroup and by normal_closure's seeds;
        # a repeated generator is installed once
        for t in dict.fromkeys(tuple(g) for g in generators):
            if t != self._identity:
                self._install(t, True)
        self._complete(len(self.base) - 1)
        if self.kernel is not None:
            _close_under_conjugation(self.kernel, [s for s, _ in self.kernel._gens[0]],
                                     [s for s, _ in self._inputs])

    # -- construction ------------------------------------------------------

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.transversals.append({point: self._identity})
        self._gens.append([])
        self._verified.append({})

    def _install(self, g: Perm, is_input: bool = False) -> Optional[int]:
        """Add a strong generator, which is also one of the inputs when
        `is_input`, and extend the orbits it acts on; returns the deepest
        level whose generators changed.  A block chain adds an element
        that fixes every block to its kernel instead and returns None."""
        self._reps = None
        starts = self._starts
        j = None
        for idx, b in enumerate(self.base):
            if starts[g[b]] != b:
                j = idx
                break
        if j is None:
            q = self.block
            if q > 1:
                sent = self._sent
                if g in sent:
                    return None
                # the first points of the blocks g sends the blocks to
                if compose(starts, g[::q]) == starts[::q]:
                    if self.kernel is None:
                        self.kernel = StabilizerChain(self.degree, ())
                    self.kernel.extend(g)
                    if len(sent) < sum(map(len, self.transversals)):
                        sent.add(g)
                    return None
            # new base point: the first point of the smallest block g moves
            self._add_level(
                next(x for x in range(0, self.degree, q) if starts[g[x]] != x))
            j = len(self.base) - 1
        pair = (g, inverse(g))
        if is_input:
            self._inputs.append(pair)
        for i in range(j + 1):
            self._gens[i].append(pair)
            self._extend_orbit(i, pair)
        return j

    def _extend_orbit(self, i: int, pair: tuple[Perm, Perm]) -> None:
        """Close level i's orbit under its generators after `pair` joined
        them.  Points already present keep their representatives."""
        trans = self.transversals[i]
        starts = self._starts
        ident = self._identity
        g, g_inv = pair
        new = []
        for x, v in list(trans.items()):
            y = starts[g[x]]
            if y not in trans:
                trans[y] = g_inv if v is ident else compose(v, g_inv)
                new.append(y)
        gens = self._gens[i]
        for x in new:  # `new` grows while it is walked: a breadth-first search
            v = trans[x]
            for s, s_inv in gens:
                y = starts[s[x]]
                if y not in trans:
                    trans[y] = compose(v, s_inv)
                    new.append(y)

    def _sift_from(self, level: int, g: Perm) -> Perm:
        """Sift g through levels >= level; returns the residue, which is the
        identity exactly when g lies in the level's group (for a block
        chain: fixes every block exactly when g's action on the blocks
        lies in the level's)."""
        starts = self._starts
        ident = self._identity
        for i in range(level, len(self.base)):
            v = self.transversals[i].get(starts[g[self.base[i]]])
            if v is None:
                return g
            if v is not ident:
                g = compose(v, g)
        return g

    def _process_level(self, i: int) -> Optional[int]:
        """Sift the Schreier generators of level i not yet verified; install
        the first residue outside the kernel and return the level it
        changed.  Level 0 pairs its orbit with the inputs only, which
        generate the group."""
        gens = self._gens[i] if i else self._inputs
        count = len(gens)  # fixed until an install, after which it returns
        trans = self.transversals[i]
        starts = self._starts
        verified = self._verified[i]
        ident = self._identity
        for beta, v_beta in trans.items():
            done = verified.get(beta, 0)
            if done == count:
                continue
            u_beta = None
            for k in range(done, count):
                s = gens[k][0]
                v_gamma = trans[starts[s[beta]]]
                w = s if v_gamma is ident else compose(v_gamma, s)
                # the Schreier generator w·v_β⁻¹ is the identity exactly
                # when w = v_β; otherwise w becomes it
                if w == v_beta:
                    continue
                if v_beta is not ident:
                    if u_beta is None:
                        u_beta = inverse(v_beta)
                    w = compose(w, u_beta)
                residue = self._sift_from(i + 1, w)
                if residue != ident:
                    changed = self._install(residue)
                    if changed is not None:
                        # the orbits only grow, so every verified pair
                        # stays verified: its Schreier generator and
                        # sift path are fixed.  Returning at once also
                        # keeps `trans`, which _install extends, from
                        # changing under this loop.
                        verified[beta] = k
                        return changed
            verified[beta] = count
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
        when g is already a member.  Only chains with blocks of one point
        are extended."""
        residue = self._sift_from(0, g)
        if residue == self._identity:
            return False
        self._complete(self._install(residue, True))
        return True

    def stabilizer(self) -> StabilizerChain:
        """Chain of the stabilizer of the first base point (for a block
        chain: of the first base block, with the same kernel), sharing this
        chain's levels after the first; a shared level must not be extended
        through either chain."""
        stab = copy.copy(self)
        for name in ("base", "transversals", "_gens", "_verified"):
            setattr(stab, name, getattr(self, name)[1:])
        stab._inputs = stab._gens[0] if stab._gens else []
        stab._reps = None
        return stab

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, g: Sequence[int]) -> bool:
        return self._sift_from(0, tuple(g)) == self._identity

    def random_element(self, rng: random.Random) -> Perm:
        """A uniformly random element of a chain with blocks of one point.

        With b the first base point, each g in G is h∘v for exactly one h
        in the stabilizer of b and one inverse representative v, that of
        the point g⁻¹(b).  So the product of one uniform choice per level,
        deepest level last, is uniform on G (Holt, Eick and O'Brien,
        *Handbook*, 4.4).  Levels of one point are skipped."""
        reps = self._reps
        if reps is None:
            reps = self._reps = [list(t.values()) for t in self.transversals
                                 if len(t) > 1]
        ident = g = self._identity
        for level in reps:
            v = rng.choice(level)
            if g is ident:
                g = v
            elif v is not ident:
                g = compose(v, g)
        return g

    def draws(self) -> Iterator[Perm]:
        """random_element without end, from a generator seeded with
        DRAW_SEED at the call: every call gives the same stream."""
        rng = random.Random(DRAW_SEED)
        while True:
            yield self.random_element(rng)

    def elements(self) -> list[Perm]:
        """All group elements as image tuples (size = order)."""
        ident = self._identity
        elems = [ident]
        for trans in reversed(self.transversals):
            reps = [trans[x] for x in sorted(trans)]
            reps = [v if v is ident else inverse(v) for v in reps]
            elems = [e if u is ident else u if e is ident else compose(u, e)
                     for u in reps for e in elems]
        return elems


def _close_under_conjugation(chain: StabilizerChain, gens: list[Perm],
                             conjugators: Sequence[Perm]) -> None:
    """Extend `chain`, the chain of the group `gens` generate, by
    conjugates of its elements under the conjugators until it is closed
    under them; `gens` gains each conjugate that extended the chain."""
    pairs = [(x, inverse(x)) for x in conjugators]
    queue = list(gens)
    while queue:
        h = queue.pop()
        for x, x_inv in pairs:
            c = compose(x_inv, compose(h, x))
            if chain.extend(c):
                gens.append(c)
                queue.append(c)


# ---------------------------------------------------------------------------
# PermGroup and its operations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PermGroup:
    """A permutation group given by generators, with a cached BSGS.

    Treated as immutable after construction; the only mutations are the
    write-once attachments of the stabilizer chain and of the derived
    series, which are deterministic for fixed input and therefore safe to
    share between threads.  The chain is never extended: a point
    stabilizer shares its levels, and only ``normal_closure`` extends a
    chain, the private one it grows before it returns the group.
    """

    degree: int
    generators: tuple[Perm, ...]
    bsgs: Optional[StabilizerChain] = field(default=None, repr=False)
    name: Optional[str] = None
    _series: Optional[tuple[PermGroup, ...]] = field(default=None, init=False, repr=False)

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


def point_stabilizer(g: PermGroup) -> PermGroup:
    """Stabilizer of point 0: the strong generators of g's chain that fix
    0, which are its level-1 generators, with the chain's levels after the
    first as its own chain.  No chain is built; the two groups share
    levels, which is safe because a PermGroup's chain is never extended."""
    if all(s[0] == 0 for s in g.generators):
        # g is its own stabilizer; this covers every chain that does not
        # start at 0, since those are the chains of stabilizers
        return g
    stab = g.chain().stabilizer()
    # a regular g has one level and a trivial stabilizer
    gens = tuple(s for s, _ in stab._gens[0]) if stab._gens else ()
    return PermGroup(degree=g.degree, generators=gens, bsgs=stab)


class _Members(list):
    """Seeds that lie in g by construction: normal_closure runs its random
    phase on them without sifting each through g's chain."""


def normal_closure(g: PermGroup, seeds: Iterable[Perm]) -> PermGroup:
    """Smallest subgroup N containing the seeds and closed under
    conjugation by the generators of g; the object g itself when N = g.

    A closure equal to g is proved by its order, with no Schreier-Sims
    completion.  A random phase grows an unverified chain from seeded
    random elements of N: r <- x⁻¹(r·s)x, with s a random seed and x a
    random element of g, installing each residue of r that is not the
    identity as an input.  Conjugating the whole product, not only the
    seed, keeps consecutive draws from sifting alike when the seeds move
    few points.  Each residue lies in N, so the chain's order is at most
    |N| <= |g| (module docstring): reaching |g| proves N = g, and g is
    returned.

    The bound N <= g needs every seed in g, so the phase runs only when
    each seed sifts through g's chain, or the seeds come as _Members: with
    g = <(0 1)(2 3)> and the seed (0 1), N = <(0 1)> has the order of g
    but is not g.  It is skipped too when every seed is even and a
    generator of g is odd, since N then lies in the even part of g and the
    phase could only miss.

    Each install adds a point to a basic orbit, and a level has at least
    two points, so there are at most log₂|g| levels and degree·log₂|g|
    installs; the phase ends after _CLOSURE_MISSES draws in a row sift to
    the identity.  Its chain is then completed; it is a complete chain of
    a subgroup of N, so its order reaching |g| still proves N = g.
    Otherwise it is extended by the seeds and closed under conjugation by
    g's generators, which is how the closure is built when the phase does
    not run.  The residues are elements of N, so the result is N either
    way.
    """
    seed_tuples = []
    for s in seeds:
        if len(s) != g.degree:
            raise DegreeMismatch(f"seed degree {len(s)} != {g.degree}")
        if not is_identity(s):
            seed_tuples.append(s)
    chain = StabilizerChain(g.degree, ())
    gens: list[Perm] = []
    if (seed_tuples
            # conjugates of even seeds are even: N = g needs an odd seed or an even g
            and (not all(map(_is_even, seed_tuples)) or all(map(_is_even, g.generators)))
            and (isinstance(seeds, _Members) or all(map(g.chain().contains, seed_tuples)))):
        ambient = g.chain()
        target = ambient.order()
        ident = chain._identity
        rng = random.Random(DRAW_SEED)
        r = ident
        misses = 0
        while misses < _CLOSURE_MISSES:
            x = ambient.random_element(rng)
            s = rng.choice(seed_tuples)
            r = s if r is ident else compose(r, s)
            # the identity object replaces a product equal to it; no
            # conjugate by the identity is formed
            if r == ident:
                r = ident
            elif x != ident:
                r = compose(inverse(x), compose(r, x))
            residue = chain._sift_from(0, r)
            if residue == ident:
                misses += 1
                continue
            misses = 0
            chain._install(residue, True)
            gens.append(residue)
            if chain.order() == target:
                return g
        chain._complete(len(chain.base) - 1)
        if chain.order() == target:
            return g
    gens += [t for t in seed_tuples if chain.extend(t)]
    _close_under_conjugation(chain, gens, g.generators)
    return PermGroup(degree=g.degree, generators=tuple(gens), bsgs=chain)


def chain_of_known_order(degree: int, members: Iterable[Perm],
                         target: int) -> Optional[StabilizerChain]:
    """A complete chain of a group H of order `target`, grown from
    `members`, which must all lie in H, as soon as its order reaches
    `target` (the module docstring has the proof); None when the members
    run out first."""
    chain = StabilizerChain(degree, ())
    members = iter(members)
    while chain.order() != target:
        g = next(members, None)
        if g is None:
            return None
        residue = chain._sift_from(0, g)
        if residue != chain._identity:
            chain._install(residue, True)
    return chain


def derived_subgroup(g: PermGroup) -> PermGroup:
    """Commutator subgroup: normal closure of one commutator per unordered
    pair of generators ([b, a] is the inverse of [a, b]).

    The commutators are products of g's generators, so they lie in g:
    passed as _Members, they are not sifted through g's chain before
    normal_closure's random phase."""
    with_inverses = [(a, inverse(a)) for a in g.generators]
    comms = []
    for (a, a_inv), (b, b_inv) in itertools.combinations(with_inverses, 2):
        c = compose(compose(a_inv, b_inv), compose(a, b))
        if not is_identity(c):
            comms.append(c)
    return normal_closure(g, _Members(comms))


def derived_series(g: PermGroup) -> list[PermGroup]:
    """G > G' > G'' > ... ; each term is a proper subgroup of the one
    before, and the last is trivial (g solvable) or perfect.  Built once
    per group and kept on it, as its chain is."""
    if g._series is None:
        series = [g]
        while order(series[-1]) > 1:
            nxt = derived_subgroup(series[-1])
            if order(nxt) == order(series[-1]):
                break
            series.append(nxt)
        g._series = tuple(series)
    return list(g._series)


def conjugacy_class_representatives(g: PermGroup, elements: list[Perm]) -> list[Perm]:
    """One representative image tuple per conjugacy class of g, whose
    elements, g.chain().elements(), the caller passes as `elements`.

    Classes are found by closing the element set under conjugation by the
    generators; deterministic because elements() order is deterministic.
    The identity's class is {1}, so it is recorded without conjugating it.
    """
    conjugators = [(x, inverse(x)) for x in g.generators]
    one = identity(g.degree)
    # the elements not yet in a class; holding the listed tuples rather than
    # the conjugates found keeps one copy of each element alive, not two
    unassigned = set(elements)
    reps: list[Perm] = []
    for e in elements:
        if e not in unassigned:
            continue
        reps.append(e)
        queue = [] if e == one else [e]
        unassigned.remove(e)
        while queue:
            h = queue.pop()
            for x, x_inv in conjugators:
                c = compose(x_inv, compose(h, x))
                if c in unassigned:
                    unassigned.remove(c)
                    queue.append(c)
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
    if degree > DEGREE_BOUND:
        raise MalformedDocument(f"degree {degree} exceeds the bound {DEGREE_BOUND}")
    if not isinstance(raw_gens, list):
        raise MalformedDocument("generators must be a list of image lists")
    for images in raw_gens:
        if (not isinstance(images, list) or any(type(x) is not int for x in images)
                or sorted(images) != list(range(degree))):
            raise MalformedDocument(
                f"generator {images!r} is not a bijection of 0..{degree - 1}")
    name = optional_field(document, "name", str)
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
