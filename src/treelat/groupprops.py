"""Property analysis of permutation groups.

Transitivity grades, primitivity (one block refinement per suborbit),
quasi-primitivity via minimal normal subgroups, almost-simple typing,
and the section tests that drive the obstruction reports.

Everything here is exact.  Almost simple typing and simplicity are first
proved without listing the group (``_simple_residual``); where that proof
does not apply, the group is enumerated.  TooLarge means only that an
enumeration which had to run would list more elements than the cap allows;
no heuristic answer is ever returned instead.  The section tests draw
seeded random elements, but only to find a witness whose check is exact;
when the draws find none, the exhaustive path decides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

from .errors import (
    DegreeTooSmall,
    InternalInvariantError,
    NotNormal,
    NotTransitive,
    PreconditionFailed,
    TooLarge,
)
from .permcore import (
    DEFAULT_ENUM_CAP,
    Perm,
    PermGroup,
    StabilizerChain,
    compose,
    conjugacy_class_representatives,
    contains,
    derived_series,
    element_order,
    identity,
    inverse,
    is_identity,
    normal_closure,
    orbit,
    order,
    point_stabilizer,
)

DEFAULT_SECTION_CAP = 2_000
_SUBGROUP_COUNT_CAP = 100_000
# random draws: each call seeds its own generator with _DRAW_SEED, so every
# report is reproducible; the other constants bound the draws of one call
_DRAW_SEED = 0
_SPECTRUM_DRAWS = 64
_GENERATOR_PAIRS = 16
_EMBEDDING_DRAWS = 2_000

# QpType tags
ALMOST_SIMPLE = "AlmostSimple"
TWO_REGULAR_MNS = "TwoRegularMns"
OTHER_QUASIPRIMITIVE = "OtherQuasiprimitive"
NOT_QUASIPRIMITIVE = "NotQuasiprimitive"
INTRANSITIVE = "Intransitive"

# section verdicts
YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class QpType:
    """Quasi-primitivity classification of a transitive-or-not group."""

    tag: str
    mns_orders: tuple[int, ...]
    socle_order: int


@dataclass(frozen=True)
class SectionReport:
    """Necessary conditions (and, when cheap enough, the exact answer) for
    one simple group being a section of another group."""

    order_divides: bool
    prime_spectrum_ok: bool
    element_order_spectrum_ok: bool
    exact: str
    witness: Optional[str] = None

    def __post_init__(self) -> None:
        flags = (self.order_divides, self.prime_spectrum_ok,
                 self.element_order_spectrum_ok)
        if self.exact == YES and not all(flags):
            raise InternalInvariantError("exact section with a failed necessary flag")
        if not all(flags) and self.exact != NO:
            raise InternalInvariantError("failed necessary flag must force exact=no")


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------

def is_transitive(g: PermGroup) -> bool:
    if g.degree < 2:
        raise DegreeTooSmall(f"transitivity needs degree >= 2, got {g.degree}")
    return len(orbit(g, 0)) == g.degree


def is_2transitive(g: PermGroup) -> bool:
    if g.degree < 2:
        raise DegreeTooSmall(f"2-transitivity needs degree >= 2, got {g.degree}")
    if not is_transitive(g):
        return False
    stab = point_stabilizer(g)
    return len(orbit(stab, 1)) == g.degree - 1


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------

def _joins_all_points(g: PermGroup, beta: int) -> bool:
    """Whether the finest g-congruence putting 0 and beta in the same class
    has only one class (union-find refinement, stopping once it does)."""
    parent = list(range(g.degree))
    classes = g.degree - 1

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    parent[beta] = 0
    queue = [beta]
    for gamma in queue:
        if classes == 1:
            return True
        delta = find(gamma)
        for s in g.generators:
            ra, rb = find(s[gamma]), find(s[delta])
            if ra != rb:
                keep, lost = min(ra, rb), max(ra, rb)
                parent[lost] = keep
                classes -= 1
                queue.append(lost)
    return classes == 1


def is_primitive(g: PermGroup) -> bool:
    """Whether the transitive group g has no block system but the trivial
    ones; NotTransitive when g is not transitive.

    An element h fixing 0 maps the finest congruence joining 0 and beta
    onto the one joining 0 and h(beta), so one beta per suborbit (orbit of
    the stabilizer of 0) decides; the check stops at the first beta whose
    class of 0 is not the whole point set.
    """
    if not is_transitive(g):
        raise NotTransitive("primitivity is defined for transitive groups")
    stab = point_stabilizer(g)
    decided = {0}
    for beta in range(1, g.degree):
        if beta in decided:
            continue
        if not _joins_all_points(g, beta):
            return False
        decided |= orbit(stab, beta)
    return True


# ---------------------------------------------------------------------------
# minimal normal subgroups and quasi-primitivity
# ---------------------------------------------------------------------------

def _subgroup_leq(a: PermGroup, b: PermGroup) -> bool:
    return all(contains(b, p) for p in a.generators)


def minimal_normal_subgroups(g: PermGroup,
                             enum_cap: int = DEFAULT_ENUM_CAP) -> list[PermGroup]:
    """Minimal elements, under containment, of the normal closures of single
    non-identity elements; these are exactly the minimal normal subgroups.

    Normal closure is constant on conjugacy classes, so only one closure per
    class is computed.
    """
    n = order(g)
    if n > enum_cap:
        raise TooLarge(f"group order {n} exceeds enumeration cap {enum_cap}")
    if n == 1:
        return []
    reps = conjugacy_class_representatives(g)
    closures: list[PermGroup] = []
    for rep in reps:
        if is_identity(rep):
            continue
        nc = normal_closure(g, [rep])
        if not any(order(c) == order(nc) and _subgroup_leq(c, nc) for c in closures):
            closures.append(nc)
    minimal = []
    for c in closures:
        if not any(order(d) < order(c) and _subgroup_leq(d, c) for d in closures):
            minimal.append(c)
    minimal.sort(key=order)
    return minimal


def _no_regular_mns(n: int, h_order: int) -> bool:
    """Condition (d) of _simple_residual: a group of degree n with point
    stabilizer of order h_order has no regular minimal normal subgroup."""
    primes = _prime_factors(n)
    if len(primes) != 1:
        return n < 60
    p = primes.pop()
    # n = p^d and |GL(d, p)| = (n - 1)(n - p)...(n - p^(d-1))
    gl_order, q = 1, 1
    while q < n:
        gl_order *= n - q
        q *= p
    return gl_order % h_order != 0


def _minimal_normal_of_stabilizer(h: PermGroup, enum_cap: int) -> list[PermGroup]:
    """The minimal normal subgroups of h, through _simple_residual on the
    points h moves when that proves one, else by enumeration, which raises
    TooLarge past the cap: the caller would enumerate a larger group."""
    support = sorted({x for s in h.generators for x in range(h.degree) if s[x] != x})
    label = {x: i for i, x in enumerate(support)}
    on_support = PermGroup(degree=len(support),
                           generators=tuple(tuple(label[s[x]] for x in support)
                                            for s in h.generators))
    socle = _simple_residual(on_support, enum_cap)
    if socle is not None:
        gens = []
        for s in socle.generators:
            images = list(range(h.degree))
            for i, x in enumerate(support):
                images[x] = support[s[i]]
            gens.append(tuple(images))
        return [PermGroup(degree=h.degree, generators=tuple(gens))]
    return minimal_normal_subgroups(h, enum_cap)


def _simple_residual(g: PermGroup, enum_cap: int) -> Optional[PermGroup]:
    """The solvable residual D of g, when it is provably nonabelian simple
    and the only minimal normal subgroup of g; otherwise None.

    Nothing of the size of g is enumerated.  Let g be transitive on its n
    points, D the last term of its derived series (so D is perfect) and
    H = D_0.  D is simple and g's only minimal normal subgroup when

    (a) D is transitive and primitive;
    (b) H != 1;
    (c) for every minimal normal subgroup K of H, the normal closure of K
        in D is D;
    (d) D has no regular minimal normal subgroup: either n < 60 and n is
        not a prime power, or n = p^d and |H| does not divide |GL(d, p)|.

    Proof.  Let N be a minimal normal subgroup of D; N is transitive
    because D is primitive.  If N ∩ H != 1, it is normal in H and contains
    some K of (c), so N contains the closure of K, which is D.
    Otherwise N is regular and characteristically simple.  If N is
    elementary abelian of order n = p^d, then D = N ⋊ H and H acts
    faithfully on N by conjugation (the centralizer of a regular group is
    semiregular), so H embeds in GL(d, p); if N is nonabelian,
    n = |N| >= 60 and n is not a prime power.  (d) rules out both, so D is
    simple, and nonabelian because it is perfect.  Being simple and normal
    in g, D is minimal normal in g.  Primitivity of D and H != 1 give
    N_D(H) = H, so the centralizer of D in the symmetric group, which is
    isomorphic to N_D(H)/H, is trivial; a second minimal normal subgroup of
    g would centralize D, so there is none.

    (c) takes the minimal normal subgroups of H by the same test, run on
    the points H moves; where it fails, H is enumerated under enum_cap
    (Seress, *Permutation Group Algorithms*, ch. 6, reduces simplicity
    through point stabilizers in the same way).
    """
    n = g.degree
    if n < 2 or len(orbit(g, 0)) != n:
        return None
    d = derived_series(g)[-1]
    d_order = order(d)
    if d_order == 1 or len(orbit(d, 0)) != n:
        return None
    h = point_stabilizer(d)
    h_order = order(h)
    if h_order == 1 or not _no_regular_mns(n, h_order) or not is_primitive(d):
        return None
    mns = _minimal_normal_of_stabilizer(h, enum_cap)
    if all(order(normal_closure(d, k.generators)) == d_order for k in mns):
        return d
    return None


def is_abelian(g: PermGroup) -> bool:
    gens = g.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if compose(a, b) != compose(b, a):
                return False
    return True


def is_simple(g: PermGroup, enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Simplicity.  When _simple_residual finds the residual D, D is g's
    only minimal normal subgroup, so g is simple exactly when D = g and
    nothing is enumerated.  Otherwise g is simple exactly when its minimal
    normal subgroups are g alone."""
    n = order(g)
    if n == 1:
        return False
    d = _simple_residual(g, enum_cap)
    if d is not None:
        return order(d) == n
    mns = minimal_normal_subgroups(g, enum_cap)
    return len(mns) == 1 and order(mns[0]) == n


def classify_qp_with_mns(g: PermGroup, enum_cap: int = DEFAULT_ENUM_CAP
                         ) -> tuple[QpType, list[PermGroup]]:
    """Quasi-primitivity type per the almost-simple / two-regular split,
    together with the minimal normal subgroups themselves.

    When _simple_residual proves the solvable residual simple and the only
    minimal normal subgroup, g is almost simple and nothing is enumerated.
    Otherwise the minimal normal subgroups are enumerated.  A
    quasi-primitive group is expected to have one or two of them; more
    than two is reported as an internal error rather than silently trusted
    away.
    """
    socle = _simple_residual(g, enum_cap)
    if socle is not None:
        socle_order = order(socle)
        return QpType(tag=ALMOST_SIMPLE, mns_orders=(socle_order,),
                      socle_order=socle_order), [socle]
    mns = minimal_normal_subgroups(g, enum_cap)
    mns_orders = tuple(order(m) for m in mns)
    socle_gens = tuple(p for m in mns for p in m.generators)
    socle_order = order(PermGroup(degree=g.degree, generators=socle_gens))
    transitive = g.degree < 2 or len(orbit(g, 0)) == g.degree
    if not transitive:
        return QpType(tag=INTRANSITIVE, mns_orders=mns_orders,
                      socle_order=socle_order), mns
    if any(len(orbit(m, 0)) != g.degree for m in mns):
        return QpType(tag=NOT_QUASIPRIMITIVE, mns_orders=mns_orders,
                      socle_order=socle_order), mns
    if len(mns) > 2:
        raise InternalInvariantError(
            f"quasi-primitive group with {len(mns)} minimal normal subgroups")
    if len(mns) == 1:
        m = mns[0]
        # a minimal normal subgroup equal to g leaves g no proper nontrivial
        # normal subgroup: g is simple by definition
        if not is_abelian(m) and (order(m) == order(g) or is_simple(m, enum_cap)):
            return QpType(tag=ALMOST_SIMPLE, mns_orders=mns_orders,
                          socle_order=socle_order), mns
    if len(mns) == 2 and all(o == g.degree for o in mns_orders):
        return QpType(tag=TWO_REGULAR_MNS, mns_orders=mns_orders,
                      socle_order=socle_order), mns
    return QpType(tag=OTHER_QUASIPRIMITIVE, mns_orders=mns_orders,
                  socle_order=socle_order), mns


# ---------------------------------------------------------------------------
# section tests
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _check_enum_cap(g: PermGroup, enum_cap: int) -> None:
    n = order(g)
    if n > enum_cap:
        raise TooLarge(f"group order {n} exceeds enumeration cap {enum_cap}")


def element_order_spectrum(g: PermGroup, enum_cap: int = DEFAULT_ENUM_CAP) -> set[int]:
    _check_enum_cap(g, enum_cap)
    return {element_order(t) for t in g.chain().elements()}


def _draws_then_elements(chain: StabilizerChain) -> Iterator[Perm]:
    """_SPECTRUM_DRAWS seeded random elements of the chain's group, then
    all its elements, listed only if the caller reads past the draws."""
    rng = random.Random(_DRAW_SEED)
    for _ in range(_SPECTRUM_DRAWS):
        yield chain.random_element(rng)
    yield from chain.elements()


def section_necessary(m: PermGroup, s: PermGroup,
                      enum_cap: int = DEFAULT_ENUM_CAP) -> SectionReport:
    """Necessary conditions for m to be a section of s.

    (a) |m| divides |s|; (b) every prime of |m| divides |s|; (c) every
    element order of m divides some element order of s.  A failed flag
    settles the exact answer as "no"; all flags passing leaves "unknown".
    m need not be simple: a section H/N of s has order dividing |s|, and
    each element order of H/N divides the order of a preimage in s.  (b)
    cannot fail when (a) holds, since each prime of |m| divides every
    multiple of |m|; it is reported for the case where (a) fails.

    (c) first scans a fixed number of seeded random elements of s and
    lists s only when some order of m divides none of theirs: a pass needs
    one witness per order, a failure the whole spectrum.  |s| is held to
    enum_cap either way.
    """
    om, os_ = order(m), order(s)
    order_divides = os_ % om == 0
    prime_ok = _prime_factors(om) <= _prime_factors(os_)
    witness = None
    spectrum_ok = True
    if not order_divides:
        witness = f"|m|={om} does not divide |s|={os_}"
    else:
        # the orders of m that divide no order of s seen so far; the scan
        # of s stops once there are none
        missing = element_order_spectrum(m, enum_cap)
        _check_enum_cap(s, enum_cap)
        for t in _draws_then_elements(s.chain()):
            if not missing:
                break
            o2 = element_order(t)
            missing = {o for o in missing if o2 % o}
        if missing:
            spectrum_ok = False
            witness = f"element orders {sorted(missing)} of m divide no element order of s"
    exact = UNKNOWN if (order_divides and spectrum_ok) else NO
    return SectionReport(order_divides=order_divides,
                         prime_spectrum_ok=prime_ok,
                         element_order_spectrum_ok=spectrum_ok,
                         exact=exact,
                         witness=witness)


class _CayleyTable:
    """Dense multiplication table over the elements of a small group.

    Elements are numbered as their sorted image tuples, which are not
    kept; ``mul[i][j]`` is the number of element i composed with element
    j.  Only the generators' rows are composed: left multiplication gives
    row(g∘a) = row_g[row_a[·]], so a breadth-first walk from the identity
    fills every other row with one ``itemgetter`` call.  ``gens`` holds
    the numbers of g's non-identity generators."""

    def __init__(self, g: PermGroup):
        elements = g.chain().elements()
        elements.sort()
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        self.e = e = index[identity(g.degree)]
        gen_rows = {tuple(index[compose(s, b)] for b in elements)
                    for s in g.generators}
        self.gens = sorted({index[s] for s in g.generators} - {e})
        mul: list[Optional[tuple[int, ...]]] = [None] * n
        mul[e] = tuple(range(n))
        queue = [e]
        for a in queue:
            row_a = itemgetter(*mul[a])
            for row_g in gen_rows:
                ga = row_g[a]
                if mul[ga] is None:
                    mul[ga] = row_a(row_g)
                    queue.append(ga)
        self.mul = mul
        self.inv = [row.index(e) for row in mul]


def _extend_subgroup(table: _CayleyTable, elems: list[int],
                     gens: tuple[int, ...], x: int) -> tuple[frozenset, tuple[int, ...]]:
    """<H, x> by coset accumulation (Dimino step): H given by its sorted
    element list and generators."""
    new_gens = gens + (x,)
    in_set = set(elems)
    out = list(elems)
    reps = [table.e]
    i = 0
    while i < len(reps):
        r = reps[i]
        i += 1
        for gidx in new_gens:
            t = table.mul[r][gidx]
            if t not in in_set:
                reps.append(t)
                for h in elems:
                    u = table.mul[h][t]
                    in_set.add(u)
                    out.append(u)
    return frozenset(in_set), new_gens


def _double_coset(table: _CayleyTable, elems: list[int],
                  gens: tuple[int, ...], x: int) -> set[int]:
    """HxH as a union of left cosets yH, closed under left multiplication
    by the generators of H."""
    if len(elems) == 1:
        return {x}
    mul = table.mul
    coset_of = itemgetter(*elems)
    out = set(coset_of(mul[x]))
    reps = [x]
    for y in reps:
        for g in gens:
            gy = mul[g][y]
            if gy not in out:
                out.update(coset_of(mul[gy]))
                reps.append(gy)
    return out


def _conjugate_set(table: _CayleyTable, elems: frozenset, g: int) -> frozenset:
    g_inv = table.inv[g]
    mul = table.mul
    return frozenset(mul[mul[g_inv][t]][g] for t in elems)


class _SubgroupCountCapExceeded(Exception):
    """The lattice walk met more than _SUBGROUP_COUNT_CAP subgroups."""


def _subgroup_class_representatives(
        table: _CayleyTable) -> Iterator[tuple[frozenset, tuple[int, ...]]]:
    """Yield one representative subgroup per conjugacy class, as (element
    set, generator list), each as soon as it is found; raise
    _SubgroupCountCapExceeded once more than _SUBGROUP_COUNT_CAP distinct
    subgroups (all conjugates of the representatives) are known.

    Extending class representatives by every element reaches every class:
    any chain H < <H, x> descends to a representative chain after
    conjugation.  Enough here because section existence is a
    conjugation-invariant question.  Since <H, h1 x h2> = <H, x> for h1, h2
    in H, x is adjoined to H once per double coset HxH; the other members
    of HxH would give the same subgroup, so the representatives and their
    order are those of adjoining every element."""
    trivial = (frozenset({table.e}), ())
    known: set[frozenset] = {trivial[0]}
    yield trivial
    frontier = [trivial]
    n = len(table.mul)
    while frontier:
        nxt = []
        for elems_set, gens in frontier:
            elems = sorted(elems_set)
            done = set(elems_set)
            for x in range(n):
                if x in done:
                    continue
                sub = _extend_subgroup(table, elems, gens, x)
                done |= _double_coset(table, elems, gens, x)
                if sub[0] in known:
                    continue
                nxt.append(sub)
                # the conjugacy class of sub: its orbit under conjugation
                # by the generators of the group
                known.add(sub[0])
                conjugates = [sub[0]]
                for h in conjugates:
                    for s in table.gens:
                        c = _conjugate_set(table, h, s)
                        if c not in known:
                            known.add(c)
                            conjugates.append(c)
                if len(known) > _SUBGROUP_COUNT_CAP:
                    raise _SubgroupCountCapExceeded
                yield sub
        frontier = nxt


def _class_closure(table: _CayleyTable, sub_gens: tuple[int, ...],
                   x: int) -> list[int]:
    """Conjugacy class of x under the subgroup's generators."""
    cls = {x}
    queue = [x]
    while queue:
        y = queue.pop()
        for gidx in sub_gens:
            c = table.mul[table.mul[table.inv[gidx]][y]][gidx]
            if c not in cls:
                cls.add(c)
                queue.append(c)
    return sorted(cls)


def _maximal_normal_subgroup(table: _CayleyTable, sub: tuple[frozenset, tuple[int, ...]]
                             ) -> tuple[frozenset, tuple[int, ...]]:
    """A maximal proper normal subgroup of the given subgroup, built by
    greedily joining normal closures of conjugacy classes."""
    elems_set, gens = sub
    size = len(elems_set)
    current: tuple[frozenset, tuple[int, ...]] = (frozenset({table.e}), ())
    seen_classes: set[int] = set()
    for x in sorted(elems_set):
        if x == table.e or x in seen_classes or x in current[0]:
            continue
        cls = _class_closure(table, gens, x)
        seen_classes.update(cls)
        candidate = current
        for y in cls:
            if y not in candidate[0]:
                candidate = _extend_subgroup(table, sorted(candidate[0]),
                                             candidate[1], y)
        if len(candidate[0]) < size:
            current = candidate
    return current


def _quotient_spectrum(table: _CayleyTable, big: frozenset, small: frozenset) -> set[int]:
    """Element orders of big/small: for each x, the least d with x^d in small."""
    spectrum = set()
    for x in big:
        d, y = 1, x
        while y not in small:
            y = table.mul[y][x]
            d += 1
        spectrum.add(d)
    return spectrum


def _has_factor(table: _CayleyTable, sub: tuple[frozenset, tuple[int, ...]],
                om: int, spec_m: set[int]) -> bool:
    """Whether a composition factor of sub has order om and element-order
    spectrum spec_m, walking one composition series from the top (by
    Jordan-Hölder every series has the same factors)."""
    current = sub
    while len(current[0]) % om == 0:
        nmax = _maximal_normal_subgroup(table, current)
        factor_order = len(current[0]) // len(nmax[0])
        if factor_order == om and _quotient_spectrum(table, current[0], nmax[0]) == spec_m:
            return True
        current = nmax
    return False


def _two_generators(m: PermGroup, om: int, rng: random.Random) -> tuple[Perm, ...]:
    """A pair of random elements of m whose chain has order |m|, so that
    they generate m, when one of _GENERATOR_PAIRS seeded pairs does; else
    m's non-identity generators."""
    gens = tuple(g for g in m.generators if not is_identity(g))
    if len(gens) <= 2:
        return gens
    chain = m.chain()
    for _ in range(_GENERATOR_PAIRS):
        pair = (chain.random_element(rng), chain.random_element(rng))
        if StabilizerChain(m.degree, pair).order() == om:
            return pair
    return gens


def _word_orders(a: Perm, b: Perm) -> tuple[int, ...]:
    """The orders of ab, ab⁻¹, a²b and [a, b] = a⁻¹b⁻¹ab."""
    ab = compose(a, b)
    b_inv = inverse(b)
    return (element_order(ab), element_order(compose(a, b_inv)),
            element_order(compose(a, ab)),
            element_order(compose(compose(inverse(a), b_inv), ab)))


def _embeds(m: PermGroup, om: int, s: PermGroup) -> bool:
    """Whether a seeded search of _EMBEDDING_DRAWS random elements of s
    finds images x_i of generators g_i of the nonabelian simple group m
    (two of them where _two_generators finds a pair) that make g_i ↦ x_i
    an injective homomorphism; True proves that m is a subgroup of s.

    Proof.  D = <(g_i, x_i)> acts on the disjoint union of the two point
    sets, and its projection onto the first factor maps D onto m.  When
    |D| = |m| that projection is a bijection, so φ(g) = the second
    component of its preimage is a homomorphism m -> s with φ(g_i) = x_i.
    Its kernel is normal in the simple group m, and it is not m, because
    ord(x_i) = ord(g_i) > 1; so φ is injective and m ≅ φ(m) <= s.

    Only tuples with ord(x_i) = ord(g_i) and with the orders of a few
    short words in x_1, x_2 equal to those in g_1, g_2 are closed into D:
    an injective homomorphism keeps the order of every word, so the filter
    drops no tuple that would pass.  False proves nothing.
    """
    rng = random.Random(_DRAW_SEED)
    gens = _two_generators(m, om, rng)
    wanted = [element_order(g) for g in gens]
    words = _word_orders(gens[0], gens[1])
    chain = s.chain()
    shift = m.degree
    images: list[Perm] = []
    for _ in range(_EMBEDDING_DRAWS):
        x = chain.random_element(rng)
        if element_order(x) != wanted[len(images)]:
            continue
        images.append(x)
        if len(images) < len(gens):
            continue
        if _word_orders(images[0], images[1]) == words:
            d = StabilizerChain(shift + s.degree,
                                [g + tuple(shift + y for y in x)
                                 for g, x in zip(gens, images)])
            if d.order() == om:
                return True
        images = []
    return False


def section_exact_small(m: PermGroup, s: PermGroup,
                        cap: int = DEFAULT_SECTION_CAP) -> str:
    """Exact section test: is m isomorphic to H/K for some K normal in H <= s?

    Decided only when |s| <= cap; above it the answer is "unknown".  A
    nonabelian m is first sought as a subgroup of s by the embedding
    search of _embeds.  Its "yes" is exact: images x_i of generators g_i
    whose closure <(g_i, x_i)> has order |m| make g_i ↦ x_i a
    homomorphism, injective because m is simple (the proof is in its
    docstring), so m is a section with K = 1.  The search can only
    confirm: a section that is not a subgroup (A5 in SL(2,5)) leaves it
    empty-handed, and so can bad luck.

    Only then is the subgroup lattice of s enumerated up to conjugacy
    (section existence is conjugation-invariant) and each class
    representative's composition series is walked; factors are matched to
    m by order plus element-order spectrum, which determines a finite
    simple group.  The answer is a union over subgroups, so each
    representative is tested as the enumeration yields it and the first
    match returns "yes"; "no" needs the whole lattice.  So the lattice
    refutes, and finds the sections that are no subgroups.  It returns
    "unknown" when the enumeration passes _SUBGROUP_COUNT_CAP subgroups
    before a factor is found, so a "yes" certified before that cap is
    reached, by the embedding or by the lattice, is returned even if the
    full lattice would exceed it.
    """
    om = order(m)
    if om == 1 or not is_simple(m):
        raise PreconditionFailed("section tests require a simple, non-trivial m")
    os_ = order(s)
    if os_ % om != 0:
        return NO
    if is_abelian(m):
        # m is cyclic of prime order; by Cauchy it is a section of s
        # exactly when its order divides |s|, which it does here.
        return YES
    if os_ > cap:
        return UNKNOWN
    if _embeds(m, om, s):
        return YES
    table = _CayleyTable(s)
    spec_m = element_order_spectrum(m)
    try:
        for sub in _subgroup_class_representatives(table):
            if _has_factor(table, sub, om, spec_m):
                return YES
    except _SubgroupCountCapExceeded:
        return UNKNOWN
    return NO


# ---------------------------------------------------------------------------
# solvable outer quotient
# ---------------------------------------------------------------------------

def is_normal_in(m: PermGroup, p: PermGroup) -> bool:
    chain = m.chain()
    for x in p.generators:
        x_inv = inverse(x)
        for h in m.generators:
            if not chain.contains(compose(x_inv, compose(h, x))):
                return False
    return True


def solvable_outer_check(p: PermGroup, m: PermGroup) -> bool:
    """With S the stabilizer of point 0 in p and M∩S its stabilizer in m:
    does the derived series of S descend into M∩S?

    This operationalizes solvability of S/(S∩M) without forming the
    quotient: the series of S eventually landing inside M∩S is equivalent.
    """
    if not is_normal_in(m, p):
        raise NotNormal("m is not normal in p")
    if not is_transitive(p):
        raise NotTransitive("solvable-outer check requires a transitive group")
    s = point_stabilizer(p)
    m_cap_s = point_stabilizer(m)
    chain = m_cap_s.chain()
    for term in derived_series(s):
        if all(chain.contains(q) for q in term.generators):
            return True
    return False
