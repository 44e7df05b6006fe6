"""Property analysis of permutation groups.

Transitivity grades, primitivity (the smallest block through 0 and one
point per suborbit, from the stabilizer chain), quasi-primitivity via
minimal normal subgroups, almost-simple typing, and the section tests
that drive the obstruction reports.

Everything here is exact.  Almost simple typing and simplicity are first
proved without listing the group (``_simple_residual``); where that proof
does not apply, the group is enumerated.  TooLarge means only that an
enumeration which had to run would list more elements than the cap allows;
no heuristic answer is ever returned instead.  The section tests draw
seeded random elements, but only to find a witness whose check is exact;
when the draws find none, the exhaustive path decides.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
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
    DRAW_SEED,
    Perm,
    PermGroup,
    StabilizerChain,
    compose,
    conjugacy_class_representatives,
    contains,
    derived_series,
    element_order,
    inverse,
    is_identity,
    normal_closure,
    orbit,
    order,
    point_stabilizer,
)

DEFAULT_SECTION_CAP = 2_000
# each call seeds its own generator with permcore.DRAW_SEED; these bound
# the random draws of one call
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

def _smallest_block(g: PermGroup, stab: PermGroup, beta: int) -> set[int]:
    """The smallest block of the transitive group g that contains 0 and
    beta: the orbit of 0 under <stab, x>, where stab is the stabilizer of
    0 and x, read off level 0 of g's chain, carries beta to 0."""
    x = g.chain().transversals[0][beta]
    return orbit(PermGroup(degree=g.degree, generators=stab.generators + (x,)), 0)


def is_primitive(g: PermGroup) -> bool:
    """Whether the transitive group g has no block system but the trivial
    ones; NotTransitive when g is not transitive.

    The smallest block through 0 and beta.  Let G_0 be the stabilizer of
    0, x an element carrying beta to 0, and H = <G_0, x>; 0^H holds 0 and
    x⁻¹(0) = beta.  A block B containing 0 and beta is mapped to itself by
    G_0, which fixes 0 in B, and by x, which sends beta in B to 0 in B;
    so B contains 0^H.  And 0^H is itself a block: if y(0^H) meets 0^H,
    say y(h1(0)) = h2(0) with h1, h2 in H, then h2⁻¹·y·h1 fixes 0, so it
    lies in G_0 <= H; hence y is in H and y(0^H) = 0^H.  So 0^H is the
    smallest block containing 0 and beta, and g is primitive exactly when
    it is all points for every beta.

    An element h fixing 0 maps the smallest block through 0 and beta onto
    the one through 0 and h(beta), so one beta per suborbit (orbit of G_0)
    decides; the check stops at the first beta whose block is proper.
    """
    if not is_transitive(g):
        raise NotTransitive("primitivity is defined for transitive groups")
    stab = point_stabilizer(g)
    decided = {0}
    for beta in range(1, g.degree):
        if beta in decided:
            continue
        if len(_smallest_block(g, stab, beta)) < g.degree:
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
    non-identity elements; these are exactly the minimal normal subgroups,
    sorted by order.

    Normal closure is constant on conjugacy classes, so only one closure per
    class is computed.  The closures are taken by order, and one is kept
    when no closure already kept lies in it.  The first copy of each minimal
    normal M is kept: a kept closure inside M is normal and nontrivial, so
    it is M, an earlier copy.  A kept c contains no normal N with 1 < N < c:
    N contains some minimal normal M, whose first copy is kept before c.
    """
    _check_enum_cap(g, enum_cap)
    reps = conjugacy_class_representatives(g, g.chain().elements())
    closures = sorted((normal_closure(g, [rep]) for rep in reps if not is_identity(rep)),
                      key=order)
    minimal: list[PermGroup] = []
    for c in closures:
        if not any(_subgroup_leq(k, c) for k in minimal):
            minimal.append(c)
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
    rng = random.Random(DRAW_SEED)
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
    rng = random.Random(DRAW_SEED)
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


def _quotient_search(m: PermGroup, om: int, p: PermGroup) -> bool:
    """Whether some subgroup of p maps onto the nonabelian simple group m,
    by an exhaustive search for images x_i in p of generators g_i of m
    (two of them where _two_generators finds a pair) such that
    x_i ↦ g_i extends to a homomorphism <x_i> -> m.

    x_1 runs over the conjugacy class representatives of p and every
    other x_i over all of p.  A tuple is closed only when ord(g_i)
    divides ord(x_i) and the orders of a few short words in g_1, g_2
    divide those of the same words in x_1, x_2; a homomorphism maps each
    element to one whose order divides its own, so the filter drops no
    tuple that would pass.  Nor does skipping a tuple whose |<x_i>| is no
    multiple of |m|, since <x_i> must map onto m.  The proof that two
    chain orders decide a tuple, and that the search is complete, is in
    section_exact_small's docstring.
    """
    gens = _two_generators(m, om, random.Random(DRAW_SEED))
    words = _word_orders(gens[0], gens[1])
    elements = p.chain().elements()
    ranges = [conjugacy_class_representatives(p, elements)]
    ranges += [elements] * (len(gens) - 1)
    candidates = [[x for x in xs if element_order(x) % element_order(g) == 0]
                  for g, xs in zip(gens, ranges)]
    shift = p.degree
    for images in itertools.product(*candidates):
        if any(wx % wg for wx, wg in zip(_word_orders(images[0], images[1]), words)):
            continue
        ox = StabilizerChain(p.degree, images).order()
        if ox % om:
            continue
        d = StabilizerChain(shift + m.degree,
                            [x + tuple(shift + y for y in g)
                             for x, g in zip(images, gens)])
        if d.order() == ox:
            return True
    return False


def section_exact_small(m: PermGroup, s: PermGroup,
                        cap: int = DEFAULT_SECTION_CAP) -> str:
    """Exact section test: is m isomorphic to H/K for some K normal in H <= s?

    Decided only when |s| <= cap, where the answer is always "yes" or
    "no"; above the cap it is "unknown".  The steps, in order:

    1. The cheap checks: |m| must divide |s|, an abelian m is answered at
       once, and above the cap the answer is "unknown".
    2. The seeded embedding search _embeds seeks m as a subgroup of s.
       Its "yes" is exact (the proof is in its docstring), with K = 1.
       It cannot refute: a section that is no subgroup (A5 in SL(2,5))
       leaves it empty-handed, and so can bad luck.
    3. With p the last term of the derived series of s, the answer is
       "no" when |m| does not divide |p|.
    4. Otherwise _quotient_search decides.

    The reduction to p.  m is perfect.  If H <= s maps onto m, then so
    does H^(∞), the last term of H's derived series, since the image of
    H^(∞) is m^(∞) = m; and H^(∞) <= s^(∞) = p.  So m is a section of s
    exactly when some subgroup of p maps onto m, and then |m| divides |p|.

    Two chain orders decide a tuple.  Let x_i be elements of p and g_i
    generators of m, and let D = <(x_i, g_i)> act on the disjoint union of
    the two point sets.  D projects onto <x_i>, and the map x_i ↦ g_i
    extends to a homomorphism <x_i> -> m exactly when that projection is
    injective, that is, when D meets {1} × m trivially, that is, when
    |D| = |<x_i>|.  The homomorphism is then onto m, since its image
    holds every g_i, and <x_i>/kernel ≅ m is a section of p.

    Why the search is complete.  When m is a section of s, take H <= p
    smallest with a quotient H/K ≅ m; it exists by the reduction.  Suppose a maximal subgroup M of H did not contain K.  Then
    MK = H and M/(M∩K) ≅ MK/K ≅ m, which contradicts minimality.  So K
    lies in every maximal subgroup of H, K <= Φ(H), and elements y_i of H
    mapping to the g_i generate H: if <y_i> were proper it would lie in
    a maximal M, and <y_i>K = H would lie in M too.  So the tuple (y_i)
    passes the test above, as do its conjugates by any element of p,
    and it is enough to take x_1 up to conjugacy in p.
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
    p = derived_series(s)[-1]
    if order(p) % om:
        return NO
    return YES if _quotient_search(m, om, p) else NO


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
