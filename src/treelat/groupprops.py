"""Property analysis of permutation groups.

Transitivity grades, primitivity (the smallest block through 0 and one
point per suborbit, from the stabilizer chain), quasi-primitivity via
minimal normal subgroups, almost-simple typing, and the section tests
that drive the obstruction reports.

Everything here is exact.  Almost simple typing is first proved without
listing the group (``_simple_residual``); where that proof does not apply,
the group is enumerated, and so is its minimal normal subgroup when it is
the only one and neither abelian nor the whole group.  TooLarge means only
that an enumeration which had to run would list more elements than the cap
allows; no heuristic answer is ever returned instead.  The section tests
draw seeded random elements, but only to find a witness whose check is
exact; when the draws find none, the exhaustive path decides.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

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
    chain_of_known_order,
    compose,
    conjugacy_class_representatives,
    contains,
    derived_series,
    derived_subgroup,
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
_TUPLE_DRAWS = 2_000
# _on_support's draws: M12's descent needs 4 or 5 per stabilizer
_TRANSPORT_DRAWS = 500

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


def _giant_residual(g: PermGroup) -> Optional[PermGroup]:
    """The solvable residual of g when g is the alternating or the
    symmetric group on its n = g.degree >= 5 points: g itself when
    |g| = n!/2, derived_subgroup(g) when |g| = n!; else None.

    g <= S_n, so an order of n! makes g = S_n.  An order of n!/2 makes
    g = A_n: a subgroup of index 2 is normal with a quotient of order 2,
    so it holds every square, hence every 3-cycle (abc) = (acb)², and the
    3-cycles generate A_n.  A_n is simple for n >= 5, and it is the solvable residual of
    both, since S_n/A_n has order 2 and A_n is perfect.

    A_n is the only minimal normal subgroup of A_n and of S_n.  Its
    centralizer in S_n is trivial for n >= 4: if c moves a to b != a,
    take x, y outside {a, b}; then c(a x y)c⁻¹ = (b c(x) c(y)) moves b, so
    c does not commute with (a x y).  A minimal normal N != A_n meets the
    simple A_n trivially, so [N, A_n] <= N ∩ A_n = 1 and N centralizes
    A_n, which leaves N = 1.

    The order is divided by n, n-1, ..., 3 and the check stops at the
    first remainder, so n! is never formed for a group far below it.
    """
    if g.degree < 5:
        return None
    quotient = order(g)
    for k in range(g.degree, 2, -1):
        quotient, remainder = divmod(quotient, k)
        if remainder:
            return None
    if quotient == 1:
        return g
    return derived_subgroup(g) if quotient == 2 else None


def _on_support(h: PermGroup) -> tuple[list[int], PermGroup]:
    """The points h moves, in order, and h relabelled onto them, with a
    chain grown from seeded draws of h up to |h|
    (permcore.chain_of_known_order), else built from its generators."""
    support = sorted({x for s in h.generators for x in range(h.degree) if s[x] != x})
    label = {x: i for i, x in enumerate(support)}

    def relabel(s: Perm) -> Perm:
        return tuple(label[s[x]] for x in support)

    chain, rng = h.chain(), random.Random(DRAW_SEED)
    draws = (relabel(chain.random_element(rng)) for _ in range(_TRANSPORT_DRAWS))
    return support, PermGroup(degree=len(support), generators=tuple(map(relabel, h.generators)),
                              bsgs=chain_of_known_order(len(support), draws, order(h)))


def _minimal_normal_of_stabilizer(h: PermGroup, enum_cap: int) -> list[PermGroup]:
    """The minimal normal subgroups of h, through _simple_residual on
    _on_support(h) when that proves one, else by enumeration, which raises
    TooLarge past the cap: the caller would enumerate a larger group.

    A socle of order |h| is the whole relabelled group, so h is simple: h
    itself is returned, and _simple_residual takes no closure of it.
    """
    support, on_support = _on_support(h)
    socle = _simple_residual(on_support, enum_cap)
    if socle is None:
        return minimal_normal_subgroups(h, enum_cap)
    if order(socle) == order(h):
        return [h]
    gens = []
    for s in socle.generators:
        images = list(range(h.degree))
        for i, x in enumerate(support):
            images[x] = support[s[i]]
        gens.append(tuple(images))
    return [PermGroup(degree=h.degree, generators=tuple(gens))]


def _simple_residual(g: PermGroup, enum_cap: int) -> Optional[PermGroup]:
    """The solvable residual D of g, when it is provably nonabelian simple
    and the only minimal normal subgroup of g; otherwise None.

    Nothing of the size of g is enumerated.  A_n and S_n (n >= 5) are
    decided by their order alone (_giant_residual).  Otherwise, let g be
    transitive on its n points, D the last term of its derived series (so
    D is perfect) and H = D_0.  D is simple and g's only minimal normal
    subgroup when

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
    through point stabilizers in the same way).  When that test finds H
    simple, K = H and its closure is not computed: the closure N of H is
    normal and nontrivial in the primitive group D, so N is transitive,
    and D = N·D_0 = N·H = N.

    H gets no order certificate of its own before it is relabelled, and
    the one its relabelling meets here never holds: an H that is A_k or
    S_k on its support (k >= 5) holds a 3-cycle, and a primitive D holding
    a 3-cycle contains A_n (Jordan), so g was already typed by its order.
    """
    n = g.degree
    if n < 2 or len(orbit(g, 0)) != n:
        return None
    giant = _giant_residual(g)
    if giant is not None:
        return giant
    d = derived_series(g)[-1]
    d_order = order(d)
    if d_order == 1 or len(orbit(d, 0)) != n:
        return None
    h = point_stabilizer(d)
    h_order = order(h)
    if h_order == 1 or not _no_regular_mns(n, h_order) or not is_primitive(d):
        return None
    mns = _minimal_normal_of_stabilizer(h, enum_cap)
    if all(k is h or order(normal_closure(d, k.generators)) == d_order for k in mns):
        return d
    return None


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

    With one minimal normal subgroup m, g is almost simple exactly when m
    is nonabelian simple: when |m| has more than one prime factor, and
    m = g or m has one minimal normal subgroup.  Proof.  m is minimal
    normal, so m ≅ T^k for a simple T.  m is abelian exactly when |m| is a
    prime power, as a simple p-group has a nontrivial centre and so is C_p.
    For a nonabelian T, the minimal normal subgroups of T^k are its k
    factors.  An m = g is minimal normal in itself, so simple, and nothing
    more is listed; else |m| < |g|, so listing m raises no new TooLarge.
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
    if g.degree >= 2 and len(orbit(g, 0)) != g.degree:
        tag = INTRANSITIVE
    elif any(len(orbit(m, 0)) != g.degree for m in mns):
        tag = NOT_QUASIPRIMITIVE
    elif len(mns) > 2:
        raise InternalInvariantError(
            f"quasi-primitive group with {len(mns)} minimal normal subgroups")
    elif len(mns) == 1 and not is_prime_power(socle_order) and (
            socle_order == order(g) or len(minimal_normal_subgroups(mns[0], enum_cap)) == 1):
        tag = ALMOST_SIMPLE
    elif len(mns) == 2 and all(o == g.degree for o in mns_orders):
        tag = TWO_REGULAR_MNS
    else:
        tag = OTHER_QUASIPRIMITIVE
    return QpType(tag=tag, mns_orders=mns_orders, socle_order=socle_order), mns


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


def is_prime_power(n: int) -> bool:
    """Whether n >= 1 is p^k for a prime p and k >= 0; 1 = p^0 counts."""
    return len(_prime_factors(n)) <= 1


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


def _graph_order(xs: Sequence[Perm], ys: Sequence[Perm]) -> int:
    """|<(x_i, y_i)>| on the disjoint union of the two point sets."""
    shift = len(xs[0])
    return StabilizerChain(shift + len(ys[0]), [x + tuple(shift + i for i in y)
                                                for x, y in zip(xs, ys)]).order()


def _maps_onto(images: Sequence[Perm], gens: Sequence[Perm],
               words: tuple[int, ...], om: int) -> bool:
    """Whether x_i ↦ g_i, the images onto m's generators, extends to a
    homomorphism from <x_i> onto m; words is _word_orders(g_1, g_2).

    A homomorphism maps each element to one whose order divides its own,
    and <x_i> must map onto m, so a tuple is closed into D only when its
    word orders are multiples of words and |<x_i>| one of |m|;
    section_exact_small's docstring proves that |D| = |<x_i>| decides.
    """
    if any(wx % wg for wx, wg in zip(_word_orders(images[0], images[1]), words)):
        return False
    ox = StabilizerChain(len(images[0]), images).order()
    return ox % om == 0 and _graph_order(gens, images) == ox


def _drawn_tuples(s: PermGroup, gens: Sequence[Perm],
                  rng: random.Random) -> Iterator[tuple[Perm, ...]]:
    """Tuples of random elements x_i of s with ord(x_i) = ord(g_i), from
    _TUPLE_DRAWS draws in all."""
    wanted = [element_order(g) for g in gens]
    chain = s.chain()
    images: list[Perm] = []
    for _ in range(_TUPLE_DRAWS):
        x = chain.random_element(rng)
        if element_order(x) != wanted[len(images)]:
            continue
        images.append(x)
        if len(images) == len(gens):
            yield tuple(images)
            images = []


def _listed_tuples(p: PermGroup, gens: Sequence[Perm]) -> Iterator[tuple[Perm, ...]]:
    """Every tuple with x_1 a conjugacy class representative of p, the
    other x_i in p, and ord(g_i) dividing ord(x_i); p is listed once."""
    elements = p.chain().elements()
    ranges = [conjugacy_class_representatives(p, elements)]
    ranges += [elements] * (len(gens) - 1)
    candidates = [[x for x in xs if element_order(x) % element_order(g) == 0]
                  for g, xs in zip(gens, ranges)]
    yield from itertools.product(*candidates)


def section_exact_small(m: PermGroup, s: PermGroup,
                        cap: int = DEFAULT_SECTION_CAP) -> str:
    """Exact section test: is m isomorphic to H/K for some K normal in H <= s?

    m must be of prime order, or nontrivial and perfect, as every simple m
    is: the proofs below use no more.  PreconditionFailed otherwise.

    Decided only when |s| <= cap, where the answer is always "yes" or
    "no"; above the cap it is "unknown".  The steps, in order:

    1. The cheap checks: |m| must divide |s|, an m of prime order is then
       a section (Cauchy), and above the cap the answer is "unknown".
    2. The drawn phase: tuples of seeded random elements x_i of s with
       ord(x_i) = ord(g_i), for generators g_i of m (two of them where
       _two_generators finds a pair), go through the tuple test
       _maps_onto.  A pass proves "yes" (the proof below holds for any
       x_i in s), whether m is a subgroup of s (A5 in A6) or only a
       quotient of one (A5 in SL(2,5)); no pass proves nothing.
    3. With p the last term of the derived series of s, the answer is
       "no" when |m| does not divide |p|.
    4. Otherwise the listed phase decides: the same test on every tuple
       with x_1 a class representative of p and each other x_i in p.

    The reduction to p.  m is perfect.  If H <= s maps onto m, then so
    does H^(∞), the last term of H's derived series, since the image of
    H^(∞) is m^(∞) = m; and H^(∞) <= s^(∞) = p.  So m is a section of s
    exactly when some subgroup of p maps onto m, and then |m| divides |p|.

    Two chain orders decide a tuple.  Let x_i be elements of s and g_i
    generators of m, and let D = <(g_i, x_i)> act on the disjoint union of
    the two point sets.  D projects onto <x_i>, and the map x_i ↦ g_i
    extends to a homomorphism <x_i> -> m exactly when that projection is
    injective, that is, when D meets m × {1} trivially, that is, when
    |D| = |<x_i>|.  The homomorphism is then onto m, since its image
    holds every g_i, and <x_i>/kernel ≅ m is a section of s.

    Why the search is complete.  When m is a section of s, take H <= p
    smallest with a quotient H/K ≅ m; it exists by the reduction.  Suppose
    a maximal subgroup M of H did not contain K.  Then MK = H and
    M/(M∩K) ≅ MK/K ≅ m, which contradicts minimality.  So K lies in every
    maximal subgroup of H, K <= Φ(H), and elements y_i of H mapping to the
    g_i generate H: if <y_i> were proper it would lie in a maximal M, and
    <y_i>K = H would lie in M too.  So the tuple (y_i) passes the test
    above, as do its conjugates by any element of p, and it is enough to
    take x_1 up to conjugacy in p.
    """
    om = order(m)
    prime = _prime_factors(om) == {om}
    if not prime and (om == 1 or order(derived_subgroup(m)) != om):
        raise PreconditionFailed("section tests need m of prime order, or nontrivial and perfect")
    os_ = order(s)
    if os_ % om != 0:
        return NO
    if prime:
        return YES
    if os_ > cap:
        return UNKNOWN
    rng = random.Random(DRAW_SEED)
    gens = _two_generators(m, om, rng)
    words = _word_orders(gens[0], gens[1])

    def found(tuples: Iterator[tuple[Perm, ...]]) -> bool:
        return any(_maps_onto(xs, gens, words, om) for xs in tuples)

    if found(_drawn_tuples(s, gens, rng)):
        return YES
    p = derived_series(s)[-1]
    return YES if order(p) % om == 0 and found(_listed_tuples(p, gens)) else NO


def section_report(m: PermGroup, s: PermGroup, enum_cap: int = DEFAULT_ENUM_CAP,
                   section_cap: int = DEFAULT_SECTION_CAP) -> SectionReport:
    """Whether m is a section of s: section_necessary's report, with the
    exact answer from section_exact_small, whose precondition m must then
    meet, where the necessary flags all pass and leave it "unknown"."""
    report = section_necessary(m, s, enum_cap)
    if report.exact != UNKNOWN:
        return report
    return replace(report, exact=section_exact_small(m, s, section_cap))


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
    The terms of the series decrease, so some term lies in M∩S exactly
    when the last one does, and only the last is tested.
    """
    if not is_normal_in(m, p):
        raise NotNormal("m is not normal in p")
    if not is_transitive(p):
        raise NotTransitive("solvable-outer check requires a transitive group")
    s = point_stabilizer(p)
    m_cap_s = point_stabilizer(m)
    chain = m_cap_s.chain()
    return all(chain.contains(q) for q in derived_series(s)[-1].generators)
