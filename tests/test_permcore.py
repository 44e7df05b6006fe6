import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat import permcore
from treelat.errors import (
    DegreeMismatch,
    MalformedDocument,
    PointOutOfRange,
    TooLarge,
)
from treelat.groupprops import element_order_spectrum
from treelat.permcore import (
    StabilizerChain,
    alternating_group,
    compose,
    conjugacy_class_representatives,
    contains,
    derived_series,
    derived_subgroup,
    element_order,
    from_cycles,
    group_from_raw,
    group_to_raw,
    identity,
    induced_action_on_pairs,
    inverse,
    is_identity,
    normal_closure,
    orbit,
    order,
    perm_group,
    point_stabilizer,
    symmetric_group,
    trivial_group,
)

from treelat.catalog import mathieu_group_12
from treelat.localaction import local_groups
from treelat.vhcomplex import automaton_for_side

from conftest import cyclic_group, engine_suite, growth_datum
from oracles import closure_elements, normal_closure_bruteforce

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(tuple))


def small_gen_sets():
    def build(args):
        degree, seed_perms = args
        return perm_group(seed_perms, degree=degree)
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.permutations(range(n)), min_size=1, max_size=3))).map(build)


# ---------------------------------------------------------------------------
# permutation arithmetic
# ---------------------------------------------------------------------------

def test_not_a_permutation_rejected():
    # image lists enter the engine through group_from_raw, which checks them
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 3, "generators": [[0, 0, 1]]})
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 3, "generators": [[0, 3, 1]]})


def test_compose_identity():
    assert compose((1, 0, 2), identity(3)) == (1, 0, 2)


def test_compose_applies_right_factor_first():
    assert compose((1, 0, 2), (2, 1, 0)) == (2, 0, 1)


def test_compose_degree_one_and_zero():
    # the one-index product must still be a tuple
    assert compose((0,), (0,)) == (0,)
    assert compose([0], (0,)) == (0,)
    assert compose((), ()) == ()
    assert is_identity((0,)) and is_identity([0, 1])
    assert order(perm_group([(0,)])) == 1


def test_compose_degree_mismatch():
    # permutations of different degrees never meet in one group
    with pytest.raises(DegreeMismatch):
        perm_group([(1, 0), (0, 1, 2)])
    with pytest.raises(DegreeMismatch):
        normal_closure(symmetric_group(3), [(1, 0)])


def test_inverse_examples():
    assert inverse(identity(5)) == identity(5)
    assert inverse((1, 2, 0)) == (2, 0, 1)
    invol = (1, 0, 3, 2)
    assert inverse(invol) == invol


@given(perms)
def test_inverse_law(p):
    assert is_identity(compose(p, inverse(p)))
    assert is_identity(compose(inverse(p), p))


@given(perms, st.data())
def test_compose_convention_pointwise(p, data):
    q = tuple(data.draw(st.permutations(range(len(p)))))
    r = compose(p, q)
    for x in range(len(p)):
        assert r[x] == p[q[x]]


def test_from_cycles_and_order():
    p = from_cycles(6, [(0, 1, 2), (3, 4)])
    assert p == (1, 2, 0, 4, 3, 5)
    assert element_order(p) == 6
    assert element_order(identity(4)) == 1


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_examples():
    assert orbit(perm_group([identity(4)]), 2) == {2}
    assert orbit(perm_group([(1, 2, 3, 0)]), 0) == {0, 1, 2, 3}
    assert orbit(perm_group([(1, 0, 3, 2)]), 0) == {0, 1}


def test_orbit_point_out_of_range():
    with pytest.raises(PointOutOfRange):
        orbit(trivial_group(3), 5)


# ---------------------------------------------------------------------------
# BSGS / order / membership
# ---------------------------------------------------------------------------

def test_bsgs_order_s5_from_cycle_and_transposition():
    g = perm_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    # oracle: brute-force closure
    assert len(closure_elements(g.generators, 5)) == 120
    assert order(g) == 120


def test_bsgs_order_a6():
    g = perm_group([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(1, 2, 3, 4, 5)])])
    assert len(closure_elements(g.generators, 6)) == 360
    assert order(g) == 360


def test_trivial_group_order():
    assert order(trivial_group(7)) == 1


def test_build_bsgs_caches_and_validates():
    g = perm_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    chain = g.chain()
    assert g.bsgs is chain and g.chain() is chain
    # order = product of basic orbit lengths
    prod = 1
    for t in chain.transversals:
        prod *= len(t)
    assert prod == order(g) == 120
    # every generator sifts to identity
    for p in g.generators:
        assert chain.contains(p)


def test_every_chain_starts_at_point_zero():
    fixes_zero_first = perm_group([from_cycles(5, [(1, 2)]), from_cycles(5, [(0, 3)])])
    fixes_zero = perm_group([from_cycles(5, [(2, 3, 4)])])
    groups = [trivial_group(1), trivial_group(4), fixes_zero_first, fixes_zero,
              *engine_suite()]
    for g in groups:
        assert g.chain().base[0] == 0
    assert len(fixes_zero.chain().transversals[0]) == 1
    assert order(fixes_zero) == 3
    assert order(fixes_zero_first) == 4
    # normal_closure grows its chain from an empty one, which starts at 0 too
    assert StabilizerChain(3, ()).base == [0]
    assert normal_closure(symmetric_group(4), [from_cycles(4, [(1, 2, 3)])]).chain().base[0] == 0


def test_bsgs_deterministic():
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    c1 = perm_group(gens).chain()
    c2 = perm_group(gens).chain()
    assert c1.base == c2.base
    assert c1._gens[0] == c2._gens[0]


def test_contains_odd_permutation_not_in_a6():
    a6 = alternating_group(6)
    assert not contains(a6, (1, 0, 2, 3, 4, 5))
    assert contains(a6, identity(6))
    assert contains(a6, from_cycles(6, [(0, 1), (2, 3)]))


def test_contains_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        contains(alternating_group(6), (0, 1))


@given(small_gen_sets(), st.data())
@settings(max_examples=40, deadline=None)
def test_membership_matches_closure(g, data):
    closure = closure_elements(g.generators, g.degree)
    assert order(g) == len(closure)
    for t in sorted(closure)[:20]:
        assert contains(g, t)
    # sift agrees with the oracle on arbitrary permutations too
    for _ in range(5):
        p = tuple(data.draw(st.permutations(range(g.degree))))
        assert contains(g, p) == (p in closure)


@given(small_gen_sets(), st.data())
@settings(max_examples=40, deadline=None)
def test_grown_chain_matches_fresh_chain_and_closure(g, data):
    closure = closure_elements(g.generators, g.degree)
    probes = [tuple(data.draw(st.permutations(range(g.degree)))) for _ in range(5)]
    # normal_closure grows one chain a generator at a time; the normal
    # closure of a group's own generators is the group
    grown = normal_closure(g, g.generators).chain()
    fresh = StabilizerChain(g.degree, g.generators)
    for chain in (grown, fresh):
        assert chain.order() == len(closure)
        assert set(chain.elements()) == closure
        for p in probes:
            assert chain.contains(p) == (p in closure)
    assert sorted(grown.elements()) == sorted(fresh.elements())
    # extend reports membership before growing, at every prefix, and
    # each growth adds one input: the residue it installs
    chain = StabilizerChain(g.degree, ())
    grown_by = 0
    for k, h in enumerate(g.generators):
        prefix = closure_elements(g.generators[:k], g.degree)
        grew = chain.extend(h)
        assert grew == (h not in prefix)
        grown_by += grew
        assert chain.order() == len(closure_elements(g.generators[:k + 1], g.degree))
        assert len(chain._inputs) == grown_by


def _block_chains() -> list[StabilizerChain]:
    """Chains on blocks of three points: the fibre chains of the growth
    datum's P_2 ... P_4 on both sides, and a degree-6 group whose kernel
    needs the conjugation closure."""
    d = growth_datum()
    chains = [StabilizerChain(p.degree, p.generators, block=3)
              for side in ("horizontal", "vertical")
              for p in list(local_groups(automaton_for_side(d, side), 4))[1:]]
    chains.append(StabilizerChain(6, [(0, 1, 2, 3, 5, 4), (4, 3, 5, 2, 0, 1)], block=3))
    return chains


def _holds(chain: StabilizerChain, g) -> bool:
    """Whether g is in the group of `chain`: for a block chain, whether its
    sift residue, which fixes every block, lies in the kernel."""
    residue = chain._sift_from(0, g)
    if chain.kernel is None:
        return residue == identity(chain.degree)
    return chain.kernel.contains(residue)


def test_chain_invariants_on_engine_suite():
    groups = engine_suite() + [symmetric_group(7), alternating_group(8)]
    blocks = _block_chains()
    # point_stabilizer's chain is the suffix of the group's own chain
    chains = [g.chain() for g in groups] + [
        point_stabilizer(g).chain() for g in groups] + blocks + [
        c.stabilizer() for c in blocks]
    for chain in chains:
        starts = chain._starts
        for i, (b, trans) in enumerate(zip(chain.base, chain.transversals)):
            prefix = chain.base[:i]
            for x, rep in trans.items():
                # the stored representative carries its orbit block back to
                # the base block and lies in the level's stabilizer of the
                # earlier base blocks; blocks are named by their first points
                assert starts[x] == x and starts[rep[x]] == b, (chain.base, i, x)
                assert all(starts[rep[p]] == p for p in prefix), (chain.base, i, x)
                assert _holds(chain, rep)
                # only the root holds the identity object, which the
                # engine's `is` tests skip multiplying by
                assert (rep is chain._identity) == (x == b), (chain.base, i, x)
        # level i's generators are exactly the level-0 ones fixing the
        # blocks base[:i], in installation order, each stored with its inverse
        for i, level in enumerate(chain._gens):
            fixing = [s for s, _ in chain._gens[0]
                      if all(starts[s[p]] == p for p in chain.base[:i])]
            assert [s for s, _ in level] == fixing, (chain.base, i)
            assert all(s_inv == inverse(s) for s, s_inv in level)
        # the inputs are a sub-list of the level-0 generators, so each is
        # stored with its inverse, and every level-0 orbit point has
        # verified its Schreier generator with each input
        if chain.base:
            level0 = iter(chain._gens[0])
            assert all(pair in level0 for pair in chain._inputs), chain.base
            assert all(chain._verified[0].get(x, 0) == len(chain._inputs)
                       for x in chain.transversals[0]), chain.base
        # every residue a block chain remembers handing to its kernel is in
        # the kernel
        assert all(chain.kernel.contains(g) for g in chain._sent), chain.base
    # a block chain remembers at most as many residues as its transversals
    # hold representatives
    for chain in blocks:
        assert len(chain._sent) <= sum(map(len, chain.transversals)), chain.base
    # a group's inputs are its distinct generators other than the identity
    for g in groups:
        assert [s for s, _ in g.chain()._inputs] == [
            s for s in dict.fromkeys(g.generators) if not is_identity(s)], g.name
    # a stabilizer shares its group's levels after the first, and a block
    # chain's kernel
    shared = [(c, c.stabilizer()) for c in blocks] + [
        (g.chain(), point_stabilizer(g).chain()) for g in groups
        if any(s[0] != 0 for s in g.generators)]
    for chain, stab in shared:
        assert stab.kernel is chain.kernel and stab.base == chain.base[1:]
        assert stab._sent is chain._sent
        # a stabilizer's inputs are its own level-0 generators
        if stab.base:
            assert stab._inputs is stab._gens[0]
        else:
            assert stab._inputs == []
        assert len(stab.transversals) == len(chain.transversals) - 1
        for i, trans in enumerate(stab.transversals):
            assert trans is chain.transversals[i + 1], (chain.base, i)
    # a point stabilizer's generators are its group's level-1 generators
    # (a group fixing 0 is its own stabilizer)
    for g in groups:
        if all(s[0] == 0 for s in g.generators):
            assert point_stabilizer(g) is g
            continue
        chain = g.chain()
        expected = tuple(s for s, _ in chain._gens[1]) if len(chain.base) > 1 else ()
        assert point_stabilizer(g).generators == expected, g.name


# ---------------------------------------------------------------------------
# block chains
# ---------------------------------------------------------------------------

def wreath_elements(q: int, m: int):
    """Elements of S_q wr S_m on m blocks of q consecutive points: block b
    goes to block top[b], its point i to point fibres[b][i] there."""
    def element(parts):
        top, fibres = parts
        return tuple(top[b] * q + x for b in range(m) for x in fibres[b])
    return st.tuples(st.permutations(range(m)),
                     st.lists(st.permutations(range(q)), min_size=m, max_size=m)).map(element)


block_preserving_groups = st.sampled_from([(3, 4), (2, 5), (4, 3), (1, 5)]).flatmap(
    lambda qm: st.tuples(st.just(qm[0]),
                         st.lists(wreath_elements(*qm), min_size=1, max_size=3)))


@given(block_preserving_groups, st.data())
@settings(max_examples=80, deadline=None)
def test_block_chain_order_times_kernel_order_is_the_group_order(group, data):
    q, gens = group
    degree = len(gens[0])
    m = degree // q
    chain = StabilizerChain(degree, gens, block=q)
    kernel = 1 if chain.kernel is None else chain.kernel.order()
    assert chain.order() * kernel == StabilizerChain(degree, gens).order()
    # the chain's own order is that of the action on the blocks
    on_blocks = [tuple(g[b * q] // q for b in range(m)) for g in gens]
    assert chain.order() == StabilizerChain(m, on_blocks).order()
    if chain.kernel is not None:
        for s, _ in chain.kernel._gens[0]:
            assert all(s[x] // q == x // q for x in range(degree))
    # where the closure is small, against the oracle outside the engine:
    # the order, and membership of elements of the wreath product, which
    # mostly lie outside the group, and of some of the group's own
    if (q, m) in ((2, 5), (3, 4)):
        closure = closure_elements(gens, degree)
        assert chain.order() * kernel == len(closure)
        members = st.sampled_from(sorted(closure))
        for strategy in (wreath_elements(q, m), members):
            for _ in range(3):
                p = data.draw(strategy)
                assert _holds(chain, p) == (p in closure)


def test_block_chain_kernel_holds_the_conjugates_of_its_residues():
    # (4 5) fixes both blocks of three points and the other generator
    # swaps them, so the kernel, S3 x S3, holds the conjugate (0 2); the
    # sifted residues and (4 5) alone generate a subgroup of order 12
    gens = [(0, 1, 2, 3, 5, 4), (4, 3, 5, 2, 0, 1)]
    chain = StabilizerChain(6, gens, block=3)
    assert chain.order() == 2
    assert chain.kernel.order() == 36
    assert StabilizerChain(6, gens).order() == 72


def test_level_zero_pairs_its_orbit_with_the_inputs_only():
    # the growth datum's P_5 on its fibres of three words: level 0 has an
    # orbit of 108 blocks, 4 inputs and 11 strong generators, and verifies
    # 108 x 4 Schreier generators, not 108 x 11
    *_, p5 = local_groups(automaton_for_side(growth_datum(), "horizontal"), 5)
    chain = StabilizerChain(p5.degree, p5.generators, block=3)
    assert (len(chain.transversals[0]), len(chain._inputs), len(chain._gens[0])) == (108, 4, 11)
    assert sum(chain._verified[0].values()) == 108 * 4


def test_block_chain_with_no_kernel():
    # a group acting regularly on its blocks meets only the trivial kernel
    swap = (3, 4, 5, 0, 1, 2)
    chain = StabilizerChain(6, [swap], block=3)
    assert (chain.order(), chain.kernel) == (2, None)


def test_chain_of_a_cycle_inverts_only_its_generator(monkeypatch):
    # every Schreier generator of C12 on its 12-cycle is the identity, so
    # no orbit point's representative is inverted; the one inverse is the
    # generator's own, formed when it is installed
    inverted = []

    def counting_inverse(p):
        inverted.append(p)
        return inverse(p)

    monkeypatch.setattr(permcore, "inverse", counting_inverse)
    chain = StabilizerChain(12, cyclic_group(12).generators)
    assert chain.order() == 12
    assert inverted == list(cyclic_group(12).generators)


# ---------------------------------------------------------------------------
# element enumeration
# ---------------------------------------------------------------------------

def test_enumerate_elements_s3():
    els = symmetric_group(3).chain().elements()
    assert len(els) == 6
    assert len(set(els)) == 6


def test_enumerate_elements_too_large():
    # enumerations that feed a report are capped; A6 on 6 points would be
    # read off its cycle types, so A6 on its 15 pairs is listed
    with pytest.raises(TooLarge):
        element_order_spectrum(induced_action_on_pairs(alternating_group(6)), enum_cap=100)


def test_enumerate_elements_trivial():
    assert trivial_group(3).chain().elements() == [identity(3)]


def test_enumerate_matches_closure_oracle():
    g = symmetric_group(4)
    engine = set(g.chain().elements())
    assert engine == closure_elements(g.generators, 4)


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

def test_random_elements_are_members_and_repeat_with_the_seed(suite):
    for g in suite:
        # the group's chain draws first, so the stabilizer taken after it
        # must not reuse its representative lists
        for stabilizer in (False, True):
            chain = g.chain().stabilizer() if stabilizer else g.chain()
            sequences = []
            for _ in range(2):
                rng = random.Random(7)
                sequences.append([chain.random_element(rng) for _ in range(20)])
            assert sequences[0] == sequences[1], g.name
            assert all(chain.contains(x) for x in sequences[0]), g.name
        # the stabilizer's draws fix the first base point, which is 0
        assert all(x[0] == 0 for x in sequences[0]), g.name


def test_random_elements_cover_s4():
    chain = symmetric_group(4).chain()
    rng = random.Random(0)
    assert {chain.random_element(rng) for _ in range(400)} == set(chain.elements())


class _EveryChoice:
    """A stand-in for random.Random whose choices run through one tuple of
    indices per draw, taken from a list of such tuples in order."""

    def __init__(self, index_tuples):
        self.indices = iter([i for t in index_tuples for i in t])

    def choice(self, seq):
        return seq[next(self.indices)]


def test_random_element_is_a_bijection_from_choices_to_elements():
    # one choice per level with more than one point: every tuple of choices
    # gives a different element, so uniform choices give a uniform element
    for g in (symmetric_group(4), alternating_group(5), point_stabilizer(symmetric_group(5))):
        chain = g.chain()
        sizes = [len(t) for t in chain.transversals if len(t) > 1]
        tuples = list(itertools.product(*[range(n) for n in sizes]))
        rng = _EveryChoice(tuples)
        draws = [chain.random_element(rng) for _ in tuples]
        assert sorted(draws) == sorted(chain.elements())


def test_random_elements_follow_an_extended_chain():
    # draws before an extend must not pin the smaller group's levels
    chain = StabilizerChain(5, [from_cycles(5, [(0, 1, 2)])])
    rng = random.Random(0)
    assert {chain.random_element(rng) for _ in range(30)} <= set(chain.elements())
    chain.extend(from_cycles(5, [(0, 1, 2, 3, 4)]))
    assert chain.order() == 60
    assert {chain.random_element(rng) for _ in range(600)} == set(chain.elements())


def _seed_and_random_references(path):
    """The names under which a module's syntax tree refers to DRAW_SEED
    and to the random module: names, attributes and imports, read as
    tests/test_dead_code.py reads them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("DRAW_SEED", "random"):
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr == "DRAW_SEED":
            yield node.attr
        elif isinstance(node, ast.alias) and node.name in ("DRAW_SEED", "random"):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node.module


def test_draws_replay_one_stream_seeded_in_permcore_only():
    # draws() is random_element under a generator seeded once with
    # DRAW_SEED, the same stream on every call
    for g in (alternating_group(7), mathieu_group_12(),
              induced_action_on_pairs(symmetric_group(5))):
        chain = g.chain()
        rng = random.Random(permcore.DRAW_SEED)
        expected = [chain.random_element(rng) for _ in range(50)]
        assert list(itertools.islice(chain.draws(), 50)) == expected, g.name
        assert list(itertools.islice(chain.draws(), 50)) == expected, g.name
    package = Path(permcore.__file__).parent
    seeding = {path.name for path in sorted(package.glob("*.py"))
               if any(_seed_and_random_references(path))}
    assert seeding == {"permcore.py"}


def test_draws_and_element_lists_never_multiply_by_the_identity(suite, monkeypatch):
    # both are products of one representative per level, so a factor is
    # the identity only where a level's root is taken; skipping those
    # products must leave every draw and the order of every list as the
    # full products give them
    factors = []

    def recording_compose(p, q):
        factors.extend((p, q))
        return compose(p, q)

    def full_draw(chain, rng):
        g = identity(chain.degree)
        for level in (list(t.values()) for t in chain.transversals if len(t) > 1):
            g = compose(rng.choice(level), g)
        return g

    def full_list(chain):
        elems = [identity(chain.degree)]
        for trans in reversed(chain.transversals):
            elems = [compose(inverse(trans[x]), e) for x in sorted(trans) for e in elems]
        return elems

    for g in suite:
        chain = g.chain()
        expected_list = full_list(chain)
        rng = random.Random(3)
        expected_draws = [full_draw(chain, rng) for _ in range(20)]
        with monkeypatch.context() as patched:
            patched.setattr(permcore, "compose", recording_compose)
            listed = chain.elements()
            rng = random.Random(3)
            draws = [chain.random_element(rng) for _ in range(20)]
        assert listed == expected_list, g.name
        assert draws == expected_draws, g.name
    assert factors
    assert not [p for p in factors if p == tuple(range(len(p)))]


def test_class_representatives_never_conjugate_the_identity(suite, monkeypatch):
    # the identity's class is {1}, so it is recorded with no product; each
    # representative is still the first element of its class in the list,
    # the class being read off by conjugating with every element
    left = []

    def recording_compose(p, q):
        left.append(p)
        return compose(p, q)

    for g in suite:
        elements = g.chain().elements()
        expected, seen = [], set()
        for e in elements:
            if e not in seen:
                expected.append(e)
                seen.update(compose(inverse(y), compose(e, y)) for y in elements)
        with monkeypatch.context() as patched:
            patched.setattr(permcore, "compose", recording_compose)
            reps = conjugacy_class_representatives(g, elements)
        assert reps == expected, g.name
    assert left
    assert not [p for p in left if is_identity(p)]


def test_whole_normal_closures_never_multiply_by_the_identity(monkeypatch):
    # the random phase starts from the identity object, and puts it back
    # whenever the running product r·s equals the identity by value, which
    # involution seeds make common; it conjugates by no draw equal to the
    # identity.  So neither that object nor a tuple equal to it is ever a
    # left factor.  A replay of the phase with every product formed checks
    # that the draws are the same, that r·s = 1 happens twice in S3, and
    # that the group of order 6 on 10 points (met in typing S5 on pairs)
    # draws the identity once
    lefts, draws = [], []
    random_element = StabilizerChain.random_element

    def recording_compose(p, q):
        lefts.append(p)
        return compose(p, q)

    def recording_draw(chain, rng):
        draws.append(random_element(chain, rng))
        return draws[-1]

    returns = identity_draws = 0
    for g, seed in ((alternating_group(5), from_cycles(5, [(0, 1, 2)])),
                    (symmetric_group(6), from_cycles(6, [(0, 1)])),
                    (alternating_group(7), from_cycles(7, [(0, 1), (2, 3)])),
                    (symmetric_group(3), from_cycles(3, [(0, 1)])),
                    (perm_group([(0, 4, 6, 5, 1, 3, 2, 8, 7, 9), (0, 2, 3, 1, 5, 6, 4, 9, 7, 8)]),
                     (0, 4, 6, 5, 1, 3, 2, 8, 7, 9))):
        draws.clear()
        with monkeypatch.context() as patched:
            patched.setattr(permcore, "compose", recording_compose)
            patched.setattr(StabilizerChain, "random_element", recording_draw)
            assert normal_closure(g, [seed]) is g
        rng = random.Random(permcore.DRAW_SEED)
        r = identity(g.degree)
        for x in draws:
            assert random_element(g.chain(), rng) == x
            s = rng.choice([seed])
            r = compose(inverse(x), compose(compose(r, s), x))
            returns += is_identity(r)
            identity_draws += is_identity(x)
    assert returns == 2
    assert identity_draws == 1
    assert lefts
    assert not [p for p in lefts if p == tuple(range(len(p)))]


# ---------------------------------------------------------------------------
# point stabilizer
# ---------------------------------------------------------------------------

def test_point_stabilizer_a6():
    stab = point_stabilizer(alternating_group(6))
    assert order(stab) == 60
    for p in stab.generators:
        assert p[0] == 0


def test_point_stabilizer_s5_on_pairs():
    g = induced_action_on_pairs(symmetric_group(5))
    # brute force over the 120 induced elements
    fixing = [e for e in closure_elements(g.generators, 10)
              if e[0] == 0]
    assert len(fixing) == 12
    assert order(point_stabilizer(g)) == 12


def test_point_stabilizer_trivial_group():
    assert order(point_stabilizer(trivial_group(5))) == 1


@given(small_gen_sets(), st.data())
@settings(max_examples=40, deadline=None)
def test_order_depends_only_on_the_generator_set(g, data):
    # the survey keys its order memo by frozenset(generators)
    gens = list(g.generators)
    shuffled = data.draw(st.permutations(gens))
    repeated, with_identity = list(gens), list(gens)
    repeated.insert(data.draw(st.integers(0, len(gens))), data.draw(st.sampled_from(gens)))
    with_identity.insert(data.draw(st.integers(0, len(gens))), identity(g.degree))
    for variant in (shuffled, repeated, with_identity):
        assert order(perm_group(variant, degree=g.degree)) == order(g)


@given(small_gen_sets())
@settings(max_examples=40, deadline=None)
def test_orbit_stabilizer(g):
    assert order(point_stabilizer(g)) * len(orbit(g, 0)) == order(g)


@given(small_gen_sets())
@settings(max_examples=40, deadline=None)
def test_point_stabilizer_matches_closure(g):
    fixing = {e for e in closure_elements(g.generators, g.degree) if e[0] == 0}
    stab = point_stabilizer(g)
    assert all(s[0] == 0 for s in stab.generators)
    assert set(stab.chain().elements()) == fixing
    assert closure_elements(stab.generators, g.degree) == fixing
    # a group fixing 0 is its own stabilizer, although its chain does not
    # start at 0
    assert order(point_stabilizer(stab)) == len(fixing)


def test_point_stabilizer_reuses_the_group_chain(monkeypatch):
    groups = engine_suite() + [symmetric_group(7)]
    for g in groups:
        g.chain()
    built = []
    original = StabilizerChain.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    for g in groups:
        assert order(point_stabilizer(g)) * len(orbit(g, 0)) == order(g)
    assert built == []


# ---------------------------------------------------------------------------
# normal closure / derived series
# ---------------------------------------------------------------------------

def test_normal_closure_s3_three_cycle():
    s3 = symmetric_group(3)
    nc = normal_closure(s3, [(1, 2, 0)])
    assert order(nc) == 3


def test_normal_closure_identity_seed():
    s4 = symmetric_group(4)
    assert order(normal_closure(s4, [identity(4)])) == 1


def test_normal_closure_a5_any_nonidentity():
    a5 = alternating_group(5)
    for seed in [from_cycles(5, [(0, 1), (2, 3)]),
                 from_cycles(5, [(0, 1, 2)]),
                 from_cycles(5, [(0, 1, 2, 3, 4)])]:
        assert order(normal_closure(a5, [seed])) == 60


def test_normal_closure_invariant_under_conjugation():
    g = symmetric_group(4)
    nc = normal_closure(g, [from_cycles(4, [(0, 1), (2, 3)])])
    chain = nc.chain()
    for x in g.generators:
        xi = inverse(x)
        for h in nc.generators:
            assert chain.contains(compose(compose(xi, h), x))


@given(small_gen_sets(), st.data())
@settings(max_examples=60, deadline=None)
def test_normal_closure_matches_oracle(g, data):
    # seeds inside g may take the random phase first; a seed outside g
    # sends the closure straight to the completed chain
    elements = sorted(closure_elements(g.generators, g.degree))
    inside = st.sampled_from(elements)
    anywhere = st.permutations(range(g.degree)).map(tuple)
    seeds = data.draw(st.lists(inside if data.draw(st.booleans()) else anywhere,
                               max_size=3))
    expected = normal_closure_bruteforce(g.generators, g.degree, seeds)
    nc = normal_closure(g, seeds)
    assert nc.chain().order() == len(expected)
    assert set(nc.chain().elements()) == expected


def test_normal_closure_of_a_seed_outside_g():
    # (0 1) is not in g, so N is not bounded by g: N = <(0 1)> has the
    # order of g, and a certificate by order alone would return g
    g = perm_group([from_cycles(4, [(0, 1), (2, 3)])])
    nc = normal_closure(g, [from_cycles(4, [(0, 1)])])
    assert contains(nc, from_cycles(4, [(0, 1)]))
    assert not contains(nc, from_cycles(4, [(0, 1), (2, 3)]))


def test_whole_normal_closure_is_g_itself():
    # a closure proved whole by its order is g, with no chain of its own
    a6 = alternating_group(6)
    assert normal_closure(a6, [from_cycles(6, [(0, 1, 2)])]) is a6
    m12 = mathieu_group_12()
    assert normal_closure(m12, m12.generators[:1]) is m12
    a5 = alternating_group(5)
    assert derived_subgroup(a5) is a5


def test_whole_closure_proved_after_the_completion_is_g_itself():
    # the random phase of A8's derived subgroup stops short of |A8|; its
    # completed chain reaches the order, which proves the closure whole
    a8 = alternating_group(8)
    assert derived_subgroup(a8) is a8


def _draws_on(monkeypatch) -> list:
    """The chains random_element draws from, from here on."""
    draws = []
    real = StabilizerChain.random_element

    def recording(self, rng):
        draws.append(self)
        return real(self, rng)

    monkeypatch.setattr(StabilizerChain, "random_element", recording)
    return draws


S3_X_S3 = perm_group([from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(0, 1)]),
                      from_cycles(6, [(3, 4, 5)]), from_cycles(6, [(3, 4)])])


@pytest.mark.parametrize("g, seed", [
    (alternating_group(4), from_cycles(4, [(0, 2), (1, 3)])),
    (perm_group([from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])]),
     from_cycles(4, [(0, 2)])),
    (perm_group([from_cycles(6, [(0, 1, 2, 3), (4, 5)])]),
     from_cycles(6, [(0, 2), (1, 3)])),
    (S3_X_S3, from_cycles(6, [(3, 4)])),
], ids=["A4-V4", "D8-C2xC2", "C4-C2", "S3xS3-S3"])
def test_proper_closure_completes_the_random_chain(g, seed, monkeypatch):
    # the seed lies in g and its closure N is proper, so the random phase
    # draws from g, runs out of draws, and its chain is completed,
    # extended by the seed and closed under conjugation
    expected = normal_closure_bruteforce(g.generators, g.degree, [seed])
    assert contains(g, seed) and len(expected) < order(g)
    draws = _draws_on(monkeypatch)
    nc = normal_closure(g, [seed])
    chain = nc.chain()
    assert draws and nc is not g
    assert closure_elements(nc.generators, g.degree) == expected
    assert chain.order() == len(expected)
    assert set(chain.elements()) == expected
    for p in itertools.permutations(range(g.degree)):
        assert chain.contains(p) == (p in expected)


@pytest.mark.parametrize("g, seed", [
    (symmetric_group(4), from_cycles(4, [(0, 1), (2, 3)])),
    (symmetric_group(4), from_cycles(4, [(0, 1, 2)])),
    (S3_X_S3, from_cycles(6, [(3, 4, 5)])),
], ids=["S4-V4", "S4-A4", "S3xS3-C3"])
def test_even_seeds_under_an_odd_generator_skip_the_random_phase(g, seed, monkeypatch):
    # every conjugate of an even seed is even, so N lies in the even part
    # of g, which is proper: no element is drawn
    draws = _draws_on(monkeypatch)
    nc = normal_closure(g, [seed])
    assert draws == []
    assert set(nc.chain().elements()) == normal_closure_bruteforce(
        g.generators, g.degree, [seed])


def test_derived_subgroup_matches_oracle(suite):
    # one commutator per unordered pair of generators has the same normal
    # closure as the commutators of all pairs of elements
    for g in suite:
        if order(g) > 120:
            continue
        elements = sorted(closure_elements(g.generators, g.degree))
        comms = {compose(compose(inverse(a), inverse(b)), compose(a, b))
                 for a in elements for b in elements}
        expected = closure_elements(comms, g.degree)
        assert set(derived_subgroup(g).chain().elements()) == expected, g.name


def test_derived_subgroup_is_the_checked_closure(suite, monkeypatch):
    # derived_subgroup settles normal_closure's checks on its seeds without
    # a sift; the closure it returns is the one normal_closure builds from
    # the same commutators, generator for generator.  Point stabilizers
    # carry every level-1 strong generator, so they give many seeds
    groups = list(suite) + [mathieu_group_12(), alternating_group(9), symmetric_group(9)]
    groups += [point_stabilizer(g) for g in groups]
    sifts = []
    contains = permcore.StabilizerChain.contains
    for g in groups:
        comms = [compose(compose(inverse(a), inverse(b)), compose(a, b))
                 for a, b in itertools.combinations(g.generators, 2)]
        checked = normal_closure(g, comms)
        with monkeypatch.context() as patch:
            patch.setattr(permcore.StabilizerChain, "contains",
                          lambda chain, p: sifts.append(p) or contains(chain, p))
            derived = derived_subgroup(g)
        assert (derived is g) == (checked is g), g.name
        assert derived.generators == checked.generators, g.name
        assert order(derived) == order(checked), g.name
    assert sifts == []


def test_derived_series_s3():
    series = derived_series(symmetric_group(3))
    assert [order(h) for h in series] == [6, 3, 1]
    assert order(series[-1]) == 1  # solvable


def test_derived_series_a5():
    series = derived_series(alternating_group(5))
    assert [order(h) for h in series] == [60]
    assert order(series[-1]) > 1  # not solvable


def test_derived_series_trivial():
    series = derived_series(trivial_group(3))
    assert [order(h) for h in series] == [1]
    assert order(series[-1]) == 1  # solvable


def test_derived_series_strictly_decreasing_until_stationary():
    for g in [symmetric_group(4), symmetric_group(5), cyclic_group(6)]:
        series = derived_series(g)
        orders = [order(h) for h in series]
        for a, b in zip(orders, orders[1:]):
            assert b < a
        # the last term is trivial or perfect
        assert orders[-1] == 1 or order(derived_subgroup(series[-1])) == orders[-1]


# ---------------------------------------------------------------------------
# raw group documents
# ---------------------------------------------------------------------------

def test_raw_group_round_trip():
    g = symmetric_group(4)
    doc = group_to_raw(g)
    back = group_from_raw(doc)
    assert back.degree == 4
    assert back.generators == g.generators
    assert back.name == "S4"


def test_raw_group_rejects_non_bijection():
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 3, "generators": [[0, 0, 1]]})
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 3, "generators": [[0, 1]]})
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 0, "generators": []})
    # JSON booleans are not points, although Python counts them as ints
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": 2, "generators": [[1, False]]})
    with pytest.raises(MalformedDocument):
        group_from_raw({"degree": True, "generators": [[0]]})
