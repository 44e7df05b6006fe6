import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat import permcore
from treelat.cli import json_data
from treelat.errors import (
    DepthOverflow,
    InternalInvariantError,
    InvalidDatum,
    MalformedDocument,
    TowerTooShort,
)
from treelat.localaction import (
    DISCRETE,
    NO_STABILIZATION,
    DiscretenessVerdict,
    LocalTower,
    _kernel_order,
    _local_group_from_automaton,
    discreteness_verdict,
    local_groups,
    sphere_index,
    tower,
    tower_report,
)
from treelat.permcore import StabilizerChain, compose, order, trivial_group
from treelat.survey import enumerate_complete_data
from treelat.vhcomplex import (
    Alphabet,
    MealyAutomaton,
    automaton_for_side,
    commuting_datum,
    horizontal_automaton,
    vertical_automaton,
)

from conftest import first_nontrivial_datum, growth_datum, local_group
from oracles import act_word, closure_elements, local_group_generators, sphere_words

A4 = Alphabet.with_adjacent_pairs(4)
A6 = Alphabet.with_adjacent_pairs(6)


@pytest.fixture(scope="module")
def commuting():
    return commuting_datum(4, 4)


@pytest.fixture(scope="module")
def nontrivial():
    d = first_nontrivial_datum(A4, A4)
    assert d is not None
    return d


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------

def test_sphere_counts():
    assert sphere_index(A4, 1) == range(4)
    assert sphere_index(A4, 2) == range(12)
    assert sphere_index(A6, 3) == range(150)
    assert len(sphere_words(A6, 3)) == 150
    # on two letters the count never grows, and it takes no time in k
    assert sphere_index(Alphabet.with_adjacent_pairs(2), 10 ** 100) == range(2)


def test_sphere_words_reduced_and_lexicographic():
    words = sphere_words(A4, 3)
    assert words == sorted(words)
    for w in words:
        for x, y in zip(w, w[1:]):
            assert y != A4.inv(x)
    assert len(words) == len(sphere_index(A4, 3))


def test_sphere_depth_overflow():
    with pytest.raises(DepthOverflow):
        sphere_index(A6, 9)  # 6 * 5**8 = 2,343,750 words
    # the count stops at the first depth past the bound and is not printed
    with pytest.raises(DepthOverflow, match="sphere of depth 13 has more than 1000000"):
        sphere_index(A4, 10 ** 6)
    with pytest.raises(DepthOverflow):
        sphere_index(A4, 0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_sphere_count_formula(k, size_choice):
    n = (4, 6, 8)[size_choice]
    alphabet = Alphabet.with_adjacent_pairs(n)
    assert len(sphere_index(alphabet, k)) == n * (n - 1) ** (k - 1)


# ---------------------------------------------------------------------------
# word action: the rewriting oracle, and the engine's levels against it
# ---------------------------------------------------------------------------

def test_act_word_identity_automaton(commuting):
    aut = vertical_automaton(commuting)
    for s in range(4):
        for w in sphere_words(A4, 2):
            assert act_word(aut, s, w) == w


def test_act_word_depth_one_is_out_row(nontrivial):
    aut = vertical_automaton(nontrivial)
    for s in range(4):
        for a in range(4):
            assert act_word(aut, s, (a,)) == (aut.out[s][a],)


def test_act_word_nontrivial_beyond_depth_one(nontrivial):
    # some state moves a length-2 word while acting compatibly on its prefix
    aut = vertical_automaton(nontrivial)
    moved = False
    for s in range(4):
        for w in sphere_words(A4, 2):
            image = act_word(aut, s, w)
            assert image[:1] == act_word(aut, s, w[:1])
            if image != w:
                moved = True
    assert moved


def test_act_word_preserves_reducedness_on_all_enumerated_data():
    words = sphere_words(A4, 4)
    for d in itertools.islice(enumerate_complete_data(A4, A4), 60):
        aut = vertical_automaton(d)
        for s in range(4):
            for w in words:
                image = act_word(aut, s, w)
                for x, y in zip(image, image[1:]):
                    assert y != A4.inv(x), (d.squares, s, w, image)


def _assert_levels_match_oracle(aut, depth):
    for k, group in enumerate(local_groups(aut, depth), 1):
        assert group.generators == local_group_generators(aut, k), k


def test_levels_match_word_rewriting_oracle():
    # every T4 x T4 datum covers n - 1 = 3; T6 x T4 and T4 x T6 add
    # n - 1 = 5, and T2 x T4 adds n - 1 = 1
    a2 = Alphabet.with_adjacent_pairs(2)
    for horiz, vert, count in ((A4, A4, None), (A6, A4, 300), (A4, A6, 300),
                               (a2, A4, None)):
        for d in itertools.islice(enumerate_complete_data(horiz, vert), count):
            for aut in (vertical_automaton(d), horizontal_automaton(d)):
                _assert_levels_match_oracle(aut, 3)
    for aut in (vertical_automaton(growth_datum()), horizontal_automaton(growth_datum())):
        _assert_levels_match_oracle(aut, 6)


def test_restriction_guard_rejects_a_foreign_level_below():
    # the growth datum's two automata act differently on every level, so
    # each level built on the other automaton's level below is refused,
    # while the level built on its own level below covers the whole sphere
    own, other = horizontal_automaton(growth_datum()), vertical_automaton(growth_datum())
    levels = zip(local_groups(own, 3), local_groups(other, 3))
    for k, (own_below, other_below) in enumerate(levels, 2):
        with pytest.raises(InternalInvariantError):
            _local_group_from_automaton(own, other_below)
        level = _local_group_from_automaton(own, own_below)
        assert level.degree == len(sphere_index(own.letters, k))


def test_automaton_that_unreduces_a_word_is_refused():
    # state 0 reads 0 and moves to state 1, which sends inv(0) = 1 to 0,
    # not to inv(out[0][0]) = 1: the reduced word 0.1... goes to 0.0...
    a2 = Alphabet.with_adjacent_pairs(2)
    aut = MealyAutomaton(states=a2, letters=A4,
                         out=((0, 1, 2, 3), (1, 0, 2, 3)),
                         nxt=((1, 0, 0, 0), (1, 1, 1, 1)))
    with pytest.raises(InvalidDatum):
        list(local_groups(aut, 2))


# ---------------------------------------------------------------------------
# local groups and towers
# ---------------------------------------------------------------------------

def test_local_group_commuting_trivial(commuting):
    for side in ("horizontal", "vertical"):
        for k in (1, 2, 3):
            assert order(local_group(commuting, side, k)) == 1


def test_local_group_degree(nontrivial):
    for k in (1, 2, 3):
        g = local_group(nontrivial, "horizontal", k)
        assert g.degree == 4 * 3 ** (k - 1)


def test_local_group_matches_closure_oracle():
    # brute-force closure of the automaton permutations, independent of BSGS
    count = 0
    for d in enumerate_complete_data(A4, A4):
        for side in ("horizontal", "vertical"):
            for k in (1, 2):
                g = local_group(d, side, k)
                oracle = closure_elements(g.generators, g.degree)
                assert order(g) == len(oracle)
        count += 1
        if count >= 40:
            break


def test_local_group_matches_closure_oracle_depth3(nontrivial):
    for side in ("horizontal", "vertical"):
        g = local_group(nontrivial, side, 3)
        oracle = closure_elements(g.generators, g.degree)
        assert order(g) == len(oracle)


def test_tower_commuting(commuting):
    t = tower(commuting, "horizontal", 5)
    assert t.orders == (1, 1, 1, 1, 1)
    assert discreteness_verdict(t) == DiscretenessVerdict(kind=DISCRETE, at=1)


def test_tower_of_an_unknown_side(commuting):
    with pytest.raises(MalformedDocument):
        tower(commuting, "x")


def test_tower_orders_divide(nontrivial):
    for side in ("horizontal", "vertical"):
        t = tower(nontrivial, side, 4)
        for a, b in zip(t.orders, t.orders[1:]):
            assert b % a == 0


def test_tower_surjectivity_kernel_product(nontrivial):
    # |ker(P_{k+1} -> P_k)| * |P_k| = |P_{k+1}| given generator-wise
    # truncation compatibility (checked during construction)
    for side in ("horizontal", "vertical"):
        t = tower(nontrivial, side, 4)
        for a, b in zip(t.orders, t.orders[1:]):
            assert b % a == 0


def test_dual_swaps_tower_sides(nontrivial):
    from treelat.vhcomplex import dual
    d2 = dual(nontrivial)
    for k in (1, 2, 3):
        assert order(local_group(nontrivial, "horizontal", k)) == \
            order(local_group(d2, "vertical", k))
        assert order(local_group(nontrivial, "vertical", k)) == \
            order(local_group(d2, "horizontal", k))


def test_tower_report_schema(commuting):
    t = tower(commuting, "vertical", 3)
    doc = json_data(tower_report(t))
    assert doc == {"side": "vertical", "depths": 3, "orders": [1, 1, 1],
                   "verdict": {"kind": "discrete", "at": 1}}


# ---------------------------------------------------------------------------
# discreteness verdicts
# ---------------------------------------------------------------------------

def _fake_tower(orders):
    return LocalTower(side="horizontal",
                      groups=tuple(trivial_group(2) for _ in orders),
                      orders=tuple(orders))


def test_verdict_stabilized_immediately():
    assert discreteness_verdict(_fake_tower([1, 1])) == \
        DiscretenessVerdict(kind=DISCRETE, at=1)


def test_verdict_no_stabilization():
    v = discreteness_verdict(_fake_tower([2, 4, 8, 16, 32]))
    assert v == DiscretenessVerdict(kind=NO_STABILIZATION, at=5)


def test_verdict_stabilizes_later():
    assert discreteness_verdict(_fake_tower([4, 8, 8, 8])) == \
        DiscretenessVerdict(kind=DISCRETE, at=2)


def test_verdict_tower_too_short():
    with pytest.raises(TowerTooShort):
        discreteness_verdict(_fake_tower([1]))


def test_verdict_persistence_violation_is_hard_error():
    from treelat.errors import InternalInvariantError
    with pytest.raises(InternalInvariantError):
        discreteness_verdict(_fake_tower([4, 4, 8]))


def test_stabilization_persistence_on_enumerated_data():
    # once two consecutive levels agree, all later computed levels agree
    count = 0
    for d in enumerate_complete_data(A4, A4):
        for side in ("horizontal", "vertical"):
            t = tower(d, side, 4)
            stabilized = False
            for a, b in zip(t.orders, t.orders[1:]):
                if stabilized:
                    assert a == b, (d.squares, side, t.orders)
                elif a == b:
                    stabilized = True
        count += 1
        if count >= 80:
            break


@pytest.mark.parametrize("side", ["horizontal", "vertical"])
def test_growth_datum_tower_orders(side):
    t = tower(growth_datum(), side, 5)
    assert t.orders == tuple(24 * 27 ** (k - 1) for k in range(1, 6))
    # the same orders from a chain of each level on its whole sphere
    assert t.orders == tuple(StabilizerChain(g.degree, g.generators).order() for g in t.groups)
    assert discreteness_verdict(t) == DiscretenessVerdict(kind=NO_STABILIZATION, at=5)


@pytest.mark.parametrize("side", ["horizontal", "vertical"])
def test_growth_datum_tower_orders_to_depth_six(side):
    # one level deeper than the whole-sphere check above, from the block
    # chains alone: P_6 acts on 324 fibres of three words
    t = tower(growth_datum(), side, 6)
    assert t.orders == tuple(24 * 27 ** (k - 1) for k in range(1, 7))


def test_tower_orders_match_full_chains():
    # every level's order against a chain of the whole group on its sphere
    # (the growth datum's test does the same to depth 5).  Orders depend
    # only on generators, so each distinct tower (by its levels' generator
    # tuples) is checked once, and each distinct level gets one full chain.
    # T2 x T4 covers fibres of one word (n - 1 = 1), where every kernel is
    # trivial.
    full = {}

    def full_order(group):
        if group.generators not in full:
            full[group.generators] = StabilizerChain(group.degree, group.generators).order()
        return full[group.generators]

    a2 = Alphabet.with_adjacent_pairs(2)
    seen = set()
    for horiz, vert, count in ((A4, A4, None), (A6, A4, 300), (A4, A6, 300),
                               (a2, A4, None)):
        for d in itertools.islice(enumerate_complete_data(horiz, vert), count):
            for side in ("horizontal", "vertical"):
                key = tuple(g.generators for g in local_groups(automaton_for_side(d, side), 3))
                if key not in seen:
                    seen.add(key)
                    t = tower(d, side, 3)
                    assert t.orders == tuple(map(full_order, t.groups)), (d.squares, side)


def test_tower_builds_no_chain_of_a_deeper_level_on_its_whole_sphere(monkeypatch):
    built = []
    init = StabilizerChain.__init__

    def recording_init(self, degree, generators, block=1):
        generators = tuple(generators)
        built.append((degree, block, len(generators)))
        init(self, degree, generators, block)

    monkeypatch.setattr(StabilizerChain, "__init__", recording_init)
    t = tower(growth_datum(), "horizontal", 4)
    # P_1's own chain and one chain per deeper level on its fibres of three
    # words; the kernels' chains start empty and grow by extension
    assert [(degree, block) for degree, block, count in built if count] == \
        [(4, 1)] + [(g.degree, 3) for g in t.groups[1:]]
    assert all(block == 1 for degree, block, count in built if not count)


def test_growth_block_chain_is_pinned():
    # the growth datum's P_5 on its fibres of three words: the chain the
    # engine builds, which sparing products and sifts must not change
    *_, p5 = local_groups(automaton_for_side(growth_datum(), "horizontal"), 5)
    chain = StabilizerChain(p5.degree, p5.generators, block=3)
    assert [len(t) for t in chain.transversals] == [108, 2, 3, 9, 27, 3]
    assert [len(level) for level in chain._gens] == [11, 9, 7, 6, 4, 1]
    assert chain.kernel.order() == 27


def test_tower_never_multiplies_by_the_identity(monkeypatch):
    lefts = []

    def recording_compose(p, q):
        lefts.append(p)
        return compose(p, q)

    monkeypatch.setattr(permcore, "compose", recording_compose)
    tower(growth_datum(), "horizontal", 5)
    assert lefts
    assert not [p for p in lefts if p == tuple(range(len(p)))]


def _record_kernel_handoffs(monkeypatch) -> dict:
    """Maps each kernel chain to the elements that block chains' installs
    extend it by; the conjugation closure extends kernels too, from
    another caller, and is not recorded."""
    handed: dict = {}
    extend = StabilizerChain.extend

    def recording_extend(self, g):
        if sys._getframe(1).f_code.co_name == "_install":
            handed.setdefault(self, []).append(g)
        return extend(self, g)

    monkeypatch.setattr(StabilizerChain, "extend", recording_extend)
    return handed


def test_block_chains_hand_each_residue_to_their_kernel_once(monkeypatch):
    handed = _record_kernel_handoffs(monkeypatch)
    tower(growth_datum(), "horizontal", 5)
    assert handed
    for elements in handed.values():
        assert len(elements) == len(set(elements))


def test_kernel_memo_fills_to_its_bound(monkeypatch):
    # datum 260 of T4 x T4: the block chain of P_4 has a kernel of order
    # 3^19 and remembers as many residues as its transversals hold, 86;
    # residues past that are sifted through the kernel, and the orders
    # still equal those of chains of each level on its whole sphere
    d = next(itertools.islice(enumerate_complete_data(A4, A4), 260, None))
    t = tower(d, "horizontal", 4)
    p4 = t.groups[3]
    handed = _record_kernel_handoffs(monkeypatch)
    chain = StabilizerChain(p4.degree, p4.generators, block=3)
    assert chain.kernel.order() == 3 ** 19
    assert len(chain._sent) == sum(map(len, chain.transversals)) == 86
    assert len(handed[chain.kernel]) > 86
    assert t.orders == (24, 648, 1417176, 1647129056757192)
    assert t.orders == tuple(StabilizerChain(g.degree, g.generators).order() for g in t.groups)


def test_fibre_chain_order_is_checked_against_the_level_below():
    t = tower(growth_datum(), "horizontal", 3)
    assert _kernel_order(t.groups[2], 3, 2, t.orders[1]) == 27
    with pytest.raises(InternalInvariantError):
        _kernel_order(t.groups[2], 3, 2, t.orders[1] * 2)
