import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat.errors import DepthOverflow, LetterOutOfRange, TowerTooShort
from treelat.localaction import (
    DISCRETE,
    NO_STABILIZATION,
    DiscretenessVerdict,
    LocalTower,
    act_word,
    discreteness_verdict,
    local_group,
    sphere_index,
    sphere_size,
    tower,
    tower_report,
)
from treelat.permcore import order, trivial_group
from treelat.survey import enumerate_complete_data
from treelat.vhcomplex import (
    Alphabet,
    commuting_datum,
    vertical_automaton,
)

from conftest import first_nontrivial_datum, growth_datum
from oracles import closure_elements

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
    assert len(sphere_index(A4, 1)) == 4
    assert len(sphere_index(A4, 2)) == 12
    assert len(sphere_index(A6, 3)) == 150
    assert sphere_size(6, 3) == 150


def test_sphere_words_reduced_and_lexicographic():
    s = sphere_index(A4, 3)
    assert list(s.words) == sorted(s.words)
    for w in s.words:
        for x, y in zip(w, w[1:]):
            assert y != A4.inv(x)
    assert len(set(s.words)) == len(s.words) == sphere_size(4, 3)


def test_sphere_depth_overflow():
    with pytest.raises(DepthOverflow):
        sphere_index(A6, 9)  # 6 * 5**8 = 2,343,750 words
    with pytest.raises(DepthOverflow):
        sphere_index(A4, 0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_sphere_count_formula(k, size_choice):
    n = (4, 6, 8)[size_choice]
    alphabet = Alphabet.with_adjacent_pairs(n)
    assert len(sphere_index(alphabet, k)) == n * (n - 1) ** (k - 1)


# ---------------------------------------------------------------------------
# word action
# ---------------------------------------------------------------------------

def test_act_word_identity_automaton(commuting):
    aut = vertical_automaton(commuting)
    for s in range(4):
        for w in sphere_index(A4, 2).words:
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
        for w in sphere_index(A4, 2).words:
            image = act_word(aut, s, w)
            assert image[:1] == act_word(aut, s, w[:1])
            if image != w:
                moved = True
    assert moved


def test_act_word_letter_out_of_range(nontrivial):
    aut = vertical_automaton(nontrivial)
    with pytest.raises(LetterOutOfRange):
        act_word(aut, 0, (9,))
    with pytest.raises(LetterOutOfRange):
        act_word(aut, 9, (0,))


def test_act_word_preserves_reducedness_on_all_enumerated_data():
    count = 0
    for d in enumerate_complete_data(A4, A4):
        aut = vertical_automaton(d)
        for s in range(4):
            for w in sphere_index(A4, 4).words:
                image = act_word(aut, s, w)
                for x, y in zip(image, image[1:]):
                    assert y != A4.inv(x), (d.squares, s, w, image)
        count += 1
        if count >= 60:
            break


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
        assert g.degree == sphere_size(4, k)


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
    doc = tower_report(t)
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
    assert discreteness_verdict(t) == DiscretenessVerdict(kind=NO_STABILIZATION, at=5)
