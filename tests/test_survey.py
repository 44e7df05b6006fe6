"""The level-growth survey's record and the work it does."""

import gc
import random
from itertools import product

import pytest

from conftest import SUITE_SEED, local_group
from oracles import class_key, complete_data_walk, level2_key
from treelat import localaction
from treelat.errors import ResourceCapExceeded
from treelat.localaction import local_groups, tower
from treelat.permcore import order
from treelat.survey import (
    _automaton_from_rows,
    _class_form,
    _orbit_table,
    _relabelling,
    _walk_keys,
    enumerate_complete_data,
    survey_level_growth,
)
from treelat.vhcomplex import (
    HORIZONTAL,
    VERTICAL,
    Alphabet,
    MealyAutomaton,
    automaton_for_side,
    horizontal_automaton,
    vertical_automaton,
)

# the three fixed-point-free involutions on 4 letters; they are conjugate,
# so each survey is a relabelling of the others
FPF_INVOLUTIONS_4 = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
A2 = Alphabet(size=2, involution=(1, 0))
A4 = Alphabet.with_adjacent_pairs(4)

T4X4_RECORD = {
    "total": 1564,
    "nontrivial_p1": 1563,
    "growth_count": 616,
    "any_growth": True,
    "max_p1_order": 24,
    "max_p2_order": 648,
    "p1_orders_seen": [1, 2, 4, 8, 12, 24],
}


def _alphabets(h_involution, v_involution):
    return (Alphabet(size=len(h_involution), involution=h_involution),
            Alphabet(size=len(v_involution), involution=v_involution))


# the nine pairings of two 4-letter alphabets, and three with a 2-letter side
PAIRINGS = [*(_alphabets(h, v) for h, v in product(FPF_INVOLUTIONS_4, repeat=2)),
            (A2, A4), (A4, A2), (A2, A2)]


# "involution1" has involution 1 on both sides, "involution1-involution2"
# involution 1 on the horizontal side and 2 on the vertical one
@pytest.mark.parametrize("h_involution, v_involution", [
    pytest.param(h, v, id=f"involution{i}" if i == j else f"involution{i}-involution{j}")
    for (i, h), (j, v) in product(enumerate(FPF_INVOLUTIONS_4), repeat=2)])
def test_t4x4_survey_record(h_involution, v_involution):
    horiz, vert = _alphabets(h_involution, v_involution)
    result = survey_level_growth(horiz, vert)
    assert result.to_json() == T4X4_RECORD

    def rises(d):
        return any(o[0] < o[1] for o in (tower(d, side, 2).orders
                                         for side in (HORIZONTAL, VERTICAL)))

    assert result.first_growth == next(filter(rises, enumerate_complete_data(horiz, vert)))


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_walk_matches_the_reference_in_order(horiz, vert):
    assert ([d.squares for d in enumerate_complete_data(horiz, vert)]
            == list(complete_data_walk(horiz, vert)))


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_walk_keys_match_the_reference_automata(horiz, vert):
    # the survey's keys and the automata it builds on a miss, read off the
    # walk's lists, against vhcomplex's automata of the datum at the same
    # position
    walked = list(_walk_keys(horiz, vert))
    data = list(enumerate_complete_data(horiz, vert))
    assert len(walked) == len(data)
    for (_, *keyed), d in zip(walked, data):
        sides = ((vert, horiz, vertical_automaton(d)), (horiz, vert, horizontal_automaton(d)))
        for (states, letters, reference), (key, out, nxt) in zip(sides, keyed):
            assert key == level2_key(reference)
            automaton = _automaton_from_rows(states, letters, out, nxt)
            assert automaton == reference


def _class_form_of(aut):
    """`survey._class_form` of an automaton's rows."""
    return _class_form(_relabelling(aut.letters, aut.states.size),
                       bytes(y for row in aut.out for y in row),
                       bytes(t for moves in aut.nxt for t in moves))


def _renamed(aut, rng, involution):
    """The automaton with its states renumbered at random and its letters
    relabelled onto `involution`, the i-th 2-cycle of its own involution,
    in order of the smaller point, onto the i-th one of `involution`."""
    def cycles(inv):
        return [(x, inv[x]) for x in range(len(inv)) if x < inv[x]]

    letter = dict(zip((x for pair in cycles(aut.letters.involution) for x in pair),
                      (x for pair in cycles(involution) for x in pair)))
    state = list(range(aut.states.size))
    rng.shuffle(state)
    out = [[0] * len(involution) for _ in state]
    nxt = [[0] * len(involution) for _ in state]
    for s, (row, moves) in enumerate(zip(aut.out, aut.nxt)):
        for x, (y, t) in enumerate(zip(row, moves)):
            out[state[s]][letter[x]], nxt[state[s]][letter[x]] = letter[y], state[t]
    return MealyAutomaton(states=aut.states,
                          letters=Alphabet(size=len(involution), involution=involution),
                          out=tuple(map(tuple, out)), nxt=tuple(map(tuple, nxt)))


# class keys per survey, over the automata of both sides, by alphabet sizes
CLASSES = {(4, 4): 86, (2, 4): 12, (4, 2): 12, (2, 2): 2}


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_class_key_fixes_the_orders(horiz, vert):
    # the survey's class form against the oracle's class key, and each
    # class key mapped to the (|P1|, |P2|) of its automata, each group and
    # chain built afresh
    seen: dict = {}
    for d in enumerate_complete_data(horiz, vert):
        for side in (HORIZONTAL, VERTICAL):
            aut = automaton_for_side(d, side)
            key, out, nxt = _class_form_of(aut)
            assert key == class_key(aut)
            form = _automaton_from_rows(Alphabet.with_adjacent_pairs(aut.states.size),
                                        Alphabet.with_adjacent_pairs(aut.letters.size),
                                        out, nxt)
            assert level2_key(form) == key
            seen.setdefault(key, set()).add(
                tuple(order(local_group(d, side, k)) for k in (1, 2)))
    assert len(seen) == CLASSES[horiz.size, vert.size]
    assert all(len(orders) == 1 for orders in seen.values())


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_class_key_ignores_state_order_and_letter_labels(horiz, vert):
    # each automaton with its states renumbered at random and its letters
    # relabelled onto an involution drawn from those of its size
    rng = random.Random(SUITE_SEED)
    involutions = {4: FPF_INVOLUTIONS_4, 2: [A2.involution]}
    for d in enumerate_complete_data(horiz, vert):
        for aut in (vertical_automaton(d), horizontal_automaton(d)):
            renamed = _renamed(aut, rng, rng.choice(involutions[aut.letters.size]))
            assert class_key(renamed) == class_key(aut)
            assert _class_form_of(renamed)[0] == class_key(aut)


def test_survey_refuses_more_than_256_corners():
    with pytest.raises(ResourceCapExceeded):
        survey_level_growth(Alphabet.with_adjacent_pairs(18), Alphabet.with_adjacent_pairs(16))


def test_walk_state_is_freed_when_the_walk_ends():
    # the recursive walk must keep none of its state alive in a reference
    # cycle: with the collector paused through a whole T4 x T4 walk, and
    # through a survey on it, a full collection afterwards finds nothing
    # of either
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in enumerate_complete_data(A4, A4):
            pass
        survey_level_growth(A4, A4)
        gc.collect()
        left = [o for o in gc.garbage
                if any(name in getattr(o, "__qualname__", "")
                       for name in ("enumerate_complete_data", "_walk"))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert left == []


def test_orbit_table_never_clashes():
    # the walk needs no clash check: each entry starts with its own guess,
    # and no corner or image occurs twice in it
    alphabets = [A2, *(Alphabet(size=4, involution=inv) for inv in FPF_INVOLUTIONS_4),
                 Alphabet.with_adjacent_pairs(6),
                 Alphabet(size=6, involution=(3, 4, 5, 0, 1, 2))]
    for horiz, vert in product(alphabets, repeat=2):
        for c, row in enumerate(_orbit_table(horiz, vert)):
            for i, orbit in enumerate(row):
                corners, images = zip(*orbit)
                assert orbit[0] == (c, i)
                assert len(set(corners)) == len(set(images)) == len(orbit)


def test_one_chain_per_distinct_generator_set(chain_builds):
    a4 = Alphabet.with_adjacent_pairs(4)
    generator_sets = {frozenset(local_group(d, side, k).generators)
                      for d in enumerate_complete_data(a4, a4)
                      for side in (HORIZONTAL, VERTICAL) for k in (1, 2)}
    assert len(generator_sets) == 135
    survey_level_growth(a4, a4)
    assert len(chain_builds) == len(generator_sets)


# one involution on both sides, and two different ones
KEYED_SURVEYS = [((1, 0, 3, 2), (1, 0, 3, 2), 436), ((1, 0, 3, 2), (2, 3, 0, 1), 872)]


@pytest.mark.parametrize("h_involution, v_involution, keys", KEYED_SURVEYS)
def test_level2_key_fixes_p1_and_p2(h_involution, v_involution, keys):
    # each key, mapped to the (P1, P2) generator tuples of its automata
    seen: dict = {}
    for d in enumerate_complete_data(*_alphabets(h_involution, v_involution)):
        for aut in (vertical_automaton(d), horizontal_automaton(d)):
            gens = tuple(group.generators for group in local_groups(aut, 2))
            seen.setdefault(level2_key(aut), set()).add(gens)
    assert len(seen) == keys
    assert all(len(gens) == 1 for gens in seen.values())


@pytest.mark.parametrize("h_involution, v_involution, keys", KEYED_SURVEYS)
def test_local_groups_built_once_per_key(monkeypatch, chain_builds,
                                         h_involution, v_involution, keys):
    calls = []
    build = localaction._local_group_from_automaton

    def counting_build(aut, below):
        calls.append(None)
        return build(aut, below)

    monkeypatch.setattr(localaction, "_local_group_from_automaton", counting_build)
    survey_level_growth(*_alphabets(h_involution, v_involution))
    # one call per level per class, fewer than one per level per key, and
    # 2 * 3,128 = 6,256 without the memo
    assert len(calls) == 2 * CLASSES[4, 4] < 2 * keys
    # each class is built from its class form on 0<->1, 2<->3, so two
    # different involutions build the chains of one
    assert len(chain_builds) == 135
