"""The level-growth survey's record and the work it does."""

import functools
import gc
import random
from itertools import islice, product

import pytest

from conftest import SUITE_SEED, local_group
from oracles import canonical_form, complete_data_walk, relabelled
from treelat import localaction
from treelat.errors import ResourceCapExceeded
from treelat.localaction import local_groups, tower
from treelat.permcore import order
from treelat.survey import (
    _orbit_table,
    _Side,
    _sides,
    _walk,
    enumerate_complete_data,
    survey_level_growth,
)
from treelat.vhcomplex import (
    HORIZONTAL,
    VERTICAL,
    Alphabet,
    MealyAutomaton,
    horizontal_automaton,
    vertical_automaton,
)

# the three fixed-point-free involutions on 4 letters; they are conjugate,
# so each survey is a relabelling of the others
FPF_INVOLUTIONS_4 = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
A2 = Alphabet(size=2, involution=(1, 0))
A4 = Alphabet.with_adjacent_pairs(4)
A6 = Alphabet.with_adjacent_pairs(6)
B6 = Alphabet(size=6, involution=(3, 4, 5, 0, 1, 2))

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


def _lam(involution):
    """λ of the survey: the i-th 2-cycle, by its smaller point, to (2i, 2i+1)."""
    paired = [y for x in range(len(involution)) if x < involution[x] for y in (x, involution[x])]
    return tuple(map(paired.index, range(len(involution))))


def _walked(horiz, vert):
    """For each datum in walk order: the datum, and per side (vertical,
    then horizontal) the survey's side, its rows read off the walk and
    the reference automaton."""
    sides = _sides(horiz, vert)
    for (img, pre), d in zip(_walk(horiz, vert), enumerate_complete_data(horiz, vert)):
        yield d, [(side, *side.rows(entries), aut) for side, entries, aut
                  in zip(sides, (pre, img), (vertical_automaton(d), horizontal_automaton(d)))]


def _flat(rows):
    return bytes(y for row in rows for y in row)


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_walk_keys_match_the_reference_automata(horiz, vert):
    # the rows the survey reads off the walk's lists, with the letters
    # relabelled by λ, and their class key, against vhcomplex's automata
    # of the datum at the same position, relabelled by the oracle
    count = 0
    for _, sides in _walked(horiz, vert):
        for side, out, nxt, reference in sides:
            lam = _lam(reference.letters.involution)
            assert (out, nxt) == tuple(map(_flat, relabelled(reference, lam)))
            assert side.key(out, nxt) == canonical_form(reference, [lam])[0]
            built = side.automaton(out, nxt, 0)
            assert (built.out, built.nxt) == relabelled(reference, lam)
            count += 1
    assert count == 2 * sum(1 for _ in enumerate_complete_data(horiz, vert))


# least keys per survey, over the automata of both sides, by alphabet sizes
CLASSES = {(4, 4): 44, (2, 4): 9, (4, 2): 9, (2, 2): 2}
# least keys over both sides of the first 300 data in walk order
FIRST_300_CLASSES = {(4, 6): 41, (6, 4): 37}


def _check_classes(walked, classes):
    """Each automaton's least key against the oracle's, the automaton built
    for its class against that key, and each least key mapped to the
    (|P1|, |P2|) of its automata, each group and chain built afresh."""
    seen: dict = {}
    for d, sides in walked:
        # the vertical automaton's states act on the horizontal tree
        for (side, out, nxt, aut), name in zip(sides, (HORIZONTAL, VERTICAL)):
            least, index = side.least(side.key(out, nxt))
            assert least == canonical_form(aut)[0]
            form = side.automaton(out, nxt, index)
            assert canonical_form(form, [tuple(range(form.letters.size))])[0] == least
            seen.setdefault(least, set()).add(
                tuple(order(local_group(d, name, k)) for k in (1, 2)))
    assert len(seen) == classes
    assert all(len(orders) == 1 for orders in seen.values())


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_class_key_fixes_the_orders(horiz, vert):
    _check_classes(_walked(horiz, vert), CLASSES[horiz.size, vert.size])


@pytest.mark.parametrize("horiz, vert", [(A4, A6), (A6, A4)])
def test_class_key_fixes_the_orders_on_six_letters(horiz, vert):
    # the first 300 data in walk order, whose 6-letter side is keyed under
    # the 48 relabellings of C2 wr S3
    _check_classes(islice(_walked(horiz, vert), 300), FIRST_300_CLASSES[horiz.size, vert.size])


@functools.cache
def _survey_side(states: int, letters: Alphabet) -> _Side:
    """The survey's side for automata on these states and letters, read
    from the list of their moves nxt[q][x] * w + out[q][x] in row order."""
    width = letters.size
    return _Side(states, letters, lambda q, x: q * width + x,
                 [divmod(v, width)[::-1] for v in range(states * width)])


def _survey_least_key(aut) -> bytes:
    side = _survey_side(aut.states.size, aut.letters)
    moves = [t * aut.letters.size + y for row, step in zip(aut.out, aut.nxt)
             for y, t in zip(row, step)]
    return side.least(side.key(*side.rows(moves)))[0]


def _renamed(aut, rng, involution):
    """The automaton with its states renumbered at random and its letters
    relabelled onto `involution` by a random bijection: a random order of
    the 2-cycles, each turned at random, onto those of `involution`."""
    def cycles(inv):
        return [(x, inv[x]) for x in range(len(inv)) if x < inv[x]]

    targets = [pair[::rng.choice((1, -1))] for pair in cycles(involution)]
    rng.shuffle(targets)
    letter = dict(zip((x for pair in cycles(aut.letters.involution) for x in pair),
                      (x for pair in targets for x in pair)))
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


@pytest.mark.parametrize("horiz, vert", PAIRINGS)
def test_class_key_ignores_state_order_and_letter_labels(horiz, vert):
    # each automaton with its states renumbered at random and its letters
    # relabelled by a random bijection onto an involution drawn from those
    # of its size: the survey's side for that one automaton keys it as it
    # keys the automaton itself, and as the oracle does
    rng = random.Random(SUITE_SEED)
    involutions = {4: FPF_INVOLUTIONS_4, 2: [A2.involution]}
    for d in enumerate_complete_data(horiz, vert):
        for aut in (vertical_automaton(d), horizontal_automaton(d)):
            renamed = _renamed(aut, rng, rng.choice(involutions[aut.letters.size]))
            least = _survey_least_key(renamed)
            assert least == _survey_least_key(aut) == canonical_form(renamed)[0]


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
    # one class form per least key, as the oracle builds it, and one chain
    # per distinct generator set of their P1 and P2
    forms = {}
    for d in enumerate_complete_data(A4, A4):
        for aut in (vertical_automaton(d), horizontal_automaton(d)):
            key, out, nxt = canonical_form(aut)
            forms[key] = MealyAutomaton(states=aut.states, letters=A4, out=out, nxt=nxt)
    assert len(forms) == CLASSES[4, 4]
    generator_sets = {frozenset(group.generators)
                      for form in forms.values() for group in local_groups(form, 2)}
    assert len(generator_sets) == 72
    chain_builds.clear()
    survey_level_growth(A4, A4)
    assert len(chain_builds) == len(generator_sets)


# one involution on both sides, and two different ones
INVOLUTION_PAIRS = [((1, 0, 3, 2), (1, 0, 3, 2)), ((1, 0, 3, 2), (2, 3, 0, 1))]
# class keys per T4 x T4 survey, over the automata of both sides
CLASS_KEYS = 86


@pytest.mark.parametrize("h_involution, v_involution", INVOLUTION_PAIRS)
def test_class_key_fixes_the_generator_sets(h_involution, v_involution):
    # each class key, mapped to the (P1, P2) generator sets of the
    # automata the survey reads, relabelled by λ
    seen: dict = {}
    for _, sides in _walked(*_alphabets(h_involution, v_involution)):
        for side, out, nxt, _ in sides:
            groups = local_groups(side.automaton(out, nxt, 0), 2)
            seen.setdefault(side.key(out, nxt), set()).add(
                tuple(frozenset(group.generators) for group in groups))
    assert len(seen) == CLASS_KEYS
    assert all(len(gens) == 1 for gens in seen.values())


@pytest.mark.parametrize("h_involution, v_involution", INVOLUTION_PAIRS)
def test_local_groups_built_once_per_class(monkeypatch, chain_builds,
                                           h_involution, v_involution):
    calls = []
    build = localaction._local_group_from_automaton

    def counting_build(aut, below):
        calls.append(None)
        return build(aut, below)

    monkeypatch.setattr(localaction, "_local_group_from_automaton", counting_build)
    result = survey_level_growth(*_alphabets(h_involution, v_involution))
    # one call per level per least key, fewer than one per level per
    # class key, and 2 * 3,128 = 6,256 without the memo
    assert len(calls) == 2 * CLASSES[4, 4] == 2 * result.classes_typed < 2 * CLASS_KEYS
    # each class is built on 0<->1, 2<->3, so two different involutions
    # build the chains of one
    assert len(chain_builds) == 72


# the record of every T2 x T6 and T6 x T2 survey: the 6-letter automata
# are typed up to the 48 relabellings that keep the involution
T2X6_RECORD = {
    "total": 232,
    "nontrivial_p1": 231,
    "growth_count": 0,
    "any_growth": False,
    "max_p1_order": 6,
    "max_p2_order": 6,
    "p1_orders_seen": [1, 2, 3, 4, 6],
}


@pytest.mark.parametrize("horiz, vert", [(A2, A6), (A6, A2), (A2, B6), (B6, A2)],
                         ids=["2x6", "6x2", "2x6-shifted", "6x2-shifted"])
def test_t2x6_survey_record(horiz, vert):
    result = survey_level_growth(horiz, vert)
    assert result.to_json() == T2X6_RECORD
    assert result.first_growth is None
    assert result.classes_typed == 22
