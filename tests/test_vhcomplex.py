import json

import pytest

from treelat.errors import (
    InvalidDatum,
    InvolutionNotFpf,
    MalformedDocument,
    OddAlphabet,
)
from treelat.survey import enumerate_complete_data
from treelat.vhcomplex import (
    Alphabet,
    VhDatum,
    commuting_datum,
    dual,
    horizontal_automaton,
    parse_datum,
    serialize_datum,
    validate,
    vertical_automaton,
)

from conftest import first_nontrivial_datum, oriented_document
from oracles import horizontal_rows


@pytest.fixture(scope="module")
def commuting():
    return commuting_datum(4, 4)


@pytest.fixture(scope="module")
def nontrivial():
    d = first_nontrivial_datum(Alphabet.with_adjacent_pairs(4),
                               Alphabet.with_adjacent_pairs(4))
    assert d is not None
    return d


# ---------------------------------------------------------------------------
# alphabets
# ---------------------------------------------------------------------------

def test_alphabet_rejects_fixed_point():
    with pytest.raises(InvolutionNotFpf):
        Alphabet(size=4, involution=(0, 2, 1, 3))


def test_alphabet_rejects_odd_size():
    with pytest.raises(OddAlphabet):
        Alphabet(size=3, involution=(1, 0, 2))


def test_alphabet_rejects_non_involution():
    with pytest.raises(InvolutionNotFpf):
        Alphabet(size=4, involution=(1, 2, 3, 0))


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _commuting_doc():
    return {
        "n": 4, "m": 4,
        "h_involution": [[0, 1], [2, 3]],
        "v_involution": [[0, 1], [2, 3]],
        "oriented": False,
        "squares": [[0, 0, 0, 0], [0, 2, 0, 2], [2, 0, 2, 0], [2, 2, 2, 2]],
        "name": "commuting_t4x4",
    }


def test_parse_expands_geometric_squares(commuting):
    d = parse_datum(_commuting_doc())
    assert len(d.squares) == 16
    assert d.squares == commuting.squares


def test_parse_empty_squares_succeeds_validation_fails():
    doc = _commuting_doc()
    doc["squares"] = []
    d = parse_datum(doc)
    report = validate(d)
    assert not report.ok


def test_parse_rejects_fixed_point_involution():
    doc = _commuting_doc()
    doc["h_involution"] = [[0, 0], [1, 2]]
    with pytest.raises(InvolutionNotFpf):
        parse_datum(doc)


def test_parse_rejects_odd_alphabet():
    doc = _commuting_doc()
    doc["n"] = 3
    with pytest.raises(OddAlphabet):
        parse_datum(doc)


def test_parse_rejects_missing_fields():
    with pytest.raises(MalformedDocument):
        parse_datum({"n": 4, "m": 4})
    with pytest.raises(MalformedDocument):
        parse_datum([1, 2, 3])


def test_parse_rejects_out_of_range_letters():
    doc = _commuting_doc()
    doc["squares"] = [[0, 0, 9, 0]]
    with pytest.raises(MalformedDocument):
        parse_datum(doc)


def test_round_trip_geometric(commuting):
    doc = serialize_datum(commuting)
    assert doc["oriented"] is False
    assert len(doc["squares"]) == 4
    again = parse_datum(doc)
    assert again.squares == commuting.squares
    # byte-stable: serialize(parse(serialize(...))) is identical
    assert json.dumps(serialize_datum(again), sort_keys=True) == \
        json.dumps(doc, sort_keys=True)


def test_round_trip_oriented(nontrivial):
    doc = oriented_document(nontrivial)
    assert doc["oriented"] is True
    assert len(doc["squares"]) == 16
    assert parse_datum(doc).squares == nontrivial.squares


def test_round_trip_every_enumerated_datum_prefix():
    a4 = Alphabet.with_adjacent_pairs(4)
    count = 0
    for d in enumerate_complete_data(a4, a4):
        assert parse_datum(serialize_datum(d)).squares == d.squares
        count += 1
        if count >= 50:
            break


def test_serialize_refuses_squares_without_geometric_form(nontrivial):
    # a square dropped leaves its orientation orbit partly present, and a
    # square listed twice would be lost in the geometric form
    for squares in (nontrivial.squares[1:], nontrivial.squares + nontrivial.squares[:1]):
        broken = VhDatum(horiz=nontrivial.horiz, vert=nontrivial.vert, squares=squares)
        with pytest.raises(InvalidDatum, match="no geometric form"):
            serialize_datum(broken)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_commuting_valid(commuting):
    report = validate(commuting)
    assert report.ok
    assert report.geometric_count == 4
    assert len(commuting.squares) == 16


def test_validate_detects_deleted_square(commuting):
    broken = VhDatum(horiz=commuting.horiz, vert=commuting.vert,
                     squares=commuting.squares[1:])
    report = validate(broken)
    assert not report.ok
    assert any("no square with first corner" in v for v in report.violations)
    assert any("orientation closure broken" in v for v in report.violations)


def test_validate_detects_duplicate_corner(commuting):
    squares = commuting.squares[1:] + (commuting.squares[1],)
    broken = VhDatum(horiz=commuting.horiz, vert=commuting.vert, squares=squares)
    report = validate(broken)
    assert not report.ok
    assert any("covered twice" in v for v in report.violations)


def test_validate_strict_rejects_self_paired():
    # a.b = b'.a' with (a2, b2) = (inv a, inv b) gives orientation orbits
    # of size 2; built by pairing each corner with its formal inverse
    horiz = Alphabet.with_adjacent_pairs(2)
    vert = Alphabet.with_adjacent_pairs(2)
    squares = []
    for a in range(2):
        for b in range(2):
            squares.append((a, b, horiz.inv(a), vert.inv(b)))
    d = VhDatum(horiz=horiz, vert=vert, squares=tuple(squares))
    relaxed = validate(d)
    assert relaxed.ok
    assert any("self-paired" in w for w in relaxed.warnings)
    strict = validate(d, strict=True)
    assert not strict.ok


def test_validate_size_two_alphabet_warns():
    d = commuting_datum(2, 4)
    report = validate(d)
    assert report.ok
    assert any("size 2" in w for w in report.warnings)


def test_orientation_orbit_sizes():
    # orbits have size 4 or 2, size 2 exactly when (a2, b2) = (inv a, inv b)
    from treelat.vhcomplex import _orientation_orbit
    a4 = Alphabet.with_adjacent_pairs(4)
    count = 0
    for d in enumerate_complete_data(a4, a4):
        for sq in d.squares:
            orbit = _orientation_orbit(d.horiz, d.vert, sq)
            a, b, a2, b2 = sq
            self_paired = (a2, b2) == (d.horiz.inv(a), d.vert.inv(b))
            assert len(orbit) == (2 if self_paired else 4), sq
        count += 1
        if count >= 100:
            break


def test_every_enumerated_t2t2_datum_counted():
    # the four complete data on a pair of 2-letter alphabets: one
    # self-paired set and three with a single size-4 orbit structure
    a2 = Alphabet.with_adjacent_pairs(2)
    data = list(enumerate_complete_data(a2, a2))
    assert len(data) == 4
    for d in data:
        assert validate(d).ok


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

# The corner bijection (a, b) -> (b2, a2) with a.b = b2.a2 is row a of the
# horizontal automaton: out[a][b] = b2, nxt[a][b] = a2.  Its inverse, solving
# b.a = a*.b*, is row b of the vertical automaton: out[b][a] = a*,
# nxt[b][a] = b*.

def transition(d, a, b):
    h = horizontal_automaton(d)
    return h.out[a][b], h.nxt[a][b]


def co_transition(d, b, a):
    v = vertical_automaton(d)
    return v.out[b][a], v.nxt[b][a]


def test_transition_commuting(commuting):
    for a in range(4):
        for b in range(4):
            assert transition(commuting, a, b) == (b, a)
            assert co_transition(commuting, b, a) == (a, b)


def test_transition_missing_pair():
    d = VhDatum(horiz=Alphabet.with_adjacent_pairs(4),
                vert=Alphabet.with_adjacent_pairs(4),
                squares=((0, 0, 0, 0),))
    with pytest.raises(InvalidDatum):
        horizontal_automaton(d)
    with pytest.raises(InvalidDatum):
        vertical_automaton(d)


def test_automaton_rejects_repeated_move():
    a4 = Alphabet.with_adjacent_pairs(4)
    # two squares leave the corner (0, 0); two squares arrive at (0, 0)
    twice_from = VhDatum(horiz=a4, vert=a4, squares=((0, 0, 0, 0), (0, 0, 1, 1)))
    twice_into = VhDatum(horiz=a4, vert=a4, squares=((0, 0, 0, 0), (1, 1, 0, 0)))
    with pytest.raises(InvalidDatum, match="more than one square"):
        horizontal_automaton(twice_from)
    with pytest.raises(InvalidDatum, match="more than one square"):
        vertical_automaton(twice_into)


def test_transition_co_transition_compatibility(nontrivial):
    # the square providing transition(a, b) = (b2, a2) is the square
    # providing co_transition(b2, a2) = (a, b)
    for a in range(4):
        for b in range(4):
            b2, a2 = transition(nontrivial, a, b)
            assert co_transition(nontrivial, b2, a2) == (a, b)


# ---------------------------------------------------------------------------
# automata
# ---------------------------------------------------------------------------

def test_commuting_automata_are_identity(commuting):
    va = vertical_automaton(commuting)
    ha = horizontal_automaton(commuting)
    for s in range(4):
        assert va.out[s] == (0, 1, 2, 3)
        assert va.nxt[s] == (s, s, s, s)
        assert ha.out[s] == (0, 1, 2, 3)
        assert ha.nxt[s] == (s, s, s, s)


@pytest.mark.parametrize("n, m, count", [(4, 4, 1564), (2, 4, 26), (4, 2, 26), (2, 2, 4)])
def test_horizontal_automaton_matches_the_rows_read_off_the_squares(n, m, count):
    # built from the dual datum's vertical automaton, on every complete datum
    data = list(enumerate_complete_data(Alphabet.with_adjacent_pairs(n),
                                        Alphabet.with_adjacent_pairs(m)))
    assert len(data) == count
    for d in data:
        aut = horizontal_automaton(d)
        assert (aut.states, aut.letters) == (d.horiz, d.vert)
        assert (aut.out, aut.nxt) == horizontal_rows(d)


def test_nontrivial_datum_has_nonidentity_row(nontrivial):
    va = vertical_automaton(nontrivial)
    assert any(va.out[s] != (0, 1, 2, 3) for s in range(4))


def test_automaton_rows_are_bijections():
    a4 = Alphabet.with_adjacent_pairs(4)
    count = 0
    for d in enumerate_complete_data(a4, a4):
        for aut in (vertical_automaton(d), horizontal_automaton(d)):
            for s in range(aut.states.size):
                assert sorted(aut.out[s]) == list(range(aut.letters.size))
        count += 1
        if count >= 200:
            break


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_involution(commuting, nontrivial):
    for d in (commuting, nontrivial):
        assert dual(dual(d)) == d


def test_dual_swaps_sizes():
    d = commuting_datum(6, 10)
    dd = dual(d)
    assert (dd.n, dd.m) == (10, 6)


def test_dual_of_commuting_is_itself(commuting):
    assert dual(commuting).squares == commuting.squares


def test_dual_exchanges_automata(nontrivial):
    ha = horizontal_automaton(dual(nontrivial))
    va = vertical_automaton(nontrivial)
    assert ha.out == va.out
    assert ha.nxt == va.nxt
    va2 = vertical_automaton(dual(nontrivial))
    ha2 = horizontal_automaton(nontrivial)
    assert va2.out == ha2.out
    assert va2.nxt == ha2.nxt
