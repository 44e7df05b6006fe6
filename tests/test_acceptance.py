"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured runtime (run with `pytest tests/test_acceptance.py -v -s`
to watch the lines as they appear)."""

import json
import random
import time

from treelat import catalog
from treelat.cli import main as cli_main
from treelat.groupprops import ALMOST_SIMPLE
from treelat.localaction import act_word, sphere_index, tower
from treelat.permcore import contains, order
from treelat.pipeline import analyze_raw_group, contradiction_chain, wang_index_bound
from treelat.survey import enumerate_complete_data, survey_level_growth
from treelat.vhcomplex import (
    Alphabet,
    VhDatum,
    automaton_for_side,
    parse_datum,
    validate,
)

from conftest import engine_suite
from oracles import (
    closure_elements,
    minimal_normal_bruteforce,
    primitive_bruteforce,
)


def _report(number, text, elapsed):
    print(f"ACCEPTANCE PASS [{number}] {text} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------

def test_criterion_1_example_pair_a6_s5(capsys):
    start = time.perf_counter()
    code = cli_main(["analyze", "--pair", "a6_natural", "s5_on_pairs", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    side1, side2 = doc["side1"], doc["side2"]
    assert side2["transitive"] is True
    assert side2["primitive"] is True
    assert side2["two_transitive"] is False
    assert side2["quasiprimitive"] is True
    assert side2["qp_type"]["tag"] == "AlmostSimple"
    assert side2["m_order"] == 60
    assert side2["s_order"] == 12
    assert side2["m_cap_s_order"] == 6
    assert side2["solvable_outer"] is True
    assert side1["two_transitive"] is True
    assert side1["qp_type"]["tag"] == "AlmostSimple"
    assert side1["m_order"] == 360
    assert side1["s_order"] == 60
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    with capsys.disabled():
        _report(1, "pair (A6, S5-on-pairs): exact side reports", elapsed)


def test_criterion_2_m12(capsys):
    start = time.perf_counter()
    m12 = catalog.load_group("m12")
    assert order(m12) == 95040
    report = analyze_raw_group(m12)
    assert report.two_transitive is True
    assert report.qp_type.tag == ALMOST_SIMPLE
    # M is the whole group: equal order and containment of generators
    assert report.m_order == 95040
    assert all(contains(report.m_group, p) for p in m12.generators)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s (budget 5s)"
    with capsys.disabled():
        _report(2, "M12: BSGS order 95040, 2-transitive, almost simple with "
                   "M = whole group", elapsed)


def test_criterion_3_commuting_datum(capsys):
    start = time.perf_counter()
    d = parse_datum(catalog.load_document("commuting_t4x4"))
    assert validate(d).ok
    verdicts = []
    for side in ("horizontal", "vertical"):
        t = tower(d, side, 5)
        assert t.orders == (1, 1, 1, 1, 1)
        from treelat.localaction import discreteness_verdict
        verdicts.append(discreteness_verdict(t))
    assert all(v.kind == "discrete" and v.at == 1 for v in verdicts)
    code = cli_main(["analyze", "commuting_t4x4", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem01"]["applicable"] is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s (budget 1s)"
    with capsys.disabled():
        _report(3, "commuting T4xT4: towers [1,1,1,1,1], Discrete(1), "
                   "finiteness criterion not applicable", elapsed)


def test_criterion_4_exhaustive_t4x4_survey(capsys):
    start = time.perf_counter()
    a4 = Alphabet.with_adjacent_pairs(4)
    data = list(enumerate_complete_data(a4, a4))

    # every enumerated datum passes the independent validator
    for d in data:
        assert validate(d).ok, d.squares

    # validate rejects every delete-one / duplicate-one mutation
    rng = random.Random(4721)
    detected = 0
    trials = 100
    for _ in range(trials):
        d = data[rng.randrange(len(data))]
        squares = list(d.squares)
        i = rng.randrange(len(squares))
        if rng.random() < 0.5:
            del squares[i]  # delete one oriented square
        else:
            j = rng.randrange(len(squares))
            while j == i:
                j = rng.randrange(len(squares))
            squares[i] = squares[j]  # duplicate another square over it
        mutated = VhDatum(horiz=d.horiz, vert=d.vert, squares=tuple(squares))
        if not validate(mutated).ok:
            detected += 1
    assert detected == trials, f"only {detected}/{trials} mutations detected"

    result = survey_level_growth(a4, a4)
    assert result.total == len(data)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.2f}s (budget 600s)"
    with capsys.disabled():
        _report(4, f"exhaustive T4xT4 survey: {result.total} complete data, "
                   f"all valid; {trials}/{trials} mutations detected; "
                   f"|P2|>|P1| on some side for {result.growth_count} data "
                   f"(any_growth={result.any_growth})", elapsed)


def test_criterion_5_contradiction_chain_a6_a6(capsys):
    start = time.perf_counter()
    r = analyze_raw_group(catalog.load_group("a6_natural"))
    chain = contradiction_chain(r, r)
    assert chain.m1_le_s2capm2 is False  # 360 <= 60 is false
    assert chain.m2_le_s1capm1 is False  # and in the swapped direction
    assert chain.contradiction is True
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(5, "contradiction chain (A6, A6): 360 <= 60 false both ways, "
                   "certificate emitted", elapsed)


def test_criterion_6_engine_oracle_suite(capsys):
    start = time.perf_counter()
    suite = engine_suite()
    assert len(suite) == 30
    checked_mns = 0
    for g in suite:
        gens = g.generators
        closure = closure_elements(gens, g.degree)
        assert order(g) == len(closure), g.name
        if g.degree >= 2:
            from treelat.groupprops import is_primitive, is_transitive
            if is_transitive(g):
                assert is_primitive(g) == primitive_bruteforce(gens, g.degree), g.name
        if order(g) <= 200:
            from treelat.groupprops import minimal_normal_subgroups
            engine = {frozenset(m.chain().elements())
                      for m in minimal_normal_subgroups(g)}
            oracle = {frozenset(n) for n in minimal_normal_bruteforce(gens, g.degree)}
            assert engine == oracle, g.name
            checked_mns += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(6, f"engine oracle suite: 30 groups, order/primitivity agree "
                   f"with brute force, MNS lattice agrees on {checked_mns} "
                   f"members of order <= 200", elapsed)


def test_criterion_7_tower_properties_catalog(capsys):
    start = time.perf_counter()
    depth = 5
    datum_entries = [e for e in catalog.entries()
                     if e.kind == catalog.DATUM]
    assert datum_entries, "catalog must bundle at least one datum"
    for entry in datum_entries:
        d = parse_datum(catalog.load_document(entry.name))
        for side in ("horizontal", "vertical"):
            t = tower(d, side, depth)
            # divisibility
            for a, b in zip(t.orders, t.orders[1:]):
                assert b % a == 0, (entry.name, side, t.orders)
            # generator-wise truncation surjectivity
            aut = automaton_for_side(d, side)
            for k in range(1, depth):
                small = sphere_index(aut.letters, k)
                big = sphere_index(aut.letters, k + 1)
                parent = [small.position(w[:-1]) for w in big.words]
                for g_small, g_big in zip(t.groups[k - 1].generators,
                                          t.groups[k].generators):
                    for i, j in enumerate(g_big):
                        assert g_small[parent[i]] == parent[j]
            # stabilization persistence
            stabilized = False
            for a, b in zip(t.orders, t.orders[1:]):
                if stabilized:
                    assert a == b, (entry.name, side, t.orders)
                elif a == b:
                    stabilized = True
            # reduced-word preservation up to depth 4
            for k in range(1, 5):
                sphere = sphere_index(aut.letters, k)
                for s in range(aut.states.size):
                    for w in sphere.words:
                        image = act_word(aut, s, w)
                        for x, y in zip(image, image[1:]):
                            assert y != aut.letters.inv(x)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(7, f"tower properties to depth {depth} on "
                   f"{len(datum_entries)} bundled catalog datum(s): divisibility, "
                   "truncation surjectivity, persistence, reduced words",
                elapsed)


def test_criterion_8_wang_index_bound(capsys):
    start = time.perf_counter()
    for ratio, n, bound in [(1, 1, 1), (3, 3, 2), (6.5, 6, 120)]:
        result = wang_index_bound(ratio)
        assert result.N == n, (ratio, result)
        assert result.index_bound == bound, (ratio, result)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(8, "index bound triples (1,1,1), (3,3,2), (6.5,6,120) exact",
                elapsed)
