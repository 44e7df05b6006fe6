import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat import groupprops, pipeline
from treelat.cli import json_data
from treelat.errors import (
    InvalidDatum,
    NotAlmostSimple,
    PreconditionFailed,
    RatioBelowOne,
    RatioTooLarge,
    TowerTooShort,
)
from treelat.localaction import NOT_APPLICABLE
from treelat.permcore import (
    alternating_group,
    group_from_raw,
    group_to_raw,
    induced_action_on_pairs,
    symmetric_group,
)
from treelat.pipeline import (
    INDEX_BOUND_MAX_N,
    AnalysisCaps,
    analyze_datum,
    analyze_pair,
    analyze_raw_group,
    assemble_report,
    contradiction_chain,
    theorem01_verdict,
    theorem25_obstruction,
    wang_index_bound,
)
from treelat.vhcomplex import Alphabet, VhDatum, commuting_datum

from conftest import cyclic_group, first_nontrivial_datum


@pytest.fixture(scope="module")
def a6_report():
    return analyze_raw_group(alternating_group(6))


@pytest.fixture(scope="module")
def s5p_report():
    return analyze_raw_group(induced_action_on_pairs(symmetric_group(5)))


# ---------------------------------------------------------------------------
# analyze_side
# ---------------------------------------------------------------------------

def test_analyze_s5_on_pairs(s5p_report):
    r = s5p_report
    assert r.degree == 10
    assert r.p1_order == 120
    assert r.transitive and r.primitive and not r.two_transitive
    assert r.quasiprimitive
    assert r.qp_type.tag == "AlmostSimple"
    assert r.m_order == 60
    assert r.s_order == 12
    assert r.m_cap_s_order == 6
    assert r.solvable_outer is True
    assert r.discreteness.kind == NOT_APPLICABLE


def test_analyze_a6(a6_report):
    r = a6_report
    assert r.degree == 6
    assert r.two_transitive
    assert r.qp_type.tag == "AlmostSimple"
    assert r.m_order == 360
    assert r.s_order == 60
    assert r.m_cap_s_order == 60


def test_analyze_commuting_datum_side():
    r = analyze_datum(commuting_datum(4, 4)).side1
    assert r.p1_order == 1
    assert not r.transitive
    assert not r.quasiprimitive
    assert r.qp_type.tag == "Intransitive"
    assert r.discreteness.kind == "discrete" and r.discreteness.at == 1
    assert r.m_order is None and r.s_order is None


def test_analyze_datum_side_rejects_invalid():
    d = commuting_datum(4, 4)
    broken = VhDatum(horiz=d.horiz, vert=d.vert, squares=d.squares[1:])
    with pytest.raises(InvalidDatum):
        analyze_datum(broken)


def test_analyze_depth_one_raises_tower_too_short():
    with pytest.raises(TowerTooShort):
        analyze_datum(commuting_datum(4, 4), AnalysisCaps(depth=1))


def test_analyze_datum_validates_once(monkeypatch):
    calls = []
    validate = pipeline.validate

    def counting_validate(*args, **kwargs):
        calls.append(None)
        return validate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "validate", counting_validate)
    analyze_datum(commuting_datum(4, 4))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# theorem01
# ---------------------------------------------------------------------------

def test_theorem01_raw_pair_applicable(a6_report, s5p_report):
    verdict = theorem01_verdict(a6_report, s5p_report)
    assert verdict.applicable
    assert any("constant local type asserted" in c for c in verdict.caveats)
    assert any("discreteness not evaluated" in c for c in verdict.caveats)


def test_theorem01_commuting_not_applicable():
    rep = analyze_datum(commuting_datum(4, 4))
    assert not rep.theorem01.applicable
    assert "not applicable" in rep.theorem01.conclusion.lower()


def test_theorem01_caveats_for_datum_nonstabilizing():
    d = first_nontrivial_datum(Alphabet.with_adjacent_pairs(4),
                               Alphabet.with_adjacent_pairs(4))
    rep = analyze_datum(d, AnalysisCaps(depth=3))
    kinds = {rep.side1.discreteness.kind, rep.side2.discreteness.kind}
    assert "discrete" in kinds or "no_stabilization" in kinds
    if "no_stabilization" in kinds:
        assert any("evidence-grade" in c for c in rep.theorem01.caveats)


def test_theorem01_not_asserted_constant_type(a6_report):
    r2 = analyze_raw_group(alternating_group(6), constant_type_asserted=False)
    verdict = theorem01_verdict(a6_report, r2)
    assert not verdict.applicable


# ---------------------------------------------------------------------------
# theorem25
# ---------------------------------------------------------------------------

def test_theorem25_a6_a6(a6_report):
    t25 = theorem25_obstruction(a6_report, a6_report)
    assert t25.m1_in_s2.exact == "no"
    assert not t25.m1_in_s2.order_divides  # 360 does not divide 60
    assert t25.obstruction_established
    assert t25.conclusion is not None


def test_theorem25_a6_s5(a6_report, s5p_report):
    t25 = theorem25_obstruction(a6_report, s5p_report)
    assert t25.m1_in_s2.exact == "no"  # 360 does not divide 12
    assert t25.m2_in_s1.exact == "yes"  # A5 is a section of the A6 stabilizer
    assert t25.obstruction_established


def test_section_tests_do_not_reprove_the_socle_simple(monkeypatch):
    # typing has proved each socle simple; the section tests only check
    # that it is perfect
    a5_side = analyze_raw_group(alternating_group(5))
    a7_side = analyze_raw_group(alternating_group(7))
    calls = []
    simple_residual = groupprops._simple_residual

    def counting(*args, **kwargs):
        calls.append(args)
        return simple_residual(*args, **kwargs)

    monkeypatch.setattr(groupprops, "_simple_residual", counting)
    t25 = theorem25_obstruction(a5_side, a7_side)
    assert t25.m1_in_s2.exact in ("yes", "no") and t25.m2_in_s1.exact in ("yes", "no")
    assert calls == []


def test_theorem25_requires_almost_simple(a6_report):
    c4 = analyze_raw_group(cyclic_group(4))
    with pytest.raises(NotAlmostSimple):
        theorem25_obstruction(a6_report, c4)


def test_theorem25_unknown_defers():
    # synthetic situation with both directions unknown: tiny caps make the
    # exact test overflow while every necessary flag passes
    a6 = analyze_raw_group(alternating_group(6))
    caps = AnalysisCaps(section_cap=1)
    a5_side = analyze_raw_group(alternating_group(5))
    t25 = theorem25_obstruction(a5_side, a6, caps)
    # m1 = A5 into S2 = A6-stab (order 60): necessary flags pass, exact capped
    assert t25.m1_in_s2.exact == "unknown"
    # m2 = A6 (360) into S1 = A5-stab (order 12): refuted by order
    assert t25.m2_in_s1.exact == "no"
    assert t25.obstruction_established


def test_theorem25_both_unknown_not_established():
    a5_side = analyze_raw_group(alternating_group(5))
    caps = AnalysisCaps(section_cap=1)
    t25 = theorem25_obstruction(a5_side, a5_side, caps)
    # A5 into the A5 point stabilizer (order 12): 60 does not divide 12 -> no
    assert t25.m1_in_s2.exact == "no"
    assert t25.obstruction_established
    # force the genuinely-unknown case: A5 against itself as stabilizer
    # cannot arise from a point action, so craft reports directly
    r = analyze_raw_group(alternating_group(6))
    import dataclasses
    r_loose = dataclasses.replace(r, s_group=alternating_group(6),
                                  s_order=360, m_cap_s_order=360)
    t = theorem25_obstruction(r_loose, r_loose, caps)
    assert t.m1_in_s2.exact == "unknown"
    assert t.m2_in_s1.exact == "unknown"
    assert not t.obstruction_established
    assert t.conclusion is None


# ---------------------------------------------------------------------------
# contradiction chain
# ---------------------------------------------------------------------------

def test_chain_a6_a6(a6_report):
    chain = contradiction_chain(a6_report, a6_report)
    assert chain.m1_le_s2capm2 is False  # 360 <= 60 fails
    assert chain.m2_le_s1capm1 is False
    assert chain.contradiction


def test_chain_a6_s5(a6_report, s5p_report):
    chain = contradiction_chain(a6_report, s5p_report)
    assert chain.m1_le_s2capm2 is False  # 360 <= 6 fails
    assert chain.m2_le_s1capm1 is True   # 60 <= 60 holds
    assert chain.contradiction


def test_chain_symmetry(a6_report, s5p_report):
    ab = contradiction_chain(a6_report, s5p_report)
    ba = contradiction_chain(s5p_report, a6_report)
    assert ab.m1_le_s2capm2 == ba.m2_le_s1capm1
    assert ab.m2_le_s1capm1 == ba.m1_le_s2capm2
    assert ab.contradiction == ba.contradiction


def test_chain_precondition(a6_report):
    c4 = analyze_raw_group(cyclic_group(4))
    with pytest.raises(PreconditionFailed):
        contradiction_chain(a6_report, c4)


def test_chain_strictness_all_almost_simple_sides(a6_report, s5p_report):
    # |M ∩ S| < |M| forced by transitivity of the socle
    for r in (a6_report, s5p_report):
        assert r.m_cap_s_order < r.m_order
        assert r.m_order // r.m_cap_s_order == r.degree


# ---------------------------------------------------------------------------
# report assembly and serialization
# ---------------------------------------------------------------------------

def test_full_report_json_keys(a6_report, s5p_report):
    rep = assemble_report(a6_report, s5p_report)
    doc = json_data(rep)
    assert set(doc) == {"side1", "side2", "theorem01", "theorem25", "chain"}
    side_keys = {"degree", "p1_order", "transitive", "primitive", "two_transitive",
                 "quasiprimitive", "qp_type", "m_order", "s_order", "m_cap_s_order",
                 "solvable_outer", "discreteness", "source", "constant_type"}
    assert side_keys <= set(doc["side1"])
    assert set(doc["theorem25"]["m1_in_s2"]) == {
        "order_divides", "prime_spectrum_ok", "element_order_spectrum_ok",
        "exact", "witness"}
    json.dumps(doc)  # serializable


def test_report_idempotent(a6_report, s5p_report):
    rep1 = json_data(assemble_report(a6_report, s5p_report))
    rep2 = json_data(assemble_report(a6_report, s5p_report))
    assert rep1 == rep2


def test_chain_contradiction_implies_obstruction(a6_report, s5p_report):
    # on the catalog pairs the chain certificate always comes with an
    # established section obstruction
    for r1, r2 in [(a6_report, a6_report), (a6_report, s5p_report),
                   (s5p_report, s5p_report)]:
        rep = assemble_report(r1, r2)
        if rep.chain is not None and rep.chain.contradiction:
            assert rep.theorem25 is not None
            assert rep.theorem25.obstruction_established


def test_analyze_pair_runs_end_to_end():
    rep = analyze_pair(alternating_group(6),
                       induced_action_on_pairs(symmetric_group(5)))
    assert rep.theorem01.applicable
    assert rep.theorem25.obstruction_established
    assert rep.chain.contradiction


def test_analyze_pair_a6_m12_unknown_direction():
    # A6 into the M12 point stabilizer (order 7920) passes every necessary
    # flag but exceeds the exact-test cap; the swapped direction is refuted
    # by order, so the obstruction stands on one leg
    from treelat.catalog import mathieu_group_12
    rep = analyze_pair(alternating_group(6), mathieu_group_12())
    t25 = rep.theorem25
    assert t25.m1_in_s2.order_divides          # 360 divides 7920
    assert t25.m1_in_s2.element_order_spectrum_ok
    assert t25.m1_in_s2.exact == "unknown"
    assert t25.m2_in_s1.exact == "no"          # 95040 does not divide 60
    assert t25.obstruction_established
    assert rep.chain.m1_le_s2capm2 is True     # 360 <= 7920
    assert rep.chain.m2_le_s1capm1 is False    # 95040 <= 60 fails
    assert rep.chain.contradiction


@pytest.fixture()
def raw_analyses(monkeypatch):
    """The groups `analyze_pair` hands to `analyze_raw_group`, in order."""
    groups = []
    analyze = pipeline.analyze_raw_group

    def counting_analyze(g, *args, **kwargs):
        groups.append(g)
        return analyze(g, *args, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_raw_group", counting_analyze)
    return groups


def test_analyze_pair_analyzes_a_repeated_group_once(raw_analyses):
    # one group object on both sides, and two loads of one document
    doc = group_to_raw(alternating_group(6))
    a6 = alternating_group(6)
    for g1, g2 in ((a6, a6), (group_from_raw(doc), group_from_raw(doc))):
        raw_analyses.clear()
        rep = analyze_pair(g1, g2)
        assert len(raw_analyses) == 1
        # the one analysis gives the report two separate analyses give
        separate = assemble_report(analyze_raw_group(g1), analyze_raw_group(g2))
        assert json_data(rep) == json_data(separate)


def test_analyze_pair_analyzes_a_renamed_group_again(raw_analyses):
    # the name is part of the report, so equal generators do not suffice
    doc = group_to_raw(alternating_group(6))
    rep = analyze_pair(group_from_raw({**doc, "name": "first"}),
                       group_from_raw({**doc, "name": "second"}))
    assert len(raw_analyses) == 2
    assert (rep.side1.source, rep.side2.source) == ("raw_group:first", "raw_group:second")


# ---------------------------------------------------------------------------
# index bound
# ---------------------------------------------------------------------------

def test_wang_index_bound_examples():
    assert json_data(wang_index_bound(3)) == {"N": 3, "index_bound": 2}
    assert json_data(wang_index_bound(1)) == {"N": 1, "index_bound": 1}
    assert json_data(wang_index_bound(6.5)) == {"N": 6, "index_bound": 120}
    assert json_data(wang_index_bound(Fraction(13, 2))) == {"N": 6, "index_bound": 120}


def test_wang_index_bound_caps_n():
    assert wang_index_bound(INDEX_BOUND_MAX_N).index_bound == math.factorial(
        INDEX_BOUND_MAX_N - 1)
    with pytest.raises(RatioTooLarge):
        wang_index_bound(INDEX_BOUND_MAX_N + 1)
    with pytest.raises(RatioTooLarge):
        wang_index_bound(Fraction(10 ** 12))


def test_wang_index_bound_rejects_below_one():
    with pytest.raises(RatioBelowOne):
        wang_index_bound(0.5)
    with pytest.raises(RatioBelowOne):
        wang_index_bound(Fraction(1, 2))


@pytest.mark.parametrize("ratio", [float("nan"), Decimal("NaN")], ids=["float", "Decimal"])
def test_wang_index_bound_rejects_nan(ratio):
    # NaN fails every ordering comparison, so it must be refused before
    # them: a float NaN would reach math.floor, and a Decimal NaN signals
    with pytest.raises(RatioBelowOne, match="nan"):
        wang_index_bound(ratio)


@given(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60)
def test_wang_index_bound_monotone(x):
    a = wang_index_bound(x)
    b = wang_index_bound(x + 0.75)
    assert b.N >= a.N
    assert b.index_bound >= a.index_bound
