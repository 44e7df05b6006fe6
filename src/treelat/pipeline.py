"""Assemble per-side analyses into the finiteness and obstruction verdicts.

The tool verifies hypotheses; the theorems supply the conclusions.  Every
verdict therefore carries its hypothesis-check provenance, and conclusions
are emitted as quoted consequences of the underlying theory, never as facts
this program recomputed.  Non-discreteness in particular is only ever
evidence-grade (no stabilization up to the computed depth), and the reports
say so.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    InternalInvariantError,
    InvalidDatum,
    NotAlmostSimple,
    PreconditionFailed,
    RatioBelowOne,
    RatioTooLarge,
)
from .groupprops import (
    ALMOST_SIMPLE,
    DEFAULT_ENUM_CAP,
    DEFAULT_SECTION_CAP,
    INTRANSITIVE,
    NO,
    NOT_QUASIPRIMITIVE,
    QpType,
    SectionReport,
    classify_qp_with_mns,
    is_2transitive,
    is_prime_power,
    is_primitive,
    is_transitive,
    section_report,
    solvable_outer_check,
)
from .localaction import (
    DISCRETE,
    NO_STABILIZATION,
    NOT_APPLICABLE,
    DEFAULT_DEPTH,
    DiscretenessVerdict,
    discreteness_verdict,
    sphere_index,
    tower,
)
from .permcore import PermGroup, order, point_stabilizer
from .vhcomplex import HORIZONTAL, VERTICAL, VhDatum, validate

# how the constant-type hypothesis is satisfied for a side
CONSTANT_AUTOMATIC = "automatic"      # one-vertex datum: structural
CONSTANT_ASSERTED = "asserted"        # raw group: caller asserts it
CONSTANT_NOT_ASSERTED = "not_asserted"


@dataclass(frozen=True)
class AnalysisCaps:
    """Tower depth and enumeration budgets, defaulting to
    `localaction.DEFAULT_DEPTH`, `groupprops.DEFAULT_ENUM_CAP` and
    `groupprops.DEFAULT_SECTION_CAP`; `strict` is no budget, it makes
    validation reject self-paired squares."""

    depth: int = DEFAULT_DEPTH
    enum_cap: int = DEFAULT_ENUM_CAP
    section_cap: int = DEFAULT_SECTION_CAP
    strict: bool = False


@dataclass
class SideReport:
    """Everything the verdicts need to know about one side's local action."""

    degree: int
    p1_order: int
    transitive: bool
    primitive: bool
    two_transitive: bool
    quasiprimitive: bool
    qp_type: QpType
    m_order: Optional[int]
    s_order: Optional[int]
    m_cap_s_order: Optional[int]
    solvable_outer: Optional[bool]
    discreteness: DiscretenessVerdict
    source: str
    constant_type: str
    m_group: Optional[PermGroup] = field(repr=False, default=None)
    s_group: Optional[PermGroup] = field(repr=False, default=None)


def _analyze_group(g: PermGroup, source: str, discreteness: DiscretenessVerdict,
                   constant_type: str, caps: AnalysisCaps) -> SideReport:
    p1_order = order(g)
    transitive = is_transitive(g)
    two_transitive = is_2transitive(g) if transitive else False
    # 2-transitive implies primitive: if a block B holds a and b but not c,
    # an element fixing a and carrying b to c maps B onto a block that
    # meets B in a, so is B, yet holds c
    primitive = (two_transitive or is_primitive(g)) if transitive else False
    qp_type, mns = classify_qp_with_mns(g, caps.enum_cap)
    quasiprimitive = transitive and qp_type.tag not in (NOT_QUASIPRIMITIVE, INTRANSITIVE)

    s_group = None
    s_order = None
    if transitive:
        s_group = point_stabilizer(g)
        s_order = order(s_group)
        if s_order * g.degree != p1_order:
            raise InternalInvariantError(
                f"orbit-stabilizer violated: {s_order} * {g.degree} != {p1_order}")

    m_group = None
    m_order = None
    m_cap_s_order = None
    solvable_outer = None
    if qp_type.tag == ALMOST_SIMPLE:
        m_group = mns[0]
        m_order = order(m_group)
        m_cap_s_order = order(point_stabilizer(m_group))
        if m_cap_s_order * g.degree != m_order:
            raise InternalInvariantError(
                f"almost-simple socle index {m_order}/{m_cap_s_order} "
                f"is not the degree {g.degree}")
        # S/(S∩M) ≅ SM/M <= G/M, since M is normal; when |G/M| is a prime
        # power (1 included: M = G), that is a p-group, which is solvable
        solvable_outer = (is_prime_power(p1_order // m_order)
                          or solvable_outer_check(g, m_group))

    return SideReport(
        degree=g.degree,
        p1_order=p1_order,
        transitive=transitive,
        primitive=primitive,
        two_transitive=two_transitive,
        quasiprimitive=quasiprimitive,
        qp_type=qp_type,
        m_order=m_order,
        s_order=s_order,
        m_cap_s_order=m_cap_s_order,
        solvable_outer=solvable_outer,
        discreteness=discreteness,
        source=source,
        constant_type=constant_type,
        m_group=m_group,
        s_group=s_group,
    )


def analyze_raw_group(g: PermGroup, caps: AnalysisCaps = AnalysisCaps(),
                      constant_type_asserted: bool = True) -> SideReport:
    """Side analysis for a bare permutation group: no tower, so the
    discreteness verdict is not applicable."""
    label = f"raw_group:{g.name}" if g.name else "raw_group"
    return _analyze_group(
        g,
        source=label,
        discreteness=DiscretenessVerdict(kind=NOT_APPLICABLE, at=None),
        constant_type=CONSTANT_ASSERTED if constant_type_asserted else CONSTANT_NOT_ASSERTED,
        caps=caps,
    )


def _analyze_datum_side(d: VhDatum, side: str, caps: AnalysisCaps) -> SideReport:
    """Side analysis for a validated one-vertex datum: local tower plus the
    property battery on P1.  Constant type is structural for
    vertex-transitive data."""
    t = tower(d, side, caps.depth)
    verdict = discreteness_verdict(t)
    label = f"datum:{d.name}:{side}" if d.name else f"datum:{side}"
    return _analyze_group(t.groups[0], source=label, discreteness=verdict,
                          constant_type=CONSTANT_AUTOMATIC, caps=caps)


@dataclass(frozen=True)
class Theorem01Verdict:
    applicable: bool
    caveats: tuple[str, ...]
    conclusion: str


def theorem01_verdict(r1: SideReport, r2: SideReport) -> Theorem01Verdict:
    """Applicability of the finiteness criterion: both sides quasi-primitive
    of almost simple type, and no side with positive (discrete) evidence."""
    problems = []
    caveats = []
    for label, r in (("side1", r1), ("side2", r2)):
        if r.qp_type.tag != ALMOST_SIMPLE:
            problems.append(f"{label}: local action is {r.qp_type.tag}, "
                            "not quasi-primitive of almost simple type")
        if r.discreteness.kind == DISCRETE:
            problems.append(f"{label}: tower stabilizes at depth {r.discreteness.at}; "
                            "the projection closure is discrete")
        elif r.discreteness.kind == NO_STABILIZATION:
            caveats.append(f"{label}: non-discreteness is evidence-grade "
                           f"(no stabilization up to depth {r.discreteness.at}), "
                           "not a certificate")
        elif r.discreteness.kind == NOT_APPLICABLE:
            caveats.append(f"{label}: discreteness not evaluated for raw group input; "
                           "non-discreteness remains a hypothesis")
        if r.constant_type == CONSTANT_ASSERTED:
            caveats.append(f"{label}: constant local type asserted by the caller, "
                           "not computed")
        elif r.constant_type == CONSTANT_NOT_ASSERTED:
            problems.append(f"{label}: constant local type neither structural "
                            "nor asserted")
    applicable = not problems
    if applicable:
        conclusion = (
            "Hypotheses verified (modulo the listed caveats): the lattice is "
            "contained in only finitely many discrete subgroups of the product "
            "of the two projection closures.  The finiteness itself is supplied "
            "by the theorem; this tool checked its hypotheses.")
    else:
        conclusion = "Not applicable: " + "; ".join(problems)
    return Theorem01Verdict(applicable=applicable, caveats=tuple(caveats),
                            conclusion=conclusion)


@dataclass(frozen=True)
class Theorem25Report:
    m1_in_s2: SectionReport
    m2_in_s1: SectionReport
    obstruction_established: bool
    conclusion: Optional[str]


def theorem25_obstruction(r1: SideReport, r2: SideReport,
                          caps: AnalysisCaps = AnalysisCaps()) -> Theorem25Report:
    """Section tests in both directions; the obstruction is established when
    at least one direction is exactly refuted."""
    if r1.qp_type.tag != ALMOST_SIMPLE or r2.qp_type.tag != ALMOST_SIMPLE:
        raise NotAlmostSimple("section obstruction requires both sides almost simple")
    assert r1.m_group is not None and r2.m_group is not None
    assert r1.s_group is not None and r2.s_group is not None
    m1_in_s2 = section_report(r1.m_group, r2.s_group, caps.enum_cap, caps.section_cap)
    m2_in_s1 = section_report(r2.m_group, r1.s_group, caps.enum_cap, caps.section_cap)
    established = m1_in_s2.exact == NO or m2_in_s1.exact == NO
    conclusion = None
    if established:
        conclusion = (
            "A section condition fails, so the theorem's alternative is excluded: "
            "every discrete subgroup containing the lattice meets the reference "
            "identity neighborhood W trivially.  W depends on the lattice and is "
            "referenced symbolically; no numeric radius is computed.")
    return Theorem25Report(m1_in_s2=m1_in_s2, m2_in_s1=m2_in_s1,
                           obstruction_established=established,
                           conclusion=conclusion)


@dataclass(frozen=True)
class ChainReport:
    m1_le_s2capm2: bool
    m2_le_s1capm1: bool
    contradiction: bool
    notes: tuple[str, ...]


def contradiction_chain(r1: SideReport, r2: SideReport) -> ChainReport:
    """Evaluate |M1| <= |S2 ∩ M2| and the index-swapped inequality on the
    concrete groups.

    Strictness |Si ∩ Mi| < |Mi| is forced by transitivity of the socle, so
    the two comparisons cannot both hold; the resulting certificate is the
    concrete arithmetic behind the impossibility of both section conditions
    holding simultaneously."""
    for label, r in (("side1", r1), ("side2", r2)):
        if r.qp_type.tag != ALMOST_SIMPLE:
            raise PreconditionFailed(f"{label} is not almost simple")
        if not r.solvable_outer:
            raise PreconditionFailed(f"{label} failed the solvable outer quotient check")
    assert r1.m_order is not None and r2.m_order is not None
    assert r1.m_cap_s_order is not None and r2.m_cap_s_order is not None
    if not (r1.m_cap_s_order < r1.m_order and r2.m_cap_s_order < r2.m_order):
        raise InternalInvariantError(
            "socle point stabilizer not proper despite transitivity")
    p1 = r1.m_order <= r2.m_cap_s_order
    p2 = r2.m_order <= r1.m_cap_s_order
    notes = (
        f"|M1|={r1.m_order} <= |S2∩M2|={r2.m_cap_s_order}: {p1}",
        f"|M2|={r2.m_order} <= |S1∩M1|={r1.m_cap_s_order}: {p2}",
        f"|S1∩M1|={r1.m_cap_s_order} < |M1|={r1.m_order} and "
        f"|S2∩M2|={r2.m_cap_s_order} < |M2|={r2.m_order} (forced by transitivity)",
    )
    contradiction = not (p1 and p2)
    return ChainReport(m1_le_s2capm2=p1, m2_le_s1capm1=p2,
                       contradiction=contradiction, notes=notes)


@dataclass
class WangReport:
    """Full two-sided report; `theorem25` and `chain` are present only when
    their preconditions hold."""

    side1: SideReport
    side2: SideReport
    theorem01: Theorem01Verdict
    theorem25: Optional[Theorem25Report]
    chain: Optional[ChainReport]


def assemble_report(r1: SideReport, r2: SideReport,
                    caps: AnalysisCaps = AnalysisCaps()) -> WangReport:
    t01 = theorem01_verdict(r1, r2)
    both_almost_simple = (r1.qp_type.tag == ALMOST_SIMPLE
                          and r2.qp_type.tag == ALMOST_SIMPLE)
    t25 = theorem25_obstruction(r1, r2, caps) if both_almost_simple else None
    chain = None
    if both_almost_simple and r1.solvable_outer and r2.solvable_outer:
        chain = contradiction_chain(r1, r2)
    return WangReport(side1=r1, side2=r2, theorem01=t01, theorem25=t25, chain=chain)


def analyze_datum(d: VhDatum, caps: AnalysisCaps = AnalysisCaps()) -> WangReport:
    # either side's over-deep sphere is refused before any tower is built
    for letters in (d.horiz, d.vert):
        sphere_index(letters, caps.depth)
    report = validate(d, strict=caps.strict)
    if not report.ok:
        raise InvalidDatum("; ".join(report.violations))
    r1 = _analyze_datum_side(d, HORIZONTAL, caps)
    r2 = _analyze_datum_side(d, VERTICAL, caps)
    return assemble_report(r1, r2, caps)


def analyze_pair(g1: PermGroup, g2: PermGroup,
                 caps: AnalysisCaps = AnalysisCaps(),
                 constant_type_asserted: bool = True) -> WangReport:
    r1 = analyze_raw_group(g1, caps, constant_type_asserted)
    # a side's report depends only on its group's degree, generators and name
    same = (g2.degree, g2.generators, g2.name) == (g1.degree, g1.generators, g1.name)
    r2 = r1 if same else analyze_raw_group(g2, caps, constant_type_asserted)
    return assemble_report(r1, r2, caps)


# ---------------------------------------------------------------------------
# covolume index bound
# ---------------------------------------------------------------------------

Ratio = Union[int, float, Fraction, Decimal]

# the largest N whose (N-1)! the bound computes: 999! has 2,565 digits,
# within Python's 4,300-digit limit on int-to-string conversion
INDEX_BOUND_MAX_N = 1000


@dataclass(frozen=True)
class WangIndexBound:
    N: int
    index_bound: int


def wang_index_bound(vol_ratio: Ratio) -> WangIndexBound:
    """N = floor(vol_ratio) and the (N-1)! bound on the index of the kernel
    of the coset action inside the lattice.  The cap on N is compared with
    the ratio itself, before the floor builds an integer of its size."""
    # a quiet NaN is the one value unequal to itself; it is refused before
    # any ordering comparison, which a Decimal NaN would signal
    if vol_ratio != vol_ratio:
        raise RatioBelowOne("covolume ratio must be >= 1, got nan")
    if vol_ratio < 1:
        # shown as a float: str() of a long denominator is refused, and a
        # ratio below the float range is shown as -inf
        shown = float(vol_ratio) if vol_ratio > -sys.float_info.max else -math.inf
        raise RatioBelowOne(f"covolume ratio must be >= 1, got {shown}")
    if vol_ratio >= INDEX_BOUND_MAX_N + 1:
        raise RatioTooLarge(f"N = floor(ratio) exceeds the index-bound cap {INDEX_BOUND_MAX_N}")
    n = math.floor(vol_ratio)
    return WangIndexBound(N=n, index_bound=math.factorial(n - 1))
