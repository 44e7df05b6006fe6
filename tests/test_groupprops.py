import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from treelat import catalog, groupprops, permcore, pipeline
from treelat.errors import (
    DegreeTooSmall,
    NotNormal,
    NotTransitive,
    PreconditionFailed,
    TooLarge,
)
from treelat.groupprops import (
    ALMOST_SIMPLE,
    INTRANSITIVE,
    NO,
    NOT_QUASIPRIMITIVE,
    OTHER_QUASIPRIMITIVE,
    TWO_REGULAR_MNS,
    UNKNOWN,
    YES,
    QpType,
    classify_qp_with_mns,
    element_order_spectrum,
    is_2transitive,
    is_primitive,
    is_transitive,
    minimal_normal_subgroups,
    section_exact_small,
    section_necessary,
    solvable_outer_check,
)
from treelat.permcore import (
    PermGroup,
    StabilizerChain,
    alternating_group,
    compose,
    from_cycles,
    induced_action_on_pairs,
    inverse,
    order,
    perm_group,
    point_stabilizer,
    symmetric_group,
    trivial_group,
)
from treelat.pipeline import analyze_raw_group

from conftest import cyclic_group
from oracles import (
    all_subgroups_bruteforce,
    invariant_partitions_bruteforce,
    minimal_normal_bruteforce,
    primitive_bruteforce,
    section_bruteforce,
    transitive_bruteforce,
    two_transitive_bruteforce,
)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------

def test_a6_transitivity_grades():
    a6 = alternating_group(6)
    assert is_transitive(a6)
    assert is_2transitive(a6)
    assert two_transitive_bruteforce(a6.generators, 6)


def test_s5_on_pairs_not_2transitive():
    g = induced_action_on_pairs(symmetric_group(5))
    assert is_transitive(g)
    assert not is_2transitive(g)
    assert not two_transitive_bruteforce(g.generators, 10)
    # the pair-stabilizer splits the other 9 points into orbits of 3 and 6
    stab = point_stabilizer(g)
    from treelat.permcore import orbit
    sizes = sorted({len(orbit(stab, x)) for x in range(1, 10)})
    assert sizes == [3, 6]


def test_trivial_group_not_transitive():
    assert not is_transitive(trivial_group(3))


def test_transitivity_needs_two_points():
    for check in (is_transitive, is_2transitive):
        with pytest.raises(DegreeTooSmall):
            check(trivial_group(1))


def test_transitivity_matches_oracle(suite):
    for g in suite:
        if g.degree < 2:
            continue
        assert is_transitive(g) == transitive_bruteforce(g.generators, g.degree)
        assert is_2transitive(g) == two_transitive_bruteforce(g.generators, g.degree)


# ---------------------------------------------------------------------------
# block systems / primitivity
# ---------------------------------------------------------------------------

def test_c4_minimal_blocks():
    c4 = cyclic_group(4)
    assert not is_primitive(c4)
    # the oracle finds the one invariant partition that makes it imprimitive
    assert invariant_partitions_bruteforce(c4.generators, 4) == [((0, 2), (1, 3))]
    assert not primitive_bruteforce(c4.generators, 4)


def test_s5_on_pairs_primitive():
    g = induced_action_on_pairs(symmetric_group(5))
    assert is_primitive(g)
    assert primitive_bruteforce(g.generators, 10)


def test_a6_primitive():
    assert is_primitive(alternating_group(6))


def test_primitivity_requires_transitive():
    with pytest.raises(NotTransitive):
        is_primitive(trivial_group(4))


def test_primitivity_matches_oracle(suite):
    # the engine suite and every fast_path_cases group the oracle can
    # afford: it lists all equal-block partitions, so degree <= 12
    for g in fast_path_cases(suite):
        if g.degree < 2 or g.degree > 12 or not is_transitive(g):
            continue
        assert is_primitive(g) == primitive_bruteforce(g.generators, g.degree), g.name


def _smallest_blocks(g):
    """beta -> groupprops._smallest_block(g, G_0, beta) for every beta != 0."""
    stab = point_stabilizer(g)
    return {beta: groupprops._smallest_block(g, stab, beta) for beta in range(1, g.degree)}


def test_every_minimal_system_is_invariant(suite):
    # the smallest block through 0 and beta is the intersection of the
    # blocks through 0 and beta of the invariant partitions the oracle
    # lists, or all points when none puts them together; on the groups of
    # test_primitivity_matches_oracle
    imprimitive = 0
    for g in fast_path_cases(suite):
        if g.degree < 2 or g.degree > 12 or not is_transitive(g):
            continue
        oracle = invariant_partitions_bruteforce(g.generators, g.degree)
        for beta, block in _smallest_blocks(g).items():
            expected = set(range(g.degree))
            for partition in oracle:
                for b in partition:
                    if 0 in b and beta in b:
                        expected &= set(b)
            assert block == expected, (g.name, beta)
        assert is_primitive(g) == (not oracle), g.name
        imprimitive += bool(oracle)
    assert imprimitive == 8


def test_smallest_block_past_the_oracle_degree():
    # C2 wr S8 on 16 points, point 2i+j for (i, j): the pairs {2i, 2i+1}
    # form the only block system, and 0, 2 lie in different pairs
    swap = from_cycles(16, [(0, 1)])
    cycle = from_cycles(16, [tuple(range(0, 16, 2)), tuple(range(1, 16, 2))])
    transposition = from_cycles(16, [(0, 2), (1, 3)])
    g = perm_group([swap, cycle, transposition], name="C2wrS8")
    assert order(g) == 2 ** 8 * 40320
    blocks = _smallest_blocks(g)
    assert blocks[1] == {0, 1}
    assert blocks[2] == set(range(16))
    assert not is_primitive(g)


def test_primitivity_runs_one_block_per_suborbit(monkeypatch):
    calls = []
    smallest_block = groupprops._smallest_block

    def counted(g, stab, beta):
        calls.append(beta)
        return smallest_block(g, stab, beta)

    monkeypatch.setattr(groupprops, "_smallest_block", counted)
    # the stabilizer of 0 in A9 is transitive on the other 8 points
    assert is_primitive(alternating_group(9))
    assert calls == [1]
    calls.clear()
    # S5 on pairs: the pair stabilizer has suborbits of 3 and 6
    assert is_primitive(induced_action_on_pairs(symmetric_group(5)))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# minimal normal subgroups
# ---------------------------------------------------------------------------

def test_mns_s3():
    mns = minimal_normal_subgroups(symmetric_group(3))
    assert [order(m) for m in mns] == [3]


def test_mns_a5():
    mns = minimal_normal_subgroups(alternating_group(5))
    assert [order(m) for m in mns] == [60]


def test_mns_klein_four():
    # all three order-2 subgroups of C2 x C2 are minimal normal
    v4 = perm_group([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
    mns = minimal_normal_subgroups(v4)
    assert [order(m) for m in mns] == [2, 2, 2]
    oracle = minimal_normal_bruteforce(v4.generators, 4)
    assert len(oracle) == 3


def test_mns_too_large():
    with pytest.raises(TooLarge):
        minimal_normal_subgroups(alternating_group(6), enum_cap=100)


def test_residual_proof_over_the_cap_raises(monkeypatch):
    # A7 and S7 are typed by their order alone, so a cap of 10 lists nothing
    listed = []
    elements = StabilizerChain.elements
    monkeypatch.setattr(StabilizerChain, "elements",
                        lambda chain: listed.append(chain) or elements(chain))
    for g in (symmetric_group(7), alternating_group(7)):
        qp, _ = classify_qp_with_mns(g, enum_cap=10)
        assert qp == QpType(ALMOST_SIMPLE, (2520,), 2520)
    assert listed == []
    # the proof for M12 descends through M11 and M10 to A6 on 10 points,
    # whose stabilizer 3^2:4 it must list: 36 elements are over a cap of
    # 35, and the whole group listed in its place would be larger still
    m12 = catalog.load_group("m12")
    with pytest.raises(TooLarge):
        classify_qp_with_mns(m12, enum_cap=35)
    assert classify_qp_with_mns(m12, enum_cap=36)[0] == QpType(ALMOST_SIMPLE, (95040,), 95040)


def test_mns_matches_lattice_oracle(suite):
    from oracles import normal_subgroups_bruteforce, normal_subgroups_via_class_unions
    for g in suite:
        if order(g) > 200:
            continue
        engine = {frozenset(m.chain().elements())
                  for m in minimal_normal_subgroups(g)}
        oracle = {frozenset(n) for n in minimal_normal_bruteforce(g.generators, g.degree)}
        assert engine == oracle, g.name
        # lattice-free second route: class unions closed under multiplication
        try:
            by_unions = normal_subgroups_via_class_unions(g.generators, g.degree)
        except ValueError:
            continue
        assert ({frozenset(n) for n in by_unions}
                == {frozenset(n) for n in normal_subgroups_bruteforce(g.generators, g.degree)}), g.name


# ---------------------------------------------------------------------------
# quasi-primitivity and typing
# ---------------------------------------------------------------------------

def quasiprimitive(g):
    """Quasi-primitivity as the side report states it."""
    return analyze_raw_group(g).quasiprimitive


def test_c4_not_quasiprimitive():
    assert not quasiprimitive(cyclic_group(4))
    assert classify_qp_with_mns(cyclic_group(4))[0].tag == NOT_QUASIPRIMITIVE


def test_s5_on_pairs_quasiprimitive():
    g = induced_action_on_pairs(symmetric_group(5))
    assert quasiprimitive(g)
    qp, _ = classify_qp_with_mns(g)
    assert qp.tag == ALMOST_SIMPLE
    assert qp.mns_orders == (60,)
    assert qp.socle_order == 60


def test_s3_quasiprimitive():
    assert quasiprimitive(symmetric_group(3))


def test_a6_classify():
    qp, _ = classify_qp_with_mns(alternating_group(6))
    assert qp.tag == ALMOST_SIMPLE
    assert qp.mns_orders == (360,)


def test_trivial_on_four_points_intransitive():
    assert classify_qp_with_mns(trivial_group(4))[0].tag == INTRANSITIVE


def test_two_regular_mns_diagonal_type():
    # A5 x A5 acting on A5 by left and right translation: two regular
    # minimal normal subgroups, both of order 60 = degree
    a5 = alternating_group(5)
    elements = sorted(a5.chain().elements())
    index = {e: i for i, e in enumerate(elements)}

    def left(p):
        return tuple(index[tuple(p[x] for x in e)] for e in elements)

    def right(p):
        return tuple(index[tuple(e[x] for x in p)] for e in elements)

    gens = [left(p) for p in a5.generators] + [right(p) for p in a5.generators]
    gg = perm_group(gens, degree=60, name="A5xA5 on A5")
    qp, _ = classify_qp_with_mns(gg)
    assert qp.tag == TWO_REGULAR_MNS
    assert qp.mns_orders == (60, 60)
    assert qp.socle_order == 3600


def test_qp_implication_chain(suite):
    # 2-transitive => primitive => quasi-primitive, on the engine suite and
    # every bundled catalog group
    groups = list(suite) + [catalog.load_group(n)
                            for n in ("a6_natural", "s5_on_pairs", "m12")]
    for g in groups:
        if g.degree < 2 or not is_transitive(g):
            continue
        if is_2transitive(g):
            assert is_primitive(g), g.name
        if is_primitive(g):
            assert quasiprimitive(g), g.name


def test_almost_simple_socle_index_is_degree(suite):
    for g in suite:
        if g.degree < 2 or not is_transitive(g):
            continue
        qp, mns = classify_qp_with_mns(g)
        if qp.tag != ALMOST_SIMPLE:
            continue
        m = mns[0]
        from treelat.permcore import orbit
        assert len(orbit(m, 0)) == g.degree
        cap = order(point_stabilizer(m))
        assert cap < order(m)
        assert order(m) // cap == g.degree


# ---------------------------------------------------------------------------
# almost-simple typing without enumeration
# ---------------------------------------------------------------------------

def matrix_group(p, d, matrices, name, affine=True):
    """The given d x d matrices over F_p, with the translations when affine,
    acting on the vectors of F_p^d; on the nonzero vectors otherwise."""
    vectors = list(itertools.product(range(p), repeat=d))[0 if affine else 1:]
    index = {v: i for i, v in enumerate(vectors)}

    def linear(a):
        return tuple(index[tuple(sum(a[i][j] * v[j] for j in range(d)) % p
                                 for i in range(d))] for v in vectors)

    gens = [linear(a) for a in matrices]
    if affine:
        gens.append(tuple(index[((v[0] + 1) % p,) + v[1:]] for v in vectors))
    return perm_group(gens, degree=len(vectors), name=name)


SL2 = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]


def sl_2_5_on_vectors():
    # perfect, transitive and not simple: -1 is central and swaps v, -v
    return matrix_group(5, 2, SL2, "SL(2,5) on F5^2 - 0", affine=False)


def agl_3_2():
    # two transvections and the cyclic coordinate shift generate GL(3,2)
    return matrix_group(2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                               [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], "AGL(3,2)")


def diagonal_a5_x_a5():
    """A5 x A5 acting on A5 by left and right translation."""
    a5 = alternating_group(5)
    elements = sorted(a5.chain().elements())
    index = {e: i for i, e in enumerate(elements)}
    left = [tuple(index[tuple(p[x] for x in e)] for e in elements) for p in a5.generators]
    right = [tuple(index[tuple(e[x] for x in p)] for e in elements) for p in a5.generators]
    return perm_group(left + right, degree=60, name="A5xA5 on A5")


def fast_path_cases(suite):
    groups = list(suite)
    for n in range(3, 9):
        for g in (alternating_group(n), symmetric_group(n)):
            groups += [g, induced_action_on_pairs(g)]
    groups += [matrix_group(p, 1, [[[r]]], f"AGL(1,{p})")
               for p, r in ((5, 2), (7, 3), (11, 2), (13, 2))]
    groups += [matrix_group(3, 2, SL2, "ASL(2,3)"), agl_3_2(), sl_2_5_on_vectors(),
               diagonal_a5_x_a5()]
    return groups


def by_enumeration(monkeypatch, g):
    """classify_qp_with_mns with the fast path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(groupprops, "_simple_residual", lambda g, enum_cap: None)
        return classify_qp_with_mns(g)


def test_fast_path_matches_enumeration(suite, monkeypatch):
    proved = set()
    for g in fast_path_cases(suite):
        qp, mns = classify_qp_with_mns(g)
        enum_qp, enum_mns = by_enumeration(monkeypatch, g)
        assert qp == enum_qp, g.name
        if order(g) <= 2000:
            assert ([frozenset(m.chain().elements()) for m in mns]
                    == [frozenset(m.chain().elements()) for m in enum_mns]), g.name
        if groupprops._simple_residual(g, 10 ** 6) is not None:
            proved.add(g.name)
    # natural A_n, S_n and their actions on pairs are typed by the fast path
    expected = {f"{x}{n}{on}" for x in "AS" for n in range(5, 9) for on in ("", "_on_pairs")}
    assert expected <= proved


def test_agl_3_2_falls_back():
    # perfect and primitive, but |GL(3,2)| = |H| = 168, so condition (d)
    # cannot exclude a regular normal subgroup: the translations are one
    g = agl_3_2()
    assert order(g) == 1344
    assert groupprops._simple_residual(g, 10 ** 6) is None
    qp, mns = classify_qp_with_mns(g)
    assert qp.tag == OTHER_QUASIPRIMITIVE
    assert qp.mns_orders == (8,)


def test_imprimitive_perfect_group_falls_back():
    # conditions (b)-(d) hold, and only primitivity excludes the centre
    g = sl_2_5_on_vectors()
    assert order(g) == 120
    assert groupprops._simple_residual(g, 10 ** 6) is None
    qp, _ = classify_qp_with_mns(g)
    assert qp.tag == NOT_QUASIPRIMITIVE
    assert qp.mns_orders == (2,)


def projective_line(p, k, name):
    """<x -> x + 1, x -> kx, x -> -1/x> on the projective line 0..p-1,
    p = infinity: PGL(2,p) for a non-square k, PSL(2,p) when k generates
    the non-zero squares."""
    def moebius(a, b, c, d):
        def image(x):
            num, den = (a, c) if x == p else ((a * x + b) % p, (c * x + d) % p)
            return p if den == 0 else num * pow(den, -1, p) % p
        return tuple(image(x) for x in range(p + 1))

    return perm_group([moebius(1, 1, 0, 1), moebius(k, 0, 0, 1), moebius(0, p - 1, 1, 0)],
                      degree=p + 1, name=name)


def pgl_2_7():
    # 3 is no square mod 7
    return projective_line(7, 3, "PGL(2,7)")


def s5_wr_s2_product_action():
    """S5 wr S2 on the 25 pairs (i, j), as 5i + j."""
    rows = [tuple(5 * p[i] + j for i in range(5) for j in range(5))
            for p in symmetric_group(5).generators]
    swap = tuple(5 * j + i for i in range(5) for j in range(5))
    return perm_group(rows + [swap], degree=25, name="S5 wr S2 on 25 points")


@pytest.mark.parametrize("make, expected", [
    (lambda: cyclic_group(5), QpType(OTHER_QUASIPRIMITIVE, (5,), 5)),
    (lambda: symmetric_group(3), QpType(OTHER_QUASIPRIMITIVE, (3,), 3)),
    (lambda: alternating_group(4), QpType(OTHER_QUASIPRIMITIVE, (4,), 4)),
    (lambda: matrix_group(5, 1, [[[2]]], "AGL(1,5)"), QpType(OTHER_QUASIPRIMITIVE, (5,), 5)),
    (pgl_2_7, QpType(ALMOST_SIMPLE, (168,), 168)),
    (s5_wr_s2_product_action, QpType(OTHER_QUASIPRIMITIVE, (3600,), 3600)),
], ids=["C5", "S3", "A4", "AGL(1,5)", "PGL(2,7)", "S5wrS2"])
def test_listed_socle_typing(make, expected):
    # the residual proof does not apply, so the one minimal normal subgroup
    # is listed.  It is abelian; or PSL(2,7), simple and of index 2 (degree
    # 8 = 2^3 and |H| = 21 divides |GL(3,2)|, so condition (d) fails); or
    # A5 x A5, transitive and nonabelian but not simple, whose two factors
    # are its minimal normal subgroups (A5 x A5 keeps the rows of the 5 x 5
    # grid as blocks, so it is not primitive)
    g = make()
    assert groupprops._simple_residual(g, 10 ** 6) is None
    assert classify_qp_with_mns(g)[0] == expected


@pytest.mark.parametrize("g, socle", [(alternating_group(10), 1814400),
                                      (alternating_group(11), 19958400),
                                      (symmetric_group(12), 239500800)])
def test_large_natural_groups_typed_under_small_cap(g, socle):
    # nothing of more than 1000 elements is listed
    qp, mns = classify_qp_with_mns(g, enum_cap=1000)
    assert qp.tag == ALMOST_SIMPLE
    assert qp.mns_orders == (socle,)
    assert qp.socle_order == socle
    socle_type, _ = classify_qp_with_mns(mns[0], enum_cap=1000)
    assert socle_type == QpType(ALMOST_SIMPLE, (socle,), socle)


# ---------------------------------------------------------------------------
# the stabilizer relabelled onto its support, and the shortcuts it allows
# ---------------------------------------------------------------------------

def transport_cases(suite):
    """The engine suite and A_n, S_n for n <= 12."""
    return list(suite) + [make(n) for n in range(3, 13)
                          for make in (alternating_group, symmetric_group)]


def test_transported_chain_matches_a_fresh_chain(suite):
    rng = random.Random(5)
    transported = 0
    for g in transport_cases(suite):
        h = point_stabilizer(g)
        if order(h) == 1:
            continue
        support, t = groupprops._on_support(h)
        assert t.bsgs is not None, g.name
        transported += 1
        fresh = StabilizerChain(t.degree, t.generators)
        assert t.chain().order() == fresh.order() == order(h), g.name
        members = [fresh.random_element(rng) for _ in range(20)]
        assert all(map(t.chain().contains, members)), g.name
        # uniform permutations of the support: every odd one is outside an
        # alternating stabilizer, and most are outside any small one
        others = [tuple(rng.sample(range(t.degree), t.degree)) for _ in range(40)]
        assert ([t.chain().contains(p) for p in others]
                == [fresh.contains(p) for p in others]), g.name
        if g.name and g.name[0] == "A" and g.name[1:].isdigit():
            # the stabilizer A_{n-1} holds no transposition
            assert not t.chain().contains(from_cycles(t.degree, [(0, 1)])), g.name
    assert transported >= 40


def test_transport_budget_falls_back_to_a_built_chain(suite, monkeypatch):
    groups = fast_path_cases(suite)
    expected = [classify_qp_with_mns(g)[0] for g in groups]
    monkeypatch.setattr(groupprops, "_TRANSPORT_DRAWS", 0)
    support, t = groupprops._on_support(point_stabilizer(alternating_group(7)))
    assert support == [1, 2, 3, 4, 5, 6]
    assert t.bsgs is None
    assert order(t) == 360
    assert [classify_qp_with_mns(g)[0] for g in groups] == expected


def side_report(g):
    """analyze_raw_group's report, with the two groups it keeps replaced
    by their orders, which the dataclass would compare by identity."""
    r = analyze_raw_group(g)
    return replace(r, m_group=r.m_group and order(r.m_group),
                   s_group=r.s_group and order(r.s_group)), r


def test_shortcuts_match_the_long_path(suite, monkeypatch):
    groups = fast_path_cases(suite) + [catalog.load_group(e.name) for e in catalog.entries()
                                       if e.kind == catalog.RAW_GROUP]
    short = [side_report(g) for g in groups]
    minimal_normal_of_stabilizer = groupprops._minimal_normal_of_stabilizer

    def copies(h, enum_cap):
        # new objects, so that condition (c) takes the closure of each
        return [PermGroup(degree=k.degree, generators=k.generators)
                for k in minimal_normal_of_stabilizer(h, enum_cap)]

    monkeypatch.setattr(groupprops, "_minimal_normal_of_stabilizer", copies)
    whole = proper = 0
    for g, (report, full) in zip(groups, short):
        assert side_report(g)[0] == report, g.name
        if full.m_order and groupprops.is_prime_power(full.p1_order // full.m_order):
            # the check a whole socle or a prime-power index skips agrees with it
            assert solvable_outer_check(g, full.m_group) is True
            assert report.solvable_outer is True
            whole += full.m_order == full.p1_order
            proper += full.m_order != full.p1_order
    assert whole >= 10 and proper >= 1


def count_typing_work(monkeypatch):
    """Lists that gain, during analyze_raw_group, the order of the group of
    each closure that groupprops takes, of each stabilizer relabelled onto
    its support, of each derived subgroup and of each group whose outer
    quotient solvable_outer_check decides."""
    work = {"closures": [], "transports": [], "derived": [], "outer_checks": []}
    normal_closure, on_support = groupprops.normal_closure, groupprops._on_support
    derived_subgroup = permcore.derived_subgroup
    monkeypatch.setattr(groupprops, "normal_closure", lambda g, seeds: (
        work["closures"].append(order(g)) or normal_closure(g, seeds)))
    monkeypatch.setattr(groupprops, "_on_support", lambda h: (
        work["transports"].append(order(h)) or on_support(h)))
    for module in (permcore, groupprops):
        monkeypatch.setattr(module, "derived_subgroup", lambda g: (
            work["derived"].append(order(g)) or derived_subgroup(g)))
    monkeypatch.setattr(pipeline, "solvable_outer_check", lambda p, m: (
        work["outer_checks"].append(order(p)) or solvable_outer_check(p, m)))
    return work


def test_simple_stabilizers_take_no_closure(monkeypatch):
    work = count_typing_work(monkeypatch)
    report = analyze_raw_group(catalog.load_group("m12"))
    assert report.qp_type.tag == ALMOST_SIMPLE and report.solvable_outer
    # M11 is proved simple, so D = M12 takes no closure.  M10's socle A6
    # (on 10 points) is proper, so D = M11 closes it.  A6's stabilizer
    # 3^2:4 is listed: one closure in it per class other than the
    # identity's, and condition (c) for D = A6 closes the one it finds, 3^2
    assert work["closures"] == [36, 36, 36, 36, 36, 360, 7920]
    assert work["transports"] == [7920, 720, 36]
    # M12, M11 and A6 are perfect, M10 and 3^2:4 are not
    assert work["derived"] == [95040, 7920, 720, 360, 36, 9]
    assert work["outer_checks"] == []


@pytest.mark.parametrize("g, derived", [(alternating_group(9), []),
                                        (symmetric_group(9), [362880])],
                         ids=["A9", "S9"])
def test_giants_take_no_descent(monkeypatch, g, derived):
    # A9 is its own socle; S9's is its derived subgroup, and its outer
    # quotient has order 2, a prime power
    work = count_typing_work(monkeypatch)
    report = analyze_raw_group(g)
    assert report.qp_type == QpType(ALMOST_SIMPLE, (181440,), 181440)
    assert report.solvable_outer
    assert work == {"closures": [], "transports": [], "derived": derived, "outer_checks": []}


def giant_cases():
    """A_n and S_n for n = 5..12, and a seeded random conjugate of each."""
    rng = random.Random(33)
    groups = []
    for n in range(5, 13):
        for make in (alternating_group, symmetric_group):
            g = make(n)
            x = tuple(rng.sample(range(n), n))
            conjugates = [compose(inverse(x), compose(s, x)) for s in g.generators]
            groups += [g, perm_group(conjugates, degree=n, name=f"{g.name}^x")]
    return groups


def giant_look_alikes():
    """Groups whose order is n! or n!/2 for some n, or that are A_n or S_n
    in another action: none is A_n or S_n on the points it moves."""
    m12 = catalog.load_group("m12")
    m11 = point_stabilizer(m12)
    return [projective_line(5, 2, "PGL(2,5)"), projective_line(5, 4, "A5 on 6 points"),
            induced_action_on_pairs(symmetric_group(5)),
            matrix_group(2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], "PSL(2,7) on 7 points",
                         affine=False),
            groupprops._on_support(m11)[1], m12]


def test_giant_certificate_matches_the_long_path(monkeypatch):
    groups = giant_cases()
    for g in groups:
        residual = groupprops._giant_residual(g)
        half = math.factorial(g.degree) // 2
        assert order(residual) == half, g.name
        assert (residual is g) == (order(g) == half), g.name
    short = [side_report(g)[0] for g in groups]
    monkeypatch.setattr(groupprops, "_giant_residual", lambda g: None)
    assert [side_report(g)[0] for g in groups] == short


def test_giant_certificate_ignores_look_alikes(monkeypatch):
    groups = giant_look_alikes()
    assert [order(g) for g in groups] == [120, 60, 120, 168, 7920, 95040]
    asked, fired = [], []
    giant_residual = groupprops._giant_residual

    def spy(g):
        asked.append((order(g), g.degree))
        fired.append(giant_residual(g))
        return fired[-1]

    monkeypatch.setattr(groupprops, "_giant_residual", spy)
    reports = [side_report(g)[0] for g in groups]
    # the certificate is asked on every group and on every stabilizer the
    # descent relabels onto its support, and fires on none
    assert asked == [(120, 6), (10, 5), (60, 6), (10, 5), (120, 10), (168, 7), (24, 6),
                     (7920, 11), (720, 10), (36, 9),
                     (95040, 12), (7920, 11), (720, 10), (36, 9)]
    assert fired == [None] * len(asked)
    assert all(r.qp_type.tag == ALMOST_SIMPLE for r in reports)
    monkeypatch.setattr(groupprops, "_giant_residual", lambda g: None)
    assert [side_report(g)[0] for g in groups] == reports


@pytest.mark.parametrize("g", [alternating_group(4), symmetric_group(4)], ids=["A4", "S4"])
def test_giants_below_five_points_are_not_almost_simple(g):
    assert groupprops._giant_residual(g) is None
    assert classify_qp_with_mns(g)[0] == QpType(OTHER_QUASIPRIMITIVE, (4,), 4)
    assert analyze_raw_group(g).solvable_outer is None


def test_primitive_agrees_with_is_primitive(suite):
    # the report reads 2-transitivity as primitivity without asking
    # is_primitive
    two_transitive = 0
    for g in suite:
        report = analyze_raw_group(g)
        assert report.primitive == (report.transitive and is_primitive(g)), g.name
        two_transitive += report.two_transitive
    assert two_transitive >= 5


# ---------------------------------------------------------------------------
# section tests
# ---------------------------------------------------------------------------

def test_section_necessary_order_fails():
    # |m| = 60 does not divide |s| = 12
    a5 = alternating_group(5)
    s2 = point_stabilizer(induced_action_on_pairs(symmetric_group(5)))
    rep = section_necessary(a5, s2)
    assert not rep.order_divides
    assert rep.exact == NO
    assert rep.witness is not None


def test_section_necessary_a5_in_s5():
    rep = section_necessary(alternating_group(5), symmetric_group(5))
    assert rep.order_divides and rep.prime_spectrum_ok and rep.element_order_spectrum_ok
    assert rep.exact == UNKNOWN


def _abelian_order_360() -> PermGroup:
    """C2^3 x C3^2 x C5: the order of A6, but exponent 30."""
    supports = [(0, 1), (2, 3), (4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14, 15, 16)]
    return perm_group([from_cycles(17, [c]) for c in supports], degree=17)


def test_section_necessary_spectrum_fails_with_witness():
    rep = section_necessary(alternating_group(6), _abelian_order_360())
    assert rep.order_divides and rep.prime_spectrum_ok
    assert not rep.element_order_spectrum_ok
    assert rep.exact == NO
    assert rep.witness == "element orders [4] of m divide no element order of s"


@pytest.mark.parametrize("m_name,s_name", [("A5", "S5"), ("A5", "A6"), ("A5", "C360"),
                                           ("A6", "S6"), ("A6", "M11"), ("A6", "C360")])
def test_section_necessary_spectrum_flag_matches_full_spectra(m_name, s_name):
    # the scan of s stops once every element order of m divides one seen;
    # flag and witness must be those the two full spectra give
    groups = {"A5": lambda: alternating_group(5), "A6": lambda: alternating_group(6),
              "S5": lambda: symmetric_group(5), "S6": lambda: symmetric_group(6),
              "M11": lambda: point_stabilizer(catalog.load_group("m12")),
              "C360": _abelian_order_360}
    m, s = groups[m_name](), groups[s_name]()
    rep = section_necessary(m, s, enum_cap=10_000)
    spec_s = element_order_spectrum(s, enum_cap=10_000)
    missing = sorted(o for o in element_order_spectrum(m)
                     if not any(o2 % o == 0 for o2 in spec_s))
    assert rep.order_divides and rep.prime_spectrum_ok
    assert rep.element_order_spectrum_ok == (not missing)
    assert rep.exact == (NO if missing else UNKNOWN)
    if missing:
        assert rep.witness == (f"element orders {missing} of m divide no element "
                               "order of s")


def test_section_necessary_c2_in_s3():
    c2 = perm_group([from_cycles(3, [(0, 1)])], degree=3)
    rep = section_necessary(c2, symmetric_group(3))
    assert rep.order_divides and rep.prime_spectrum_ok and rep.element_order_spectrum_ok


def test_section_exact_a5_in_s5():
    assert section_exact_small(alternating_group(5), symmetric_group(5)) == YES


def test_section_exact_a5_in_s4():
    assert section_exact_small(alternating_group(5), symmetric_group(4)) == NO


def test_section_exact_overflow_unknown():
    # stabilizer of a point in M12 has order 7920 > default cap 2000
    from treelat.catalog import mathieu_group_12
    s = point_stabilizer(mathieu_group_12())
    assert order(s) == 7920
    assert section_exact_small(alternating_group(5), s) == UNKNOWN


def test_section_exact_requires_a_simple_nontrivial_m():
    s6 = symmetric_group(6)
    for m in (symmetric_group(4), trivial_group(6), cyclic_group(4), symmetric_group(5)):
        with pytest.raises(PreconditionFailed):
            section_exact_small(m, s6)
    # a cyclic group of prime order is simple, and 5 divides |S6|
    assert section_exact_small(cyclic_group(5), s6) == YES


def test_section_exact_takes_a_perfect_m_that_is_not_simple():
    # SL(2,5) is perfect with centre ±1; S5 has no perfect subgroup of
    # order 120, so SL(2,5) is no section of it
    sl25 = sl_2_5_on_vectors()
    assert section_exact_small(sl25, sl25) == YES
    assert section_exact_small(sl25, symmetric_group(5)) == NO


def test_section_exact_c2_in_s3():
    c2 = perm_group([from_cycles(3, [(0, 1)])], degree=3)
    assert section_exact_small(c2, symmetric_group(3)) == YES


def test_section_exact_a5_in_a5():
    assert section_exact_small(alternating_group(5), alternating_group(5)) == YES


def test_section_exact_a6_not_in_s5():
    # |A6| = 360 divides |S5|! = no: 360 | 120 fails
    assert section_exact_small(alternating_group(6), symmetric_group(5)) == NO


def test_section_exact_known_facts_psl27():
    psl27 = perm_group([from_cycles(8, [(0, 1, 2, 3, 4, 5, 6)]),
                        from_cycles(8, [(0, 7), (1, 6), (2, 3), (4, 5)])])
    assert order(psl27) == 168
    # A5 needs the prime 5, which 168 lacks
    assert section_exact_small(alternating_group(5), psl27) == NO
    # Sylow subgroups are sections
    c7 = perm_group([from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])])
    assert section_exact_small(c7, psl27) == YES
    c5 = perm_group([from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert section_exact_small(c5, psl27) == NO


def test_section_exact_a5_in_a6():
    assert section_exact_small(alternating_group(5), alternating_group(6)) == YES


def test_section_exact_consistent_with_necessary():
    # exact=yes must mean every necessary flag passes
    cases = [
        (alternating_group(5), symmetric_group(5)),
        (perm_group([from_cycles(3, [(0, 1)])], degree=3), symmetric_group(3)),
        (cyclic_group(3), alternating_group(4)),
    ]
    for m, s in cases:
        if section_exact_small(m, s) == YES:
            rep = section_necessary(m, s)
            assert rep.order_divides and rep.prime_spectrum_ok
            assert rep.element_order_spectrum_ok


def _f20_x_s4():
    """AGL(1,5) on points 0..4 times S4 on points 5..8: order 480."""
    c = from_cycles
    return perm_group([c(9, [(0, 1, 2, 3, 4)]), c(9, [(1, 2, 4, 3)]),
                       c(9, [(5, 6, 7, 8)]), c(9, [(5, 6)])], name="F20xS4")


def _necessary_flags_pass_but_no():
    """Groups where A5 passes every necessary flag and is not a section."""
    c = from_cycles
    return [
        perm_group([c(9, [(0, 1, 2)]), c(9, [(0, 1), (2, 3)]),
                    c(9, [(4, 5, 6, 7, 8)])], name="A4xC5"),
        perm_group([c(12, [(0, 1, 2)]), c(12, [(3, 4, 5, 6)]),
                    c(12, [(7, 8, 9, 10, 11)])], name="C3xC4xC5"),
        _f20_x_s4(),
    ]


def test_all_subgroups_oracle_known_counts():
    psl27 = perm_group([from_cycles(8, [(0, 1, 2, 3, 4, 5, 6)]),
                        from_cycles(8, [(0, 7), (1, 6), (2, 3), (4, 5)])])
    for g, count in ((symmetric_group(4), 30), (alternating_group(5), 59),
                     (symmetric_group(5), 156), (psl27, 179)):
        assert len(all_subgroups_bruteforce(g.generators, g.degree)) == count


def test_section_exact_matches_bruteforce(suite):
    ms = [cyclic_group(2), cyclic_group(3), cyclic_group(5), alternating_group(5)]
    small = [g for g in suite if order(g) <= 200]
    for s in small:
        for m in ms:
            oracle = section_bruteforce(m.generators, s.generators, s.degree)
            assert section_exact_small(m, s) == (YES if oracle else NO), (m.name, s.name)
    a5 = alternating_group(5)
    for s in _necessary_flags_pass_but_no():
        assert section_necessary(a5, s).exact == UNKNOWN, s.name
        assert not section_bruteforce(a5.generators, s.generators, s.degree), s.name
        assert section_exact_small(a5, s) == NO, s.name


def _drawn_phase(m, s):
    """Whether a tuple of section_exact_small's drawn phase in s passes the
    tuple test, with m's generators and draws seeded as there."""
    om, rng = order(m), random.Random(permcore.DRAW_SEED)
    gens = groupprops._two_generators(m, om, rng)
    words = groupprops._word_orders(gens[0], gens[1])
    return any(groupprops._maps_onto(xs, gens, words, om)
               for xs in groupprops._drawn_tuples(s, gens, rng))


def _listed_phase(m, p):
    """Whether a tuple of section_exact_small's listed phase in p passes
    the tuple test, with m's generators as there."""
    om = order(m)
    gens = groupprops._two_generators(m, om, random.Random(permcore.DRAW_SEED))
    words = groupprops._word_orders(gens[0], gens[1])
    return any(groupprops._maps_onto(xs, gens, words, om)
               for xs in groupprops._listed_tuples(p, gens))


def test_section_exact_tries_the_embedding_first(monkeypatch):
    # the drawn phase answers before the listed phase is reached
    def refuse(p, gens):
        raise AssertionError("the listed phase ran")

    monkeypatch.setattr(groupprops, "_listed_tuples", refuse)
    assert section_exact_small(alternating_group(5), alternating_group(6)) == YES


def _s5_socle():
    # a normal closure, with three generators
    socle = classify_qp_with_mns(symmetric_group(5))[1][0]
    assert len(socle.generators) > 2 and order(socle) == 60
    return socle


def test_embedding_fires_only_where_the_oracle_says_yes(suite):
    fired = []
    for s in [g for g in suite if order(g) <= 200]:
        for m in (alternating_group(5), _s5_socle()):
            if _drawn_phase(m, s):
                assert section_bruteforce(m.generators, s.generators, s.degree), s.name
                fired.append(s.name)
    assert {"S5", "A5"} <= set(fired)


@pytest.mark.parametrize("m,s", [
    (alternating_group(5), alternating_group(6)),
    (_s5_socle(), point_stabilizer(symmetric_group(7))),
    (alternating_group(6), symmetric_group(7)),
    (alternating_group(7), alternating_group(8)),
    (alternating_group(6), point_stabilizer(catalog.load_group("m12")))])
def test_embedding_certifies_subgroups(m, s):
    assert _drawn_phase(m, s)


def test_sl_2_5_has_a5_as_a_quotient_not_a_subgroup():
    # no subgroup of SL(2,5) is A5, yet a drawn pair maps onto A5
    a5, s = alternating_group(5), sl_2_5_on_vectors()
    assert order(s) == 120
    assert section_bruteforce(a5.generators, s.generators, s.degree)
    assert _drawn_phase(a5, s)
    assert section_exact_small(a5, s) == YES


def test_drawn_phase_certifies_a_quotient_without_listing(monkeypatch):
    # A5 in SL(2,5) is answered by a drawn pair: neither s nor its derived
    # series is listed or taken
    def refuse(*args):
        raise AssertionError("listed or derived")

    s = sl_2_5_on_vectors()
    monkeypatch.setattr(StabilizerChain, "elements", refuse)
    monkeypatch.setattr(groupprops, "derived_series", refuse)
    assert section_exact_small(alternating_group(5), s) == YES


def test_embedding_needs_the_image_as_large_as_m(monkeypatch):
    # with the word filter off, pairs of A5 reach the order checks for
    # m = SL(2,5); |<x_i>| <= 60 is no multiple of |m| = 120, which refuses
    # every one of them before its graph is closed
    def refuse(xs, ys):
        raise AssertionError("a graph was closed")

    monkeypatch.setattr(groupprops, "_word_orders", lambda a, b: (1,))
    monkeypatch.setattr(groupprops, "_graph_order", refuse)
    assert not _drawn_phase(sl_2_5_on_vectors(), alternating_group(5))


@pytest.mark.parametrize("embeds", [True, False])
def test_section_exact_falls_back_to_the_generators_of_m(monkeypatch, embeds):
    # with no random pairs drawn, _two_generators falls back to m's own
    # three generators
    monkeypatch.setattr(groupprops, "_GENERATOR_PAIRS", 0)
    if not embeds:
        monkeypatch.setattr(groupprops, "_TUPLE_DRAWS", 0)
    a5 = perm_group([from_cycles(5, [c]) for c in ((0, 1, 2), (1, 2, 3), (2, 3, 4))],
                    degree=5)
    assert order(a5) == 60
    for s in (alternating_group(5), alternating_group(6)):
        assert section_bruteforce(a5.generators, s.generators, s.degree)
        assert section_exact_small(a5, s) == YES, s.name


def test_quotient_search_matches_bruteforce(suite, monkeypatch):
    # with the drawn phase off, the derived-series test and the listed
    # phase alone decide; the socle of S5 is A5 on three generators, which
    # the oracle, reading only the order and element orders of m, cannot
    # tell from A5
    monkeypatch.setattr(groupprops, "_TUPLE_DRAWS", 0)
    a5, socle = alternating_group(5), _s5_socle()
    cases = ([g for g in suite if order(g) <= 200] + [sl_2_5_on_vectors()]
             + _necessary_flags_pass_but_no())
    answers = []
    for s in cases:
        oracle = YES if section_bruteforce(a5.generators, s.generators, s.degree) else NO
        for m in (a5, socle):
            assert section_exact_small(m, s) == oracle, (m.name, s.name)
            answers.append(oracle)
    assert len(answers) == 54 and answers.count(YES) == 12


def psl_2_7():
    return perm_group([from_cycles(8, [(0, 1, 2, 3, 4, 5, 6)]),
                       from_cycles(8, [(0, 7), (1, 6), (2, 3), (4, 5)])], name="PSL(2,7)")


def test_quotient_that_is_no_subgroup():
    # -1 is the only involution of SL(2,7), so PSL(2,7) is no subgroup of
    # it, only its quotient by the centre; no drawn pair finds it, and the
    # listed phase answers
    psl27 = psl_2_7()
    sl27 = matrix_group(7, 2, SL2, "SL(2,7) on F7^2 - 0", affine=False)
    assert (order(sl27), sl27.degree) == (336, 48)
    assert not _drawn_phase(psl27, sl27)
    assert section_exact_small(psl27, sl27) == YES


def psl_2_8_on_the_projective_line():
    """x ↦ x + 1, x ↦ αx and x ↦ 1/x on F8 ∪ {∞}, with F8 = F2[α]/(α³ + α + 1)
    and field elements as bit masks; ∞ is point 8."""
    def mul(a, b):
        product = 0
        while b:
            if b & 1:
                product ^= a
            b >>= 1
            a <<= 1
            if a & 8:
                a ^= 0b1011
        return product

    inv = {a: next(b for b in range(1, 8) if mul(a, b) == 1) for a in range(1, 8)}
    return perm_group([tuple(x ^ 1 for x in range(8)) + (8,),
                       tuple(mul(2, x) for x in range(8)) + (8,),
                       (8,) + tuple(inv[x] for x in range(1, 8)) + (0,)],
                      degree=9, name="PSL(2,8)")


def test_quotient_search_refutes():
    # PSL(2,8) is perfect and 168 divides its order 504, so only the
    # exhaustive search can answer that PSL(2,7) is no section of it
    psl27 = psl_2_7()
    s = psl_2_8_on_the_projective_line()
    assert order(s) == 504
    assert not section_bruteforce(psl27.generators, s.generators, s.degree)
    assert section_exact_small(psl27, s) == NO


def test_quotient_search_lists_p_once(monkeypatch):
    # the class representatives of p and the range of x_2 come from one
    # listing of p's elements
    listed = []
    elements = StabilizerChain.elements

    def recorded(chain):
        result = elements(chain)
        listed.append(len(result))
        return result

    monkeypatch.setattr(StabilizerChain, "elements", recorded)
    s = psl_2_8_on_the_projective_line()
    assert not _listed_phase(psl_2_7(), s)
    assert listed == [504]


def test_quotient_search_needs_the_order_of_the_closure(monkeypatch):
    # S4 x C15 is solvable, so A5 is no section of it; yet some pairs in it
    # pass every element and word order filter and generate a group whose
    # order 60 divides, and only |D| > |<x_i>| turns them away.  The listed
    # phase is run directly, as section_exact_small stops at the trivial
    # last term of the derived series
    closures = []
    init = StabilizerChain.__init__

    def recorded(chain, degree, generators, block=1):
        if degree == 12 + 5:
            closures.append(degree)
        init(chain, degree, generators, block)

    c = from_cycles
    s = perm_group([c(12, [(0, 1, 2, 3)]), c(12, [(0, 1)]),
                    c(12, [(4, 5, 6, 7, 8)]), c(12, [(9, 10, 11)])], name="S4xC15")
    s.chain()
    monkeypatch.setattr(StabilizerChain, "__init__", recorded)
    assert not _listed_phase(alternating_group(5), s)
    assert closures


def test_section_exact_decides_at_or_below_the_cap(suite):
    # the simple groups: those of prime order, and those almost simple
    # with the whole group as socle
    ms = [g for g in suite if groupprops._prime_factors(order(g)) == {order(g)}
          or classify_qp_with_mns(g)[0] == QpType(ALMOST_SIMPLE, (order(g),), order(g))]
    assert {order(m) for m in ms
            if len(groupprops._prime_factors(order(m))) > 1} == {60, 168, 360}
    for s in suite:
        if order(s) <= groupprops.DEFAULT_SECTION_CAP:
            for m in ms:
                assert section_exact_small(m, s) in (YES, NO), (m.name, s.name)


def test_quotient_search_memory(monkeypatch):
    # the listed phase holds the element list of s and two chains at a time
    monkeypatch.setattr(groupprops, "_TUPLE_DRAWS", 0)
    m, s = alternating_group(5), diagonal_a5_x_a5()
    s.chain()
    tracemalloc.start()
    try:
        assert section_exact_small(m, s, cap=4000) == YES
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_failed_embedding_search_stops_within_its_budget(monkeypatch, chain_builds):
    draws = []
    random_element = StabilizerChain.random_element

    def counted(chain, rng):
        draws.append(chain)
        return random_element(chain, rng)

    monkeypatch.setattr(StabilizerChain, "random_element", counted)
    a5 = alternating_group(5)
    a5.chain()
    for s in _necessary_flags_pass_but_no():
        s.chain()
        draws.clear()
        chain_builds.clear()
        assert not _drawn_phase(a5, s), s.name
        # A5's two generators need no draws of A5 itself
        assert draws == [s.chain()] * groupprops._TUPLE_DRAWS, s.name
        # the word orders turn every tuple away before a closure is built
        assert chain_builds == [], s.name


def test_embedding_needs_the_order_of_the_closure(monkeypatch):
    # without the word filter, tuples of the right element orders reach
    # the closures, and only |D| = |<x_i>| tells a map onto m apart
    monkeypatch.setattr(groupprops, "_word_orders", lambda a, b: ())
    a5 = alternating_group(5)
    for s in _necessary_flags_pass_but_no():
        assert not _drawn_phase(a5, s), s.name
    assert _drawn_phase(a5, alternating_group(6))
    # SL(2,5) maps onto A5 with kernel ±1
    assert _drawn_phase(a5, sl_2_5_on_vectors())


def test_section_necessary_lists_s_only_for_a_missing_order(monkeypatch):
    listed = []
    elements = StabilizerChain.elements

    def counted(chain):
        out = elements(chain)
        listed.append(len(out))
        return out

    monkeypatch.setattr(StabilizerChain, "elements", counted)
    m11 = point_stabilizer(catalog.load_group("m12"))
    # the draws from M11 find every order of A6; only A6 itself is listed
    assert section_necessary(alternating_group(6), m11, enum_cap=10_000).exact == UNKNOWN
    assert listed == [360]
    listed.clear()
    # no element of C360 has order 4, so its whole spectrum is read
    assert section_necessary(alternating_group(6), _abelian_order_360()).exact == NO
    assert listed == [360, 360]
    # the cap on |s| holds whether or not s is listed
    with pytest.raises(TooLarge):
        section_necessary(alternating_group(5), m11, enum_cap=1000)


def test_element_order_spectrum():
    assert element_order_spectrum(symmetric_group(4)) == {1, 2, 3, 4}
    assert element_order_spectrum(alternating_group(5)) == {1, 2, 3, 5}


# ---------------------------------------------------------------------------
# solvable outer quotient
# ---------------------------------------------------------------------------

def test_solvable_outer_s5_on_pairs():
    g = induced_action_on_pairs(symmetric_group(5))
    m = minimal_normal_subgroups(g)[0]
    assert solvable_outer_check(g, m)


def test_solvable_outer_group_by_itself():
    a6 = alternating_group(6)
    assert solvable_outer_check(a6, a6)
    a5 = alternating_group(5)
    assert solvable_outer_check(a5, a5)


def test_solvable_outer_fails_when_the_stabilizer_quotient_is_a5():
    # A5 x A5 on the 60 elements of A5 by y -> x.y.z^-1, with M the left
    # factor: S, the stabilizer of a point, is a diagonal A5, M acts
    # regularly so M∩S is trivial, and S/(S∩M) ≅ A5 is not solvable
    a5 = alternating_group(5)
    elements = a5.chain().elements()
    index = {y: i for i, y in enumerate(elements)}
    left = [tuple(index[compose(x, y)] for y in elements) for x in a5.generators]
    right = [tuple(index[compose(y, inverse(z))] for y in elements)
             for z in a5.generators]
    p = perm_group(left + right, degree=60)
    m = perm_group(left, degree=60)
    assert order(p) == 3600
    assert not solvable_outer_check(p, m)


def test_solvable_outer_not_normal():
    s4 = symmetric_group(4)
    not_normal = perm_group([from_cycles(4, [(0, 1)])], degree=4)
    with pytest.raises(NotNormal):
        solvable_outer_check(s4, not_normal)


def test_solvable_outer_not_transitive():
    # <(0 1)> on four points is normal in itself and leaves 2 and 3 fixed
    c2 = perm_group([from_cycles(4, [(0, 1)])], degree=4)
    with pytest.raises(NotTransitive):
        solvable_outer_check(c2, c2)
