"""Bundled catalog: example inputs, their provenance, and golden summaries.

Each datum and raw-group entry has its own builder, which builds the
entry's document on every load (the Mathieu group's order, for instance, is
recomputed by the BSGS engine at test time).  A pair entry names two
bundled raw groups and has no document of its own.  The tool ships nothing
it cannot verify and fabricates nothing: square tables published elsewhere
in the literature are not reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import UnknownEntry
from .permcore import (
    PermGroup,
    alternating_group,
    from_cycles,
    group_from_raw,
    group_to_raw,
    induced_action_on_pairs,
    perm_group,
    symmetric_group,
)
from .vhcomplex import VhDatum, commuting_datum, serialize_datum

DATUM = "datum"
RAW_GROUP = "raw_group"
RAW_GROUP_PAIR = "raw_group_pair"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    source: str
    description: str
    expected: Optional[dict] = None
    members: tuple[str, ...] = ()  # for raw_group_pair entries
    # builds the datum or raw group behind load_document; None for pairs
    build: Optional[Callable[[], VhDatum | PermGroup]] = None


def mathieu_group_12() -> PermGroup:
    """M12 from a standard two-generator set (an involution and an element
    of order three whose product has order eleven)."""
    a = from_cycles(12, [(0, 3), (2, 9), (4, 10), (5, 11)])
    b = from_cycles(12, [(0, 7, 8), (1, 2, 3), (4, 11, 10), (5, 9, 6)])
    return perm_group([a, b], name="m12")


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="commuting_t4x4",
        kind=DATUM,
        build=lambda: commuting_datum(4, 4),
        source="direct product construction (built in)",
        description="Commuting relations a.b = b.a on two 4-letter alphabets; "
                    "both local towers are trivial, the projections are discrete.",
        expected={
            "tower_orders": [1, 1, 1, 1, 1],
            "verdict": {"kind": "discrete", "at": 1},
            "theorem01_applicable": False,
        },
    ),
    CatalogEntry(
        name="a6_natural",
        kind=RAW_GROUP,
        build=lambda: alternating_group(6),
        source="generated: alternating group on 6 points",
        description="A6 in its natural 2-transitive action.",
        expected={
            "degree": 6, "order": 360, "transitive": True, "primitive": True,
            "two_transitive": True, "qp_tag": "AlmostSimple",
            "m_order": 360, "s_order": 60, "m_cap_s_order": 60,
            "solvable_outer": True,
        },
    ),
    CatalogEntry(
        name="s5_on_pairs",
        kind=RAW_GROUP,
        build=lambda: induced_action_on_pairs(symmetric_group(5)),
        source="generated: S5 natural action induced on the ten 2-element subsets",
        description="S5 acting primitively but not 2-transitively on the "
                    "2-element subsets of a 5-element set.",
        expected={
            "degree": 10, "order": 120, "transitive": True, "primitive": True,
            "two_transitive": False, "qp_tag": "AlmostSimple",
            "m_order": 60, "s_order": 12, "m_cap_s_order": 6,
            "solvable_outer": True,
        },
    ),
    CatalogEntry(
        name="m12",
        kind=RAW_GROUP,
        build=mathieu_group_12,
        source="standard two-generator set for the Mathieu group M12 "
               "(ATLAS-style generators); order re-verified by the BSGS engine "
               "in the test suite",
        description="Sporadic Mathieu group, sharply 5-transitive on 12 points.",
        expected={
            "degree": 12, "order": 95040, "transitive": True, "primitive": True,
            "two_transitive": True, "qp_tag": "AlmostSimple",
            "m_order": 95040, "s_order": 7920, "m_cap_s_order": 7920,
            "solvable_outer": True,
        },
    ),
    CatalogEntry(
        name="pair_a6_s5",
        kind=RAW_GROUP_PAIR,
        members=("a6_natural", "s5_on_pairs"),
        source="local action pair of an irreducible lattice on a product of a "
               "6-regular and a 10-regular tree (D. Rattaggi, Computations in "
               "groups acting on a product of trees, PhD thesis, ETH Zurich, 2004)",
        description="The pair (A6 natural, S5 on pairs) analyzed from the raw "
                    "permutation groups, no square table required.",
        expected={"theorem01_applicable": True,
                  "m1_in_s2_exact": "no",
                  "obstruction_established": True,
                  "chain_contradiction": True},
    ),
    CatalogEntry(
        name="pair_a6_a6",
        kind=RAW_GROUP_PAIR,
        members=("a6_natural", "a6_natural"),
        source="local action pair realized by one-vertex complexes on a product "
               "of two 6-regular trees (D. Rattaggi, PhD thesis, ETH Zurich, 2004)",
        description="Both sides A6 in the natural action.",
        expected={"theorem01_applicable": True,
                  "m1_in_s2_exact": "no",
                  "obstruction_established": True,
                  "chain_contradiction": True},
    ),
    CatalogEntry(
        name="pair_a6_m12",
        kind=RAW_GROUP_PAIR,
        members=("a6_natural", "m12"),
        source="local action pair realized by one-vertex complexes on a product "
               "of a 6-regular and a 12-regular tree (D. Rattaggi, PhD thesis, "
               "ETH Zurich, 2004)",
        description="The pair (A6 natural, M12 on 12 points).",
        expected={"theorem01_applicable": True,
                  "obstruction_established": True,
                  "chain_contradiction": True},
    ),
)


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def get_entry(name: str) -> CatalogEntry:
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise UnknownEntry(f"no catalog entry named {name!r}")


def load_document(name: str) -> dict:
    """The JSON document of a datum or raw-group entry, built by its builder.

    A raw group is named after its entry (`a6_natural`, not the builder's
    "A6"), and the keys come in sorted order.
    """
    entry = get_entry(name)
    if entry.kind == RAW_GROUP_PAIR:
        raise UnknownEntry(
            f"catalog entry {name!r} is a pair of bundled groups, not a document; "
            f"run `treelat analyze --pair {' '.join(entry.members)}`")
    built = entry.build()
    if entry.kind == DATUM:
        doc = serialize_datum(built)
    else:
        doc = group_to_raw(
            PermGroup(degree=built.degree, generators=built.generators, name=entry.name))
    return dict(sorted(doc.items()))


def load_group(name: str) -> PermGroup:
    return group_from_raw(load_document(name))
