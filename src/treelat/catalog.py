"""Bundled catalog: example inputs, their provenance, and golden summaries.

Everything bundled is generated programmatically and verified by the test
suite (the Mathieu group's order, for instance, is recomputed by the BSGS
engine at test time).  Square tables published elsewhere in the literature
are represented by payload-free slots carrying their citation: the tool
ships nothing it cannot verify and fabricates nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

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
    payload: Optional[str]  # bundled file name under treelat/data, or None
    source: str
    description: str
    expected: Optional[dict] = None
    members: tuple[str, ...] = ()  # for raw_group_pair entries


def mathieu_group_12() -> PermGroup:
    """M12 from a standard two-generator set (an involution and an element
    of order three whose product has order eleven)."""
    a = from_cycles(12, [(0, 3), (2, 9), (4, 10), (5, 11)])
    b = from_cycles(12, [(0, 7, 8), (1, 2, 3), (4, 11, 10), (5, 9, 6)])
    return perm_group([a, b], name="m12")


def build_group(name: str) -> PermGroup:
    if name == "a6_natural":
        g = alternating_group(6)
        return PermGroup(degree=6, generators=g.generators, name="a6_natural")
    if name == "s5_on_pairs":
        g = induced_action_on_pairs(symmetric_group(5))
        return PermGroup(degree=10, generators=g.generators, name="s5_on_pairs")
    if name == "m12":
        return mathieu_group_12()
    raise UnknownEntry(f"no raw group builder named {name!r}")


def build_datum(name: str) -> VhDatum:
    if name == "commuting_t4x4":
        return commuting_datum(4, 4)
    raise UnknownEntry(f"no datum builder named {name!r}")


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="commuting_t4x4",
        kind=DATUM,
        payload="commuting_t4x4.json",
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
        payload="a6_natural.json",
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
        payload="s5_on_pairs.json",
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
        payload="m12.json",
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
        payload=None,
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
        payload=None,
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
        payload=None,
        members=("a6_natural", "m12"),
        source="local action pair realized by one-vertex complexes on a product "
               "of a 6-regular and a 12-regular tree (D. Rattaggi, PhD thesis, "
               "ETH Zurich, 2004)",
        description="The pair (A6 natural, M12 on 12 points).",
        expected={"theorem01_applicable": True,
                  "obstruction_established": True,
                  "chain_contradiction": True},
    ),
    CatalogEntry(
        name="a6_s5_datum",
        kind=DATUM,
        payload=None,
        source="square table published in D. Rattaggi, Computations in groups "
               "acting on a product of trees, PhD thesis, ETH Zurich, 2004 "
               "(T6 x T10 one-vertex complex realizing (A6, S5 on pairs))",
        description="Slot for the explicit one-vertex square table; the table "
                    "is not reproduced here and must be ingested from the "
                    "cited source.",
    ),
    CatalogEntry(
        name="a6_m12_datum",
        kind=DATUM,
        payload=None,
        source="square table published in D. Rattaggi, PhD thesis, ETH Zurich, "
               "2004 (T6 x T12 one-vertex complex realizing (A6, M12))",
        description="Slot for the explicit square table realizing (A6, M12); "
                    "ingest from the cited source.",
    ),
    CatalogEntry(
        name="a6_a6_datum",
        kind=DATUM,
        payload=None,
        source="square table published in D. Rattaggi, PhD thesis, ETH Zurich, "
               "2004 (T6 x T6 one-vertex complex realizing (A6, A6))",
        description="Slot for the explicit square table realizing (A6, A6); "
                    "ingest from the cited source.",
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
    """The bundled JSON document for a catalog entry with a payload."""
    entry = get_entry(name)
    if entry.payload is None:
        raise UnknownEntry(
            f"catalog entry {name!r} has no bundled payload "
            f"(external source: {entry.source})")
    text = resources.files("treelat.data").joinpath(entry.payload).read_text()
    return json.loads(text)


def load_group(name: str) -> PermGroup:
    return group_from_raw(load_document(name))


def regenerate_documents() -> dict[str, dict]:
    """The documents the bundled data files must contain, built from scratch."""
    return {
        "commuting_t4x4.json": serialize_datum(build_datum("commuting_t4x4")),
        "a6_natural.json": group_to_raw(build_group("a6_natural")),
        "s5_on_pairs.json": group_to_raw(build_group("s5_on_pairs")),
        "m12.json": group_to_raw(build_group("m12")),
    }
