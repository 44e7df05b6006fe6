"""Output checks, run on every op.

An op fails on a non-zero exit, an exception, or any checked value that
differs from its expected value.  Expected values come from three places:

* the catalog's `expected` goldens, for the bundled groups and pairs;
* group theory, for A_n and S_n in their natural actions: |A_n| = n!/2,
  |S_n| = n!, both 2-transitive, almost simple with socle A_n (n >= 5),
  the point stabilizer of index n, and a solvable outer quotient;
* the answers treelat gave when this benchmark was written, for the exact
  section tests, the obstruction, the index chain and the survey record.
  They are recorded below.
"""

from __future__ import annotations

import json
import math

from treelat import catalog
from workloads import is_natural

# (m1 in s2, m2 in s1, obstruction established, chain contradiction)
RECORDED_PAIR_ANSWERS = {
    ("a6_natural", "s5_on_pairs"): ("no", "yes", True, True),
    ("a6_natural", "a6_natural"): ("no", "no", True, True),
    ("a6_natural", "m12"): ("unknown", "no", True, True),
    ("m12", "m12"): ("no", "no", True, True),
    ("A9", "A9"): ("no", "no", True, True),
    ("A5", "A7"): ("yes", "no", True, True),
    ("S5", "S7"): ("yes", "no", True, True),
}

RECORDED_SURVEY = {
    "total": 1564, "nontrivial_p1": 1563, "growth_count": 616, "any_growth": True,
    "max_p1_order": 24, "max_p2_order": 648, "p1_orders_seen": [1, 2, 4, 8, 12, 24],
}

DATUM_DEPTH = 5
# P_1 is S4 on the 4 letters; each further level multiplies the order by 27
DATUM_TOWER_ORDERS = [24 * 27 ** (k - 1) for k in range(1, DATUM_DEPTH + 1)]

SIDE_FIELDS = ("degree", "order", "transitive", "primitive", "two_transitive",
               "qp_tag", "m_order", "s_order", "m_cap_s_order", "solvable_outer")


def _side_values(side: dict) -> dict:
    return {"degree": side["degree"], "order": side["p1_order"],
            "transitive": side["transitive"], "primitive": side["primitive"],
            "two_transitive": side["two_transitive"], "qp_tag": side["qp_type"]["tag"],
            "m_order": side["m_order"], "s_order": side["s_order"],
            "m_cap_s_order": side["m_cap_s_order"],
            "solvable_outer": side["solvable_outer"]}


def _natural_side(name: str) -> dict:
    n = int(name[1:])
    order = math.factorial(n) // (2 if name[0] == "A" else 1)
    socle = math.factorial(n) // 2
    return {"degree": n, "order": order, "transitive": True, "primitive": True,
            "two_transitive": True, "qp_tag": "AlmostSimple", "m_order": socle,
            "s_order": order // n, "m_cap_s_order": socle // n, "solvable_outer": True}


def _merge(into: dict, values: dict, source: str) -> None:
    for key, value in values.items():
        if key in into and into[key] != value:
            raise ValueError(f"{source} disagrees on {key}: {value!r} != {into[key]!r}")
        into[key] = value


def expected_pair(pair: tuple[str, str]) -> dict:
    sides = []
    for name in pair:
        if is_natural(name):
            sides.append(_natural_side(name))
        else:
            sides.append({k: catalog.get_entry(name).expected[k] for k in SIDE_FIELDS})
    m1, m2, obstruction, contradiction = RECORDED_PAIR_ANSWERS[pair]
    out = {"side1": sides[0], "side2": sides[1], "theorem01_applicable": True,
           "m1_in_s2_exact": m1, "m2_in_s1_exact": m2,
           "obstruction_established": obstruction, "chain_contradiction": contradiction}
    for entry in catalog.entries():
        if entry.kind == catalog.RAW_GROUP_PAIR and entry.members == pair:
            _merge(out, entry.expected, f"catalog entry {entry.name}")
    return out


def expected_datum() -> dict:
    side = {"degree": 4, "order": 24,
            "discreteness": {"kind": "no_stabilization", "at": DATUM_DEPTH}}
    return {"side1": side, "side2": side, "theorem01_applicable": False,
            "tower_orders": {"horizontal": DATUM_TOWER_ORDERS,
                             "vertical": DATUM_TOWER_ORDERS}}


def checked_values(kind: str, output: object, tower_orders=()) -> dict:
    """The values of an op's output that the checker compares."""
    if kind == "survey":
        return output.to_json()
    report = json.loads(output)
    if kind == "pair":
        t25, chain = report["theorem25"] or {}, report["chain"] or {}
        return {"side1": _side_values(report["side1"]),
                "side2": _side_values(report["side2"]),
                "theorem01_applicable": report["theorem01"]["applicable"],
                "m1_in_s2_exact": t25.get("m1_in_s2", {}).get("exact"),
                "m2_in_s1_exact": t25.get("m2_in_s1", {}).get("exact"),
                "obstruction_established": t25.get("obstruction_established"),
                "chain_contradiction": chain.get("contradiction")}
    sides = [{"degree": report[s]["degree"], "order": report[s]["p1_order"],
              "discreteness": report[s]["discreteness"]} for s in ("side1", "side2")]
    return {"side1": sides[0], "side2": sides[1],
            "theorem01_applicable": report["theorem01"]["applicable"],
            "tower_orders": {side: list(orders) for side, orders in tower_orders}}


def expected_values(kind: str, key: tuple[str, ...]) -> dict:
    if kind == "pair":
        return expected_pair(key)
    if kind == "datum":
        return expected_datum()
    return RECORDED_SURVEY


def problems(expected: dict, actual: dict) -> list[str]:
    """Every expected key whose actual value differs, as 'path: expected X, got Y'."""
    out = []
    for key, want in expected.items():
        got = actual.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            out.extend(f"{key}.{p}" for p in problems(want, got))
        elif got != want:
            out.append(f"{key}: expected {want!r}, got {got!r}")
    return out
