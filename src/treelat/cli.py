"""Command-line front end.

Subcommands: validate, analyze, tower, bound, catalog.

Exit codes: 0 success (a negative verdict in a report is still success),
1 domain-level negative (invalid datum, unmet mathematical precondition),
2 usage or parse errors, 3 resource caps exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import catalog
from .errors import (
    DomainError,
    InternalInvariantError,
    MalformedDocument,
    RatioBelowOne,
    ResourceCapExceeded,
    TowerTooShort,
    UnknownEntry,
)
from .localaction import DEFAULT_DEPTH, side_label, tower, tower_report
from .permcore import PermGroup, group_from_raw
from .pipeline import (
    AnalysisCaps,
    SideReport,
    WangReport,
    analyze_datum,
    analyze_pair,
    wang_index_bound,
)
from .vhcomplex import VhDatum, parse_datum, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CAPS = 3


def _load_json(path_or_name: str) -> dict:
    """A file path, or the name of a bundled catalog entry."""
    path = Path(path_or_name)
    if path.exists():
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"{path}: {exc}") from exc
    try:
        return catalog.load_document(path_or_name)
    except UnknownEntry as exc:
        raise MalformedDocument(f"no file {path_or_name!r}, and {exc}") from None


def _load_datum(path_or_name: str) -> VhDatum:
    return parse_datum(_load_json(path_or_name))


def _load_group(path_or_name: str) -> PermGroup:
    return group_from_raw(_load_json(path_or_name))


def _print_json(document: dict) -> None:
    print(json.dumps(document, indent=2, ensure_ascii=False))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _yesno(flag: Optional[bool]) -> str:
    if flag is None:
        return "-"
    return "yes" if flag else "no"


def _render_side(label: str, r: SideReport) -> list[str]:
    lines = [f"{label} ({r.source})"]
    lines.append(f"  degree {r.degree}, |P1| = {r.p1_order}")
    lines.append(f"  transitive {_yesno(r.transitive)}, primitive {_yesno(r.primitive)}, "
                 f"2-transitive {_yesno(r.two_transitive)}, "
                 f"quasi-primitive {_yesno(r.quasiprimitive)}")
    qp = r.qp_type
    lines.append(f"  type {qp.tag}, minimal normal subgroup orders {list(qp.mns_orders)}, "
                 f"socle order {qp.socle_order}")
    if r.m_order is not None:
        lines.append(f"  |M| = {r.m_order}, |S| = {r.s_order}, "
                     f"|M∩S| = {r.m_cap_s_order}, solvable outer {_yesno(r.solvable_outer)}")
    elif r.s_order is not None:
        lines.append(f"  |S| = {r.s_order}")
    verdict = r.discreteness
    if verdict.kind == "discrete":
        lines.append(f"  discreteness: tower stabilizes at depth {verdict.at} (discrete)")
    elif verdict.kind == "no_stabilization":
        lines.append(f"  discreteness: no stabilization up to depth {verdict.at} "
                     "(non-discreteness evidence)")
    else:
        lines.append("  discreteness: not applicable (raw group input)")
    return lines


def _render_report(rep: WangReport) -> str:
    lines: list[str] = []
    lines.extend(_render_side("side1", rep.side1))
    lines.extend(_render_side("side2", rep.side2))
    lines.append("")
    t01 = rep.theorem01
    lines.append(f"finiteness hypotheses: {'applicable' if t01.applicable else 'not applicable'}")
    for c in t01.caveats:
        lines.append(f"  caveat: {c}")
    lines.append(f"  {t01.conclusion}")
    if rep.theorem25 is not None:
        t25 = rep.theorem25
        lines.append(f"section obstruction: "
                     f"{'established' if t25.obstruction_established else 'not established'} "
                     f"(m1 in s2: {t25.m1_in_s2.exact}, m2 in s1: {t25.m2_in_s1.exact})")
        for direction, sec in (("m1 in s2", t25.m1_in_s2), ("m2 in s1", t25.m2_in_s1)):
            if sec.witness:
                lines.append(f"  {direction}: {sec.witness}")
        if t25.conclusion:
            lines.append(f"  {t25.conclusion}")
    else:
        lines.append("section obstruction: skipped (both sides must be almost simple)")
    if rep.chain is not None:
        lines.append(f"index chain: contradiction certificate "
                     f"{'emitted' if rep.chain.contradiction else 'NOT available'}")
        for note in rep.chain.notes:
            lines.append(f"  {note}")
    else:
        lines.append("index chain: skipped (needs almost simple type and solvable "
                     "outer quotient on both sides)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    d = _load_datum(args.path)
    report = validate(d, strict=args.strict)
    if args.json:
        _print_json(report.to_json())
    else:
        if report.ok:
            print(f"ok: {len(d.squares)} oriented squares "
                  f"({report.geometric_count} geometric)")
        for w in report.warnings:
            print(f"warning: {w}")
        for v in report.violations:
            print(f"violation: {v}")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def _caps_from_args(args: argparse.Namespace) -> AnalysisCaps:
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    return AnalysisCaps(depth=depth, enum_cap=args.enum_cap,
                        section_cap=args.section_cap, strict=args.strict)


def _require_tower_depth(depth: int) -> None:
    # the discreteness verdict compares consecutive tower levels
    if depth < 2:
        raise TowerTooShort(f"a tower needs --depth 2 or more, got {depth}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    if args.pair:
        if args.path is not None:
            print(f"analyze: give a datum path or --pair, not both (got "
                  f"{args.path!r} and --pair {' '.join(args.pair)})", file=sys.stderr)
            return EXIT_USAGE
        if args.depth is not None:
            print("analyze: --depth applies to datum input only; --pair builds "
                  "no tower", file=sys.stderr)
            return EXIT_USAGE
        g1 = _load_group(args.pair[0])
        g2 = _load_group(args.pair[1])
        report = analyze_pair(g1, g2, caps,
                              constant_type_asserted=not args.no_constant_type)
    else:
        if args.path is None:
            print("analyze: either a datum path or --pair is required", file=sys.stderr)
            return EXIT_USAGE
        _require_tower_depth(caps.depth)
        report = analyze_datum(_load_datum(args.path), caps)
    if args.json:
        _print_json(report.to_json())
    else:
        print(_render_report(report))
    return EXIT_OK


def _cmd_tower(args: argparse.Namespace) -> int:
    _require_tower_depth(args.depth)
    d = _load_datum(args.path)
    report = validate(d, strict=args.strict)
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_DOMAIN
    t = tower(d, side_label(args.side), args.depth)
    _print_json(tower_report(t))
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    try:
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"bound: cannot parse ratio {args.ratio!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = wang_index_bound(ratio)
    _print_json(result.to_json())
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        for entry in catalog.entries():
            bundled = "pair" if entry.kind == catalog.RAW_GROUP_PAIR else "bundled"
            print(f"{entry.name:18s} {entry.kind:15s} {bundled}")
        return EXIT_OK
    entry = catalog.get_entry(args.name)
    print(f"name:        {entry.name}")
    print(f"kind:        {entry.kind}")
    print(f"description: {entry.description}")
    print(f"source:      {entry.source}")
    if entry.members:
        print(f"members:     {', '.join(entry.members)}")
    if entry.expected:
        print(f"expected:    {json.dumps(entry.expected)}")
    if entry.kind != catalog.RAW_GROUP_PAIR:
        print("payload:")
        _print_json(catalog.load_document(entry.name))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelat",
        description="Hypothesis checks and obstruction reports for cocompact "
                    "lattices in products of two regular trees, from one-vertex "
                    "square-complex data or raw permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a datum file")
    p_validate.add_argument("path", help="datum JSON file or catalog entry name")
    p_validate.add_argument("--strict", action="store_true",
                            help="reject self-paired squares")
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="full two-sided analysis")
    p_analyze.add_argument("path", nargs="?",
                           help="datum JSON file or catalog entry name")
    p_analyze.add_argument("--pair", nargs=2, metavar=("G1", "G2"),
                           help="two raw group JSON files or catalog entry names")
    p_analyze.add_argument("--depth", type=int,
                           help=f"tower depth for datum input (default {DEFAULT_DEPTH})")
    default_caps = AnalysisCaps()
    p_analyze.add_argument("--enum-cap", type=_positive_int,
                           default=default_caps.enum_cap)
    p_analyze.add_argument("--section-cap", type=_positive_int,
                           default=default_caps.section_cap)
    p_analyze.add_argument("--strict", action="store_true")
    p_analyze.add_argument("--no-constant-type", action="store_true",
                           help="do not assert constant local type for raw groups")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_tower = sub.add_parser("tower", help="local tower of one side")
    p_tower.add_argument("path", help="datum JSON file or catalog entry name")
    p_tower.add_argument("--side", required=True,
                         choices=["h", "horizontal", "v", "vertical"])
    p_tower.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p_tower.add_argument("--strict", action="store_true")
    p_tower.set_defaults(func=_cmd_tower)

    p_bound = sub.add_parser("bound", help="covolume-ratio index bound")
    p_bound.add_argument("--ratio", required=True,
                         help="covolume ratio (integer, decimal, or p/q)")
    p_bound.set_defaults(func=_cmd_bound)

    p_catalog = sub.add_parser("catalog", help="bundled example inputs")
    p_catalog.add_argument("action", choices=["list", "show"])
    p_catalog.add_argument("name", nargs="?")
    p_catalog.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires an entry name")
    try:
        return args.func(args)
    except (MalformedDocument, UnknownEntry, TowerTooShort, RatioBelowOne) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except InternalInvariantError as exc:
        print(f"internal invariant violated (please report): {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
