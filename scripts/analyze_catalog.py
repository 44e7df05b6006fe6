#!/usr/bin/env python3
"""Run the full analysis over every bundled catalog input and print a
one-line summary per entry.

    python scripts/analyze_catalog.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treelat import catalog  # noqa: E402
from treelat.pipeline import analyze_datum, analyze_pair  # noqa: E402
from treelat.vhcomplex import parse_datum  # noqa: E402


def main() -> int:
    for entry in catalog.entries():
        start = time.perf_counter()
        if entry.kind == catalog.DATUM:
            report = analyze_datum(parse_datum(catalog.load_document(entry.name)))
        elif entry.kind == catalog.RAW_GROUP_PAIR:
            g1 = catalog.load_group(entry.members[0])
            g2 = catalog.load_group(entry.members[1])
            report = analyze_pair(g1, g2)
        else:
            g = catalog.load_group(entry.name)
            report = analyze_pair(g, g)
        elapsed = time.perf_counter() - start
        t01 = "applicable" if report.theorem01.applicable else "not applicable"
        t25 = "-"
        if report.theorem25 is not None:
            t25 = ("obstruction" if report.theorem25.obstruction_established
                   else "no obstruction")
        chain = "-"
        if report.chain is not None:
            chain = "contradiction" if report.chain.contradiction else "consistent"
        print(f"{entry.name:18s} finiteness: {t01:15s} section: {t25:14s} "
              f"chain: {chain:13s} ({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
