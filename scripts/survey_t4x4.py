#!/usr/bin/env python3
"""Exhaustively enumerate the complete VH data on two alphabets of N and M
letters (involutions 0<->1, 2<->3, ... on both sides; 4 and 4 unless
--sizes says otherwise) and record the level-growth survey: how many data
exist, and whether any has |P2| > |P1| on some side.

    python scripts/survey_t4x4.py [--sizes N M] [--json out.json]

The record goes to standard output, and the number of automaton classes
whose local groups were built to standard error.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treelat.localaction import tower  # noqa: E402
from treelat.survey import survey_level_growth  # noqa: E402
from treelat.vhcomplex import Alphabet, serialize_datum, validate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", nargs=2, type=int, default=(4, 4), metavar=("N", "M"),
                        help="the horizontal and the vertical alphabet size (default 4 4)")
    parser.add_argument("--json", metavar="PATH", help="also write the survey record")
    args = parser.parse_args()

    horiz, vert = map(Alphabet.with_adjacent_pairs, args.sizes)
    start = time.perf_counter()
    result = survey_level_growth(horiz, vert)
    elapsed = time.perf_counter() - start

    record = result.to_json()
    record["elapsed_seconds"] = round(elapsed, 2)
    print(f"complete data found:        {result.total}")
    print(f"with non-trivial P1:        {result.nontrivial_p1}")
    print(f"with |P2| > |P1| somewhere: {result.growth_count}")
    print(f"largest |P1| seen:          {result.max_p1_order}")
    print(f"largest |P2| seen:          {result.max_p2_order}")
    print(f"elapsed:                    {elapsed:.2f}s")
    print(f"classes typed:              {result.classes_typed}", file=sys.stderr)

    if result.first_growth is not None:
        d = result.first_growth
        assert validate(d).ok
        th = tower(d, "horizontal", 3)
        tv = tower(d, "vertical", 3)
        print("first datum with level growth:")
        print(f"  squares (geometric): {serialize_datum(d)['squares']}")
        print(f"  horizontal tower orders: {list(th.orders)}")
        print(f"  vertical tower orders:   {list(tv.orders)}")
        record["first_growth_datum"] = serialize_datum(d)

    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
