"""CLI JSON output, byte for byte, against recorded reports.

Each file in tests/goldens/ is the stdout of one CLI call: `analyze --json`
on datum and pair input, `validate --json` on a valid and a broken datum,
`tower` and `bound`.  Regenerate a file only when a report is meant to
change, and say why in the change.  CI also runs this module against the
installed package, from outside the checkout, so a new golden needs only
a case here.
"""

import json
from pathlib import Path

import pytest

from treelat import catalog
from treelat.cli import main
from treelat.permcore import alternating_group, group_to_raw, symmetric_group
from treelat.vhcomplex import parse_datum, serialize_datum

from conftest import growth_datum

GOLDENS = Path(__file__).resolve().parent / "goldens"


def _write(tmp_path: Path, name: str, doc: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def golden_argv(case: str, tmp_path: Path) -> list[str]:
    """The CLI arguments whose stdout is recorded in goldens/<case>.json."""
    if case == "commuting_t4x4":
        return ["analyze", "commuting_t4x4", "--json"]
    if case == "growth_t4x4":
        return ["analyze", _write(tmp_path, case, serialize_datum(growth_datum())),
                "--json"]
    if case == "validate_commuting_t4x4":
        return ["validate", "commuting_t4x4", "--json"]
    if case == "validate_broken_oriented":
        # the commuting datum's oriented squares, one of them missing
        doc = serialize_datum(parse_datum(catalog.load_document("commuting_t4x4")),
                              oriented=True)
        del doc["squares"][0]
        return ["validate", _write(tmp_path, case, doc), "--json"]
    if case == "tower_growth_h4":
        return ["tower", _write(tmp_path, case, serialize_datum(growth_datum())),
                "--side", "h", "--depth", "4"]
    if case == "bound_13_2":
        return ["bound", "--ratio", "13/2"]
    raw = {"pair_A5_A7": (alternating_group(5), alternating_group(7)),
           "pair_A9_A9": (alternating_group(9), alternating_group(9)),
           "pair_S5_S7": (symmetric_group(5), symmetric_group(7))}
    if case in raw:
        files = [_write(tmp_path, f"{g.name}_{i}", group_to_raw(g))
                 for i, g in enumerate(raw[case])]
        return ["analyze", "--pair", *files, "--json"]
    members = {"pair_a6_s5": ("a6_natural", "s5_on_pairs"),
               "pair_a6_a6": ("a6_natural", "a6_natural"),
               "pair_a6_m12": ("a6_natural", "m12"),
               "pair_m12_m12": ("m12", "m12")}[case]
    return ["analyze", "--pair", *members, "--json"]


CASES = ("commuting_t4x4", "growth_t4x4", "pair_a6_s5", "pair_a6_a6",
         "pair_a6_m12", "pair_A5_A7", "pair_m12_m12", "pair_A9_A9", "pair_S5_S7")
OTHER_CASES = ("validate_commuting_t4x4", "validate_broken_oriented",
               "tower_growth_h4", "bound_13_2")
# the exit code of each case that does not exit with 0
EXIT_CODES = {"validate_broken_oriented": 1}


def test_every_golden_file_has_a_case():
    # a golden file with no case would be checked nowhere
    assert sorted(p.stem for p in GOLDENS.glob("*.json")) == sorted(CASES + OTHER_CASES)


@pytest.mark.parametrize("case", CASES)
def test_analyze_json_matches_golden(case, tmp_path, capsys):
    code = main(golden_argv(case, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDENS / f"{case}.json").read_text()


@pytest.mark.parametrize("case", OTHER_CASES)
def test_other_json_matches_golden(case, tmp_path, capsys):
    code = main(golden_argv(case, tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(case, 0)
    assert out == (GOLDENS / f"{case}.json").read_text()


def test_parser_reused_after_usage_errors(tmp_path, capsys):
    # the parser is built once per process, so calls that exit 2, one
    # refused by the parser and one by the command, must leave it as the
    # next call needs it
    with pytest.raises(SystemExit) as refused:
        main(["analyze", "--pair", "a6_natural"])
    assert refused.value.code == 2
    assert main(["analyze", "--pair", "a6_natural", "no_such_entry", "--json"]) == 2
    capsys.readouterr()
    assert main(golden_argv("pair_a6_s5", tmp_path)) == 0
    assert capsys.readouterr().out == (GOLDENS / "pair_a6_s5.json").read_text()
