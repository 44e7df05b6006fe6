import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from treelat import catalog
from treelat.cli import _print_json, main
from treelat.permcore import (
    DEGREE_BOUND,
    alternating_group,
    group_from_raw,
    group_to_raw,
    order,
)
from treelat.vhcomplex import commuting_datum, parse_datum, serialize_datum, validate

from conftest import growth_datum, oriented_document


@pytest.fixture()
def commuting_file(tmp_path):
    doc = catalog.load_document("commuting_t4x4")
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps(doc))
    return path


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(capsys, commuting_file):
    code, out, _ = run(capsys, "validate", str(commuting_file))
    assert code == 0
    assert "ok" in out


def test_validate_corrupted_datum(capsys, tmp_path):
    d = parse_datum(catalog.load_document("commuting_t4x4"))
    oriented = oriented_document(d)
    del oriented["squares"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(oriented))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violation" in out


def test_validate_prints_warnings(capsys, tmp_path):
    # a 2-letter alphabet is valid, but its tree is a line
    path = tmp_path / "two_letters.json"
    path.write_text(json.dumps(oriented_document(commuting_datum(2, 4))))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out.splitlines() == [
        "ok: 8 oriented squares (2 geometric)",
        "warning: alphabet of size 2: the corresponding tree is degenerate (a line)"]


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 2
    assert "error" in err


def test_validate_unparseable_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("command", [
    ["validate", "PATH"], ["analyze", "PATH"], ["analyze", "--pair", "a6_natural", "PATH"],
    ["tower", "PATH", "--side", "h", "--depth", "2"]], ids=["validate", "analyze", "pair", "tower"])
@pytest.mark.parametrize("content", ["directory", b"\xff\xfe\x00", b"{not json"],
                         ids=["directory", "undecodable", "not_json"])
def test_unreadable_input_exits_2(capsys, tmp_path, command, content):
    # a directory, bytes in no JSON encoding, or text that is not JSON is
    # malformed input: exit 2 with a one-line error and no traceback
    if content == "directory":
        path = tmp_path
    else:
        path = tmp_path / "bad.json"
        path.write_bytes(content)
    code, out, err = run(capsys, *[str(path) if a == "PATH" else a for a in command])
    assert code == 2
    assert out == "" and err.startswith("error") and "Traceback" not in err


def test_validate_json_flag(capsys, commuting_file):
    code, out, _ = run(capsys, "validate", str(commuting_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["geometric_count"] == 4


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_pair_catalog_names(capsys):
    code, out, _ = run(capsys, "analyze", "--pair", "a6_natural", "s5_on_pairs",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["side1"]["m_order"] == 360
    assert doc["side2"]["s_order"] == 12
    assert doc["theorem01"]["applicable"] is True
    assert doc["theorem25"]["obstruction_established"] is True
    assert doc["chain"]["contradiction"] is True


def test_analyze_pair_files(capsys, tmp_path):
    for name in ("a6_natural", "s5_on_pairs"):
        (tmp_path / f"{name}.json").write_text(json.dumps(catalog.load_document(name)))
    code, out, _ = run(capsys, "analyze", "--pair",
                       str(tmp_path / "a6_natural.json"),
                       str(tmp_path / "s5_on_pairs.json"))
    assert code == 0
    assert "AlmostSimple" in out


def test_analyze_commuting_datum(capsys, commuting_file):
    code, out, _ = run(capsys, "analyze", str(commuting_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem01"]["applicable"] is False
    assert doc["side1"]["discreteness"] == {"kind": "discrete", "at": 1}
    assert doc["side2"]["discreteness"] == {"kind": "discrete", "at": 1}
    assert doc["theorem25"] is None
    assert doc["chain"] is None


def test_analyze_hypothesis_failure_is_exit_zero(capsys, commuting_file):
    code, _, _ = run(capsys, "analyze", str(commuting_file))
    assert code == 0


def test_analyze_depth_one_tower_too_short(capsys, commuting_file):
    code, _, err = run(capsys, "analyze", str(commuting_file), "--depth", "1")
    assert code == 2


def test_analyze_growth_datum_text(capsys, tmp_path):
    # neither side is almost simple, so each shows |S| alone, and the
    # tower grows at every level up to the default depth
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(oriented_document(growth_datum())))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines.count("  |S| = 6") == 2
    assert out.count("discreteness: no stabilization up to depth 5 "
                     "(non-discreteness evidence)") == 2


def test_analyze_pair_entry_names_the_pair_command(capsys):
    code, _, err = run(capsys, "analyze", "pair_a6_a6")
    assert code == 2
    assert "--pair a6_natural a6_natural" in err


def test_analyze_requires_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2


def test_analyze_enum_cap_exceeded(capsys):
    # the section test reads A6's spectrum off its cycle types, but holds
    # |s| = |M11| = 7920 to the cap first
    code, _, err = run(capsys, "analyze", "--pair", "a6_natural", "m12",
                       "--enum-cap", "100")
    assert code == 3
    assert "cap" in err.lower()


def test_analyze_enum_cap_bounds_only_enumerations(capsys):
    # M12 is typed without listing it, so a cap far below |M12| changes nothing
    code, capped, _ = run(capsys, "analyze", "--pair", "m12", "m12",
                          "--enum-cap", "100", "--json")
    assert code == 0
    code, uncapped, _ = run(capsys, "analyze", "--pair", "m12", "m12", "--json")
    assert code == 0
    assert capped == uncapped


def test_analyze_natural_a10_pair(capsys, tmp_path):
    # |A10| = 1,814,400 exceeds the default enumeration cap of 10^6
    path = tmp_path / "a10.json"
    path.write_text(json.dumps(group_to_raw(alternating_group(10))))
    code, out, _ = run(capsys, "analyze", "--pair", str(path), str(path), "--json")
    assert code == 0
    report = json.loads(out)
    for side in ("side1", "side2"):
        assert report[side]["qp_type"]["tag"] == "AlmostSimple"
        assert report[side]["m_order"] == 1814400


def test_analyze_pair_with_depth_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--pair", "a6_natural", "s5_on_pairs",
                         "--depth", "5")
    assert code == 2
    assert out == ""
    assert "--depth" in err


def test_analyze_path_and_pair_is_usage_error(capsys, commuting_file):
    code, out, err = run(capsys, "analyze", str(commuting_file),
                         "--pair", "a6_natural", "s5_on_pairs", "--json")
    assert code == 2
    assert out == ""
    assert str(commuting_file) in err and "a6_natural s5_on_pairs" in err


@pytest.mark.parametrize("flag", ["--enum-cap", "--section-cap"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_analyze_cap_below_one_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "analyze", "--pair", "a6_natural", "s5_on_pairs",
                         flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("flag", ["--enum-cap", "--section-cap"])
def test_analyze_non_integer_cap_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "analyze", "--pair", "a6_natural", "s5_on_pairs",
                         flag, "abc")
    assert code == 2
    assert out == ""
    assert "not an integer: 'abc'" in err


def test_analyze_depth_zero_is_usage_error(capsys, commuting_file):
    code, _, err = run(capsys, "analyze", str(commuting_file), "--depth", "0")
    assert code == 2
    assert "--depth 2" in err


# ---------------------------------------------------------------------------
# malformed input
# ---------------------------------------------------------------------------

def test_raw_group_boolean_degree_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"degree": True, "generators": [[0]]}))
    code, _, err = run(capsys, "analyze", "--pair", str(path), str(path))
    assert code == 2
    assert "degree" in err


def test_datum_boolean_letter_is_usage_error(capsys, tmp_path):
    doc = catalog.load_document("commuting_t4x4")
    doc["h_involution"] = [[0, True], [2, 3]]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "ok" not in out


def test_datum_odd_alphabet_is_usage_error(capsys, tmp_path):
    doc = catalog.load_document("commuting_t4x4")
    doc["n"] = 3
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_datum_broken_involution_is_usage_error(capsys, tmp_path):
    doc = catalog.load_document("commuting_t4x4")
    doc["v_involution"] = [[0, 1], [1, 2]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 2


@pytest.mark.parametrize("key, value", [
    ("oriented", "false"), ("oriented", 0), ("oriented", None),
    ("name", [1, 2]), ("name", None), ("source", 7)])
def test_datum_mistyped_optional_field_is_usage_error(capsys, tmp_path, key, value):
    # a truthy string must not read as "oriented", nor a list print as a name
    doc = catalog.load_document("commuting_t4x4")
    doc[key] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert key in err


@pytest.mark.parametrize("kind, document, message", [
    ("group", [], "must be a JSON object"),
    ("group", {"degree": 3}, "missing field"),
    ("group", {"degree": 3, "generators": 5}, "generators must be a list"),
    ("datum", {"n": "4"}, "n and m must be integers"),
    ("datum", {"squares": 5}, "squares must be a list"),
    ("datum", {"squares": [[0, 1, 2]]}, "not a list of 4 letters"),
    ("datum", {"h_involution": 5}, "h_involution must be a list"),
    ("datum", {"h_involution": [[0, 9], [2, 3]]}, "out of range 0..3"),
    ("datum", {"oriented": True, "squares": [[9, 0, 0, 0]]}, "horizontal letter 9"),
    ("datum", {"oriented": True, "squares": [[0, 9, 0, 0]]}, "vertical letter 9"),
])
def test_malformed_document_is_usage_error(capsys, tmp_path, kind, document, message):
    # a raw group, or a datum that differs from commuting_t4x4 in the
    # given fields, refused as input before any analysis
    path = tmp_path / "malformed.json"
    if kind == "datum":
        document = {**catalog.load_document("commuting_t4x4"), **document}
        argv = ("analyze", str(path))
    else:
        argv = ("analyze", "--pair", str(path), str(path))
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error") and message in err and "Traceback" not in err


def test_raw_group_of_one_point_is_domain_error(capsys, tmp_path):
    # a group on one point parses, but transitivity needs two
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"degree": 1, "generators": []}))
    code, out, err = run(capsys, "analyze", "--pair", str(path), str(path))
    assert code == 1 and out == ""
    assert "transitivity needs degree >= 2" in err and "Traceback" not in err


def test_raw_group_mistyped_name_is_usage_error(capsys, tmp_path):
    doc = group_to_raw(alternating_group(5))
    doc["name"] = {"x": 1}
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "--pair", str(path), str(path))
    assert code == 2 and out == ""
    assert "name" in err


def _traced_run(capsys, *argv):
    """`run`, with the peak of Python's allocations during it in bytes."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        return (*result, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def test_raw_group_over_the_degree_bound_is_usage_error(capsys, tmp_path):
    # a few bytes of input must not make the analysis allocate by the
    # degree they declare; the bound itself is accepted
    assert group_from_raw({"degree": DEGREE_BOUND, "generators": []}).degree == DEGREE_BOUND
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"degree": DEGREE_BOUND + 2, "generators": []}))
    code, out, err, peak = _traced_run(capsys, "analyze", "--pair", str(path), str(path))
    assert code == 2 and out == ""
    assert str(DEGREE_BOUND) in err
    assert peak < 2_000_000


def test_datum_over_the_alphabet_bound_is_usage_error(capsys, tmp_path):
    doc = catalog.load_document("commuting_t4x4")
    doc["n"] = DEGREE_BOUND + 2
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err, peak = _traced_run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert str(DEGREE_BOUND) in err and "unpaired" not in err
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [("tower", "--side", "h", "--depth", "40"),
                                  ("analyze", "--depth", "13")])
def test_over_deep_tower_exits_3_at_once(capsys, tmp_path, argv):
    # depth 13 is the first whose 2,125,764-word sphere exceeds the word
    # bound; no shallower level may be built before the cap is reported
    path = tmp_path / "growth.json"
    path.write_text(json.dumps(serialize_datum(growth_datum())))
    command, *options = argv
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path), *options)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "exceeding bound" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, expected", [
    (("tower", "commuting_t4x4", "--side", "h", "--depth", "10000"), 3),
    (("tower", "commuting_t4x4", "--side", "h", "--depth", "100000000"), 3),
    (("analyze", "commuting_t4x4", "--depth", "100000000"), 3),
    (("bound", "--ratio", "1e10000000"), 3),
    (("bound", "--ratio=1e-10000000"), 2),
])
def test_number_over_a_cap_is_refused_before_it_is_built(capsys, argv, expected):
    # the word count of a deep sphere and the value of a ratio with a long
    # exponent are compared with their caps before they are expanded, and
    # the message shows no number larger than the bound
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == expected and out == ""
    assert err and "Traceback" not in err
    assert all(int(number) <= DEGREE_BOUND for number in re.findall(r"\d+", err))


def test_over_deep_second_side_exits_3_before_any_chain(capsys, tmp_path, chain_builds):
    # side 1 has 4 letters (324 words at depth 5), side 2 has 34 letters
    # (40,321,314 words): neither side's tower may be built
    path = tmp_path / "t4x34.json"
    path.write_text(json.dumps(serialize_datum(commuting_datum(4, 34))))
    code, out, err = run(capsys, "analyze", str(path), "--depth", "5")
    assert code == 3 and out == ""
    assert "exceeding bound" in err and "Traceback" not in err
    assert chain_builds == []


def test_tower_command(capsys, commuting_file):
    code, out, _ = run(capsys, "tower", str(commuting_file), "--side", "h",
                       "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == [1, 1, 1, 1]
    assert doc["verdict"] == {"kind": "discrete", "at": 1}


def test_tower_on_an_invalid_datum(capsys, tmp_path):
    d = parse_datum(catalog.load_document("commuting_t4x4"))
    oriented = oriented_document(d)
    del oriented["squares"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(oriented))
    code, out, err = run(capsys, "tower", str(path), "--side", "h", "--depth", "2")
    assert code == 1
    assert out == ""
    violations = validate(parse_datum(oriented)).violations
    assert violations
    assert err.splitlines() == [f"violation: {v}" for v in violations]


def test_tower_depth_one_rejected(capsys, commuting_file):
    code, _, err = run(capsys, "tower", str(commuting_file), "--side", "h",
                       "--depth", "1")
    assert code == 2


def test_tower_bad_side(capsys, commuting_file):
    code, _, err = run(capsys, "tower", str(commuting_file), "--side", "x")
    assert code == 2
    assert "--side" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_examples(capsys):
    code, out, _ = run(capsys, "bound", "--ratio", "3")
    assert code == 0
    assert json.loads(out) == {"N": 3, "index_bound": 2}
    code, out, _ = run(capsys, "bound", "--ratio", "6.5")
    assert json.loads(out) == {"N": 6, "index_bound": 120}
    code, out, _ = run(capsys, "bound", "--ratio", "13/2")
    assert json.loads(out) == {"N": 6, "index_bound": 120}


def test_bound_below_one(capsys):
    code, _, err = run(capsys, "bound", "--ratio", "0.25")
    assert code == 2


def test_bound_cap_exits_3(capsys):
    # (1999)! has more digits than int-to-string conversion allows, and
    # the factorial for 1e12 would never finish: both stop at the N cap
    for ratio in ("2000", "1e12"):
        start = time.perf_counter()
        code, out, err = run(capsys, "bound", "--ratio", ratio)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert "index-bound cap" in err and "Traceback" not in err


def test_bound_tiny_ratio_below_one(capsys):
    # the message prints the ratio, whose 5001-digit denominator could not
    # be converted to a string
    code, _, err = run(capsys, "bound", "--ratio", "1e-5000")
    assert code == 2 and "must be >= 1" in err


def test_bound_ratio_below_the_float_range(capsys):
    # the message prints the ratio, which is too large for a float
    code, _, err = run(capsys, "bound", "--ratio=-1e400")
    assert code == 2 and "must be >= 1" in err and "Traceback" not in err


def test_bound_unparseable(capsys):
    code, _, err = run(capsys, "bound", "--ratio", "abc")
    assert code == 2


# ---------------------------------------------------------------------------
# output into a closed pipe
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_exits_quietly(unbuffered):
    # the reader of stdout has gone (`treelat analyze ... --json | head -1`):
    # the work is done, so the run succeeds and prints no traceback; with
    # buffering the write fails at the last flush, without it at `print`
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from treelat.cli import main; "
             "sys.exit(main())", "analyze", "commuting_t4x4", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(catalog.entries())
    for entry, line in zip(catalog.entries(), lines):
        status = "pair" if entry.kind == catalog.RAW_GROUP_PAIR else "bundled"
        assert line.split() == [entry.name, entry.kind, status]


def test_catalog_show_pair(capsys):
    code, out, _ = run(capsys, "catalog", "show", "pair_a6_s5")
    assert code == 0
    assert "Rattaggi" in out
    assert "a6_natural" in out


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "no_such_entry")
    assert code == 2


# ---------------------------------------------------------------------------
# bundled payload integrity
# ---------------------------------------------------------------------------

def test_catalog_show_without_a_name(capsys):
    code, out, err = run(capsys, "catalog", "show")
    assert code == 2
    assert out == ""
    assert "catalog show requires an entry name" in err


def test_catalog_pairs_name_two_raw_groups():
    for entry in catalog.entries():
        if entry.kind == catalog.RAW_GROUP_PAIR:
            assert len(entry.members) == 2
            for member in entry.members:
                assert catalog.get_entry(member).kind == catalog.RAW_GROUP


def test_every_bundled_payload_parses_and_validates():
    for entry in catalog.entries():
        if entry.kind == catalog.RAW_GROUP_PAIR:
            continue
        doc = catalog.load_document(entry.name)
        if entry.kind == catalog.DATUM:
            assert validate(parse_datum(doc)).ok
        else:
            group_from_raw(doc)


def test_catalog_documents_have_sorted_keys_and_show_prints_them(capsys):
    for entry in catalog.entries():
        if entry.kind == catalog.RAW_GROUP_PAIR:
            continue
        doc = catalog.load_document(entry.name)
        assert list(doc) == sorted(doc)
        code, out, _ = run(capsys, "catalog", "show", entry.name)
        assert code == 0
        _print_json(doc)
        assert out.split("payload:\n", 1)[1] == capsys.readouterr().out


def test_bundled_datum_files_round_trip_byte_normalized():
    for entry in catalog.entries():
        if entry.kind != catalog.DATUM:
            continue
        doc = catalog.load_document(entry.name)
        rebuilt = serialize_datum(parse_datum(doc))
        assert json.dumps(rebuilt, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_m12_order_reverified_by_bsgs():
    m12 = catalog.load_group("m12")
    assert order(m12) == 95040


def test_catalog_goldens_reproduced():
    from treelat.pipeline import analyze_raw_group
    for name in ("a6_natural", "s5_on_pairs"):
        entry = catalog.get_entry(name)
        r = analyze_raw_group(catalog.load_group(name))
        exp = entry.expected
        assert r.degree == exp["degree"]
        assert r.p1_order == exp["order"]
        assert r.transitive == exp["transitive"]
        assert r.primitive == exp["primitive"]
        assert r.two_transitive == exp["two_transitive"]
        assert r.qp_type.tag == exp["qp_tag"]
        assert r.m_order == exp["m_order"]
        assert r.s_order == exp["s_order"]
        assert r.m_cap_s_order == exp["m_cap_s_order"]
        assert r.solvable_outer == exp["solvable_outer"]


def test_catalog_pair_goldens(capsys):
    for name in ("pair_a6_s5", "pair_a6_a6"):
        entry = catalog.get_entry(name)
        code, out, _ = run(capsys, "analyze", "--pair", *entry.members, "--json")
        assert code == 0
        doc = json.loads(out)
        exp = entry.expected
        assert doc["theorem01"]["applicable"] == exp["theorem01_applicable"]
        assert doc["theorem25"]["m1_in_s2"]["exact"] == exp["m1_in_s2_exact"]
        assert doc["theorem25"]["obstruction_established"] == exp["obstruction_established"]
        assert doc["chain"]["contradiction"] == exp["chain_contradiction"]
