import json
from pathlib import Path

import pytest

from treelat import catalog
from treelat.cli import main
from treelat.permcore import alternating_group, group_from_raw, group_to_raw, order
from treelat.vhcomplex import parse_datum, serialize_datum, validate


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
    doc = catalog.load_document("commuting_t4x4")
    doc["oriented"] = True
    d = parse_datum(catalog.load_document("commuting_t4x4"))
    oriented = serialize_datum(d, oriented=True)
    del oriented["squares"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(oriented))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violation" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 2
    assert "error" in err


def test_validate_unparseable_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


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


def test_analyze_pair_entry_names_the_pair_command(capsys):
    code, _, err = run(capsys, "analyze", "pair_a6_a6")
    assert code == 2
    assert "--pair a6_natural a6_natural" in err


def test_analyze_requires_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2


def test_analyze_enum_cap_exceeded(capsys):
    # the section test lists the 360 elements of A6 for its spectrum
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


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_command(capsys, commuting_file):
    code, out, _ = run(capsys, "tower", str(commuting_file), "--side", "h",
                       "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == [1, 1, 1, 1]
    assert doc["verdict"] == {"kind": "discrete", "at": 1}


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


def test_bound_unparseable(capsys):
    code, _, err = run(capsys, "bound", "--ratio", "abc")
    assert code == 2


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

def test_catalog_ships_one_file_per_non_pair_entry():
    entries = catalog.entries()
    files = {f"{e.name}.json" for e in entries if e.kind != catalog.RAW_GROUP_PAIR}
    assert set(catalog.regenerate_documents()) == files
    data_dir = Path(catalog.__file__).parent / "data"
    assert {p.name for p in data_dir.iterdir()} == files
    for entry in entries:
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


def test_bundled_files_match_programmatic_builders():
    regenerated = catalog.regenerate_documents()
    for filename, doc in regenerated.items():
        name = filename.removesuffix(".json")
        assert catalog.load_document(name) == doc


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
