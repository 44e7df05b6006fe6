"""Smoke tests of the runnable scripts under scripts/."""

import importlib.util
import json
import sys
from pathlib import Path

from treelat import catalog

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analyze_catalog_prints_one_verdict_per_entry(capsys):
    assert _load("analyze_catalog").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [e.name for e in catalog.entries()]
    for line in lines:
        assert "finiteness:" in line
        assert "skipped" not in line


def test_survey_t4x4_writes_and_prints_the_record(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s.json"
    monkeypatch.setattr(sys, "argv", ["survey_t4x4.py", "--json", str(path)])
    assert _load("survey_t4x4").main() == 0
    record = json.loads(path.read_text())
    assert record["total"] == 1564 and record["growth_count"] == 616
    assert "squares" in record["first_growth_datum"]
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "complete data found:        1564" in lines
    assert "with |P2| > |P1| somewhere: 616" in lines
    assert captured.err.splitlines() == ["classes typed:              44"]


def test_survey_t4x4_takes_the_alphabet_sizes(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s.json"
    monkeypatch.setattr(sys, "argv", ["survey_t4x4.py", "--sizes", "2", "6", "--json", str(path)])
    assert _load("survey_t4x4").main() == 0
    record = json.loads(path.read_text())
    assert record["total"] == 232 and record["growth_count"] == 0
    assert "first_growth_datum" not in record
    out, err = capsys.readouterr()
    assert "complete data found:        232" in out.splitlines()
    assert err.splitlines() == ["classes typed:              22"]
