"""Smoke tests of the runnable scripts under scripts/."""

import importlib.util
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
