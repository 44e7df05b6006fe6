"""Tests of the benchmark itself: checker, seeding, tracer and contract.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from tracer import GENERATOR_SPANS, LAYER_TIMES, SPANS, Tracer, layer_metrics
from treelat import groupprops, permcore
from worker import Runner

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(ops, tracer):
    probe = workloads.TowerProbe()
    probe.install()
    tracer.install()
    try:
        runner = Runner(ops, probe)
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
        probe.uninstall()
    return runner


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a6_s5_report(tmp_path_factory):
    ops = workloads.write_inputs("pairs_typing", 0, tmp_path_factory.mktemp("in"))
    rc, output = workloads.run_op(ops[0])
    assert rc == 0
    return ops[0], json.loads(output)


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("side2", "p1_order"), 121),
    (("side1", "qp_type", "tag"), "TwoRegularMns"),
    (("side2", "two_transitive"), True),
    (("theorem25", "m1_in_s2", "exact"), "yes"),
    (("chain", "contradiction"), False),
    (("theorem01", "applicable"), False),
])
def test_corrupted_pair_field_counts_as_failure(a6_s5_report, path, value):
    op, report = a6_s5_report
    runner = Runner([op], workloads.TowerProbe())
    runner.run_op = lambda op: (0, json.dumps(report))
    runner.op(op)
    assert (runner.attempted, runner.failed) == (1, 0)

    corrupted = copy.deepcopy(report)
    set_path(corrupted, path, value)
    runner.run_op = lambda op: (0, json.dumps(corrupted))
    runner.op(op)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_corrupted_survey_and_exit_code_count_as_failures():
    class Record:
        def __init__(self, doc):
            self.doc = doc

        def to_json(self):
            return self.doc

    op = workloads.Op("survey", ("t4x4",), ())
    runner = Runner([op], workloads.TowerProbe())
    runner.run_op = lambda op: (0, Record(dict(checks.RECORDED_SURVEY)))
    runner.op(op)
    assert runner.failed == 0
    runner.run_op = lambda op: (0, Record({**checks.RECORDED_SURVEY, "growth_count": 615}))
    runner.op(op)
    runner.run_op = lambda op: (3, "")
    runner.op(op)
    assert (runner.attempted, runner.failed) == (3, 2)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def checked(workload, seed, directory, count=None):
    ops = workloads.write_inputs(workload, seed, directory)[:count]
    values, inputs = [], []
    for op in ops:
        probe = workloads.TowerProbe()
        probe.install()
        try:
            rc, output = workloads.run_op(op)
        finally:
            probe.uninstall()
        assert rc == 0
        values.append(checks.checked_values(op.kind, output, probe.orders))
        inputs.append([Path(f).read_text() for f in op.files])
    return values, inputs


@pytest.mark.parametrize("workload, count", [
    ("pairs_typing", 2), ("pairs_section", 1), ("datum_tower", None),
    ("survey_t4x4", None)])
def test_two_seeds_give_identical_checked_values(tmp_path, workload, count):
    values0, inputs0 = checked(workload, 0, tmp_path / "s0", count)
    values1, inputs1 = checked(workload, 1, tmp_path / "s1", count)
    assert inputs0 != inputs1, "the seed must change the inputs"
    assert values0 == values1
    ops = workloads.write_inputs(workload, 0, tmp_path / "s0")[:count]
    for op, value in zip(ops, values0):
        assert checks.problems(checks.expected_values(op.kind, op.key), value) == []


def test_growth_datum_is_rederived():
    pinned = workloads.growth_datum_document()
    derived = workloads.derive_growth_datum()
    assert derived["squares"] == pinned["datum"]["squares"]
    assert derived["orders"] == pinned["tower_orders"][:3]
    assert pinned["tower_orders"] == checks.DATUM_TOWER_ORDERS


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_every_span_belongs_to_one_layer_metric():
    summed = [span for spans in LAYER_TIMES.values() for span in spans]
    assert sorted(summed) == sorted([*SPANS, *GENERATOR_SPANS])


def test_tracer_uninstall_restores_every_name():
    originals = (permcore.StabilizerChain.__init__,
                 groupprops.conjugacy_class_representatives,
                 permcore.conjugacy_class_representatives)
    tracer = Tracer()
    tracer.install()
    assert groupprops.conjugacy_class_representatives is not originals[1]
    tracer.uninstall()
    assert (permcore.StabilizerChain.__init__,
            groupprops.conjugacy_class_representatives,
            permcore.conjugacy_class_representatives) == originals


# the layer whose self time dominates each workload
DOMINANT = {
    "pairs_typing": ("permcore.class_reps_s", "permcore.elements_s"),
    "pairs_section": ("groupprops.section_exact_s",),
    "datum_tower": ("permcore.chain_build_s",),
    "survey_t4x4": ("permcore.chain_build_s",),
}
# pass time not covered by spans: the benchmark's own per-op code
OUTSIDE_LIMIT = 0.01


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_the_pass(tmp_path, workload):
    tracer = Tracer()
    runner = traced_pass(workloads.write_inputs(workload, 0, tmp_path), tracer)
    assert runner.failed == 0, runner.problems
    first, end, wall = tracer.marks[0]
    covered = sum(tracer.self_times(first, end).values())
    assert 0 <= wall - covered <= OUTSIDE_LIMIT * wall

    metrics = layer_metrics(tracer, [wall])
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer_total = sum(metrics[name][0] for name in LAYER_TIMES)
    assert layer_total == pytest.approx(covered)
    dominant = sum(metrics[name][0] for name in DOMINANT[workload])
    assert dominant > 0.5 * layer_total


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey_t4x4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
