"""The four workloads: seeded input files and the ops of one pass.

Input generation uses only this package's own data and the seed; treelat
receives nothing but the files written here.  Every change the seed makes
leaves the checked values unchanged:

* raw groups are conjugated by a random point permutation (orders, typing
  and section answers are conjugation invariants);
* the growth datum is relabelled by letter permutations that commute with
  both involutions (the local groups are conjugated, their orders kept);
* the survey alphabets are drawn from the three fixed-point-free
  involutions on 4 letters (all conjugate, so the survey is relabelled).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from treelat import cli, pipeline, survey
from treelat.localaction import tower
from treelat.survey import enumerate_complete_data
from treelat.vhcomplex import Alphabet, serialize_datum

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

PAIRS = {
    "pairs_typing": (("a6_natural", "s5_on_pairs"), ("a6_natural", "a6_natural"),
                     ("a6_natural", "m12"), ("m12", "m12"), ("A9", "A9")),
    "pairs_section": (("A5", "A7"), ("S5", "S7")),
}
WORKLOADS = (*PAIRS, "datum_tower", "survey_t4x4")

# the three fixed-point-free involutions on 4 letters, as letter pairs
FPF_INVOLUTIONS_4 = ([[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]])


@dataclass(frozen=True)
class Op:
    """One call a user would make: `kind` is pair, datum or survey, `key`
    names the expected values, `files` are the generated inputs."""

    kind: str
    key: tuple[str, ...]
    files: tuple[str, ...]


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def is_natural(name: str) -> bool:
    """Names such as "A9" and "S5" stand for A_n and S_n on n points."""
    return name[0] in "AS" and name[1:].isdigit()


def natural_group(name: str) -> dict:
    """S_n, or A_n for odd n, on n points, from a name such as "S5" or "A9":
    the n-cycle with a transposition, or with a 3-cycle."""
    family, n = name[0], int(name[1:])
    if family == "A" and n % 2 == 0:
        raise ValueError(f"{name}: only odd alternating groups are generated")
    cycle = list(range(1, n)) + [0]
    other = [1, 0] if family == "S" else [1, 2, 0]
    return {"degree": n, "generators": [cycle, other + list(range(len(other), n))]}


def base_group(name: str) -> dict:
    if is_natural(name):
        return natural_group(name)
    return json.loads((INPUTS / "groups.json").read_text())["groups"][name]


def conjugate(doc: dict, rng: random.Random) -> dict:
    """The group pi G pi^-1 for a random point permutation pi."""
    pi = list(range(doc["degree"]))
    rng.shuffle(pi)
    gens = []
    for g in doc["generators"]:
        images = [0] * len(g)
        for x, y in enumerate(g):
            images[pi[x]] = pi[y]
        gens.append(images)
    return {"degree": doc["degree"], "generators": gens}


def growth_datum_document() -> dict:
    return json.loads((INPUTS / "growth_datum.json").read_text())


def _involution(pairs: list[list[int]], size: int) -> list[int]:
    inv = [0] * size
    for i, j in pairs:
        inv[i], inv[j] = j, i
    return inv


def _centralizer(pairs: list[list[int]], size: int) -> list[tuple[int, ...]]:
    inv = _involution(pairs, size)
    return [p for p in itertools.permutations(range(size))
            if all(p[inv[x]] == inv[p[x]] for x in range(size))]


def relabel_datum(doc: dict, rng: random.Random) -> dict:
    """Apply letter permutations commuting with each side's involution."""
    sigma = rng.choice(_centralizer(doc["h_involution"], doc["n"]))
    tau = rng.choice(_centralizer(doc["v_involution"], doc["m"]))
    out = dict(doc)
    out["squares"] = [[sigma[a], tau[b], sigma[a2], tau[b2]]
                      for a, b, a2, b2 in doc["squares"]]
    return out


def write_inputs(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the seeded input files of a workload; return the ops of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    if workload in PAIRS:
        files = {}
        for name in sorted({g for pair in PAIRS[workload] for g in pair}):
            files[name] = write(name, {**conjugate(base_group(name), rng), "name": name})
        return [Op("pair", pair, (files[pair[0]], files[pair[1]]))
                for pair in PAIRS[workload]]
    if workload == "datum_tower":
        datum = relabel_datum(growth_datum_document()["datum"], rng)
        return [Op("datum", (datum["name"],), (write("datum", datum),))]
    alphabets = {"h_involution": rng.choice(FPF_INVOLUTIONS_4),
                 "v_involution": rng.choice(FPF_INVOLUTIONS_4)}
    return [Op("survey", ("t4x4",), (write("alphabets", alphabets),))]


# ---------------------------------------------------------------------------
# running an op
# ---------------------------------------------------------------------------

class TowerProbe:
    """Records the tower orders the datum analysis computes.

    The analyze report carries only |P1| and the verdict; the checker also
    needs every level's order.  The probe is a pass-through around the name
    `pipeline.discreteness_verdict`, which receives each side's tower; it
    adds two calls per op and stays out of the tracer's way.
    """

    def __init__(self) -> None:
        self.orders: list[tuple[str, tuple[int, ...]]] = []
        self._orig = None

    def install(self) -> None:
        self._orig = inner = pipeline.discreteness_verdict

        def probe(t):
            self.orders.append((t.side, tuple(t.orders)))
            return inner(t)

        pipeline.discreteness_verdict = probe

    def uninstall(self) -> None:
        pipeline.discreteness_verdict = self._orig


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_op(op: Op) -> tuple[int, object]:
    """Run one op; returns (exit code, raw output).  Only the call itself,
    including the loading of its input files, happens here."""
    if op.kind == "pair":
        return _run_cli(["analyze", "--pair", op.files[0], op.files[1], "--json"])
    if op.kind == "datum":
        return _run_cli(["analyze", op.files[0], "--json"])
    doc = json.loads(Path(op.files[0]).read_text())
    alphabets = [Alphabet(size=4, involution=tuple(_involution(doc[key], 4)))
                 for key in ("h_involution", "v_involution")]
    return 0, survey.survey_level_growth(*alphabets)


def derive_growth_datum() -> dict:
    """Re-derive the growth datum: the first complete datum on two 4-letter
    alphabets (involution 0<->1, 2<->3) whose horizontal tower orders rise
    strictly over depths 1..3."""
    a4 = Alphabet.with_adjacent_pairs(4)
    for index, d in enumerate(enumerate_complete_data(a4, a4)):
        orders = tower(d, "horizontal", 3).orders
        if orders[0] < orders[1] < orders[2]:
            return {"index": index, "squares": serialize_datum(d)["squares"],
                    "orders": list(orders)}
    raise LookupError("no datum with strictly rising horizontal tower orders")
