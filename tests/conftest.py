import dataclasses
import functools
import random
import signal
import threading
from typing import Optional

import pytest

from treelat.permcore import (
    PermGroup,
    StabilizerChain,
    alternating_group,
    from_cycles,
    perm_group,
    symmetric_group,
    trivial_group,
)
from treelat.localaction import local_groups, tower
from treelat.survey import enumerate_complete_data
from treelat.vhcomplex import (
    Alphabet,
    VhDatum,
    automaton_for_side,
    serialize_datum,
    vertical_automaton,
)

SUITE_SEED = 20260808

# The slowest test takes a few seconds; an engine fault that loops forever
# (a wrong stabilizer chain never completes) fails its test after this long.
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _fail_after_timeout(request):
    """Fail the running test once it has taken TEST_TIMEOUT_S seconds.

    SIGALRM interrupts only the main thread, and only where setitimer
    exists; elsewhere tests run without a limit."""
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_TIMEOUT_S} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def chain_builds(monkeypatch) -> list:
    """Gains one item per StabilizerChain constructed during the test."""
    builds: list = []
    init = StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    return builds


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(degree=n, generators=(from_cycles(n, [tuple(range(n))]),),
                     name=f"C{n}")


def local_group(d: VhDatum, side: str, k: int) -> PermGroup:
    """The group of permutations of the depth-k sphere words generated by
    the states of the other side's automaton."""
    *_, group = local_groups(automaton_for_side(d, side), k)
    return group


def oriented_document(d: VhDatum) -> dict:
    """The datum document listing all of d's oriented squares, with
    `"oriented": true`."""
    return {**serialize_datum(d), "oriented": True,
            "squares": [list(sq) for sq in d.squares]}


def first_nontrivial_datum(horiz: Alphabet, vert: Alphabet) -> Optional[VhDatum]:
    """First enumerated datum whose vertical automaton has a non-identity
    output row."""
    for d in enumerate_complete_data(horiz, vert):
        aut = vertical_automaton(d)
        if any(aut.out[s] != tuple(range(aut.letters.size))
               for s in range(aut.states.size)):
            return d
    return None


@functools.cache
def growth_datum() -> VhDatum:
    """The first datum on two 4-letter alphabets (involution 0<->1, 2<->3)
    whose horizontal tower orders rise strictly over depths 1..3; its
    orders are 24 * 27**(k-1) on both sides."""
    a4 = Alphabet.with_adjacent_pairs(4)
    for d in enumerate_complete_data(a4, a4):
        orders = tower(d, "horizontal", 3).orders
        if orders[0] < orders[1] < orders[2]:
            return dataclasses.replace(d, name="growth_t4x4")
    raise LookupError("no datum with strictly rising horizontal tower orders")


def named_groups() -> list[PermGroup]:
    """Fixed, deterministic members of the engine-oracle suite."""
    c = from_cycles
    psl27 = perm_group(
        [c(8, [(0, 1, 2, 3, 4, 5, 6)]), c(8, [(0, 7), (1, 6), (2, 3), (4, 5)])],
        name="PSL(2,7) on the projective line")
    return [
        trivial_group(4),
        perm_group([c(2, [(0, 1)])], name="C2"),
        cyclic_group(4),
        cyclic_group(6),
        perm_group([c(4, [(0, 1)]), c(4, [(2, 3)])], name="C2xC2"),
        perm_group([c(4, [(0, 1), (2, 3)]), c(4, [(0, 2), (1, 3)])], name="V4 regular"),
        symmetric_group(3),
        symmetric_group(4),
        alternating_group(4),
        perm_group([c(4, [(0, 1, 2, 3)]), c(4, [(0, 2)])], name="D4"),
        symmetric_group(5),
        alternating_group(5),
        perm_group([c(6, [(0, 1, 2, 3, 4, 5)]), c(6, [(0, 5), (1, 4), (2, 3)])], name="D6"),
        perm_group([c(6, [(0, 1)]), c(6, [(2, 3, 4, 5)])], name="C2xC4"),
        perm_group([c(6, [(0, 1, 2)]), c(6, [(0, 1)]), c(6, [(3, 4, 5)]), c(6, [(3, 4)])],
                   name="S3xS3"),
        alternating_group(6),
        psl27,
        cyclic_group(8),
        perm_group([c(6, [(0, 1, 2)]), c(6, [(3, 4, 5)])], name="C3xC3"),
    ]


def random_groups(count: int = 11, seed: int = SUITE_SEED) -> list[PermGroup]:
    """Seeded random generator sets, degrees 5..7 so brute-force closure
    stays within 5040 elements."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        degree = rng.choice([5, 6, 7])
        n_gens = rng.choice([1, 2, 2, 3])
        gens = []
        for _ in range(n_gens):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        out.append(perm_group(gens, degree=degree, name=f"random#{i}"))
    return out


def engine_suite() -> list[PermGroup]:
    suite = named_groups() + random_groups()
    assert len(suite) == 30
    return suite


@pytest.fixture(scope="session")
def suite():
    return engine_suite()
