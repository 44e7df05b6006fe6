"""A fixed computation that samples how fast the machine is right now.

The shared machines this benchmark was written on switch between a fast
and a slow state, up to 2x apart, for seconds to minutes at a time, so raw
wall times from runs a minute apart are not comparable.  The measuring
process times this computation right after every op, and each set-up
process a few times after its set-up.  Each op time is divided by the
reference time sampled right after it, and the time metrics are medians of
these ratios times NOMINAL_S: seconds on a machine on which the reference
takes NOMINAL_S.

The computation is pure Python and uses no treelat code, so no change to
the program moves it.  It closes the symmetric group S8 under two
generators, as image tuples in a set: the same kind of work (tuple
composition, hashing, set growth) as the program's hot loops.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.1

_GENERATORS = ((1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7))
_ORDER = 40320


def closure_size() -> int:
    identity = tuple(range(8))
    seen = {identity}
    queue = [identity]
    while queue:
        h = queue.pop()
        for g in _GENERATORS:
            c = tuple(g[i] for i in h)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return len(seen)


def reference_s() -> float:
    """Wall time of one closure; raises if the result is not |S8|."""
    start = time.perf_counter()
    size = closure_size()
    elapsed = time.perf_counter() - start
    if size != _ORDER:
        raise RuntimeError(f"reference closure has {size} elements, expected {_ORDER}")
    return elapsed
