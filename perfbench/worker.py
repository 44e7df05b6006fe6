"""One run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--t0 T] [--setup-only]

Set-up imports treelat from the checkout's `src/`, writes the seeded input
files and ends at the first op; its time counts from `--t0`, the
`time.monotonic()` reading the parent took before starting this process.
The measured part runs whole passes, one op after another with no
concurrency, until the time budget is spent, and checks every op's output.
With `--trace 0` the reference computation is timed after every op from the
second pass on.  With `--trace 1` untraced and traced passes alternate.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REFERENCES = 3  # reference samples per set-up-only process


def import_treelat() -> None:
    """Put the checkout's src/ first on the path and refuse any other copy."""
    package = SRC / "treelat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a treelat checkout")
    sys.path.insert(0, str(SRC))
    import treelat
    if Path(treelat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported treelat from {treelat.__file__}, not {package}")


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, ops, probe) -> None:
        import checks
        from workloads import run_op

        self.checks, self.run_op = checks, run_op
        self.ops = ops
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # when set, a function whose result is appended to `samples` after each op
        self.sampler = None
        self.samples: list[float] = []

    def op(self, op) -> float:
        self.probe.orders.clear()
        start = time.perf_counter()
        try:
            rc, output = self.run_op(op)
        except (Exception, SystemExit) as exc:  # an op that raises has failed
            rc, output = exc, None
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            found = [f"exit {rc!r}"]
        else:
            try:
                found = self.checks.problems(
                    self.checks.expected_values(op.kind, op.key),
                    self.checks.checked_values(op.kind, output, self.probe.orders))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                found = [f"unreadable output: {exc!r}"]
        if found:
            self.failed += 1
            self.problems.append(f"{'/'.join(op.key)}: {'; '.join(found)}")
        if self.sampler is not None:
            self.samples.append(self.sampler())
        return elapsed

    def run_pass(self, tracer=None) -> list[float]:
        """Every op once; returns the op times."""
        first = len(tracer.spans) if tracer else 0
        times = [self.op(op) for op in self.ops]
        if tracer is not None:
            tracer.marks.append((first, len(tracer.spans), sum(times)))
        return times


def until_spent(budget: float, step) -> list:
    """Call step() until the budget is nearly spent; another call starts only
    when half a median call still fits.  Returns the results of the calls."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        times.append(time.perf_counter() - began)
        if time.perf_counter() - start + 0.5 * statistics.median(times) >= budget:
            return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = T_IMPORT if args.t0 is None else args.t0

    import_treelat()
    import workloads
    from reference import reference_s
    from tracer import RATIO_BASES, Tracer, layer_metrics, span_table

    ops = workloads.write_inputs(args.workload, args.seed,
                                 WORK / f"{args.workload}-{args.seed}")
    probe = workloads.TowerProbe()
    probe.install()
    result: dict = {"setup_s": time.monotonic() - t0}
    if args.setup_only:
        result["reference_s"] = [reference_s() for _ in range(SETUP_REFERENCES)]
        print(json.dumps(result))
        return 0

    runner = Runner(ops, probe)
    if args.trace:
        tracer = Tracer()

        def traced_pass() -> list[float]:
            tracer.install()
            try:
                return runner.run_pass(tracer)
            finally:
                tracer.uninstall()

        # alternate untraced and traced passes, so both see the same machine
        pairs = until_spent(args.seconds, lambda: (runner.run_pass(), traced_pass()))
        untraced = [sum(times) for times, _ in pairs]
        result.update(layers=layer_metrics(tracer, untraced),
                      traced_passes=len(tracer.marks), ratio_bases=RATIO_BASES)
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "passes": len(tracer.marks),
                                          "spans": span_table(tracer)}, indent=1))
    else:
        # the first pass runs before any reference, so that the peak RSS is
        # the program's own; after it the reference is timed after every op
        start = time.perf_counter()
        passes = [runner.run_pass()]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.sampler = reference_s
        passes += until_spent(args.seconds - (time.perf_counter() - start), runner.run_pass)
        refs = runner.samples
        # the first pass has no reference samples of its own: it borrows the second's
        per_pass = [refs[:len(ops)]] + [refs[i:i + len(ops)] for i in range(0, len(refs), len(ops))]
        result.update(passes=passes, reference_s=per_pass)

    if args.workload == "datum_tower":
        # the pinned datum must still be the one the enumeration finds
        derived = workloads.derive_growth_datum()
        pinned = workloads.growth_datum_document()
        if (derived["squares"] != pinned["datum"]["squares"]
                or derived["orders"] != pinned["tower_orders"][:3]):
            runner.problems.append(f"growth datum re-derivation differs: {derived}")
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:10],
                  correct=not runner.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
