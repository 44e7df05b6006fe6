"""The treelat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a treelat checkout.  Workloads (see README.md):
pairs_typing, pairs_section, datum_tower, survey_t4x4.  Each is a closed
loop with one caller: one op at a time, in one process, no threads.

The run starts SETUP_REPS set-up-only processes and then the measuring
process, each with `perfbench/worker.py`, one after another.  It prints one
line per metric with its unit and sample count, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
`--trace 0` the metrics are the end-to-end ones; their times are scaled by
the reference computation in `reference.py`.  With `--trace 1` they are the
per-layer ones from the traced passes, which alternate with untraced ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 4  # set-up-only processes; setup_s is the median of their scaled times
WORKER_TIMEOUT_S = 170


def worker(args: argparse.Namespace, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treelat" / "__init__.py").is_file():
        print(f"error: no treelat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    # set-up time is an end-to-end metric: sampled only when those are measured
    reps = 0 if args.trace else SETUP_REPS
    setup_runs = [worker(args, True, 60) for _ in range(reps)]
    remaining = WORKER_TIMEOUT_S - (time.monotonic() - started)
    run = worker(args, False, remaining)
    setups = [r["setup_s"] for r in setup_runs] + [run["setup_s"]]

    attempted, failed = run["attempted"], run["failed"]
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed, fail_frac {failed / attempted:.4f}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
        print(f"per-layer metrics: means over {run['traced_passes']} traced passes; "
              "trace.pass_s and trace.untraced_pass_s are medians")
        for name, m in metrics.items():
            base = run["ratio_bases"].get(name)
            note = f" (base {base} = {metrics[base]['value']:.6g})" if base else ""
            print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    else:
        # each op time is divided by the reference time sampled right after it
        passes, refs = run["passes"], run["reference_s"]
        scaled = [[t / r for t, r in zip(times, pass_refs)]
                  for times, pass_refs in zip(passes, refs)]
        setup_ratio = [r["setup_s"] / statistics.median(r["reference_s"]) for r in setup_runs]
        metrics = {
            "pass_s": {"value": NOMINAL_S * statistics.median(sum(p) for p in scaled),
                       "unit": "s"},
            "op_p50_s": {"value": NOMINAL_S * statistics.median(
                statistics.median(op) for op in zip(*scaled)), "unit": "s"},
            "setup_s": {"value": NOMINAL_S * statistics.median(setup_ratio), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        pass_s = [sum(times) for times in passes]
        flat = [r for pass_refs in refs for r in pass_refs]
        print(f"reference {statistics.median(flat):.4f} s ({quartiles(flat)}); each op "
              f"time is scaled to a {NOMINAL_S} s reference sampled right after it")
        print(f"pass_s {metrics['pass_s']['value']:.4f} s (raw median "
              f"{statistics.median(pass_s):.4f} s, {quartiles(pass_s)}; "
              f"samples {[round(t, 4) for t in pass_s]})")
        print(f"op_p50_s {metrics['op_p50_s']['value']:.4f} s (median over "
              f"{len(passes[0])} ops of each op's median over {len(passes)} passes)")
        print(f"setup_s {metrics['setup_s']['value']:.4f} s (raw median "
              f"{statistics.median(setups):.4f} s, {quartiles(setups)})")
        print(f"peak_rss_mb {run['peak_rss_mb']:.1f} MB (n=1, ru_maxrss)")
    print(json.dumps({"correct": run["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
