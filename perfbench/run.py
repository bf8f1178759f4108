#!/usr/bin/env python3
"""Benchmark runner for zonotiling.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads run closed-loop, one iteration
at a time, each iteration in a fresh single-threaded interpreter
(perfbench/worker.py).  Another iteration starts only while it is expected
to end within S seconds; there is always at least one.  Before
measuring, a few extra interpreters only set up, so that ``setup_s`` is a
median over several samples.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
iterations); with ``--trace 1`` each measured iteration is an untraced and a
traced interpreter in turn, and the result holds the per-layer metrics of the
traced ones plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (checks) and
``metrics``.  Exit status is 2, with no result, when the checkout has no
``src/zonotiling`` to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
BUDGET_S = 170.0  # every run must end within 180 s


def _worker(workload: str, seed: int, index: int, trace: bool, setup_only: bool, timeout: float):
    """Run one worker; returns (setup seconds, result dict) or raises."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--work-dir",
        str(HERE / "out" / "work" / f"{workload}-{seed}-{index}"),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    launched = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready_at"] - launched, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "zonotiling" / "__init__.py").is_file():
        print(f"error: no src/zonotiling under {ROOT} to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import parse_workload, plan

    spec = parse_workload(args.workload)
    planned = len(plan(spec))
    deadline = time.monotonic() + BUDGET_S

    def remaining() -> float:
        return deadline - time.monotonic()

    setups: list[float] = []
    results: list[dict] = []  # untraced iterations
    traced: list[dict] = []
    attempted = failed = 0
    launched = 0

    def spawn(trace: bool, setup_only: bool = False) -> dict | None:
        nonlocal attempted, failed, launched
        launched += 1
        try:
            setup, result = _worker(
                spec.name, args.seed, launched, trace, setup_only, max(1.0, remaining())
            )
        except (RuntimeError, ValueError, IndexError, KeyError, subprocess.TimeoutExpired) as exc:
            # A crash or timeout fails every check the iteration would have made.
            print(f"worker failed: {exc!r}", file=sys.stderr)
            attempted += planned
            failed += planned
            return None
        setups.append(setup)
        if not setup_only:
            attempted += result["attempted"]
            failed += len(result["failed"])
            for name in result["failed"]:
                print(f"check failed: {name}", file=sys.stderr)
        return result

    for _ in range(SETUP_SAMPLES):
        spawn(trace=False, setup_only=True)

    measure_start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        plain = spawn(trace=False)
        if plain is not None:
            results.append(plain)
        if args.trace:
            deep = spawn(trace=True)
            if deep is not None:
                traced.append(deep)
        longest = max(longest, time.monotonic() - began)
        # Iterations are whole: start one more only if it should end in time.
        if plain is None or time.monotonic() - measure_start + longest > args.seconds:
            break
        if remaining() < 1.5 * longest:
            print("stopping early to stay within the time budget", file=sys.stderr)
            break

    def median(key: str, rows: list[dict]) -> float:
        values = [r[key] for r in rows]
        return statistics.median(values) if values else 0.0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        measured = bool(traced)
        layers = [r["layers"] for r in traced]
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]} if layers else {}
        values["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", results)
        wanted = declared["per_layer"]
    else:
        measured = bool(results)
        values = {
            "wall_s": median("wall_s", results),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "cpu_s": median("cpu_s", results),
            "peak_rss_mb": median("peak_rss_mb", results),
        }
        wanted = declared["end_to_end"]
    # With no successful iteration the run is already incorrect; report zeros.
    metrics = {
        m["name"]: {"value": values[m["name"]] if measured else 0.0, "unit": m["unit"]}
        for m in wanted
    }

    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
