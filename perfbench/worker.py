"""One timed iteration of a workload in a fresh interpreter.

Usage (started by run.py, one process per iteration):

    python3 perfbench/worker.py --workload W --seed S --work-dir DIR [--trace] [--setup-only]

Set-up is interpreter start, ``import zonotiling`` from the checkout's
``src/`` and input generation; the worker reports the wall-clock instant it
finished (``ready_at``) so the parent can time set-up from before the spawn.
Then it runs the workload's flow once, timing it, records CPU time and peak
RSS at the end of the flow, checks every output, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rusage() -> tuple[float, float]:
    """(CPU seconds of this process and its children, peak RSS in MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import zonotiling
    import workloads

    if Path(zonotiling.__file__).resolve().parent != SRC / "zonotiling":
        raise SystemExit(f"imported zonotiling from {zonotiling.__file__}, not from {SRC}")
    spec = workloads.parse_workload(args.workload)
    configs = workloads.make_inputs(spec, args.seed)
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        outcome = workloads.run_flow(spec, configs, work)
        wall = time.perf_counter() - start
        cpu, rss = _rusage()
        failed = workloads.check(spec, configs, outcome, work, reference)
        artifact_bytes = _tree_bytes(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "attempted": len(workloads.plan(spec)),
        "failed": sorted(failed),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(HERE / "out" / f"spans-{spec.name}.jsonl")
        result["layers"] = layer_metrics(tracer.spans, artifact_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
