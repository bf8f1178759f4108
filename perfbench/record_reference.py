#!/usr/bin/env python3
"""Record the reference counts and artifact digests the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload family on the standard configuration a_i = i (n = 4..7;
the pipeline only up to n = 6) and writes perfbench/reference.json: node and
edge counts, the a_i = i regular census, skeleton class counts per k, and the
SHA-256 of every artifact, raw and with coordinates stripped.  It refuses to
write counts that disagree with the published ones in PUBLISHED.
Rerun it only when an intended change to the program's output is accepted.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import SIZES, Spec, digests, run_flow, standard_points  # noqa: E402

# Published counts (README, ROADMAP, OEIS A006245) the reference must agree with.
PUBLISHED = {
    6: {"nodes": 908, "edges": 2144, "regular_std": 888},
    7: {"nodes": 24698, "edges": 80360, "classes": {"3": [1878, 384]}},
}


def record(work: Path) -> dict:
    reference = {}
    for n in SIZES:
        entry: dict = {"artifacts": {}, "classes": {}}
        points = standard_points(n)
        skeletons = run_flow(Spec("skeletons", n), {"std": points}, work)
        graph = skeletons["graph"]
        entry["nodes"], entry["edges"] = len(graph), graph.edge_count()
        for k, mode, classes, _diameter in skeletons["skeletons"]:
            entry["classes"].setdefault(str(k), []).append(classes)

        if n <= 6:
            run_flow(Spec("pipeline", n), {"std": points}, work)
            classify = json.loads((work / "std" / f"classify_n{n}.json").read_text())
            entry["regular_std"] = classify["regular"]
        else:
            run_flow(Spec("hypertri", n), {"std": points}, work)
        for path in sorted((work / "std").iterdir()):
            entry["artifacts"][path.name] = digests(path)
        shutil.rmtree(work)

        for key, value in PUBLISHED.get(n, {}).items():
            got = {k: entry[key][k] for k in value} if key == "classes" else entry[key]
            if got != value:
                raise SystemExit(f"n={n}: {key} {got} != published {value}")
        reference[str(n)] = entry
        print(f"n={n}: {entry['nodes']} tilings, {len(entry['artifacts'])} artifacts")
    return reference


def main() -> int:
    reference = record(HERE / "out" / "reference-work")
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
