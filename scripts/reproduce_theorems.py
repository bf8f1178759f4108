#!/usr/bin/env python3
"""Reproduce the diameter experiments end to end.

Enumerates the flip graph for each n, classifies regularity, measures every
quotient-skeleton diameter against its closed form, samples maximal chains,
counts commutation classes with the reduced-word oracle, and writes
the JSON artifacts into the output directory (default: out/).  Each stage's
wall time goes to standard error.

Usage:
    python scripts/reproduce_theorems.py [--max-n 6] [--out out]
"""

import argparse
import sys
import time
from pathlib import Path

from zonotiling.cli import main as cli


def run(stage, base):
    argv = [*stage, *base]
    start = time.perf_counter()
    code = cli(argv)
    print(f"n={base[1]} {' '.join(stage)}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    if code != 0:
        print(f"command {' '.join(argv)} exited with {code}", file=sys.stderr)
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--out", type=str, default="out")
    args = parser.parse_args()
    if args.max_n < 3:
        # below n = 3 there is no stage to run, so nothing would be checked
        parser.error(f"--max-n must be at least 3, got {args.max_n}")
    out = Path(args.out)

    for n in range(3, args.max_n + 1):
        base = ["--n", str(n), "--out", str(out / f"n{n}"), "--strict"]
        print(f"=== n = {n} ===")
        run(["enumerate"], base)
        run(["classify"], base)
        run(["diameters", "--all"], base)
        for k in range(1, n - 1):
            run(["hypertri", "--k", str(k)], base)
        run(["chains", "--samples", "200", "--seed", "0"], base)
        run(["potential", "--ref", "0", "--all"], base)
        run(["oracle-count"], base)
    print("all checks passed; artifacts in", out)


if __name__ == "__main__":
    main()
