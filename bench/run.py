#!/usr/bin/env python3
"""Benchmark of the elliptic-dedekind CLI over fixed, seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload sum_maximal --seed 1 --seconds 25 --trace 0

Workloads: sum_maximal, sum_conductor, verify_all, approximate (see
BENCHMARK.json for why each is there).  `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer ones.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the line
before it records the machine, the seed and the generated inputs.

The program is imported from ./src; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "elliptic_dedekind" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    # Precision defaults come from the CLI alone, not from the caller's environment.
    for key in [k for k in os.environ if k.startswith("ELLIPTIC_DEDEKIND_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed)
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
