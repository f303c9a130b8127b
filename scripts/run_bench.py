#!/usr/bin/env python3
"""Whistle scaling experiment.

Times the optimized and naive checkers on all-admitted streams at n and
2n.  For every order that implies the size order (S, M, P, E, H and
their intersections) the optimized checker should scale near-linearly
(doubling ratio ~2), since sizes never grow along the stream and no
admitted tree is a candidate, while the naive scans stay quadratic
(ratio ~4).

    python3 scripts/run_bench.py               # S and M at n=5000
    python3 scripts/run_bench.py --wqo H --n 200 --size 30
"""

import argparse
import sys

from treewqo import bench_whistle, parse_wqo_name


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--wqo", default="S,M", help="comma-separated order names")
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--size", type=int, default=50)
    args = ap.parse_args()

    for name in args.wqo.split(","):
        report = bench_whistle(parse_wqo_name(name), args.n, args.size)
        sys.stdout.write(report.to_tsv())
        if report.rows:
            print(f"# doubling ratios: optimized {report.ratio('optimized'):.2f}, "
                  f"naive {report.ratio('naive'):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
