#!/usr/bin/env python3
"""Discriminative-power census experiment.

Generates a seeded random corpus (default: 400 distinct trees over the
built-in a/0 b/1 c/2 d/3 signature), counts related ordered pairs for all
27 named orders, audits the hierarchy, and writes the counts as TSV.  The
corpus can be dumped alongside the counts and replayed later, so census
results stay tied to an exact tree set.

    python3 scripts/run_census.py --seed 1 --out census.tsv --dump corpus.txt
    python3 scripts/run_census.py --corpus corpus.txt   # replay
"""

import argparse
import sys
import time

from treewqo import (
    GeneratorConfig,
    census,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    load_trees,
    save_trees,
    write_census_tsv,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=400, help="corpus size")
    ap.add_argument("--cap", type=int, default=1000, help="tree size cap")
    ap.add_argument("--out", default=None, help="TSV output path (default stdout)")
    ap.add_argument("--dump", default=None, help="write the generated corpus here")
    ap.add_argument("--corpus", default=None, help="replay a dumped corpus instead of generating")
    ap.add_argument("--no-audit", action="store_true")
    args = ap.parse_args()

    sig = default_signature()
    cfg = GeneratorConfig(sig, seed=args.seed, corpus_size=args.n, size_cap=args.cap)
    started = time.perf_counter()
    if args.corpus:
        corpus = load_trees(args.corpus, sig)
        cfg = None
    else:
        corpus = generate_corpus(cfg)
    print(f"corpus: {len(corpus)} trees, "
          f"mean size {sum(t.size for t in corpus) / max(len(corpus), 1):.1f}, "
          f"{'read' if args.corpus else 'generated'} in {time.perf_counter() - started:.2f}s",
          file=sys.stderr)
    if args.dump and not args.corpus:
        save_trees(args.dump, corpus)

    started = time.perf_counter()
    result = census(corpus, config=cfg)
    census_s = time.perf_counter() - started
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_census_tsv(result, fh)
    else:
        write_census_tsv(result)
    print(f"census of {len(result.counts)} orders in {census_s:.2f}s", file=sys.stderr)

    if not args.no_audit:
        started = time.perf_counter()
        report = hierarchy_audit(result, corpus)
        print(f"audit in {time.perf_counter() - started:.2f}s", file=sys.stderr)
        print(report.summary(), file=sys.stderr)
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
