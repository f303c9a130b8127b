"""Command-line front end; `build_parser` defines the subcommands.
Results go to stdout, diagnostics to stderr: census times its corpus,
census and audit on separate lines, bench prints the doubling ratios.
census prints its counts as TSV, ascending with ties by name; its
`--audit` audits all 27 named orders at `--k`, by a second census of
them when the first named fewer.

Exit codes: compare 0 related / 1 unrelated / 2 error; whistle 0 whistled
/ 1 stream exhausted / 2 error; census and bench 0 ok / 1 audit failure /
2 error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bench import bench_whistle
from .census import census, hierarchy_audit
from .generate import GeneratorConfig, generate_corpus
from .orders import WqoSpec, all_named_specs, base_relation, parse_wqo_name
from .signature import (ParseError, Signature, default_signature, iter_trees, load_trees,
                        parse_tree, save_trees)
from .whistle import SequenceChecker


def _load_signature(path: str | None) -> Signature:
    return Signature.from_file(path) if path else default_signature()


def _spec(args) -> WqoSpec:
    return parse_wqo_name(args.wqo, args.k)


def cmd_compare(args) -> int:
    sig = _load_signature(args.sig)
    spec = _spec(args)
    s = parse_tree(args.term1, sig)
    t = parse_tree(args.term2, sig)
    related = True
    for letter in spec.name:
        verdict = base_relation(letter, spec.y_threshold)(s, t)
        related = related and verdict
        print(f"{letter}: {'related' if verdict else 'unrelated'}")
    print("RELATED" if related else "UNRELATED")
    return 0 if related else 1


def cmd_whistle(args) -> int:
    sig = _load_signature(args.sig)
    checker = SequenceChecker(_spec(args))
    for t in iter_trees(args.stream, sig):
        outcome = checker.push(t)
        print(outcome)
        if outcome.whistled:
            return 0
    return 1


def cmd_census(args) -> int:
    sig = _load_signature(args.sig)
    named = [WqoSpec(s.components, args.k) for s in all_named_specs()]
    if args.wqo.strip().lower() == "all":
        specs = named
    else:
        specs = [parse_wqo_name(name.strip(), args.k) for name in args.wqo.split(",")]
    started = time.perf_counter()
    if args.corpus:
        corpus, cfg = load_trees(args.corpus, sig), None
    else:
        cfg = GeneratorConfig(sig, seed=args.seed, corpus_size=args.n, size_cap=args.cap)
        corpus = generate_corpus(cfg)
    print(f"corpus of {len(corpus)} trees {'read' if args.corpus else 'generated'} "
          f"in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    if args.dump:
        save_trees(args.dump, corpus)
    started = time.perf_counter()
    result = census(corpus, specs)
    print(f"census of {len(result.counts)} orders in {time.perf_counter() - started:.2f}s",
          file=sys.stderr)
    print(f"# seed={cfg.seed if cfg else 'unknown'}\n# corpus={len(corpus)}\n"
          f"# cap={cfg.size_cap if cfg else 'unknown'}\nwqo_name\tpair_count")
    for name, count in sorted(result.counts.items(), key=lambda kv: (kv[1], kv[0])):
        print(f"{name}\t{count}")
    if args.audit:
        started = time.perf_counter()
        if not all(s.name in result.matrices for s in named):
            result = census(corpus, named)
        report = hierarchy_audit(result)
        print(f"audit in {time.perf_counter() - started:.2f}s", file=sys.stderr)
        print(report.summary(), file=sys.stderr)
        if not report.ok:
            return 1
    return 0


def cmd_bench(args) -> int:
    sig = _load_signature(args.sig)
    report = bench_whistle(_spec(args), args.n, args.size, sig=sig)
    sys.stdout.write(report.to_tsv())
    if report.rows:
        print(f"# doubling ratios: optimized {report.ratio('optimized'):.2f}, "
              f"naive {report.ratio('naive'):.2f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewqo",
        description="Well-quasi orders on trees: pairwise comparison, whistle "
                    "runs, censuses and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, wqo_default=None):
        p.add_argument("--sig", metavar="PATH", default=None,
                       help="signature file (default: built-in a/0 b/1 c/2 d/3)")
        if wqo_default is None:
            p.add_argument("--wqo", required=True, metavar="NAME",
                           help="order name, e.g. H, SB, YZP")
        else:
            p.add_argument("--wqo", default=wqo_default, metavar="NAME")
        p.add_argument("--k", type=int, default=2,
                       help="repetition threshold for the Y component (default 2)")

    p = sub.add_parser("compare", help="compare two terms under one order")
    common(p)
    p.add_argument("term1")
    p.add_argument("term2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("whistle", help="run a checker over a tree stream file")
    common(p)
    p.add_argument("stream", help="tree file, one term per line")
    p.set_defaults(func=cmd_whistle)

    p = sub.add_parser("census", help="count related pairs over a random or given corpus")
    common(p, wqo_default="all")
    p.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    p.add_argument("--n", type=int, default=400, help="corpus size (default 400)")
    p.add_argument("--cap", type=int, default=1000, help="tree size cap (default 1000)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--corpus", metavar="PATH",
                        help="read the corpus from a tree file instead of generating "
                             "it; --seed, --n and --cap apply only to generation")
    source.add_argument("--dump", metavar="PATH", help="write the generated corpus here")
    p.add_argument("--audit", action="store_true",
                   help="verify hierarchy implications, identities and strictness")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bench", help="time optimized vs naive checkers at n and 2n in "
                                     "thread CPU time, both lengths in one interleaved pass")
    common(p)
    p.add_argument("--n", type=int, required=True, help="stream length")
    p.add_argument("--size", type=int, default=50, help="approximate tree size")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
