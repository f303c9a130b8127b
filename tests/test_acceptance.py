"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria and tolerances are pinned here; nothing is deferred to later
calibration.  The census criterion is structural: the published pair
counts came from an unpublished seed, so the checks are bounds, ordering,
exact pair-set identities and directly-verified witness pairs rather than
numeric equality.
"""

import time

import pytest

from treewqo import (
    ConstructorBag,
    GeneratorConfig,
    SequenceChecker,
    SplitMix64,
    Tree,
    all_named_specs,
    bench_whistle,
    census,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    implies,
    is_subsequence,
    multiset_leq,
    multiset_subset,
    NaiveChecker,
    parse_tree,
    parse_wqo_name,
    random_tree,
    rel,
    rel_bag,
    rel_embed,
    rel_euler,
    rel_preorder,
    rel_set,
    rel_size,
    rel_sized_set,
)

from .oracles import dp_is_subsequence, naive_embeds

SIG = default_signature()


def report(num, label, started):
    print(f"\nACCEPTANCE {num} {label}: PASS ({time.perf_counter() - started:.2f}s)")


def random_pairs(seed, count, cap):
    cfg = GeneratorConfig(SIG, seed=seed, size_cap=cap, distinct=False)
    rng = SplitMix64(seed)
    return [(random_tree(cfg, rng), random_tree(cfg, rng)) for _ in range(count)]


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    A = parse_tree("b(b(a))", SIG)
    B = parse_tree("c(b(a),b(a))", SIG)
    C = parse_tree("d(b(a),b(a),b(a))", SIG)

    assert not rel_embed(A, C)
    assert rel_euler(A, C)
    assert not rel_euler(A, B)
    assert rel_preorder(A, B)

    abb = ConstructorBag.of(SIG, {"a": 1, "b": 2})
    aaab = ConstructorBag.of(SIG, {"a": 3, "b": 1})
    a_ = ConstructorBag.of(SIG, {"a": 1})
    ab = ConstructorBag.of(SIG, {"a": 1, "b": 1})
    assert multiset_leq(abb, aaab)
    assert not multiset_subset(abb, aaab)
    assert multiset_subset(a_, ab)
    assert not multiset_leq(a_, ab)

    assert time.perf_counter() - started < 1.0
    report(1, "reference worked examples", started)


def test_criterion_2_hierarchy_implications():
    started = time.perf_counter()
    pairs = random_pairs(seed=271828, count=2200, cap=80)
    assert len(pairs) >= 2000
    for s, t in pairs:
        h, e, p = rel_embed(s, t), rel_euler(s, t), rel_preorder(s, t)
        b, sz, m, z = rel_bag(s, t), rel_size(s, t), rel_sized_set(s, t), rel_set(s, t)
        assert not h or e
        assert not e or p
        assert not p or b
        assert not p or sz
        assert not m or z
        assert not m or sz
        assert m == (z and sz)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, "hierarchy implications on 2200 random pairs", started)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    for s, t in random_pairs(seed=314159, count=1000, cap=12):
        assert rel_embed(s, t) == naive_embeds(s, t)

    rng = SplitMix64(161803)
    for _ in range(1000):
        lv = rng.next_u64() % 41
        lw = rng.next_u64() % 41
        v = tuple(rng.next_u64() % 6 for _ in range(lv))
        w = tuple(rng.next_u64() % 6 for _ in range(lw))
        assert is_subsequence(v, w) == dp_is_subsequence(v, w)
    report(3, "memoized embedding and greedy subsequence match oracles", started)


def test_criterion_4_whistle_differential():
    started = time.perf_counter()
    streams = []
    for i in range(100):
        cfg = GeneratorConfig(SIG, seed=9000 + i, size_cap=30, distinct=False)
        rng = SplitMix64(cfg.seed)
        streams.append([random_tree(cfg, rng) for _ in range(150)])

    for spec in all_named_specs():
        for stream in streams:
            fast, slow = SequenceChecker(spec), NaiveChecker(spec)
            for t in stream:
                a, b = fast.push(t), slow.push(t)
                assert a.whistled == b.whistled, (spec.name, a, b)
                for out in (a, b):
                    if out.whistled:
                        # positions count pushes, so a witness indexes the stream
                        assert rel(spec, stream[out.witness], t)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "optimized whistle matches naive on 27 orders x 100 streams", started)


def test_criterion_5_census_structure():
    started = time.perf_counter()
    cfg = GeneratorConfig(SIG, seed=1, corpus_size=400, size_cap=1000)
    corpus = generate_corpus(cfg)
    result = census(corpus)

    n = cfg.corpus_size
    assert set(result.counts) == set(s.name for s in all_named_specs())
    for name, count in result.counts.items():
        assert n <= count <= n * n, name

    specs = list(all_named_specs())
    for s1 in specs:
        for s2 in specs:
            if s1.name != s2.name and implies(s1, s2):
                assert result.counts[s1.name] <= result.counts[s2.name], (s1.name, s2.name)

    audit = hierarchy_audit(result)
    assert audit.ok, audit.summary()
    assert audit.identities == {"M=ZS": True, "MP=ZP": True, "MB=ZSB": True}

    # canonical separating pairs for the strict edges, verified directly
    A = parse_tree("b(b(a))", SIG)
    B = parse_tree("c(b(a),b(a))", SIG)
    C = parse_tree("d(b(a),b(a),b(a))", SIG)
    D = parse_tree("c(b(b(a)),a)", SIG)
    D_plus = parse_tree("c(b(b(b(a))),a)", SIG)
    assert rel_euler(A, C) and not rel_embed(A, C)          # H strictly below E
    assert rel_preorder(A, B) and not rel_euler(A, B)       # E strictly below P
    assert rel_bag(B, D) and not rel_preorder(B, D)         # P strictly below B
    assert rel(parse_wqo_name("SB"), B, D_plus) and not rel_preorder(B, D_plus)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, "400-tree census bounds, ordering, identities, witnesses", started)


def test_criterion_6_eventual_whistle():
    started = time.perf_counter()
    stream = [parse_tree("a", SIG)]
    for _ in range(9):
        stream.append(Tree(SIG, SIG.index("c"), (stream[-1], stream[-1])))
    for spec in all_named_specs():
        chk = SequenceChecker(spec)
        assert any(chk.push(t).whistled for t in stream), spec.name
    report(6, "iterated doubling whistles within 10 pushes for all 27", started)


def test_criterion_7_whistle_scaling():
    started = time.perf_counter()
    ratios = []
    for name in ("S", "M"):
        rep = bench_whistle(parse_wqo_name(name), n=5000, tree_size=50)
        assert all(wh == 0 for _, _, _, wh, _ in rep.rows), "stream must be all-admitted"
        opt, naive = rep.ratio("optimized"), rep.ratio("naive")
        # the CPU seconds of both checkers at n and 2n, and the naive runs'
        # ns per comparison, to tell which run slowed
        runs = "; ".join(
            f"{c} at {l}: {secs:.6f} s" + (f", {1e9 * secs / comps:.1f} ns/comparison"
                                           if comps else ", 0 comparisons")
            for c, l, secs, _, comps in rep.rows)
        assert opt < 3.0, f"{name}: optimized time(2n)/time(n) = {opt:.2f} ({runs})"
        assert naive > 3.5, f"{name}: naive time(2n)/time(n) = {naive:.2f} ({runs})"
        ratios.append(f"{name} optimized {opt:.2f} naive {naive:.2f}")
    report(7, f"near-linear optimized vs quadratic naive scaling ({', '.join(ratios)})",
           started)


def test_criterion_8_generator_mean_size():
    # the analytic mean 1/(1 - 0.95) = 20 describes the unbounded branching
    # process; the near-critical tail is heavy enough that capping at the
    # census default of 1000 would bias the mean ~20% low, so the sanity
    # check runs effectively uncapped
    started = time.perf_counter()
    cfg = GeneratorConfig(SIG, seed=577215, size_cap=10_000_000)
    assert cfg.mean_size == pytest.approx(20.0)
    rng = SplitMix64(cfg.seed)
    sizes = [random_tree(cfg, rng).size for _ in range(10_000)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 20.0) / 20.0 < 0.20, f"empirical mean {mean:.2f}"
    report(8, f"empirical mean size {mean:.1f} within 20% of 20", started)
