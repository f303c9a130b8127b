import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    GeneratorConfig,
    Signature,
    Tree,
    WqoSpec,
    all_named_specs,
    census,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    parse_tree,
    parse_wqo_name,
    rel,
    rel_repeated,
    rel_set,
    render_tree,
    write_census_tsv,
)

from .oracles import dp_is_subsequence, naive_embeds
from .strategies import trees_over


@pytest.fixture(scope="module")
def small_corpus():
    cfg = GeneratorConfig(default_signature(), seed=20240809, corpus_size=120)
    return generate_corpus(cfg), cfg


@pytest.fixture(scope="module")
def small_census(small_corpus):
    corpus, cfg = small_corpus
    return census(corpus, config=cfg)


def test_counts_bounded(small_census):
    n = small_census.corpus_size
    for name, count in small_census.counts.items():
        assert n <= count <= n * n, name


def test_covers_all_named_orders(small_census):
    assert len(small_census.counts) == 27


def test_single_tree_corpus(sig):
    corpus = [parse_tree("a", sig)]
    result = census(corpus, [parse_wqo_name("H")])
    assert result.counts == {"H": 1}


def test_counts_deterministic(small_corpus):
    corpus, cfg = small_corpus
    again = census(generate_corpus(cfg), config=cfg)
    assert again.counts == census(corpus, config=cfg).counts


def test_combined_counts_dominated(small_census):
    counts = small_census.counts
    for name in counts:
        for letter in name:
            assert counts[name] <= counts[parse_wqo_name(letter).name]


def test_matrix_spot_check(small_corpus):
    # a census matrix entry must agree with the pairwise relation
    corpus, cfg = small_corpus
    spec = parse_wqo_name("YZP")
    result = census(corpus, [spec], config=cfg)
    m = result.matrices["YZP"]
    idx = [3, 17, 31, 55, 80, 99]
    for i in idx:
        for j in idx:
            assert m[i, j] == rel(spec, corpus[i], corpus[j])


@pytest.mark.parametrize("k", [2, 3])
def test_key_matrices_match_pairwise_relations(small_corpus, k):
    # Z and Y are decided from one key per tree; every entry must agree
    corpus, _ = small_corpus
    base = census(corpus, [parse_wqo_name("YZ", k)]).base_matrices
    assert base["Z"].tolist() == [[rel_set(s, t) for t in corpus] for s in corpus]
    assert base["Y"].tolist() == [[rel_repeated(s, t, k) for t in corpus] for s in corpus]


def test_m_only_census_keeps_its_expansion(small_corpus):
    # M alone still yields its expansion Z, S, which the audit's identities read
    corpus, _ = small_corpus
    base = census(corpus, [parse_wqo_name("M")]).base_matrices
    assert set(base) == {"M", "Z", "S"}
    assert (base["M"] == (base["Z"] & base["S"])).all()


# two constructors of every arity, so that trees of one shape differ in labels
TWINS = Signature([("a", 0), ("e", 0), ("b", 1), ("f", 1), ("c", 2), ("g", 2)])


CHAINED = "SBPEH"


def _naive_verdicts(s, t):
    """Per-pair reference verdicts of the pairwise-decided letters the census
    chains (H => E => P => B, S), each found without the census or its kernels."""
    return {
        "S": s.size < t.size or render_tree(s) == render_tree(t),
        "B": Counter(n.root for n in s.nodes()) <= Counter(n.root for n in t.nodes()),
        "P": dp_is_subsequence(s.pre, t.pre),
        "E": dp_is_subsequence(s.eul, t.eul),
        "H": naive_embeds(s, t),
    }


def _assert_chain_matches_naive(corpus):
    base = census(corpus).base_matrices
    for i, s in enumerate(corpus):
        for j, t in enumerate(corpus):
            got = {letter: bool(base[letter][i, j]) for letter in CHAINED}
            assert got == _naive_verdicts(s, t), (render_tree(s), render_tree(t))


class TestSharedEmbeddingMemo:
    """The census decides P, E and H only where the letters they imply hold,
    and H over hash-consed copies of the corpus with one memo for the whole
    call.  Every entry of the chained matrices must agree with a per-pair
    reference verdict, since the audit's implications among them now hold
    by construction."""

    @given(data=st.data())
    @settings(max_examples=60)
    def test_h_matrix_on_shared_subtrees(self, data):
        forest = [data.draw(trees_over(TWINS)) for _ in range(3)]
        duplicates = [parse_tree(render_tree(t), TWINS) for t in forest]
        _assert_chain_matches_naive(forest + duplicates + list(forest[0].nodes()))

    def test_h_matrix_on_equal_size_trees(self):
        texts = ["c(b(a),a)", "c(a,b(a))", "g(b(a),a)", "c(f(a),a)", "c(b(e),a)",
                 "c(b(a),e)", "b(b(b(a)))", "f(c(a,a))", "c(b(a),a)"]
        _assert_chain_matches_naive([parse_tree(x, TWINS) for x in texts])

    def test_deep_chains(self, sig):
        # too deep for the recursive reference: b^k(a) <= b^j(a) iff k <= j
        # under every chained letter
        depths = [0, 1, 7, 1000, 4999, 5000]
        corpus = [parse_tree("b(" * k + "a" + ")" * k, sig) for k in depths]
        base = census(corpus).base_matrices
        for letter in CHAINED:
            assert base[letter].tolist() == [[k <= j for j in depths] for k in depths], letter

    def test_h_only_census_matches_full(self, small_corpus, small_census):
        # naming H alone builds the letters it implies first, with the same result
        base = census(small_corpus[0], [parse_wqo_name("H")]).base_matrices
        assert set(base) == set(CHAINED)
        for letter in CHAINED:
            assert (base[letter] == small_census.base_matrices[letter]).all(), letter

    def test_decided_pairs(self, small_census):
        # each chained kernel runs exactly on the pairs its implied letters leave open
        n, base, decided = small_census.corpus_size, small_census.base_matrices, small_census.decided
        assert set(decided) == {"S", "B", "M", "P", "E", "H"}
        assert decided["S"] == decided["B"] == decided["M"] == n * n
        assert decided["P"] == (base["B"] & base["S"]).sum()
        assert decided["E"] == base["P"].sum()
        assert decided["H"] == base["E"].sum()
        assert n * n > decided["P"] > decided["E"] > decided["H"] >= n

    def test_caller_trees_untouched(self, sig):
        corpus = [parse_tree(x, sig) for x in ["c(b(a),a)", "b(a)", "c(b(a),a)", "d(a,b(a),a)"]]
        before = [[id(n) for n in t.nodes()] for t in corpus]
        kept = list(corpus)
        result = census(corpus)
        assert all(t is u for t, u in zip(corpus, kept)) and len(corpus) == len(kept)
        assert [[id(n) for n in t.nodes()] for t in corpus] == before

        def values(x):
            if isinstance(x, dict):
                for v in x.values():
                    yield from values(v)
            else:
                yield x

        held = list(values(vars(result)))
        assert not any(isinstance(v, Tree) for v in held)
        assert all(m.dtype == bool for m in [*result.matrices.values(), *result.base_matrices.values()])


class TestAudit:
    def test_passes_on_random_corpus(self, small_census, small_corpus):
        report = hierarchy_audit(small_census, small_corpus[0])
        assert report.ok, report.summary()
        assert report.implications_checked > 0
        assert not report.violations

    def test_identities_exact(self, small_census, small_corpus):
        report = hierarchy_audit(small_census, small_corpus[0])
        assert report.identities == {"M=ZS": True, "MP=ZP": True, "MB=ZSB": True}

    def test_strictness_reported(self, small_census, small_corpus):
        report = hierarchy_audit(small_census, small_corpus[0])
        verified = {(f, c) for f, c, _ in report.strict_verified}
        unverified = set(report.strict_unverified)
        assert verified or unverified
        assert not verified & unverified

    def test_recomputes_from_corpus(self, small_corpus):
        corpus, cfg = small_corpus
        bare = census(corpus, config=cfg)
        bare.matrices = {}
        report = hierarchy_audit(bare, corpus)
        assert report.ok

    def test_recompute_keeps_y_threshold(self, small_corpus):
        # the recomputed matrices must be those of the census's own Y threshold
        corpus, cfg = small_corpus
        result = census(corpus, [WqoSpec(s.components, 3) for s in all_named_specs()], config=cfg)
        assert result.y_threshold == 3
        expected = hierarchy_audit(result)
        result.matrices = {}
        assert hierarchy_audit(result, corpus) == expected

    def test_recomputes_partial_census(self, small_corpus):
        corpus, _ = small_corpus
        partial = census(corpus, [parse_wqo_name("S"), parse_wqo_name("H")])
        assert hierarchy_audit(partial, corpus).ok

    def test_requires_full_registry(self, small_corpus):
        corpus, _ = small_corpus
        partial = census(corpus, [parse_wqo_name("S")])
        with pytest.raises(ValueError, match="named orders"):
            hierarchy_audit(partial)


def test_tsv_format(small_census):
    buf = io.StringIO()
    write_census_tsv(small_census, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=20240809"
    assert lines[1] == "# corpus=120"
    assert lines[2] == "# cap=1000"
    assert lines[3] == "wqo_name\tpair_count"
    rows = [l.split("\t") for l in lines[4:]]
    assert len(rows) == 27
    counts = [int(c) for _, c in rows]
    assert counts == sorted(counts)


def test_mixed_thresholds_rejected(small_corpus):
    corpus, _ = small_corpus
    with pytest.raises(ValueError, match="y_threshold"):
        census(corpus, [parse_wqo_name("Y", 2), parse_wqo_name("YS", 3)])
