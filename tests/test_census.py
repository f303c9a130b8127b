import io

import pytest

from treewqo import (
    GeneratorConfig,
    WqoSpec,
    all_named_specs,
    census,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    parse_tree,
    parse_wqo_name,
    rel,
    write_census_tsv,
)


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
