import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    CensusResult,
    GeneratorConfig,
    Signature,
    Tree,
    WqoSpec,
    all_named_specs,
    census,
    default_config,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    parse_tree,
    parse_wqo_name,
    rel,
    rel_repeated,
    rel_set,
    rel_size,
    rel_sized_set,
    render_tree,
)
import treewqo
import treewqo.signature
from treewqo import orders
from treewqo.census import _subsequence_matrix
from treewqo.orders import named_implications
from treewqo.signature import _build

from .oracles import dp_is_subsequence, naive_embeds
from .strategies import symbol_strings, trees_over

CENSUS = sys.modules["treewqo.census"]  # the package's `census` is the function


@pytest.fixture(scope="module")
def small_corpus():
    cfg = GeneratorConfig(default_signature(), seed=20240809, corpus_size=120)
    return generate_corpus(cfg), cfg


@pytest.fixture(scope="module")
def small_census(small_corpus):
    corpus, _ = small_corpus
    return census(corpus)


def test_counts_bounded(small_census):
    n = small_census.corpus_size
    for name, count in small_census.counts.items():
        assert type(count) is int, name  # not a numpy int, which json cannot write
        assert n <= count <= n * n, name


def test_covers_all_named_orders(small_census):
    assert len(small_census.counts) == 27


@pytest.mark.parametrize("texts, count", [(["a"], 1), ([], 0)], ids=["one-tree", "empty"])
def test_single_tree_corpus(sig, texts, count):
    corpus = [parse_tree(x, sig) for x in texts]
    result = census(corpus, [parse_wqo_name("H")])
    assert result.counts == {"H": count}


# the nullary-only signature has no child slot for the H table to pad
DEGENERATE = {"empty": ([], None), "one-tree": (["c(b(a),a)"], None),
              "nullary-only": (["x", "y", "x"], Signature([("x", 0), ("y", 0)]))}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_corpus_full_census_and_audit(sig, name):
    texts, signature = DEGENERATE[name]
    corpus = [parse_tree(x, signature or sig) for x in texts]
    n = len(corpus)
    result = census(corpus)
    # only equal trees are related (the diagonal, and x with the other x),
    # except under Y, which relates any two trees without a repeated constructor
    equal = sum(render_tree(s) == render_tree(t) for s in corpus for t in corpus)
    expected = {spec.name: equal for spec in all_named_specs()}
    expected["Y"] = sum(rel_repeated(s, t, 2) for s in corpus for t in corpus)
    assert result.counts == expected
    assert all(m.shape == (n, n) and m.dtype == bool
               for m in [*result.matrices.values(), *result.base_matrices.values()])
    _assert_base_matches_naive(corpus)
    report = hierarchy_audit(result)
    assert report.ok, report.summary()
    assert report.implications_checked == len(named_implications()[0])


def test_pinned_counts():
    # the 27 counts of one small generated corpus, fixed so that a rewrite
    # of any kernel or of the census cannot drift unnoticed
    cfg = default_config(seed=1, corpus_size=40, size_cap=200)
    assert census(generate_corpus(cfg)).counts == {
        "B": 646, "E": 412, "H": 349, "M": 289, "MB": 239, "P": 483, "S": 797,
        "SB": 642, "Y": 404, "YB": 163, "YE": 60, "YH": 58, "YM": 174, "YMB": 134,
        "YP": 71, "YS": 211, "YSB": 159, "YZ": 326, "YZB": 138, "YZE": 46, "YZH": 44,
        "YZP": 55, "Z": 560, "ZB": 243, "ZE": 95, "ZH": 74, "ZP": 127,
    }


def test_counts_deterministic(small_corpus):
    corpus, cfg = small_corpus
    again = census(generate_corpus(cfg))
    assert again.counts == census(corpus).counts


def test_combined_counts_dominated(small_census):
    counts = small_census.counts
    for name in counts:
        for letter in name:
            assert counts[name] <= counts[parse_wqo_name(letter).name]


def test_matrix_spot_check(small_corpus):
    # a census matrix entry must agree with the pairwise relation
    corpus, _ = small_corpus
    spec = parse_wqo_name("YZP")
    result = census(corpus, [spec])
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


# two constructors of every arity, so that trees of one shape differ in labels
TWINS = Signature([("a", 0), ("e", 0), ("b", 1), ("f", 1), ("c", 2), ("g", 2)])

# keys of lengths 1, 2, 5 and 7: the H table pads them by gaps of 0 to 6
WIDE = Signature([("a", 0), ("b", 1), ("q", 4), ("s", 6)])

# trees of equal size, equal shape or equal labels, one of them twice
TWIN_TEXTS = ["c(b(a),a)", "c(a,b(a))", "g(b(a),a)", "c(f(a),a)", "c(b(e),a)",
              "c(b(a),e)", "b(b(b(a)))", "f(c(a,a))", "c(b(a),a)"]


def _backings(t):
    """t as a parsed, code-backed tree and as a node-backed one."""
    sig = t.sig
    return parse_tree(render_tree(t), sig), _build(sig, t.pre)


def _size_corpora(corpus):
    """The small corpus, the equal-size twins, and a corpus that holds one
    tree twice, once node-backed and once parsed."""
    parsed, built = _backings(corpus[5])
    twice = corpus[:5] + [built] + corpus[6:12] + [parsed]
    assert twice[5] == twice[-1] and type(twice[5]) is Tree and type(twice[-1]) is not Tree
    return {"small": corpus, "twins": [parse_tree(x, TWINS) for x in TWIN_TEXTS],
            "twice": twice}


@pytest.mark.parametrize("name", ["small", "twins", "twice"])
def test_size_matrices_match_pairwise_relations(small_corpus, name):
    # S and M come from the trees' preorder codes and the Z key, so the audit's
    # M=ZS identity holds by construction; here every entry meets its kernel
    corpus = _size_corpora(small_corpus[0])[name]
    base = census(corpus, [parse_wqo_name("M")]).base_matrices
    assert base["S"].tolist() == [[rel_size(s, t) for t in corpus] for s in corpus]
    assert base["M"].tolist() == [[rel_sized_set(s, t) for t in corpus] for s in corpus]


def test_census_makes_no_pairwise_call(monkeypatch, small_corpus):
    """A census of all 27 orders and its audit decide every letter without
    a pairwise kernel, with the same matrices and report as unguarded, and
    so do `S`-, `M`- and `H`-only censuses.  None of them builds a node of
    a parsed or generated tree.

    Each guard stands for a per-corpus cost measured on the benchmark's
    24-tree census corpora (CPU time, best of 5, strings already made):
    - `is_subsequence`, `rel_preorder`, `rel_euler`: 576 greedy scans a
      letter took `P` 394 us and `E` 639 us, against 192 and 361 us for
      one bit-parallel scan per right string;
    - `rel_size`, `rel_sized_set`: 576 calls each took `S` 139 us and
      `M` 335 us, `M` recomputing both trees' supports on every smaller
      pair; one outer `<` of the sizes and equal preorder codes decide both;
    - `signature._build`: a numbering that walked `children` built every
      node of a parsed corpus for an `H` census.
    """
    corpus, cfg = small_corpus
    expected = census(corpus)
    expected_report = hierarchy_audit(expected)
    partial = {letter: census(corpus, [parse_wqo_name(letter)]).base_matrices
               for letter in "SMH"}

    def refuse(*args, **kwargs):
        raise AssertionError("the census called a pairwise kernel")

    def refuse_nodes(*args):
        raise AssertionError("the census built nodes of a tree")

    names = ("rel_size", "rel_sized_set", "rel_preorder", "rel_euler", "is_subsequence")
    for module in (orders, CENSUS, treewqo):
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(orders, "_BASE_RELS", {})
    monkeypatch.setattr(treewqo.signature, "_build", refuse_nodes)
    generated = generate_corpus(cfg)
    parsed = [parse_tree(render_tree(t), t.sig) for t in corpus]
    for trees in (generated, parsed):
        result = census(trees)
        for got, want in ((result.base_matrices, expected.base_matrices),
                          (result.matrices, expected.matrices)):
            assert got.keys() == want.keys()
            assert all((got[k] == want[k]).all() for k in want)
        assert result.counts == expected.counts
        assert hierarchy_audit(result) == expected_report
        for letter, want in partial.items():
            got = census(trees, [parse_wqo_name(letter)]).base_matrices
            assert got.keys() == want.keys()
            assert all((got[k] == want[k]).all() for k in want)
    with pytest.raises(AssertionError, match="built nodes"):
        parsed[0].children


class TestSubsequenceMatrix:
    """The P and E columns of one bit-parallel scan against the table-filling
    reference, pair by pair."""

    @staticmethod
    def _check(strings, got):
        assert got.dtype == bool and got.shape == (len(strings), len(strings))
        assert got.tolist() == [[dp_is_subsequence(v, w) for w in strings] for v in strings]

    @given(data=st.data())
    @settings(max_examples=150)
    def test_matches_reference(self, data):
        strings = data.draw(st.lists(symbol_strings(max_len=12, alphabet=4), max_size=10))
        # a symbol of one string only, and a string twice
        for i in data.draw(st.sets(st.integers(0, 9))):
            if i < len(strings):
                at = data.draw(st.integers(0, len(strings[i])))
                strings[i] = strings[i][:at] + (100 + i,) + strings[i][at:]
        if strings and data.draw(st.booleans()):
            strings.append(strings[data.draw(st.integers(0, len(strings) - 1))])
        self._check(strings, _subsequence_matrix(strings))

    @pytest.mark.parametrize("strings", [[], [()], [(3, 1, 3)], [(), ()]],
                             ids=["none", "empty", "one", "two-empty"])
    def test_few_strings(self, strings):
        self._check(strings, _subsequence_matrix(strings))

    @pytest.mark.parametrize("rows", [None, 1, 2], ids=["all", "one", "two"])
    def test_long_strings(self, monkeypatch, rows):
        # fields of 5 000 bits and more straddle many 30-bit digits; the
        # final states are read all at once, or one or two at a time
        rng = random.Random(5)
        a = tuple(rng.randrange(4) for _ in range(5003))
        b = a[:100] + a[101:2000] + a[2001:4000] + a[4001:]  # a less three symbols
        c = b + (9,)  # 9 occurs nowhere in a
        longs = [a, b, c]
        shorts = [(), (9,), a[:7], a[-5:][::-1], (3, 3, 3, 3)]
        strings = longs + shorts + [b]
        if rows is not None:
            width = (sum(map(len, strings)) + len(strings) + 7) // 8  # the bytes of a state
            monkeypatch.setattr(CENSUS, "_SCAN_BYTES", rows * width)
        got = _subsequence_matrix(strings).tolist()
        # between long strings by construction: b is in a and is c's prefix
        among = {(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)}
        for i, v in enumerate(strings):
            for j, w in enumerate(strings):
                if v in longs and w in longs:
                    want = (longs.index(v), longs.index(w)) in among
                else:
                    want = dp_is_subsequence(v, w)
                assert got[i][j] == want, (i, j)


def test_m_only_census_keeps_its_expansion(small_corpus):
    # M alone still yields its expansion Z, S, which the audit's identities read
    corpus, _ = small_corpus
    base = census(corpus, [parse_wqo_name("M")]).base_matrices
    assert set(base) == {"M", "Z", "S"}
    assert (base["M"] == (base["Z"] & base["S"])).all()


@pytest.mark.parametrize("name", [pytest.param(None, id="all"), "H",
                                  "S", "Z", "Y", "B", "M", "P", "E", "SB", "ZP"])
def test_only_h_numbers_subtrees(monkeypatch, small_corpus, name):
    """A census numbers the corpus's subtrees once if it names H, else never:
    S compares preorder codes, and the numbering serves H's table alone."""
    calls = []
    number = CENSUS._number_subtrees

    def counting(corpus):
        calls.append(len(corpus))
        return number(corpus)

    monkeypatch.setattr(CENSUS, "_number_subtrees", counting)
    corpus, _ = small_corpus
    census(corpus, name and [parse_wqo_name(name)])
    assert len(calls) == (name is None or "H" in name)


CHECKED = "SBPEH"


def _naive_verdicts(s, t):
    """Per-pair reference verdicts of the census letters checked here, each
    found without the census or its kernels."""
    return {
        "S": s.size < t.size or render_tree(s) == render_tree(t),
        "B": Counter(n.root for n in s.nodes()) <= Counter(n.root for n in t.nodes()),
        "P": dp_is_subsequence(s.pre, t.pre),
        "E": dp_is_subsequence(s.eul, t.eul),
        "H": naive_embeds(s, t),
    }


def _assert_base_matches_naive(corpus):
    """Censuses of the corpus, parsed and node-backed, against the reference."""
    want = {(i, j): _naive_verdicts(s, t)
            for i, s in enumerate(corpus) for j, t in enumerate(corpus)}
    for trees in zip(*map(_backings, corpus)):
        base = census(list(trees)).base_matrices
        for (i, j), verdicts in want.items():
            got = {letter: bool(base[letter][i, j]) for letter in CHECKED}
            assert got == verdicts, (render_tree(corpus[i]), render_tree(corpus[j]))


class TestSharedEmbeddingMemo:
    """The census decides every base letter on every pair, H from one table
    over the corpus's distinct subtrees.  Every entry of the S, B, P, E and
    H matrices must agree with a per-pair reference verdict."""

    @given(data=st.data())
    @settings(max_examples=60)
    def test_h_matrix_on_shared_subtrees(self, data):
        # the default signature's arity 3 and WIDE's 4 and 6 exercise the
        # table's child padding; WIDE's trees stay shallow, as each node may
        # have six children
        for sig, depth in ((TWINS, 3), (default_signature(), 3), (WIDE, 2)):
            forest = [data.draw(trees_over(sig, depth)) for _ in range(3)]
            duplicates = [parse_tree(render_tree(t), sig) for t in forest]
            _assert_base_matches_naive(forest + duplicates + list(forest[0].nodes()))

    def test_h_matrix_on_equal_size_trees(self):
        _assert_base_matches_naive([parse_tree(x, TWINS) for x in TWIN_TEXTS])

    def test_deep_chains(self, sig):
        # too deep for the recursive reference: b^k(a) <= b^j(a) iff k <= j
        # under every checked letter
        depths = [0, 1, 7, 1000, 4999, 5000]
        corpus = [parse_tree("b(" * k + "a" + ")" * k, sig) for k in depths]
        base = census(corpus).base_matrices
        for letter in CHECKED:
            assert base[letter].tolist() == [[k <= j for j in depths] for k in depths], letter

    def test_h_only_census_matches_full(self, small_corpus, small_census):
        # naming H alone builds exactly H, with the full census's matrix
        base = census(small_corpus[0], [parse_wqo_name("H")]).base_matrices
        assert set(base) == {"H"}
        assert (base["H"] == small_census.base_matrices["H"]).all()

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
        report = hierarchy_audit(small_census)
        assert report.ok, report.summary()
        assert report.implications_checked > 0
        assert not report.violations

    def test_identities_exact(self, small_census, small_corpus):
        report = hierarchy_audit(small_census)
        assert report.identities == {"M=ZS": True, "MP=ZP": True, "MB=ZSB": True}

    def test_strictness_reported(self, small_census, small_corpus):
        report = hierarchy_audit(small_census)
        verified = {(f, c) for f, c, _ in report.strict_verified}
        unverified = set(report.strict_unverified)
        assert verified or unverified
        assert not verified & unverified

    def test_finds_violations_and_counts_separations(self, small_census):
        implication_pairs, covering_edges = named_implications()
        mats = small_census.matrices
        # strictness: each separating count is the coarse order's pairs
        # outside the fine one
        report = hierarchy_audit(small_census)
        for fine, coarse, count in report.strict_verified:
            assert count == int((mats[coarse] & ~mats[fine]).sum()) > 0
        for fine, coarse in report.strict_unverified:
            assert not (mats[coarse] & ~mats[fine]).any()
        assert (len(report.strict_verified) + len(report.strict_unverified)
                == len(covering_edges))

        # a copy with one H pair that E lacks and one M pair outside Z & S
        mats = {name: m.copy() for name, m in mats.items()}
        base = {name: m.copy() for name, m in small_census.base_matrices.items()}
        i, j = map(int, np.argwhere(~mats["E"])[0])
        mats["H"][i, j] = True
        i, j = map(int, np.argwhere(~(base["Z"] & base["S"]))[-1])
        mats["M"][i, j] = True
        tampered = CensusResult(counts=dict(small_census.counts), corpus_size=small_census.corpus_size,
                                y_threshold=small_census.y_threshold, matrices=mats,
                                base_matrices=base)
        report = hierarchy_audit(tampered)
        expected = []
        for fine, coarse in implication_pairs:
            bad = mats[fine] & ~mats[coarse]
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                expected.append(f"implication {fine} => {coarse} violated at corpus pair ({i}, {j})")
        assert any("H => E" in v for v in expected)
        assert any("M => Z " in v for v in expected)
        assert report.violations == expected
        assert report.identities["M=ZS"] is False
        assert not report.ok

    def test_requires_full_registry(self, small_census, small_corpus):
        # the audit decides no pair itself, so it refuses what it would need
        corpus, _ = small_corpus
        partial = census(corpus, [parse_wqo_name("S")])
        with pytest.raises(ValueError, match=r"named orders \(missing \['B', "):
            hierarchy_audit(partial)
        with pytest.raises(ValueError, match="missing its base matrices"):
            hierarchy_audit(replace(small_census, base_matrices={}))


def test_mixed_signatures_rejected(sig):
    # the H table numbers subtrees by root index, which only one signature fixes
    other = Signature([("x", 0), ("y", 1)])
    with pytest.raises(ValueError, match="one signature"):
        census([parse_tree("b(a)", sig), parse_tree("y(x)", other)])


def test_mixed_thresholds_rejected(small_corpus):
    corpus, _ = small_corpus
    with pytest.raises(ValueError, match="y_threshold"):
        census(corpus, [parse_wqo_name("Y", 2), parse_wqo_name("YS", 3)])


def test_unused_thresholds_need_not_agree(small_corpus):
    # a spec without Y ignores its threshold, so only specs naming Y must agree
    corpus, _ = small_corpus
    result = census(corpus, [parse_wqo_name("S"), parse_wqo_name("H", 3)])
    assert result.y_threshold == 2
    assert result.counts == census(corpus, [parse_wqo_name("S"), parse_wqo_name("H")]).counts
    mixed = census(corpus, [parse_wqo_name("YS", 3), parse_wqo_name("H", 5), parse_wqo_name("M")])
    assert mixed.y_threshold == 3
    assert mixed.counts["YS"] == census(corpus, [parse_wqo_name("YS", 3)]).counts["YS"]
