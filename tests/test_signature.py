import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    Constructor,
    ParseError,
    Signature,
    Tree,
    constructor_bag,
    constructor_set,
    euler_traversal,
    load_trees,
    parse_tree,
    pre_traversal,
    rel_embed,
    render_tree,
    repeated_set,
    save_trees,
    size,
    tree_equal,
    tree_hash,
)

from treewqo import signature
from treewqo.signature import _build, _check_constructor, _offset, _tokens

from .oracles import naive_euler, naive_parse, naive_preorder, naive_render, regex_is_name, regex_tokens
from .strategies import MULTI_SIG, NULLARY_SIG, trees, trees_over


# what term text is made of: delimiters, names, every whitespace class and
# zero-width characters that are not whitespace
TOKENIZER_PIECES = (
    ["(", ")", ",", "a", "b", "nil", "x1"]
    + list("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000 ")
    + [chr(c) for c in range(0x2000, 0x200B)]
    + ["\u200b", "\ufeff", "\u180e"]
)

TERM_TEXTS = st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=24).map("".join)

# every character str.split splits on
SPLIT_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if not c.split())


@st.composite
def mutated_terms(draw):
    """(signature, text): a rendered tree with at most one token dropped,
    duplicated, swapped or renamed to an unknown name, padded with
    whitespace around every token."""
    t = draw(st.one_of(trees(), trees_over(MULTI_SIG)))
    toks = [tok for tok, _ in regex_tokens(render_tree(t))][:-1]
    i, j = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
    mutation = draw(st.sampled_from(["none", "drop", "duplicate", "swap", "unknown"]))
    if mutation == "drop":
        del toks[i]
    elif mutation == "duplicate":
        toks.insert(i, toks[i])
    elif mutation == "swap":
        toks[i], toks[j] = toks[j], toks[i]
    elif mutation == "unknown":
        names = [k for k, tok in enumerate(toks) if tok not in "(),"]
        toks[draw(st.sampled_from(names))] = draw(st.sampled_from(["e", "x", "Nil", "a1"]))
    pads = draw(st.lists(st.text(st.sampled_from(SPLIT_SPACES), max_size=2),
                         min_size=len(toks) + 1, max_size=len(toks) + 1))
    return t.sig, pads[0] + "".join(tok + pad for tok, pad in zip(toks, pads[1:]))


def sym_str(ts):
    return [(s.constructor, s.visit) for s in ts]


class TestParsing:
    def test_leaf(self, sig):
        t = parse_tree("a", sig)
        assert t.name == "a" and t.children == ()

    def test_nested(self, sig):
        t = parse_tree("b(b(a))", sig)
        assert render_tree(t) == "b(b(a))"
        assert size(t) == 3

    def test_whitespace_insignificant(self, sig):
        assert parse_tree(" c( b(a) ,\tb(a) ) ", sig) == parse_tree("c(b(a),b(a))", sig)

    def test_arity_mismatch(self, sig):
        with pytest.raises(ParseError, match="arity mismatch for 'c'"):
            parse_tree("c(b(a))", sig)

    def test_arity_mismatch_reports_position(self, sig):
        with pytest.raises(ParseError) as exc:
            parse_tree("b(c(a))", sig)
        assert exc.value.position == 2

    def test_bare_name_with_positive_arity(self, sig):
        with pytest.raises(ParseError, match="arity mismatch for 'b'"):
            parse_tree("b", sig)

    def test_unknown_constructor(self, sig):
        with pytest.raises(ParseError, match="unknown constructor 'x'"):
            parse_tree("b(x)", sig)

    @pytest.mark.parametrize("bad, message, position", [
        pytest.param(bad, message, position, id=bad) for bad, message, position in [
            ("", "unexpected end of input", 0),
            ("b(", "unexpected end of input", 2),
            ("b(a", "unexpected end of input", 3),
            ("b(a))", "unexpected ')' after term", 4),
            ("a b", "unexpected 'b' after term", 2),
            ("c(a,,a)", "expected a constructor, found ','", 4),
            ("b()", "expected a constructor, found ')'", 2),
            (",", "expected a constructor, found ','", 0),
            ("c(a a)", "expected ',' or ')', found 'a'", 4),
            ("c(b(a))", "arity mismatch for 'c': expected 2, got 1", 0),
            ("b(c(a))", "arity mismatch for 'c': expected 2, got 1", 2),
            ("b", "arity mismatch for 'b': expected 1, got 0", 0),
            ("b(x)", "unknown constructor 'x'", 2),
        ]
    ])
    def test_syntax_errors(self, sig, bad, message, position):
        with pytest.raises(ParseError) as exc:
            parse_tree(bad, sig)
        assert str(exc.value) == f"{message} at position {position}"
        assert exc.value.position == position

    @pytest.mark.parametrize("bad, message, position", [
        pytest.param(bad, message, position, id=repr(bad)) for bad, message, position in [
            (" c( a ,  , a)", "expected a constructor, found ','", 9),
            ("b(  x )", "unknown constructor 'x'", 4),
            ("a\t b", "unexpected 'b' after term", 3),
            ("c(a,\n b", "arity mismatch for 'b': expected 1, got 0", 6),
            ("  b", "arity mismatch for 'b': expected 1, got 0", 2),
            ("c( b( a ) )", "arity mismatch for 'c': expected 2, got 1", 0),
            (" b(a) )", "unexpected ')' after term", 6),
            ("d(a, a a)", "expected ',' or ')', found 'a'", 7),
            ("b( a ", "unexpected end of input", 5),
            ("   ", "unexpected end of input", 3),
            # Unicode whitespace separates tokens; zero-width look-alikes
            # are not whitespace and belong to names
            ("b(\u3000x)", "unknown constructor 'x'", 3),
            ("a\u2028b", "unexpected 'b' after term", 2),
            ("c(a,\xa0\u205f", "unexpected end of input", 6),
            ("\x1cb(a)\x1d)", "unexpected ')' after term", 6),
            ("c(a\x85,\u1680\u2000)", "expected a constructor, found ')'", 7),
            ("d(a,\u2029a\x0ba)", "expected ',' or ')', found 'a'", 7),
            ("b(\u202f\x1f\x1e", "unexpected end of input", 5),
            ("c(\ta\x0c,\r\nb(a)\u2009\u200a)\u3000\x1ca",
             "unexpected 'a' after term", 17),
            ("b(a\u200b)", "unknown constructor 'a\\u200b'", 2),
            ("\ufeffa", "unknown constructor '\\ufeffa'", 0),
            ("\u180eb(a)", "unknown constructor '\\u180eb'", 0),
        ]
    ])
    def test_error_positions_count_whitespace(self, sig, bad, message, position):
        # the parser works on tokens; positions are character offsets
        with pytest.raises(ParseError) as exc:
            parse_tree(bad, sig)
        assert str(exc.value) == f"{message} at position {position}"
        assert exc.value.position == position

    @given(text=TERM_TEXTS)
    @settings(max_examples=500)
    def test_tokens_match_regex_oracle(self, text):
        tokens = _tokens(text)
        expected = regex_tokens(text)
        assert tokens == [tok for tok, _ in expected]
        assert [_offset(text, tokens, at) for at in range(len(tokens))] == \
               [start for _, start in expected]

    @given(case=mutated_terms())
    @settings(max_examples=500)
    def test_parse_matches_recursive_descent_oracle(self, case):
        sig, text = case
        expected = naive_parse(text, sig)
        try:
            t = parse_tree(text, sig)
        except ParseError as exc:
            assert isinstance(expected, tuple), f"only the oracle accepts {text!r}"
            message, position = expected
            assert str(exc) == f"{message} at position {position}"
            assert exc.position == position
        else:
            assert isinstance(expected, Tree), f"only parse_tree accepts {text!r}"
            assert t == expected and expected == t and t.pre == expected.pre

    def test_deep_errors_without_recursion(self, sig):
        n = 100_000
        text = "b(" * n + "a" + ")" * (n - 1)
        with pytest.raises(ParseError) as exc:
            parse_tree(text, sig)
        assert str(exc.value) == f"unexpected end of input at position {len(text)}"
        # the term closed too early is found by a scan back over its subterm
        with pytest.raises(ParseError) as exc:
            parse_tree("c(" + text + "))", sig)
        assert str(exc.value) == "arity mismatch for 'c': expected 2, got 1 at position 0"

    @given(t=trees())
    @settings(max_examples=200)
    def test_render_parse_round_trip(self, t):
        assert parse_tree(render_tree(t), t.sig) == t

    @given(t=st.one_of(trees(), trees_over(MULTI_SIG)))
    @settings(max_examples=200)
    def test_parsed_nodes_match_checked_construction(self, t):
        # t is built by Tree(), which checks every node; the parser skips
        # those checks and shares leaves
        text = render_tree(t)
        parsed = parse_tree(text, t.sig)
        # the root is backed by its codes: one tree with t to every reader,
        # its Euler string read off the codes before any node is built
        assert parsed.eul == t.eul and parsed.packed_bag == t.packed_bag
        assert parsed == t and t == parsed and hash(parsed) == hash(t)
        assert len({parsed, t}) == 1 and parsed in {t} and t in {parsed}
        built, got = list(t.nodes()), list(parsed.nodes())
        assert len(got) == len(built)
        for a, b in zip(built, got):
            assert (b.sig, b.root, b.size, constructor_set(b), hash(b), b.bag, b.pre,
                    b.eul) == (a.sig, a.root, a.size, constructor_set(a), hash(a), a.bag,
                               a.pre, a.eul)
        leaves = {}
        for node in got:
            if not node.children:
                assert leaves.setdefault(node.root, node) is node
        again = parse_tree(text, t.sig)
        assert not {id(n) for n in got} & {id(n) for n in again.nodes()}

    @given(t=st.one_of(trees(), trees_over(MULTI_SIG), trees_over(NULLARY_SIG)))
    @settings(max_examples=200)
    def test_render_matches_recursive_oracle(self, t):
        # the round trip cannot pin the exact text, such as stray whitespace
        want = naive_render(t)
        for u in (t, parse_tree(want, t.sig)):
            assert render_tree(u) == want

    def test_render_examples(self, sig, worked):
        assert render_tree(parse_tree("a", sig)) == "a"
        assert render_tree(worked["A"]) == "b(b(a))"
        assert render_tree(worked["C"]) == "d(b(a),b(a),b(a))"


OTHER_SIG = Signature([("x", 0), ("y", 1)])


@pytest.mark.parametrize("root, children, message", [
    pytest.param(2, lambda sig: (Tree(sig, 0),), "constructor 'c' takes 2 children, got 1",
                 id="child-count"),
    pytest.param(1, lambda sig: (Tree(OTHER_SIG, 0),), "child built over a different signature",
                 id="child-signature"),
    pytest.param(4, lambda sig: (), "constructor index 4 not in 0..3", id="root-4"),
    pytest.param(-1, lambda sig: (Tree(sig, 0),) * 3, "constructor index -1 not in 0..3",
                 id="root-minus-1"),
    *(pytest.param(root, lambda sig: (Tree(sig, 0),),
                   f"constructor index is not an int: {root!r}", id=f"root-{root!r}")
      for root in (True, False, 1.0, "1", None)),
])
def test_tree_constructor_checks(sig, root, children, message):
    with pytest.raises(ValueError) as exc:
        Tree(sig, root, children(sig))
    assert str(exc.value) == message


def test_tree_keeps_its_own_children(sig):
    a = Tree(sig, 0)
    kids = [a]
    t = Tree(sig, 1, kids)
    kids.append(a)
    assert t.children == (a,) and t.size == 2
    assert parse_tree(render_tree(t), sig) == t


def test_tree_refuses_a_child_that_is_no_tree(sig):
    with pytest.raises(TypeError, match="child of type 'str' is not a Tree"):
        Tree(sig, 1, ["a"])


@given(t=trees_over(MULTI_SIG))
@settings(max_examples=100)
def test_node_over_parsed_children_equals_its_parse(t):
    sig = t.sig
    node = Tree(sig, t.root, [parse_tree(render_tree(c), sig) for c in t.children])
    p = parse_tree(render_tree(node), sig)
    assert node == p and p == node and node == t
    assert hash(node) == hash(p) == hash(t)
    assert (node.pre, node.eul, node.bag, node.size) == (p.pre, p.eul, p.bag, p.size)


class TestBuild:
    @given(t=st.one_of(trees(), trees_over(MULTI_SIG)))
    @settings(max_examples=200)
    def test_preorder_indices_rebuild_the_tree(self, t):
        sig = t.sig
        built = _build(sig, t.pre)
        assert built == t
        for a, b in zip(t.nodes(), built.nodes()):
            assert (b.sig, b.root, b.size, b.bag, hash(b)) == (
                a.sig, a.root, a.size, a.bag, hash(a))

    @given(t=trees_over(MULTI_SIG))
    @settings(max_examples=100)
    def test_one_leaf_per_nullary_constructor(self, t):
        built = _build(MULTI_SIG, t.pre)
        leaves = {}
        for node in built.nodes():
            if not node.children:
                assert leaves.setdefault(node.root, node) is node
        again = _build(MULTI_SIG, t.pre)
        assert not {id(n) for n in built.nodes()} & {id(n) for n in again.nodes()}

    def test_deep_chain_without_recursion(self, sig):
        n = 200_000
        t = _build(sig, [1] * (n - 1) + [0])
        assert t.size == n and t.bag == (1, n - 1, 0, 0)
        assert t == parse_tree("b(" * (n - 1) + "a" + ")" * (n - 1), sig)


class TestSignature:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Signature([("a", 0), ("a", 1)])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Signature([("a", 0, 0.5), ("b", 1, 0.4)])

    def test_partial_probabilities_rejected(self):
        with pytest.raises(ValueError):
            Signature([("a", 0, 0.5), ("b", 1, None)])

    @pytest.mark.parametrize("arity", [2.0, "2", True, None])
    def test_arity_that_is_no_int_rejected(self, arity):
        with pytest.raises(ValueError) as exc:
            Signature([("a", 0), ("b", arity)])
        assert str(exc.value) == f"arity of 'b' is not an int: {arity!r}"

    @pytest.mark.parametrize("prob", ["0.5", True, False, 0.5 + 0j])
    def test_probability_that_is_no_real_number_rejected(self, prob):
        with pytest.raises(ValueError) as exc:
            Signature([("a", 0, 0.5), ("b", 1, prob)])
        assert str(exc.value) == f"probability of 'b' is not a real number: {prob!r}"

    @pytest.mark.parametrize("prob", [0, 1, 0.5])
    def test_int_and_float_probabilities_accepted(self, prob):
        sig = Signature([("a", 0, 1 - prob), ("b", 1, prob)])
        assert sig.probabilities == (1 - prob, prob)

    @given(name=st.lists(st.sampled_from(TOKENIZER_PIECES + ["#", "\ud800"]),
                         max_size=24).map("".join))
    @settings(max_examples=500)
    def test_names_match_regex_oracle(self, name):
        # a name is one name token of the term grammar, free of '#' and
        # lone surrogates
        try:
            _check_constructor(Constructor(name, 0), set())
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (regex_is_name(name) and "#" not in name and "\ud800" not in name)

    @pytest.mark.parametrize("name", ["x\r", "x\x0c", "x\xa0", "x\u2003", "x y", "x(", "x,", "x#", "",
                                      "x\ud800"])
    def test_names_outside_the_name_token_rejected(self, name):
        with pytest.raises(ValueError, match="bad constructor name"):
            Signature([("a", 0), (name, 1)])

    # arbitrary characters, lone surrogates included, mixed with every kind
    # the grammar reserves
    NAME_CHARS = st.one_of(st.characters(),
                           st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028(),#"))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_accepted_signatures_round_trip(self, data):
        names = data.draw(st.lists(st.text(self.NAME_CHARS, min_size=1, max_size=3),
                                   min_size=1, max_size=4, unique=True))
        arities = [0] + data.draw(st.lists(st.integers(0, 3), min_size=len(names) - 1,
                                           max_size=len(names) - 1))
        try:
            sig = Signature(list(zip(names, arities)))
        except ValueError:
            return  # a rejected signature has no trees to round-trip
        forest = [data.draw(trees_over(sig)) for _ in range(3)]
        for t in forest:
            assert parse_tree(render_tree(t), sig) == t
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trees.txt")
            save_trees(path, forest)
            assert load_trees(path, sig) == forest

    def test_parse_file_format(self, tmp_path):
        text = "# default corpus signature\na 0 0.50\nb 1 0.20\n\nc 2 0.15\nd 3 0.15\n"
        s = Signature.parse(text)
        assert s.names == ("a", "b", "c", "d")
        assert s.arities == (0, 1, 2, 3)
        assert s.probabilities == (0.5, 0.2, 0.15, 0.15)
        p = tmp_path / "sig.txt"
        p.write_text(text)
        assert Signature.from_file(p) == s

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            Signature.parse("a zero")
        with pytest.raises(ParseError, match="line 2"):
            Signature.parse("a 0\nb one two three four")

    @pytest.mark.parametrize("text, message", [
        ("a 0\nb -1", "line 2: negative arity for 'b'"),
        ("a 0\n# b\na 1", "line 3: duplicate constructor 'a'"),
        ("a 0\nb( 1", "line 2: bad constructor name 'b('"),
        ("a 0 0.5\n\nb 1 1.5", "line 3: probability of 'b' outside [0, 1]"),
        ("a 0 -0.5\nb 1 1.5", "line 1: probability of 'a' outside [0, 1]"),
        # errors about the whole text carry no line
        ("a 0 0.5\nb 1", "either all or no constructors take a probability"),
        ("a 0 0.5\nb 1 0.25", "probabilities sum to 0.75, expected 1"),
        ("# nothing\n", "signature needs at least one constructor"),
        # lines end only at "\n", "\r\n" and "\r"; other breaks are whitespace
        ("a 0\x0cb x", "line 1: expected 'name arity [probability]'"),
        ("a 0\n\x85b x", "line 2: bad arity 'x'"),
        ("a 0\u2028\r\nc x", "line 2: bad arity 'x'"),
        ("a 0\rb 1\r\n\rc x", "line 4: bad arity 'x'"),
    ])
    def test_parse_error_lines(self, text, message):
        with pytest.raises(ParseError) as exc:
            Signature.parse(text)
        assert str(exc.value) == message


class TestMeasures:
    def test_sizes(self, sig, worked):
        assert size(parse_tree("a", sig)) == 1
        assert size(worked["A"]) == 3
        assert size(worked["C"]) == 7

    def test_constructor_set(self, sig, worked):
        assert constructor_set(parse_tree("a", sig)) == {"a"}
        assert constructor_set(worked["A"]) == {"a", "b"}
        assert constructor_set(worked["B"]) == {"a", "b", "c"}

    def test_repeated_set(self, worked):
        assert repeated_set(worked["A"], 2) == {"b"}
        assert repeated_set(worked["B"], 2) == {"a", "b"}
        assert repeated_set(worked["C"], 2) == {"a", "b"}

    def test_repeated_set_rejects_small_k(self, worked):
        with pytest.raises(ValueError):
            repeated_set(worked["A"], 1)

    def test_constructor_bag(self, sig, worked):
        assert dict(zip(sig.names, constructor_bag(parse_tree("a", sig)).counts)) == {
            "a": 1, "b": 0, "c": 0, "d": 0}
        assert constructor_bag(worked["B"]).counts == (2, 2, 1, 0)
        assert constructor_bag(worked["A"]).counts == (1, 2, 0, 0)
        assert constructor_bag(worked["B"]) == constructor_bag(worked["D"])

    def test_pre_traversal(self, sig, worked):
        assert [s.constructor for s in pre_traversal(worked["A"])] == ["b", "b", "a"]
        assert [s.constructor for s in pre_traversal(parse_tree("a", sig))] == ["a"]
        # hand preorder walk: root, then left subtree, then right subtree
        assert [s.constructor for s in pre_traversal(worked["B"])] == ["c", "b", "a", "b", "a"]
        assert all(s.visit == 0 for s in pre_traversal(worked["C"]))

    def test_euler_traversal(self, sig, worked):
        assert sym_str(euler_traversal(worked["A"])) == [
            ("b", 0), ("b", 0), ("a", 0), ("b", 1), ("b", 1)]
        assert sym_str(euler_traversal(worked["B"])) == [
            ("c", 0), ("b", 0), ("a", 0), ("b", 1), ("c", 1),
            ("b", 0), ("a", 0), ("b", 1), ("c", 2)]
        assert sym_str(euler_traversal(parse_tree("a", sig))) == [("a", 0)]

    def test_hash_deterministic_and_construction_independent(self, sig, worked):
        t = worked["A"]
        assert tree_hash(t) == tree_hash(t)
        assert tree_hash(t) == tree_hash(parse_tree("b(b(a))", sig))

    def test_hash_stable_across_hash_seeds(self):
        code = ("from treewqo import default_signature, parse_tree, tree_hash; "
                "print(tree_hash(parse_tree('d(c(a,b(a)),a,b(b(a)))', default_signature())))")
        outputs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "12345")
        ]
        assert outputs[0] == outputs[1] != ""

    def test_trees_of_one_bag_are_distinct(self, sig):
        # one bag, three shapes: identity is the preorder codes, not the bag
        texts = ["c(a,b(a))", "c(b(a),a)", "b(c(a,a))"]
        parsed = [parse_tree(x, sig) for x in texts]
        built = [Tree(sig, t.root, t.children) for t in parsed]
        assert len({t.packed_bag for t in parsed + built}) == 1
        for backing in (parsed, built):
            assert all(s != t for k, s in enumerate(backing) for t in backing[k + 1:])
            assert len(set(backing)) == 3
        assert [hash(t) for t in parsed] == [hash(t) for t in built]
        assert [tree_hash(t) for t in parsed] == [hash(t) for t in built]
        assert set(parsed) == set(built)

    def test_tree_equal(self, sig, worked):
        a = parse_tree("a", sig)
        assert tree_equal(a, parse_tree("a", sig))
        assert not tree_equal(parse_tree("b(a)", sig), a)
        assert tree_equal(worked["B"], parse_tree("c(b(a),b(a))", sig))
        assert not tree_equal(worked["B"], worked["D"])


class TestMeasureProperties:
    @given(t=trees())
    @settings(max_examples=200)
    def test_size_consistency(self, t):
        assert size(t) == constructor_bag(t).total() == len(pre_traversal(t))
        # the cached measures are plain tuples, which the measure functions decode
        assert all(type(m) is tuple for m in (t.bag, t.pre, t.eul))
        assert t.bag == constructor_bag(t).counts
        index, stride = t.sig.index, t.sig.sym_stride
        assert t.pre == tuple(index(s.constructor) for s in pre_traversal(t))
        assert t.eul == tuple(index(c) * stride + visit for c, visit in euler_traversal(t))

    @given(t=trees())
    @settings(max_examples=200)
    def test_bag_support_and_repeats(self, t):
        assert constructor_bag(t).support() == constructor_set(t)
        assert repeated_set(t, 2) <= constructor_set(t)
        assert repeated_set(t, 3) <= repeated_set(t, 2)

    @given(t=trees(), u=trees())
    @settings(max_examples=200)
    def test_pre_injective(self, t, u):
        if t != u:
            assert pre_traversal(t) != pre_traversal(u)

    @given(t=trees())
    @settings(max_examples=200)
    def test_euler_length(self, t):
        expected = sum(t.sig.arities[n.root] + 1 for n in t.nodes())
        assert len(euler_traversal(t)) == expected

    def test_euler_length_of_b(self, worked):
        assert len(euler_traversal(worked["B"])) == 9

    @given(t=st.one_of(trees(), trees_over(MULTI_SIG), trees_over(NULLARY_SIG)))
    @settings(max_examples=200)
    def test_euler_matches_recursive_oracle(self, t):
        # one `eul` reads the codes of either backing; t is built by Tree()
        want = naive_euler(t)
        for u in (t, parse_tree(render_tree(t), t.sig)):
            assert [(u.sig.index(c), visit) for c, visit in euler_traversal(u)] == want
            assert u.pre == tuple(naive_preorder(t)) and u.root == u.pre[0]

    @given(t=trees())
    @settings(max_examples=200)
    def test_pre_is_first_visits_of_euler(self, t):
        firsts = [s.constructor for s in euler_traversal(t) if s.visit == 0]
        assert firsts == [s.constructor for s in pre_traversal(t)]

    @given(t=trees(), u=trees())
    @settings(max_examples=200)
    def test_equal_trees_hash_equal(self, t, u):
        if t == u:
            assert tree_hash(t) == tree_hash(u)


def test_tree_file_round_trip(tmp_path, sig, worked):
    path = tmp_path / "trees.txt"
    ts = [worked["A"], worked["B"], worked["C"]]
    save_trees(path, ts)
    assert load_trees(path, sig) == ts


def test_tree_file_blank_lines_ignored(tmp_path, sig):
    path = tmp_path / "trees.txt"
    path.write_text("a\n\nb(a)\n  \n")
    assert [render_tree(t) for t in load_trees(path, sig)] == ["a", "b(a)"]


def test_tree_file_error_carries_line(tmp_path, sig):
    path = tmp_path / "trees.txt"
    path.write_text("a\nb(a)\nb(c(a))\n")
    with pytest.raises(ParseError, match="line 3") as exc:
        load_trees(path, sig)
    assert exc.value.position == 2
    # positions count from the start of the file's line, indentation included
    path.write_text("a\n   b(x)\n")
    with pytest.raises(ParseError, match="line 2: .* at position 5") as exc:
        load_trees(path, sig)
    assert exc.value.position == 5


def test_signature_file_byte_order_mark_skipped(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("\ufeffa 0\nb 1\n", encoding="utf-8")
    assert Signature.from_file(path).names == ("a", "b")


def test_tree_file_byte_order_mark_skipped(tmp_path, sig):
    path = tmp_path / "trees.txt"
    path.write_text("\ufeffb(a)\na\n", encoding="utf-8")
    ts = load_trees(path, sig)
    assert [render_tree(t) for t in ts] == ["b(a)", "a"]
    # written back as plain UTF-8, without the mark
    save_trees(path, ts)
    assert path.read_bytes() == b"b(a)\na\n"


def test_rendering_parsed_trees_builds_no_node(monkeypatch, tmp_path, sig):
    # render_tree, repr and save_trees read the preorder codes alone
    n = 100_000
    texts = ["a", "b(a)", "c(b(a),d(a,a,b(a)))", "d(c(a,a),b(b(a)),a)",
             "b(" * n + "a" + ")" * n]
    trees = [parse_tree(x, sig) for x in texts]

    def refuse(*args):
        raise AssertionError("rendering built nodes of a parsed tree")

    monkeypatch.setattr(signature, "_build", refuse)
    assert [render_tree(t) for t in trees] == texts
    assert [repr(t) for t in trees] == [f"Tree({x})" for x in texts]
    path = tmp_path / "trees.txt"
    save_trees(path, trees)
    assert path.read_text(encoding="utf-8").splitlines() == texts
    # nor do they cache the Euler codes they walk
    assert all(t._eul is None for t in trees)


def test_node_backed_tree_walks_no_node_of_parsed_subtrees(monkeypatch, sig):
    # a node-backed tree over a parsed child takes the child's codes whole
    a = parse_tree("c(b(a),d(a,a,a))", sig)

    def refuse(*args):
        raise AssertionError("walking a node-backed tree built nodes of a parsed child")

    monkeypatch.setattr(signature, "_build", refuse)
    t = Tree(sig, 1, [a])
    text = "b(c(b(a),d(a,a,a)))"
    parsed = parse_tree(text, sig)
    assert hash(t) == hash(parsed) and t == parsed
    assert render_tree(t) == text


def test_tables_do_not_grow_with_arity():
    # the Signature tables hold a few entries per constructor, so a huge
    # arity costs nothing to parse, render or walk with; no census here,
    # whose P/E scan counts every code up to the largest one used
    tracemalloc.start()
    try:
        big = Signature([("a", 0), ("b", 1), ("g", 10**7)])
        t = parse_tree("b(b(a))", big)
        assert render_tree(t) == "b(b(a))"
        b0 = big.sym_stride
        assert t.eul == (b0, b0, 0, b0 + 1, b0 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deep_tree_no_recursion_limit(sig):
    n = 100_000
    deep = "b(" * n + "a" + ")" * n
    t = parse_tree(deep, sig)
    assert size(t) == n + 1
    assert constructor_bag(t).counts == (1, n, 0, 0)
    # the Euler string from the codes, before the children are built
    assert len(euler_traversal(t)) == 2 * n + 1
    chain = Tree(sig, 0)
    for _ in range(n):
        chain = Tree(sig, 1, (chain,))
    assert render_tree(chain) == deep
    # b visited 0 times n times, the leaf a, then b visited once n times
    b0, b1 = sig.sym_stride, sig.sym_stride + 1
    assert chain.eul == (b0,) * n + (0,) + (b1,) * n == t.eul
    assert t == chain and chain == t
    assert t.children[0].size == n and t.children[0] == chain.children[0]
    assert sum(1 for _ in t.nodes()) == n + 1
    assert render_tree(t) == deep
    longer = Tree(sig, 1, (chain,))
    assert rel_embed(t, longer) and not rel_embed(longer, t)
    assert rel_embed(t, chain) and rel_embed(chain, t)
