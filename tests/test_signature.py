import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    Constructor,
    ParseError,
    Signature,
    constructor_bag,
    constructor_set,
    euler_traversal,
    load_trees,
    parse_tree,
    pre_traversal,
    render_tree,
    repeated_set,
    save_trees,
    size,
    tree_equal,
    tree_hash,
)

from .strategies import trees, trees_over


def sym_str(ts):
    return [(s.constructor, s.visit) for s in ts.symbols]


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

    @given(t=trees())
    @settings(max_examples=200)
    def test_render_parse_round_trip(self, t):
        assert parse_tree(render_tree(t), t.sig) == t

    def test_render_examples(self, sig, worked):
        assert render_tree(parse_tree("a", sig)) == "a"
        assert render_tree(worked["A"]) == "b(b(a))"
        assert render_tree(worked["C"]) == "d(b(a),b(a),b(a))"


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
        assert constructor_set(parse_tree("a", sig)).names() == {"a"}
        assert constructor_set(worked["A"]).names() == {"a", "b"}
        assert constructor_set(worked["B"]).names() == {"a", "b", "c"}

    def test_repeated_set(self, worked):
        assert repeated_set(worked["A"], 2).names() == {"b"}
        assert repeated_set(worked["B"], 2).names() == {"a", "b"}
        assert repeated_set(worked["C"], 2).names() == {"a", "b"}

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
        # the cached measures are plain tuples, which the measure functions wrap
        assert all(type(m) is tuple for m in (t.bag, t.pre, t.eul))
        assert t.bag == constructor_bag(t).counts
        assert t.pre == pre_traversal(t).codes
        assert t.eul == euler_traversal(t).codes

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

    @given(t=trees())
    @settings(max_examples=200)
    def test_pre_is_first_visits_of_euler(self, t):
        firsts = [s.constructor for s in euler_traversal(t).symbols if s.visit == 0]
        assert firsts == [s.constructor for s in pre_traversal(t).symbols]

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


def test_deep_tree_no_recursion_limit(sig):
    deep = "b(" * 5000 + "a" + ")" * 5000
    t = parse_tree(deep, sig)
    assert size(t) == 5001
    assert render_tree(t) == deep
    assert constructor_bag(t).counts == (1, 5000, 0, 0)
    assert len(euler_traversal(t)) == 10001
