import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    ConstructorBag,
    Signature,
    WqoSpec,
    all_named_specs,
    default_signature,
    implies,
    is_subsequence,
    multiset_leq,
    multiset_subset,
    parse_tree,
    parse_wqo_name,
    rel,
    rel_bag,
    rel_embed,
    rel_euler,
    rel_preorder,
    rel_repeated,
    rel_set,
    rel_size,
    rel_sized_set,
    render_tree,
)
from treewqo import orders
from treewqo.signature import repeated_mask

from .oracles import dp_is_subsequence, naive_bag, naive_embeds, naive_euler, naive_preorder
from .strategies import MULTI_SIG, symbol_strings, trees, trees_over


def oracle_verdicts(s, t) -> dict[str, bool]:
    """Each base letter's verdict on (s, t), from the naive references."""
    bs, bt = naive_bag(s), naive_bag(t)
    at_least = lambda bag, k: [c >= k for c in bag]
    same_set = at_least(bs, 1) == at_least(bt, 1)
    sized = sum(bs) < sum(bt) or render_tree(s) == render_tree(t)
    return {
        "S": sized, "Z": same_set, "Y": at_least(bs, 2) == at_least(bt, 2),
        "B": all(a <= b for a, b in zip(bs, bt)), "M": same_set and sized,
        "P": dp_is_subsequence(naive_preorder(s), naive_preorder(t)),
        "E": dp_is_subsequence(naive_euler(s), naive_euler(t)),
        "H": naive_embeds(s, t),
    }


class TestSubsequence:
    def test_examples(self, worked):
        assert is_subsequence(worked["A"].pre, worked["B"].pre)
        assert is_subsequence((), (1, 2, 3))
        assert is_subsequence((), ())
        assert not is_subsequence(worked["A"].eul, worked["B"].eul)

    @given(v=symbol_strings(), w=symbol_strings())
    @settings(max_examples=400)
    def test_greedy_agrees_with_dp(self, v, w):
        assert is_subsequence(v, w) == dp_is_subsequence(v, w)

    @given(w=symbol_strings())
    @settings(max_examples=100)
    def test_reflexive_and_prefix(self, w):
        assert is_subsequence(w, w)
        assert is_subsequence(w[: len(w) // 2], w)

    def test_equal_lengths_mean_equality(self):
        assert is_subsequence((1, 2, 3), (1, 2, 3))
        assert not is_subsequence((1, 2, 3), (1, 3, 2))
        assert is_subsequence([1, 2], (1, 2))


class TestBagOrders:
    def test_subset_examples(self, sig):
        mk = lambda d: ConstructorBag.of(sig, d)
        assert multiset_subset(mk({"a": 1}), mk({"a": 1, "b": 1}))
        assert not multiset_subset(mk({"a": 1, "b": 2}), mk({"a": 3, "b": 1}))
        b = mk({"a": 2, "c": 1})
        assert multiset_subset(b, b)

    def test_leq_examples(self, sig):
        mk = lambda d: ConstructorBag.of(sig, d)
        assert multiset_leq(mk({"a": 1, "b": 2}), mk({"a": 3, "b": 1}))
        assert not multiset_leq(mk({"a": 1}), mk({"a": 1, "b": 1}))
        b = mk({"a": 2, "d": 2})
        assert multiset_leq(b, b)

    def test_bags_over_different_signatures_rejected(self, sig):
        xy = Signature([("x", 0), ("y", 1)])
        with pytest.raises(ValueError, match="bags over different signatures"):
            multiset_subset(ConstructorBag.of(xy, {"x": 1}),
                            ConstructorBag.of(sig, {"a": 1, "d": 5}))
        ab = Signature([("a", 0), ("b", 1)])
        ac = Signature([("a", 0), ("c", 1)])
        with pytest.raises(ValueError, match="bags over different signatures"):
            multiset_leq(ConstructorBag(ab, (1, 0)), ConstructorBag(ac, (1, 0)))

    def test_bags_over_equal_signatures_accepted(self, sig):
        twin = default_signature()
        assert twin is not sig and twin == sig
        small = ConstructorBag.of(sig, {"a": 1, "b": 1})
        big = ConstructorBag.of(twin, {"a": 2, "b": 1})
        assert multiset_subset(small, big) and multiset_leq(small, big)
        assert not multiset_subset(big, small) and not multiset_leq(big, small)


class TestBaseRelations:
    def test_size(self, sig, worked):
        assert rel_size(worked["A"], worked["B"])  # 3 < 5
        assert rel_size(worked["B"], worked["B"])
        assert not rel_size(worked["B"], worked["A"])

    def test_embed(self, sig, worked):
        assert not rel_embed(worked["A"], worked["C"])
        assert rel_embed(parse_tree("b(a)", sig), worked["A"])
        assert rel_embed(worked["C"], worked["C"])

    def test_set(self, sig, worked):
        assert not rel_set(worked["A"], worked["B"])
        assert rel_set(parse_tree("b(a)", sig), worked["A"])
        assert rel_set(worked["B"], worked["B"])

    def test_repeated(self, sig, worked):
        assert rel_repeated(worked["B"], worked["C"], 2)
        assert rel_repeated(worked["C"], worked["C"], 2)
        assert not rel_repeated(worked["A"], parse_tree("b(a)", sig), 2)
        with pytest.raises(ValueError):
            rel_repeated(worked["A"], worked["B"], 1)

    def test_bag(self, sig, worked):
        assert rel_bag(worked["B"], worked["D"])  # same bag {a,a,b,b,c}
        assert rel_bag(worked["D"], worked["D"])
        assert not rel_bag(worked["A"], parse_tree("c(a,a)", sig))

    def test_sized_set(self, sig, worked):
        assert rel_sized_set(parse_tree("b(a)", sig), worked["A"])
        assert not rel_sized_set(parse_tree("a", sig), parse_tree("b(a)", sig))
        assert rel_sized_set(worked["C"], worked["C"])

    def test_preorder(self, sig, worked):
        assert rel_preorder(worked["A"], worked["B"])
        assert not rel_preorder(worked["B"], worked["D"])
        assert rel_preorder(worked["D"], worked["D"])

    def test_euler(self, sig, worked):
        assert rel_euler(worked["A"], worked["C"])
        assert not rel_euler(worked["A"], worked["B"])
        assert rel_euler(worked["B"], worked["B"])

    @given(s=trees(max_depth=3), t=trees(max_depth=3))
    @settings(max_examples=300)
    def test_embed_agrees_with_naive_recursion(self, s, t):
        assert rel_embed(s, t) == naive_embeds(s, t)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_two_backings_one_verdict(self, data):
        # p is backed by its preorder codes, t and u by their nodes
        strategy = data.draw(st.sampled_from([trees(max_depth=3), trees_over(MULTI_SIG)]))
        t, u = data.draw(strategy), data.draw(strategy)
        p = parse_tree(render_tree(t), t.sig)
        forward, backward = oracle_verdicts(t, u), oracle_verdicts(u, t)
        assert sorted(forward) == sorted(orders.LETTERS)
        for letter in orders.LETTERS:
            check = orders.base_relation(letter)
            assert check(p, u) == check(t, u) == forward[letter], letter
            assert check(u, p) == check(u, t) == backward[letter], letter
            assert check(p, t) and check(t, p), letter

    def test_embed_equal_size_pairs(self, sig):
        # H implies S: trees of one size are related only when equal
        s, t = parse_tree("c(b(a),a)", sig), parse_tree("c(a,b(a))", sig)
        assert s.size == t.size and s.bag == t.bag
        assert not rel_embed(s, t) and not rel_embed(t, s)
        assert not rel_embed(parse_tree("b(b(a))", sig), parse_tree("c(a,a)", sig))
        twin = parse_tree("c(b(a),a)", sig)
        assert twin is not s
        assert rel_embed(s, twin) and rel_embed(twin, s)

    def test_embed_refuses_by_preorder_before_spans(self, sig):
        # the pair passes the root test (smaller, sub-multiset bag) but fails
        # P, which H implies, so no subtree ends are made for either tree
        s, t = parse_tree("b(c(a,a))", sig), parse_tree("c(a,b(b(a)))", sig)
        assert s.size < t.size and rel_bag(s, t) and not rel_preorder(s, t)
        assert not rel_embed(s, t) and not naive_embeds(s, t)
        assert s._ends is None and t._ends is None

    @pytest.mark.parametrize("left, right", [
        ("b(a)", "c(a,a)"),  # smaller, but its bag lacks b: B refuses
        ("c(b(a),a)", "b(b(a))"),  # larger: B refuses, as H implies S
    ])
    def test_embed_refuses_by_bag_before_spans(self, sig, left, right):
        s, t = parse_tree(left, sig), parse_tree(right, sig)
        assert not rel_bag(s, t)
        assert not rel_embed(s, t) and not naive_embeds(s, t)
        assert s._ends is None and t._ends is None

    def test_embed_deep_trees(self, sig):
        shallow = parse_tree("b(" * 2000 + "a" + ")" * 2000, sig)
        deep = parse_tree("b(" * 3000 + "a" + ")" * 3000, sig)
        assert rel_embed(shallow, deep)
        assert not rel_embed(deep, shallow)


class TestCombined:
    def test_intersection_example(self, sig, worked):
        sb = parse_wqo_name("SB")
        assert rel(sb, worked["B"], worked["D_PLUS"])
        assert not rel(parse_wqo_name("P"), worked["B"], worked["D_PLUS"])

    @given(t=trees())
    @settings(max_examples=60)
    def test_reflexive_for_all_named(self, t):
        for spec in all_named_specs():
            assert rel(spec, t, t)

    @given(s=trees(max_depth=3), t=trees(max_depth=3), u=trees(max_depth=3))
    @settings(max_examples=150)
    def test_transitive(self, s, t, u):
        for spec in all_named_specs():
            if rel(spec, s, t) and rel(spec, t, u):
                assert rel(spec, s, u)

    @given(s=trees(), t=trees())
    @settings(max_examples=200)
    def test_hierarchy_implications(self, s, t):
        if rel_embed(s, t):
            assert rel_euler(s, t)
        if rel_euler(s, t):
            assert rel_preorder(s, t)
        if rel_preorder(s, t):
            assert rel_bag(s, t) and rel_size(s, t)
        assert rel_sized_set(s, t) == (rel_set(s, t) and rel_size(s, t))

    @given(s=trees(max_depth=3), t=trees(max_depth=3))
    @settings(max_examples=150)
    def test_combination_dominance(self, s, t):
        for spec in all_named_specs():
            assert rel(spec, s, t) == all(rel(WqoSpec(frozenset(letter)), s, t)
                                          for letter in spec.components)


class TestIncomparabilityWitnesses:
    """Concrete pairs showing the base orders do not imply one another."""

    def test_bag_without_size(self, sig):
        s, t = parse_tree("c(b(a),a)", sig), parse_tree("c(a,b(a))", sig)
        assert rel_bag(s, t) and not rel_size(s, t)

    def test_size_without_bag(self, sig):
        s, t = parse_tree("b(a)", sig), parse_tree("c(a,a)", sig)
        assert rel_size(s, t) and not rel_bag(s, t)

    def test_repeated_without_set(self, worked):
        assert rel_repeated(worked["B"], worked["C"]) and not rel_set(worked["B"], worked["C"])

    def test_set_without_repeated(self, sig, worked):
        one_b = parse_tree("c(b(a),a)", sig)
        assert rel_set(one_b, worked["D"]) and not rel_repeated(one_b, worked["D"])

    def test_bag_without_sized_set(self, sig):
        s, t = parse_tree("a", sig), parse_tree("b(a)", sig)
        assert rel_bag(s, t) and not rel_sized_set(s, t)

    def test_sized_set_without_bag(self, sig, worked):
        t = parse_tree("c(c(a,a),b(a))", sig)  # bag {a:3,b:1,c:2}
        assert rel_sized_set(worked["D"], t) and not rel_bag(worked["D"], t)

    @pytest.mark.parametrize("letter", list("SHZBMPE"))
    def test_repeated_incomparable_with_every_other_order(self, letter):
        # corpus search: the repeated-set order neither implies nor is
        # implied by any other base order
        from treewqo import GeneratorConfig, default_signature, generate_corpus
        from treewqo.orders import base_relation

        cfg = GeneratorConfig(default_signature(), seed=5150, corpus_size=150,
                              size_cap=25)
        corpus = generate_corpus(cfg)
        rel_y, rel_x = base_relation("Y"), base_relation(letter)
        y_not_x = x_not_y = False
        for s in corpus:
            for t in corpus:
                y, x = rel_y(s, t), rel_x(s, t)
                y_not_x = y_not_x or (y and not x)
                x_not_y = x_not_y or (x and not y)
            if y_not_x and x_not_y:
                break
        assert y_not_x and x_not_y


class TestSpecs:
    def test_parse_names(self):
        assert parse_wqo_name("ZS").name == "M"
        assert parse_wqo_name("ZSP").name == "ZP"
        assert parse_wqo_name("MP").name == "ZP"
        assert parse_wqo_name("H").name == "H"
        assert parse_wqo_name("hze").name == "ZH"
        assert parse_wqo_name("MB").name == "MB"
        assert parse_wqo_name("yys").name == "YS"

    def test_redundant_components_dropped(self):
        assert parse_wqo_name("PB").name == "P"
        assert parse_wqo_name("HE").name == "H"
        assert parse_wqo_name("MZ").name == "M"
        assert parse_wqo_name("MS").name == "M"
        assert parse_wqo_name("PS").name == "P"
        assert parse_wqo_name("SHZYBMPE").name == "YZH"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_wqo_name("")
        for name in ("SQ", "ß", "ſ", "ſb"):
            with pytest.raises(ValueError, match="unknown order letter"):
                parse_wqo_name(name)
        # each offending letter is shown quoted, so whitespace stays visible
        for name, shown in ((" H", "' '"), ("H\t", "'\\t'"), ("sq", "'q'")):
            with pytest.raises(ValueError) as exc:
                parse_wqo_name(name)
            assert str(exc.value) == f"unknown order letter(s): {shown}"

    def test_registry_has_27(self):
        names = [s.name for s in all_named_specs()]
        assert len(names) == len(set(names)) == 27
        assert " ".join(names) == ("B E H M P S Y Z MB SB YB YE YH YM YP YS YZ ZB ZE ZH ZP "
                                   "YMB YSB YZB YZE YZH YZP")
        for expected in ["S", "H", "Z", "Y", "B", "M", "P", "E", "SB", "ZH", "ZE",
                         "ZP", "ZB", "MB", "YS", "YH", "YZ", "YB", "YM", "YP", "YE",
                         "YSB", "YZH", "YZE", "YZP", "YZB", "YMB"]:
            assert expected in names

    def test_cached_name_leaves_identity_alone(self):
        spec, fresh = parse_wqo_name("SHZY"), parse_wqo_name("yzh")
        assert spec.name is spec.name == "YZH"
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == f"WqoSpec(components={spec.components!r}, y_threshold=2)"

    @pytest.mark.parametrize("name, calls", [("HZY", "ZYH"), ("MB", "MB"), ("YSB", "SBY")])
    def test_conjunction_runs_kernels_in_letter_order(self, monkeypatch, worked, name, calls):
        # rel decides a pair without building the conjunction, in the same order
        seen = []

        def recording(letter):
            def kernel(s, t, *k):
                seen.append(letter)
                return True
            return kernel

        monkeypatch.setattr(orders, "_BASE_RELS", {l: recording(l) for l in "SHZBMPE"})
        monkeypatch.setattr(orders, "rel_repeated", recording("Y"))
        spec, a = parse_wqo_name(name), worked["A"]
        assert orders.conjunction(spec)(a, a) and orders.rel(spec, a, a)
        assert "".join(seen) == calls * 2

    def test_y_threshold_carried(self):
        spec = parse_wqo_name("Y", y_threshold=3)
        assert spec.y_threshold == 3
        with pytest.raises(ValueError):
            parse_wqo_name("Y", y_threshold=1)

    @pytest.mark.parametrize("k", [2.0, 2.5, "2", None, True, 1])
    def test_y_threshold_that_is_no_int_of_at_least_2_refused(self, sig, k):
        message = f"repetition threshold must be an int >= 2, got {k!r}"
        with pytest.raises(ValueError) as exc:
            parse_wqo_name("Y", k)
        assert str(exc.value) == message
        t = parse_tree("c(a,a)", sig)
        # the partition key refuses when it is built, before any tree
        for refuse in (lambda: repeated_mask(t, k), lambda: rel_repeated(t, t, k),
                       lambda: orders.partition_key("Y", k)):
            with pytest.raises(ValueError) as exc:
                refuse()
            assert str(exc.value) == message

    @pytest.mark.parametrize("k", [2, 3, 2 ** 40])
    def test_int_y_thresholds_accepted(self, sig, k):
        spec = parse_wqo_name("Y", k)
        s, t = parse_tree("c(a,a)", sig), parse_tree("b(a)", sig)
        assert spec.y_threshold == k
        assert repeated_mask(s, k) == (1 << 31 if k == 2 else 0)
        assert rel(spec, s, t) == (k > 2)

    def test_implies(self):
        mk = parse_wqo_name
        assert implies(mk("H"), mk("E"))
        assert implies(mk("P"), mk("SB"))
        assert implies(mk("M"), mk("Z"))
        assert implies(mk("YZH"), mk("YB"))
        assert not implies(mk("S"), mk("B"))
        assert not implies(mk("Y"), mk("Z"))
        assert implies(mk("MP"), mk("ZP")) and implies(mk("ZP"), mk("MP"))

    def test_implies_needs_one_y_threshold(self, sig):
        y2, y3 = parse_wqo_name("Y"), parse_wqo_name("Y", 3)
        assert not implies(y3, y2) and not implies(y2, y3)
        assert implies(y3, parse_wqo_name("Y", 3))
        assert implies(parse_wqo_name("YZ", 3), parse_wqo_name("Z"))
        # each direction fails on a pair related at one threshold only
        s, t = parse_tree("c(a,a)", sig), parse_tree("b(a)", sig)
        assert rel(y3, s, t) and not rel(y2, s, t)
        s, t = parse_tree("d(a,a,a)", sig), parse_tree("c(a,a)", sig)
        assert rel(y2, s, t) and not rel(y3, s, t)

    def test_rel_rejects_mixed_signatures(self, sig):
        # by constructor index, b(a) and y(x) would be related under Z and B
        s, t = parse_tree("b(a)", sig), parse_tree("y(x)", Signature([("x", 0), ("y", 1)]))
        for name in ("Z", "B"):
            with pytest.raises(ValueError, match="different signatures"):
                rel(parse_wqo_name(name), s, t)
        # an equal signature built separately is the same signature
        twin = Signature(sig.constructors)
        assert rel(parse_wqo_name("Z"), s, parse_tree("b(b(a))", twin))
