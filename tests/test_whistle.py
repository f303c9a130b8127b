from types import MemberDescriptorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    GeneratorConfig,
    NaiveChecker,
    SequenceChecker,
    Signature,
    SplitMix64,
    Tree,
    all_named_specs,
    default_signature,
    implies,
    monotone_stream,
    parse_tree,
    parse_wqo_name,
    random_tree,
    rel,
    rel_embed,
    rel_repeated,
    rel_set,
    render_tree,
)
from treewqo import signature
from treewqo.orders import KEY_LETTERS
from treewqo.signature import _build

from .strategies import MULTI_SIG, trees, trees_over


def push_all(checker, stream):
    return [checker.push(t) for t in stream]


def stream_of(sig, *terms):
    return [parse_tree(t, sig) for t in terms]


class TestPushExamples:
    def test_size_growth_whistles(self, sig):
        chk = SequenceChecker(parse_wqo_name("S"))
        out = push_all(chk, stream_of(sig, "a", "b(a)"))
        assert [o.whistled for o in out] == [False, True]
        assert out[1].witness == 0 and out[1].position == 1

    def test_size_equality_whistles(self, sig):
        chk = SequenceChecker(parse_wqo_name("S"))
        out = push_all(chk, stream_of(sig, "b(a)", "a", "a"))
        assert [o.whistled for o in out] == [False, False, True]
        assert out[2].witness == 1

    def test_embed_admits_unrelated(self, sig):
        chk = SequenceChecker(parse_wqo_name("H"))
        out = push_all(chk, stream_of(sig, "b(a)", "c(a,a)"))
        assert [o.whistled for o in out] == [False, False]

    def test_shrinking_stream_never_whistles(self, sig):
        chk = SequenceChecker(parse_wqo_name("S"))
        out = push_all(chk, stream_of(sig, "d(a,a,a)", "c(a,a)", "b(a)", "a"))
        assert not any(o.whistled for o in out)

    def test_naive_matches_examples(self, sig):
        for spec_name, terms in [("S", ("a", "b(a)")),
                                 ("S", ("b(a)", "a", "a")),
                                 ("H", ("b(a)", "c(a,a)"))]:
            fast = SequenceChecker(parse_wqo_name(spec_name))
            slow = NaiveChecker(parse_wqo_name(spec_name))
            ts = stream_of(sig, *terms)
            assert [o.whistled for o in push_all(fast, ts)] == \
                   [o.whistled for o in push_all(slow, ts)]

    def test_signature_mismatch_rejected(self, sig):
        other = default_signature()
        tiny = Signature([("x", 0)])
        chk = SequenceChecker(parse_wqo_name("S"))
        chk.push(parse_tree("a", other))
        with pytest.raises(ValueError, match="different signature"):
            chk.push(parse_tree("x", tiny))

    def test_outcome_contract(self, sig):
        chk = SequenceChecker(parse_wqo_name("S"))
        admit, whistle = push_all(chk, stream_of(sig, "a", "b(a)"))
        # the repr README shows and the lines `treewqo whistle` prints
        assert repr(admit) == "PushOutcome(position=0, whistled=False, witness=None)"
        assert (str(admit), str(whistle)) == ("0\tADMIT", "1\tWHISTLE\t0")
        assert admit.admitted and not whistle.admitted
        with pytest.raises(AttributeError):
            admit.position = 5
        again = SequenceChecker(parse_wqo_name("S")).push(parse_tree("a", sig))
        assert again is not admit
        assert again == admit and hash(again) == hash(admit)
        assert again != whistle

    @pytest.mark.parametrize("checker", [SequenceChecker, NaiveChecker])
    def test_equal_signature_object_accepted(self, sig, checker):
        twin = default_signature()
        assert twin is not sig and twin == sig
        chk = checker(parse_wqo_name("S"))
        chk.push(parse_tree("b(a)", sig))
        assert chk.push(parse_tree("a", twin)).admitted
        with pytest.raises(ValueError, match="different signature"):
            chk.push(parse_tree("a", Signature([("a", 0), ("b", 1)])))

    @given(t=st.one_of(trees(), trees_over(MULTI_SIG)))
    @settings(max_examples=100)
    def test_other_backing_of_an_admitted_tree_whistles(self, t):
        # t is built by Tree(), its parsed copy p is backed by codes
        p = parse_tree(render_tree(t), t.sig)
        for checker in (SequenceChecker, NaiveChecker):
            for first, second in ((p, t), (t, p)):
                chk = checker(parse_wqo_name("S"))
                assert chk.push(first).admitted
                assert chk.push(second) == (1, True, 0)

    @pytest.mark.parametrize("checker", [SequenceChecker, NaiveChecker])
    @pytest.mark.parametrize("name", ["S", "H", "M"])
    @pytest.mark.parametrize("backing", ["parsed", "built"])
    def test_trees_of_one_bag_are_told_apart(self, sig, checker, name, backing):
        # one bag, three shapes, pairwise unrelated under each order
        texts = ["c(a,b(a))", "c(b(a),a)", "b(c(a,a))"]
        parsed = [parse_tree(x, sig) for x in texts]
        built = [_build(sig, t.pre) for t in parsed]
        first, again = (parsed, built) if backing == "parsed" else (built, parsed)
        chk = checker(parse_wqo_name(name))
        assert all(o.admitted for o in push_all(chk, first))
        assert push_all(chk, again[::-1]) == [(3, True, 2), (4, True, 1), (5, True, 0)]

    @pytest.mark.parametrize("name", ["S", "H"])
    def test_every_binary_tree_of_one_size_admitted(self, name):
        # all 14 trees of size 9 over {a/0, f/2} share one bag
        sig = Signature([("a", 0), ("f", 2)])

        def shapes(internal):
            if not internal:
                yield [0]
            for left in range(internal):
                for lt in shapes(left):
                    for rt in shapes(internal - 1 - left):
                        yield [1] + lt + rt

        built = [_build(sig, roots) for roots in shapes(4)]
        assert len(built) == 14
        stream = built + [parse_tree(render_tree(t), sig) for t in built]
        fast = push_all(SequenceChecker(parse_wqo_name(name)), stream)
        assert fast == push_all(NaiveChecker(parse_wqo_name(name)), stream)
        assert [o.witness for o in fast] == [None] * 14 + list(range(14))

    def test_reset(self, sig):
        chk = SequenceChecker(parse_wqo_name("S"))
        assert chk.push(parse_tree("a", sig)).admitted
        chk.reset()
        assert chk.push(parse_tree("a", sig)).admitted


def random_stream(sig, seed, length, cap=30):
    cfg = GeneratorConfig(sig, seed=seed, size_cap=cap, distinct=False)
    rng = SplitMix64(seed)
    return [random_tree(cfg, rng) for _ in range(length)]


def replay_stream(sig):
    """A monotone prefix (long histories, many equal sizes), re-pushed
    copies of some of its trees, then random trees."""
    prefix = monotone_stream(sig, 120, 12)
    copies = [parse_tree(render_tree(t), sig) for t in prefix[::7]]
    return prefix + copies + random_stream(sig, 31, 60)


class TestDifferential:
    @pytest.mark.parametrize("name", [s.name for s in all_named_specs()])
    def test_optimized_matches_naive_on_random_streams(self, sig, name):
        spec = parse_wqo_name(name)
        streams = [random_stream(sig, seed * 977 + 13, 60) for seed in range(5)]
        for i, stream in enumerate(streams + [replay_stream(sig)]):
            fast, slow = SequenceChecker(spec), NaiveChecker(spec)
            for t in stream:
                a, b = fast.push(t), slow.push(t)
                assert a.whistled == b.whistled, (name, i, a, b)
                for out, chk in ((a, fast), (b, slow)):
                    if out.whistled:
                        witness_tree = dict(chk.admitted)[out.witness]
                        assert out.witness < out.position
                        assert rel(spec, witness_tree, t)

    @pytest.mark.parametrize("name", ["S", "M", "Z", "Y", "SB", "YM", "ZH", "YZP"])
    def test_admitted_sets_are_antichains(self, sig, name):
        spec = parse_wqo_name(name)
        chk = SequenceChecker(spec)
        for t in random_stream(sig, 4242, 120):
            chk.push(t)
        admitted = chk.admitted
        for i in range(len(admitted)):
            for j in range(i + 1, len(admitted)):
                assert not rel(spec, admitted[i][1], admitted[j][1])


class TestAccelerationStructure:
    @pytest.mark.parametrize("name", ["Z", "YZ", "S", "M", "YM"])
    def test_key_and_size_orders_never_compare(self, sig, name):
        # nothing is left of these orders once the keys and sizes have
        # chosen the candidates, so any candidate is a witness
        chk = SequenceChecker(parse_wqo_name(name))
        whistles = sum(chk.push(t).whistled for t in random_stream(sig, 8, 200))
        assert whistles > 0
        assert chk.comparisons == 0

    def test_scan_mode_stays_within_partition(self, sig):
        spec = parse_wqo_name("ZB")
        chk = SequenceChecker(spec)
        for t in random_stream(sig, 9, 150):
            before = chk.comparisons
            _, members = chk._partitions.get(chk._key(t), ((), ()))
            partition_size = len(members)
            chk.push(t)
            assert chk.comparisons - before <= partition_size
        for key, (_, members) in chk._partitions.items():
            for _, t in members:
                assert chk._key(t) == key

    def test_equal_sizes_scan_newest_first(self, sig):
        # both equal-size trees sit below the new one under P; among equal
        # sizes the later admitted is tried first, and it is the witness
        spec = parse_wqo_name("P")
        chk = SequenceChecker(spec)
        older, newer, t = stream_of(sig, "b(b(a))", "c(a,a)", "b(b(c(a,a)))")
        assert chk.push(older).admitted and chk.push(newer).admitted
        assert rel(spec, older, t) and rel(spec, newer, t)
        assert chk.push(t) == (2, True, 1)
        assert chk.comparisons == 1

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_size_column_follows_members(self, data):
        # streams as drawn, by rising size or by falling size; small trees,
        # so sizes tie often
        spec = data.draw(st.sampled_from(all_named_specs()), label="spec")
        stream = data.draw(st.lists(trees(max_depth=3), max_size=30), label="stream")
        falling = data.draw(st.sampled_from([None, False, True]), label="falling")
        if falling is not None:
            stream.sort(key=lambda t: t.size, reverse=falling)
        fast, slow = SequenceChecker(spec), NaiveChecker(spec)
        for t in stream:
            assert fast.push(t).whistled == slow.push(t).whistled
            for sizes, members in fast._partitions.values():
                assert sizes == sorted(sizes) == [-s.size for _, s in members]

    @pytest.mark.parametrize("name, comparisons", [("YZ", 0), ("YZH", 1)])
    def test_yz_key_tells_both_letters_apart(self, sig, name, comparisons):
        # the first tree embeds in each of the next two, which share only its
        # Z key or only its Y key; the last shares both keys and embeds it
        first, same_z, same_y, last = stream_of(
            sig, "c(c(a,a),b(a))", "c(c(a,a),b(b(a)))", "d(c(c(a,a),b(a)),a,a)",
            "c(c(a,a),b(c(a,a)))")
        assert rel_set(first, same_z) and not rel_repeated(first, same_z)
        assert rel_repeated(first, same_y) and not rel_set(first, same_y)
        assert rel_set(first, last) and rel_repeated(first, last)
        assert all(rel_embed(first, t) for t in (same_z, same_y, last))
        chk = SequenceChecker(parse_wqo_name(name))
        assert [chk.push(t).whistled for t in (first, same_z, same_y)] == [False] * 3
        assert chk.push(last) == (3, True, 0)
        assert chk.comparisons == comparisons

    def test_size_shortcut_matches_definition(self, sig):
        # whistle iff the new tree is bigger than the last admitted one or
        # structurally equal to some admitted one
        spec = parse_wqo_name("S")
        chk = SequenceChecker(spec)
        seen, last_size = [], None
        for t in random_stream(sig, 10, 200, cap=10):
            expect = (last_size is not None and t.size > last_size) or any(
                t == s for s in seen)
            out = chk.push(t)
            assert out.whistled == expect
            if not out.whistled:
                seen.append(t)
                last_size = t.size

    @pytest.mark.parametrize("name, whistles", [("B", True), ("SB", False), ("P", False)])
    def test_equal_bag_decides_equal_size_pushes(self, sig, name, whistles):
        # equal bags in different shapes: B-related, but neither S- nor P-related
        chk = SequenceChecker(parse_wqo_name(name))
        assert chk.push(parse_tree("c(b(a),a)", sig)).admitted
        out = chk.push(parse_tree("c(a,b(a))", sig))
        assert out.whistled == whistles
        assert out.witness == (0 if whistles else None)
        assert chk.comparisons == 0

    def test_every_spec_is_keys_alone_or_bounds_size(self):
        # the precondition of the one push rule; every non-empty set of
        # letters canonicalizes to one of the named specs
        size, bag = parse_wqo_name("S"), parse_wqo_name("B")
        for spec in all_named_specs():
            assert (spec.expanded <= KEY_LETTERS or implies(spec, size)
                    or implies(spec, bag)), spec
            # and what the keys and sizes leave is at most one kernel
            assert len(spec.expanded - KEY_LETTERS - {"S"}) <= 1, spec

    def test_mixed_spec_scans_with_precomputed_sizes(self, sig):
        # growth in size alone must not whistle under SB
        chk = SequenceChecker(parse_wqo_name("SB"))
        assert chk.push(parse_tree("b(a)", sig)).admitted
        assert chk.push(parse_tree("c(a,a)", sig)).admitted  # bigger, bag unrelated
        assert chk.push(parse_tree("c(b(a),a)", sig)).whistled


def test_pushes_of_parsed_trees_build_no_node(monkeypatch, sig):
    """No push under any of the 27 named orders builds a node of a parsed,
    generated or `monotone_stream` tree, and `Tree` keeps the attribute
    access these pushes rely on.

    Each guard stands for a design measured slower in a benchmark run:
    - a push that reads children: lazy children with a node-walking `H`
      made `H` pushes 36 % slower and `YZH` pushes 14 % slower online;
    - `Tree.__getattr__` for lazy children: `whistle-antichain` throughput
      fell 10-13 % and `census` 4-11 %, since a class that defines it
      loses the interpreter's specialized attribute loads;
    - `children` as a property of `Tree` over another slot: `census` fell
      6 % (its `H` table 1278 -> 1472 us a corpus, `E` 912 -> 1172 us).
    """
    lines = [render_tree(t) for t in random_stream(sig, 77, 200)]

    def refuse(*args):
        raise AssertionError("a push built nodes of a code-backed tree")

    monkeypatch.setattr(signature, "_build", refuse)
    # drawn under the guard and pushed as drawn, with no re-parse
    drawn = random_stream(sig, 77, 200) + monotone_stream(sig, 200, 20)
    comparisons = 0
    for spec in all_named_specs():
        for stream in ([parse_tree(line, sig) for line in lines], drawn):
            chk = SequenceChecker(spec)
            for t in stream:
                if chk.push(t).whistled:
                    comparisons += chk.comparisons
                    chk.reset()
            comparisons += chk.comparisons
    assert comparisons > 0
    with pytest.raises(AssertionError, match="built nodes"):
        parse_tree("b(a)", sig).children
    for cls in (Tree, type(parse_tree("a", sig))):
        assert "__getattr__" not in dir(cls)
        assert cls.__getattribute__ is object.__getattribute__
    assert isinstance(Tree.__dict__["children"], MemberDescriptorType)


def test_distinct_bags_hash_no_tree(sig):
    # a node-backed tree makes its codes only when hashed or compared, and
    # an admit-only stream of distinct bags needs neither
    stream = [_build(sig, t.pre) for t in monotone_stream(sig, 300, 20)]
    for name in ("SB", "H", "YZH"):
        chk = SequenceChecker(parse_wqo_name(name))
        assert all(o.admitted for o in push_all(chk, stream))
        assert chk.comparisons == 0
    assert all(t._pre is None for t in stream)


def doubling_stream(sig, depth=10):
    t = parse_tree("a", sig)
    out = [t]
    for _ in range(depth - 1):
        t = Tree(sig, sig.index("c"), (t, t))
        out.append(t)
    return out


class TestEventualWhistle:
    @pytest.mark.parametrize("name", [s.name for s in all_named_specs()])
    def test_doubling_stream_whistles_within_ten(self, sig, name):
        chk = SequenceChecker(parse_wqo_name(name))
        for t in doubling_stream(sig, 10):
            if chk.push(t).whistled:
                return
        pytest.fail(f"no whistle within 10 pushes under {name}")
