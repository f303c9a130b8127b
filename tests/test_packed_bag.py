"""The packed constructor bag against a node-counting bag, and the size
limit that keeps every count inside its 32-bit field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewqo import (
    Signature,
    Tree,
    constructor_set,
    default_signature,
    parse_wqo_name,
    rel_bag,
    rel_repeated,
    rel_set,
    repeated_set,
)
from treewqo.orders import partition_key
from treewqo.signature import repeated_mask

from .oracles import naive_bag
from .strategies import trees_over

# 45 constructors, so a packed bag spans 45 fields and 1 440 bits
WIDE_SIG = Signature([("leaf", 0), ("nil", 0)]
                     + [(f"k{i}", i % 4) for i in range(43)])
SIGS = [default_signature(), WIDE_SIG]
THRESHOLDS = [2, 3, 2 ** 31, 2 ** 40]


def _names_at_least(t, k):
    return frozenset(n for n, c in zip(t.sig.names, naive_bag(t)) if c >= k)


def _key_at_least(t, k):
    # the guard bit of every field counting k or more, and no other bit
    return sum(1 << 32 * i + 31 for i, c in enumerate(naive_bag(t)) if c >= k)


@pytest.mark.parametrize("sig", SIGS, ids=["default", "wide"])
@given(data=st.data())
@settings(max_examples=150)
def test_packed_bag_matches_counted_bag(sig, data):
    s, t = data.draw(trees_over(sig)), data.draw(trees_over(sig))
    bs, bt = naive_bag(s), naive_bag(t)
    assert s.bag == bs and t.bag == bt
    assert rel_bag(s, t) == all(a <= b for a, b in zip(bs, bt))
    assert rel_set(s, t) == (_names_at_least(s, 1) == _names_at_least(t, 1))
    assert constructor_set(t) == _names_at_least(t, 1)
    assert partition_key("Z", 2)(t) == _key_at_least(t, 1)
    for k in THRESHOLDS:
        assert rel_repeated(s, t, k) == (_names_at_least(s, k) == _names_at_least(t, k))
        assert repeated_set(t, k) == _names_at_least(t, k)
        assert partition_key("Y", k)(t) == repeated_mask(t, k) == _key_at_least(t, k)
    # no tree counts 2**31 of anything: the key is empty, with no borrow
    assert partition_key("Y", 2 ** 31)(t) == partition_key("Y", 2 ** 40)(t) == 0


# every shape of key-letter set: none, one letter, both, and spec expansions
KEY_LETTER_SETS = ["", "Z", "Y", "ZY", parse_wqo_name("YZH").expanded,
                   parse_wqo_name("YM").expanded]


def _mirror(t):
    # the same bag in a different shape: related under every key letter
    return Tree(t.sig, t.root, tuple(_mirror(c) for c in reversed(t.children)))


@pytest.mark.parametrize("sig", SIGS, ids=["default", "wide"])
@given(data=st.data())
@settings(max_examples=150)
def test_one_key_relates_under_every_key_letter(sig, data):
    s = data.draw(trees_over(sig))
    pairs = [(s, data.draw(trees_over(sig))), (s, _mirror(s))]
    for letters in KEY_LETTER_SETS:
        for k in [2, 3, 5, 2 ** 31, 2 ** 40]:
            key = partition_key(letters, k)
            counts = [1 if l == "Z" else k for l in letters if l in "ZY"]
            for a, b in pairs:
                related = all(_names_at_least(a, n) == _names_at_least(b, n) for n in counts)
                assert type(key(a)) is int and type(key(b)) is int
                assert (key(a) == key(b)) == related, (letters, k)


def _doublings(n):
    """a, then n times x -> c(x, x): one object per level, 2**(n+1) - 1 nodes."""
    sig = default_signature()
    x = Tree(sig, 0)
    levels = [x]
    for _ in range(n):
        x = Tree(sig, 2, (x, x))
        levels.append(x)
    return levels


def test_largest_tree_is_exact():
    levels = _doublings(30)
    top, below = levels[-1], levels[-2]
    assert top.size == 2 ** 31 - 1
    assert top.bag == (2 ** 30, 0, 2 ** 30 - 1, 0)
    assert below.bag == (2 ** 29, 0, 2 ** 29 - 1, 0)
    # decided from the packed ints, without visiting the 2**31 - 1 nodes
    assert rel_bag(below, top) and rel_bag(top, top) and not rel_bag(top, below)
    assert rel_set(below, top) and not rel_set(levels[0], top)
    assert repeated_set(top, 2 ** 30) == {"a"}
    assert repeated_set(top, 2 ** 30 - 1) == {"a", "c"}
    assert repeated_mask(top, 2 ** 31 - 1) == 0
    assert not rel_repeated(below, top, 2 ** 30) and rel_repeated(below, top, 2 ** 31)


def test_tree_of_two_to_the_31_nodes_refused():
    x = _doublings(30)[-1]
    with pytest.raises(ValueError) as exc:
        Tree(x.sig, 2, (x, x))
    assert str(exc.value) == "tree of 4294967295 nodes exceeds the limit of 2147483647"
