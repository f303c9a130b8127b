"""Hypothesis strategies over the default four-constructor signature."""

from hypothesis import strategies as st

from treewqo import Signature, Tree, default_signature

SIG = default_signature()

# multi-character names, two of them nullary
MULTI_SIG = Signature([("nil", 0), ("x1", 0), ("wrap", 1), ("cons", 2), ("t3", 3)])

# nullary constructors only: stride 1, so every visit code is a last visit
NULLARY_SIG = Signature([("x", 0), ("y", 0), ("z", 0)])


@st.composite
def trees(draw, max_depth=4):
    """Random well-formed trees, biased toward leaves as depth grows."""
    def node(depth):
        if depth >= max_depth:
            cidx = 0
        else:
            cidx = draw(st.sampled_from([0, 0, 1, 1, 2, 3]))
        arity = SIG.arities[cidx]
        return Tree(SIG, cidx, tuple(node(depth + 1) for _ in range(arity)))

    return node(0)


@st.composite
def trees_over(draw, sig, max_depth=3):
    """Random trees over any signature whose first constructor is nullary."""
    def node(depth):
        cidx = 0 if depth >= max_depth else draw(st.integers(0, len(sig) - 1))
        return Tree(sig, cidx, tuple(node(depth + 1) for _ in range(sig.arities[cidx])))

    return node(0)


def symbol_strings(max_len=40, alphabet=6):
    return st.lists(
        st.integers(min_value=0, max_value=alphabet - 1), max_size=max_len
    ).map(tuple)
