"""Independent reference implementations used only to cross-check the
package: a table-filling subsequence decision, a direct, memo-free
recursive embedding check, a node-counting constructor bag, recursive
preorder and Euler traversals and rendering, a one-regex term tokenizer,
a one-regex name check, a recursive-descent term parser and a
one-pick-at-a-time tree generator.  Kept deliberately naive."""

import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from treewqo import SplitMix64, Tree

# one term token per match; the empty match at the end stands for end of input
_TERM_TOKEN = re.compile(r"[(),]|[^\s(),]+|\Z")

# a name token of the term grammar
_NAME = re.compile(r"[^\s(),]+")


def dp_is_subsequence(v, w) -> bool:
    """emb[i][j] == True iff v[i:] is a subsequence of w[j:]."""
    nv, nw = len(v), len(w)
    emb = [[False] * (nw + 1) for _ in range(nv + 1)]
    for j in range(nw + 1):
        emb[nv][j] = True
    for i in range(nv - 1, -1, -1):
        for j in range(nw - 1, -1, -1):
            if v[i] == w[j] and emb[i + 1][j + 1]:
                emb[i][j] = True
            else:
                emb[i][j] = emb[i][j + 1]
    return emb[0][0]


def naive_embeds(s, t) -> bool:
    """Homeomorphic embedding by direct rule application, no memo, no
    shortcuts.  Exponential in the worst case; use on small trees only."""
    if s.root == t.root and all(
        naive_embeds(cs, ct) for cs, ct in zip(s.children, t.children)
    ):
        return True
    return any(naive_embeds(s, ct) for ct in t.children)


def naive_bag(t) -> tuple[int, ...]:
    """One count per constructor of t's signature, by visiting every node
    (shared children once per occurrence).  Use on small trees only."""
    counts = Counter()
    stack = [t]
    while stack:
        node = stack.pop()
        counts[node.root] += 1
        stack.extend(node.children)
    return tuple(counts[i] for i in range(len(t.sig)))


def naive_preorder(t) -> list[int]:
    """The root indices of t in preorder, by direct recursion."""
    return [t.root] + [r for child in t.children for r in naive_preorder(child)]


def naive_euler(t) -> list[tuple[int, int]]:
    """(root index, children visited so far) along t's Euler tour, by
    direct recursion."""
    out = [(t.root, 0)]
    for visit, child in enumerate(t.children, start=1):
        out += naive_euler(child)
        out.append((t.root, visit))
    return out


def naive_render(t) -> str:
    """The canonical text of t, by direct recursion."""
    if not t.children:
        return t.name
    return t.name + "(" + ",".join(naive_render(child) for child in t.children) + ")"


def regex_tokens(text: str) -> list[tuple[str, int]]:
    """The tokens of a term's text with their character offsets, ending in
    ("", len(text)) for end of input."""
    return [(m.group(), m.start()) for m in _TERM_TOKEN.finditer(text)]


def regex_is_name(text: str) -> bool:
    """Whether text is exactly one name token."""
    return _NAME.fullmatch(text) is not None


def naive_parse(text: str, sig):
    """The tree that text denotes, built by `Tree()`, or the (message,
    position) of the first error, by recursive descent over
    `regex_tokens`.  Recursion is one frame per open term; use on small
    inputs only."""
    tokens = regex_tokens(text)
    arity = {name: (i, a) for i, (name, a) in enumerate(zip(sig.names, sig.arities))}
    at = 0

    class Failed(Exception):
        pass

    def fail(message, where):
        raise Failed(message, tokens[where][1])

    def term():
        nonlocal at
        name_at, name = at, tokens[at][0]
        if name not in arity:
            fail("unexpected end of input" if not name
                 else f"expected a constructor, found {name!r}" if name in "(),"
                 else f"unknown constructor {name!r}", at)
        root, expected = arity[name]
        at += 1
        children = []
        if tokens[at][0] == "(":
            at += 1
            children.append(term())
            while tokens[at][0] == ",":
                at += 1
                children.append(term())
            if tokens[at][0] != ")":
                fail(f"expected ',' or ')', found {tokens[at][0]!r}" if tokens[at][0]
                     else "unexpected end of input", at)
            at += 1
        if len(children) != expected:
            fail(f"arity mismatch for {name!r}: expected {expected}, got {len(children)}",
                 name_at)
        return Tree(sig, root, children)

    try:
        t = term()
        if tokens[at][0]:
            fail(f"unexpected {tokens[at][0]!r} after term", at)
    except Failed as exc:
        return exc.args
    return t


def naive_draw(cfg, rng, limit) -> tuple[int, ...]:
    """The root indices, in preorder, of one accepted draw of the branching
    process: one scalar `rng.next_float()` and one `bisect_right` per node.
    A draw is abandoned at the pick that would exceed the size cap and
    redrawn, `limit` times at most."""
    sig = cfg.signature
    cdf = list(accumulate(sig.probabilities))
    for _ in range(limit):
        roots, open_slots = [], 1
        while open_slots and len(roots) < cfg.size_cap:
            root = min(bisect_right(cdf, rng.next_float()), len(cdf) - 1)
            roots.append(root)
            open_slots += sig.arities[root] - 1
        if not open_slots:
            return tuple(roots)
    raise RuntimeError(f"gave up after {limit} oversize draws (cap {cfg.size_cap})")


def naive_corpus(cfg, limit) -> list[tuple[int, ...]]:
    """`naive_draw`s from the seed until `cfg.corpus_size` are kept, all of
    them or only the first of equal ones, after `limit` draws at most."""
    rng = SplitMix64(cfg.seed)
    corpus, seen = [], set()
    for _ in range(limit):
        if len(corpus) == cfg.corpus_size:
            break
        roots = naive_draw(cfg, rng, limit)
        if cfg.distinct and roots in seen:
            continue
        seen.add(roots)
        corpus.append(roots)
    if len(corpus) < cfg.corpus_size:
        raise RuntimeError(
            f"could not draw {cfg.corpus_size} distinct trees in {limit} attempts")
    return corpus
