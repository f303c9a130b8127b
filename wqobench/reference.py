"""Reference decisions for the eight base orders, used to check the census.

Written from the order definitions, not from the package's code: every
measure is recomputed here from the tree's constructors and children, and
no package relation, measure or traversal is called.

  S  s = t, or size(s) < size(t)
  Z  same set of constructors
  Y  same set of constructors used at least k times
  B  constructor bag of s is pointwise <= bag of t
  M  Z and S
  P  preorder string of s is a subsequence of t's
  E  Euler-tour string of s is a subsequence of t's
  H  homeomorphic embedding: equal roots with children embedding pairwise,
     or s embedding into some child of t

Subsequence is decided by filling the classic table and embedding by
memoised recursion over node pairs; both are plain, not fast.
"""

from __future__ import annotations

import sys
from collections import Counter

__all__ = ["Flat", "relation"]


class Flat:
    """A tree as preorder arrays: constructor index and child positions."""

    __slots__ = ("roots", "kids", "arities", "_counts")

    def __init__(self, tree):
        arities = tree.sig.arities
        self.arities = arities
        self.roots: list[int] = []
        self.kids: list[list[int]] = []
        stack = [(tree, -1)]
        while stack:
            node, parent = stack.pop()
            idx = len(self.roots)
            self.roots.append(node.root)
            self.kids.append([])
            if parent >= 0:
                self.kids[parent].append(idx)
            for child in reversed(node.children):
                stack.append((child, idx))
        self._counts = None

    @property
    def size(self) -> int:
        return len(self.roots)

    @property
    def counts(self) -> Counter:
        if self._counts is None:
            self._counts = Counter(self.roots)
        return self._counts

    def euler(self) -> list[tuple[int, int]]:
        """(constructor, children visited so far), one symbol before the
        first child, one after each child."""
        out = []
        stack = [(0, 0)]
        while stack:
            i, visit = stack.pop()
            out.append((self.roots[i], visit))
            if visit < len(self.kids[i]):
                stack.append((i, visit + 1))
                stack.append((self.kids[i][visit], 0))
        return out


def _subsequence(v, w) -> bool:
    """Table fill: row i holds, for each prefix of w, whether v[:i] is a
    subsequence of it."""
    if len(v) > len(w):
        return False
    prev = [True] * (len(w) + 1)
    for sym in v:
        row = [False] * (len(w) + 1)
        for j, other in enumerate(w, start=1):
            row[j] = row[j - 1] or (prev[j - 1] and sym == other)
        prev = row
    return prev[-1]


def _embeds(a: Flat, b: Flat) -> bool:
    memo: dict[tuple[int, int], bool] = {}

    def emb(i: int, j: int) -> bool:
        key = (i, j)
        if key in memo:
            return memo[key]
        found = False
        if a.roots[i] == b.roots[j]:
            found = True
            for ci, cj in zip(a.kids[i], b.kids[j]):
                if not emb(ci, cj):
                    found = False
                    break
        if not found:
            for cj in b.kids[j]:
                if emb(i, cj):
                    found = True
                    break
        memo[key] = found
        return found

    # recursion depth is at most the sum of the two tree depths
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 2 * (a.size + b.size) + 100))
    try:
        return emb(0, 0)
    finally:
        sys.setrecursionlimit(old)


def _repeated(f: Flat, k: int) -> frozenset[int]:
    return frozenset(c for c, n in f.counts.items() if n >= k)


def _size_order(a: Flat, b: Flat) -> bool:
    # arities are fixed, so the preorder constructor string determines the tree
    return a.roots == b.roots or a.size < b.size


def relation(letter: str, a: Flat, b: Flat, k: int = 2) -> bool:
    """Reference verdict of base order `letter` on the pair (a, b)."""
    if letter == "S":
        return _size_order(a, b)
    if letter == "Z":
        return set(a.counts) == set(b.counts)
    if letter == "Y":
        return _repeated(a, k) == _repeated(b, k)
    if letter == "B":
        return all(n <= b.counts[c] for c, n in a.counts.items())
    if letter == "M":
        return set(a.counts) == set(b.counts) and _size_order(a, b)
    if letter == "P":
        return _subsequence(a.roots, b.roots)
    if letter == "E":
        return _subsequence(a.euler(), b.euler())
    if letter == "H":
        return _embeds(a, b)
    raise ValueError(f"unknown base order {letter!r}")
