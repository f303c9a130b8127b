"""Signatures, trees, and the per-tree measures the tree orders consume.

A Signature is a finite alphabet of constructors, each with a fixed arity
(and, optionally, a generation probability used by the random-tree
generator).  A Tree is a finite term over one signature; the number of
children of every node must equal its constructor's declared arity.

A tree has one of two backings and one identity.  A node-backed tree,
built by `Tree()`, the generator or `monotone_stream` (the last two
through `_build`), holds its children and makes its codes on first use.
A parsed tree holds its scaled preorder codes and builds its children
once, on first access, through `_build`; no push of a named order and
no rendering reads them.  Each root eagerly carries size, packed
constructor bag and structural hash: `_fill` defines them for nodes, and
`parse_tree` computes the same three in its one pass.  Only `Tree()`
checks arity and signature.  One `_build` call shares one leaf per
nullary constructor, and no node outlives its call in any cache.

The packed bag is one int holding a 32-bit field per constructor: the
count of constructor i sits in bits 32*i .. 32*i + 30, and bit 32*i + 31,
its guard bit, is always clear.  A node's packed bag is its root's unit
`1 << 32*i` plus its children's packed bags.  `Tree()` refuses a tree of
2**31 nodes or more, so no count reaches its guard bit; only trees that
share children can come near that size.  Whole-field tests are then a few
int operations (SWAR, after Lamport, "Multiple byte processing with
full-word instructions", CACM 1975): `bag_at_least(t, k)` is the guard
bits of the fields that count k or more, so the constructor set is the
bag's support, `bag_at_least(t, 1)`, and the repeated set is
`bag_at_least(t, k)`.

The traversals are plain tuples of ints, cached once made: `pre` and
`eul` hold the preorder and Euler traversal codes, walked over the nodes
of a node-backed tree and read off a parsed tree's codes; `bag` decodes
the packed bag into one count per constructor on every access.  The
order kernels read these fields directly; the measure functions decode
them into names and symbols: `constructor_set` and `repeated_set` return
a frozenset of names, `constructor_bag` a `ConstructorBag`, and the two
traversals a tuple of `TraversalSymbol`.  All traversals are iterative,
so deep chain-shaped trees do not hit the interpreter recursion limit.

Traversal strings use one alphabet for both traversals: the symbol "c
visited i times" is encoded as ``index(c) * (max_arity + 1) + i``.  A
preorder string is then exactly the subsequence of the Euler string formed
by the visit-0 symbols.  Arities are fixed, so equal `pre` means equal
trees over one signature.

The structural hash is Python's tuple hash of the root index and the
children's hashes.  Int and tuple hashes are not salted, so it is stable
across processes, but not across Python versions or platforms: it only
serves in-memory dicts, sets and the `tree_equal` guard and must never be
persisted.  Reproducible corpora rest on `generate.SplitMix64` instead.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Constructor",
    "Signature",
    "Tree",
    "ConstructorBag",
    "TraversalSymbol",
    "ParseError",
    "parse_tree",
    "render_tree",
    "size",
    "constructor_set",
    "repeated_set",
    "constructor_bag",
    "pre_traversal",
    "euler_traversal",
    "tree_hash",
    "tree_equal",
    "default_signature",
    "iter_trees",
    "load_trees",
    "save_trees",
]

_PROB_TOL = 1e-9

# every count of a packed bag is below this, as is every tree's size
_FIELD_LIMIT = 1 << 31


class Constructor(NamedTuple):
    name: str
    arity: int
    probability: float | None = None


class ParseError(ValueError):
    """Malformed term or signature text; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def _check_constructor(c: Constructor, seen: set[str]) -> None:
    """Raise ValueError if one constructor is invalid, given the names
    before it; adds its name to `seen`."""
    # a name is one name token of the term grammar (see _tokens); '#' starts
    # a comment in signature files, and a lone surrogate cannot be written
    # to a UTF-8 tree file
    name = c.name
    if (_tokens(name) != [name, ""] or name in ("(", ")", ",") or "#" in name
            or any("\ud800" <= ch <= "\udfff" for ch in name)):
        raise ValueError(f"bad constructor name {c.name!r}")
    if c.name in seen:
        raise ValueError(f"duplicate constructor {c.name!r}")
    seen.add(c.name)
    if not isinstance(c.arity, int) or isinstance(c.arity, bool):
        raise ValueError(f"arity of {c.name!r} is not an int: {c.arity!r}")
    if c.arity < 0:
        raise ValueError(f"negative arity for {c.name!r}")
    p = c.probability
    if p is not None:
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ValueError(f"probability of {c.name!r} is not a real number: {p!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {c.name!r} outside [0, 1]")


class Signature:
    """An ordered, finite set of constructors with fixed arities.

    Names must be unique name tokens of the term grammar: non-empty, free
    of whitespace (Unicode whitespace included), parentheses, commas, '#'
    and lone surrogates, which do not encode as UTF-8.  When probabilities
    are given they must all be given and sum to 1 (tolerance 1e-9).
    """

    def __init__(self, constructors: Iterable[Constructor | tuple]):
        ctors = tuple(Constructor(*c) for c in constructors)
        if not ctors:
            raise ValueError("signature needs at least one constructor")
        seen: set[str] = set()
        for c in ctors:
            _check_constructor(c, seen)
        probs = [c.probability for c in ctors]
        if any(p is not None for p in probs):
            if any(p is None for p in probs):
                raise ValueError("either all or no constructors take a probability")
            total = sum(probs)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"probabilities sum to {total}, expected 1")
        self.constructors = ctors
        self.names = tuple(c.name for c in ctors)
        self.arities = tuple(c.arity for c in ctors)
        self._index = {c.name: i for i, c in enumerate(ctors)}
        self.max_arity = max(self.arities)
        # symbol stride for traversal-string codes; see module docstring
        self.sym_stride = self.max_arity + 1
        # packed bags: one unit per constructor, a 1 in every field, and
        # every field's guard bit; see module docstring
        self.bag_units = tuple(1 << 32 * i for i in range(len(ctors)))
        self.bag_ones = sum(self.bag_units)
        self.bag_guards = self.bag_ones << 31
        self._bag_struct = struct.Struct(f"<{len(ctors)}I")
        # a preorder code's arity and bag unit, read without a division
        codes = range(0, len(ctors) * self.sym_stride, self.sym_stride)
        self._code_arity = dict(zip(codes, self.arities))
        self._code_unit = dict(zip(codes, self.bag_units))

    def __len__(self) -> int:
        return len(self.constructors)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return self.constructors == other.constructors

    def __hash__(self) -> int:
        return hash(self.constructors)

    def __repr__(self) -> str:
        inner = ",".join(f"{c.name}/{c.arity}" for c in self.constructors)
        return f"Signature({inner})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown constructor {name!r}") from None

    @property
    def has_probabilities(self) -> bool:
        return self.constructors[0].probability is not None

    @property
    def probabilities(self) -> tuple[float, ...]:
        if not self.has_probabilities:
            raise ValueError("signature carries no probabilities")
        return tuple(c.probability for c in self.constructors)

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse signature text: one "name arity [probability]" per line.

        '#' starts a comment; blank lines are ignored.  Lines end at "\n",
        "\r\n" or "\r", as in text mode.  Errors about one constructor name
        its line; errors about the whole text do not.
        """
        ctors = []
        seen: set[str] = set()
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ParseError(f"line {lineno}: expected 'name arity [probability]'")
            name = fields[0]
            try:
                arity = int(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad arity {fields[1]!r}") from None
            prob = None
            if len(fields) == 3:
                try:
                    prob = float(fields[2])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad probability {fields[2]!r}") from None
            ctors.append(Constructor(name, arity, prob))
            try:
                _check_constructor(ctors[-1], seen)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        try:
            return cls(ctors)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "Signature":
        with open(path, encoding="utf-8-sig") as fh:
            return cls.parse(fh.read())


def default_signature() -> Signature:
    """The four-constructor signature used throughout the test corpus:
    a/0, b/1, c/2, d/3 with generation probabilities .50/.20/.15/.15."""
    return Signature([
        Constructor("a", 0, 0.50),
        Constructor("b", 1, 0.20),
        Constructor("c", 2, 0.15),
        Constructor("d", 3, 0.15),
    ])


class Tree:
    """An immutable term over a fixed signature.

    `root` is the constructor index; `children` Trees, kept as a tuple.
    The constructor validates the root index, the child count and the
    children's type and signature, then computes size, packed bag and
    structural hash in O(arity) from the children's measures; it refuses
    a tree of 2**31 nodes or more, whose counts would not fit their
    fields.  Such a tree is node-backed: `children` is its primary data
    and `pre` is walked on first use.  `parse_tree` returns a tree backed
    by its preorder codes instead (see the module docstring); the two
    backings hash and compare alike.
    """

    __slots__ = ("sig", "root", "children", "size", "packed_bag", "struct_hash",
                 "_pre", "_eul", "_spans")

    def __init__(self, sig: Signature, root: int, children: Iterable["Tree"] = ()):
        children = tuple(children)
        if not isinstance(root, int) or isinstance(root, bool):
            raise ValueError(f"constructor index is not an int: {root!r}")
        if not 0 <= root < len(sig):
            raise ValueError(f"constructor index {root} not in 0..{len(sig) - 1}")
        arity = sig.arities[root]
        if len(children) != arity:
            raise ValueError(
                f"constructor {sig.names[root]!r} takes {arity} children, got {len(children)}"
            )
        for ch in children:
            if not isinstance(ch, Tree):
                raise TypeError(f"child of type {type(ch).__name__!r} is not a Tree")
            if ch.sig is not sig and ch.sig != sig:
                raise ValueError("child built over a different signature")
        _fill(self, sig, root, children)
        if self.size >= _FIELD_LIMIT:
            raise ValueError(f"tree of {self.size} nodes exceeds the limit of "
                             f"{_FIELD_LIMIT - 1}")

    @property
    def name(self) -> str:
        return self.sig.names[self.root]

    def __hash__(self) -> int:
        return self.struct_hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return tree_equal(self, other)

    def __repr__(self) -> str:
        return f"Tree({render_tree(self)})"

    def nodes(self) -> Iterator["Tree"]:
        """All nodes in preorder (iterative; safe for deep trees)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @property
    def bag(self) -> tuple[int, ...]:
        """One count per constructor, decoded from the packed bag."""
        fields = self.sig._bag_struct
        return fields.unpack(self.packed_bag.to_bytes(fields.size, "little"))

    @property
    def pre(self) -> tuple[int, ...]:
        if self._pre is None:
            stride = self.sig.sym_stride
            codes = []
            stack = [self]
            while stack:
                node = stack.pop()
                codes.append(node.root * stride)
                stack.extend(reversed(node.children))
            self._pre = tuple(codes)
        return self._pre

    @property
    def eul(self) -> tuple[int, ...]:
        if self._eul is None:
            stride = self.sig.sym_stride
            arities = self.sig.arities
            codes = []
            stack = [(self, 0)]
            while stack:
                node, visit = stack.pop()
                codes.append(node.root * stride + visit)
                if visit < arities[node.root]:
                    stack.append((node, visit + 1))
                    stack.append((node.children[visit], 0))
            self._eul = tuple(codes)
        return self._eul


_new_tree = Tree.__new__


class _ParsedTree(Tree):
    """A tree backed by its scaled preorder codes `_pre`; see `parse_tree`."""

    __slots__ = ()

    @property
    def children(self) -> tuple[Tree, ...]:
        """Node-backed children, built once on first access."""
        try:
            return Tree.children.__get__(self)  # the base class's slot
        except AttributeError:
            stride = self.sig.sym_stride
            kids = _build(self.sig, [c // stride for c in self._pre]).children
            Tree.children.__set__(self, kids)
            return kids

    @property
    def eul(self) -> tuple[int, ...]:
        """Read off the codes: a node's visit-i code ends its i-th child."""
        if self._eul is None:
            stride = self.sig.sym_stride
            arities = self.sig.arities
            code_arity = self.sig._code_arity
            codes = []
            pending = []  # the next code of every node with children to finish
            for c in self._pre:
                codes.append(c)
                if code_arity[c]:
                    pending.append(c + 1)
                    continue
                while pending:
                    c = pending.pop()
                    codes.append(c)
                    if c % stride != arities[c // stride]:
                        pending.append(c + 1)
                        break
            self._eul = tuple(codes)
        return self._eul


def _fill(t: Tree, sig: Signature, root: int, children: tuple[Tree, ...]) -> Tree:
    """Set every field of the node `t` and return it, checking nothing.

    The one definition of the eager measures of a node: size, packed bag
    and structural hash, each from the children's in O(arity).  `Tree()`
    calls it before its size check and `_build` on `_new_tree(Tree)`,
    having matched arity and signature itself.
    """
    t.sig = sig
    t.root = root
    t.children = children
    n = 1
    bag = sig.bag_units[root]
    hashes = [root]
    for ch in children:
        n += ch.size
        bag += ch.packed_bag
        hashes.append(ch.struct_hash)
    t.size = n
    t.packed_bag = bag
    t.struct_hash = hash(tuple(hashes))
    t._pre = t._eul = t._spans = None
    return t


def _build(sig: Signature, roots: list[int]) -> Tree:
    """The tree with constructor indices `roots` in preorder, which must
    match every arity (unchecked).  Filled bottom-up over the reversed
    list, without recursion; one leaf per nullary constructor per call."""
    arities = sig.arities
    leaves: dict[int, Tree] = {}
    stack: list[Tree] = []
    for root in reversed(roots):
        arity = arities[root]
        if arity:
            node = _fill(_new_tree(Tree), sig, root, tuple(stack[:-arity - 1:-1]))
            del stack[-arity:]
        else:
            node = leaves.get(root)
            if node is None:
                node = leaves[root] = _fill(_new_tree(Tree), sig, root, ())
        stack.append(node)
    return stack[0]


def _subtree_spans(t: Tree) -> tuple[list[int], list[int]]:
    """The subtree at position i of `t.pre` is `t.pre[i:ends[i]]`, and its
    packed bag is `sums[ends[i]] - sums[i]`; made once and cached on t."""
    spans = t._spans
    if spans is None:
        code_arity = t.sig._code_arity
        pre = t.pre
        ends = [0] * len(pre)
        done: list[int] = []  # ends of the finished subtrees, the leftmost last
        for i in range(len(pre) - 1, -1, -1):
            arity = code_arity[pre[i]]
            ends[i] = end = done[-arity] if arity else i + 1
            done[len(done) - arity:] = (end,)
        sums = list(accumulate(map(t.sig._code_unit.__getitem__, pre), initial=0))
        spans = t._spans = (ends, sums)
    return spans


class ConstructorBag:
    """A multiset over a signature's constructors (one count per constructor)."""

    __slots__ = ("sig", "counts")

    def __init__(self, sig: Signature, counts: tuple[int, ...]):
        if len(counts) != len(sig) or any(c < 0 for c in counts):
            raise ValueError("bag counts must be one non-negative int per constructor")
        self.sig = sig
        self.counts = counts

    @classmethod
    def of(cls, sig: Signature, items: dict[str, int]) -> "ConstructorBag":
        counts = [0] * len(sig)
        for name, k in items.items():
            counts[sig.index(name)] = k
        return cls(sig, tuple(counts))

    def __getitem__(self, name: str) -> int:
        return self.counts[self.sig.index(name)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstructorBag):
            return NotImplemented
        return self.sig == other.sig and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> frozenset[str]:
        return frozenset(n for n, c in zip(self.sig.names, self.counts) if c)

    def __repr__(self) -> str:
        inner = ",".join(f"{n}:{c}" for n, c in zip(self.sig.names, self.counts) if c)
        return "{" + inner + "}"


class TraversalSymbol(NamedTuple):
    """One traversal event: a constructor together with how many of its
    children have been traversed so far (always 0 in preorder strings)."""

    constructor: str
    visit: int


# ---------------------------------------------------------------------------
# measures: the plain cached Tree fields decoded into names and symbols

def _names(sig: Signature, guards: int) -> frozenset[str]:
    """The names of the constructors whose guard bits are set in guards."""
    return frozenset(n for i, n in enumerate(sig.names) if guards >> 32 * i + 31 & 1)


def _symbols(sig: Signature, codes: tuple[int, ...]) -> tuple[TraversalSymbol, ...]:
    """Traversal codes decoded through the stride encoding."""
    stride = sig.sym_stride
    return tuple(TraversalSymbol(sig.names[c // stride], c % stride) for c in codes)


def size(t: Tree) -> int:
    """Number of nodes (constructor occurrences) in t."""
    return t.size


def bag_at_least(t: Tree, k: int) -> int:
    """The guard bits of the fields of t's packed bag that count k or more
    (k >= 1): the key of Z at k = 1, of Y at its threshold.

    Setting every guard bit and subtracting k from every field leaves a
    guard bit set iff its count is at least k.  No count exceeds the size,
    so a k above it selects no field; otherwise k < 2**31 and no field
    borrows from the next.
    """
    if k > t.size:
        return 0
    sig = t.sig
    guards = sig.bag_guards
    return ((t.packed_bag | guards) - k * sig.bag_ones) & guards


def constructor_set(t: Tree) -> frozenset[str]:
    """The names of the constructors occurring in t."""
    return _names(t.sig, bag_at_least(t, 1))


def repeated_set(t: Tree, k: int = 2) -> frozenset[str]:
    """The names of the constructors occurring at least k times in t (k >= 2)."""
    return _names(t.sig, repeated_mask(t, k))


def _check_threshold(k: int) -> None:
    """Refuse a repetition threshold that is not an int of at least 2."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"repetition threshold must be an int >= 2, got {k!r}")


def repeated_mask(t: Tree, k: int = 2) -> int:
    """The Y key of t: `bag_at_least(t, k)`, refusing a threshold that is
    not an int of at least 2."""
    _check_threshold(k)
    return bag_at_least(t, k)


def constructor_bag(t: Tree) -> ConstructorBag:
    """The multiset of all constructor occurrences in t."""
    return ConstructorBag(t.sig, t.bag)


def pre_traversal(t: Tree) -> tuple[TraversalSymbol, ...]:
    """Constructors of t in preorder; injective over trees of one signature."""
    return _symbols(t.sig, t.pre)


def euler_traversal(t: Tree) -> tuple[TraversalSymbol, ...]:
    """Euler-tour string of t: each node is revisited between and after its
    children, emitting (constructor, visits-so-far) symbols."""
    return _symbols(t.sig, t.eul)


def tree_hash(t: Tree) -> int:
    """Structural hash, computed bottom-up at construction as Python's tuple
    hash of the root and the children's hashes.  Equal trees hash equal;
    collisions are resolved by tree_equal.  Stable across processes but not
    across Python versions or platforms, so never persist it."""
    return t.struct_hash


def tree_equal(t: Tree, u: Tree) -> bool:
    """Structural equality: hash, size and signature first, then the
    preorder codes, which determine a tree (any backing, iterative)."""
    if t is u:
        return True
    if t.struct_hash != u.struct_hash or t.size != u.size or t.sig != u.sig:
        return False
    return t.pre == u.pre


# ---------------------------------------------------------------------------
# term grammar:  term := NAME | NAME "(" term ("," term)* ")"
#
# The tokens are "(", ")", "," and names; whitespace only separates them.
# Padding every delimiter with spaces and splitting on whitespace yields the
# tokens: `str.split()` splits on exactly the characters `\s` matches, none
# of which a constructor name holds.  A final "" token stands for end of input.

def _tokens(text: str) -> list[str]:
    """The tokens of a term's text, then "" for end of input."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    tokens.append("")
    return tokens


def _offset(text: str, tokens: list[str], at: int) -> int:
    """Character offset of tokens[at] in text.  Only whitespace lies between
    two tokens, so each one is the first occurrence of its text after the
    end of the one before; the final "" is at the end of the text."""
    if not tokens[at]:
        return len(text)
    pos = 0
    for tok in tokens[:at]:
        pos = text.find(tok, pos) + len(tok)
    return text.find(tokens[at], pos)


def _arity_mismatch(sig: Signature, cidx: int, got: int) -> str:
    return f"arity mismatch for {sig.names[cidx]!r}: expected {sig.arities[cidx]}, got {got}"


def parse_tree(text: str, sig: Signature) -> Tree:
    """Parse one term; whitespace is insignificant.

    Raises ParseError for unknown constructors, arity mismatches (with the
    offending constructor's position) and malformed syntax.  The text is
    split into tokens by `str` builtins (see `_tokens`) and the parser
    counts positions in tokens; only an error turns its token index into
    a character offset, by walking the same token list (`_offset`).

    The parser checks every name, delimiter and arity itself and builds
    no node.  It returns a tree backed by its scaled preorder codes, with
    size, packed bag and the nested structural hash computed in the same
    pass, so it hashes and compares equal to the same tree built by
    `Tree()`.  Its children are built on first access, sharing one leaf
    per nullary constructor; two parses share no node.
    """
    index = sig._index
    arities = sig.arities
    stride = sig.sym_stride
    units = sig.bag_units
    codes: list[int] = []  # the scaled preorder codes
    bag = 0
    frames: list[tuple[int, list[int]]] = []  # open terms: (name token, [constructor, child hashes])
    error = None
    # positions are token indices until an error needs the character offset
    toks = _tokens(text)
    tokens = enumerate(toks)
    for at, tok in tokens:  # a name must come here
        cidx = index.get(tok)
        if cidx is None:
            error = ("unexpected end of input" if not tok
                     else f"expected a constructor, found {tok!r}" if tok in "(),"
                     else f"unknown constructor {tok!r}")
            break
        codes.append(cidx * stride)
        bag += units[cidx]
        # a name is never the last token, which is the "" end of input
        name_at = at
        at, tok = next(tokens)
        if tok == "(":
            frames.append((name_at, [cidx]))
            continue
        if arities[cidx]:
            error, at = _arity_mismatch(sig, cidx, 0), name_at
            break
        h = hash((cidx,))
        # close terms until a "," asks for the next name
        while frames:
            frames[-1][1].append(h)
            if tok == ",":
                break
            if tok != ")":
                error = f"expected ',' or ')', found {tok!r}" if tok else "unexpected end of input"
                break
            name_at, hashes = frames.pop()
            cidx = hashes[0]
            if len(hashes) - 1 != arities[cidx]:
                error, at = _arity_mismatch(sig, cidx, len(hashes) - 1), name_at
                break
            h = hash(tuple(hashes))
            at, tok = next(tokens)
        else:
            if not tok:
                t = _new_tree(_ParsedTree)
                t.sig, t.root, t.size, t.packed_bag, t.struct_hash = (
                    sig, codes[0] // stride, len(codes), bag, h)
                t._pre, t._eul, t._spans = tuple(codes), None, None
                return t
            error = f"unexpected {tok!r} after term"
        if error is not None:
            break
    at = _offset(text, toks, at)
    raise ParseError(f"{error} at position {at}", at)


def render_tree(t: Tree) -> str:
    """Canonical text form; parse_tree(render_tree(t)) == t.  Read off the
    preorder codes with a stack of the children each open term still
    lacks, so rendering a parsed tree builds no node."""
    sig = t.sig
    names, stride, code_arity = sig.names, sig.sym_stride, sig._code_arity
    out = []
    lacking: list[int] = []
    for c in t.pre:
        out.append(names[c // stride])
        arity = code_arity[c]
        if arity:
            out.append("(")
            lacking.append(arity)
            continue
        # a leaf closes every open term it completes
        while lacking:
            lacking[-1] -= 1
            if lacking[-1]:
                out.append(",")
                break
            lacking.pop()
            out.append(")")
    return "".join(out)


# ---------------------------------------------------------------------------
# tree files: one term per line, blank lines ignored

def iter_trees(path, sig: Signature) -> Iterator[Tree]:
    """Yield the trees of a tree file, reading one line per tree; ParseError
    messages are prefixed with the line number, positions count from the
    start of the line.  A leading byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # leading whitespace is kept, so positions count it
            line = raw.rstrip()
            if not line:
                continue
            try:
                t = parse_tree(line, sig)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}", exc.position) from None
            yield t


def load_trees(path, sig: Signature) -> list[Tree]:
    """Read a whole tree file; see iter_trees."""
    return list(iter_trees(path, sig))


def save_trees(path, trees: Iterable[Tree]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trees:
            fh.write(render_tree(t) + "\n")
