"""Signatures, trees, and the per-tree measures the tree orders consume.

A Signature is a finite alphabet of constructors, each with a fixed arity
(and, optionally, a generation probability used by the random-tree
generator).  A Tree is a finite term over one signature; the number of
children of every node must equal its constructor's declared arity.

A tree has one of two backings and one identity, its preorder codes.
Only `Tree()` makes a node-backed tree: it checks arity and signature,
holds the children and walks them to its codes on first use.  Every
other tree the package makes, from `parse_tree`, the generator or
`monotone_stream`, is code-backed, made by `_coded` from its scaled
preorder codes.  Its children are built once, on first access, by one
`_build` call, which shares one leaf per nullary constructor within that
call only; no push of a named order, no census and no rendering reads
them.  Each root eagerly carries size and packed bag: `_fill` defines
them for nodes, and the makers of code-backed trees pass them with the
codes.

Arities are fixed, so equal codes mean equal trees over one signature.
A tree hashes as its `pre` tuple and compares its bag, then its codes,
so the two backings hash and compare alike, and a node-backed tree walks
its nodes only when something hashes, compares or traverses it.  Int and
tuple hashes are not salted, so the hash is stable across processes but
not across Python versions or platforms: it serves in-memory dicts and
sets and is never persisted; reproducible corpora rest on
`generate.SplitMix64`.

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

`pre` and `eul`, the preorder and Euler traversal codes, are plain
tuples of ints cached once made; `eul` is read off `pre`, and `bag`
decodes the packed bag into one count per constructor on every access.
Both traversals use one alphabet: "c visited i times" is
``index(c) * (max_arity + 1) + i``, so a preorder string is the
subsequence of visit-0 symbols of the Euler string.  The order kernels
read these fields; the measure functions (`constructor_set`,
`repeated_set`, `constructor_bag`, `pre_traversal`, `euler_traversal`)
decode them into names and symbols.  All traversals are iterative, so
deep chain-shaped trees do not hit the interpreter recursion limit.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from operator import length_hint
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
    """An immutable term over a fixed signature: `root` is the constructor
    index and `children` a tuple of Trees.  The constructor checks the root
    index, the child count and the children's type and signature, and
    refuses a tree of 2**31 nodes or more.  The tree it makes is
    node-backed; see the module docstring for the backings."""

    __slots__ = ("sig", "root", "children", "size", "packed_bag", "_pre", "_eul", "_spans")

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
        return hash(self.pre)

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
        """Read off the preorder codes: a node's visit-i code ends its i-th child."""
        if self._eul is None:
            stride = self.sig.sym_stride
            arities = self.sig.arities
            code_arity = self.sig._code_arity
            codes = []
            pending = []  # the next code of every node with children to finish
            for c in self.pre:
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


_new_tree = Tree.__new__


class _CodedTree(Tree):
    """A tree backed by its scaled preorder codes `_pre`; see `_coded`."""

    __slots__ = ()

    @property
    def children(self) -> tuple[Tree, ...]:
        """Node-backed children, built once on first access."""
        try:
            return Tree.children.__get__(self)  # the base class's slot
        except AttributeError:
            kids = _build(self.sig, [c // self.sig.sym_stride for c in self._pre]).children
            Tree.children.__set__(self, kids)
            return kids


def _coded(sig: Signature, codes: Iterable[int], bag: int) -> Tree:
    """The code-backed tree of scaled preorder codes `codes` and packed bag
    `bag`, both unchecked; every tree not made by `Tree()` is made here."""
    t = _new_tree(_CodedTree)
    t._pre = codes = tuple(codes)
    t.sig, t.root, t.size, t.packed_bag = sig, codes[0] // sig.sym_stride, len(codes), bag
    t._eul = t._spans = None
    return t


def _fill(t: Tree, sig: Signature, root: int, children: tuple[Tree, ...]) -> Tree:
    """Set every field of the node `t`, its size and packed bag from the
    children's in O(arity), and return it, checking nothing."""
    t.sig = sig
    t.root = root
    t.children = children
    n = 1
    bag = sig.bag_units[root]
    for ch in children:
        n += ch.size
        bag += ch.packed_bag
    t.size = n
    t.packed_bag = bag
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
    (k >= 1): the key of Z at k = 1, of Y at its threshold.  Setting every
    guard bit and subtracting k from every field leaves a guard bit set iff
    its count is at least k; no count exceeds the size, so a k above it
    selects no field, and otherwise k < 2**31 and no field borrows."""
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


def _check_count(what: str, value: int, least: int) -> None:
    """Refuse a count that is not an int (bool included) or below `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} is not an int: {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


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
    """Python's hash of t's preorder codes; equal trees hash equal.  Never
    persist it (see the module docstring)."""
    return hash(t.pre)


def tree_equal(t: Tree, u: Tree) -> bool:
    """Structural equality: packed bag (so size) and signature first, then
    the preorder codes, which determine a tree (any backing, iterative)."""
    if t is u:
        return True
    if t.packed_bag != u.packed_bag or t.sig != u.sig:
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


def _opening_name(toks: list[str], at: int) -> int:
    """The index of the name whose "(" the ")" at toks[at] closes."""
    depth = 0
    while True:
        depth += (toks[at] == ")") - (toks[at] == "(")
        if not depth:
            return at - 1
        at -= 1


def parse_tree(text: str, sig: Signature) -> Tree:
    """Parse one term, whitespace insignificant, into a code-backed tree
    (see the module docstring); it builds no node.

    Raises ParseError for unknown constructors, arity mismatches (with the
    offending constructor's position) and malformed syntax.  The parser
    tracks no position: only an error takes its token index from the
    iterator's remaining length, finds the constructor of a term closed
    with too few or too many children by a backward scan for its "(", and
    turns the index into a character offset (`_offset`).
    """
    index = sig._index
    arities = sig.arities
    stride = sig.sym_stride
    units = sig.bag_units
    codes: list[int] = []  # the scaled preorder codes
    bag = 0
    lacking: list[int] = []  # the children each open term still lacks
    error = at = None
    toks = _tokens(text)
    tokens = iter(toks)
    for tok in tokens:  # a name must come here
        cidx = index.get(tok)
        if cidx is None:
            error = ("unexpected end of input" if not tok
                     else f"expected a constructor, found {tok!r}" if tok in "(),"
                     else f"unknown constructor {tok!r}")
            break
        codes.append(cidx * stride)
        bag += units[cidx]
        # a name is never the last token, which is the "" end of input
        tok = next(tokens)
        if tok == "(":
            lacking.append(arities[cidx])
            continue
        if arities[cidx]:
            # reported at the name, the token before tok
            error, at = _arity_mismatch(sig, cidx, 0), len(toks) - 2 - length_hint(tokens)
            break
        # close terms until a "," asks for the next name
        while lacking:
            lacking[-1] -= 1
            if tok == ",":
                break
            if tok != ")":
                error = f"expected ',' or ')', found {tok!r}" if tok else "unexpected end of input"
                break
            missing = lacking.pop()
            if missing:
                # reported at the name of the term tok closes
                at = _opening_name(toks, len(toks) - 1 - length_hint(tokens))
                cidx = index[toks[at]]
                error = _arity_mismatch(sig, cidx, arities[cidx] - missing)
                break
            tok = next(tokens)
        else:
            if not tok:
                return _coded(sig, codes, bag)
            error = f"unexpected {tok!r} after term"
        if error is not None:
            break
    if at is None:  # reported at tok
        at = len(toks) - 1 - length_hint(tokens)
    at = _offset(text, toks, at)
    raise ParseError(f"{error} at position {at}", at)


def render_tree(t: Tree) -> str:
    """Canonical text form; parse_tree(render_tree(t)) == t.  Read off the
    preorder codes with a stack of the children each open term still
    lacks, so rendering a code-backed tree builds no node."""
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
