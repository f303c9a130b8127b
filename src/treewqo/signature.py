"""Signatures, trees, and the per-tree measures the tree orders consume.

A Signature is a finite alphabet of constructors, each with a fixed arity
(and, optionally, a generation probability used by the random-tree
generator).  A Tree is a finite term over one signature; the number of
children of every node must equal its constructor's declared arity.

Every tree node eagerly carries the cheap bottom-up measures (size,
constructor-set bitmask, structural hash) so that sequence checkers never
recompute them; the heavier whole-tree measures are computed once on first
access and cached on the node as plain tuples of ints: `bag` holds one
count per constructor, `pre` and `eul` the preorder and Euler traversal
codes.  The order kernels read these tuples directly; the measure
functions (`constructor_bag`, `pre_traversal`, `euler_traversal`) wrap
them in `ConstructorBag` / `TraversalString` for callers who want names
and symbols.  All traversals are iterative, so deep chain-shaped trees do
not hit the interpreter recursion limit.

Traversal strings use one alphabet for both traversals: the symbol "c
visited i times" is encoded as ``index(c) * (max_arity + 1) + i``.  A
preorder string is then exactly the subsequence of the Euler string formed
by the visit-0 symbols.

The structural hash is Python's tuple hash of the root index and the
children's hashes.  Int and tuple hashes are not salted, so it is stable
across processes, but not across Python versions or platforms: it only
serves in-memory dicts, sets and the `tree_equal` guard and must never be
persisted.  Reproducible corpora rest on `generate.SplitMix64` instead.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Constructor",
    "Signature",
    "Tree",
    "ConstructorSet",
    "ConstructorBag",
    "TraversalSymbol",
    "TraversalString",
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

# a constructor name: one name token of the term grammar (see parse_tree)
_NAME = r"[^\s(),]+"


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
    # '#' starts a comment in signature files, and a lone surrogate cannot
    # be written to a UTF-8 tree file
    if not re.fullmatch(_NAME, c.name) or re.search(r"[#\ud800-\udfff]", c.name):
        raise ValueError(f"bad constructor name {c.name!r}")
    if c.name in seen:
        raise ValueError(f"duplicate constructor {c.name!r}")
    seen.add(c.name)
    if c.arity < 0:
        raise ValueError(f"negative arity for {c.name!r}")
    if c.probability is not None and not 0.0 <= c.probability <= 1.0:
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

        '#' starts a comment; blank lines are ignored.  Errors about one
        constructor name its line; errors about the whole text do not.
        """
        ctors = []
        seen: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
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
        with open(path, encoding="utf-8") as fh:
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

    `root` is the constructor index; `children` a tuple of Tree.  The
    constructor validates the child count against the declared arity and
    computes size, constructor-set mask and structural hash in O(arity)
    from the children's already-computed measures (one bottom-up pass per
    tree overall).
    """

    __slots__ = ("sig", "root", "children", "size", "mask", "struct_hash",
                 "_bag", "_pre", "_eul")

    def __init__(self, sig: Signature, root: int, children: tuple["Tree", ...] = ()):
        arity = sig.arities[root]
        if len(children) != arity:
            raise ValueError(
                f"constructor {sig.names[root]!r} takes {arity} children, got {len(children)}"
            )
        self.sig = sig
        self.root = root
        self.children = children
        n = 1
        mask = 1 << root
        hashes = [root]
        for ch in children:
            if ch.sig is not sig and ch.sig != sig:
                raise ValueError("child built over a different signature")
            n += ch.size
            mask |= ch.mask
            hashes.append(ch.struct_hash)
        self.size = n
        self.mask = mask
        self.struct_hash = hash(tuple(hashes))
        self._bag = None
        self._pre = None
        self._eul = None

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
        if self._bag is None:
            counts = [0] * len(self.sig)
            stack = [self]
            while stack:
                node = stack.pop()
                counts[node.root] += 1
                stack.extend(node.children)
            self._bag = tuple(counts)
        return self._bag

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


class ConstructorSet:
    """A subset of a signature's constructors, stored as a bitmask."""

    __slots__ = ("sig", "mask")

    def __init__(self, sig: Signature, mask: int):
        self.sig = sig
        self.mask = mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstructorSet):
            return NotImplemented
        return self.sig == other.sig and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __le__(self, other: "ConstructorSet") -> bool:
        return self.mask & ~other.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def names(self) -> frozenset[str]:
        return frozenset(n for i, n in enumerate(self.sig.names) if self.mask >> i & 1)

    def __repr__(self) -> str:
        return "{" + ",".join(sorted(self.names())) + "}"


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

    def support(self) -> ConstructorSet:
        mask = 0
        for i, c in enumerate(self.counts):
            if c:
                mask |= 1 << i
        return ConstructorSet(self.sig, mask)

    def __repr__(self) -> str:
        inner = ",".join(f"{n}:{c}" for n, c in zip(self.sig.names, self.counts) if c)
        return "{" + inner + "}"


class TraversalSymbol(NamedTuple):
    """One traversal event: a constructor together with how many of its
    children have been traversed so far (always 0 in preorder strings)."""

    constructor: str
    visit: int


class TraversalString:
    """A string of traversal symbols, stored as packed integer codes."""

    __slots__ = ("sig", "codes")

    def __init__(self, sig: Signature, codes: tuple[int, ...]):
        self.sig = sig
        self.codes = codes

    @property
    def symbols(self) -> tuple[TraversalSymbol, ...]:
        stride = self.sig.sym_stride
        names = self.sig.names
        return tuple(TraversalSymbol(names[c // stride], c % stride) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[TraversalSymbol]:
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraversalString):
            return NotImplemented
        return self.sig == other.sig and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __str__(self) -> str:
        return " ".join(f"{s.constructor}{s.visit}" for s in self.symbols)

    def __repr__(self) -> str:
        return f"TraversalString({self})"


# ---------------------------------------------------------------------------
# measures: the wrapper types over the plain cached Tree attributes

def size(t: Tree) -> int:
    """Number of nodes (constructor occurrences) in t."""
    return t.size


def constructor_set(t: Tree) -> ConstructorSet:
    """The set of constructors occurring in t."""
    return ConstructorSet(t.sig, t.mask)


def repeated_set(t: Tree, k: int = 2) -> ConstructorSet:
    """The set of constructors occurring at least k times in t (k >= 2)."""
    return ConstructorSet(t.sig, repeated_mask(t, k))


def repeated_mask(t: Tree, k: int = 2) -> int:
    if k < 2:
        raise ValueError(f"repetition threshold must be >= 2, got {k}")
    mask = 0
    for i, c in enumerate(t.bag):
        if c >= k:
            mask |= 1 << i
    return mask


def constructor_bag(t: Tree) -> ConstructorBag:
    """The multiset of all constructor occurrences in t."""
    return ConstructorBag(t.sig, t.bag)


def pre_traversal(t: Tree) -> TraversalString:
    """Constructors of t in preorder; injective over trees of one signature."""
    return TraversalString(t.sig, t.pre)


def euler_traversal(t: Tree) -> TraversalString:
    """Euler-tour string of t: each node is revisited between and after its
    children, emitting (constructor, visits-so-far) symbols."""
    return TraversalString(t.sig, t.eul)


def tree_hash(t: Tree) -> int:
    """Structural hash, computed bottom-up at construction as Python's tuple
    hash of the root and the children's hashes.  Equal trees hash equal;
    collisions are resolved by tree_equal.  Stable across processes but not
    across Python versions or platforms, so never persist it."""
    return t.struct_hash


def tree_equal(t: Tree, u: Tree) -> bool:
    """Structural equality (hash-guarded, iterative)."""
    if t is u:
        return True
    if t.struct_hash != u.struct_hash or t.size != u.size or t.sig != u.sig:
        return False
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.root != b.root or a.struct_hash != b.struct_hash:
            return False
        stack.extend(zip(a.children, b.children))
    return True


# ---------------------------------------------------------------------------
# term grammar:  term := NAME | NAME "(" term ("," term)* ")"

# one token per match; the empty match at the end of the text marks end of input
_TOKEN = re.compile(rf"[(),]|{_NAME}|\Z")


def parse_tree(text: str, sig: Signature) -> Tree:
    """Parse one term; whitespace is insignificant.

    Raises ParseError for unknown constructors, arity mismatches (with the
    offending constructor's position) and malformed syntax.
    """
    index = sig._index
    arities = sig.arities
    frames: list[tuple[int, int, list[Tree]]] = []  # open terms: (constructor, position, children)
    # the term before the current token, or None where a name must come next:
    # (constructor, position, children); children is None for a bare name,
    # which a "(" turns into an open term
    last = None
    for m in _TOKEN.finditer(text):
        tok, at = m.group(), m.start()
        if last is None:
            cidx = index.get(tok)
            if cidx is None:
                error = ("unexpected end of input" if not tok
                         else f"expected a constructor, found {tok!r}" if tok in "(),"
                         else f"unknown constructor {tok!r}")
                break
            last = (cidx, at, None)
            continue
        cidx, cat, kids = last
        if kids is None and tok == "(":
            frames.append((cidx, cat, []))
            last = None
            continue
        kids = kids or ()
        if len(kids) != arities[cidx]:
            error = (f"arity mismatch for {sig.names[cidx]!r}: "
                     f"expected {arities[cidx]}, got {len(kids)}")
            at = cat
            break
        node = Tree(sig, cidx, tuple(kids))
        if not frames:
            if not tok:
                return node
            error = f"unexpected {tok!r} after term"
            break
        frames[-1][2].append(node)
        if tok == ",":
            last = None
        elif tok == ")":
            last = frames.pop()
        else:
            error = f"expected ',' or ')', found {tok!r}" if tok else "unexpected end of input"
            break
    raise ParseError(f"{error} at position {at}", at)


def render_tree(t: Tree) -> str:
    """Canonical text form; parse_tree(render_tree(t)) == t."""
    names = t.sig.names
    out = []
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(names[item.root])
        if item.children:
            stack.append(")")
            for ch in reversed(item.children[1:]):
                stack.append(ch)
                stack.append(",")
            stack.append(item.children[0])
            stack.append("(")
    return "".join(out)


# ---------------------------------------------------------------------------
# tree files: one term per line, blank lines ignored

def iter_trees(path, sig: Signature) -> Iterator[Tree]:
    """Yield the trees of a tree file, reading one line per tree; ParseError
    messages are prefixed with the line number, positions count from the
    start of the line."""
    with open(path, encoding="utf-8") as fh:
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
