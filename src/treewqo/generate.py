"""Seeded random tree generation.

Trees are drawn as a branching process: the root constructor is sampled
from the signature's probabilities, then each child position is filled
recursively and independently.  With expected branching factor
m = sum(p_c * arity(c)) < 1 the process is subcritical and the expected
tree size is 1 / (1 - m); the default four-constructor signature gives
m = 0.95 and mean size 20.

The generator is a splitmix64 PRNG, fixed here (rather than the standard
library's) so that corpora are reproducible from the seed across
platforms and implementations:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state; z := (z XOR z>>30) * 0xBF58476D1CE4E5B9 mod 2^64
    z := (z XOR z>>27) * 0x94D049BB133111EB mod 2^64
    output := z XOR z>>31

Uniform [0, 1) variates take the top 53 bits.  Constructors are chosen by
inverse CDF in signature order.  A draw is its scaled preorder codes and
packed bag.  A draw that would exceed `size_cap` is abandoned at the
pick that would exceed it, which is never drawn, and redrawn from
scratch (the already-consumed randomness is not rewound, keeping the
sequence deterministic).  Only accepted draws become trees, backed by
their codes, and in a distinct corpus only the first draw of each tree.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .signature import Signature, Tree, _coded, default_signature

__all__ = ["SplitMix64", "GeneratorConfig", "random_tree", "generate_corpus",
           "default_config"]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Minimal deterministic PRNG; see the module docstring for the state
    transition."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus generation parameters.

    The signature must carry probabilities.  `distinct` rejects duplicate
    draws until `corpus_size` pairwise-distinct trees are collected.
    """

    signature: Signature
    seed: int = 1
    corpus_size: int = 400
    size_cap: int = 1000
    distinct: bool = True

    def __post_init__(self):
        if not self.signature.has_probabilities:
            raise ValueError("generation needs a signature with probabilities")
        for name in ("seed", "corpus_size", "size_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name.replace('_', ' ')} is not an int: {value!r}")
        if not isinstance(self.distinct, bool):
            raise ValueError(f"distinct is not a bool: {self.distinct!r}")
        if self.corpus_size < 0:
            raise ValueError(f"corpus size must be >= 0, got {self.corpus_size}")
        if self.size_cap < 1:
            raise ValueError(f"size cap must be >= 1, got {self.size_cap}")
        m = self.branching_factor
        if m >= 1.0:
            warnings.warn(
                f"expected branching factor {m:.3f} >= 1: generation may not terminate",
                stacklevel=2,
            )

    @property
    def branching_factor(self) -> float:
        return sum(p * c.arity for p, c in
                   zip(self.signature.probabilities, self.signature.constructors))

    @property
    def mean_size(self) -> float:
        """Analytic expected tree size of the (uncapped) branching process."""
        return 1.0 / (1.0 - self.branching_factor)


_RETRY_LIMIT = 1_000_000


def _draw(cfg: GeneratorConfig, rng: SplitMix64) -> tuple[tuple[int, ...], int]:
    """One accepted draw's scaled preorder codes and packed bag.  A draw is
    abandoned at the pick that would exceed the size cap, which consumes
    no randomness, and redrawn from scratch, up to the retry limit."""
    sig = cfg.signature
    cdf = list(accumulate(sig.probabilities))
    last = len(cdf) - 1
    arities, units, stride = sig.arities, sig.bag_units, sig.sym_stride
    cap = cfg.size_cap
    for _ in range(_RETRY_LIMIT):
        codes, bag, open_slots = [], 0, 1
        while open_slots and len(codes) < cap:
            # clamped against rounding of the last sum below 1
            root = min(bisect_right(cdf, rng.next_float()), last)
            codes.append(root * stride)
            bag += units[root]
            open_slots += arities[root] - 1
        if not open_slots:
            return tuple(codes), bag
    raise RuntimeError(f"gave up after {_RETRY_LIMIT} oversize draws (cap {cfg.size_cap})")


def random_tree(cfg: GeneratorConfig, rng: SplitMix64) -> Tree:
    """One tree from the configured distribution; oversize draws are
    resampled from scratch, up to the retry limit."""
    return _coded(cfg.signature, *_draw(cfg, rng))


def generate_corpus(cfg: GeneratorConfig) -> list[Tree]:
    """`corpus_size` trees in draw order, pairwise distinct when
    `cfg.distinct`, deterministic in the seed.  Duplicates are told apart
    by their preorder codes, before any tree is made."""
    rng = SplitMix64(cfg.seed)
    corpus: list[Tree] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(corpus) < cfg.corpus_size:
        attempts += 1
        if attempts > _RETRY_LIMIT:
            raise RuntimeError(
                f"could not draw {cfg.corpus_size} distinct trees in {_RETRY_LIMIT} attempts"
            )
        codes, bag = _draw(cfg, rng)
        if cfg.distinct:
            if codes in seen:
                continue
            seen.add(codes)
        corpus.append(_coded(cfg.signature, codes, bag))
    return corpus


def default_config(seed: int = 1, corpus_size: int = 400, size_cap: int = 1000) -> GeneratorConfig:
    """Config over the built-in four-constructor signature."""
    return GeneratorConfig(default_signature(), seed, corpus_size, size_cap)
