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
inverse CDF in signature order, one pick per node in preorder.  A draw
that would exceed `size_cap` is abandoned at the pick that would exceed
it, which is never drawn, and redrawn from scratch (the already-consumed
randomness is not rewound, keeping the sequence deterministic).  Only
accepted draws become trees.

The generator is counter-based: the k-th output from state s mixes
s + k * 0x9E3779B97F4A7C15 mod 2^64 and depends on no other output
(Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014).  So picks are drawn in numpy blocks, each
block one array expression, and one Python loop walks them into draws.
Picks drawn ahead and not used are never counted: after each draw
`rng.state` has advanced one step per pick consumed, just as one
`next_float` per pick leaves it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator

from .signature import Signature, Tree, _check_count, _coded, default_signature

__all__ = ["SplitMix64", "GeneratorConfig", "random_tree", "generate_corpus",
           "default_config"]

_MASK64 = (1 << 64) - 1
# the state increment and the two multipliers of the output mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Minimal deterministic PRNG; see the module docstring for the state
    transition.  `next_u64` and `next_float` define the sequence; the
    generator reads it in blocks, as the module docstring says."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed is not an int: {self.seed!r}")
        _check_count("corpus size", self.corpus_size, 0)
        _check_count("size cap", self.size_cap, 1)
        if not isinstance(self.distinct, bool):
            raise ValueError(f"distinct is not a bool: {self.distinct!r}")
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

# picks per block: the first block is small, so that one `random_tree`
# stays cheap, and each next one doubles up to the cap
_BLOCK_MIN, _BLOCK_MAX = 32, 4096


def _blocks(cdf: list[float], state: int) -> Iterator[list[int]]:
    """The indices of the constructors picked after `state`, endlessly,
    in blocks.  A block is one array expression equal to one
    `next_float` per pick; no `SplitMix64` is advanced."""
    import numpy as np
    cdf = np.asarray(cdf)
    n = _BLOCK_MIN
    while True:
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * (1.0 / (1 << 53))
        # clamped against rounding of the last sum below 1
        roots = np.minimum(np.searchsorted(cdf, u, "right"), len(cdf) - 1)
        yield roots.tolist()
        state = (state + n * _GAMMA) & _MASK64
        n = min(2 * n, _BLOCK_MAX)


def _draws(cfg: GeneratorConfig, rng: SplitMix64) -> Iterator[tuple[tuple[int, ...], int]]:
    """Accepted draws' preorder codes and packed bags, endlessly;
    oversize draws are redrawn as the module docstring says, up to the
    retry limit for each accepted draw.  After every attempt, `rng.state`
    counts the picks consumed."""
    sig = cfg.signature
    cdf = list(accumulate(sig.probabilities))
    slots = [arity - 1 for arity in sig.arities]
    unit, cap = sig.bag_units, cfg.size_cap
    start, used, oversize = rng.state, 0, 0
    picks = chain.from_iterable(_blocks(cdf, start))
    while True:
        codes, open_slots = [], 1
        for code in picks:
            codes.append(code)
            open_slots += slots[code]
            if not open_slots or len(codes) == cap:
                break
        used += len(codes)
        rng.state = (start + used * _GAMMA) & _MASK64
        if not open_slots:
            yield tuple(codes), sum(map(unit.__getitem__, codes))
            oversize = 0
        else:
            oversize += 1
            if oversize == _RETRY_LIMIT:
                raise RuntimeError(
                    f"gave up after {_RETRY_LIMIT} oversize draws (cap {cfg.size_cap})")


def random_tree(cfg: GeneratorConfig, rng: SplitMix64) -> Tree:
    """One code-backed tree from the configured distribution."""
    return _coded(cfg.signature, *next(_draws(cfg, rng)))


def generate_corpus(cfg: GeneratorConfig) -> list[Tree]:
    """`corpus_size` trees in draw order, pairwise distinct when
    `cfg.distinct`, deterministic in the seed.  Duplicates are told apart
    by their preorder codes, before any tree is made."""
    draws = _draws(cfg, SplitMix64(cfg.seed))
    corpus: list[Tree] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(corpus) < cfg.corpus_size:
        attempts += 1
        if attempts > _RETRY_LIMIT:
            raise RuntimeError(
                f"could not draw {cfg.corpus_size} distinct trees in {_RETRY_LIMIT} attempts"
            )
        codes, bag = next(draws)
        if cfg.distinct:
            if codes in seen:
                continue
            seen.add(codes)
        corpus.append(_coded(cfg.signature, codes, bag))
    return corpus


def default_config(seed: int = 1, corpus_size: int = 400, size_cap: int = 1000) -> GeneratorConfig:
    """Config over the built-in four-constructor signature."""
    return GeneratorConfig(default_signature(), seed, corpus_size, size_cap)
