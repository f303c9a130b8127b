import hashlib
from bisect import bisect_right
from itertools import accumulate, chain, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treewqo import (
    GeneratorConfig,
    Signature,
    SplitMix64,
    default_signature,
    generate_corpus,
    default_config,
    random_tree,
    render_tree,
)
from treewqo import generate

from .oracles import naive_corpus, naive_draw, naive_preorder


def test_splitmix_reference_values():
    # first outputs for seed 0 of the standard splitmix64 sequence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_floats_in_unit_interval():
    rng = SplitMix64(99)
    xs = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_degenerate_distribution_always_leaf():
    sig = Signature([("a", 0, 1.0), ("b", 1, 0.0), ("c", 2, 0.0), ("d", 3, 0.0)])
    cfg = GeneratorConfig(sig, seed=5, corpus_size=10)
    rng = SplitMix64(cfg.seed)
    for _ in range(50):
        assert render_tree(random_tree(cfg, rng)) == "a"


def test_same_seed_same_sequence():
    cfg = GeneratorConfig(default_signature(), seed=123)
    a = [random_tree(cfg, SplitMix64(7)) for _ in range(20)]
    b = [random_tree(cfg, SplitMix64(7)) for _ in range(20)]
    assert a == b


def test_size_cap_respected():
    cfg = GeneratorConfig(default_signature(), seed=1, size_cap=5)
    rng = SplitMix64(1)
    assert all(random_tree(cfg, rng).size <= 5 for _ in range(500))


def test_mean_size_tracks_branching_process():
    # uncapped: truncation at the default census cap biases the mean low
    cfg = GeneratorConfig(default_signature(), seed=2024, size_cap=10_000_000)
    assert cfg.branching_factor == pytest.approx(0.95)
    assert cfg.mean_size == pytest.approx(20.0)
    rng = SplitMix64(cfg.seed)
    sizes = [random_tree(cfg, rng).size for _ in range(10_000)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - cfg.mean_size) / cfg.mean_size < 0.20


def test_supercritical_config_warns():
    sig = Signature([("a", 0, 0.2), ("d", 3, 0.8)])
    with pytest.warns(UserWarning, match="branching factor"):
        GeneratorConfig(sig, seed=1, size_cap=10)


def test_probabilities_required():
    with pytest.raises(ValueError, match="probabilities"):
        GeneratorConfig(Signature([("a", 0), ("b", 1)]), seed=1)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("corpus_size", 2.5), ("size_cap", 10.5),
    ("size_cap", False),
])
def test_non_int_counts_refused(field, value):
    # a float cap would never equal a draw's length, so it would not cap
    message = f"{field.replace('_', ' ')} is not an int: {value!r}"
    with pytest.raises(ValueError, match=message):
        GeneratorConfig(default_signature(), **{field: value})


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_non_bool_distinct_refused(value):
    # any truthy value used to mean True, "no" included
    with pytest.raises(ValueError, match=f"distinct is not a bool: {value!r}"):
        GeneratorConfig(default_signature(), seed=1, corpus_size=50, distinct=value)


class TestCorpus:
    def test_distinct_and_sized(self):
        cfg = GeneratorConfig(default_signature(), seed=11, corpus_size=200)
        corpus = generate_corpus(cfg)
        assert len(corpus) == 200
        assert len(set(corpus)) == 200
        assert all(t.pre == tuple(naive_preorder(t)) for t in corpus)

    def test_single_tree(self):
        cfg = GeneratorConfig(default_signature(), seed=3, corpus_size=1)
        assert len(generate_corpus(cfg)) == 1

    def test_deterministic(self):
        cfg = GeneratorConfig(default_signature(), seed=42, corpus_size=50)
        assert generate_corpus(cfg) == generate_corpus(cfg)

    def test_duplicates_allowed_when_not_distinct(self):
        cfg = GeneratorConfig(default_signature(), seed=6, corpus_size=300,
                              distinct=False)
        corpus = generate_corpus(cfg)
        assert len(corpus) == 300
        assert len(set(corpus)) < 300  # leaves repeat with probability 1/2


def _digest(trees) -> str:
    return hashlib.sha256("".join(render_tree(t) + "\n" for t in trees).encode()).hexdigest()


class TestFixedCorpora:
    """Rendered corpora of fixed seeds: any change to the draw, the inverse
    CDF or the oversize rule changes them."""

    def test_census_config(self):
        corpus = generate_corpus(default_config(1, 400, 200))
        assert _digest(corpus) == \
            "3707958a7d04fc38e155267889acc03635093e470faa6ac2da85377006aba5f8"

    def test_online_config(self):
        cfg = GeneratorConfig(default_signature(), 7919, 2000, size_cap=200, distinct=False)
        assert _digest(generate_corpus(cfg)) == \
            "7b625566c35d0a2a16c67fb8e270ece2bd4c4bfc7927627b78095257a78ef387"

    def test_oversize_redraws_consume_the_same_randomness(self):
        # mean size 20 against a cap of 5: most draws are abandoned
        cfg = GeneratorConfig(default_signature(), 3, 300, size_cap=5, distinct=False)
        rng = SplitMix64(cfg.seed)
        trees = [random_tree(cfg, rng) for _ in range(cfg.corpus_size)]
        assert trees == generate_corpus(cfg)
        assert ",".join(render_tree(t) for t in trees[:12]) == \
            "a,c(b(a),a),b(a),a,a,c(c(a,a),a),a,a,a,b(a),a,a"
        assert _digest(trees) == \
            "640c48b3f131314d2318e29849a61e8b9d4e2250ff2252420416f2b9d55976ec"
        assert rng.next_u64() == 2263245051702344258


# the oracle's signatures: m = 0.95, 0, 0.8 with a constructor never
# picked, 0.999, and 0.3 over 300 constructors, whose picks of 255 and
# more take the exact path of every lane
ORACLE_SIGS = {
    "default": default_signature(),
    "all-leaf": Signature([("x", 0, 0.3), ("y", 0, 0.7)]),
    "zero-probability": Signature([("a", 0, 0.6), ("b", 1, 0.0), ("c", 2, 0.4)]),
    "near-critical": Signature([("a", 0, 0.5005), ("c", 2, 0.4995)]),
    "wide": Signature([("u", 1, 0.3), *((f"c{i}", 0, 0.7 / 299) for i in range(299))]),
}

# small enough that corpora with too few distinct trees fail fast
ORACLE_LIMIT = 40

SEEDS = st.sampled_from([0, 2**63, 2**64 - 1, -1]) | st.integers(-2**70, 2**70)


def _roots(t):
    """The root indices of a generated tree, checked against its bag."""
    assert t.bag == tuple(t.pre.count(i) for i in range(len(t.sig)))
    return t.pre


def _outcome(draw):
    try:
        return draw()
    except RuntimeError as exc:
        return str(exc)


def _picks_consumed(rng, start):
    return (rng.state - start) * pow(generate._GAMMA, -1, 1 << 64) % (1 << 64)


class TestAgainstNaive:
    """The block draw equals one `next_float` and one bisect per node:
    every tree, every error, and `rng.state` after every call."""

    @pytest.mark.parametrize("name", ORACLE_SIGS)
    @pytest.mark.parametrize("cap", [1, 2, 5, 200])
    @given(seed=SEEDS, calls=st.integers(1, 12))
    @example(seed=0, calls=12)
    @example(seed=2**64 - 1, calls=12)
    @example(seed=-1, calls=12)
    @settings(max_examples=15, deadline=None)
    def test_random_tree(self, name, cap, seed, calls):
        cfg = GeneratorConfig(ORACLE_SIGS[name], seed, size_cap=cap)
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(calls):
            assert _roots(random_tree(cfg, rng)) == naive_draw(cfg, ref, generate._RETRY_LIMIT)
            assert rng.state == ref.state

    @pytest.mark.parametrize("name", ORACLE_SIGS)
    @pytest.mark.parametrize("cap", [1, 2, 5, 200])
    @pytest.mark.parametrize("distinct", [True, False])
    @given(seed=SEEDS, size=st.integers(0, 12))
    @example(seed=0, size=12)
    @example(seed=2**64 - 1, size=12)
    @example(seed=-1, size=12)
    @settings(max_examples=10, deadline=None)
    def test_generate_corpus(self, name, cap, distinct, seed, size):
        cfg = GeneratorConfig(ORACLE_SIGS[name], seed, size, size_cap=cap, distinct=distinct)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generate, "_RETRY_LIMIT", ORACLE_LIMIT)
            got = _outcome(lambda: [_roots(t) for t in generate_corpus(cfg)])
        assert got == _outcome(lambda: naive_corpus(cfg, ORACLE_LIMIT))

    def test_draws_span_blocks(self):
        # m = 0.999 and a large cap: one tree outgrows two of the largest blocks
        cfg = GeneratorConfig(ORACLE_SIGS["near-critical"], 2, 40, size_cap=30_000,
                              distinct=False)
        corpus = generate_corpus(cfg)
        assert max(t.size for t in corpus) > 2 * generate._BLOCK_MAX
        assert [_roots(t) for t in corpus] == naive_corpus(cfg, generate._RETRY_LIMIT)
        rng, ref = SplitMix64(2), SplitMix64(2)
        for _ in range(40):
            assert _roots(random_tree(cfg, rng)) == naive_draw(cfg, ref, generate._RETRY_LIMIT)
            assert rng.state == ref.state

    def test_oversize_draw_abandoned_at_a_block_end(self):
        # a cap of one first block: seed 12's first draw is abandoned at its
        # last pick, and the accepted draw starts the second block
        cfg = GeneratorConfig(default_signature(), 12, 3, size_cap=generate._BLOCK_MIN,
                              distinct=False)
        rng, ref = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        t = random_tree(cfg, rng)
        assert _picks_consumed(rng, cfg.seed) == generate._BLOCK_MIN + t.size
        assert _roots(t) == naive_draw(cfg, ref, generate._RETRY_LIMIT)
        assert rng.state == ref.state
        assert [_roots(t) for t in generate_corpus(cfg)] == \
            naive_corpus(cfg, generate._RETRY_LIMIT)

    def test_interleaved_with_scalar_calls(self):
        cfg = GeneratorConfig(default_signature(), 5, size_cap=50)
        rng, ref = SplitMix64(5), SplitMix64(5)
        for _ in range(30):
            assert _roots(random_tree(cfg, rng)) == naive_draw(cfg, ref, generate._RETRY_LIMIT)
            assert rng.next_u64() == ref.next_u64()
            assert _roots(random_tree(cfg, rng)) == naive_draw(cfg, ref, generate._RETRY_LIMIT)
            assert rng.next_float() == ref.next_float()
        assert rng.state == ref.state

    @pytest.mark.parametrize("state", [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15])
    def test_blocks_are_next_float(self, state):
        # bounds on top-byte edges, sums rounded above 1, bounds that split a
        # bucket, a constructor never picked, and picks of 255 and more;
        # 10 000 picks run into the second block of the largest size
        cdfs = [[0.25, 0.5, 0.75, 1.0], [0.5, 1 + 2**-40, 1 + 2**-40]]
        cdfs += [list(accumulate(ORACLE_SIGS[name].probabilities))
                 for name in ("default", "zero-probability", "wide")]
        for cdf in cdfs:
            rng = SplitMix64(state)
            expected = [min(bisect_right(cdf, rng.next_float()), len(cdf) - 1)
                        for _ in range(10_000)]
            blocks = generate._blocks(cdf, state)
            assert list(islice(chain.from_iterable(blocks), 10_000)) == expected, len(cdf)

    def test_block_sizes_double_to_the_cap(self):
        sizes = [len(block) for block in islice(generate._blocks([0.5, 1.0], 0), 9)]
        assert sizes == [32, 64, 128, 256, 512, 1024, 2048, 4096, 4096]
        assert (sizes[0], sizes[-1]) == (generate._BLOCK_MIN, generate._BLOCK_MAX)


class TestRetryLimit:
    def test_oversize_draws(self, monkeypatch):
        monkeypatch.setattr(generate, "_RETRY_LIMIT", 4)
        with pytest.warns(UserWarning, match="branching factor"):
            cfg = GeneratorConfig(Signature([("a", 0, 0.0), ("b", 1, 1.0)]), 9, 1, size_cap=3)
        rng = SplitMix64(cfg.seed)
        message = "gave up after 4 oversize draws (cap 3)"
        with pytest.raises(RuntimeError) as exc:
            random_tree(cfg, rng)
        assert str(exc.value) == message
        assert _picks_consumed(rng, cfg.seed) == 4 * 3
        with pytest.raises(RuntimeError) as exc:
            generate_corpus(cfg)
        assert str(exc.value) == message

    def test_too_few_distinct_trees(self, monkeypatch):
        monkeypatch.setattr(generate, "_RETRY_LIMIT", 5)
        cfg = GeneratorConfig(Signature([("x", 0, 1.0)]), 1, 2, distinct=True)
        with pytest.raises(RuntimeError) as exc:
            generate_corpus(cfg)
        assert str(exc.value) == "could not draw 2 distinct trees in 5 attempts"
        assert len(generate_corpus(GeneratorConfig(cfg.signature, 1, 5, distinct=False))) == 5
