"""The benchmark's workloads: input generation, timed loops and verification.

Every workload is a closed loop with one client in one thread: the next
request starts when the previous one has returned.

  whistle-online     random terms as text, each parsed with `parse_tree`
                     and pushed into a `SequenceChecker`, once per order;
                     the history restarts after every whistle.
  whistle-antichain  `monotone_stream` trees pushed into a fresh checker
                     per order; nothing whistles, so every push scans the
                     whole admitted history.
  census             `census` over all 27 named orders followed by
                     `hierarchy_audit`, on corpora dealt from a seeded pool
                     of distinct random trees.

A workload object does its set-up in the constructor, runs its timed loop
in `run` (with `traced=True` it also records spans), and checks every
verdict of the timed loop in `verify`, after the timing has stopped.

Inputs come from the seed only.  Lazy tree measures are never warmed
before an untraced timed loop: each order gets trees built afresh, so it
pays for their measures once, as a user would.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

from treewqo import (
    GeneratorConfig,
    NaiveChecker,
    SequenceChecker,
    Tree,
    census,
    default_config,
    default_signature,
    generate_corpus,
    hierarchy_audit,
    monotone_stream,
    parse_tree,
    parse_wqo_name,
    rel_bag,
    rel_embed,
    rel_euler,
    rel_preorder,
    rel_repeated,
    rel_set,
    rel_size,
    rel_sized_set,
    render_tree,
)
from treewqo.signature import repeated_mask

import reference
from calibration import CALIBRATION_INTERVAL_NS, CALIBRATION_REF_NS, calibration_ns
from metrics import ANTICHAIN_ORDERS, BASE_LETTERS, LAYER_METRICS, ONLINE_ORDERS

REL_FUNCTIONS = {
    "S": rel_size, "H": rel_embed, "Z": rel_set, "Y": rel_repeated,
    "B": rel_bag, "M": rel_sized_set, "P": rel_preorder, "E": rel_euler,
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is what the benchmark measures."""

    online_lines: int        # compound terms in the whistle-online stream
    online_cap: int          # size cap of those terms
    antichain_trees: int     # length of the monotone stream
    antichain_size: int      # its target tree size
    census_cap: int          # size cap of the census trees
    census_trees: int        # corpus size of one census request
    census_requests: int     # distinct corpora in one census pass
    verify_pairs: int        # pairs per census request checked against the reference
    probe_trees: int         # census corpus the traced run samples order pairs from
    probe_pairs: int         # pairs timed per base order in the traced run


FULL = Scale(online_lines=6000, online_cap=200, antichain_trees=240, antichain_size=50,
             census_cap=200, census_trees=24, census_requests=150,
             verify_pairs=2, probe_trees=300, probe_pairs=2000)
TINY = Scale(online_lines=60, online_cap=60, antichain_trees=24, antichain_size=12,
             census_cap=60, census_trees=6, census_requests=5,
             verify_pairs=2, probe_trees=30, probe_pairs=40)


@contextmanager
def _span(tracer, name: str):
    if tracer is None:
        yield
        return
    sid = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(sid)


def fresh_copy(tree: Tree) -> Tree:
    """Rebuild a tree node by node, so none of its lazy measures are cached."""
    nodes = list(tree.nodes())
    built: dict[int, Tree] = {}
    for node in reversed(nodes):
        built[id(node)] = Tree(node.sig, node.root,
                               tuple(built[id(c)] for c in node.children))
    return built[id(tree)]


def _warm(tree: Tree) -> None:
    """First access of every lazy measure (traced runs only)."""
    tree.bag
    tree.pre
    tree.eul
    repeated_mask(tree)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of sorted data."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _report_raise(where: str) -> None:
    print(f"verdict raised in {where}:", file=sys.stderr)
    traceback.print_exc()


class Workload:
    """Common bookkeeping.

    The timed loop runs passes until the deadline; every pass makes the
    same requests in the same order, in chunks (one order's pushes, or
    one census request).  The machine the benchmark runs on may be shared,
    and its speed for this process changes by tens of percent, over tens of
    milliseconds as over seconds.  So a fixed piece of pure-Python work is
    timed at the start of the timed loop, every CALIBRATION_INTERVAL_NS
    between the pushes of a chunk, and after every chunk; every time
    measured in a chunk is scaled by CALIBRATION_REF_NS over the mean of the
    calibrations in and around it.  Times are thus reported at a fixed
    reference speed, and the calibrations themselves are not timed.

    A request's latency is then the median of its scaled wall times over the
    passes; latency metrics are percentiles of those medians over the
    requests of a pass.  Throughput uses scaled thread CPU time, per chunk
    at its median pass.
    """

    name = ""
    tail_percentile = 99.0

    def __init__(self, seed: int, scale: Scale, tracer=None):
        self.seed = seed
        self.scale = scale
        self.sig = default_signature()
        self.passes = 0
        self.latencies = array("q")      # wall ns per request, pass after pass
        self.chunk_ends = array("q")     # index into latencies after each chunk
        self.chunk_cpu_ns = array("q")   # thread CPU ns of each chunk
        self.chunk_speed = array("d")    # reference over mean calibration, per chunk
        self._calibrations: list[int] = []   # of the chunk under way
        self.work: dict[str, int] = {}   # counters for per-layer rates
        self.tracer = tracer

    def requests_per_pass(self) -> int:
        raise NotImplementedError

    def chunks_per_pass(self) -> int:
        raise NotImplementedError

    def _run_pass(self, traced: bool, deadline_ns: int | None) -> None:
        """One pass; with a deadline it may stop after any chunk."""
        raise NotImplementedError

    def run(self, deadline_ns: int, traced: bool = False) -> None:
        """Passes until the deadline; the first one always completes."""
        self._calibrate()
        while True:
            self._run_pass(traced, deadline_ns if self.passes else None)
            self.passes += 1
            if time.perf_counter_ns() >= deadline_ns:
                return

    def _calibrate(self) -> int:
        """One calibration inside the chunk under way; returns its CPU ns."""
        ns = calibration_ns()
        self._calibrations.append(ns)
        return ns

    def _chunk_done(self, cpu_ns: int) -> None:
        """Close a chunk; its last calibration also opens the next one."""
        self.chunk_ends.append(len(self.latencies))
        self.chunk_cpu_ns.append(cpu_ns)
        self._calibrate()
        cal = self._calibrations
        self.chunk_speed.append(CALIBRATION_REF_NS * len(cal) / sum(cal))
        self._calibrations = cal[-1:]

    def speed_factors(self, scaled: bool = True) -> list[float]:
        """Per chunk: reference over calibration time (all 1 when not
        scaled)."""
        return list(self.chunk_speed) if scaled else [1.0] * len(self.chunk_speed)

    def scaled_chunk_cpu(self, chunk: int, scaled: bool = True) -> list[float]:
        """CPU ns of one chunk of a pass, for every pass."""
        n = self.chunks_per_pass()
        factors = self.speed_factors(scaled)
        return [self.chunk_cpu_ns[c] * factors[c] for c in range(chunk, len(factors), n)]

    def _count(self, key: str, n: int) -> None:
        self.work[key] = self.work.get(key, 0) + n

    def _generate(self, cfg: GeneratorConfig) -> list[Tree]:
        with _span(self.tracer, "generate.generate_corpus"):
            trees = generate_corpus(cfg)
        self._count("generate.trees", len(trees))
        return trees

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Throughput and latencies; `scaled=False` gives them as measured."""
        latencies = array("d")
        start = 0
        for end, factor in zip(self.chunk_ends, self.speed_factors(scaled)):
            latencies.extend(x * factor for x in self.latencies[start:end])
            start = end
        n = self.requests_per_pass()
        lat = sorted(statistics.median(latencies[k::n]) for k in range(n))
        return {"throughput_per_s": self.throughput(scaled),
                "latency_p50_us": percentile(lat, 50) / 1e3,
                "latency_tail_us": percentile(lat, self.tail_percentile) / 1e3}

    def speed_summary(self) -> str:
        factors = sorted(self.speed_factors())
        return (f"machine speed relative to the reference, over {len(factors)} chunks: "
                f"median {statistics.median(factors):.3f}, "
                f"range {factors[0]:.3f}-{factors[-1]:.3f}")


class _WhistleWorkload(Workload):
    """Passes over one input stream: in each, every order pushes the whole
    stream into a fresh checker."""

    orders: tuple[str, ...] = ()

    def __init__(self, seed, scale, tracer=None):
        super().__init__(seed, scale, tracer)
        self.specs = {o: parse_wqo_name(o) for o in self.orders}
        for order, spec in self.specs.items():
            if spec.name != order:
                raise ValueError(f"{order} is not a canonical order name")
        # per order, one entry per pass: (whistle positions, comparisons, raised)
        self.outcomes: dict[str, list[tuple[array, int, int]]] = {o: [] for o in self.orders}

    def stream_length(self) -> int:
        raise NotImplementedError

    def requests_per_pass(self) -> int:
        return len(self.orders) * self.stream_length()

    def chunks_per_pass(self) -> int:
        return len(self.orders)

    def _push_all(self, order: str, traced: bool):
        """One order over the whole stream: (whistle positions, comparisons,
        raised pushes, thread CPU ns of the push loop)."""
        raise NotImplementedError

    def _run_pass(self, traced: bool, deadline_ns: int | None) -> None:
        # whole passes only: every order decides the same pushes
        for order in self.orders:
            *outcome, cpu_ns = self._push_all(order, traced)
            self.outcomes[order].append(tuple(outcome))
            self._chunk_done(cpu_ns)

    def order_throughput(self, order: str, scaled: bool = True) -> float:
        """Pushes per CPU second of the order's median pass."""
        cpu = self.scaled_chunk_cpu(self.orders.index(order), scaled)
        return self.stream_length() * 1e9 / statistics.median(cpu)

    def throughput(self, scaled: bool = True) -> float:
        """Geometric mean over orders, so each order counts by its own speed."""
        logs = [math.log(self.order_throughput(o, scaled)) for o in self.orders]
        return math.exp(sum(logs) / len(logs))

    def counts(self) -> dict[str, object]:
        n = self.stream_length()
        return {order: {"pushes": n, "whistles": len(self.outcomes[order][0][0]),
                        "comparisons": self.outcomes[order][0][1]} for order in self.orders}

    def layer_values(self, summary) -> dict[str, float]:
        out = {}
        n = self.stream_length()
        for order in self.orders:
            whistles, comparisons, _ = self.outcomes[order][0]
            calls, _, self_ns = summary.get(f"whistle.push.{order}", (0, 0, 0))
            out[f"whistle.{order}.pushes_per_s"] = self.order_throughput(order)
            out[f"whistle.{order}.push_us"] = self_ns / calls / 1e3 if calls else 0.0
            out[f"whistle.{order}.comparisons"] = comparisons
            out[f"whistle.{order}.whistle_ratio"] = len(whistles) / n
        return out


class WhistleOnline(_WhistleWorkload):
    name = "whistle-online"
    orders = ONLINE_ORDERS

    def __init__(self, seed, scale, tracer=None):
        super().__init__(seed, scale, tracer)
        # bare constants are half of all draws; they are left out so that the
        # median push is not pinned to the edge between constants and the rest
        draws = 3 * scale.online_lines
        cfg = GeneratorConfig(self.sig, seed, draws, size_cap=scale.online_cap, distinct=False)
        trees = [t for t in self._generate(cfg) if t.size > 1][:scale.online_lines]
        if len(trees) < scale.online_lines:
            raise ValueError(f"seed {seed} drew too few compound terms")
        self.stream_nodes = sum(t.size for t in trees)
        self.lines = []
        for t in trees:
            with _span(tracer, "signature.render_tree"):
                self.lines.append(render_tree(t))

    def stream_length(self) -> int:
        return len(self.lines)

    def _push_all(self, order, traced):
        checker = SequenceChecker(self.specs[order])
        whistles = array("i")
        comparisons = raised = 0
        sig = self.sig
        lat = self.latencies
        clock = time.perf_counter_ns
        if traced:
            tr = self.tracer
            push_name = f"whistle.push.{order}"
            self._count("signature.parse_nodes", self.stream_nodes)
        calibrate_at = clock() + CALIBRATION_INTERVAL_NS
        calibration_cpu = 0
        cpu_start = time.thread_time_ns()
        for i, line in enumerate(self.lines):
            t0 = clock()
            try:
                if traced:
                    root = tr.begin("harness.push")
                    sid = tr.begin("signature.parse_tree")
                    t = parse_tree(line, sig)
                    tr.end(sid)
                    sid = tr.begin("signature.measure")
                    _warm(t)
                    tr.end(sid)
                    sid = tr.begin(push_name)
                    whistled = checker.push(t).whistled
                    tr.end(sid)
                    tr.end(root)
                else:
                    whistled = checker.push(parse_tree(line, sig)).whistled
            except Exception:
                _report_raise(f"{self.name} {order} line {i}")
                if traced:
                    tr.unwind(root)
                raised += 1
                whistled = True   # restart the history, as after a whistle
            t1 = clock()
            lat.append(t1 - t0)
            if whistled:
                whistles.append(i)
                comparisons += checker.comparisons
                checker.reset()
            if t1 >= calibrate_at:
                calibration_cpu += self._calibrate()
                calibrate_at = clock() + CALIBRATION_INTERVAL_NS
        cpu_ns = time.thread_time_ns() - cpu_start - calibration_cpu
        comparisons += checker.comparisons
        return whistles, comparisons, raised, cpu_ns

    def verify(self) -> tuple[int, int]:
        """Replay each order through `NaiveChecker`: whistle positions must
        match those of every timed pass exactly."""
        trees = [parse_tree(line, self.sig) for line in self.lines]
        attempted = failed = 0
        for order in self.orders:
            naive = NaiveChecker(self.specs[order])
            expected = set()
            for i, t in enumerate(trees):
                if naive.push(t).whistled:
                    expected.add(i)
                    naive.reset()
            for whistles, _, raised in self.outcomes[order]:
                attempted += len(trees)
                failed += len(expected.symmetric_difference(whistles)) + raised
        return attempted, failed


class WhistleAntichain(_WhistleWorkload):
    name = "whistle-antichain"
    orders = ANTICHAIN_ORDERS

    def __init__(self, seed, scale, tracer=None):
        super().__init__(seed, scale, tracer)
        with _span(tracer, "bench.monotone_stream"):
            stream = monotone_stream(self.sig, scale.antichain_trees, scale.antichain_size)
        # the seed orders trees within each run of equal size; sizes stay
        # non-increasing and bags distinct, so the stream stays an antichain
        rng = random.Random(seed)
        self.stream: list[Tree] = []
        group: list[Tree] = []
        for t in stream + [None]:
            if group and (t is None or t.size != group[0].size):
                rng.shuffle(group)
                self.stream.extend(group)
                group = []
            group.append(t)

    def stream_length(self) -> int:
        return len(self.stream)

    def _push_all(self, order, traced):
        trees = [fresh_copy(t) for t in self.stream]
        checker = SequenceChecker(self.specs[order])
        whistles = array("i")
        raised = 0
        lat = self.latencies
        clock = time.perf_counter_ns
        if traced:
            tr = self.tracer
            push_name = f"whistle.push.{order}"
        calibrate_at = clock() + CALIBRATION_INTERVAL_NS
        calibration_cpu = 0
        cpu_start = time.thread_time_ns()
        for i, t in enumerate(trees):
            t0 = clock()
            try:
                if traced:
                    root = tr.begin("harness.push")
                    sid = tr.begin("signature.measure")
                    _warm(t)
                    tr.end(sid)
                    sid = tr.begin(push_name)
                    whistled = checker.push(t).whistled
                    tr.end(sid)
                    tr.end(root)
                else:
                    whistled = checker.push(t).whistled
            except Exception:
                _report_raise(f"{self.name} {order} tree {i}")
                if traced:
                    tr.unwind(root)
                raised += 1
                whistled = False
            t1 = clock()
            lat.append(t1 - t0)
            if whistled:
                whistles.append(i)
            if t1 >= calibrate_at:
                calibration_cpu += self._calibrate()
                calibrate_at = clock() + CALIBRATION_INTERVAL_NS
        cpu_ns = time.thread_time_ns() - cpu_start - calibration_cpu
        return whistles, checker.comparisons, raised, cpu_ns

    def verify(self) -> tuple[int, int]:
        """The stream is an antichain by construction: no push may whistle."""
        attempted = failed = 0
        for outcomes in self.outcomes.values():
            for whistles, _, raised in outcomes:
                attempted += len(self.stream)
                failed += len(whistles) + raised
        return attempted, failed


class Census(Workload):
    name = "census"
    # a pass has 150 requests, so p90 is the highest round percentile with
    # ten requests beyond it
    tail_percentile = 90.0

    def __init__(self, seed, scale, tracer=None):
        super().__init__(seed, scale, tracer)
        size, count = scale.census_trees, scale.census_requests
        self.pool = self._generate(default_config(seed, size * count, scale.census_cap))
        # deal the pool into the corpora, each taking one tree from every
        # size-ordered stratum, so that all corpora share one size profile
        # and the cost of a pass depends little on the seed
        rng = random.Random(seed)
        by_size = sorted(range(len(self.pool)), key=lambda k: (self.pool[k].size, k))
        strata = [by_size[i * count:(i + 1) * count] for i in range(size)]
        for stratum in strata:
            rng.shuffle(stratum)
        self.corpora = [[stratum[r] for stratum in strata] for r in range(count)]
        self.checked_pairs = [[(rng.randrange(size), rng.randrange(size))
                               for _ in range(scale.verify_pairs)] for _ in self.corpora]
        self.base_specs = {letter: parse_wqo_name(letter) for letter in BASE_LETTERS}
        # per request: (corpus number, audit ok, raised, sampled base verdicts)
        self.outcomes: list[tuple[int, bool, bool, list]] = []
        self.first_counts: dict[str, int] = {}

    def requests_per_pass(self) -> int:
        return len(self.corpora)

    def chunks_per_pass(self) -> int:
        return len(self.corpora)

    def _run_pass(self, traced: bool, deadline_ns: int | None) -> None:
        for number, idx in enumerate(self.corpora):
            if deadline_ns is not None and time.perf_counter_ns() >= deadline_ns:
                return
            corpus = [fresh_copy(self.pool[k]) for k in idx]
            ok = raised = False
            sampled = []
            try:
                ok, result, wall_ns, cpu_ns = self._request(corpus, traced)
            except Exception:
                _report_raise(f"{self.name} corpus {number}")
                if traced:
                    self.tracer.unwind(self._root)
                raised = True
                wall_ns = cpu_ns = 0
            self.latencies.append(wall_ns)
            self._chunk_done(cpu_ns)
            if not raised:
                base = result.base_matrices
                sampled = [(i, j, {l: bool(base[l][i, j]) for l in BASE_LETTERS})
                           for i, j in self.checked_pairs[number]]
                if not self.first_counts:
                    self.first_counts = dict(result.counts)
            self.outcomes.append((number, ok, raised, sampled))

    def _request(self, corpus, traced):
        """Census and audit of one corpus: (audit ok, census, wall ns, thread
        CPU ns).  Traced runs first census each base letter alone, untimed."""
        tr = self.tracer if traced else None
        if traced:
            root = self._root = tr.begin("harness.request")
            for letter, spec in self.base_specs.items():
                with _span(tr, f"census.base.{letter}"):
                    census(corpus, [spec])
        wall_start, cpu_start = time.perf_counter_ns(), time.thread_time_ns()
        with _span(tr, "census.census"):
            result = census(corpus)
        with _span(tr, "census.audit"):
            ok = hierarchy_audit(result).ok
        cpu_ns, wall_ns = time.thread_time_ns() - cpu_start, time.perf_counter_ns() - wall_start
        if traced:
            tr.end(root)
        return ok, result, wall_ns, cpu_ns

    def throughput(self, scaled: bool = True) -> float:
        """Corpus pairs per CPU second, each request at its median pass."""
        n = len(self.corpora)
        cpu = sum(statistics.median(self.scaled_chunk_cpu(k, scaled)) for k in range(n))
        return n * self.scale.census_trees ** 2 * 1e9 / cpu

    def counts(self) -> dict[str, object]:
        return {"corpus_pairs": self.scale.census_trees ** 2,
                "first_request_related_pairs": self.first_counts}

    def verify(self) -> tuple[int, int]:
        """Each audit must pass, and each sampled base verdict must match the
        reference relations."""
        flats: dict[int, reference.Flat] = {}

        def flat(k: int) -> reference.Flat:
            if k not in flats:
                flats[k] = reference.Flat(self.pool[k])
            return flats[k]

        memo: dict[tuple[int, int, str], bool] = {}
        attempted = failed = 0
        for number, ok, raised, sampled in self.outcomes:
            attempted += 1
            failed += (not ok) or raised
            idx = self.corpora[number]
            for i, j, verdicts in sampled:
                a, b = idx[i], idx[j]
                for letter, got in verdicts.items():
                    key = (a, b, letter)
                    if key not in memo:
                        memo[key] = reference.relation(letter, flat(a), flat(b))
                    attempted += 1
                    failed += got != memo[key]
        return attempted, failed

    def layer_values(self, summary) -> dict[str, float]:
        n = len(self.latencies)
        out = {}
        for letter in BASE_LETTERS:
            out[f"census.base.{letter}_s"] = summary[f"census.base.{letter}"][1] / n / 1e9
        out["census.all_s"] = summary["census.census"][1] / n / 1e9
        out["census.audit_s"] = summary["census.audit"][1] / n / 1e9
        return out


WORKLOADS = {cls.name: cls for cls in (WhistleOnline, WhistleAntichain, Census)}


def orders_probe(workload: Workload) -> dict[str, float]:
    """Time each exported base relation on a seeded sample of census-corpus
    pairs, measures already computed; traced runs only."""
    scale = workload.scale
    corpus = workload._generate(default_config(workload.seed, scale.probe_trees, scale.census_cap))
    for t in corpus:
        _warm(t)
    rng = random.Random(workload.seed)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(scale.probe_pairs)]
    out = {}
    tr = workload.tracer
    for letter, rel_fn in REL_FUNCTIONS.items():
        related = 0
        sid = tr.begin(f"orders.rel_{letter}")
        for s, t in pairs:
            if rel_fn(s, t):
                related += 1
        tr.end(sid)
        out[f"orders.{letter}.ns_per_pair"] = (tr.ends[sid] - tr.starts[sid]) / len(pairs)
        out[f"orders.{letter}.related_ratio"] = related / len(pairs)
    return out


def layer_metrics(workload: Workload, probe: dict[str, float], gc_collections: int,
                  overhead: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not call reads 0."""
    tr = workload.tracer
    summary = tr.summary()
    values = dict.fromkeys((name for name, _ in LAYER_METRICS), 0.0)
    calls, _, parse_ns = summary.get("signature.parse_tree", (0, 0, 0))
    if calls:
        values["signature.parse_us"] = parse_ns / calls / 1e3
        values["signature.parse_nodes_per_s"] = workload.work["signature.parse_nodes"] * 1e9 / parse_ns
    calls, _, measure_ns = summary.get("signature.measure", (0, 0, 0))
    if calls:
        values["signature.measure_us"] = measure_ns / calls / 1e3
    calls, gen_ns, _ = summary.get("generate.generate_corpus", (0, 0, 0))
    if calls:
        values["generate.trees_per_s"] = workload.work["generate.trees"] * 1e9 / gen_ns
    values["bench.monotone_stream_s"] = summary.get("bench.monotone_stream", (0, 0, 0))[1] / 1e9
    values.update(probe)
    values.update(workload.layer_values(summary))
    for layer, self_ns in tr.layer_self_ns(summary).items():
        values[f"{layer}.self_s"] = self_ns / 1e9
    values["runtime.gc_collections"] = gc_collections
    values["trace.spans"] = len(tr)
    values.update(overhead)
    unknown = set(values) - {name for name, _ in LAYER_METRICS}
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return values
