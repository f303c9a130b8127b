"""Names and units of every metric the benchmark prints.

`E2E_METRICS` are printed by untraced runs (`--trace 0`), `LAYER_METRICS`
by traced runs (`--trace 1`); BENCHMARK.json lists the same names.
"""

WORKLOAD_NAMES = ("whistle-online", "whistle-antichain", "census")
BASE_LETTERS = "SHZYBMPE"
ONLINE_ORDERS = ("Z", "Y", "S", "M", "YM", "B", "P", "E", "H", "ZP", "YZH")
ANTICHAIN_ORDERS = ("B", "SB", "P", "E", "H", "ZP", "YZH")
WHISTLE_ORDERS = tuple(dict.fromkeys(ONLINE_ORDERS + ANTICHAIN_ORDERS))

E2E_METRICS = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MB"),
)


def _layer_metric_names() -> tuple[tuple[str, str], ...]:
    names = [
        ("signature.parse_us", "us"),
        ("signature.parse_nodes_per_s", "1/s"),
        ("signature.measure_us", "us"),
        ("generate.trees_per_s", "1/s"),
        ("bench.monotone_stream_s", "s"),
    ]
    for letter in BASE_LETTERS:
        names += [(f"orders.{letter}.ns_per_pair", "ns"),
                  (f"orders.{letter}.related_ratio", "ratio")]
    for order in WHISTLE_ORDERS:
        names += [(f"whistle.{order}.pushes_per_s", "1/s"),
                  (f"whistle.{order}.push_us", "us"),
                  (f"whistle.{order}.comparisons", "count"),
                  (f"whistle.{order}.whistle_ratio", "ratio")]
    names += [(f"census.base.{letter}_s", "s") for letter in BASE_LETTERS]
    names += [("census.all_s", "s"), ("census.audit_s", "s")]
    names += [(f"{layer}.self_s", "s") for layer in
              ("signature", "generate", "bench", "orders", "whistle", "census", "harness")]
    names += [
        ("runtime.gc_collections", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_throughput_pct", "%"),
        ("trace.overhead_latency_p50_pct", "%"),
    ]
    return tuple(names)


LAYER_METRICS = _layer_metric_names()
