"""One workload process of the benchmark; `run.py` starts it.

Role `setup` builds the workload's inputs and exits; role `run` also runs
the timed loop for the given seconds, verifies every verdict and, with
`--trace 1`, records spans, times the base relations and writes the spans
to `.wqobench-out/`.  The result is one JSON line on stdout; `ready_ns` is
CLOCK_MONOTONIC when set-up ended, so the parent can measure set-up from
before it started this process.  Set-up runs under a `SpeedSampler`:
`setup_speed` is the machine speed it saw and `calibration_ns` the time its
calibrations took, which is not set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from calibration import SpeedSampler
from metrics import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".wqobench-out"


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=("setup", "run"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = ap.parse_args(argv)

    # set-up starts with importing the package; traced runs do not report
    # it, and calibrations would land inside their set-up spans
    sampler = SpeedSampler()
    if not args.trace:
        sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import treewqo
    from tracer import Tracer
    from workloads import FULL, TINY, WORKLOADS, layer_metrics, orders_probe

    if not Path(treewqo.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"treewqo imported from {treewqo.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    scale = TINY if args.tiny else FULL
    tracer = Tracer(f"{args.workload}.{args.seed}.{time.time_ns()}") if args.trace else None

    traced = tracer is not None
    sid = tracer.begin("harness.setup") if traced else None
    workload = WORKLOADS[args.workload](args.seed, scale, tracer)
    if traced:
        tracer.end(sid)
    gc.collect()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    sampler.stop()
    setup = {"ready_ns": ready_ns, "calibration_ns": sampler.spent_ns,
             "setup_speed": sampler.speed()}
    if args.role == "setup":
        print(json.dumps(setup))
        return 0

    gc_before = _gc_collections()
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    sid = tracer.begin("harness.timed") if traced else None
    workload.run(deadline, traced=traced)
    if traced:
        tracer.end(sid)
    gc_collections = _gc_collections() - gc_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = workload.verify()
    result = {
        **setup,
        "attempted": attempted,
        "failed": failed,
        "passes": workload.passes,
        "requests_per_pass": workload.requests_per_pass(),
        "tail_percentile": workload.tail_percentile,
        "gc_collections": gc_collections,
        "end_to_end": dict(workload.end_to_end(), peak_rss_mb=peak_rss_mb),
        "counts": workload.counts(),
        "speed": workload.speed_summary(),
        "unscaled": workload.end_to_end(scaled=False),
    }
    if traced:
        sid = tracer.begin("harness.probe")
        probe = orders_probe(workload)
        tracer.end(sid)
        result["layers"] = layer_metrics(workload, probe, gc_collections, {})
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
