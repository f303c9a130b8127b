"""Benchmark of the treewqo package, one workload per invocation.

    python3 wqobench/run.py --workload whistle-online --seed 1 --seconds 20 --trace 0

Workloads: whistle-online, whistle-antichain, census (see workloads.py and
README.md).  Run from anywhere; the package is imported from the `src/`
directory next to this one.

--trace 0 measures the end-to-end metrics with tracing off.  The set-up is
done in SETUP_SAMPLES fresh processes (the last one then runs the timed
loop) and `setup_s` is their median, each measured from before the process
was started to the start of its timed phase and scaled to the reference
speed by calibrations made during it (see worker.py).

--trace 1 makes two processes, each timed for half the seconds: one with
tracing off and one with spans recorded around every call into the
package.  It prints the per-layer metrics of the traced process and the
tracing overhead, the difference between the two processes' end-to-end
throughput and median latency.

Output: readable `name value unit` lines, then, as the last line, one JSON
object with `correct`, `attempted` (verdicts checked), `failed` (verdicts
wrong or raised) and `metrics`.  The exit code is 0 when the run completed,
whatever its verdicts, and nonzero, with no JSON line, when it could not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import E2E_METRICS, LAYER_METRICS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# numerical libraries must not add threads: the load is one client thread
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _spawn(args, role: str, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--role", role,
           "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=dict(os.environ, **SINGLE_THREAD_ENV))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    data = json.loads(lines[-1])
    data["setup_raw_s"] = (data["ready_ns"] - started - data["calibration_ns"]) / 1e9
    data["setup_s"] = data["setup_raw_s"] * data["setup_speed"]
    return data


def _untraced(args, deadline: float) -> tuple[dict, list[str]]:
    setups = [_spawn(args, "setup", 0, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _spawn(args, "run", args.seconds, 0, deadline)
    setups.append(run)
    metrics = dict(run["end_to_end"], setup_s=statistics.median(s["setup_s"] for s in setups))
    notes = [
        "setup_s samples, scaled (unscaled): "
        + " ".join(f"{s['setup_s']:.4f} ({s['setup_raw_s']:.4f})" for s in setups),
        f"latency: median over {run['passes']} passes of each of {run['requests_per_pass']} "
        f"requests; tail = p{run['tail_percentile']:g}",
        f"gc collections in the timed phase: {run['gc_collections']}",
        run["speed"],
        "unscaled: " + json.dumps(run["unscaled"], sort_keys=True),
        "counts: " + json.dumps(run["counts"], sort_keys=True),
    ]
    return {"metrics": metrics, "attempted": run["attempted"], "failed": run["failed"]}, notes


def _traced(args, deadline: float) -> tuple[dict, list[str]]:
    half = args.seconds / 2
    plain = _spawn(args, "run", half, 0, deadline)
    traced = _spawn(args, "run", half, 1, deadline)
    base, with_spans = plain["end_to_end"], traced["end_to_end"]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_throughput_pct"] = (
        (base["throughput_per_s"] / with_spans["throughput_per_s"] - 1) * 100)
    metrics["trace.overhead_latency_p50_pct"] = (
        (with_spans["latency_p50_us"] / base["latency_p50_us"] - 1) * 100)
    notes = [
        "untraced: " + json.dumps(base, sort_keys=True),
        "traced:   " + json.dumps(with_spans, sort_keys=True),
        "untraced " + plain["speed"],
        "traced " + traced["speed"],
        f"spans written to {traced['trace_file']}",
        "counts: " + json.dumps(traced["counts"], sort_keys=True),
    ]
    return {"metrics": metrics,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"]}, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="test-sized inputs (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "treewqo" / "__init__.py").is_file():
        print(f"error: no treewqo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result, notes = (_traced if args.trace else _untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = LAYER_METRICS if args.trace else E2E_METRICS
    values = result["metrics"]
    if set(values) != {name for name, _ in declared}:
        print(f"error: metrics printed do not match those declared: "
              f"{sorted(set(values) ^ {name for name, _ in declared})}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ratio "
          f"({failed} wrong or raised of {attempted} verdicts checked)")
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
