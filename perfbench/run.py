"""qbaglab benchmark: one client, one process at a time, no threads, closed loop.

    python3 perfbench/run.py --workload {explain,lab,sweep} --seed N \\
        --seconds S --trace {0,1}

The work is done in passes, each a fresh interpreter running worker.py on
its own op stream drawn from (seed, pass). A pass times its set-up, derives
each op's reference value untimed, runs the ops one after another timing
each with process time, and checks every output outside the timed region.
Times are scaled to a reference host by a speed probe timed around each op
(see worker.py); the raw process times are printed as well.

--trace 0 runs passes until S seconds of op time are measured and at least
MIN_PASSES passes are done. Nothing is patched. Throughput and latency
percentiles are over the ops of all passes; set-up time and the pass
process's peak RSS are the median over the passes.

--trace 1 runs pass 0 three times, plain, traced and plain again, each in a
fresh interpreter. It prints the per-layer metrics of the traced pass and
the tracing overhead (traced over the mean plain op time of the same ops);
the spans are written to .perfbench/spans-<workload>.csv.

Every metric is printed as a line "name value unit"; the last line of
stdout is the JSON result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import BENCH_DIR, ROOT, load_qbaglab

WORKLOADS = ("explain", "lab", "sweep")
MIN_PASSES = 3
WORKER_TIMEOUT_S = 120
# no new pass once this much wall time is gone, so that a run ends within
# 180 s on a host far slower than the one the pass sizes were tuned on
WALL_LIMIT_S = 120


def run_pass(name, seed, pass_no, trace):
    """The record worker.py prints for one pass."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), name, str(seed),
         str(pass_no), str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name} pass {pass_no} exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def percentile_ms(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def untraced(name, seed, seconds):
    start = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or sum(math.fsum(p["latency_s"]) for p in passes) < seconds:
        if passes and time.perf_counter() - start > WALL_LIMIT_S:
            print(f"stopping after {len(passes)} passes: {WALL_LIMIT_S} s wall time gone",
                  file=sys.stderr)
            break
        passes.append(run_pass(name, seed, len(passes), trace=False))

    def median(key):
        return statistics.median(p[key] for p in passes)

    def timing(latency_key, setup_key):
        latency = [t for p in passes for t in p[latency_key]]
        return {
            "setup_s": (median(setup_key), "s"),
            "ops_per_s": (len(latency) / math.fsum(latency), "1/s"),
            "op_p50_ms": (percentile_ms(latency, 0.5), "ms"),
            "op_p90_ms": (percentile_ms(latency, 0.9), "ms"),
        }

    attempted = sum(len(p["latency_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    patched = sum(len(p["patched"]) for p in passes)
    print(f"{name} seed {seed}: {len(passes)} passes, {attempted} ops, {failed} failed, "
          f"untraced ({patched} patched functions)")
    # error_rate is failed / attempted of the result line, so not a JSON metric
    print(f"error_rate {failed / attempted!r} ratio")
    for key, (value, unit) in timing("latency_s", "setup_s").items():
        print(f"raw.{key} {value!r} {unit}")
    metrics = timing("ref_latency_s", "ref_setup_s")
    metrics["peak_rss_mb"] = (median("peak_rss_mb"), "MB")
    return patched == 0, attempted, failed, metrics


def traced(name, seed):
    """Pass 0 plain, traced, then plain again, so that a host getting
    slower or faster over the run shifts both sides of the overhead alike."""
    before = run_pass(name, seed, 0, trace=False)
    spans = run_pass(name, seed, 0, trace=True)
    after = run_pass(name, seed, 0, trace=False)
    runs = (before, spans, after)
    plain_s = (math.fsum(before["ref_latency_s"]) + math.fsum(after["ref_latency_s"])) / 2
    traced_s = math.fsum(spans["ref_latency_s"])
    metrics = {k: (v["value"], v["unit"]) for k, v in spans["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    attempted = sum(len(r["latency_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    count, path = spans["spans"]
    print(f"{name} seed {seed}: pass 0 ({len(spans['latency_s'])} ops) plain in "
          f"{plain_s:.3f} s (mean of two), traced in {traced_s:.3f} s, {failed} failed; "
          f"{count} spans in {path}")
    return not any(r["patched"] for r in runs), attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_qbaglab()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        clean, attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        clean, attempted, failed, metrics = untraced(args.workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    print(json.dumps({
        "correct": clean and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
