"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <pass> <trace 0|1>

The pass draws its own ops from (seed, pass), so no input is seen twice in
one process and nothing a process keeps between calls can make a later op
warm. It times its set-up (importing qbaglab plus building the ops through
public constructors), derives each op's reference value untimed, then runs
the ops one at a time, timing each with `time.process_time()`, and checks
each output outside the timed region. With trace 1 the layers are wrapped
for the ops (tracer.py) and the spans go to .perfbench/spans-<workload>.csv.

Host speed: on a shared host the same pass can take 50% more CPU time in
one minute than in the next. So a speed probe, a fixed pure-Python loop
that calls nothing in qbaglab, is timed before the set-up, after it, before
the first op and after every op. Each time is also reported scaled to the
reference host, on which one probe takes PROBE_REF_S: an op's time is
multiplied by PROBE_REF_S over the mean of the probes just before and just
after it. A change to qbaglab moves the scaled times as much as the raw
ones; a host running slower or faster moves the probe too and cancels out.

The last line of stdout is a JSON record of the pass for run.py. Before
the set-up clock starts it imports nothing but os, sys and time, so
qbaglab's own imports are counted.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_OPS = 100
MAX_TRACEBACKS = 3
PROBE_REF_S = 200e-6
PROBE_STEPS = 600
PROBE_REPEATS = 3  # a probe is the median of this many loops
WARMUP_PROBES = 30
_PROBE_TABLE = [((i * 7919) % 101) / 101.0 for i in range(101)]


def _mix(x, y):
    return x * (1.0 - y) + y * 0.5


def _probe_loop():
    """Float arithmetic, list indexing and calls; it allocates no container,
    so it neither triggers nor pays for a garbage collection an op set up."""
    acc, table = 0.25, _PROBE_TABLE
    for i in range(PROBE_STEPS):
        a, b = table[i % 101], table[(i * 3) % 101]
        acc = _mix(acc, a) if a > b else _mix(b, acc)
        acc = acc * 0.999 + 0.0005
    return acc


def probe():
    """Process time of one probe: the median of PROBE_REPEATS loops."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.process_time()
        _probe_loop()
        times.append(time.process_time() - t0)
    return sorted(times)[PROBE_REPEATS // 2]


def warm_up():
    for _ in range(WARMUP_PROBES):
        _probe_loop()


def load_qbaglab():
    """Import qbaglab from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qbaglab", "__init__.py")):
        raise ImportError(f"no qbaglab package under {SRC}")
    sys.path.insert(0, SRC)
    import qbaglab

    if not os.path.abspath(qbaglab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qbaglab was imported from {qbaglab.__file__}, not {SRC}")
    return qbaglab


def run_ops(workload, ops, tracer=None):
    """Latency of each op in seconds, the probes around them (one before
    the first op, one after each), failed count, and the values the checks
    report by key (see explain.check)."""
    import collections
    import traceback

    latency, failed, stats = [], 0, collections.defaultdict(list)
    warm_up()
    probes = [probe()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.process_time()
        try:
            out = workload.run(op)
            error = None
        except Exception:  # an op that raises counts as failed; keep going
            out, error = None, traceback.format_exc()
        latency.append(time.process_time() - t0)
        if tracer is not None:
            tracer.op_id = -1
        probes.append(probe())
        ok = False
        if error is None:
            try:
                ok, info = workload.check(op, out)
            except Exception:
                error = traceback.format_exc()
            else:
                for key, value in info.items():
                    stats[key].append(value)
        if not ok:
            failed += 1
            if failed <= MAX_TRACEBACKS:
                print(f"failed op {i} ({op.kind}): {error or 'output check'}",
                      file=sys.stderr)
    return latency, probes, failed, stats


def scaled(seconds, probe_s):
    """`seconds` measured at a host speed of `probe_s` per probe, scaled to
    the reference host."""
    return seconds * PROBE_REF_S / probe_s


def main(argv):
    name, seed, pass_no, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    warm_up()
    probe_before = probe()
    start = time.process_time()
    load_qbaglab()
    workload = __import__(name)
    ops = workload.build(f"{seed}/{pass_no}")
    setup_s = time.process_time() - start
    probe_after = probe()

    import json
    import resource

    from tracer import Tracer, patched_functions

    if len(ops) < MIN_OPS:
        raise ValueError(f"{len(ops)} ops; percentiles need at least {MIN_OPS}")
    for op in ops:
        op.ref = workload.reference(op)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        latency, probes, failed, stats = run_ops(workload, ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "setup_s": setup_s,
        "ref_setup_s": scaled(setup_s, (probe_before + probe_after) / 2),
        "latency_s": latency,
        "ref_latency_s": [scaled(t, (probes[i] + probes[i + 1]) / 2)
                          for i, t in enumerate(latency)],
        "failed": failed,
        "patched": patched_functions(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        host_probe = sorted(probes)[len(probes) // 2]
        record["layers"] = tracer.metrics(stats, scaled(1.0, host_probe))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{name}.csv")
        tracer.write(path)
        record["spans"] = [len(tracer.start), os.path.relpath(path, ROOT)]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
