"""Check that the traced run's count metrics repeat exactly for one seed.

    python3 perfbench/selfcheck.py [--seed N]

For each workload it runs `run.py --trace 1` twice, in fresh interpreters
with different hash seeds, and compares the counts that later changes may
quote as gains (tracer.COUNT_METRICS). Exit status 1 on any difference or
failed op, else 0.
"""

import argparse
import json
import os
import subprocess
import sys

from worker import BENCH_DIR, ROOT
from run import WORKLOADS
from tracer import COUNT_METRICS


def traced_counts(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["correct"], {k: result["metrics"][k]["value"] for k in COUNT_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first_ok, first = traced_counts(workload, args.seed, 1)
        second_ok, second = traced_counts(workload, args.seed, 2)
        same = first == second
        ok = ok and same and first_ok and second_ok
        print(f"{workload} seed {args.seed}: "
              f"{'repeat' if same else 'DIFFER'} "
              + " ".join(f"{k}={first[k]}/{second[k]}" for k in COUNT_METRICS)
              + ("" if first_ok and second_ok else " (failed ops)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
