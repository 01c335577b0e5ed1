"""Record-only probe: the complete DAG with V = 6 (dim H = 63) rung.

    python3 bench/probe_dag6.py > bench/results/dag6_probe.json

One build plus Wold decomposition plus Muhly-Solel check of this rung takes
tens of seconds, too long for a steady, gated distribution, so it stays out
of the gated workloads.  This script runs it once in a child process under a
recorded timeout and prints its times, dims and flags as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: The child is stopped after this long; the limit is written into the record.
TIMEOUT_S = 300.0


def child() -> None:
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    import numpy as np

    import workloads
    from covrep import wold
    from covrep.examples import graph_induced

    graph = workloads.complete_dag(6, np.random.default_rng(0))
    t0 = time.perf_counter()
    rep = graph_induced(graph)
    t1 = time.perf_counter()
    wd = wold.wold_decompose(rep)
    t2 = time.perf_counter()
    ms = wold.verify_muhly_solel(rep)
    t3 = time.perf_counter()
    print(json.dumps({
        "build_s": t1 - t0,
        "wold_s": t2 - t1,
        "muhly_solel_s": t3 - t2,
        "dim": rep.hdim,
        "wold_dims": list(wd.dims()),
        "wold_hypothesis_met": wd.hypothesis_met,
        "wold_certified": wd.certified,
        "muhly_solel_dims": ms.dims,
        "muhly_solel_hypotheses_met": ms.hypotheses_met,
        "muhly_solel_pass": ms.passed,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child()
        return 0
    # importing run pins the BLAS threads in os.environ, which the child inherits
    from run import environment

    record = {"rung": "dag-6", "timeout_s": TIMEOUT_S, **environment(seed=0)}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, __file__, "--child"], capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record.update(timed_out=True, wall_s=time.perf_counter() - start)
    else:
        record.update(timed_out=False, wall_s=time.perf_counter() - start, exit=proc.returncode)
        if proc.returncode == 0:
            record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        else:
            record["stderr_tail"] = proc.stderr[-2000:]
    print(json.dumps(record, indent=1))
    return 0 if not record["timed_out"] and record.get("exit") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
