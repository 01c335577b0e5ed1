"""covrep benchmark: one closed-loop client runs whole rounds of a workload's
operations and prints the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics as the last line of standard output.

    python3 bench/run.py --workload cold-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``covrep`` from ``src/`` of
that checkout and exits with code 2, printing no result, when ``src/covrep``
is missing.  Scratch files (corpus files, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import time

#: Process start as far as the script can see it: setup_s runs from here.
STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

#: BLAS threads are pinned before numpy loads: one client on a 2-core machine
#: measures steadiest single-threaded, and the pin is recorded in the output.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the CLI reads its default tolerance from here; the reference assumes 1e-9
os.environ.pop("COVREP_TOLERANCE", None)

#: glibc's malloc serves a block this large or larger with its own mmap and
#: unmaps it on free.  By default the threshold grows with the largest block
#: freed so far, after which big arrays come from the heap and their pages
#: stay resident; peak RSS then depends on which large op the seed happens to
#: run first and swings by 10%.  A fixed threshold makes resident memory follow
#: live memory, so peak_rss_mb is the baseline plus the largest op's working
#: set whatever the op order.  The setting is recorded in the environment.
MMAP_THRESHOLD = 128 * 1024


def _fix_malloc() -> bool:
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        # M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3; mallopt returns 1 on success
        return libc.mallopt(-3, MMAP_THRESHOLD) == 1 and libc.mallopt(-1, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError, TypeError):
        return False


MALLOC_FIXED = _fix_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

#: Cold setups per run: this process's own and those of fresh child
#: processes started after the timed loop; setup_s reports the median.  Five
#: where a setup takes well under a second; warm-certify's takes about 9 s.
SETUP_REPEATS = {"cold-ladder": 5, "warm-certify": 3, "cli-corpus": 5}

#: Per workload: the fixed tail percentile of op latency, and the fewest
#: whole rounds a run makes so that at least 10 latencies lie beyond it.
#: Each percentile sits inside one op kind's cluster of the sorted latencies
#: for every round count from the minimum up (cold-ladder: dag-5;
#: warm-certify: the Cauchy-dual verifier; cli-corpus: the L = 7 path ops),
#: so the parent and a change compare the same op.
TAIL = {
    "cold-ladder": (0.89, 4),
    "warm-certify": (0.95, 16),
    "cli-corpus": (0.95, 5),
}


def child_setup_seconds(argv, count: int) -> list[float]:
    """Cold setup time of ``count`` fresh processes that run this script with
    the same arguments up to where the first op would start."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, __file__, *argv, "--setup-only"], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "malloc_mmap_threshold": MMAP_THRESHOLD if MALLOC_FIXED else None,
    }


class Loop:
    """Runs whole rounds of a workload's ops, timing each op and checking its
    fingerprint against the reference."""

    def __init__(self, workload, rng, reference, tracer=None):
        self.workload = workload
        self.rng = rng
        self.reference = reference
        self.tracer = tracer
        self.latencies: list[float] = []
        #: wall time of this loop's rounds, op preparation and checks included
        self.window = 0.0
        self.rounds = 0
        self.correct = 0
        self.failed = 0
        self.by_key: dict[str, list[float]] = {}

    def run_round(self):
        keys = self.workload.keys()
        start = time.perf_counter()
        for i in self.rng.permutation(len(keys)):
            key = f"{self.workload.name}/{keys[i]}"
            call = self.workload.prepare(keys[i])
            if self.tracer is not None:
                self.tracer.op += 1
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception:  # noqa: BLE001 - an op that raises is a failed op
                elapsed = time.perf_counter() - t0
                self._fail(key, traceback.format_exc(limit=3))
            else:
                elapsed = time.perf_counter() - t0
                self._check(key, result)
                # an op's output must not live on into the next op, or that
                # op's peak memory would depend on which op ran before it
                del result
            self.latencies.append(elapsed)
            self.by_key.setdefault(key, []).append(elapsed)
        self.window += time.perf_counter() - start
        self.rounds += 1

    def ops_per_s(self) -> float:
        """Ops with a correct fingerprint per second of the timed window."""
        return self.correct / self.window

    def _check(self, key, result):
        from workloads import fingerprint, mismatch

        try:
            fp, problems = fingerprint(result)
        except Exception:  # noqa: BLE001 - unreadable output is a wrong answer
            self._fail(key, traceback.format_exc(limit=3))
            return
        why = mismatch(key, fp, problems, self.reference)
        if why:
            self._fail(key, why)
            return
        self.correct += 1

    def _fail(self, key, why):
        if self.failed < 5:
            sys.stderr.write(f"op {key} failed: {why}\n")
        self.failed += 1

    def run(self, seconds: float, min_rounds: int):
        start = time.perf_counter()
        while self.rounds < min_rounds or time.perf_counter() - start < seconds:
            self.run_round()

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "covrep" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no covrep sources under {src}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import numpy as np

    import workloads
    from tracing import Tracer

    reference = json.loads(REFERENCE.read_text())
    rng = np.random.default_rng(args.seed)
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        state = workloads.WORKLOAD_CLASSES[args.workload](rng, workdir / "corpus")
        q, min_rounds = TAIL[args.workload]
        setup = time.perf_counter() - STARTED
        if args.setup_only:
            print(setup)
            return 0

        if not args.trace:
            loop = Loop(state, rng, reference)
            loop.run(args.seconds, min_rounds)
            argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
            setups = [setup, *child_setup_seconds(argv, SETUP_REPEATS[args.workload] - 1)]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": loop.ops_per_s(), "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(loop.latencies), "unit": "s"},
                "op_tail_s": {"value": percentile(loop.latencies, q), "unit": "s"},
                "ok_ratio": {"value": loop.correct / loop.attempted, "unit": "ratio"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
            medians = {key: statistics.median(v) for key, v in sorted(loop.by_key.items())}
            sys.stderr.write(json.dumps({"samples": loop.attempted, "tail_percentile": q, "setups_s": setups,
                                         "op_median_s": medians}) + "\n")
            loops = [loop]
        else:
            # untraced and traced rounds alternate in the order ABBA, so a
            # drift in machine speed hits both rates alike: per-layer numbers
            # come from the traced rounds, the difference in throughput is
            # the tracing overhead, and both are checked against the reference
            plain = Loop(state, rng, reference)
            tracer = Tracer()
            traced = Loop(state, rng, reference, tracer)
            start = time.perf_counter()
            while traced.rounds < 1 or time.perf_counter() - start < args.seconds:
                for loop in (plain, traced) if plain.rounds % 2 == 0 else (traced, plain):
                    if loop is traced:
                        tracer.install()
                    try:
                        loop.run_round()
                    finally:
                        tracer.uninstall()
            metrics = tracer.metrics(traced.attempted)
            plain_rate = plain.ops_per_s()
            traced_rate = traced.ops_per_s()
            metrics["trace.ops_per_s_untraced"] = {"value": plain_rate, "unit": "1/s"}
            metrics["trace.ops_per_s_traced"] = {"value": traced_rate, "unit": "1/s"}
            metrics["trace.overhead_ops_per_s"] = {"value": plain_rate - traced_rate, "unit": "1/s"}
            metrics["trace.op_wall_s"] = {"value": sum(traced.latencies) / traced.attempted, "unit": "s"}
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz"
            tracer.write(spans)
            sys.stderr.write(json.dumps({"spans": len(tracer.spans), "spans_file": str(spans)}) + "\n")
            loops = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(json.dumps({"environment": environment(args.seed)}) + "\n")

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.attempted - lp.correct for lp in loops)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
