"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Two seeds give identical fingerprints (the seed relabels, never changes
   the answer), and both equal the recorded reference.
2. A tampered fingerprint, and a passing residual above the ceiling, are
   caught by the checker.
3. A traced pass gives the same fingerprints as an untraced one.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

# record_reference puts src/ on sys.path, so it is imported first
from record_reference import BENCH_DIR, fingerprints

import workloads
from covrep.reporting import CheckItem
from tracing import Tracer

WORKDIR = BENCH_DIR.parent / ".bench_out" / "selfcheck-corpus"


def all_fingerprints(seed: int) -> dict:
    out = {}
    for name in workloads.WORKLOAD_CLASSES:
        out.update(fingerprints(name, seed, WORKDIR))
    return out


def _flip_bool(node) -> bool:
    """Flip the first boolean found in a fingerprint; True if one was found."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        if isinstance(val, bool):
            node[key] = not val
            return True
        if _flip_bool(val):
            return True
    return False


def tampered(fp):
    """A copy with one flag flipped, or the exit code changed when the op
    printed no report."""
    bad = copy.deepcopy(fp)
    if not _flip_bool(bad):
        bad["exit"] += 1
    return bad


def main() -> int:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    results = []
    try:
        one, two = all_fingerprints(1), all_fingerprints(2)
        differ = sorted(k for k in reference if one.get(k) != two.get(k) or one.get(k) != reference[k])
        results.append(("two seeds give the reference fingerprints", not differ, differ[:5]))

        missed = [key for key, fp in reference.items() if workloads.mismatch(key, tampered(fp), [], reference) is None]
        _, problems = workloads.fingerprint(CheckItem("forged", True, 1.0))
        results.append(("tampered fingerprints are caught", not missed, missed[:5]))
        results.append(("a passing residual above the ceiling is caught", bool(problems), problems))

        tracer = Tracer()
        tracer.install()
        try:
            traced = all_fingerprints(1)
        finally:
            tracer.uninstall()
        differ = sorted(k for k in one if traced.get(k) != one[k])
        results.append(("traced and untraced runs agree", not differ and len(tracer.spans) > 0, differ[:5]))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for what, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {what}" + ("" if ok else f": {detail}"))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
