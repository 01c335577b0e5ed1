"""Record the reference fingerprint of every benchmark op into reference.json.

    python3 bench/record_reference.py

Run it only on the commit whose answers define "correct"; later commits are
checked against the recorded file, never re-recorded to make a run pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def fingerprints(name: str, seed: int, workdir: Path) -> dict:
    """Run each op of a workload once; op key -> fingerprint."""
    state = workloads.WORKLOAD_CLASSES[name](np.random.default_rng(seed), workdir)
    out = {}
    for key in dict.fromkeys(state.keys()):
        fp, problems = workloads.fingerprint(state.prepare(key)())
        if problems:
            raise SystemExit(f"{name}/{key}: {problems}")
        out[f"{name}/{key}"] = fp
    return out


def main() -> int:
    workdir = BENCH_DIR.parent / ".bench_out" / "reference-corpus"
    try:
        reference = {}
        for name in workloads.WORKLOAD_CLASSES:
            reference.update(fingerprints(name, 0, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} op fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
