#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Runs one workload traced twice with the same seed.  Passes when both runs
are correct, which includes each run's own check that its traced operations
give the same fingerprint as the same operations run untraced, and when the
two runs report identical per-layer ``.calls`` counts and identical result
fingerprints.

    python3 bench/selfcheck.py [--workload seqgen-cnot] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"


def run(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL,
    )
    with open(OUT / f"{workload}.seed{seed}.trace1.json") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark determinism self-check")
    parser.add_argument("--workload", default="seqgen-cnot")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    first = run(args.workload, args.seed)
    second = run(args.workload, args.seed)

    def calls(rec):
        return {k: v["value"] for k, v in rec["metrics"].items() if k.endswith(".calls")}

    checks = {
        "traced runs correct, traced = untraced fingerprint":
            first["correct"] and second["correct"]
            and first["fingerprint_identical"] and second["fingerprint_identical"],
        "per-layer calls identical": calls(first) == calls(second),
        "fingerprints identical": first["fingerprint"] == second["fingerprint"],
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
