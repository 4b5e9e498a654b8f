#!/usr/bin/env python3
"""seqmps benchmark: closed-loop workloads, end-to-end or traced per layer.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 bench/run.py --workload seqgen-generate --seed 1 --seconds 36 --trace 0

One process drives one operation at a time, with BLAS pinned to one thread
through the package's own SEQMPS_THREADS.  Every operation's result is
checked by an oracle; failures are counted, never fatal.

--trace 0 measures the end-to-end metrics: operations are issued until
their summed latency reaches --seconds.  --trace 1 runs a fixed number of
operations twice, untraced and then traced, and reports per-layer counts and
self times (see bench/tracer.py).  Both print a metric table and, as the last
line, one JSON object; the full record (environment, per-operation latencies
and result fingerprint) goes to .bench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is mostly interpreter start and imports.  Its probes are spread over
# the timed phase, so setup_s samples the same machine states as the
# operations do; it is their median.
SETUP_PROBES = 9
SEQMPS_THREADS = "1"
# op_s.tail percentile (nearest rank).  A 36 s run holds 50 to 135 operations
# on the reference machine, so at least 10 of them lie beyond p80.
TAIL_PCT = 80


def load_package() -> None:
    """Import seqmps from this checkout's src/, with BLAS on one thread."""
    if not (SRC / "seqmps" / "__init__.py").is_file():
        sys.exit(f"error: no seqmps package under {SRC}")
    os.environ["SEQMPS_THREADS"] = SEQMPS_THREADS
    sys.path.insert(0, str(SRC))
    import seqmps  # noqa: PLC0415 - must follow the environment set-up

    if Path(seqmps.__file__).resolve().parent != SRC / "seqmps":
        sys.exit(f"error: imported seqmps from {seqmps.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("seqgen-generate", "seqgen-cnot", "compress-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Driver:
    """Runs operations of one workload and accumulates their outcomes."""

    def __init__(self, workload, tracer=None):
        import seqmps

        self.error = seqmps.SeqmpsError
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.fingerprint: list[dict] = []
        self.failed = 0
        self.counts: dict[str, int] = {}

    def run_op(self, i: int) -> float:
        """Time operation i, then check it; a SeqmpsError is a failed operation."""
        w = self.workload
        spec = w.spec(i)
        if self.tracer is not None:
            self.tracer.op_id = i
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = w.run(spec)
        except self.error as exc:
            result = exc
        latency = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        self.latencies.append(latency)
        try:
            if isinstance(result, self.error):
                raise result
            ok, entry = w.check(spec, result)
        except self.error as exc:
            ok, entry = False, {"spec": spec, "error": type(exc).__name__}
        else:
            for key, value in w.counts(result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        self.failed += not ok
        self.fingerprint.append({"op": i, **entry})
        return latency

    def run_for(self, seconds: float, pause=None) -> float:
        """Issue operations until their summed latency reaches seconds (at least one).

        pause(busy), if given, runs untimed before each operation.
        """
        busy = 0.0
        while busy < seconds or not self.latencies:
            if pause is not None:
                pause(busy)
            busy += self.run_op(len(self.latencies))
        return busy

    def run_n(self, count: int) -> float:
        return sum(self.run_op(i) for i in range(count))


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "SEQMPS_THREADS": os.environ.get("SEQMPS_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" outside a git tree or without git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probe(workload: str) -> float:
    """Wall time of a fresh process from start to a warmed-up state.

    The probe imports seqmps/numpy/scipy and makes the workload's warm-up
    call, exactly as this process did, and reports when it is ready.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        sys.exit("error: set-up probe failed")
    return elapsed


def end_to_end(args, workload) -> dict:
    driver = Driver(workload)
    setup = []

    def probe_due(busy: float) -> None:
        if len(setup) < SETUP_PROBES and busy >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe(args.workload))

    busy = driver.run_for(args.seconds, probe_due)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload))
    lat = sorted(driver.latencies)
    attempted = len(lat)
    tail_at = math.ceil(TAIL_PCT / 100.0 * attempted) - 1
    return {
        "driver": driver,
        "attempted": attempted,
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": ((attempted - driver.failed) / busy, "1/s"),
            "op_s.p50": (statistics.median(lat), "s"),
            "op_s.tail": (lat[tail_at], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "extra": {
            "tail_percentile": TAIL_PCT,
            "ops_beyond_tail": attempted - tail_at - 1,
            "busy_s": busy,
        },
    }


def traced(args, workload_cls) -> dict:
    from tracer import Tracer

    count = workload_cls.trace_ops
    plain = Driver(workload_cls(args.seed))
    plain_s = plain.run_n(count)
    tracer = Tracer()
    tracer.install()
    try:
        driver = Driver(workload_cls(args.seed), tracer)
        traced_s = driver.run_n(count)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}.spans.npz")

    restarts = driver.counts.get("seqgen.restarts", 0)
    values = {
        "kernels.einsum.ops_naive": tracer.einsum_ops_naive,
        "kernels.einsum.ops_best": tracer.einsum_ops_best,
        "compress.sweeps": 0, "seqgen.sweeps": 0, "seqgen.updates": 0, "seqgen.restarts": 0,
        "seqgen.solved_per_restart": driver.counts.get("seqgen.solved", 0) / restarts if restarts else 0.0,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    values.update(driver.counts)
    for span in tracer.names:
        values[f"{span}.calls"], values[f"{span}.self_s"] = tracer.stat(span)
    # BENCHMARK.json names the per-layer metrics; an unknown name is an error.
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    # Tracing must not change a single result bit.
    identical = driver.fingerprint == plain.fingerprint
    return {
        "driver": driver,
        "attempted": count,
        "metrics": metrics,
        "extra": {"untraced_s": plain_s, "traced_s": traced_s, "fingerprint_identical": identical,
                  "spans": len(tracer.span_start)},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    warm = workload_cls(0)
    warm.run(warm.warmup_spec())
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        res = traced(args, workload_cls)
    else:
        res = end_to_end(args, workload_cls(args.seed))
    driver = res["driver"]
    correct = driver.failed == 0 and res["extra"].get("fingerprint_identical", True)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": res["attempted"],
        "failed": driver.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        **res["extra"],
        "latencies_s": driver.latencies,
        "report_counts": driver.counts,
        "fingerprint": driver.fingerprint,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={res['attempted']} failed={driver.failed}")
    for key, (value, unit) in res["metrics"].items():
        print(f"{key:<40} {value:>16.6g} {unit}")
    if not args.trace:
        # fail_frac is 0 when the program is correct, so it is not a bounded
        # metric; the result line carries it as failed / attempted.
        print(f"{'fail_frac':<40} {driver.failed / res['attempted']:>16.6g} ratio")
    for key, value in res["extra"].items():
        print(f"# {key} = {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": driver.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
