#!/usr/bin/env python3
"""Wall time of variational compression against chain length and bond dimension.

For n in {20, 40, 80} and D in {16, 32, 64}, builds a seeded random MPS of
bond D on n qubits and compresses it to D/2 with exactly three ALS sweeps
(tol = 0).  It prints the wall time of the truncation that seeds the sweeps
and of the whole variational call (truncation start included), each the
fastest of three runs, with the final error.  A sweep contracts each site
pairwise, so its cost grows like n D^3: doubling n should double the time,
doubling D multiply it by up to 8 once the matrices are large enough for
BLAS to dominate.

Set SEQMPS_THREADS=1 for timings comparable across machines.
"""

import time

import seqmps

SWEEPS = 3
REPEATS = 3


def fastest(call):
    """Result of call() and its shortest wall time over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return result, min(times)


def main():
    cfg = seqmps.OptimizationConfig(max_sweeps=SWEEPS, tol=0.0)
    print(f"{SWEEPS} ALS sweeps of random_mps(n, D, seed=0) compressed to D/2")
    print(f"{'n':>4} {'D':>4} {'truncation s':>13} {'variational s':>14} {'error':>12} {'sweeps':>7}")
    for n in (20, 40, 80):
        for bond in (16, 32, 64):
            target = seqmps.random_mps(n, bond, seed=0)
            _, t_trunc = fastest(lambda: seqmps.compress_truncation(target, bond // 2))
            (_, report), t_var = fastest(
                lambda: seqmps.compress_variational(target, bond // 2, cfg)
            )
            print(f"{n:>4} {bond:>4} {t_trunc:>13.3f} {t_var:>14.3f} "
                  f"{report.error:>12.6e} {report.sweeps:>7}")


if __name__ == "__main__":
    main()
