"""Command-line front end.

One entry point (``seqmps``) with a --command selector:

  compress      compress a factory target to a given bond dimension
  generate      optimize a sequential-generation protocol for a target
  fig1          compression error vs bond cap for an XXZ ground state and a
                random MPS, truncation vs variational
  fig3          W-state generation error vs qubit count, couplings-only vs
                couplings plus ancilla unitaries
  random-suite  batch protocol optimization over seeded random bond-2 targets
  cnot-test     fixed CNOT entangler plus local unitaries against random
                targets (expected to fail on some of them)

Output is CSV or JSON (--format); every document carries schema "seqmps/1"
and floats are serialized with 17 significant digits.  Runs are
deterministic given the flags and --seed.  The process exits 0 iff all of
the command's internal assertions pass; otherwise a machine-readable failure
JSON goes to stderr and the exit code is nonzero.

SEQMPS_THREADS caps BLAS/OpenMP parallelism (read at package import).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

import numpy as np

from .compress import METHOD_TRUNCATION, METHODS, compress_truncation, compress_variational
from .config import OptimizationConfig
from .errors import InvalidInputError, SeqmpsError
from .mps import Mps
from .seqgen import (
    CNOT,
    MODEL_KINDS,
    GeneratorModel,
    Protocol,
    default_config,
    make_protocol,
    optimize,
)
from .serialize import SCHEMA, fmt17
from .states import KINDS, TargetSpec, make_target
from .tolerances import (
    CHECK_SLACK,
    CNOT_FAILURE_1MF,
    COUPLINGS_ONLY_FACTOR,
    FULL_BOND_ERROR,
    PRODUCT_SOLVED_1MF,
    REACHED_1MF,
    REACHED_1MF_STRICT,
)

VARIANTS = ("couplings_only", "couplings_plus_ancilla", "full_local")


def _csv_text(rows: list[dict]) -> str:
    """CSV of the rows, with the first row's keys as the header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]))
    for row in rows:
        writer.writerow([fmt17(x) if isinstance(x, float) else str(x) for x in row.values()])
    return buf.getvalue()


def _doc(command: str, **fields) -> dict:
    """A document of the command: schema and command name, then the fields in order."""
    return {"schema": SCHEMA, "command": command, **fields}


def _json_text(command: str, rows: list[dict], summary: dict | None = None) -> str:
    doc = _doc(command, rows=rows)
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(doc, indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _check(failures: list, failed: bool, check: str, **detail) -> None:
    """Record a failed check of a command as {"check": ..., "detail": {...}}."""
    if failed:
        failures.append({"check": check, "detail": detail})


def _config(args, seqgen: bool = False, **defaults) -> OptimizationConfig:
    """Optimizer config: the flags the user gave, over the library's defaults.

    Compression takes OptimizationConfig's defaults and ignores --restarts.
    The protocol commands (seqgen=True) take seqgen.default_config's, under
    the command's own **defaults, and honour --restarts; without it, --strict
    quadruples the restart budget.
    """
    flags = {"tol": args.tol, "max_sweeps": args.max_sweeps, "seed": args.seed}
    if seqgen:
        flags["restarts"] = args.restarts
    build = default_config if seqgen else OptimizationConfig
    cfg = build(**{**defaults, **{k: v for k, v in flags.items() if v is not None}})
    if seqgen and args.restarts is None and args.strict:
        cfg = replace(cfg, restarts=4 * cfg.restarts)
    return cfg


def _target_from_args(args) -> Mps:
    spec = TargetSpec(
        kind=args.target, n=args.n, bond=args.bond, seed=args.seed, delta=args.delta
    )
    return make_target(spec)


# Per-target seeds pack (n, index) into n * _TARGETS_PER_N + index, so a suite
# with more targets per n would repeat the seeds of the next n.
_TARGETS_PER_N = 1_000


def _derived_seed(master: int, n: int, index: int) -> int:
    # Stable per-target seeds so suites are reproducible row by row.
    return master * 1_000_000 + n * _TARGETS_PER_N + index


def _suite_count(args) -> int:
    count = args.count if args.count is not None else 20
    if not 1 <= count <= _TARGETS_PER_N:
        raise InvalidInputError(
            f"--count must be in 1..{_TARGETS_PER_N} (beyond it per-target seeds repeat), got {count}"
        )
    return count


def _suite_sizes(args) -> range:
    """Chain sizes 2..--n of a suite; a suite with no size would have no rows."""
    if args.n < 2:
        raise InvalidInputError(f"{args.command} needs --n >= 2")
    return range(2, args.n + 1)


def _initial_protocol(model: GeneratorModel, n: int, variant: str) -> Protocol:
    """Starting protocol for a variant.

    The xy/xxz entanglers annihilate |00> and the per-step ancilla unitary
    acts after the entangler, so a couplings_plus_ancilla protocol with
    everything in |0> could never excite the first qubit; it starts the
    ancilla in |1> instead (one excitation to distribute down the chain).
    couplings_only keeps the default |0> everywhere: with no local
    unitaries at all the excitationless start is frozen, which is the point
    of that variant.  full_local starts from |0> too, but that identity
    start is a stationary point of the sweeps: its restart stalls within a
    few sweeps and the random restarts do the work.  ion_xy pair-creation
    protocols excite the last step's qubit (the final step can then erase
    the leftover ancilla excitation).  A full_pauli core spans all of U(2d)
    and absorbs U^A x 1 and 1 x U^B alike, so full_pauli has no local stack
    under any variant.
    """
    d = model.d_ancilla
    qubit_inits = np.zeros((n, 2), dtype=complex)
    qubit_inits[:, 0] = 1.0
    phi_i = np.zeros(d, dtype=complex)
    if model.kind == "ion_xy":
        qubit_inits[n - 1] = (0.0, 1.0)
        phi_i[0] = 1.0
    elif variant == "couplings_plus_ancilla" and model.kind in ("xy", "xxz"):
        phi_i[1] = 1.0
    else:
        phi_i[0] = 1.0
    local = model.kind != "full_pauli"
    return make_protocol(
        model,
        n,
        qubit_inits=qubit_inits,
        phi_i=phi_i,
        with_ancilla=local and variant != "couplings_only",
        with_qubit_pre=local and variant == "full_local",
        with_qubit_post=local and variant == "full_local",
    )


def cmd_compress(args, failures: list) -> tuple[list[dict], dict | None]:
    target = _target_from_args(args)
    d_prime = args.dprime if args.dprime is not None else max(1, target.max_bond // 2)
    if args.method == METHOD_TRUNCATION:
        _, report = compress_truncation(target, d_prime)
    else:
        _, report = compress_variational(target, d_prime, _config(args))
    row = {
        "state": args.target,
        "method": report.method,
        "d_prime": report.d_prime,
        "error": report.error,
        "fidelity": report.fidelity,
        "sweeps": report.sweeps,
        "converged": report.converged,
    }
    return [row], None


def cmd_generate(args, failures: list) -> tuple[list[dict], dict | None]:
    target = _target_from_args(args)
    model = GeneratorModel(args.model)
    p0 = _initial_protocol(model, args.n, args.variant)
    p_opt, report = optimize(p0, target, _config(args, seqgen=True))
    row = {
        "target": args.target,
        "n": args.n,
        "model": model.kind,
        "variant": args.variant,
        "one_minus_f": report.one_minus_f,
        "fidelity": report.fidelity,
        "sweeps": report.sweeps,
        "converged": report.converged,
        "restarts_used": report.restarts_used,
    }
    summary = {"report": report.to_json_dict(), "protocol": json.loads(p_opt.to_json())}
    return [row], summary


def cmd_fig1(args, failures: list) -> tuple[list[dict], dict | None]:
    bond = args.bond if args.bond is not None else 16
    cfg = _config(args)
    xxz = make_target(TargetSpec(kind="xxz", n=args.n, bond=bond, delta=args.delta, seed=args.seed))
    rnd = make_target(TargetSpec(kind="random", n=args.n, bond=bond, seed=args.seed))
    rows = []
    errors = {}
    for state_name, target in (("xxz", xxz), ("random", rnd)):
        for d_prime in range(1, bond + 1):
            _, rep_t = compress_truncation(target, d_prime)
            _, rep_v = compress_variational(target, d_prime, cfg)
            for rep in (rep_t, rep_v):
                rows.append(
                    {
                        "state": state_name,
                        "method": rep.method,
                        "d_prime": d_prime,
                        "error": rep.error,
                        "fidelity": rep.fidelity,
                    }
                )
                errors[(state_name, rep.method, d_prime)] = rep.error

    for state_name in ("xxz", "random"):
        for method in METHODS:
            for d_prime in range(1, bond):
                lo, hi = errors[(state_name, method, d_prime + 1)], errors[(state_name, method, d_prime)]
                _check(
                    failures, lo > hi + CHECK_SLACK, "error_monotone_in_d_prime",
                    state=state_name, method=method, d_prime=d_prime + 1,
                )
        for d_prime in range(1, bond + 1):
            tr = errors[(state_name, "truncation", d_prime)]
            va = errors[(state_name, "variational", d_prime)]
            _check(
                failures, va > tr + CHECK_SLACK, "variational_beats_truncation",
                state=state_name, d_prime=d_prime, truncation=tr, variational=va,
            )
        for method in METHODS:
            error = errors[(state_name, method, bond)]
            _check(
                failures, error >= FULL_BOND_ERROR, "full_bond_error_small",
                state=state_name, method=method, error=error,
            )
    return rows, None


def cmd_fig3(args, failures: list) -> tuple[list[dict], dict | None]:
    sizes = _suite_sizes(args)
    cfg = _config(args, seqgen=True)
    model = GeneratorModel("xy")
    rows = []
    values = {}
    for n in sizes:
        target = make_target(TargetSpec(kind="w", n=n))
        for variant in ("couplings_only", "couplings_plus_ancilla"):
            p0 = _initial_protocol(model, n, variant)
            _, report = optimize(p0, target, cfg)
            rows.append(
                {
                    "n": n,
                    "variant": variant,
                    "one_minus_f": report.one_minus_f,
                    "sweeps": report.sweeps,
                    "restarts": report.restarts_used,
                }
            )
            values[(n, variant)] = report.one_minus_f

    aug_threshold = REACHED_1MF_STRICT if args.strict else REACHED_1MF
    if args.n >= 4:
        aug = values[(4, "couplings_plus_ancilla")]
        only = values[(4, "couplings_only")]
        _check(failures, aug >= aug_threshold, "augmented_reaches_target", n=4, one_minus_f=aug)
        _check(
            failures, only < COUPLINGS_ONLY_FACTOR * aug, "couplings_only_worse_by_1e3",
            n=4, couplings_only=only, couplings_plus_ancilla=aug,
        )
        for variant in ("couplings_only", "couplings_plus_ancilla"):
            n2, n4 = values[(2, variant)], values[(4, variant)]
            _check(failures, n2 > n4 + CHECK_SLACK, "smaller_n_no_worse", variant=variant, n2=n2, n4=n4)
    return rows, None


def cmd_random_suite(args, failures: list) -> tuple[list[dict], dict | None]:
    sizes = _suite_sizes(args)
    count = _suite_count(args)
    cfg = _config(args, seqgen=True)
    model = GeneratorModel("xy")
    threshold = REACHED_1MF_STRICT if args.strict else REACHED_1MF
    rows = []
    max_per_n = {}
    for n in sizes:
        p0 = _initial_protocol(model, n, "full_local")
        worst = 0.0
        for idx in range(count):
            seed = _derived_seed(args.seed, n, idx)
            target = make_target(TargetSpec(kind="random", n=n, bond=2, seed=seed))
            _, report = optimize(p0, target, cfg)
            rows.append(
                {
                    "seed": seed,
                    "n": n,
                    "one_minus_f": report.one_minus_f,
                    "restarts_used": report.restarts_used,
                }
            )
            worst = max(worst, report.one_minus_f)
        max_per_n[n] = worst
        _check(failures, worst >= threshold, "random_targets_reachable", n=n, max_one_minus_f=worst)
    summary = {
        "max_one_minus_f_per_n": {str(n): v for n, v in max_per_n.items()},
        "threshold": threshold,
        "count_per_n": count,
    }
    return rows, summary


def cmd_cnot_test(args, failures: list) -> tuple[list[dict], dict | None]:
    n = args.n
    count = _suite_count(args)
    cfg = _config(args, seqgen=True, restarts=10)
    p0 = make_protocol(
        GeneratorModel("xy"),
        n,
        with_ancilla=True,
        with_qubit_pre=True,
        with_qubit_post=True,
        fixed_gate=CNOT,
    )
    rows = []
    above = 0
    for idx in range(count):
        seed = _derived_seed(args.seed, n, idx)
        target = make_target(TargetSpec(kind="random", n=n, bond=2, seed=seed))
        _, report = optimize(p0, target, cfg)
        rows.append({"seed": seed, "n": n, "one_minus_f": report.one_minus_f})
        if report.one_minus_f > CNOT_FAILURE_1MF:
            above += 1

    # Product states need no entangler at all, so CNOT + locals must manage.
    e0 = np.array([1.0, 0.0]).reshape(2, 1, 1)
    _, product_report = optimize(p0, Mps([e0] * n, [1.0], [1.0]), cfg)

    _check(failures, above == 0, "cnot_fails_some_target", count=count, **{"above_1e-3": above})
    _check(
        failures, product_report.one_minus_f >= PRODUCT_SOLVED_1MF, "cnot_handles_product_state",
        one_minus_f=product_report.one_minus_f,
    )
    summary = {
        "targets": count,
        "above_threshold": above,
        "failure_threshold": CNOT_FAILURE_1MF,
        "max_one_minus_f": max(r["one_minus_f"] for r in rows),
        "min_one_minus_f": min(r["one_minus_f"] for r in rows),
        "product_state_one_minus_f": product_report.one_minus_f,
    }
    return rows, summary


# Handler, default --format and default --n of each command.
COMMANDS = {
    "compress": (cmd_compress, "json", 4),
    "generate": (cmd_generate, "json", 4),
    "fig1": (cmd_fig1, "csv", 10),
    "fig3": (cmd_fig3, "csv", 8),
    "random-suite": (cmd_random_suite, "csv", 5),
    "cnot-test": (cmd_cnot_test, "json", 4),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmps",
        description="MPS compression and sequential-generation protocol optimization.",
    )
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--target", choices=KINDS, default="random", help="target state family")
    parser.add_argument("--model", choices=MODEL_KINDS, default="xy")
    parser.add_argument("--variant", choices=VARIANTS, default="couplings_plus_ancilla")
    parser.add_argument("--n", type=int, default=None, help="qubit count (or max n for suites)")
    parser.add_argument("--delta", type=float, default=1.0, help="XXZ anisotropy")
    parser.add_argument(
        "--bond", type=int, default=None,
        help="target bond dimension (default: exact for xxz, 2 for random, 16 for fig1)",
    )
    parser.add_argument("--dprime", type=int, default=None, help="compression bond cap")
    parser.add_argument("--method", choices=METHODS, default="variational")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-sweeps", type=int, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=None, help="targets per n in suites")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--strict", action="store_true", help="tighter thresholds, more restarts")
    return parser


def _write_status(command: str, status: str, **fields) -> None:
    """The one-line JSON status document that a failed run writes to stderr."""
    sys.stderr.write(json.dumps(_doc(command, status=status, **fields)) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, default_format, default_n = COMMANDS[args.command]
    if args.n is None:
        args.n = default_n
    fmt = args.format if args.format is not None else default_format

    failures: list[dict] = []
    try:
        rows, summary = handler(args, failures)
    except SeqmpsError as exc:
        _write_status(args.command, "error", error=type(exc).__name__, message=str(exc))
        return 2

    try:
        if fmt == "csv":
            _write_output(_csv_text(rows), args.out)
            if summary is not None and args.out is not None:
                with open(args.out + ".summary.json", "w") as fh:
                    json.dump(_doc(args.command, summary=summary), fh, indent=2)
        else:
            _write_output(_json_text(args.command, rows, summary), args.out)
    except OSError as exc:  # --out or its .summary.json could not be written
        _write_status(args.command, "error", error=type(exc).__name__, message=str(exc))
        return 2

    if failures:
        _write_status(args.command, "failed", failures=failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
