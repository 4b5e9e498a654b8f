"""Command-line interface: formats, determinism and exit codes."""

import csv
import json

import numpy as np
import pytest

import seqmps
import seqmps.cli as cli
import seqmps.compress as compress
import seqmps.seqgen as seqgen
from seqmps.cli import main
from seqmps.tolerances import REACHED_1MF_STRICT


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_compress_csv_schema_and_values(tmp_path):
    code, out = run_to_file(
        tmp_path, "c.csv",
        ["--command", "compress", "--target", "xxz", "--n", "6", "--dprime", "2",
         "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["state", "method", "d_prime", "error", "fidelity",
                         "sweeps", "converged"]
    assert row["state"] == "xxz"
    assert row["method"] == "variational"
    # The target is the exact ground state unless --bond caps it, and the
    # float cells round-trip the library values exactly.
    target = seqmps.xxz_ground(6, 1.0)
    _, report = seqmps.compress_variational(target, 2)
    assert float(row["error"]) == report.error
    assert float(row["fidelity"]) == report.fidelity


def test_compress_truncation_method(tmp_path):
    code, out = run_to_file(
        tmp_path, "t.csv",
        ["--command", "compress", "--target", "ghz", "--n", "5", "--dprime", "1",
         "--method", "truncation", "--format", "csv"],
    )
    assert code == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["method"] == "truncation"
    assert abs(float(row["fidelity"]) - 2.0 ** (-0.5)) < 1e-12


@pytest.mark.parametrize("model", ["xy", "full_pauli"])
def test_generate_json_document(tmp_path, model):
    code, out = run_to_file(
        tmp_path, "g.json",
        ["--command", "generate", "--target", "w", "--n", "4", "--model", model,
         "--variant", "couplings_plus_ancilla", "--restarts", "3"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "seqmps/1"
    assert doc["command"] == "generate"
    row = doc["rows"][0]
    assert list(row) == ["target", "n", "model", "variant", "one_minus_f",
                         "fidelity", "sweeps", "converged", "restarts_used"]
    assert row["one_minus_f"] < 1e-6
    # The emitted protocol is loadable and reproduces the reported fidelity.
    p = seqmps.Protocol.from_json(json.dumps(doc["summary"]["protocol"]))
    report = seqmps.fidelity(p, seqmps.w_state(4))
    assert abs(report.fidelity - row["fidelity"]) < 1e-12


@pytest.mark.parametrize("variant", ["couplings_plus_ancilla", "full_local"])
def test_full_pauli_generate_has_no_local_stack(tmp_path, variant):
    # The full_pauli core spans U(2d), so a U^A x 1 or 1 x U^B factor would only repeat it.
    code, out = run_to_file(
        tmp_path, "g.json",
        ["--command", "generate", "--target", "w", "--n", "4", "--model", "full_pauli",
         "--variant", variant, "--restarts", "3"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    for field in ("local_ancilla", "local_qubit_pre", "local_qubit_post"):
        assert doc["summary"]["protocol"][field] is None
    assert doc["rows"][0]["one_minus_f"] < 1e-6


def test_generate_is_deterministic(tmp_path):
    argv = ["--command", "generate", "--target", "random", "--n", "3",
            "--variant", "full_local", "--seed", "11", "--restarts", "2"]
    code_a, out_a = run_to_file(tmp_path, "a.json", argv)
    code_b, out_b = run_to_file(tmp_path, "b.json", argv)
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fig1_small_scan(tmp_path):
    code, out = run_to_file(
        tmp_path, "fig1.csv",
        ["--command", "fig1", "--n", "6", "--bond", "4"],
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2 * 2 * 4  # two states, two methods, d' = 1..4
    for state in ("xxz", "random"):
        for method in ("truncation", "variational"):
            errs = [float(r["error"]) for r in rows
                    if r["state"] == state and r["method"] == method]
            assert len(errs) == 4
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    # At full bond capacity both methods are exact.
    full = [float(r["error"]) for r in rows if r["d_prime"] == "4"]
    assert max(full) < 1e-10


def test_fig3_couplings_only_vs_ancilla(tmp_path):
    code, out = run_to_file(tmp_path, "fig3.csv", ["--command", "fig3", "--n", "4"])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    bare = {int(r["n"]): float(r["one_minus_f"])
            for r in rows if r["variant"] == "couplings_only"}
    aug = {int(r["n"]): float(r["one_minus_f"])
           for r in rows if r["variant"] == "couplings_plus_ancilla"}
    assert set(bare) == set(aug) == {2, 3, 4}
    # Frozen chain: the bare variant misses W completely at every size.
    assert all(v == 1.0 for v in bare.values())
    assert all(v < 1e-6 for v in aug.values())


def test_random_suite_small(tmp_path):
    code, out = run_to_file(
        tmp_path, "suite.csv",
        ["--command", "random-suite", "--n", "3", "--count", "2"],
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4  # n in {2, 3} x 2 targets
    assert all(float(r["one_minus_f"]) < 1e-6 for r in rows)
    summary = json.loads((tmp_path / "suite.csv.summary.json").read_text())["summary"]
    assert summary["count_per_n"] == 2
    assert set(summary["max_one_minus_f_per_n"]) == {"2", "3"}
    assert all(v < 1e-6 for v in summary["max_one_minus_f_per_n"].values())


def test_cnot_test_small(tmp_path):
    code, out = run_to_file(
        tmp_path, "cnot.json",
        ["--command", "cnot-test", "--count", "2", "--restarts", "2"],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    summary = doc["summary"]
    assert summary["above_threshold"] >= 1
    assert summary["product_state_one_minus_f"] < 1e-8


def test_cnot_test_beyond_the_dense_cap(tmp_path):
    # The product-state target is built site by site, never as a 2**n vector.
    code, out = run_to_file(
        tmp_path, "cnot40.json",
        ["--command", "cnot-test", "--n", "40", "--count", "1", "--restarts", "1",
         "--max-sweeps", "1"],
    )
    assert code == 0
    assert json.loads(out.read_text())["summary"]["product_state_one_minus_f"] < 1e-8


def test_unwritable_out_exits_2(tmp_path, capsys):
    for fmt in ("json", "csv"):
        code = main(["--command", "compress", "--n", "4", "--format", fmt,
                     "--out", str(tmp_path / "missing" / "x.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error"
        assert err["error"] == "FileNotFoundError"


def test_stdout_output(capsys):
    code = main(["--command", "compress", "--target", "ghz", "--n", "4",
                 "--dprime", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["error"] < 1e-12


def test_invalid_input_exits_2(tmp_path, capsys):
    code = main(["--command", "compress", "--target", "ghz", "--n", "4",
                 "--dprime", "0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "InvalidInputError"


COMPRESS_XXZ = ["--command", "compress", "--target", "xxz", "--n", "6", "--dprime", "2"]
FULL_PAULI_GENERATE = ["--command", "generate", "--model", "full_pauli", "--n", "3",
                       "--restarts", "1", "--max-sweeps", "2"]


@pytest.mark.parametrize(
    "module, kernel, argv",
    [
        (np.linalg, "qr", COMPRESS_XXZ),
        (np.linalg, "svd", COMPRESS_XXZ),
        (np.linalg, "eigh", COMPRESS_XXZ),  # the XXZ target's sector blocks
        (np.linalg, "eig", FULL_PAULI_GENERATE),  # the couplings' logarithm
    ],
    ids=["qr", "svd", "eigh", "eig"],
)
def test_lapack_failure_exits_2(module, kernel, argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"injected {kernel} failure")

    monkeypatch.setattr(module, kernel, fail)
    code = main(argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "NumericalFailureError"


def test_non_monotone_optimizer_history_exits_2(monkeypatch, capsys):
    # A cost history that rises is a fault of the optimizer, not of its input.
    run_sweeps = seqgen._run_sweeps

    def rising(st, cfg):
        runs = run_sweeps(st, cfg)
        for history, *_ in filter(None, runs):
            history.append(history[-1] + 1e-6)
        return runs

    monkeypatch.setattr(seqgen, "_run_sweeps", rising)
    code = main(["--command", "generate", "--n", "3", "--restarts", "1", "--max-sweeps", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "NumericalFailureError"


def test_non_monotone_compression_history_exits_2(monkeypatch, capsys):
    # An error history that rises is a fault of the optimizer, not of its input.
    half_sweep = compress._half_sweep
    fnorms = []

    def falling(*args):
        # Sweep as usual, but report a fidelity that drops with each half-sweep.
        fnorms.append(half_sweep(*args))
        return fnorms[0] - 1e-6 * len(fnorms)

    monkeypatch.setattr(compress, "_half_sweep", falling)
    code = main(COMPRESS_XXZ + ["--max-sweeps", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "NumericalFailureError"


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "compress", "--n", "4", "--tol", "nan"],
        ["--command", "generate", "--n", "3", "--tol", "inf"],
        ["--command", "compress", "--target", "xxz", "--n", "4", "--delta", "inf"],
        ["--command", "compress", "--target", "xxz", "--n", "4", "--delta", "nan"],
    ],
    ids=["compress-tol-nan", "generate-tol-inf", "delta-inf", "delta-nan"],
)
def test_non_finite_input_exits_2(argv, capsys):
    code = main(argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "InvalidInputError"


def test_suite_count_outside_the_seed_space_exits_2(capsys):
    # Seeds pack (n, index) as n * 1000 + index, so index 1000 would repeat
    # the next n's first target, and an empty suite has no summary; such
    # counts are refused before any work.
    for command in ("random-suite", "cnot-test"):
        for count in ("1001", "0"):
            code = main(["--command", command, "--n", "3", "--count", count])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "InvalidInputError"
            assert "--count" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        # A suite over sizes 2..1 would have no rows to write.
        ["--command", "random-suite", "--n", "1", "--count", "1"],
        ["--command", "fig3", "--n", "1"],
        # Refused by random_mps (the compress target) and by
        # OptimizationConfig (generate's W target draws no seed).
        ["--command", "compress", "--n", "4", "--seed", "-1"],
        ["--command", "generate", "--target", "w", "--n", "3", "--seed", "-1"],
    ],
    ids=["random-suite-n1", "fig3-n1", "compress-negative-seed", "generate-negative-seed"],
)
def test_out_of_range_n_or_seed_exits_2(argv, capsys):
    code = main(argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert err["error"] == "InvalidInputError"


def test_random_suite_strict_tightens_threshold_and_restarts(tmp_path, monkeypatch):
    seen = []

    def spy(p0, target, cfg):
        seen.append(cfg)
        return seqgen.optimize(p0, target, cfg)

    monkeypatch.setattr(cli, "optimize", spy)
    code, _ = run_to_file(
        tmp_path, "strict.csv",
        ["--command", "random-suite", "--n", "2", "--count", "1", "--strict"],
    )
    assert code == 0
    summary = json.loads((tmp_path / "strict.csv.summary.json").read_text())["summary"]
    assert summary["threshold"] == REACHED_1MF_STRICT
    assert [cfg.restarts for cfg in seen] == [4 * seqgen.default_config().restarts]


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--command", "fig2"])
    assert exc.value.code == 2


def test_csv_floats_use_17_significant_digits(tmp_path):
    from seqmps.serialize import fmt17

    x = 1.0 / 3.0
    assert fmt17(x) == format(x, ".17g")
    assert float(fmt17(x)) == x
    assert float(fmt17(1e-300)) == 1e-300
