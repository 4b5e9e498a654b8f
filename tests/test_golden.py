"""Every command's answers, pinned against a checked-in golden file.

Each case runs one small CLI command in-process and compares its parsed
output with ``golden.json``: floats within GOLDEN_ATOL, and ints, bools and
strings exactly.  A change that means to move an answer regenerates the file
and names each moved value in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqmps
from seqmps.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_ATOL = 1e-12

# One small run of every command.  CI runs these before scipy is installed,
# so they pin the answers on numpy alone.
CASES = {
    # A full_pauli core: one Procrustes factor, its couplings read off its logarithm.
    "generate-full_pauli-w3": ["--command", "generate", "--model", "full_pauli", "--n", "3", "--target", "w"],
    # The seqgen-generate path: xy couplings plus ancilla unitaries.
    "generate-xy-w4": ["--command", "generate", "--n", "4", "--target", "w"],
    "compress-xxz-n6-d2": ["--command", "compress", "--target", "xxz", "--n", "6", "--dprime", "2"],
    # compress-scan's random shape, which runs into the sweep cap.
    "compress-random-n24-D8-d4": ["--command", "compress", "--target", "random", "--n", "24", "--bond", "8",
                                  "--dprime", "4", "--max-sweeps", "30"],
    # The README's GHZ landmark: truncation's site-1 normalization, error 2 - sqrt(2).
    "compress-ghz-n8-d1-truncation": ["--command", "compress", "--target", "ghz", "--n", "8", "--dprime", "1",
                                      "--method", "truncation"],
    # Truncation, ALS and canonicalize_left.
    "fig1-n6-bond4": ["--command", "fig1", "--n", "6", "--bond", "4"],
    # The batched Bell coupling search (fig3's xy couplings).
    "fig3-n4": ["--command", "fig3", "--n", "4"],
    # The full_local start with all three local stacks; target seed 3001
    # needs a third restart, so the second restart batch runs too.
    "random-suite-n3-count2": ["--command", "random-suite", "--n", "3", "--count", "2"],
    # The restart batch with a fixed gate and all locals, and a batch that
    # shrinks once the product-state target is solved.
    "cnot-test-n3-count2": ["--command", "cnot-test", "--n", "3", "--count", "2"],
}


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def run_case(argv: list) -> dict:
    """Exit code and parsed stdout of one command: JSON as parsed, CSV as typed rows."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if text.startswith("{"):
        parsed = json.loads(text)
    else:
        parsed = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]
    return {"exit_code": code, "output": parsed}


def assert_matches(got, want, path="output"):
    if float in (type(got), type(want)):
        # A CSV cell spells a whole float as an int ("0"), so either side may read as one.
        assert {type(got), type(want)} <= {int, float}, f"{path}: {got!r} != {want!r}"
        assert abs(got - want) <= GOLDEN_ATOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", list(CASES))
def test_command_answers_match_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert want["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit_code"] == want["exit_code"]
    assert_matches(got["output"], want["output"])


# Runs every case in a fresh process and prints their parsed outputs as one JSON object.
ALL_CASES = """
import json
import seqmps
import test_golden
print(json.dumps({name: test_golden.run_case(argv) for name, argv in test_golden.CASES.items()}))
"""


def test_command_answers_match_golden_at_two_blas_threads():
    # SEQMPS_THREADS is read when seqmps is imported, before numpy loads its
    # BLAS, so the cases run in a subprocess; the BLAS variables it would set
    # are cleared, so the setting is not overridden.
    src = str(Path(seqmps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(GOLDEN.parent), os.environ.get("PYTHONPATH")]))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(PYTHONPATH=path, SEQMPS_THREADS="2")
    out = subprocess.run([sys.executable, "-c", ALL_CASES], env=env, capture_output=True, text=True,
                         check=True)
    got, golden = json.loads(out.stdout), json.loads(GOLDEN.read_text())
    assert list(got) == list(CASES)
    for name, case in got.items():
        assert case["exit_code"] == golden[name]["exit_code"], name
        assert_matches(case["output"], golden[name]["output"], name)


if __name__ == "__main__":
    golden = {name: {"argv": argv, **run_case(argv)} for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
