"""Numerical tolerances and size caps used across the package.

Every default tolerance lives in this one table so that nothing is tuned
ad hoc at call sites.  Values are absolute unless noted otherwise.
"""

# Input validation for the dense linear algebra kernels.
HERMITICITY_ATOL = 1e-12      # max |h - h^dag| accepted by eigh, relative to max(1, |h|)
STATE_NORM_ATOL = 1e-12       # single-system state vectors must be normalized to this
LOCAL_UNITARITY_ATOL = 1e-9   # max |u^dag u - 1| of a Protocol's per-step local unitary stacks
GATE_UNITARITY_ATOL = 1e-8    # a fixed entangling gate given to a Protocol or build_step_unitary
TARGET_NORM_ATOL = 1e-8       # | ||target|| - 1 | accepted for a compression, fidelity or optimize target

# Rank decisions: singular values below RANK_RTOL * s_max are treated as zero.
RANK_RTOL = 1e-12

# Monotone sweep assertions (exact local minimization plus roundoff).
MONOTONE_SLACK = 1e-12

# Fidelities are clamped to FIDELITY_CLAMP against roundoff; reports accept
# values in [-FIDELITY_SLACK, FIDELITY_CLAMP].
FIDELITY_SLACK = 1e-9
FIDELITY_CLAMP = 1.0 + FIDELITY_SLACK

# A norm below this is treated as zero (normalization, phi_f fallback).
ZERO_NORM = 1e-300

# Variational compression defaults.
COMPRESS_TOL = 1e-10          # relative error-change convergence threshold
COMPRESS_MAX_SWEEPS = 200
COMPRESS_EXACT_ERROR = 1e-12  # a start this close to the target is returned with zero sweeps

# Sequential-generation optimizer defaults.
SEQGEN_TOL = 1e-12            # |delta cost| over a full sweep
SEQGEN_MAX_SWEEPS = 500
SEQGEN_RESTARTS = 5
GOOD_ENOUGH_COST = 1e-10      # skip remaining restarts once cost is below this
ARGMAX_CURVATURE_ATOL = 1e-18  # a coupling's Newton refinement stops at curvature >= -this

# Checks of the CLI commands (a failed one makes the command exit 1).
CHECK_SLACK = 1e-12           # roundoff allowed when comparing 1-F or errors between rows
FULL_BOND_ERROR = 1e-10       # fig1: compression at the target's own bond is exact
REACHED_1MF = 1e-6            # fig3 / random-suite: 1-F below this reaches the target
REACHED_1MF_STRICT = 1e-8     # the same under --strict
COUPLINGS_ONLY_FACTOR = 1e3   # fig3: couplings-only 1-F exceeds the augmented one by this factor
CNOT_FAILURE_1MF = 1e-3       # cnot-test: a target with 1-F above this is one CNOT + locals miss
PRODUCT_SOLVED_1MF = 1e-8     # cnot-test: the product-state target must reach this

# Ground-state degeneracy detection.
DEGENERACY_GAP = 1e-10

# Size caps for dense conversions.
MAX_DENSE_QUBITS = 20
MAX_XXZ_QUBITS = 14
