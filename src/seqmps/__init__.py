"""Sequential generation and compression of multiqubit matrix product states."""

import os as _os

# Honor the thread cap before numpy initializes its BLAS backend.
_threads = _os.environ.get("SEQMPS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .compress import (
    CompressionReport,
    compress_truncation,
    compress_variational,
)
from .config import OptimizationConfig
from .errors import (
    CapacityError,
    DegenerateStateError,
    InvalidInputError,
    NumericalFailureError,
    SeqmpsError,
)
from .mps import (
    Mps,
    canonicalize_left,
    from_state_vector,
    norm,
    normalize,
    overlap,
    to_state_vector,
    truncate_per_matrix,
)
from .seqgen import (
    CNOT,
    FidelityReport,
    GeneratorModel,
    Protocol,
    default_config,
    fidelity,
    make_protocol,
    optimize,
    pauli_coefficients,
    simulate,
)
from .states import (
    TargetSpec,
    cluster_state,
    ghz_state,
    make_target,
    random_mps,
    w_state,
    xxz_dense_hamiltonian,
    xxz_ground,
)

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "CapacityError",
    "CompressionReport",
    "DegenerateStateError",
    "FidelityReport",
    "GeneratorModel",
    "InvalidInputError",
    "Mps",
    "NumericalFailureError",
    "OptimizationConfig",
    "Protocol",
    "SeqmpsError",
    "TargetSpec",
    "canonicalize_left",
    "cluster_state",
    "compress_truncation",
    "compress_variational",
    "default_config",
    "fidelity",
    "from_state_vector",
    "ghz_state",
    "make_protocol",
    "make_target",
    "norm",
    "normalize",
    "optimize",
    "overlap",
    "pauli_coefficients",
    "random_mps",
    "simulate",
    "to_state_vector",
    "truncate_per_matrix",
    "w_state",
    "xxz_dense_hamiltonian",
    "xxz_ground",
]
