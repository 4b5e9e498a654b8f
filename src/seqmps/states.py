"""Factory of target states as normalized left-canonical MPS.

GHZ, W and cluster states are written down with closed-form bond-2 site
tensors and then canonicalized; random states draw complex Gaussian tensors
from a seeded generator; XXZ ground states come from a dense symmetric
eigensolve of the open-boundary chain

    H = sum_k  sigma1_k sigma1_{k+1} + sigma2_k sigma2_{k+1}
             + delta * sigma3_k sigma3_{k+1}

in the Pauli (not spin-1/2) convention, so the n = 2, delta = 1 ground state
is the singlet at energy -3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .linalg import eigh_lowest
from .mps import Mps, canonicalize_left, from_state_vector, normalize
from .tolerances import DEGENERACY_GAP, MAX_XXZ_QUBITS

KINDS = ("ghz", "w", "cluster", "random", "xxz")


@dataclass(frozen=True)
class TargetSpec:
    """What to build: kind plus the parameters that kind consumes.

    seed applies to kind="random", delta to kind="xxz".  bond is the
    generation bond dimension for kind="random" (default 2) and an optional
    compression cap for kind="xxz" (None keeps the exact ground state); the
    other kinds ignore it.
    """

    kind: str
    n: int
    bond: int | None = None
    seed: int = 0
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown target kind {self.kind!r}")
        if self.n < 2:
            raise InvalidInputError("targets need n >= 2")
        if self.bond is not None and self.bond < 1:
            raise InvalidInputError("bond must be >= 1 when given")


def make_target(spec: TargetSpec) -> Mps:
    """Build the requested state; always normalized and left-canonical."""
    if spec.kind == "ghz":
        return ghz_state(spec.n)
    if spec.kind == "w":
        return w_state(spec.n)
    if spec.kind == "cluster":
        return cluster_state(spec.n)
    if spec.kind == "random":
        return random_mps(spec.n, spec.bond if spec.bond is not None else 2, spec.seed)
    return xxz_ground(spec.n, spec.delta, max_bond=spec.bond)


def _finish(tensors, phi_i) -> Mps:
    m = Mps(tensors, phi_i, np.ones(1, dtype=complex))
    return normalize(canonicalize_left(m))


def ghz_state(n: int) -> Mps:
    """(|0...0> + |1...1>) / sqrt(2) with bond dimension 2."""
    if n < 2:
        raise InvalidInputError("ghz needs n >= 2")
    first = np.zeros((2, 2, 1), dtype=complex)
    first[0, 0, 0] = first[1, 1, 0] = 1.0
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0  # bond carries the branch label
    last = np.zeros((2, 1, 2), dtype=complex)
    last[0, 0, 0] = last[1, 0, 1] = 1.0
    return _finish([first] + [mid] * (n - 2) + [last], [1.0])


def w_state(n: int) -> Mps:
    """(|10...0> + ... + |0...01>) / sqrt(n) with bond dimension 2."""
    if n < 2:
        raise InvalidInputError("w needs n >= 2")
    # Bond value 1 = "the single excitation has been placed".
    first = np.zeros((2, 2, 1), dtype=complex)
    first[0, 0, 0] = first[1, 1, 0] = 1.0
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0] = np.eye(2)
    mid[1, 1, 0] = 1.0
    last = np.zeros((2, 1, 2), dtype=complex)
    last[0, 0, 1] = last[1, 0, 0] = 1.0
    return _finish([first] + [mid] * (n - 2) + [last], [1.0])


def cluster_state(n: int) -> Mps:
    """1-D cluster state: CZ on every neighboring pair of |+>^n, bond 2."""
    if n < 2:
        raise InvalidInputError("cluster needs n >= 2")
    # Bond carries the previous qubit's bit; amplitude (-1)^(sum s_k s_{k+1}).
    first = np.zeros((2, 2, 1), dtype=complex)
    first[0, 0, 0] = first[1, 1, 0] = 1.0
    mid = np.zeros((2, 2, 2), dtype=complex)
    for s in (0, 1):
        for prev in (0, 1):
            mid[s, s, prev] = (-1.0) ** (s * prev)
    last = np.zeros((2, 1, 2), dtype=complex)
    for s in (0, 1):
        for prev in (0, 1):
            last[s, 0, prev] = (-1.0) ** (s * prev)
    return _finish([first] + [mid] * (n - 2) + [last], [1.0])


def random_mps(n: int, bond: int, seed: int) -> Mps:
    """Seeded random state: complex Gaussian tensors, then canonicalized.

    Bond dimensions follow min(bond, 2**k, 2**(n-k)) so the state is generic
    for the requested bond.  The same (n, bond, seed) always yields the same
    state, bit for bit.
    """
    if n < 2:
        raise InvalidInputError("random targets need n >= 2")
    if bond < 1:
        raise InvalidInputError("bond must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [min(bond, 2**k, 2 ** (n - k)) for k in range(n + 1)]
    tensors = []
    for k in range(1, n + 1):
        shape = (2, dims[k], dims[k - 1])
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t)
    return _finish(tensors, [1.0])


def xxz_dense_hamiltonian(n: int, delta: float) -> np.ndarray:
    """Dense open-boundary XXZ chain Hamiltonian (real symmetric)."""
    if n < 2:
        raise InvalidInputError("xxz needs n >= 2")
    if n > MAX_XXZ_QUBITS:
        raise CapacityError(f"n = {n} exceeds the XXZ cap of {MAX_XXZ_QUBITS}")
    dim = 2**n
    h = np.zeros((dim, dim))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * sigma2, real
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    for k in range(1, n):
        # Pair (k, k+1); site k occupies bit k-1 of the state-vector index.
        pair = np.kron(sx, sx) - np.kron(isy, isy) + delta * np.kron(sz, sz)
        dl = 2 ** (n - k - 1)
        dr = 2 ** (k - 1)
        # Add pair on the diagonal of the spectator indices without
        # materializing dim x dim kron products (n = 14 would not fit in RAM).
        hv = h.reshape(dl, 4, dr, dl, 4, dr)
        il = np.arange(dl)[:, None]
        ir = np.arange(dr)[None, :]
        hv[il, :, ir, il, :, ir] += pair
    return h


def xxz_ground_vector(n: int, delta: float) -> np.ndarray:
    """Dense ground-state vector of the XXZ chain.

    Uses a direct dense symmetric eigensolve restricted to the lowest two
    eigenpairs; warns and tie-breaks to the lowest-index eigenvector when the
    ground state is (numerically) degenerate.
    """
    h = xxz_dense_hamiltonian(n, delta)
    vals, vecs = eigh_lowest(h, 2)
    gap = vals[1] - vals[0]
    if gap < DEGENERACY_GAP * max(1.0, abs(vals[0])):
        warnings.warn(
            f"xxz ground state is degenerate within {DEGENERACY_GAP:g} "
            f"(gap {gap:.3e}); taking the lowest-index eigenvector",
            stacklevel=2,
        )
    return vecs[:, 0].astype(complex)


def xxz_ground(n: int, delta: float, max_bond: int | None = None) -> Mps:
    """Ground state of the open XXZ chain as a normalized MPS."""
    vec = xxz_ground_vector(n, delta)
    return normalize(from_state_vector(vec, max_bond=max_bond))
