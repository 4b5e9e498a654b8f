"""Factory of target states as normalized left-canonical MPS.

GHZ, W and cluster states are written down with closed-form bond-2 site
tensors and then canonicalized; random states draw complex Gaussian tensors
from a seeded generator; XXZ ground states are exact ground states of the
open-boundary chain

    H = sum_k  sigma1_k sigma1_{k+1} + sigma2_k sigma2_{k+1}
             + delta * sigma3_k sigma3_{k+1}

in the Pauli (not spin-1/2) convention, so the n = 2, delta = 1 ground state
is the singlet at energy -3.  H conserves total Sz, so xxz_ground_vector
diagonalizes it one block of fixed one-bit count at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import check_count
from .errors import CapacityError, InvalidInputError
from .linalg import eigh
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
        check_count(self.n, "n", 2)
        if self.bond is not None:
            check_count(self.bond, "bond", 1)
        check_count(self.seed, "seed", 0)
        if not math.isfinite(self.delta):
            raise InvalidInputError(f"delta must be finite, got {self.delta}")


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


def _finish(tensors) -> Mps:
    m = Mps(tensors, [1.0], np.ones(1, dtype=complex))
    return normalize(canonicalize_left(m))


def _chain(mid: np.ndarray, left, right, n: int) -> Mps:
    """mid at every site, the end sites closed by the bond vectors left and right."""
    first = mid @ np.reshape(right, (2, 1))
    last = np.reshape(left, (1, 2)) @ mid
    return _finish([first] + [mid] * (n - 2) + [last])


def ghz_state(n: int) -> Mps:
    """(|0...0> + |1...1>) / sqrt(2) with bond dimension 2."""
    check_count(n, "n", 2)
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0  # bond carries the branch label
    return _chain(mid, [1.0, 1.0], [1.0, 1.0], n)


def w_state(n: int) -> Mps:
    """(|10...0> + ... + |0...01>) / sqrt(n) with bond dimension 2."""
    check_count(n, "n", 2)
    # Bond value 1 = "the single excitation has been placed".
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0] = np.eye(2)
    mid[1, 1, 0] = 1.0
    return _chain(mid, [0.0, 1.0], [1.0, 0.0], n)


def cluster_state(n: int) -> Mps:
    """1-D cluster state: CZ on every neighboring pair of |+>^n, bond 2."""
    check_count(n, "n", 2)
    # Bond carries the previous qubit's bit; amplitude (-1)^(sum s_k s_{k+1}).
    mid = np.zeros((2, 2, 2), dtype=complex)
    for s in (0, 1):
        for prev in (0, 1):
            mid[s, s, prev] = (-1.0) ** (s * prev)
    return _chain(mid, [1.0, 1.0], [1.0, 0.0], n)


def random_mps(n: int, bond: int, seed: int) -> Mps:
    """Seeded random state: complex Gaussian tensors, then canonicalized.

    Bond dimensions follow min(bond, 2**k, 2**(n-k)) so the state is generic
    for the requested bond.  The same (n, bond, seed) always yields the same
    state, bit for bit.
    """
    check_count(n, "n", 2)
    check_count(bond, "bond", 1)
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    dims = [min(bond, 2**k, 2 ** (n - k)) for k in range(n + 1)]
    tensors = []
    for k in range(1, n + 1):
        shape = (2, dims[k], dims[k - 1])
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t)
    return _finish(tensors)


def _one_bits(n: int) -> np.ndarray:
    """Number of one-bits of every state-vector index 0 .. 2**n - 1."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


def xxz_dense_hamiltonian(n: int, delta: float, ones: int | None = None) -> np.ndarray:
    """Open-boundary XXZ chain Hamiltonian (real symmetric), built from bit patterns.

    ones = k gives the block over the basis states with k one-bits, in
    ascending index order; ones=None gives the full 2**n matrix.  The
    diagonal is delta * sum_k z_k z_{k+1} (z = +1 for bit 0, -1 for bit 1),
    and every 01 <-> 10 neighbour flip has amplitude 2.
    """
    check_count(n, "n", 2)
    if n > MAX_XXZ_QUBITS:
        raise CapacityError(f"n = {n} exceeds the XXZ cap of {MAX_XXZ_QUBITS}")
    if not math.isfinite(delta):
        raise InvalidInputError(f"delta must be finite, got {delta}")
    if ones is not None:
        check_count(ones, "ones", 0, n)
    states = np.arange(2**n) if ones is None else np.flatnonzero(_one_bits(n) == ones)
    z = 1 - 2 * ((states[:, None] >> np.arange(n)) & 1)  # site k is bit k - 1
    h = np.diag((z[:, :-1] * z[:, 1:]).sum(axis=1) * float(delta))
    for k in range(n - 1):
        rows = np.flatnonzero(z[:, k] != z[:, k + 1])
        h[rows, np.searchsorted(states, states[rows] ^ (3 << k))] = 2.0
    return h


def xxz_ground_vector(n: int, delta: float) -> np.ndarray:
    """Ground-state vector of the XXZ chain, from its blocks of k one-bits.

    The bit flip maps block k onto block n - k, so only k = 0 .. n // 2 are
    solved.  The lowest eigenvector of the block with the lowest ground
    energy is embedded; ties within DEGENERACY_GAP go to fewer one-bits, so
    odd chains at delta > -1 give the state with (n - 1) / 2 one-bits and
    delta < -1 gives |0...0>.  Warns when the two lowest of the pooled two
    lowest eigenvalues of the solved blocks lie within DEGENERACY_GAP: a
    degeneracy in a block or a tie between blocks (as at delta = -1), never
    the bit-flip partner alone.
    """
    check_count(n, "n", 2)
    lows, best = [], None
    for ones in range(n // 2 + 1):
        vals, vecs = eigh(xxz_dense_hamiltonian(n, delta, ones))
        lows.extend(vals[:2])
        if best is None or vals[0] < best[0] - DEGENERACY_GAP * max(1.0, abs(best[0])):
            best = (vals[0], ones, vecs[:, 0])
    e0, e1 = sorted(lows)[:2]
    if e1 - e0 < DEGENERACY_GAP * max(1.0, abs(e0)):
        msg = f"xxz ground state is degenerate (gap {e1 - e0:.3e}); taking {best[1]} one-bits"
        warnings.warn(msg, stacklevel=2)
    vec = np.zeros(2**n, dtype=complex)
    vec[_one_bits(n) == best[1]] = best[2]
    return vec


def xxz_ground(n: int, delta: float, max_bond: int | None = None) -> Mps:
    """Ground state of the open XXZ chain as a normalized MPS."""
    vec = xxz_ground_vector(n, delta)
    return normalize(from_state_vector(vec, max_bond=max_bond))
