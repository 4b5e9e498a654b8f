"""Independent reference computations for the test suite.

Every helper here recomputes a package quantity through a different route:
per-bitstring matrix products instead of transfer contractions, explicit
Kronecker products and scipy.linalg.expm instead of the Bell-basis
exponential, dense joint-space simulation instead of isometry assembly, and
generic nonlinear optimization instead of alternating sweeps.  Agreement
between the two routes is what the oracle tests assert.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (I2, SX, SY, SZ)
SPLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SMINUS = SPLUS.conj().T


def dense_from_mps(m) -> np.ndarray:
    """Dense vector of a closed MPS, one matrix product per bitstring.

    amplitude(i_n .. i_1) = phi_f^dag A^{i_n} .. A^{i_1} phi_i, with i_1 the
    least significant index bit.
    """
    out = np.zeros(2**m.n, dtype=complex)
    for idx in range(2**m.n):
        vec = m.phi_i
        for k in range(m.n):
            vec = m.tensors[k][(idx >> k) & 1] @ vec
        out[idx] = m.phi_f.conj() @ vec
    return out


def isometry_residual(m) -> float:
    """Largest deviation of sum_i A^{i dag} A^{i} from the identity over the sites of m."""
    worst = 0.0
    for t in m.tensors:
        stacked = t.reshape(2 * t.shape[1], t.shape[2])
        worst = max(worst, np.abs(stacked.conj().T @ stacked - np.eye(t.shape[2])).max())
    return worst


def dense_generator(model, params) -> np.ndarray:
    """Two-body generator from raw Kronecker products of Pauli matrices."""
    p = np.asarray(params, dtype=float).reshape(-1)
    if model.kind == "xy":
        return p[0] * (np.kron(SX, SX) + np.kron(SY, SY))
    if model.kind == "xxz":
        return p[0] * (np.kron(SX, SX) + np.kron(SY, SY)) + p[1] * np.kron(SZ, SZ)
    if model.kind == "ion_xy":
        return p[0] * (np.kron(SPLUS, SPLUS) + np.kron(SMINUS, SMINUS))
    if model.d_ancilla != 2:
        raise ValueError("dense_generator handles full_pauli only for d = 2")
    table = p.reshape(4, 4)
    h = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(4):
            h += table[j, k] * np.kron(PAULI[j], PAULI[k])
    return h


def dense_step_unitary(p, k: int) -> np.ndarray:
    """Step unitary rebuilt from explicit krons and scipy.linalg.expm."""
    i = k - 1
    d = p.model.d_ancilla
    if p.fixed_gate is not None:
        u = np.array(p.fixed_gate, dtype=complex)
    else:
        u = scipy.linalg.expm(-1j * dense_generator(p.model, p.couplings[i]))
    if p.local_qubit_post is not None:
        u = u @ np.kron(np.eye(d), p.local_qubit_post[i])
    if p.local_qubit_pre is not None:
        u = np.kron(np.eye(d), p.local_qubit_pre[i]) @ u
    if p.local_ancilla is not None:
        u = np.kron(p.local_ancilla[i], I2) @ u
    return u


def dense_joint_state(p) -> np.ndarray:
    """Joint (ancilla, qubits) state after all steps, shape (d, 2**n).

    The ancilla starts in phi_i; step k attaches qubit k in its init state
    and applies the full step unitary to the (ancilla, qubit k) pair.
    Column index runs over (i_n .. i_1) with i_1 least significant.
    """
    d = p.model.d_ancilla
    state = np.asarray(p.phi_i, dtype=complex).reshape(d, 1)
    for k in range(1, p.n + 1):
        u = dense_step_unitary(p, k)
        init = p.qubit_inits[k - 1]
        nq = state.shape[1]
        joint = np.einsum("ar,j->ajr", state, init).reshape(2 * d, nq)
        state = (u @ joint).reshape(d, 2 * nq)
    return state


def closed_amplitudes(p, phi_f) -> np.ndarray:
    """Amplitudes of the generated n-qubit state for a final ancilla phi_f."""
    return np.asarray(phi_f, dtype=complex).conj() @ dense_joint_state(p)


def best_fidelity_dense(p, target_dense) -> float:
    """max over phi_f of |<target | generated(phi_f)>|, computed densely."""
    v = dense_joint_state(p) @ np.asarray(target_dense, dtype=complex).conj()
    return float(np.linalg.norm(v))


def bond_profile(n: int, d_prime: int) -> list[int]:
    """Minimal bond dimensions for an n-site chain capped at d_prime."""
    return [min(d_prime, 2 ** min(k, n - k)) for k in range(n + 1)]


def dense_from_tensors(tensors) -> np.ndarray:
    """Dense vector from raw boundary-free site tensors (D_0 = D_n = 1)."""
    vec = np.ones(1, dtype=complex)
    width = 1
    for t in tensors:
        vec = np.einsum("iab,bw->aiw", t, vec.reshape(t.shape[2], width))
        width *= 2
        vec = vec.reshape(t.shape[1], width)
    return vec.reshape(-1)


def brute_force_fidelity(
    target_dense, d_prime: int, tries: int = 4, seed: int = 0, maxiter: int = 400
) -> float:
    """Best |<target|trial>| over bond-d_prime MPS via generic optimization.

    Parametrizes the raw site tensors with real and imaginary parts and runs
    L-BFGS-B on the negative normalized squared overlap from several seeded
    random starts.  No sweeping, no gauge fixing: a genuinely different
    optimizer on the same manifold.
    """
    target = np.asarray(target_dense, dtype=complex)
    n = int(np.log2(target.size))
    dims = bond_profile(n, d_prime)
    shapes = [(2, dims[k], dims[k - 1]) for k in range(1, n + 1)]
    sizes = [int(np.prod(s)) for s in shapes]
    total = sum(sizes)

    def unpack(x):
        z = x[:total] + 1j * x[total:]
        out, pos = [], 0
        for s, size in zip(shapes, sizes):
            out.append(z[pos : pos + size].reshape(s))
            pos += size
        return out

    def cost(x):
        psi = dense_from_tensors(unpack(x))
        nrm2 = float(np.vdot(psi, psi).real)
        if nrm2 < 1e-300:
            return 0.0
        return -abs(np.vdot(target, psi)) ** 2 / nrm2

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(tries):
        x0 = rng.standard_normal(2 * total)
        res = scipy.optimize.minimize(
            cost, x0, method="L-BFGS-B", options={"maxiter": maxiter}
        )
        best = max(best, np.sqrt(max(-res.fun, 0.0)))
    return best


def schmidt_values(psi, cut: int) -> np.ndarray:
    """Schmidt coefficients of a dense state across bond `cut`.

    cut = k splits qubits (1 .. k) from (k+1 .. n) in the chain ordering
    used by the MPS, i.e. the k least significant index bits.
    """
    psi = np.asarray(psi, dtype=complex)
    n = int(np.log2(psi.size))
    mat = psi.reshape(2 ** (n - cut), 2**cut)
    return np.linalg.svd(mat, compute_uv=False)


def pauli_log_couplings(u) -> np.ndarray:
    """Coupling table c (flattened 4x4) with expm(-i sum c_jk s_j x s_k) = u."""
    h = 1j * scipy.linalg.logm(np.asarray(u, dtype=complex))
    h = 0.5 * (h + h.conj().T)
    c = np.empty((4, 4))
    for j in range(4):
        for k in range(4):
            c[j, k] = np.trace(np.kron(PAULI[j], PAULI[k]) @ h).real / 4.0
    return c.reshape(-1)


def unitary_power(delta, beta: float) -> np.ndarray:
    """delta**beta for a unitary delta, through its complex Schur form (principal branch)."""
    t, z = scipy.linalg.schur(np.asarray(delta, dtype=complex), output="complex")
    return (z * np.exp(1j * beta * np.angle(np.diagonal(t)))) @ z.conj().T


def _complete_columns(cols: np.ndarray, positions: list[int], dim: int) -> np.ndarray:
    """Unitary whose listed columns are `cols`, completed via a null space."""
    u = np.zeros((dim, dim), dtype=complex)
    u[:, positions] = cols
    comp = scipy.linalg.null_space(cols.conj().T)
    rest = [c for c in range(dim) if c not in positions]
    u[:, rest] = comp[:, : len(rest)]
    return u


def exact_protocol_from_mps(target, seqmps):
    """full_pauli protocol generating a closed bond-<=2 MPS exactly.

    Embeds each site tensor of the (left-canonical) target into the j = 0
    columns of a 4x4 unitary, completes the remaining columns, and reads the
    couplings back off the principal logarithm.  The resulting protocol
    reaches fidelity 1 with all qubits initialized in |0>.
    """
    if target.open_final or isometry_residual(target) > 1e-10:
        raise ValueError("need a closed left-canonical target")
    if target.max_bond > 2:
        raise ValueError("ancilla dimension 2 caps the reachable bond at 2")
    n = target.n
    couplings = np.zeros((n, 16))
    for k in range(1, n + 1):
        t = target.tensors[k - 1]
        du, dl = t.shape[1], t.shape[2]
        block = np.zeros((4, dl), dtype=complex)
        block[: 2 * du] = t.transpose(1, 0, 2).reshape(2 * du, dl)
        u = _complete_columns(block, [2 * b for b in range(dl)], 4)
        couplings[k - 1] = pauli_log_couplings(u)
    phi_i = np.zeros(2, dtype=complex)
    phi_i[: target.phi_i.size] = target.phi_i
    inits = np.zeros((n, 2), dtype=complex)
    inits[:, 0] = 1.0
    return seqmps.Protocol(
        n=n,
        model=seqmps.GeneratorModel("full_pauli"),
        couplings=couplings,
        qubit_inits=inits,
        phi_i=phi_i,
    )


def dense_xxz_hamiltonian(n: int, delta: float) -> np.ndarray:
    """Open-chain XXZ Hamiltonian assembled bond by bond with np.kron."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        for op, weight in ((SX, 1.0), (SY, 1.0), (SZ, delta)):
            term = np.ones((1, 1), dtype=complex)
            for site in range(n):
                factor = op if site in (k, k + 1) else I2
                term = np.kron(factor, term)
            h += weight * term
    return h


def random_state(n: int, seed: int) -> np.ndarray:
    """Normalized dense random vector with a fixed seed."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return psi / np.linalg.norm(psi)
