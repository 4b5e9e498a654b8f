"""Sequential generation of multiqubit states and protocol optimization.

A protocol prepares n qubits by coupling each in turn to a D-level ancilla:
step k applies a unitary built as

    U_[k] = (U^A x 1) . (1 x U^{B_I}) . exp(-i Hbar(couplings_k)) . (1 x U^{B_F})

to ancilla x qubit_k, with the qubit starting in a fixed single-qubit state.
Sandwiching the step unitary with the qubit's initial state yields the step
isometry

    V^{i}_[k] [a, b] = sum_j  U_[k][(a, i), (b, j)] <j | init_k>

which is exactly a left-canonical MPS site tensor, so the joint state after
all n steps is an Mps whose final ancilla index stays open (phi_f = None).

Fidelity against a closed target is F = ||v|| where v is the ancilla vector
left over from contracting the target bra against the joint state; the
best final ancilla measurement/rotation is phi_f = v / ||v|| and the cost of
the protocol is 2 (1 - F), the squared distance between the joint state and
(best phi_f) x target.

The optimizer sweeps step by step.  Its free parameters form one record
keyed by Protocol field (Protocol._params), each key also a chain slot:
unitary stacks for local_ancilla (U^A x 1), local_qubit_pre (1 x U^{B_I}),
local_qubit_post (1 x U^{B_F}) and a full_pauli "core", or the couplings of
a Bell-diagonal core; absent locals and a fixed gate are left out.  One
builder, _chain, turns a record into every step's ordered factor chain
[(slot, 2d x 2d stack)], multiplied out from the right; site tensors, step
unitaries and the sweep state all come from it.  The factors are
updated one at a time against their environment (Evenbly & Vidal, PRB 79,
144108 (2009)).  The ancilla vector of a step is linear in its unitary,
v = K vec(U), and the map K (d x 4d^2) is built per step update from the two
environments, the target site and the qubit init; a step updated twice in a
row, where a walk turns, starts from the map and vector it ended with.
Folding the other factors into K gives the same kind of map for each factor.
With phi_f frozen at its current optimum the objective is Re(phi_f^dag v).
A unitary slot takes the Procrustes solution of its map contracted with
phi_f and partial-traced over the identity part of its factor (none for the
core: the full_pauli terms B_j x sigma_k span all Hermitian 2d x 2d
matrices, so the core ranges over all of U(2d)); re-eliminating phi_f
afterwards can only help, so every update weakly increases F (alternating
ascent).  Each Bell-diagonal coupling is solved exactly: v(theta) is a sum
of Bell eigenphases times fixed vectors, so |v|^2 is a trigonometric
polynomial with harmonics {0, 1, 2} over the coupling period whose
coefficients are sums of entries of their Gram matrix.  The full_pauli
couplings are read off the core's principal logarithm once, at the end.
After every full sweep a safeguarded geodesic extrapolation (kept only when
it lowers the cost) jumps along the slow near-linear mode that plain
coordinate sweeps crawl down; it takes integer powers of each unitary slot's
last move by projected squaring, with no eigendecomposition, and scores
every baseline's first candidate in one stack.

Restarts sweep in two lockstep batches along a leading restart axis, which
every step kernel lets ride along; each row computes the bits it computes
alone.  A batch's _SweepState owns everything that follows its rows: the
parameters, chains, sites, environments and extrapolation snapshots.  The
batches, their random starts and when a row leaves one are described at
optimize.
"""

from __future__ import annotations

import cmath
import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .config import OptimizationConfig, check_count, non_increasing, stalled
from .errors import InvalidInputError, NumericalFailureError
from .linalg import (
    SIGMA,
    _as_hermitian,
    _phase_fixed_qr,
    expm_hermitian,
    logm_unitary,
    procrustes_unitary,
)
from .mps import Mps, _fold_up, _require_normalized, _transfer_down, _transfer_up
from .serialize import SCHEMA, complex_to_pairs, load_document, pairs_to_complex
from .tolerances import (
    ARGMAX_CURVATURE_ATOL,
    FIDELITY_CLAMP,
    FIDELITY_SLACK,
    GATE_UNITARITY_ATOL,
    LOCAL_UNITARITY_ATOL,
    SEQGEN_MAX_SWEEPS,
    SEQGEN_RESTARTS,
    SEQGEN_TOL,
    STATE_NORM_ATOL,
    ZERO_NORM,
)

# Common eigenbasis (Bell basis) of the three restricted generators.  Columns:
# (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ]
) / np.sqrt(2.0)
_LAMBDA_XY = np.array([0.0, 0.0, 2.0, -2.0])   # sigma1 sigma1 + sigma2 sigma2
_LAMBDA_ZZ = np.array([1.0, 1.0, -1.0, -1.0])  # sigma3 sigma3
_LAMBDA_ION = np.array([1.0, -1.0, 0.0, 0.0])  # sigma+ sigma+ + sigma- sigma-

# Bell-diagonal kinds: (coupling period, one row of Bell eigenvalues per
# coupling), so Hbar = B diag(sum_m couplings[m] * rows[m]) B^T.  Spectra
# {0, +-2} and {+-1} make xy/xxz pi-periodic up to a global phase; ion_xy's
# {0, 0, +-1} is phase-periodic only over the full 2 pi.
_BELL_KINDS = {
    "xy": (np.pi, np.array([_LAMBDA_XY])),
    "xxz": (np.pi, np.array([_LAMBDA_XY, _LAMBDA_ZZ])),
    "ion_xy": (2.0 * np.pi, np.array([_LAMBDA_ION])),
}
MODEL_KINDS = (*_BELL_KINDS, "full_pauli")

# Protocol fields of the local unitary stacks, in draw order.
_LOCALS = ("local_ancilla", "local_qubit_pre", "local_qubit_post")

# CNOT with the ancilla as control and the qubit as target (basis |a, q>).
CNOT = np.kron(np.diag([1.0, 0.0]), SIGMA[0]) + np.kron(np.diag([0.0, 1.0]), SIGMA[1])


def ancilla_operator_basis(d: int) -> list[np.ndarray]:
    """Hermitian operator basis for a d-level ancilla.

    For d = 2 this is exactly (sigma0..sigma3); for larger d it is the
    identity plus the generalized Gell-Mann matrices.
    """
    basis = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            basis.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -float(l)
        basis.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
    return basis


@functools.cache
def _full_pauli_terms(d: int) -> np.ndarray:
    """Read-only (d^2, 4, 2d, 2d) stack of the full_pauli terms B_j x sigma_k."""
    terms = np.array([[np.kron(b, sig) for sig in SIGMA] for b in ancilla_operator_basis(d)])
    terms.flags.writeable = False
    return terms


def pauli_coefficients(h) -> np.ndarray:
    """Expand a Hermitian 2d x 2d matrix in the full_pauli basis B_j x sigma_k.

    Returns the real (d^2, 4) coefficient table c with
    h = sum_{j,k} c[j, k] B_j x sigma_k (B_j from ancilla_operator_basis), so
    it inverts GeneratorModel("full_pauli", d).generator; at d = 2 the table
    is over sigma_j x sigma_k.  h must be finite and Hermitian, as for eigh.
    """
    h = _as_hermitian(h, "h")
    if h.shape[0] % 2 or h.shape[0] < 4:
        raise InvalidInputError(
            f"pauli_coefficients expects a 2d x 2d matrix with d >= 2, got shape {h.shape}"
        )
    terms = _full_pauli_terms(h.shape[0] // 2)
    terms = terms.reshape(*terms.shape[:2], -1)
    # The terms are orthogonal, so c = <T, h> / <T, T> in the Frobenius product.
    return (terms.conj() @ h.ravel()).real / (np.abs(terms) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class GeneratorModel:
    """Family of two-body entangling generators Hbar(couplings).

    kind "xy":      hbar1 (s1 x s1 + s2 x s2)                (1 coupling)
    kind "xxz":     xy + hbar2 (s3 x s3)                     (2 couplings)
    kind "ion_xy":  hbar1 (s+ x s+ + s- x s-)                (1 coupling)
    kind "full_pauli": sum_{jk} hbar_jk  B_j x sigma_k        (4 d^2 couplings)

    The first factor acts on the ancilla.  d_ancilla must be 2 except for
    full_pauli.  Couplings absorb the interaction time (hbar = h * t).
    """

    kind: str
    d_ancilla: int = 2

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.kind!r}")
        check_count(self.d_ancilla, "d_ancilla", 2)
        if self.d_ancilla != 2 and self.kind in _BELL_KINDS:
            raise InvalidInputError(f"kind {self.kind!r} requires d_ancilla = 2")

    @property
    def param_count(self) -> int:
        if self.kind in _BELL_KINDS:
            return len(_BELL_KINDS[self.kind][1])
        return 4 * self.d_ancilla**2

    def coupling_interval(self) -> tuple[float, float]:
        """Box of a single coupling.

        One exact phase period for the Bell-diagonal kinds (see _BELL_KINDS).
        full_pauli has no exact period; its symmetric box only seeds the
        couplings of random restarts.
        """
        if self.kind in _BELL_KINDS:
            return (0.0, _BELL_KINDS[self.kind][0])
        return (-np.pi, np.pi)

    def _params(self, params) -> np.ndarray:
        """Checked couplings; a Bell-diagonal kind keeps leading axes, a stack p[..., m]."""
        p = np.asarray(params, dtype=float)
        if p.ndim == 0 or self.kind not in _BELL_KINDS:
            p = p.reshape(-1)
        if p.shape[-1] != self.param_count:
            raise InvalidInputError(
                f"{self.kind} takes {self.param_count} couplings, got {p.shape[-1]}"
            )
        if not np.isfinite(p).all():
            raise InvalidInputError("couplings must be finite")
        return p

    def _bell_eigenvalues(self, p: np.ndarray) -> np.ndarray:
        # sum_m p[..., m] * rows[m], accumulated in row order.
        return (p[..., :, None] * _BELL_KINDS[self.kind][1]).sum(axis=-2)

    def generator(self, params) -> np.ndarray:
        """Hermitian Hbar(params) on ancilla x qubit."""
        p = self._params(params)
        if self.kind in _BELL_KINDS:
            return (_BELL * self._bell_eigenvalues(p)).astype(complex) @ _BELL.T
        terms = _full_pauli_terms(self.d_ancilla)
        h = np.zeros(terms.shape[2:], dtype=complex)
        table = p.reshape(terms.shape[:2])
        for j, k in zip(*np.nonzero(table)):
            h += table[j, k] * terms[j, k]
        return h

    def entangler(self, params) -> np.ndarray:
        """Unitary exp(-i Hbar(params)).

        The Bell-diagonal kinds exponentiate their eigenvalues in the shared
        Bell basis, and take a stack of coupling rows params[..., m] too;
        full_pauli goes through a fresh eigendecomposition.
        """
        p = self._params(params)
        if self.kind not in _BELL_KINDS:
            return expm_hermitian(self.generator(p))
        return (_BELL * np.exp(-1j * self._bell_eigenvalues(p))[..., None, :]) @ _BELL.T


def build_step_unitary(
    model: GeneratorModel,
    params=None,
    ua=None,
    ub_pre=None,
    ub_post=None,
    fixed_gate=None,
) -> np.ndarray:
    """Assemble one step unitary (U^A x 1)(1 x U^{B_I}) C (1 x U^{B_F}).

    C is exp(-i Hbar(params)) or, when fixed_gate is given, that gate
    verbatim (params are then ignored and may be None).  Omitted local
    factors are identities.  The factors are checked as a one-step Protocol
    checks them, so the result is unitary.
    """
    stack = lambda u: None if u is None else np.asarray(u)[None]
    couplings = None if fixed_gate is not None or params is None else np.reshape(params, (1, -1))
    p = Protocol(1, model, couplings, [[1.0, 0.0]], _basis_vec(model.d_ancilla),
                 stack(ua), stack(ub_pre), stack(ub_post), fixed_gate)
    return _product(_chain(p, p._params, (1,)))[0]


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """Read-only real dim x dim identity."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _embed(slot: str, factor: np.ndarray, d: int) -> np.ndarray:
    """A slot's unitary on ancilla x qubit: kron(U^A, 1), the core itself, or kron(1, U^B)."""
    if slot == "core":
        return factor
    a, b = (factor, _identity(2)) if slot == "local_ancilla" else (_identity(d), factor)
    kron = a[..., :, None, :, None] * b[..., None, :, None, :]
    return kron.reshape(*factor.shape[:-2], 2 * d, 2 * d)


def _chain(p: Protocol, params: dict, lead: tuple) -> list:
    """Every step's factor chain [(slot, stack)] of protocol p with free parameters params.

    The one builder of steps: each factor is a (*lead, 2d, 2d) stack, with
    lead (n,) for one protocol or (n, R) for a batch of R restarts, and the
    step unitaries are the chain multiplied out (_product).  The core is
    params["core"] itself, the entangler of params["couplings"], or p's fixed
    gate broadcast to lead; absent locals are left out.
    """
    if "core" in params:
        core = params["core"]
    elif "couplings" in params:
        core = p.model.entangler(params["couplings"])
    else:
        core = np.broadcast_to(p.fixed_gate, (*lead, *p.fixed_gate.shape))
    factors = {**params, "core": core}
    order = ("local_ancilla", "local_qubit_pre", "core", "local_qubit_post")
    return [(slot, _embed(slot, factors[slot], p.model.d_ancilla)) for slot in order if slot in factors]


def _sites(p: Protocol, chain: list) -> list:
    """Site tensors of every step of protocol p from its factor chain (see _chain)."""
    return [_step_isometry(u, init, p.model.d_ancilla) for u, init in zip(_product(chain), p.qubit_inits)]


def _product(chain: list, right=None):
    """Multiply a factor chain out, accumulating from the right: ua (pre (C post)).

    right, if given, is the product of the factors after the chain.
    """
    u = right
    for _, f in reversed(chain):
        u = f if u is None else f @ u
    return u


def _factor_map(chain: list, j: int, kmat: np.ndarray, right=None) -> np.ndarray:
    """The step map with the factors L before and R after F = chain[j] folded in.

    kmat[g] . vec(L F R) = (L^T kmat[g] R^T) . vec(F), so v = out @ F.ravel();
    right is R multiplied out, when the caller has it.
    """
    dim = chain[j][1].shape[-1]
    out = kmat.reshape(*kmat.shape[:-1], dim, dim)
    if j > 0:
        out = _product(chain[:j]).swapaxes(-1, -2)[..., None, :, :] @ out
    right = _product(chain[j + 1 :]) if right is None else right
    if right is not None:
        out = out @ right.swapaxes(-1, -2)[..., None, :, :]
    return out.reshape(*out.shape[:-2], -1)


def _step_isometry(step_u: np.ndarray, init: np.ndarray, d: int) -> np.ndarray:
    """Contract the qubit init into a step unitary: (2, d, d) site tensor."""
    lead = step_u.shape[:-2]
    return (step_u.reshape(*lead, 2 * d * d, 2) @ init).reshape(*lead, d, 2, d).swapaxes(-3, -2)


def _step_map(l_env, bra, t_env, init) -> np.ndarray:
    """Linear map K (d x 4d^2) of one step, v(U) = K @ U.ravel() for U[(a i), (b j)]:

    K[g, (a i b j)] = sum_c t_env[g, a, c] bt[i, b, c] init[j], bt[i] = l_env @ bra^i^dag.
    """
    d = l_env.shape[-2]
    bt = l_env[..., None, :, :] @ bra.conj().swapaxes(-1, -2)
    tb = t_env.reshape(*t_env.shape[:-3], d * d, -1) @ bt.reshape(*bt.shape[:-3], 2 * d, -1).swapaxes(-1, -2)
    return (tb[..., None] * init).reshape(*tb.shape[:-2], d, -1)


def _ancilla_vector(kmat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """v = kmat @ vec(u), per leading index."""
    return (kmat @ u.reshape(*u.shape[:-2], -1, 1))[..., 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """||v|| along the last axis, summed as np.linalg.norm sums a single vector (two real dots)."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _frozen_env(kmat: np.ndarray, v: np.ndarray, fnorm: np.ndarray) -> np.ndarray:
    """Environment of U with phi_f frozen at v / fnorm: Re tr(U @ env) = Re(phi^dag kmat vec(U))."""
    d = v.shape[-1]
    ok = fnorm > ZERO_NORM
    if ok.all():
        phi = v / fnorm[..., None]
    else:  # a zero vector freezes phi_f at the first basis vector
        phi = np.where(ok[..., None], v, _basis_vec(d)) / np.where(ok, fnorm, 1.0)[..., None]
    return (phi.conj()[..., None, :] @ kmat).reshape(*v.shape[:-1], 2 * d, -1).swapaxes(-1, -2)


def _check_unit(vec, name: str, length: int) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.shape[0] != length:
        raise InvalidInputError(f"{name} must have length {length}")
    if not np.isfinite(v).all() or abs(np.linalg.norm(v) - 1.0) > STATE_NORM_ATOL:
        raise InvalidInputError(f"{name} must be finite and normalized")
    return v


def _check_unitary(a, name: str, shape: tuple, atol: float) -> np.ndarray:
    """a as a complex array of the given shape whose matrices are unitary within atol."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(shape[-1])).max() > atol:
        raise InvalidInputError(f"{name} is not unitary within {atol:g}")
    return a


@dataclass(frozen=True)
class Protocol:
    """A complete sequential-generation recipe.

    couplings has one row of model parameters per step (None only with a
    fixed_gate).  Local unitary families are optional: None means "absent and
    not optimized", an (n, dim, dim) stack means "present".  qubit_inits are
    the per-step initial qubit states, phi_i the initial ancilla state.
    """

    n: int
    model: GeneratorModel
    couplings: np.ndarray | None
    qubit_inits: np.ndarray
    phi_i: np.ndarray
    local_ancilla: np.ndarray | None = None
    local_qubit_pre: np.ndarray | None = None
    local_qubit_post: np.ndarray | None = None
    fixed_gate: np.ndarray | None = None

    def __post_init__(self):
        check_count(self.n, "n", 1)
        d = self.model.d_ancilla
        if self.fixed_gate is None:
            if self.couplings is None:
                raise InvalidInputError("couplings required without a fixed_gate")
            c = np.asarray(self.couplings, dtype=float)
            if c.shape != (self.n, self.model.param_count):
                raise InvalidInputError(
                    f"couplings must have shape ({self.n}, {self.model.param_count})"
                )
            if not np.isfinite(c).all():
                raise InvalidInputError("couplings must be finite")
            object.__setattr__(self, "couplings", c)
        else:
            gate = _check_unitary(self.fixed_gate, "fixed_gate", (2 * d,) * 2, GATE_UNITARITY_ATOL)
            object.__setattr__(self, "fixed_gate", gate)
            if self.couplings is not None:
                raise InvalidInputError("couplings and fixed_gate are exclusive")
        inits = np.asarray(self.qubit_inits, dtype=complex)
        if inits.shape != (self.n, 2):
            raise InvalidInputError(f"qubit_inits must have shape ({self.n}, 2)")
        for k in range(self.n):
            _check_unit(inits[k], f"qubit_inits[{k}]", 2)
        object.__setattr__(self, "qubit_inits", inits)
        object.__setattr__(self, "phi_i", _check_unit(self.phi_i, "phi_i", d))
        for name, dim in zip(_LOCALS, (d, 2, 2)):
            stack = getattr(self, name)
            if stack is not None:
                stack = _check_unitary(stack, name, (self.n, dim, dim), LOCAL_UNITARITY_ATOL)
                object.__setattr__(self, name, stack)

    @property
    def _params(self) -> dict:
        """Free parameters by field: present local stacks, and the couplings unless the gate is fixed.

        A full_pauli protocol gives its core unitaries instead, one entangler call per row.
        """
        params = {name: getattr(self, name) for name in _LOCALS}
        if self.model.kind in _BELL_KINDS:
            params["couplings"] = self.couplings
        elif self.couplings is not None:
            params["core"] = np.array([self.model.entangler(c) for c in self.couplings])
        return {key: a for key, a in params.items() if a is not None}

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "n": self.n,
            "model": {"kind": self.model.kind, "d_ancilla": self.model.d_ancilla},
            "couplings": None if self.couplings is None else self.couplings.tolist(),
            "qubit_inits": complex_to_pairs(self.qubit_inits),
            "phi_i": complex_to_pairs(self.phi_i),
            **{key: complex_to_pairs(getattr(self, key)) for key in (*_LOCALS, "fixed_gate")},
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Protocol":
        def build(doc):
            return Protocol(
                n=doc["n"],
                model=GeneratorModel(doc["model"]["kind"], doc["model"]["d_ancilla"]),
                couplings=None if doc["couplings"] is None else np.asarray(doc["couplings"]),
                qubit_inits=pairs_to_complex(doc["qubit_inits"]),
                phi_i=pairs_to_complex(doc["phi_i"]),
                **{key: pairs_to_complex(doc[key]) for key in (*_LOCALS, "fixed_gate")},
            )

        return load_document(text, build)


def make_protocol(
    model: GeneratorModel,
    n: int,
    qubit_inits=None,
    phi_i=None,
    with_ancilla: bool = False,
    with_qubit_pre: bool = False,
    with_qubit_post: bool = False,
    fixed_gate=None,
) -> Protocol:
    """Identity-initialized protocol: zero couplings, identity locals.

    qubit_inits defaults to all |0>, phi_i to the ancilla |0>.  Enabled local
    families start as identities so the initial protocol is a deterministic,
    well-defined starting point for optimization.
    """
    check_count(n, "n", 1)
    d = model.d_ancilla
    if qubit_inits is None:
        qubit_inits = np.tile(_basis_vec(2), (n, 1))
    if phi_i is None:
        phi_i = _basis_vec(d)
    eye_stack = lambda dim: np.broadcast_to(np.eye(dim, dtype=complex), (n, dim, dim)).copy()
    return Protocol(
        n=n,
        model=model,
        couplings=None if fixed_gate is not None else np.zeros((n, model.param_count)),
        qubit_inits=qubit_inits,
        phi_i=phi_i,
        local_ancilla=eye_stack(d) if with_ancilla else None,
        local_qubit_pre=eye_stack(2) if with_qubit_pre else None,
        local_qubit_post=eye_stack(2) if with_qubit_post else None,
        fixed_gate=fixed_gate,
    )


def simulate(p: Protocol) -> Mps:
    """Joint ancilla+qubits state after all steps, as an open-boundary MPS.

    The site tensors are the step isometries, phi_i is the protocol's initial
    ancilla state, and the final ancilla index is left open (phi_f = None);
    the joint state always has norm 1.
    """
    return Mps(_sites(p, _chain(p, p._params, (p.n,))), p.phi_i, None)


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of a fidelity evaluation or protocol optimization.

    fidelity = ||v|| for the leftover ancilla vector v, phi_f_optimal =
    v / ||v||, and the derived cost = 2 (1 - F).  history holds per-update
    cost values of the winning run (non-increasing within MONOTONE_SLACK);
    sweeps counts its full sweeps.
    """

    fidelity: float
    phi_f_optimal: np.ndarray
    history: list[float] = field(default_factory=list)
    sweeps: int = 0
    converged: bool = True
    restarts_used: int = 0

    def __post_init__(self):
        if not -FIDELITY_SLACK <= self.fidelity <= FIDELITY_CLAMP:
            raise InvalidInputError(f"fidelity {self.fidelity} outside [0, 1]")
        if not non_increasing(self.history):
            raise InvalidInputError("history is not non-increasing")

    @property
    def cost(self) -> float:
        return 2.0 * (1.0 - self.fidelity)

    @property
    def one_minus_f(self) -> float:
        return 1.0 - self.fidelity

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "fidelity": self.fidelity,
            "cost": self.cost,
            "one_minus_f": self.one_minus_f,
            "phi_f_optimal": complex_to_pairs(self.phi_f_optimal),
            "sweeps": self.sweeps,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
            "history_length": len(self.history),
        }


def fidelity_vector(p: Protocol, target: Mps) -> np.ndarray:
    """Leftover ancilla vector v with v[a] = <target| (joint state, ancilla a)>."""
    if target.n != p.n:
        raise InvalidInputError(f"target has {target.n} sites, protocol has {p.n}")
    if target.open_final:
        raise InvalidInputError("target must be a closed MPS")
    left = np.outer(p.phi_i, target.phi_i.conj())
    return _fold_up(left, _sites(p, _chain(p, p._params, (p.n,))), target.tensors) @ target.phi_f


def fidelity(p: Protocol, target: Mps) -> FidelityReport:
    """Fidelity of a protocol against a closed, normalized target MPS."""
    _require_normalized(target, "target")
    return _report(fidelity_vector(p, target), p.model.d_ancilla)


def _report(v: np.ndarray, d: int, history=None, **fields) -> FidelityReport:
    """Report of the leftover ancilla vector v; history defaults to its one cost."""
    f = min(float(np.linalg.norm(v)), FIDELITY_CLAMP)
    phi_f = v / f if f > ZERO_NORM else _basis_vec(d)
    history = [2.0 * (1.0 - f)] if history is None else history
    return FidelityReport(fidelity=f, phi_f_optimal=phi_f, history=history, **fields)


def _basis_vec(d: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[0] = 1.0
    return e


class _SweepState:
    """Working copies of a batch of restarts, stacked along a restart axis.

    The state owns everything that follows its rows.  params are stacked
    step first, (n, R, ...), read once from each start's record; chain is
    every step's factor chain (_chain with lead (n, R)), v_sites one
    (R, 2, d, d) site stack per step and history one cost history per row.
    lefts[k] folds steps [0, k) and tails[k] steps (k, n) (see _sweep_once);
    their seeds lefts[0] and tails[-1] are built once and never move.  snaps
    are the parameters at the start of recent sweeps (_extrapolate_sweep).
    kept holds the last update's step map, product and vector, which a walk
    turning on that step reuses; rechain clears it.  Row j runs restart
    rows[j] of its wave; start gives the shared structure.
    """

    def __init__(self, start: Protocol, params: dict, size: int, target: Mps):
        p = self.start = start
        self.d = p.model.d_ancilla
        self.rows = np.arange(size)
        self.params = params
        self.at, self.at_phi_f = target.tensors, target.phi_f
        tail = np.zeros((self.d, self.d, self.at_phi_f.shape[0]), dtype=complex)
        tail[np.arange(self.d), np.arange(self.d), :] = self.at_phi_f[None, :]
        self.lefts = [np.outer(p.phi_i, target.phi_i.conj())] + [None] * (p.n - 1)
        self.tails = [None] * (p.n - 1) + [tail]
        self.snaps = []
        self.rechain()
        self.history = [[cost] for cost in self.cost(self.v_sites).tolist()]

    def cost(self, sites: list) -> np.ndarray:
        """2 (1 - F) of the given site stacks, per row."""
        v = _fold_up(self.lefts[0], sites, self.at) @ self.at_phi_f
        return 2.0 * (1.0 - np.minimum(_norm(v), FIDELITY_CLAMP))

    def costs(self) -> np.ndarray:
        """Each row's latest cost."""
        return np.array([h[-1] for h in self.history])

    def rechain(self, sites=None) -> None:
        """Rebuild the chain from params, take sites (by default the chain's own) and refold the tails."""
        self.chain = _chain(self.start, self.params, (self.start.n, len(self.rows)))
        self.v_sites = _sites(self.start, self.chain) if sites is None else sites
        self.kept = {}
        for k in range(self.start.n - 1, 0, -1):
            self.tails[k - 1] = _transfer_down(self.tails[k], self.v_sites[k][:, None], self.at[k])

    def keep(self, keep: np.ndarray) -> None:
        """Drop the rows where keep is False, from the snapshots too."""
        self.rows = self.rows[keep]
        self.params = {key: a[:, keep] for key, a in self.params.items()}
        self.snaps = [{key: a[:, keep] for key, a in snap.items()} for snap in self.snaps]
        self.history = [h for h, kept in zip(self.history, keep) if kept]
        self.rechain([site[keep] for site in self.v_sites])


def _to_protocol(p: Protocol, params: dict) -> Protocol:
    """Protocol p with the free parameters of one run."""
    couplings = params.get("couplings")
    if "core" in params:
        couplings = np.array([_log_couplings(u) for u in params["core"]])
    return replace(p, couplings=couplings, **{name: params.get(name) for name in _LOCALS})


_PHASE_GRID = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
_GRID_PHASES = (np.exp(1j * _PHASE_GRID), np.exp(2j * _PHASE_GRID))


def _harmonic_sum(coef, e1, e2):
    """c0 + 2 Re(c1 e1) + 2 Re(c2 e2) for coef = (c0, c1, c2), with e1 = e^{i ph} and e2 = e^{2i ph}."""
    c0, c1, c2 = coef
    return c0.real + 2.0 * (c1 * e1).real + 2.0 * (c2 * e2).real


def _coupling_argmax(coef, period: float, old) -> np.ndarray:
    """Exact maximizer of a coupling's squared overlap over one period, per element of coef.

    |v|^2 = _harmonic_sum(coef, 2 pi theta / period), with coef from the Gram
    matrix of _coupling_harmonics; a 128-point grid brackets the maximum of
    every element at once, and Newton steps refine each in Python scalar
    arithmetic, which costs less than numpy calls on a few elements.  An
    element keeps its old coupling where the maximizer's |v|^2 would be
    lower, so no cost rises.
    """
    c0, c1, c2 = (np.asarray(c) for c in coef)
    grid = _harmonic_sum((c0[..., None], c1[..., None], c2[..., None]), *_GRID_PHASES)
    start = _PHASE_GRID[np.argmax(grid, axis=-1)]
    phase = lambda t: 2.0 * np.pi * t / period
    overlap2 = lambda a, t: _harmonic_sum(a, cmath.exp(1j * phase(t)), cmath.exp(2j * phase(t)))
    out = []
    rows = zip(start.ravel().tolist(), np.ravel(old).tolist(), *(c.ravel().tolist() for c in (c0, c1, c2)))
    for ph, theta, *a in rows:
        for _ in range(4):
            e1 = a[1] * cmath.exp(1j * ph)
            e2 = a[2] * cmath.exp(2j * ph)
            d1 = -2.0 * e1.imag - 4.0 * e2.imag
            d2 = -2.0 * e1.real - 8.0 * e2.real
            if d2 >= -ARGMAX_CURVATURE_ATOL:
                break
            ph -= d1 / d2
        cand = ph % (2.0 * np.pi) * period / (2.0 * np.pi)
        out.append(cand if overlap2(a, cand) >= overlap2(a, theta) else theta)
    return np.reshape(out, start.shape)


# (kind, m) -> masks of coupling m's Gram entries in harmonic h = 0, 1, 2 (T: period).
_HARM_MASKS = {(kind, m): tuple(np.rint(np.subtract.outer(r, r) * T / (2.0 * np.pi)) == h for h in range(3))
               for kind, (T, rows) in _BELL_KINDS.items() for m, r in enumerate(rows)}


def _coupling_harmonics(model: GeneratorModel, params: np.ndarray, m: int, kcore: np.ndarray):
    """Harmonics (c0, c1, c2) of |kcore @ C.ravel()|^2 over coupling m of a Bell-diagonal core C.

    C = sum_k exp(-i (base_k + theta row_k)) b_k b_k^T over the Bell vectors,
    so v = sum_k exp(-i theta row_k) u_k, u_k = exp(-i base_k) kcore @ vec(b_k b_k^T),
    and c_h sums the Gram entries u_k^dag u_l with (row_k - row_l) period / (2 pi) = h.
    """
    others = params.copy()
    others[..., m] = 0.0
    w = (_BELL * (kcore.reshape(*kcore.shape[:-1], 4, 4) @ _BELL)).sum(axis=-2)
    u = w * np.exp(-1j * model._bell_eigenvalues(others))[..., None, :]
    gram = u.conj().swapaxes(-1, -2) @ u
    # A masked stack comes out transposed; in C order each row sums as it would alone.
    return tuple(np.ascontiguousarray(gram[..., mask]).sum(axis=-1) for mask in _HARM_MASKS[model.kind, m])


def _sweep_once(st: _SweepState, up: bool) -> None:
    """One half-sweep of every row (all steps, ascending or descending).

    A walk reads the environments ahead of it, st.tails going up and st.lefts
    going down, as the last walk or rechain left them, and refolds those
    behind it after each update, so every kept entry equals a fresh fold of
    the current sites, bit for bit.
    """
    order = range(st.start.n) if up else range(st.start.n - 1, -1, -1)
    for k in order:
        _update_step(st, k)
        if k == order[-1]:
            break
        if up:
            st.lefts[k + 1] = _transfer_up(st.lefts[k], st.v_sites[k], st.at[k])
        else:
            st.tails[k - 1] = _transfer_down(st.tails[k], st.v_sites[k][:, None], st.at[k])


def _update_step(st: _SweepState, i: int) -> None:
    """Optimize the free factors of step i (0-based) in chain order against its kept environments.

    Each update is a closed-form ascent step, so every row's cost history
    stays non-increasing: each Bell coupling in turn takes its exact argmax
    (or keeps its value), and every unitary slot, the full_pauli core
    included, the Procrustes solution of its partial-traced environment with
    phi_f frozen.  A fixed gate is left alone.  Every evaluation goes through
    the step map, built once.  Moved factors are written into st.chain in
    place.
    """
    p = st.start
    chain = [(slot, f[i]) for slot, f in st.chain]
    # rights[j] is chain[j + 1:] multiplied out; the factors right of j move
    # only after j does, so each serves slot j's map and its new product.
    rights = [None] * len(chain)
    for j in range(len(chain) - 2, -1, -1):
        rights[j] = _product(chain[j + 1 : j + 2], rights[j + 1])
    if i not in st.kept:  # else a walk turns on step i: same environments and chain, nested alike
        kmat = _step_map(st.lefts[i], st.at[i], st.tails[i], p.qubit_inits[i])
        u = _product(chain[:1], rights[0])
        v = _ancilla_vector(kmat, u)
        st.kept = {i: (kmat, u, v, _norm(v))}
    kmat, u, v, fnorm = st.kept[i]
    for j, (slot, _) in enumerate(chain):
        if slot == "core" and p.fixed_gate is not None:
            continue
        kf = _factor_map(chain, j, kmat, rights[j])
        if slot == "core" and "couplings" in st.params:
            c, period = st.params["couplings"][i], _BELL_KINDS[p.model.kind][0]
            for m in range(p.model.param_count):
                c[:, m] = _coupling_argmax(_coupling_harmonics(p.model, c, m, kf), period, c[:, m])
            chain[j][1][...] = p.model.entangler(c)
        else:
            env = _frozen_env(kf, v, fnorm)
            if slot != "core":
                # Trace out the identity part of the factor: the qubit of
                # U^A x 1, the ancilla of 1 x U^B.
                axes = (-3, -1) if slot == "local_ancilla" else (-4, -2)
                env = env.reshape(*env.shape[:-2], st.d, 2, st.d, 2).trace(axis1=axes[0], axis2=axes[1])
            factor = procrustes_unitary(env)
            st.params[slot][i] = factor
            chain[j][1][...] = _embed(slot, factor, st.d)
        u = _product(chain[: j + 1], rights[j])
        v = _ancilla_vector(kmat, u)
        fnorm = _norm(v)
        for h, f in zip(st.history, fnorm.tolist()):
            h.append(2.0 * (1.0 - min(f, FIDELITY_CLAMP)))
    st.kept = {i: (kmat, u, v, fnorm)}
    st.v_sites[i] = _step_isometry(u, p.qubit_inits[i], st.d)


def _log_couplings(u: np.ndarray) -> np.ndarray:
    """full_pauli couplings c with entangler(c) = u, from the principal logarithm of unitary u."""
    return pauli_coefficients(logm_unitary(u)).ravel()


def _projected_square(u: np.ndarray) -> np.ndarray:
    """Polar factor of u @ u (procrustes_unitary of its adjoint) for a unitary stack u."""
    return procrustes_unitary((u @ u).conj().swapaxes(-1, -2))


_EXTRAP_BETAS = tuple(2.0**k for k in range(9))  # 1, 2, 4, ..., 256
_EXTRAP_MEMORY = 9


def _extrapolate_sweep(st: _SweepState) -> np.ndarray:
    """Safeguarded extrapolation through recent parameter moves; returns the rows that took one.

    Tries cur + beta * (cur - base) for doubling beta from two secant
    baselines, the start of this sweep and the oldest of st.snaps (the longer
    one averages out the sweep-to-sweep zigzag and points down the slow
    valley), up to the first candidate that does not lower the cost, so the
    history stays non-increasing; a mask ends each row's loop on its own.
    Every unitary slot moves along its geodesic, c delta^beta with
    delta = base^dag c: beta is an integer, so delta is squared once per
    doubling and projected back onto the unitary group (off it, roundoff
    makes a cost read low).  Bell couplings move linearly, across their
    period.  Candidates are scored from their own sites, every base's
    beta = 1 candidate in one stack of rows; each row ends with its best
    candidate, if any, and the state rechains.  It is copied only when some
    rows, but not all, take one.
    """
    cur, snaps, size = st.params, st.snaps, len(st.rows)

    def candidate(powers, base, beta):
        cand = {k: cur[k] @ p for k, p in powers.items()}
        if "couplings" in cur:
            lo, hi = st.start.model.coupling_interval()
            width = hi - lo
            step = (cur["couplings"] - base["couplings"] + width / 2.0) % width - width / 2.0
            cand["couplings"] = lo + (cur["couplings"] + beta * step - lo) % width
        return cand
    bases = (snaps[-1],) if len(snaps) == 1 else (snaps[-1], snaps[0])
    moves = [{k: b[k].conj().swapaxes(-1, -2) @ c for k, c in cur.items() if k != "couplings"} for b in bases]
    firsts = [candidate(powers, base, 1.0) for powers, base in zip(moves, bases)]
    stacked = {k: np.concatenate([cand[k] for cand in firsts], axis=1) for k in cur}
    first_sites = _sites(st.start, _chain(st.start, stacked, (st.start.n, len(bases) * size)))
    first_costs = st.cost(first_sites)
    best = st.costs()
    taken = np.zeros(best.shape, dtype=bool)
    new_params, new_sites = cur, st.v_sites
    for b, (powers, base, cand) in enumerate(zip(moves, bases, firsts)):
        going = np.ones(best.shape, dtype=bool)
        for beta in _EXTRAP_BETAS:
            if beta > 1.0:
                powers = {k: _projected_square(p) for k, p in powers.items()}
                cand = candidate(powers, base, beta)
                sites = _sites(st.start, _chain(st.start, cand, (st.start.n, size)))
                trial = st.cost(sites)
            else:
                sites = [site[b * size : (b + 1) * size] for site in first_sites]
                trial = first_costs[b * size : (b + 1) * size]
            going &= trial < best
            if not going.any():
                break
            best, taken = np.where(going, trial, best), taken | going
            if going.all():
                new_params, new_sites = cand, sites
                continue
            if new_params is cur:
                new_params = {key: a.copy() for key, a in cur.items()}
                new_sites = [site.copy(order="K") for site in st.v_sites]
            for k, a in cand.items():
                new_params[k][:, going] = a[:, going]
            for new, site in zip(new_sites, sites):
                new[going] = site[going]
    if taken.any():
        st.params = new_params
        st.rechain(new_sites)
        for j in np.flatnonzero(taken):
            st.history[j].append(best[j])
    return taken


def _run_sweeps(st: _SweepState, cfg: OptimizationConfig) -> list:
    """Alternate up/down half-sweeps over every row in lockstep until each run stops.

    Returns one (history, params, sweeps, converged) per row of st, or None
    for a row dropped unrun.  A row leaves the batch, which is then
    compacted, when config.stalled fires for it or at cfg.max_sweeps.  A row
    that ends at or below cfg.good_enough takes the rows of every later
    restart with it: run one at a time, those would never have started.
    """
    runs = [None] * len(st.rows)
    for sweep in range(1, cfg.max_sweeps + 1):
        prev = st.costs()
        st.snaps = [*st.snaps[1 - _EXTRAP_MEMORY :], {key: a.copy() for key, a in st.params.items()}]
        _sweep_once(st, up=True)
        _sweep_once(st, up=False)
        _extrapolate_sweep(st)
        cost = st.costs()
        done = stalled(prev, cost, cfg, cfg.good_enough)
        if sweep < cfg.max_sweeps and not done.any():
            continue
        for j in np.flatnonzero(done | (sweep == cfg.max_sweeps)):
            params = {key: a[:, j].copy() for key, a in st.params.items()}
            runs[st.rows[j]] = (st.history[j], params, sweep, bool(done[j]))
        keep = ~done & (st.rows < min(st.rows[cost <= cfg.good_enough], default=len(runs)))
        if sweep == cfg.max_sweeps or not keep.any():
            break
        st.keep(keep)
    return runs


def _wave_params(p0: Protocol, seeds: list, wave: range) -> dict:
    """Free parameters of the restarts in wave, stacked (n, R, ...): p0's own for restart 0.

    Restart r > 0 draws from default_rng(seeds[r]) as if alone: couplings
    uniform over the coupling box, then a real and an imaginary Gaussian
    block per matrix of each local stack, phase-fixed by one QR per field.
    """
    rngs = [np.random.default_rng(seeds[r]) for r in wave if r > 0]
    drawn = {}
    if rngs and p0.couplings is not None:
        lo, hi = p0.model.coupling_interval()
        drawn["couplings"] = np.array([rng.uniform(lo, hi, size=p0.couplings.shape) for rng in rngs])
        if p0.model.kind not in _BELL_KINDS:
            drawn["core"] = np.array([[p0.model.entangler(c) for c in row] for row in drawn.pop("couplings")])
    for name in _LOCALS:
        if rngs and getattr(p0, name) is not None:
            n, dim, _ = getattr(p0, name).shape
            g = np.array([rng.standard_normal((n, 2, dim, dim)) for rng in rngs])
            drawn[name] = _phase_fixed_qr(g[:, :, 0] + 1j * g[:, :, 1])
    records = [p0._params] * (wave[0] == 0) + [{k: a[j] for k, a in drawn.items()} for j in range(len(rngs))]
    return {key: np.stack([r[key] for r in records], axis=1) for key in records[0]}


def default_config(**overrides) -> OptimizationConfig:
    """Optimizer defaults for protocol search (tighter than compression)."""
    base = dict(
        tol=SEQGEN_TOL, max_sweeps=SEQGEN_MAX_SWEEPS, restarts=SEQGEN_RESTARTS, seed=0
    )
    base.update(overrides)
    return OptimizationConfig(**base)


def optimize(
    p0: Protocol, target: Mps, cfg: OptimizationConfig | None = None
) -> tuple[Protocol, FidelityReport]:
    """Coordinate-sweep optimization of a protocol against a target MPS.

    Sweeps step 1..n..1; per step, enabled local unitaries and a full_pauli core
    get Procrustes updates and Bell-diagonal couplings their exact argmax (see
    module docstring).  cfg.restarts independent runs, the first from p0 itself
    and the rest from seeded random points (a batch's drawn as one stack per
    field by _wave_params, each bit for bit as alone), sweep in two lockstep
    batches: p0's run beside the first random start, then the rest only if
    neither reaches cfg.good_enough (rows riding beside a run that solves are
    wasted work).  A run leaves its batch when its own stopping rule fires
    (config.stalled, or cfg.max_sweeps); once a run ends at or below
    cfg.good_enough, the runs of later restarts leave with it.  The winner is
    the first run at or below good_enough, else the lowest final cost (the
    earliest on a tie), so the result, restarts_used included, is what the
    runs would give one at a time.  The target must be closed and normalized.
    Returns the optimized protocol and its report.
    """
    if cfg is None:
        cfg = default_config()
    if target.n != p0.n:
        raise InvalidInputError(f"target has {target.n} sites, protocol has {p0.n}")
    _require_normalized(target, "target")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    waves = (range(min(2, cfg.restarts)), range(2, cfg.restarts))
    runs = (run for wave in waves if wave
            for run in _run_sweeps(_SweepState(p0, _wave_params(p0, seeds, wave), len(wave), target), cfg))
    best = None
    for restarts_used, run in enumerate(runs, start=1):
        if best is None or run[0][-1] < best[0][-1]:
            best = run
        if run[0][-1] <= cfg.good_enough:
            break
    history, params, sweeps, converged = best
    if not non_increasing(history):
        raise NumericalFailureError("the optimizer's cost history is not non-increasing")
    p_opt = _to_protocol(p0, params)
    report = _report(
        fidelity_vector(p_opt, target),
        p_opt.model.d_ancilla,
        history=history,
        sweeps=sweeps,
        converged=converged,
        restarts_used=restarts_used,
    )
    return p_opt, report
