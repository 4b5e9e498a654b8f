"""Finite matrix-product states with explicit boundary vectors.

Storage convention
------------------
A state on n qubits is stored as site tensors ``tensors[k-1]`` for sites
k = 1..n, each of shape (2, D_k, D_{k-1}): physical index first, then the
left bond (toward ``phi_f``), then the right bond (toward ``phi_i``).  The
amplitude of the basis state |i_n ... i_1> (site 1 is the least significant
bit of the state-vector index) is the right-to-left matrix product

    c(i_n, ..., i_1) = phi_f^dag . A^{i_n} . ... . A^{i_1} . phi_i

so the index arithmetic matches the product order literally: site 1 acts on
phi_i first.  ``phi_f`` is stored as a ket and enters the contraction
conjugated; ``phi_f = None`` marks an open final bond (an undischarged
ancilla index), which only the sequential-generation module produces.

Worked 2-site example: with

    A^{0}_[1] = [[1/sqrt(2)], [0]],   A^{1}_[1] = [[0], [1/sqrt(2)]]
    A^{0}_[2] = [[1, 0]],             A^{1}_[2] = [[0, 1]]
    phi_i = [1],  phi_f = [1]

the nonzero amplitudes are c(0,0) = phi_f^dag A^0_[2] A^0_[1] phi_i
= 1/sqrt(2) and c(1,1) = 1/sqrt(2): the two-qubit GHZ state.  Each stacked
matrix [A^0; A^1] (stacking the (i, left) rows) has orthonormal columns, so
the example is in left-canonical gauge: sum_i A^{i dag} A^{i} = identity.

Left-canonical gauge means exactly that per-site isometry condition; with
unit-norm boundaries it implies the state itself has norm 1.

Contraction kernels
-------------------
The transfers and folds of ``seqgen`` and ``overlap``, the boundary
absorption that compression reads and the gauge splits of truncation live
here, module-private.
Environments of <bra|ket> are indexed (ket bond, bra bond), and the bra
enters conjugated:

    _transfer_up(left, ket, bra)[a, d] = sum_i ket^i[a, b] left[b, c] conj(bra^i[d, c])
    _transfer_down(tail, ket, bra)[..., b, c] = sum_i tail[..., p, q] ket^i[p, b] conj(bra^i[q, c])

Up environments hold the sites toward phi_i, down environments those toward
phi_f.  Leading axes pass through, broadcast against the ket's: ``seqgen``
keeps its restart axis there, and in a down environment the open ancilla
index after it (its kets then carry a unit axis in that place).  Both are
contracted pairwise, as chains of matmuls over the physical index i:

    _transfer_up:   (ket^i @ left) @ bra^i^dag, summed over i
    _transfer_down: (tail^T @ ket^i)^T @ conj(bra^i), summed over i

With ket bonds D and bra bonds D' each step costs O(D^2 D' + D D'^2), so a
fold over n sites is O(n D^3) at D' = D, where the three-operand sum written
above, done in one loop over all indices, would be O(n D^4).  Every other
site contraction here (gauge pushes, boundary absorption, dense conversion)
is one matmul as well.  Compression's sweeps fold the same environments
with 2-D matmuls of their own, on sites held as (left bond, i, right bond)
and with the down side kept conjugated (see the ``compress`` docstring).
``_split_lq`` (t^i = l @ site^i) returns (isometric site, l), and
``truncate_per_matrix`` pushes l into the site above.  ``_canonicalize_down``
is the SVD sweep of both canonical forms.
"""

from __future__ import annotations

import json

import numpy as np

from .config import check_count
from .errors import CapacityError, DegenerateStateError, InvalidInputError
from .linalg import qr, svd
from .serialize import SCHEMA, complex_to_pairs, load_document, pairs_to_complex
from .tolerances import MAX_DENSE_QUBITS, RANK_RTOL, TARGET_NORM_ATOL, ZERO_NORM

class Mps:
    """Immutable matrix-product state (see module docstring for conventions).

    Attributes:
        tensors: per-site arrays of shape (2, D_k, D_{k-1}).
        phi_i: right boundary vector, length D_0.
        phi_f: left boundary ket, length D_n, or None for an open final bond.
    """

    __slots__ = ("tensors", "phi_i", "phi_f")

    def __init__(self, tensors, phi_i, phi_f):
        # C order: matmul rounds differently on strided sites, such as from_state_vector's.
        tensors = [np.array(t, dtype=complex, order="C") for t in tensors]
        if not tensors:
            raise InvalidInputError("an MPS needs at least one site")
        for k, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[0] != 2:
                raise InvalidInputError(
                    f"site {k + 1} tensor must have shape (2, D_k, D_k-1), got {t.shape}"
                )
            if not np.all(np.isfinite(t)):
                raise InvalidInputError(f"site {k + 1} tensor has non-finite entries")
        for k in range(1, len(tensors)):
            if tensors[k].shape[2] != tensors[k - 1].shape[1]:
                raise InvalidInputError(
                    f"bond mismatch between sites {k} and {k + 1}: "
                    f"{tensors[k - 1].shape[1]} vs {tensors[k].shape[2]}"
                )
        phi_i = np.array(phi_i, dtype=complex).reshape(-1)
        if phi_i.shape[0] != tensors[0].shape[2]:
            raise InvalidInputError("phi_i length does not match the first bond")
        if phi_f is not None:
            phi_f = np.array(phi_f, dtype=complex).reshape(-1)
            if phi_f.shape[0] != tensors[-1].shape[1]:
                raise InvalidInputError("phi_f length does not match the last bond")
            if not np.all(np.isfinite(phi_f)):
                raise InvalidInputError("phi_f has non-finite entries")
        if not np.all(np.isfinite(phi_i)):
            raise InvalidInputError("phi_i has non-finite entries")
        for t in tensors:
            t.flags.writeable = False
        phi_i.flags.writeable = False
        if phi_f is not None:
            phi_f.flags.writeable = False
        object.__setattr__(self, "tensors", tuple(tensors))
        object.__setattr__(self, "phi_i", phi_i)
        object.__setattr__(self, "phi_f", phi_f)

    def __setattr__(self, name, value):
        raise AttributeError("Mps is immutable")

    @property
    def n(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """[D_0, D_1, ..., D_n]."""
        dims = [self.tensors[0].shape[2]]
        dims.extend(t.shape[1] for t in self.tensors)
        return dims

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)

    @property
    def open_final(self) -> bool:
        return self.phi_f is None

    def with_phi_f(self, phi_f) -> "Mps":
        """Same tensors with the final boundary replaced (closes an open MPS)."""
        return Mps(self.tensors, self.phi_i, phi_f)

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "n": self.n,
            "bond_dims": self.bond_dims,
            "tensors": [complex_to_pairs(t) for t in self.tensors],
            "phi_i": complex_to_pairs(self.phi_i),
            "phi_f": complex_to_pairs(self.phi_f),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Mps":
        """Inverse of to_json; a "gauge_tag" key left by older versions is ignored."""

        def build(doc):
            return Mps(
                [pairs_to_complex(t) for t in doc["tensors"]],
                pairs_to_complex(doc["phi_i"]),
                pairs_to_complex(doc["phi_f"]),
            )

        return load_document(text, build)


def _require_closed(m: Mps, op: str) -> None:
    if m.open_final:
        raise InvalidInputError(f"{op} requires a closed MPS (phi_f is open)")


def _require_normalized(m: Mps, what: str) -> None:
    """Refuse an open m, or one whose norm is off 1 by more than TARGET_NORM_ATOL."""
    if m.open_final:
        raise InvalidInputError(f"{what} must be a closed MPS")
    if abs(norm(m) - 1.0) > TARGET_NORM_ATOL:
        raise InvalidInputError(f"{what} must be normalized")


def _transfer_up(left, ket, bra):
    """One site of <bra|ket> folded onto an up environment; leading axes ride along."""
    if left.ndim > 2:
        # Beside the ket's physical axis; a plain matrix keeps the cheaper 2-D matmul.
        left = left[..., None, :, :]
    return ((ket @ left) @ bra.conj().swapaxes(-1, -2)).sum(axis=-3)


def _transfer_down(tail, ket, bra):
    """One site of <bra|ket> folded onto a down environment; leading axes ride along."""
    tmp = tail.swapaxes(-1, -2)[..., None, :, :] @ ket
    return (tmp.swapaxes(-1, -2) @ bra.conj()).sum(axis=-3)


def _fold_up(left, kets, bras):
    """_transfer_up over paired sites, in order from phi_i."""
    for ket, bra in zip(kets, bras):
        left = _transfer_up(left, ket, bra)
    return left


def _absorb_boundaries(m: Mps) -> list[np.ndarray]:
    """Tensors of m with phi_i and conj(phi_f) contracted in: the state with unit boundaries."""
    ts = list(m.tensors)
    ts[0] = (ts[0] @ m.phi_i)[:, :, None]
    ts[-1] = (m.phi_f.conj() @ ts[-1])[:, None, :]
    return ts


def _split_lq(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LQ split t^i = l @ site^i: (site with orthonormal (left, i) rows, l)."""
    q, r = qr(t.transpose(1, 0, 2).reshape(t.shape[1], 2 * t.shape[2]).conj().T)
    return q.conj().T.reshape(-1, 2, t.shape[2]).transpose(1, 0, 2), r.conj().T


def _numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL * s_max, at least 1."""
    return max(int(np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0))), 1)


def _canonicalize_down(ts: list, rank) -> None:
    """Left-canonicalize ts[1:] top down in place: site k keeps rank(s) singular
    vectors and pushes s vdag into ts[k - 1], so ts[0] ends up holding the norm."""
    for k in range(len(ts) - 1, 0, -1):
        t = ts[k]
        u, s, vdag = svd(t.reshape(2 * t.shape[1], t.shape[2]))
        r = rank(s)
        ts[k] = u[:, :r].reshape(2, t.shape[1], r)
        ts[k - 1] = (s[:r, None] * vdag[:r]) @ ts[k - 1]


def from_state_vector(psi, max_bond: int | None = None) -> Mps:
    """Exact left-canonical MPS of a dense state vector.

    psi must have length 2**n with 1 <= n <= MAX_DENSE_QUBITS and must not be
    the zero vector.  Sites are split off from site n downward by successive
    economy SVDs; the orthonormal-row factor becomes the site tensor, so every
    site satisfies the isometry condition exactly and the bond dimensions are
    the minimal ones (2**min(k, n-k) capped by max_bond when given).  The
    final leftover scalar (norm and global phase) is stored in phi_i, so the
    reconstruction is exact even for non-normalized input.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(psi)):
        raise InvalidInputError("psi contains non-finite entries")
    n = int(np.log2(psi.shape[0]))
    if 2**n != psi.shape[0] or psi.shape[0] < 2:
        raise InvalidInputError(f"length {psi.shape[0]} is not 2**n with n >= 1")
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"n = {n} exceeds the dense cap of {MAX_DENSE_QUBITS}")
    if not np.any(psi):
        raise InvalidInputError("psi is the zero vector")
    if max_bond is not None:
        check_count(max_bond, "max_bond", 1)

    tensors: list[np.ndarray] = []
    work = psi.reshape(2**n, 1)
    for _ in range(n, 0, -1):
        rows, d_out = work.shape
        mat = work.reshape(2, rows // 2, d_out).transpose(1, 0, 2).reshape(rows // 2, 2 * d_out)
        u, s, vdag = svd(mat)
        r = _numerical_rank(s)
        if max_bond is not None:
            r = min(r, max_bond)
        # vdag rows are the (i, left-bond) groups: reshaping gives the site
        # tensor with the isometry condition holding exactly.
        site = vdag[:r].reshape(r, 2, d_out).transpose(1, 2, 0)
        tensors.append(site)
        work = u[:, :r] * s[:r]
    tensors.reverse()
    phi_i = work.reshape(-1)  # leftover scalar, length 1
    return Mps(tensors, phi_i, np.ones(1, dtype=complex))


def to_state_vector(m: Mps) -> np.ndarray:
    """Dense state vector of a closed MPS (index i_1 least significant)."""
    _require_closed(m, "to_state_vector")
    if m.n > MAX_DENSE_QUBITS:
        raise CapacityError(f"n = {m.n} exceeds the dense cap of {MAX_DENSE_QUBITS}")
    part = m.phi_i.reshape(1, -1)
    for t in m.tensors:
        # part[(i_{k-1}..i_1), b] -> sum_b t[i, a, b] part[p, b]
        part = (part @ t.swapaxes(1, 2)).reshape(-1, t.shape[1])
    return part @ m.phi_f.conj()


def overlap(a: Mps, b: Mps) -> complex:
    """Physical inner product <a|b> of two closed MPS on the same n."""
    _require_closed(a, "overlap")
    _require_closed(b, "overlap")
    if a.n != b.n:
        raise InvalidInputError(f"site counts differ: {a.n} vs {b.n}")
    trans = _fold_up(np.outer(b.phi_i, a.phi_i.conj()), b.tensors, a.tensors)
    return complex(b.phi_f.conj() @ trans @ a.phi_f)


def norm(m: Mps) -> float:
    """Euclidean norm of the represented state."""
    return float(np.sqrt(max(overlap(m, m).real, 0.0)))


def normalize(m: Mps) -> Mps:
    """Rescale phi_i so the state has norm 1; gauge is untouched."""
    nm = norm(m)
    if nm < ZERO_NORM:
        raise DegenerateStateError("cannot normalize a (numerically) zero state")
    return Mps(m.tensors, m.phi_i / nm, m.phi_f)


def canonicalize_left(m: Mps) -> Mps:
    """Gauge-equivalent MPS satisfying the isometry condition at every site.

    Sweeps from site n down to site 1, splitting each stacked matrix
    [A^0; A^1] by SVD: the orthonormal-column factor stays as the site
    tensor and the remainder flows toward phi_i, which finally absorbs the
    norm and phase.  Singular values below RANK_RTOL * s_max are dropped, so
    bond dimensions never grow and redundant rank is trimmed.  The physical
    state is unchanged (exactly, up to floating-point error).
    """
    ts = [m.phi_i, *m.tensors]
    _canonicalize_down(ts, _numerical_rank)
    return Mps(ts[1:], ts[0], m.phi_f)


def truncate_per_matrix(m: Mps, keep: int) -> Mps:
    """SVD-truncate each site's stacked matrix to rank ``keep``.

    The boundary vectors are absorbed and the norm is first pushed into the
    top site by an LQ sweep, leaving every lower site row-orthonormal.  A
    downward sweep then splits each stacked matrix [A^0; A^1] by SVD; at
    that moment its singular values are exactly the Schmidt coefficients of
    the bond below, so keeping the ``keep`` largest is the optimal local
    rank reduction.  The input must be closed, in any gauge: the LQ pass
    fixes it.  The result is left-canonical, normalized, with trivial
    boundary vectors and all bond dimensions <= keep.
    """
    check_count(keep, "keep", 1)
    _require_closed(m, "truncate_per_matrix")
    ts = _absorb_boundaries(m)
    # Upward LQ pass: rows become orthonormal, the norm collects at the top.
    for k in range(len(ts) - 1):
        ts[k], l = _split_lq(ts[k])
        ts[k + 1] = ts[k + 1] @ l
    # Downward pass: keep the largest singular values of each site.
    _canonicalize_down(ts, lambda s: min(keep, s.size))
    # Site 1 holds phi_i, so it is one column: dividing by its norm normalizes.
    fnorm = np.linalg.norm(ts[0])
    if fnorm < ZERO_NORM:
        raise DegenerateStateError("cannot truncate a (numerically) zero state")
    ts[0] = ts[0] / fnorm
    return Mps(ts, np.ones(1, dtype=complex), np.ones(1, dtype=complex))
