"""Dense complex linear algebra kernels.

Every other module funnels its matrix work through the operations here:
singular value and QR decompositions, Hermitian eigendecomposition, the
Hermitian matrix exponential exp(-i * scale * h), the complex Schur form, and
the closed-form unitary Procrustes update.  The heavy lifting is delegated to
LAPACK via numpy.linalg; only schur needs scipy.linalg, which it imports on
first use.  This module owns input validation, the error contract (a LAPACK
failure becomes NumericalFailureError), and the conventions (descending
singular values, ascending eigenvalues).

All functions return fresh arrays and treat their inputs as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .tolerances import HERMITICITY_ATOL

# Pauli matrices sigma_0..sigma_3 in the computational basis |0>, |1>.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _as_matrix(a, name: str, stacked: bool = False) -> np.ndarray:
    """Complex 2-D array with finite entries; stacked also admits leading stack axes."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        what = "a 2-D array or a stack of them" if stacked else "a 2-D array"
        raise InvalidInputError(f"{name} must be {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD factors a = u @ diag(s) @ vdag.

    u has orthonormal columns, vdag orthonormal rows, and s is real,
    non-negative and sorted in descending order.  Ordering among exactly
    degenerate singular values is implementation defined.
    """

    u: np.ndarray
    s: np.ndarray
    vdag: np.ndarray

    def __iter__(self):
        """Unpacks as (u, s, vdag), like numpy.linalg.svd."""
        return iter((self.u, self.s, self.vdag))


def svd(a) -> SvdResult:
    """Economy singular value decomposition of a rectangular complex matrix.

    A stack of matrices along leading axes is factored matrix by matrix,
    and the factors are stacked alike.  Raises InvalidInputError for
    non-finite input or fewer than two axes, and NumericalFailureError if
    the LAPACK kernel does not converge.
    """
    u, s, vdag = _lapack_svd(_as_matrix(a, "a", stacked=True))
    return SvdResult(u=u, s=s, vdag=vdag)


def _lapack_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's economy SVD of a validated (stack of) matrices, with the error contract."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not expose its iteration count; forward its diagnostic.
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc


def qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR decomposition a = q @ r (q orthonormal columns, r upper triangular).

    Errors as for svd: InvalidInputError for bad input, NumericalFailureError from LAPACK.
    """
    a = _as_matrix(a, "a")
    try:
        return np.linalg.qr(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"QR failed: {exc}") from exc


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and eigenvectors as the columns of a unitary matrix.  The input
    must be Hermitian within HERMITICITY_ATOL (scaled by max(1, |h|)).
    """
    h = _as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"h must be square, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if np.abs(h - h.conj().T).max(initial=0.0) > HERMITICITY_ATOL * scale:
        raise InvalidInputError("h is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigh did not converge: {exc}") from exc
    return w, v


def eigh_lowest(h: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count lowest eigenpairs of a real symmetric matrix, ascending.

    Fewer pairs when h has fewer rows.  numpy.linalg.eigh factors h as given
    and leaves it untouched: no complex copy, no Hermiticity check (callers
    build h symmetric).  A LAPACK failure raises NumericalFailureError.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"h must be square, got shape {h.shape}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigh did not converge: {exc}") from exc
    return w[:count], v[:, :count]


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form a = z @ t @ z^dag, returned as (t, z).

    t is upper triangular with the eigenvalues on its diagonal, z unitary.
    Errors as for svd: InvalidInputError for bad input, NumericalFailureError from LAPACK.
    """
    a = _as_matrix(a, "a")
    # Imported on first use: scipy.linalg adds about 25 MB and 0.3 s or more
    # to the package import, and only the full_pauli couplings need it.
    import scipy.linalg

    try:
        return scipy.linalg.schur(a, output="complex")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Schur decomposition failed: {exc}") from exc


def expm_hermitian(h, scale: float = 1.0) -> np.ndarray:
    """Unitary exp(-i * scale * h) for Hermitian h, via eigendecomposition."""
    w, v = eigh(h)
    phases = np.exp(-1j * scale * w)
    return (v * phases) @ v.conj().T


def procrustes_unitary(env) -> np.ndarray:
    """Unitary u maximizing Re tr(u @ env) over the full unitary group.

    If svd(env^dag) = (u, s, vdag) the maximizer is u @ vdag and the attained
    maximum is sum(s); so procrustes_unitary(a^dag) is the unitary polar
    factor of a.  env must be square, or a stack of square matrices along
    leading axes, each solved on its own.  A zero env yields an arbitrary
    (but deterministic) unitary, which is consistent with the objective being
    constant in that case.
    """
    env = _as_matrix(env, "env", stacked=True)
    if env.shape[-1] != env.shape[-2]:
        raise InvalidInputError(f"env must be square, got shape {env.shape}")
    u, _, vdag = _lapack_svd(env.conj().swapaxes(-1, -2))
    return u @ vdag


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix, phase-fixed)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
