"""Dense complex linear algebra kernels.

Every other module funnels its matrix work through the operations here:
singular value and QR decompositions, Hermitian eigendecomposition, the
Hermitian matrix exponential exp(-i h) and its inverse, the principal
logarithm of a unitary, and the closed-form unitary Procrustes update.  The
heavy lifting is delegated to LAPACK via numpy.linalg, and nothing else.
This module owns input validation, the error contract (a LAPACK failure
becomes NumericalFailureError), and the conventions (descending singular
values, ascending eigenvalues).

All functions return fresh arrays and treat their inputs as read-only.
"""

from __future__ import annotations

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


def _as_matrix(a, name: str, stacked: bool = False, keep_real: bool = False) -> np.ndarray:
    """Finite 2-D array (stacked: or a stack of them), complex unless keep_real and a is real."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float) if keep_real else complex, copy=False)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        what = "a 2-D array or a stack of them" if stacked else "a 2-D array"
        raise InvalidInputError(f"{name} must be {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _lapack(kernel, *args, **kwargs):
    """kernel(*args, **kwargs), a numpy.linalg routine, with a LAPACK failure as NumericalFailureError."""
    try:
        return kernel(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not expose its iteration count; forward its diagnostic.
        raise NumericalFailureError(f"{kernel.__name__} failed: {exc}") from exc


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy singular value decomposition a = u @ diag(s) @ vdag, as (u, s, vdag).

    u has orthonormal columns, vdag orthonormal rows, and s is real,
    non-negative and sorted in descending order; ordering among exactly
    degenerate singular values is implementation defined.  A stack of
    matrices along leading axes is factored matrix by matrix, and the
    factors are stacked alike.  Raises InvalidInputError for non-finite
    input or fewer than two axes, and NumericalFailureError if the LAPACK
    kernel does not converge.
    """
    return _lapack(np.linalg.svd, _as_matrix(a, "a", stacked=True), full_matrices=False)


def qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR decomposition a = q @ r (q orthonormal columns, r upper triangular).

    Errors as for svd: InvalidInputError for bad input, NumericalFailureError from LAPACK.
    """
    return _lapack(np.linalg.qr, _as_matrix(a, "a"))


def _as_hermitian(h, name: str) -> np.ndarray:
    """Finite square matrix, Hermitian within HERMITICITY_ATOL (scaled by max(1, |h|)).

    A real h stays real.  Raises InvalidInputError otherwise.
    """
    h = _as_matrix(h, name, keep_real=True)
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if np.abs(h - h.conj().T).max(initial=0.0) > HERMITICITY_ATOL * scale:
        raise InvalidInputError(f"{name} is not Hermitian within tolerance")
    return h


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and eigenvectors as the columns of a unitary matrix.  The input
    must be Hermitian within HERMITICITY_ATOL (scaled by max(1, |h|)); a
    real symmetric h is factored as given, without a complex copy.
    """
    return _lapack(np.linalg.eigh, _as_hermitian(h, "h"))


def expm_hermitian(h) -> np.ndarray:
    """Unitary exp(-i h) for Hermitian h, via eigendecomposition."""
    w, v = eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def logm_unitary(u) -> np.ndarray:
    """Hermitian h with exp(-i h) = u for a unitary u: the inverse of expm_hermitian.

    h = -q diag(angle(w)) q^dag for the eigenvalues w of u and an orthonormal
    eigenbasis q, so its eigenvalues lie in [-pi, pi).  Raises
    InvalidInputError for non-finite or non-square input and
    NumericalFailureError from LAPACK.
    """
    u = _as_matrix(u, "u")
    if u.shape[0] != u.shape[1]:
        raise InvalidInputError(f"u must be square, got shape {u.shape}")
    w, v = _lapack(np.linalg.eig, u)
    q, _ = _lapack(np.linalg.qr, v)
    # With v = q r, q^dag u q = r diag(w) r^-1 is a Schur form of u (Golub &
    # Van Loan, Matrix Computations, 7.1), and a normal triangular matrix is
    # diagonal: q is an orthonormal eigenbasis, which v is not within a cluster of w.
    return -(q * np.angle(w)) @ q.conj().T


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
    u, _, vdag = _lapack(np.linalg.svd, env.conj().swapaxes(-1, -2), full_matrices=False)
    return u @ vdag


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix, phase-fixed)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
