"""Linear algebra kernels against scipy and direct reconstruction."""

import numpy as np
import pytest
import scipy.linalg

import seqmps
import seqmps.linalg as linalg
from seqmps import InvalidInputError, NumericalFailureError

from oracles import PAULI


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6), (1, 5), (5, 1)])
def test_svd_reconstructs_and_orders(shape):
    a = random_complex(shape, 7)
    u, s, vdag = linalg.svd(a)
    assert np.abs(u @ np.diag(s) @ vdag - a).max() < 1e-12
    assert np.all(np.diff(s) <= 0.0)
    assert np.all(s >= 0.0)
    k = s.size
    assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-12
    assert np.abs(vdag @ vdag.conj().T - np.eye(k)).max() < 1e-12


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        linalg.svd(np.ones(4))
    with pytest.raises(InvalidInputError):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_eigh_matches_scipy():
    a = random_complex((6, 6), 3)
    h = a + a.conj().T
    w, v = linalg.eigh(h)
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-12
    assert np.abs(np.sort(w) - np.sort(scipy.linalg.eigvalsh(h))).max() < 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 0.37, -2.0])
def test_expm_hermitian_matches_scipy_expm(scale):
    a = random_complex((5, 5), 11)
    h = a + a.conj().T
    u = linalg.expm_hermitian(scale * h)
    ref = scipy.linalg.expm(-1j * scale * h)
    assert np.abs(u - ref).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-13


def test_procrustes_beats_random_unitaries():
    # The closed-form maximizer of Re tr(u @ env) must dominate a large
    # random sample and attain exactly sum of singular values.
    env = random_complex((4, 4), 5)
    u = linalg.procrustes_unitary(env)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
    attained = np.trace(u @ env).real
    _, s, _ = linalg.svd(env)
    assert abs(attained - s.sum()) < 1e-12
    rng = np.random.default_rng(17)
    for _ in range(1000):
        trial = linalg.haar_unitary(4, rng)
        assert np.trace(trial @ env).real <= attained + 1e-10


def test_procrustes_lapack_failure_is_a_numerical_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected svd failure")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalFailureError):
        linalg.procrustes_unitary(random_complex((3, 3), 4))


def test_procrustes_requires_square():
    with pytest.raises(InvalidInputError):
        linalg.procrustes_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(5, 3, 3), (2, 4, 2, 2)])
def test_procrustes_solves_a_stack_matrix_by_matrix(shape):
    env = random_complex(shape, 11)
    u = linalg.procrustes_unitary(env)
    each = [linalg.procrustes_unitary(e) for e in env.reshape(-1, *shape[-2:])]
    assert np.array_equal(u, np.reshape(each, shape))
    with pytest.raises(InvalidInputError):
        linalg.procrustes_unitary(np.ones((3, 2, 3)))
    with pytest.raises(InvalidInputError):
        linalg.procrustes_unitary(np.full(shape, np.nan))


def test_haar_unitary_is_deterministic_and_unitary():
    a = linalg.haar_unitary(4, np.random.default_rng(42))
    b = linalg.haar_unitary(4, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.abs(a.conj().T @ a - np.eye(4)).max() < 1e-12


def test_pauli_coefficients_invert_the_expansion():
    rng = np.random.default_rng(9)
    table = rng.standard_normal((4, 4))
    h = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(4):
            h += table[j, k] * np.kron(PAULI[j], PAULI[k])
    back = seqmps.pauli_coefficients(h)
    assert np.abs(back - table).max() < 1e-12
    # At d = 3 the table is over B_j x sigma_k and inverts the generator.
    table = rng.standard_normal((9, 4))
    h = seqmps.GeneratorModel("full_pauli", 3).generator(table)
    assert np.abs(seqmps.pauli_coefficients(h) - table).max() < 1e-12
    # Wrong shapes, and what eigh refuses: a non-Hermitian h (whose Hermitian
    # part is zero here) or a non-finite one.
    nan = np.full((4, 4), np.nan)
    for bad in (np.eye(2), np.eye(5), np.ones((4, 6)), np.ones(16), 1j * np.eye(4), nan):
        with pytest.raises(InvalidInputError):
            seqmps.pauli_coefficients(bad)
