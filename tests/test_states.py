"""Target state factories against explicit dense constructions."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import seqmps
import seqmps.states as states
from seqmps import CapacityError, InvalidInputError, TargetSpec

from oracles import dense_from_mps, dense_xxz_hamiltonian, isometry_residual


def dense_of(m):
    return seqmps.to_state_vector(m)


def assert_factory_contract(m, max_bond=2):
    assert isometry_residual(m) < 1e-10
    assert not m.open_final
    assert abs(seqmps.norm(m) - 1.0) < 1e-12
    assert m.max_bond <= max_bond
    assert np.abs(dense_from_mps(m) - dense_of(m)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
def test_ghz_state_amplitudes(n):
    m = seqmps.ghz_state(n)
    assert_factory_contract(m)
    ref = np.zeros(2**n, dtype=complex)
    ref[0] = ref[-1] = 2.0 ** (-0.5)
    psi = dense_of(m)
    phase = psi[0] / ref[0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(psi - phase * ref).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_w_state_amplitudes(n):
    m = seqmps.w_state(n)
    assert_factory_contract(m)
    ref = np.zeros(2**n, dtype=complex)
    for k in range(n):
        ref[1 << k] = n ** (-0.5)
    psi = dense_of(m)
    idx = np.flatnonzero(np.abs(ref))
    phase = psi[idx[0]] / ref[idx[0]]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(psi - phase * ref).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cluster_state_signs(n):
    m = seqmps.cluster_state(n)
    assert_factory_contract(m)
    ref = np.empty(2**n, dtype=complex)
    for idx in range(2**n):
        bits = [(idx >> k) & 1 for k in range(n)]
        sign = (-1.0) ** sum(bits[k] * bits[k + 1] for k in range(n - 1))
        ref[idx] = sign * 2.0 ** (-n / 2.0)
    psi = dense_of(m)
    phase = psi[0] / ref[0]
    assert np.abs(psi - phase * ref).max() < 1e-12


def test_random_mps_is_seeded_and_generic():
    a = seqmps.random_mps(5, 2, seed=3)
    b = seqmps.random_mps(5, 2, seed=3)
    c = seqmps.random_mps(5, 2, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a.tensors, b.tensors))
    assert np.array_equal(a.phi_i, b.phi_i)
    assert abs(abs(seqmps.overlap(a, c))) < 0.999
    assert_factory_contract(a)
    wide = seqmps.random_mps(6, 5, seed=0)
    assert wide.bond_dims == [1, 2, 4, 5, 4, 2, 1]
    assert abs(seqmps.norm(wide) - 1.0) < 1e-12


def test_xxz_dense_hamiltonian_matches_kron_oracle():
    for n, delta in ((2, 1.0), (3, 0.5), (4, -1.3)):
        h = seqmps.xxz_dense_hamiltonian(n, delta)
        assert np.abs(h - dense_xxz_hamiltonian(n, delta)).max() < 1e-12


def test_xxz_two_site_singlet():
    # XX + YY + ZZ on two qubits has the singlet at energy -3.
    vec = states.xxz_ground_vector(2, 1.0)
    h = dense_xxz_hamiltonian(2, 1.0)
    energy = np.vdot(vec, h @ vec).real
    assert abs(energy - (-3.0)) < 1e-10
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(singlet, vec)) - 1.0) < 1e-10


@pytest.mark.parametrize("n,delta", [(4, 1.0), (6, 0.5), (6, 2.5)])
def test_xxz_ground_matches_independent_eigensolve(n, delta):
    # Even chains have a unique ground state, so the vectors must agree.
    h = dense_xxz_hamiltonian(n, delta)
    vals, vecs = scipy.linalg.eigh(h)
    m = seqmps.xxz_ground(n, delta)
    psi = dense_of(m)
    energy = np.vdot(psi, h @ psi).real
    assert abs(energy - vals[0]) < 1e-8
    assert abs(abs(np.vdot(vecs[:, 0], psi)) - 1.0) < 1e-8


def one_bits(n):
    return np.array([bin(i).count("1") for i in range(2**n)])


def test_xxz_ground_odd_chain_takes_the_fewer_ones_sector():
    # Odd chains carry a spin doublet split by the bit flip between the
    # sectors with two and three one-bits; the documented state is the one
    # with two, and the flip alone is no reason to warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = states.xxz_ground_vector(5, 0.4)
        m = seqmps.xxz_ground(5, 0.4)
    assert np.all(vec[one_bits(5) != 2] == 0.0)
    h = dense_xxz_hamiltonian(5, 0.4)
    vals, vecs = scipy.linalg.eigh(h)
    psi = dense_of(m)
    assert np.abs(psi[one_bits(5) != 2]).max() < 1e-12
    energy = np.vdot(psi, h @ psi).real
    assert abs(energy - vals[0]) < 1e-8
    weight = sum(abs(np.vdot(vecs[:, j], psi)) ** 2 for j in range(2))
    assert abs(weight - 1.0) < 1e-8


def test_xxz_ground_warns_on_a_tie_between_sectors():
    # At delta = -1 the ground multiplet spans every sector; the tie must
    # warn and go to the sector with fewer one-bits, |0000>.
    with pytest.warns(UserWarning, match="degenerate"):
        m = seqmps.xxz_ground(4, -1.0)
    h = dense_xxz_hamiltonian(4, -1.0)
    vals = scipy.linalg.eigvalsh(h)
    psi = dense_of(m)
    energy = np.vdot(psi, h @ psi).real
    assert abs(energy - vals[0]) < 1e-8
    assert abs(abs(psi[0]) - 1.0) < 1e-12


def test_xxz_ground_warns_on_a_degeneracy_inside_a_sector(monkeypatch):
    # The open chain has no such degeneracy at these parameters, so the
    # two-site sector's eigensolver is made to report one.
    solve = seqmps.states.eigh

    def tied(h):
        vals, vecs = solve(h)
        if h.shape == (6, 6):
            vals[1] = vals[0]
        return vals, vecs

    monkeypatch.setattr(seqmps.states, "eigh", tied)
    with pytest.warns(UserWarning, match="degenerate"):
        vec = states.xxz_ground_vector(4, 1.0)
    assert np.all(vec[one_bits(4) != 2] == 0.0)


XXZ_CHAINS = dict(n=st.integers(2, 8), delta=st.floats(-2.0, 3.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**XXZ_CHAINS)
def test_xxz_sector_blocks_are_the_oracle_blocks(n, delta):
    h = dense_xxz_hamiltonian(n, delta)
    ones = one_bits(n)
    assert np.all(h[ones[:, None] != ones[None, :]] == 0.0)
    for k in range(n + 1):
        idx = np.flatnonzero(ones == k)
        block = seqmps.xxz_dense_hamiltonian(n, delta, ones=k)
        assert block.shape == (idx.size, idx.size)
        assert np.abs(block - h[np.ix_(idx, idx)]).max(initial=0.0) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**XXZ_CHAINS)
def test_xxz_ground_vector_is_a_lowest_eigenvector_in_one_sector(n, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ties between sectors warn, e.g. at delta = -1
        vec = states.xxz_ground_vector(n, delta)
    h = dense_xxz_hamiltonian(n, delta)
    e0 = scipy.linalg.eigvalsh(h)[0]
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(np.vdot(vec, h @ vec).real - e0) <= 1e-9 * max(1.0, abs(e0))
    sectors = np.unique(one_bits(n)[vec != 0.0])
    assert sectors.size == 1 and 2 * sectors[0] <= n


def test_xxz_ground_bond_cap():
    full = seqmps.xxz_ground(8, 1.0)
    assert full.max_bond > 4
    capped = seqmps.xxz_ground(8, 1.0, max_bond=4)
    assert capped.max_bond == 4
    assert abs(seqmps.norm(capped) - 1.0) < 1e-12
    assert abs(abs(seqmps.overlap(full, capped))) > 0.99


def test_xxz_capacity_cap():
    with pytest.raises(CapacityError):
        seqmps.xxz_dense_hamiltonian(15, 1.0)


def test_make_target_dispatch():
    assert np.array_equal(
        dense_of(seqmps.make_target(TargetSpec("ghz", 4))),
        dense_of(seqmps.ghz_state(4)),
    )
    assert np.array_equal(
        dense_of(seqmps.make_target(TargetSpec("random", 4, seed=9))),
        dense_of(seqmps.random_mps(4, 2, seed=9)),
    )
    assert seqmps.make_target(TargetSpec("random", 4, bond=3, seed=9)).max_bond == 3
    assert seqmps.make_target(TargetSpec("xxz", 6, bond=2)).max_bond == 2
    w = seqmps.make_target(TargetSpec("w", 3))
    assert abs(abs(seqmps.overlap(w, seqmps.w_state(3))) - 1.0) < 1e-12


def test_target_spec_validation():
    with pytest.raises(InvalidInputError):
        TargetSpec("bell", 4)
    with pytest.raises(InvalidInputError):
        TargetSpec("ghz", 1)
    for bad in ({"bond": 0}, {"bond": 1.5}, {"n": 2.5}, {"seed": 0.5}, {"seed": -1}):
        with pytest.raises(InvalidInputError):
            TargetSpec(**{"kind": "random", "n": 4, **bad})
    numpy_ints = TargetSpec("random", np.int64(3), bond=np.int32(2), seed=np.uint8(4))
    assert seqmps.make_target(numpy_ints).n == 3
    for maker in (seqmps.ghz_state, seqmps.w_state, seqmps.cluster_state):
        for bad in (1, 2.0):
            with pytest.raises(InvalidInputError):
                maker(bad)
    for args in ((4, 0, 0), (4, 2.5, 1), (4, 2, 1.5)):
        with pytest.raises(InvalidInputError):
            seqmps.random_mps(*args)
    with pytest.raises(InvalidInputError):
        seqmps.xxz_ground(4.0, 1.0)
    # A one-bit count outside 0..n used to give a 0 x 0 block.
    for n, ones in ((3.0, None), (4, 99), (4, -1), (4, 2.5)):
        with pytest.raises(InvalidInputError):
            seqmps.xxz_dense_hamiltonian(n, 1.0, ones=ones)
