"""MPS container, gauge moves and conversions against dense oracles."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqmps
import seqmps.linalg as linalg
import seqmps.seqgen as seqgen
from seqmps import CapacityError, DegenerateStateError, InvalidInputError, Mps
from seqmps.mps import _fold_up, _transfer_down, _transfer_up

from oracles import dense_from_mps, isometry_residual, random_state, schmidt_values


def random_raw_mps(n, bond, seed, closed=True):
    """Un-gauged random MPS with generic boundaries."""
    rng = np.random.default_rng(seed)
    dims = [min(bond, 2**k, 2 ** (n - k)) for k in range(n + 1)]
    tensors = [
        rng.standard_normal((2, dims[k], dims[k - 1]))
        + 1j * rng.standard_normal((2, dims[k], dims[k - 1]))
        for k in range(1, n + 1)
    ]
    phi_i = rng.standard_normal(dims[0]) + 1j * rng.standard_normal(dims[0])
    phi_f = rng.standard_normal(dims[n]) + 1j * rng.standard_normal(dims[n])
    return Mps(tensors, phi_i, phi_f if closed else None)


def random_profile_mps(n, rng):
    """Closed Gaussian MPS in a random gauge, with random bonds 1..4 including both boundaries."""
    dims = rng.integers(1, 5, size=n + 1)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    tensors = [gaussian(2, dims[k], dims[k - 1]) for k in range(1, n + 1)]
    return Mps(tensors, gaussian(dims[0]), gaussian(dims[n]))


def assert_left_canonical(m):
    assert isometry_residual(m) < 1e-10


def assert_same_state(psi, ref):
    assert np.linalg.norm(psi - ref) <= 1e-12 * np.linalg.norm(ref)


def test_constructor_validates_bonds_and_boundaries():
    good = np.zeros((2, 2, 1))
    good[0, 0, 0] = 1.0
    with pytest.raises(InvalidInputError):
        Mps([], [1.0], [1.0])
    with pytest.raises(InvalidInputError):
        Mps([np.zeros((3, 2, 1))], [1.0], [1.0, 0.0])
    with pytest.raises(InvalidInputError):
        Mps([good, np.zeros((2, 1, 3))], [1.0], [1.0])
    with pytest.raises(InvalidInputError):
        Mps([good], [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(InvalidInputError):
        Mps([np.full((2, 2, 1), np.nan)], [1.0], [1.0, 0.0])


def test_mps_is_immutable():
    m = seqmps.ghz_state(3)
    with pytest.raises(AttributeError):
        m.phi_i = np.ones(1)
    with pytest.raises(ValueError):
        m.tensors[0][0, 0, 0] = 2.0


def test_shape_properties():
    m = random_raw_mps(4, 3, 0)
    assert m.n == 4
    assert m.bond_dims == [1, 2, 3, 2, 1]
    assert m.max_bond == 3
    assert not m.open_final
    assert m.tensors[0].shape == (2, 2, 1)
    open_m = random_raw_mps(4, 3, 0, closed=False)
    assert open_m.open_final
    closed = open_m.with_phi_f(np.ones(1))
    assert not closed.open_final


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_state_vector_round_trip(n, seed):
    raw = random_profile_mps(n, np.random.default_rng(seed))
    assert_same_state(seqmps.to_state_vector(raw), dense_from_mps(raw))
    # A full-rank state, and one whose Schmidt ranks the bond profile bounds.
    for psi in (random_state(n, seed), dense_from_mps(raw)):
        m = seqmps.from_state_vector(psi)
        assert_left_canonical(m)
        assert_same_state(seqmps.to_state_vector(m), psi)
        assert_same_state(dense_from_mps(m), psi)


def test_from_state_vector_keeps_norm_and_phase():
    psi = (2.0 - 1.0j) * random_state(3, seed=5)
    m = seqmps.from_state_vector(psi)
    assert np.abs(seqmps.to_state_vector(m) - psi).max() < 1e-12
    assert abs(seqmps.norm(m) - np.linalg.norm(psi)) < 1e-12


def test_from_state_vector_minimal_bonds_and_cap():
    psi = random_state(6, seed=8)
    assert seqmps.from_state_vector(psi).bond_dims == [1, 2, 4, 8, 4, 2, 1]
    capped = seqmps.from_state_vector(psi, max_bond=3)
    assert capped.max_bond == 3
    with pytest.raises(InvalidInputError):
        seqmps.from_state_vector(psi, max_bond=2.5)
    with pytest.raises(InvalidInputError):
        seqmps.from_state_vector(np.zeros(8))
    with pytest.raises(InvalidInputError):
        seqmps.from_state_vector(np.ones(5))
    big = np.zeros(2**21)
    big[0] = 1.0
    with pytest.raises(CapacityError):
        seqmps.from_state_vector(big)


def test_dense_conversion_matches_bitstring_oracle():
    for maker in (seqmps.ghz_state, seqmps.w_state, seqmps.cluster_state):
        m = maker(5)
        assert np.abs(seqmps.to_state_vector(m) - dense_from_mps(m)).max() < 1e-12
    m = random_raw_mps(6, 4, seed=3)
    assert np.abs(seqmps.to_state_vector(m) - dense_from_mps(m)).max() < 1e-10


def test_overlap_matches_dense_inner_product():
    rng = np.random.default_rng(123)
    for case in range(20):
        n = int(rng.integers(2, 8))
        a = random_raw_mps(n, int(rng.integers(1, 5)), seed=1000 + case)
        b = random_raw_mps(n, int(rng.integers(1, 5)), seed=2000 + case)
        ov = seqmps.overlap(a, b)
        ref = np.vdot(dense_from_mps(a), dense_from_mps(b))
        assert abs(ov - ref) < 1e-10 * max(1.0, abs(ref))


def test_overlap_requires_closed_and_matching_n():
    a = seqmps.ghz_state(3)
    with pytest.raises(InvalidInputError):
        seqmps.overlap(a, seqmps.ghz_state(4))
    with pytest.raises(InvalidInputError):
        seqmps.overlap(a, random_raw_mps(3, 2, 0, closed=False))


def test_norm_and_normalize():
    m = random_raw_mps(4, 3, seed=9)
    dense = dense_from_mps(m)
    assert abs(seqmps.norm(m) - np.linalg.norm(dense)) < 1e-10
    mn = seqmps.normalize(m)
    assert abs(seqmps.norm(mn) - 1.0) < 1e-12
    # Normalization rescales the represented ray, it does not regauge.
    ratio = dense_from_mps(mn) / dense
    assert np.abs(ratio - ratio[0]).max() < 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_canonicalize_left_preserves_state_exactly(n, seed):
    m = random_profile_mps(n, np.random.default_rng(seed))
    c = seqmps.canonicalize_left(m)
    assert_left_canonical(c)
    assert all(a <= b for a, b in zip(c.bond_dims, m.bond_dims))
    assert_same_state(dense_from_mps(c), dense_from_mps(m))


def test_canonicalize_left_is_idempotent_and_trims_rank():
    m = seqmps.canonicalize_left(random_raw_mps(4, 3, seed=2))
    again = seqmps.canonicalize_left(m)
    assert again.bond_dims == m.bond_dims
    assert np.abs(dense_from_mps(again) - dense_from_mps(m)).max() < 1e-12
    # A product state written with fat bonds must collapse to bond 1.
    fat = np.zeros((2, 3, 3), dtype=complex)
    fat[0, 0, 0] = 1.0
    first = np.zeros((2, 3, 1), dtype=complex)
    first[0, 0, 0] = 1.0
    last = np.zeros((2, 1, 3), dtype=complex)
    last[0, 0, 0] = 1.0
    padded = Mps([first, fat, last], [1.0], [1.0])
    trimmed = seqmps.canonicalize_left(padded)
    assert trimmed.bond_dims == [1, 1, 1, 1]


def test_gauge_transformation_is_invisible():
    # Inserting G, G^-1 across a bond changes no amplitude; canonical forms
    # of both gauges describe the same state.
    m = random_raw_mps(4, 3, seed=31)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ts = [t.copy() for t in m.tensors]
    # A_3 G^-1 composed with G A_2 leaves every amplitude alone.
    ts[2] = np.einsum("iab,bc->iac", ts[2], np.linalg.inv(g))
    ts[1] = np.einsum("ab,ibc->iac", g, ts[1])
    gauged = Mps(ts, m.phi_i, m.phi_f)
    assert np.abs(dense_from_mps(gauged) - dense_from_mps(m)).max() < 1e-9
    c0 = seqmps.canonicalize_left(m)
    c1 = seqmps.canonicalize_left(gauged)
    ov = seqmps.overlap(c0, c1)
    assert abs(abs(ov) - seqmps.norm(c0) * seqmps.norm(c1)) < 1e-8


def test_mps_json_with_a_gauge_tag_still_loads():
    # Older documents carry a "gauge_tag" key; it is ignored.
    m = seqmps.ghz_state(3)
    doc = json.loads(m.to_json())
    for tag in ("left-canonical", "none"):
        back = Mps.from_json(json.dumps({**doc, "gauge_tag": tag}))
        assert all(np.array_equal(a, b) for a, b in zip(back.tensors, m.tensors))
        assert np.array_equal(back.phi_i, m.phi_i)
        assert np.array_equal(back.phi_f, m.phi_f)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 5), bond=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       closed=st.booleans())
def test_mps_json_round_trip_is_exact(n, bond, seed, closed):
    m = random_raw_mps(n, bond, seed, closed)
    saved = m.to_json()
    back = Mps.from_json(saved)
    assert back.to_json() == saved  # shortest-repr floats: equal text is equal bits
    assert all(np.array_equal(a, b) for a, b in zip(back.tensors, m.tensors, strict=True))
    assert np.array_equal(back.phi_i, m.phi_i)
    assert back.phi_f is None if m.phi_f is None else np.array_equal(back.phi_f, m.phi_f)
    doc = json.loads(saved)
    assert "gauge_tag" not in doc
    for text in (
        '{"schema": "something-else"}',
        json.dumps({"schema": doc["schema"]}),  # missing fields
        json.dumps({**doc, "tensors": 5}),  # wrong type
        json.dumps({**doc, "phi_i": [[1.0, 0.0], [1.0]]}),  # ragged pairs
        "not json",
    ):
        with pytest.raises(InvalidInputError):
            Mps.from_json(text)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), spare=st.integers(0, 2), xxz=st.booleans()
)
@example(n=6, seed=0, spare=0, xxz=True)
def test_truncation_noop_when_keep_covers_bond(n, seed, spare, xxz):
    # XXZ ground states add exactly tied Schmidt pairs.
    if xxz:
        m = seqmps.xxz_ground(max(n, 2), 1.0)
    else:
        m = random_profile_mps(n, np.random.default_rng(seed))
    t = seqmps.truncate_per_matrix(m, m.max_bond + spare)
    assert_left_canonical(t)
    psi = dense_from_mps(m)
    # The truncation normalizes and keeps the global phase.
    assert_same_state(dense_from_mps(t), psi / np.linalg.norm(psi))


def test_truncation_ghz_keep_one_hits_half_overlap():
    # Both Schmidt values of every GHZ cut are 1/sqrt(2); keeping one must
    # land exactly on fidelity 2^(-1/2).
    m = seqmps.ghz_state(6)
    t = seqmps.truncate_per_matrix(m, 1)
    assert t.max_bond == 1
    f = abs(seqmps.overlap(m, t))
    assert abs(f - 2.0 ** (-0.5)) < 1e-12


def test_truncation_single_cut_is_schmidt_optimal():
    # With one nontrivial bond the kept direction must be the top Schmidt
    # vector, so the fidelity equals the largest Schmidt coefficient.
    psi = random_state(2, seed=77)
    m = seqmps.from_state_vector(psi)
    t = seqmps.truncate_per_matrix(m, 1)
    top = schmidt_values(psi, 1)[0]
    assert abs(abs(seqmps.overlap(m, t)) - top) < 1e-12


def test_truncation_output_contract():
    m = seqmps.xxz_ground(8, 1.0)
    for keep in (1, 2, 3, 5):
        t = seqmps.truncate_per_matrix(m, keep)
        assert t.max_bond <= keep
        assert_left_canonical(t)
        assert abs(seqmps.norm(t) - 1.0) < 1e-12
    for bad in (0, 2.5):
        with pytest.raises(InvalidInputError):
            seqmps.truncate_per_matrix(m, bad)
    # Any gauge and norm is accepted: the input is re-gauged first.
    raw = random_raw_mps(4, 3, seed=1)
    t = seqmps.truncate_per_matrix(raw, 2)
    ref = seqmps.truncate_per_matrix(seqmps.normalize(seqmps.canonicalize_left(raw)), 2)
    assert abs(abs(seqmps.overlap(ref, t)) - 1.0) < 1e-12
    with pytest.raises(InvalidInputError):
        seqmps.truncate_per_matrix(random_raw_mps(4, 3, seed=1, closed=False), 2)


def test_truncating_the_zero_state_is_degenerate():
    # Truncation normalizes its result, which the zero state has no direction for.
    zero = Mps([np.zeros((2, 1, 1))] * 3, [1.0], [1.0])
    with pytest.raises(DegenerateStateError):
        seqmps.truncate_per_matrix(zero, 1)


def test_truncation_error_decreases_with_keep():
    m = seqmps.xxz_ground(8, 1.0)
    dense = seqmps.to_state_vector(m)
    errs = []
    for keep in range(1, m.max_bond + 1):
        t = seqmps.truncate_per_matrix(m, keep)
        errs.append(np.linalg.norm(dense - seqmps.to_state_vector(t)) ** 2)
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def canonical_mps_with_bonds(dims, rng):
    """Normalized left-canonical closed MPS from random tensors with bonds dims[0..n]."""
    tensors = [gaussian(rng, (2, dims[k], dims[k - 1])) for k in range(1, len(dims))]
    raw = Mps(tensors, gaussian(rng, dims[0]), gaussian(rng, dims[-1]))
    return seqmps.normalize(seqmps.canonicalize_left(raw))


def cut_contractions(left, tail, kets, bras):
    """<bra|ket> split at every cut k: up fold over [0, k) against down fold over [k, n)."""
    n = len(kets)
    out = []
    for k in range(n + 1):
        below = _fold_up(left, kets[:k], bras[:k])
        above = tail
        for j in range(n - 1, k - 1, -1):
            above = _transfer_down(above, kets[j], bras[j])
        out.append(np.einsum("...bc,bc->...", above, below))
    return out


bond_profiles = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1)
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bra_dims=bond_profiles, ket_bond=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_transfer_kernels_agree_with_overlap_at_every_cut(bra_dims, ket_bond, seed):
    rng = np.random.default_rng(seed)
    n = len(bra_dims) - 1
    a = canonical_mps_with_bonds(bra_dims, rng)
    b = canonical_mps_with_bonds([ket_bond] * (n + 1), rng)
    ref = seqmps.overlap(a, b)
    assert abs(ref - np.vdot(seqmps.to_state_vector(a), seqmps.to_state_vector(b))) < 1e-12
    left = np.outer(b.phi_i, a.phi_i.conj())
    tail = np.outer(b.phi_f.conj(), a.phi_f)
    for value in cut_contractions(left, tail, b.tensors, a.tensors):
        assert abs(value - ref) < 1e-12


@settings(derandomize=True, max_examples=25, deadline=None)
@given(bra_dims=bond_profiles, d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_transfer_kernels_agree_with_fidelity_vector_for_an_open_ket(bra_dims, d, seed):
    # The open final ancilla index of the joint state rides along as the
    # leading axis of the down environment.
    rng = np.random.default_rng(seed)
    n = len(bra_dims) - 1
    a = canonical_mps_with_bonds(bra_dims, rng)
    model = seqmps.GeneratorModel("full_pauli", d)
    inits = gaussian(rng, (n, 2))
    phi_i = gaussian(rng, d)
    p = seqmps.Protocol(
        n=n,
        model=model,
        couplings=rng.uniform(-1.0, 1.0, (n, model.param_count)),
        qubit_inits=inits / np.linalg.norm(inits, axis=1, keepdims=True),
        phi_i=phi_i / np.linalg.norm(phi_i),
        local_ancilla=np.stack([linalg.haar_unitary(d, rng) for _ in range(n)]),
    )
    ref = seqgen.fidelity_vector(p, a)
    ket = seqmps.simulate(p)
    left = np.outer(ket.phi_i, a.phi_i.conj())
    tail = np.einsum("gp,q->gpq", np.eye(d), a.phi_f)
    for value in cut_contractions(left, tail, ket.tensors, a.tensors):
        assert np.abs(value - ref).max() < 1e-12


# The kernels against the three-operand sums of the module docstring, on
# independent bond sizes, so that a transposition or a misplaced conjugate
# shared by both kernels (which the cut tests above would not see) fails.
bonds = st.integers(1, 16)


def relative_gap(got, ref):
    assert got.shape == ref.shape
    return np.abs(got - ref).max() / np.abs(ref).max()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=bonds, b=bonds, c=bonds, d=bonds, seed=st.integers(0, 2**32 - 1))
def test_transfer_up_matches_its_definition(a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    ket, left, bra = gaussian(rng, (2, a, b)), gaussian(rng, (b, c)), gaussian(rng, (2, d, c))
    ref = np.einsum("iab,bc,idc->ad", ket, left, bra.conj())
    assert relative_gap(_transfer_up(left, ket, bra), ref) < 1e-12


@pytest.mark.parametrize("leading", [(), (3,), (2, 3)])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(p=bonds, q=bonds, b=bonds, c=bonds, seed=st.integers(0, 2**32 - 1))
def test_transfer_down_matches_its_definition(leading, p, q, b, c, seed):
    rng = np.random.default_rng(seed)
    tail = gaussian(rng, (*leading, p, q))
    ket, bra = gaussian(rng, (2, p, b)), gaussian(rng, (2, q, c))
    ref = np.einsum("...pq,ipb,iqc->...bc", tail, ket, bra.conj())
    assert relative_gap(_transfer_down(tail, ket, bra), ref) < 1e-12
