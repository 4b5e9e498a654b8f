"""Sequential generation: models, protocols, fidelity and optimization."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqmps
import seqmps.linalg as linalg
import seqmps.seqgen as seqgen
from seqmps import (
    CNOT,
    FidelityReport,
    GeneratorModel,
    InvalidInputError,
    Protocol,
)
from seqmps.mps import _fold_up, _transfer_down

import oracles
from oracles import (
    best_fidelity_dense,
    closed_amplitudes,
    dense_generator,
    dense_joint_state,
    dense_step_unitary,
)


def random_unitary(dim, seed):
    return linalg.haar_unitary(dim, np.random.default_rng(seed))


def random_protocol(model, n, seed, locals_on=True):
    rng = np.random.default_rng(seed)
    lo, hi = model.coupling_interval()
    couplings = rng.uniform(lo, hi, size=(n, model.param_count))
    inits = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    inits /= np.linalg.norm(inits, axis=1)[:, None]
    phi_i = rng.standard_normal(model.d_ancilla) + 1j * rng.standard_normal(model.d_ancilla)
    phi_i /= np.linalg.norm(phi_i)
    stack = None
    if locals_on:
        stack = np.stack([linalg.haar_unitary(model.d_ancilla, rng) for _ in range(n)])
    return Protocol(
        n=n,
        model=model,
        couplings=couplings,
        qubit_inits=inits,
        phi_i=phi_i,
        local_ancilla=stack,
        local_qubit_pre=None
        if not locals_on
        else np.stack([linalg.haar_unitary(2, rng) for _ in range(n)]),
        local_qubit_post=None
        if not locals_on
        else np.stack([linalg.haar_unitary(2, rng) for _ in range(n)]),
    )


SEEDS = st.integers(0, 2**32 - 1)
# (model kind, ancilla dimension) of every protocol kind; "cnot" is xy with a fixed CNOT core.
PROTOCOL_KINDS = st.sampled_from(
    [("xy", 2), ("xxz", 2), ("ion_xy", 2), ("full_pauli", 2), ("full_pauli", 3), ("cnot", 2)]
)


def any_protocol(kind, d, n, seed):
    """random_protocol of the given kind, all local families present."""
    if kind == "cnot":
        p = random_protocol(GeneratorModel("xy"), n, seed)
        return dataclasses.replace(p, couplings=None, fixed_gate=CNOT)
    return random_protocol(GeneratorModel(kind, d), n, seed)


def basis_phi(d, k):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def test_ancilla_operator_basis_is_orthogonal_and_hermitian():
    for d in (2, 3, 4):
        basis = seqgen.ancilla_operator_basis(d)
        assert len(basis) == d * d
        for j, bj in enumerate(basis):
            assert np.abs(bj - bj.conj().T).max() < 1e-12
            for k, bk in enumerate(basis):
                tr = np.trace(bj @ bk)
                if j != k:
                    assert abs(tr) < 1e-12
    two = seqgen.ancilla_operator_basis(2)
    for got, ref in zip(two, oracles.PAULI):
        assert np.abs(got - ref).max() < 1e-12


def test_generator_model_validation():
    with pytest.raises(InvalidInputError):
        GeneratorModel("heisenberg")
    with pytest.raises(InvalidInputError):
        GeneratorModel("xy", d_ancilla=1)
    with pytest.raises(InvalidInputError):
        GeneratorModel("xy", d_ancilla=3)
    for bad in (2.5, "2", 2.0):
        with pytest.raises(InvalidInputError):
            GeneratorModel("full_pauli", bad)
    assert GeneratorModel("full_pauli", np.int64(3)).param_count == 36
    assert GeneratorModel("xy").param_count == 1
    assert GeneratorModel("xxz").param_count == 2
    assert GeneratorModel("ion_xy").param_count == 1
    assert GeneratorModel("full_pauli").param_count == 16
    assert GeneratorModel("full_pauli", d_ancilla=4).param_count == 64
    with pytest.raises(InvalidInputError):
        GeneratorModel("xxz").generator([0.1])


@pytest.mark.parametrize("kind", ["xy", "xxz", "ion_xy", "full_pauli"])
def test_generator_matches_kron_oracle(kind):
    model = GeneratorModel(kind)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.standard_normal(model.param_count)
        h = model.generator(p)
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.abs(h - dense_generator(model, p)).max() < 1e-12


@pytest.mark.parametrize("kind", ["xy", "xxz", "ion_xy", "full_pauli"])
def test_entangler_matches_scipy_expm(kind):
    model = GeneratorModel(kind)
    rng = np.random.default_rng(8)
    for _ in range(8):
        p = rng.standard_normal(model.param_count)
        u = model.entangler(p)
        ref = scipy.linalg.expm(-1j * dense_generator(model, p))
        assert np.abs(u - ref).max() < 1e-12
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_xy_and_xxz_couplings_are_pi_periodic():
    # Shifting any coupling by pi changes the entangler only by a phase, so
    # every fidelity is invariant under the shift.
    target = seqmps.random_mps(4, 2, seed=6)
    for kind in ("xy", "xxz"):
        model = GeneratorModel(kind)
        p = random_protocol(model, 4, seed=40)
        f0 = seqmps.fidelity(p, target).fidelity
        shifted = np.array(p.couplings)
        shifted[2, 0] += np.pi
        p1 = Protocol(
            n=4, model=model, couplings=shifted, qubit_inits=p.qubit_inits,
            phi_i=p.phi_i, local_ancilla=p.local_ancilla,
            local_qubit_pre=p.local_qubit_pre, local_qubit_post=p.local_qubit_post,
        )
        assert abs(seqmps.fidelity(p1, target).fidelity - f0) < 1e-10


def test_ion_coupling_needs_the_full_period():
    model = GeneratorModel("ion_xy")
    u0 = model.entangler([0.4])
    u_pi = model.entangler([0.4 + np.pi])
    u_2pi = model.entangler([0.4 + 2.0 * np.pi])
    # 2 pi is a phase-free period; pi is not even a period up to phase.
    assert np.abs(u_2pi - u0).max() < 1e-12
    ratio = u_pi @ u0.conj().T
    off = ratio - ratio[0, 0] * np.eye(4)
    assert np.abs(off).max() > 0.5
    assert model.coupling_interval() == (0.0, 2.0 * np.pi)
    assert GeneratorModel("xy").coupling_interval() == (0.0, np.pi)


def test_build_step_unitary_factor_order():
    model = GeneratorModel("xxz")
    rng = np.random.default_rng(3)
    params = rng.standard_normal(2)
    ua = random_unitary(2, 10)
    pre = random_unitary(2, 11)
    post = random_unitary(2, 12)
    u = seqgen.build_step_unitary(model, params, ua=ua, ub_pre=pre, ub_post=post)
    core = scipy.linalg.expm(-1j * dense_generator(model, params))
    ref = (
        np.kron(ua, np.eye(2))
        @ np.kron(np.eye(2), pre)
        @ core
        @ np.kron(np.eye(2), post)
    )
    assert np.abs(u - ref).max() < 1e-12
    partial = seqgen.build_step_unitary(model, params, ua=ua)
    assert np.abs(partial - np.kron(ua, np.eye(2)) @ core).max() < 1e-12


def test_build_step_unitary_fixed_gate():
    model = GeneratorModel("xy")
    u = seqgen.build_step_unitary(model, None, fixed_gate=CNOT)
    assert np.abs(u - CNOT).max() == 0.0
    with pytest.raises(InvalidInputError):
        seqgen.build_step_unitary(model, None)
    with pytest.raises(InvalidInputError):
        seqgen.build_step_unitary(model, None, fixed_gate=np.ones((4, 4)))


@pytest.mark.parametrize("slot", ["ua", "ub_pre", "ub_post"])
@pytest.mark.parametrize("bad", ["non_unitary", "nan", "wrong_shape"])
def test_build_step_unitary_checks_locals(slot, bad):
    local = {
        "non_unitary": 2.0 * np.eye(2),
        "nan": np.full((2, 2), np.nan),
        "wrong_shape": np.eye(3),
    }[bad]
    with pytest.raises(InvalidInputError):
        seqgen.build_step_unitary(GeneratorModel("xy"), [0.3], **{slot: local})


def test_fixed_gate_is_checked_when_the_protocol_is_built():
    model = GeneratorModel("xy")
    with pytest.raises(InvalidInputError):
        seqmps.make_protocol(model, 2, fixed_gate=np.ones((4, 4)))
    with pytest.raises(InvalidInputError):
        seqmps.make_protocol(model, 2, fixed_gate=np.eye(3))
    doc = json.loads(seqmps.make_protocol(model, 2, fixed_gate=CNOT).to_json())
    doc["fixed_gate"][0][0] = [2.0, 0.0]
    with pytest.raises(InvalidInputError):
        Protocol.from_json(json.dumps(doc))


def test_cnot_controls_on_the_ancilla():
    ref = np.zeros((4, 4))
    ref[0, 0] = ref[1, 1] = 1.0  # ancilla |0>: qubit untouched
    ref[2, 3] = ref[3, 2] = 1.0  # ancilla |1>: qubit flipped
    assert np.abs(CNOT - ref).max() == 0.0


def test_protocol_validation():
    model = GeneratorModel("xy")
    inits = np.zeros((3, 2), dtype=complex)
    inits[:, 0] = 1.0
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=np.zeros((2, 1)), qubit_inits=inits,
                 phi_i=[1.0, 0.0])
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=None, qubit_inits=inits, phi_i=[1.0, 0.0])
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=np.zeros((3, 1)),
                 qubit_inits=2.0 * inits, phi_i=[1.0, 0.0])
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=np.zeros((3, 1)), qubit_inits=inits,
                 phi_i=[1.0, 1.0])
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=np.zeros((3, 1)), qubit_inits=inits,
                 phi_i=[1.0, 0.0], local_ancilla=np.ones((3, 2, 2)))
    with pytest.raises(InvalidInputError):
        Protocol(n=3, model=model, couplings=np.zeros((3, 1)), qubit_inits=inits,
                 phi_i=[1.0, 0.0], fixed_gate=CNOT)
    for bad in (3.0, 2.5, "3"):
        with pytest.raises(InvalidInputError):
            Protocol(n=bad, model=model, couplings=np.zeros((3, 1)), qubit_inits=inits,
                     phi_i=[1.0, 0.0])
        with pytest.raises(InvalidInputError):
            seqmps.make_protocol(model, bad)
    assert seqmps.make_protocol(model, np.int64(3)).n == 3


PROTOCOL_FIELDS = ["couplings", "qubit_inits", "phi_i", "local_ancilla", "local_qubit_pre",
                   "local_qubit_post", "fixed_gate"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", PROTOCOL_FIELDS)
def test_protocol_refuses_non_finite_fields(field, bad):
    # One non-finite entry is refused when the protocol is built, from
    # arrays or from JSON (Python's json reads NaN and Infinity literals).
    p = any_protocol("cnot" if field == "fixed_gate" else "xy", 2, 3, seed=70)
    a = np.array(getattr(p, field))
    a.flat[0] = bad
    with pytest.raises(InvalidInputError):
        dataclasses.replace(p, **{field: a})
    doc = json.loads(p.to_json())
    entry = doc[field]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = bad
    with pytest.raises(InvalidInputError):
        Protocol.from_json(json.dumps(doc))
    if field == "couplings":
        for kind in ("xy", "xxz", "ion_xy", "full_pauli"):
            model = GeneratorModel(kind)
            with pytest.raises(InvalidInputError):
                model.entangler(np.full(model.param_count, bad))


def test_make_protocol_defaults():
    model = GeneratorModel("xy")
    p = seqmps.make_protocol(model, 4, with_ancilla=True)
    assert p.n == 4
    assert np.all(p.couplings == 0.0)
    assert np.array_equal(p.qubit_inits[:, 0], np.ones(4))
    assert np.array_equal(p.phi_i, [1.0, 0.0])
    assert all(np.array_equal(u, np.eye(2)) for u in p.local_ancilla)
    assert p.local_qubit_pre is None
    fixed = seqmps.make_protocol(model, 3, fixed_gate=CNOT)
    assert fixed.couplings is None


def test_step_isometry_is_isometric_and_matches_dense():
    for kind, seed in (("xy", 1), ("xxz", 2), ("ion_xy", 3), ("full_pauli", 4)):
        p = random_protocol(GeneratorModel(kind), 3, seed=seed)
        for k, v in enumerate(seqmps.simulate(p).tensors, start=1):
            d = p.model.d_ancilla
            mat = v.reshape(2 * d, d)
            assert np.abs(mat.conj().T @ mat - np.eye(d)).max() < 1e-12
            u4 = dense_step_unitary(p, k).reshape(d, 2, d, 2)
            ref = np.einsum("aibj,j->iab", u4, p.qubit_inits[k - 1])
            assert np.abs(v - ref).max() < 1e-12


def test_simulate_matches_dense_joint_state():
    for kind, seed in (("xy", 21), ("xxz", 22), ("full_pauli", 23)):
        model = GeneratorModel(kind)
        p = random_protocol(model, 4, seed=seed)
        m = seqmps.simulate(p)
        assert m.open_final
        assert oracles.isometry_residual(m) < 1e-12
        joint = dense_joint_state(p)
        for a in range(model.d_ancilla):
            closed = m.with_phi_f(basis_phi(model.d_ancilla, a))
            assert np.abs(seqmps.to_state_vector(closed) - joint[a]).max() < 1e-10
        total = float((np.abs(joint) ** 2).sum())
        assert abs(total - 1.0) < 1e-12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=PROTOCOL_KINDS, n=st.integers(2, 5), seed=SEEDS)
def test_protocol_json_round_trip(kind, n, seed):
    p = any_protocol(*kind, n, seed)
    saved = p.to_json()
    back = Protocol.from_json(saved)
    assert back.to_json() == saved  # shortest-repr floats: equal text is equal bits
    assert back.n == p.n
    assert back.model == p.model
    for name in PROTOCOL_FIELDS:
        a, b = getattr(p, name), getattr(back, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    target = seqmps.random_mps(n, 2, seed=1)
    assert seqmps.fidelity(back, target).fidelity == seqmps.fidelity(p, target).fidelity
    doc = json.loads(saved)
    for text in (
        '{"schema": "nope"}',
        json.dumps({"schema": doc["schema"]}),  # missing fields
        json.dumps({**doc, "model": 5}),  # wrong type
        json.dumps({**doc, "model": "xxz"}),
        json.dumps({**doc, "phi_i": [[1.0, 0.0], [1.0]]}),  # ragged pairs
        "not json",
    ):
        with pytest.raises(InvalidInputError):
            Protocol.from_json(text)


@pytest.mark.parametrize("kind,seed", [("xy", 50), ("xxz", 51), ("full_pauli", 52)])
def test_fidelity_matches_dense_simulation(kind, seed):
    model = GeneratorModel(kind)
    rng = np.random.default_rng(seed)
    for case in range(5):
        n = int(rng.integers(2, 6))
        p = random_protocol(model, n, seed=seed * 100 + case)
        target = seqmps.random_mps(n, int(rng.integers(1, 5)), seed=seed + case)
        report = seqmps.fidelity(p, target)
        ref = best_fidelity_dense(p, seqmps.to_state_vector(target))
        assert abs(report.fidelity - ref) < 1e-10
        assert abs(report.cost - 2.0 * (1.0 - report.fidelity)) < 1e-12
        # phi_f_optimal attains the reported fidelity.
        amp = closed_amplitudes(p, report.phi_f_optimal)
        got = abs(np.vdot(seqmps.to_state_vector(target), amp))
        assert abs(got - report.fidelity) < 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=PROTOCOL_KINDS, n=st.integers(2, 5), bond=st.integers(1, 4), seed=SEEDS)
def test_fidelity_is_invariant_under_a_target_gauge(kind, n, bond, seed):
    p = any_protocol(*kind, n, seed)
    target = seqmps.random_mps(n, bond, seed)
    rng = np.random.default_rng(seed)
    # G_k on bond k: site k + 1 becomes G_{k+1} A G_k^-1, phi_i G_0 phi_i and
    # phi_f G_n^-dag phi_f.  Column scales in [0.5, 2] keep every G_k's
    # condition number at most 4.
    gauges = [linalg.haar_unitary(dim, rng) * rng.uniform(0.5, 2.0, dim)
              for dim in target.bond_dims]
    inverses = [np.linalg.inv(g) for g in gauges]
    tensors = [gauges[k + 1] @ t @ inverses[k] for k, t in enumerate(target.tensors)]
    gauged = seqmps.Mps(tensors, gauges[0] @ target.phi_i, inverses[n].conj().T @ target.phi_f)
    f = seqmps.fidelity(p, target).fidelity
    assert abs(seqmps.fidelity(p, gauged).fidelity - f) <= 1e-12


def test_phi_f_optimal_dominates_random_choices():
    p = random_protocol(GeneratorModel("xy"), 4, seed=60)
    target = seqmps.random_mps(4, 2, seed=61)
    report = seqmps.fidelity(p, target)
    tvec = seqmps.to_state_vector(target)
    rng = np.random.default_rng(62)
    for _ in range(200):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        assert abs(np.vdot(tvec, closed_amplitudes(p, phi))) <= report.fidelity + 1e-10


def test_fidelity_report_validation():
    with pytest.raises(InvalidInputError):
        FidelityReport(fidelity=1.5, cost=-1.0, phi_f_optimal=np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        FidelityReport(fidelity=0.5, cost=0.5, phi_f_optimal=np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        FidelityReport(
            fidelity=0.5, cost=1.0, phi_f_optimal=np.array([1.0, 0.0]),
            history=[0.2, 0.4],
        )
    r = FidelityReport(fidelity=0.75, cost=0.5, phi_f_optimal=np.array([1.0, 0.0]))
    assert r.one_minus_f == 0.25
    doc = r.to_json_dict()
    assert doc["one_minus_f"] == 0.25
    assert doc["converged"] is True


def test_fidelity_requires_matching_closed_target():
    p = seqmps.make_protocol(GeneratorModel("xy"), 3)
    with pytest.raises(InvalidInputError):
        seqmps.fidelity(p, seqmps.ghz_state(4))
    open_target = seqmps.simulate(p)
    with pytest.raises(InvalidInputError):
        seqmps.fidelity(p, open_target)
    # Scaling every site by 2 (or 1/2) gives a target of norm 8 (or 1/8).
    target = seqmps.random_mps(3, 2, seed=1)
    for scale in (2.0, 0.5):
        scaled = seqmps.Mps([scale * t for t in target.tensors], target.phi_i, target.phi_f)
        with pytest.raises(InvalidInputError):
            seqmps.fidelity(p, scaled)
        with pytest.raises(InvalidInputError):
            seqmps.optimize(p, scaled, seqmps.default_config(max_sweeps=1, restarts=1))


def test_exact_construction_reaches_bond_two_targets():
    # Embedding the site isometries of a bond-2 target into full_pauli step
    # unitaries must reproduce it with fidelity 1, no optimization involved.
    for target in (
        seqmps.ghz_state(4),
        seqmps.w_state(5),
        seqmps.cluster_state(4),
        seqmps.random_mps(5, 2, seed=71),
    ):
        p = oracles.exact_protocol_from_mps(target, seqmps)
        report = seqmps.fidelity(p, target)
        assert report.one_minus_f < 1e-10


def test_optimize_w4_with_ancilla_rotations():
    # xy couplings plus per-step ancilla rotations generate W exactly when
    # the ancilla starts in |1>.
    target = seqmps.w_state(4)
    model = GeneratorModel("xy")
    p0 = seqmps.make_protocol(model, 4, phi_i=[0.0, 1.0], with_ancilla=True)
    p, report = seqmps.optimize(p0, target, seqmps.default_config(seed=2))
    assert report.one_minus_f < 1e-8
    assert np.all(np.diff(np.asarray(report.history)) <= 1e-12)
    # The report is faithful: re-evaluating the returned protocol agrees.
    again = seqmps.fidelity(p, target)
    assert abs(again.fidelity - report.fidelity) < 1e-12


def test_optimize_w4_couplings_only_stays_frozen():
    # Without local rotations the xy entangler cannot move |0,0>, so the
    # whole chain stays in the initial product state and the fidelity is 0.
    target = seqmps.w_state(4)
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 4)
    p, report = seqmps.optimize(p0, target, seqmps.default_config(seed=0, restarts=3))
    assert report.fidelity < 1e-12
    joint = dense_joint_state(p)
    ref = np.zeros_like(joint)
    ref[0, 0] = 1.0
    assert np.abs(np.abs(joint) - np.abs(ref)).max() < 1e-12


def test_optimize_w4_couplings_only_excited_ancilla():
    # Seeding the ancilla in |1> instead restores full reachability of W
    # for bare xy couplings.
    target = seqmps.w_state(4)
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 4, phi_i=[0.0, 1.0])
    _, report = seqmps.optimize(p0, target, seqmps.default_config(seed=0))
    assert report.one_minus_f < 1e-8


def test_optimize_w5_ion_model():
    # The ion chain needs the last qubit prepared in |1>; couplings alone
    # then reach W exactly.
    n = 5
    target = seqmps.w_state(n)
    inits = np.zeros((n, 2), dtype=complex)
    inits[:, 0] = 1.0
    inits[n - 1] = (0.0, 1.0)
    p0 = seqmps.make_protocol(GeneratorModel("ion_xy"), n, qubit_inits=inits)
    p, report = seqmps.optimize(p0, target, seqmps.default_config(seed=0))
    assert report.one_minus_f < 1e-8
    # Re-simulating the stored protocol reproduces the reported fidelity.
    m = seqmps.simulate(p).with_phi_f(report.phi_f_optimal)
    ov = abs(seqmps.overlap(target, m))
    assert abs(ov - report.fidelity) < 1e-12


def test_optimize_is_deterministic():
    target = seqmps.random_mps(3, 2, seed=81)
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 3, with_ancilla=True)
    cfg = seqmps.default_config(seed=5, restarts=2, max_sweeps=40)
    _, a = seqmps.optimize(p0, target, cfg)
    _, b = seqmps.optimize(p0, target, cfg)
    assert a.fidelity == b.fidelity
    assert a.sweeps == b.sweeps
    assert a.restarts_used == b.restarts_used


def test_optimize_monotone_history_all_variants():
    target = seqmps.random_mps(4, 2, seed=90)
    cfg = seqmps.default_config(seed=1, max_sweeps=60, restarts=1, good_enough=None)
    for variant in ("bare", "ancilla", "full"):
        if variant == "bare":
            p0 = seqmps.make_protocol(GeneratorModel("xxz"), 4)
        elif variant == "ancilla":
            p0 = seqmps.make_protocol(GeneratorModel("xxz"), 4, with_ancilla=True)
        else:
            p0 = seqmps.make_protocol(
                GeneratorModel("xy"), 4, with_ancilla=True,
                with_qubit_pre=True, with_qubit_post=True,
            )
        _, report = seqmps.optimize(p0, target, cfg)
        h = np.asarray(report.history)
        assert h.size > 0
        assert np.all(np.diff(h) <= 1e-12)
        assert abs(h[-1] - report.cost) < 1e-9


@pytest.fixture(scope="module")
def all_locals_optimum():
    # A bond-4 target is out of reach of a 2-level ancilla, so the optimum is
    # a genuine one (1-F ~ 2e-3).  The start is generic: from identity locals
    # and |0> inits the qubit post-rotation only ever acts on |0>, so a wrong
    # environment for it would go unseen.
    target = seqmps.random_mps(4, 4, seed=1)
    p0 = random_protocol(GeneratorModel("xy"), 4, seed=2)
    p, report = seqmps.optimize(p0, target, seqmps.default_config(seed=2, restarts=1))
    assert report.one_minus_f > 1e-4
    return target, p, report


@pytest.mark.parametrize("field", ["local_ancilla", "local_qubit_pre", "local_qubit_post"])
def test_optimized_ancilla_rotation_is_procrustes_optimal(all_locals_optimum, field):
    # At convergence no single per-step local unitary can be improved:
    # 1000 random replacements at one step never increase the fidelity.
    target, p, report = all_locals_optimum
    rng = np.random.default_rng(123)
    for _ in range(1000):
        stack = np.array(getattr(p, field))
        stack[1] = linalg.haar_unitary(stack.shape[1], rng)
        trial = dataclasses.replace(p, **{field: stack})
        assert seqmps.fidelity(trial, target).fidelity <= report.fidelity + 1e-10


@pytest.fixture(scope="module")
def full_pauli_optimum():
    # Bond 4 is out of reach of a 2-level ancilla, so the optimum is a
    # genuine one (1-F ~ 8e-3).
    target = seqmps.random_mps(4, 4, seed=3)
    p0 = seqmps.make_protocol(GeneratorModel("full_pauli"), 4)
    p, report = seqmps.optimize(p0, target, seqmps.default_config())
    assert report.one_minus_f > 1e-4
    return target, p, report


def test_optimized_full_pauli_core_is_procrustes_optimal(full_pauli_optimum):
    # At convergence no replacement of step 2's core, Haar random or a small
    # move exp(-i eps h) away from it, increases the fidelity.
    target, p, report = full_pauli_optimum
    core = p.model.entangler(p.couplings[1])
    rng = np.random.default_rng(124)
    trials = [linalg.haar_unitary(4, rng) for _ in range(1000)]
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            trials.append(linalg.expm_hermitian(eps * (a + a.conj().T)) @ core)
    for u in trials:
        couplings = p.couplings.copy()
        couplings[1] = oracles.pauli_log_couplings(u)
        trial = dataclasses.replace(p, couplings=couplings)
        assert seqmps.fidelity(trial, target).fidelity <= report.fidelity + 1e-10


@pytest.mark.parametrize("seed", [0, 1])
def test_optimize_full_pauli_qutrit_ancilla_reaches_bond_two_targets(seed):
    # A 3-level ancilla reaches these bond-2 targets exactly; the core's
    # Procrustes update finds them within the default restarts.
    p0 = seqmps.make_protocol(GeneratorModel("full_pauli", 3), 3, with_ancilla=True)
    _, report = seqmps.optimize(p0, seqmps.random_mps(3, 2, seed=seed), seqmps.default_config())
    assert report.one_minus_f < 1e-10


def test_optimize_gauge_invariant_fidelity():
    # The optimum depends only on the physical ray of the target, not on
    # its tensor-network presentation.
    target = seqmps.random_mps(3, 2, seed=95)
    ts = [t.copy() for t in target.tensors]
    rng = np.random.default_rng(96)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ts[1] = np.einsum("iab,bc->iac", ts[1], np.linalg.inv(g))
    ts[0] = np.einsum("ab,ibc->iac", g, ts[0])
    gauged = seqmps.Mps(ts, target.phi_i, target.phi_f)
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 3, with_ancilla=True)
    cfg = seqmps.default_config(seed=3)
    _, a = seqmps.optimize(p0, target, cfg)
    _, b = seqmps.optimize(p0, gauged, cfg)
    assert abs(a.fidelity - b.fidelity) < 1e-10


def full_local_start(n):
    """xy protocol with all three local unitary families, as identities."""
    return seqmps.make_protocol(
        GeneratorModel("xy"), n, with_ancilla=True, with_qubit_pre=True, with_qubit_post=True
    )


def test_optimize_full_local_random_target():
    target = seqmps.random_mps(3, 2, seed=14)
    p, report = seqmps.optimize(full_local_start(3), target, seqmps.default_config(seed=0))
    assert report.one_minus_f < 1e-8
    assert p.local_ancilla is not None
    assert p.local_qubit_pre is not None
    assert p.local_qubit_post is not None


def test_optimize_full_local_ghz5():
    target = seqmps.ghz_state(5)
    _, report = seqmps.optimize(full_local_start(5), target, seqmps.default_config(seed=0))
    assert report.one_minus_f < 1e-8


def test_cnot_with_locals_fails_some_targets():
    # A fixed CNOT entangler with arbitrary local rotations is not enough
    # for generic bond-2 targets but handles product states exactly.
    model = GeneratorModel("xy")
    product = seqmps.from_state_vector(
        seqmps.to_state_vector(seqmps.random_mps(4, 1, seed=7))
    )
    p0 = seqmps.make_protocol(
        model, 4, with_ancilla=True, with_qubit_pre=True, with_qubit_post=True,
        fixed_gate=CNOT,
    )
    _, easy = seqmps.optimize(p0, product, seqmps.default_config(seed=0, restarts=3))
    assert easy.one_minus_f < 1e-8
    hard = seqmps.random_mps(4, 2, seed=0)
    _, report = seqmps.optimize(p0, hard, seqmps.default_config(seed=0, restarts=3))
    assert report.one_minus_f > 1e-3


def random_start(p0, seed):
    """p0's structure at a random point of default_rng(seed), drawn one matrix at a time.

    The couplings are uniform over the coupling box, then each local field
    takes one haar_unitary per step.
    """
    rng = np.random.default_rng(seed)
    lo, hi = p0.model.coupling_interval()
    couplings = None if p0.couplings is None else rng.uniform(lo, hi, size=p0.couplings.shape)
    stacks = {name: None if getattr(p0, name) is None
              else np.stack([linalg.haar_unitary(len(u), rng) for u in getattr(p0, name)])
              for name in ("local_ancilla", "local_qubit_pre", "local_qubit_post")}
    return dataclasses.replace(p0, couplings=couplings, **stacks)


def restart_starts(p0, cfg):
    """The start point of each of cfg.restarts runs: p0, then seeded random points."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return [p0] + [random_start(p0, s) for s in seeds[1:]]


@pytest.mark.parametrize("kind, d, gate", [("xy", 2, None), ("xy", 2, CNOT), ("full_pauli", 3, None)],
                         ids=["xy", "cnot", "full_pauli-3"])
def test_wave_starts_are_each_restarts_own_draws(kind, d, gate):
    # A wave's starts, drawn per field in stacks and phase-fixed by one QR,
    # are byte for byte the records of each restart drawn alone.
    p0 = seqmps.make_protocol(GeneratorModel(kind, d), 3, with_ancilla=True, with_qubit_pre=True,
                              with_qubit_post=True, fixed_gate=gate)
    cfg = seqmps.default_config(seed=9, restarts=5)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = restart_starts(p0, cfg)
    for wave in (range(1), range(2), range(2, 5)):
        got = seqgen._wave_params(p0, seeds, wave)
        want = [starts[r]._params for r in wave]
        assert got.keys() == want[0].keys()
        for key, a in got.items():
            stacked = np.stack([w[key] for w in want], axis=1)
            assert (a.dtype, a.shape, a.tobytes()) == (stacked.dtype, stacked.shape, stacked.tobytes())


def test_optimize_respects_restart_budget():
    # Of these four restarts the third is the first to reach good_enough (the
    # fourth reaches it in the same sweep), so the fourth's run does not count.
    target = seqmps.w_state(4)
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 4, phi_i=[0.0, 1.0], with_ancilla=True)
    cfg = seqmps.default_config(seed=5, restarts=4, good_enough=None, max_sweeps=30)
    _, report = seqmps.optimize(p0, target, cfg)
    assert report.restarts_used == 4
    cfg_short = dataclasses.replace(cfg, good_enough=seqmps.default_config().good_enough)
    _, early = seqmps.optimize(p0, target, cfg_short)
    # One plus the index of the first restart whose lone run reaches good_enough.
    lone = dataclasses.replace(cfg_short, restarts=1)
    costs = [seqmps.optimize(s, target, lone)[1].cost for s in restart_starts(p0, cfg_short)]
    first = next(r for r, c in enumerate(costs) if c <= cfg_short.good_enough)
    assert early.restarts_used == first + 1 == 3


def test_later_restarts_wait_for_the_first_batch(monkeypatch):
    # p0's run and the first random start sweep first; the other restarts are
    # built and swept, as one more batch, only if neither reaches good_enough.
    # Without good_enough every restart runs, so they all sweep at once.
    batches, built = [], []
    run_sweeps, wave_params = seqgen._run_sweeps, seqgen._wave_params
    monkeypatch.setattr(seqgen, "_run_sweeps", lambda st, cfg: batches.append(len(st.rows)) or run_sweeps(st, cfg))
    monkeypatch.setattr(seqgen, "_wave_params", lambda p, seeds, wave:
                        built.extend(r for r in wave if r > 0) or wave_params(p, seeds, wave))
    p0 = seqmps.make_protocol(GeneratorModel("xy"), 3, with_ancilla=True, with_qubit_pre=True,
                              with_qubit_post=True, fixed_gate=CNOT)
    product, hard = seqmps.random_mps(3, 1, seed=4), seqmps.random_mps(3, 2, seed=0)
    cfg = seqmps.default_config(seed=0, restarts=5, max_sweeps=4)
    # (target, config, batch sizes, random starts built, restarts_used)
    cases = [(product, cfg, [2], 1, 1), (hard, cfg, [2, 3], 4, 5),
             (hard, dataclasses.replace(cfg, good_enough=None), [5], 4, 5)]
    for target, case_cfg, want_batches, want_built, want_used in cases:
        batches.clear()
        built.clear()
        _, report = seqmps.optimize(p0, target, case_cfg)
        assert (batches, len(built), report.restarts_used) == (want_batches, want_built, want_used)


# Runs an xy, a CNOT and a full_pauli optimize at d = 2 and 3, then lists the scipy modules loaded.
XY_AND_CNOT = """
import sys
import seqmps
from seqmps import CNOT, GeneratorModel, default_config, make_protocol, optimize, random_mps

xy = make_protocol(GeneratorModel("xy"), 3, phi_i=[0.0, 1.0], with_ancilla=True)
optimize(xy, random_mps(3, 2, seed=1), default_config(max_sweeps=8, restarts=2))
cnot = make_protocol(GeneratorModel("xy"), 2, with_ancilla=True, with_qubit_pre=True,
                     with_qubit_post=True, fixed_gate=CNOT)
optimize(cnot, random_mps(2, 2, seed=2), default_config(max_sweeps=8, restarts=2))
for d in (2, 3):
    full = make_protocol(GeneratorModel("full_pauli", d), 3, with_ancilla=True)
    optimize(full, random_mps(3, 2, seed=d), default_config(max_sweeps=8, restarts=2))
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
"""


def test_xy_and_cnot_optimization_do_not_import_scipy_linalg():
    # scipy costs set-up time and memory; the extrapolation's powers and
    # polar factors and the full_pauli core's logarithm need only numpy.
    src = str(Path(seqmps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", XY_AND_CNOT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_default_config_values():
    cfg = seqmps.default_config()
    assert cfg.restarts == 5
    assert cfg.max_sweeps == 500
    assert cfg.tol == 1e-12
    override = seqmps.default_config(restarts=np.int64(2), seed=7)
    assert override.restarts == 2
    assert override.seed == 7
    with pytest.raises(InvalidInputError):
        seqmps.default_config(restarts=0)
    for bad in (
        {"max_sweeps": 0},
        {"tol": float("nan")},
        {"good_enough": float("inf")},
        {"max_sweeps": 2.5},
        {"restarts": 2.5},
        {"seed": 1.5},
    ):
        with pytest.raises(InvalidInputError):
            seqmps.default_config(**bad)


def random_step_environments(rng, d, bonds):
    """Gaussian l_env, target site, t_env and a unit qubit init for one step."""

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    below, above = bonds
    init = gaussian(2)
    init /= np.linalg.norm(init)
    return gaussian(d, below), gaussian(2, above, below), gaussian(d, d, above), init


BONDS = st.lists(st.integers(1, 4), min_size=2, max_size=2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), bonds=BONDS, seed=SEEDS)
def test_step_map_matches_its_definition(d, bonds, seed):
    rng = np.random.default_rng(seed)
    l_env, bra, t_env, init = random_step_environments(rng, d, bonds)
    u, w = (linalg.haar_unitary(2 * d, rng) for _ in range(2))
    kmat = seqgen._step_map(l_env, bra, t_env, init)
    v = kmat @ u.ravel()
    # The two-tensordot evaluation the map replaces.
    site = np.tensordot(u.reshape(d, 2, d, 2), init, axes=([3], [0])).transpose(1, 0, 2)
    bt = np.einsum("bc,idc->ibd", l_env, bra.conj())
    x = np.tensordot(site, bt, axes=([0, 2], [0, 1]))
    ref = t_env.reshape(d, -1) @ x.reshape(-1)
    scale = np.abs(kmat).sum()
    assert np.abs(v - ref).max() <= 1e-12 * scale
    assert np.abs(seqgen._step_isometry(u, init, d) - site).max() <= 1e-12
    # The frozen-phi_f environment gives Re tr(W env) = Re(phi^dag K vec(W)).
    env = seqgen._frozen_env(kmat, v, np.linalg.norm(v))
    phi = v / np.linalg.norm(v)
    for x in (u, w):
        assert abs(np.trace(x @ env).real - (phi.conj() @ kmat @ x.ravel()).real) <= 1e-12 * scale


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    near=st.sampled_from([None, 1.0, -1.0]),
    spread=st.sampled_from([1e-12, 1e-7, 1e-3]),
    seed=SEEDS,
)
def test_log_couplings_reproduce_the_unitary(d, near, spread, seed):
    rng = np.random.default_rng(seed)
    u = linalg.haar_unitary(2 * d, rng)
    if near is not None:
        # Eigenphases within spread of 0 (near = 1) or of pi (near = -1).
        u = near * (u * np.exp(1j * spread * rng.standard_normal(2 * d))) @ u.conj().T
    couplings = seqgen._log_couplings(u)
    assert np.abs(GeneratorModel("full_pauli", d).entangler(couplings) - u).max() <= 1e-12
    # Near -1 the principal logarithm jumps across its branch cut inside a
    # cluster, so the couplings themselves are ill-conditioned there.
    if d == 2 and near != -1.0:
        assert np.abs(couplings - oracles.pauli_log_couplings(u)).max() <= 1e-10


# Squaring a power doubles its error and adds a few roundoffs of a d x d
# matmul and SVD (d <= 3), so the 2^k-th power is off by at most beta times a
# small multiple of eps; so is the Schur reference, whose eigenphases are
# multiplied by beta.  The worst of 3000 seeded draws was 11.3 beta eps.
POWER_ATOL_PER_BETA = 32.0 * np.finfo(float).eps


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    near=st.sampled_from([None, 1.0, -1.0]),
    spread=st.sampled_from([1e-12, 1e-7, 1e-3]),
    seed=SEEDS,
)
def test_projected_squares_are_the_integer_powers(d, near, spread, seed):
    rng = np.random.default_rng(seed)
    delta = linalg.haar_unitary(d, rng)
    if near is not None:
        # Eigenphases within spread of 0 (near = 1) or of pi (near = -1).
        delta = near * (delta * np.exp(1j * spread * rng.standard_normal(d))) @ delta.conj().T
    power = delta[None]
    for k in range(9):
        beta = 2.0**k
        err = np.abs(power[0] - oracles.unitary_power(delta, beta)).max()
        assert err <= beta * POWER_ATOL_PER_BETA
        assert np.abs(power[0].conj().T @ power[0] - np.eye(d)).max() <= 1e-13
        power = seqgen._projected_square(power)


BELL_COUPLINGS = st.sampled_from([("xy", 0), ("xxz", 0), ("xxz", 1), ("ion_xy", 0)])


def bell_coupling_case(kind_m, bonds, seed):
    """Harmonics of one coupling with random locals in all three slots, and the brute |v|^2."""
    kind, m = kind_m
    model = GeneratorModel(kind)
    rng = np.random.default_rng(seed)
    kmat = seqgen._step_map(*random_step_environments(rng, 2, bonds))
    kmat /= 2.0 * np.linalg.norm(kmat, 2)  # |v| <= 1 for every 4x4 unitary
    lo, hi = model.coupling_interval()
    params = rng.uniform(lo, hi, model.param_count)
    ua, pre, post = (linalg.haar_unitary(2, rng)[None] for _ in range(3))
    p = Protocol(1, model, params[None], [[1.0, 0.0]], [1.0, 0.0], ua, pre, post)
    chain = [(slot, f[0]) for slot, f in seqgen._chain(p, p._params, (1,))]
    j = [slot for slot, _ in chain].index("core")
    coef = seqgen._coupling_harmonics(model, params, m, seqgen._factor_map(chain, j, kmat))

    def brute(theta):
        trial = params.copy()
        trial[m] = theta
        chain[j] = ("core", model.entangler(trial))
        return np.linalg.norm(kmat @ seqgen._product(chain).ravel()) ** 2

    return coef, brute, (lo, hi), rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind_m=BELL_COUPLINGS, bonds=BONDS, seed=SEEDS)
def test_coupling_harmonics_give_the_exact_profile(kind_m, bonds, seed):
    coef, brute, (lo, hi), rng = bell_coupling_case(kind_m, bonds, seed)
    for theta in rng.uniform(lo - 1.0, hi + 1.0, 8):
        ph = 2.0 * np.pi * theta / (hi - lo)
        profile = seqgen._harmonic_sum(coef, np.exp(1j * ph), np.exp(2j * ph))
        assert abs(profile - brute(theta)) <= 1e-12


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kind_m=BELL_COUPLINGS, bonds=BONDS, seed=SEEDS)
def test_coupling_argmax_beats_a_dense_grid(kind_m, bonds, seed):
    coef, brute, (lo, hi), rng = bell_coupling_case(kind_m, bonds, seed)
    # The old coupling is kept only where the maximizer would be lower.
    old = rng.uniform(lo, hi)
    best = brute(seqgen._coupling_argmax(coef, hi - lo, old))
    assert best >= max(brute(theta) for theta in [old, *np.linspace(lo, hi, 2000)]) - 1e-12


# Every sweep runs to the cap and (for these starts) some rows accept
# extrapolations in some sweeps and not in others.
KEEP_TARGET = seqmps.random_mps(5, 2, seed=11)
KEEP_START = random_protocol(GeneratorModel("xy"), 5, seed=12)
KEEP_CFG = seqmps.default_config(tol=0.0, max_sweeps=6, restarts=3, good_enough=None)


def counting_extrapolations(monkeypatch):
    """Record, per sweep, which batch rows took an extrapolation."""
    extrapolate = seqgen._extrapolate_sweep
    accepted = []

    def counted(st):
        taken = extrapolate(st)
        accepted.append(taken)
        return taken

    monkeypatch.setattr(seqgen, "_extrapolate_sweep", counted)
    return accepted


def some_but_not_all(accepted):
    taken = np.concatenate(accepted)
    return taken.any() and not taken.all()


def test_kept_environments_equal_a_fresh_fold(monkeypatch):
    sweep_once = seqgen._sweep_once
    walks = []

    def fresh(st):
        n, d, phi_f = st.start.n, st.d, KEEP_TARGET.phi_f
        left = np.outer(st.start.phi_i, KEEP_TARGET.phi_i.conj())
        lefts = [_fold_up(left, st.v_sites[:k], st.at[:k]) for k in range(n)]
        tails = [None] * (n - 1) + [np.eye(d)[:, :, None] * phi_f]
        for k in range(n - 1, 0, -1):
            tails[k - 1] = _transfer_down(tails[k], st.v_sites[k][:, None], st.at[k])
        return lefts, tails

    def same(kept, fold):
        # Whole stacks: every restart's environment, bit for bit.
        return all(np.array_equal(a, b) for a, b in zip(kept, fold, strict=True))

    def checked(st, up):
        # The side ahead of the walk is kept from earlier; the side behind it is rebuilt.
        assert same(st.tails, fresh(st)[1]) if up else same(st.lefts, fresh(st)[0])
        sweep_once(st, up)
        assert same(st.lefts, fresh(st)[0]) if up else same(st.tails, fresh(st)[1])
        walks.append(up)

    monkeypatch.setattr(seqgen, "_sweep_once", checked)
    accepted = counting_extrapolations(monkeypatch)
    _, report = seqmps.optimize(KEEP_START, KEEP_TARGET, KEEP_CFG)
    assert report.sweeps == KEEP_CFG.max_sweeps
    assert walks == [True, False] * report.sweeps
    assert some_but_not_all(accepted)


def test_extrapolation_restores_or_rebuilds_the_sites(monkeypatch):
    extrapolate = seqgen._extrapolate_sweep
    accepted = []

    def rows(st):
        """The bytes of each batch row's parameters and sites."""
        return [[a[:, j].tobytes() for a in st.params.values()] + [s[j].tobytes() for s in st.v_sites]
                for j in range(len(st.rows))]

    def checked(st):
        before = rows(st)
        taken = extrapolate(st)
        accepted.append(taken)
        fresh = seqgen._sites(st.start, seqgen._chain(st.start, st.params, (st.start.n, len(st.rows))))
        for j, after in enumerate(rows(st)):
            if taken[j]:
                for f, site in zip(fresh, st.v_sites, strict=True):
                    assert f[j].tobytes() == site[j].tobytes()
            else:
                assert after == before[j]
        return taken

    monkeypatch.setattr(seqgen, "_extrapolate_sweep", checked)
    seqmps.optimize(KEEP_START, KEEP_TARGET, KEEP_CFG)
    assert some_but_not_all(accepted)


def test_each_walk_folds_each_passed_step_once(monkeypatch):
    calls = []
    for name in ("_transfer_up", "_transfer_down"):
        kernel = getattr(seqgen, name)
        monkeypatch.setattr(seqgen, name, lambda *a, kernel=kernel: calls.append(1) or kernel(*a))
    accepted = counting_extrapolations(monkeypatch)
    _, report = seqmps.optimize(KEEP_START, KEEP_TARGET, KEEP_CFG)
    n = KEEP_TARGET.n
    # One call folds a step for every restart.  The tails are folded at the
    # start and after each sweep in which some restart took an extrapolation,
    # then each half-sweep folds n - 1 steps behind it.
    assert len(calls) == (n - 1) * (1 + sum(taken.any() for taken in accepted) + 2 * report.sweeps)


UPDATE_STEP = seqgen._update_step


@pytest.mark.parametrize("kind, d", [("xy", 2), ("xxz", 2), ("ion_xy", 2), ("full_pauli", 2),
                                     ("full_pauli", 3), ("cnot", 2)])
def test_walk_turns_reuse_the_step_map_bit_for_bit(monkeypatch, kind, d):
    # A step updated twice in a row (where a walk turns) starts from the map,
    # product and vector its last update ended with.  Every update leaves the
    # same bytes as it does with that reuse switched off.
    turns = []

    def sweep(clear):
        after = []

        def update(st, i):
            turns.append(i in st.kept and not clear)
            if clear:
                st.kept = {}
            UPDATE_STEP(st, i)
            state = [*st.v_sites, *st.lefts, *st.tails, *st.params.values()]
            after.append([a.tobytes() for a in state if a is not None] + [repr(st.history)])

        with monkeypatch.context() as m:
            m.setattr(seqgen, "_update_step", update)
            p, report = seqmps.optimize(any_protocol(kind, d, 3, seed=4), target, cfg)
        return after, p.to_json(), report.history

    target = seqmps.random_mps(3, 2, seed=5)
    cfg = seqmps.default_config(tol=1e-4, max_sweeps=8, restarts=3, good_enough=None, seed=6)
    assert sweep(clear=False) == sweep(clear=True)
    # Each sweep turns at the top step at least: 1 of its 2n = 6 updates.
    assert sum(turns) >= len(turns) // 12


# (model kind, d) of the batch property; "cnot" is xy with a fixed CNOT core.
BATCH_KINDS = st.sampled_from(
    [("xy", 2), ("xxz", 2), ("ion_xy", 2), ("full_pauli", 2), ("full_pauli", 3), ("cnot", 2)]
)


@settings(derandomize=True, max_examples=40, deadline=None)
# Lone runs end at history[-1] 4.4e-16 and 0.0, so optimize picks restart 1,
# while their re-simulated costs would pick restart 0.
@example(kind=("full_pauli", 3), local_flags=(False, False, False), n=2, restarts=2, max_sweeps=1,
         tol=1e-12, good_enough=None, seed=297122)
@given(
    kind=BATCH_KINDS,
    local_flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    n=st.integers(2, 4),
    restarts=st.integers(2, 4),
    max_sweeps=st.integers(1, 12),
    tol=st.sampled_from([1e-12, 1e-6, 1e-3]),
    good_enough=st.sampled_from([None, 1e-10, 5e-2]),
    seed=SEEDS,
)
def test_restarts_batch_as_if_run_alone(kind, local_flags, n, restarts, max_sweeps, tol,
                                        good_enough, seed):
    # Each restart's lone run (restarts=1 from its start point) is what the
    # batch computes for it, bit for bit, and the batch reports the pick of
    # the sequential rule on each run's last history entry: the first run at
    # or below good_enough, else the lowest, the earliest on a tie.  A
    # report's cost is re-simulated from the returned protocol, and a
    # full_pauli core's logm/expm round trip moves its last bits.
    model_kind, d = kind
    ua, pre, post = local_flags
    p0 = seqmps.make_protocol(
        GeneratorModel("xy" if model_kind == "cnot" else model_kind, d), n,
        phi_i=basis_phi(d, 1), with_ancilla=ua, with_qubit_pre=pre, with_qubit_post=post,
        fixed_gate=CNOT if model_kind == "cnot" else None,
    )
    target = seqmps.random_mps(n, 1 + seed % 2, seed)
    cfg = seqmps.default_config(restarts=restarts, max_sweeps=max_sweeps, tol=tol,
                                good_enough=good_enough, seed=seed % 1000)
    lone_cfg = dataclasses.replace(cfg, restarts=1)
    lone = [seqmps.optimize(s, target, lone_cfg) for s in restart_starts(p0, cfg)]
    pick = None
    for used, (p, report) in enumerate(lone, start=1):
        if pick is None or report.history[-1] < pick[1].history[-1]:
            pick = (p, report)
        if good_enough is not None and report.history[-1] <= good_enough:
            break
    p, report = seqmps.optimize(p0, target, cfg)
    want_p, want = pick
    assert report.history == want.history
    assert (report.sweeps, report.converged) == (want.sweeps, want.converged)
    assert report.restarts_used == used
    assert report.fidelity == want.fidelity
    assert p.to_json() == want_p.to_json()
