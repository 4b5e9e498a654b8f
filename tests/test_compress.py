"""Compression routines against dense distances and brute-force optima."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqmps
import seqmps.compress as compress
from seqmps import InvalidInputError, Mps, OptimizationConfig
from seqmps.mps import _fold_up, _transfer_down

from oracles import brute_force_fidelity, dense_from_mps, isometry_residual, schmidt_values


def dense_distance_sq(a, b):
    return float(np.linalg.norm(dense_from_mps(a) - dense_from_mps(b)) ** 2)


def test_truncation_report_matches_dense_distance():
    target = seqmps.xxz_ground(8, 1.0)
    for d_prime in (1, 2, 4):
        trial, report = seqmps.compress_truncation(target, d_prime)
        assert report.method == "truncation"
        assert report.d_prime == d_prime
        assert trial.max_bond <= d_prime
        assert abs(report.error - dense_distance_sq(target, trial)) < 1e-10
        assert abs(report.fidelity - abs(seqmps.overlap(target, trial))) < 1e-12
        assert report.sweeps == 0
        assert report.sweep_history == []


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["random", "xxz"]),
    n=st.integers(2, 12),
    bond=st.integers(2, 8),
    delta=st.floats(-0.9, 2.0),
    d_prime=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="xxz", n=10, bond=2, delta=1.0, d_prime=2, seed=0)
def test_truncation_error_is_bounded_by_discarded_weight(kind, n, bond, delta, d_prime, seed):
    # Each cut's truncation costs at most its discarded Schmidt weight eps in
    # squared distance (Verstraete & Cirac, PRB 73, 094423 (2006)), so the
    # error is at most 2 sum(eps).  It can exceed sum(eps) itself: the
    # ratio error / sum(eps) reaches 1.10 on random targets.
    target = seqmps.random_mps(n, bond, seed=seed) if kind == "random" else seqmps.xxz_ground(10, delta)
    psi = seqmps.to_state_vector(target)
    eps = sum(float(np.sum(schmidt_values(psi, cut)[d_prime:] ** 2)) for cut in range(1, target.n))
    _, report = seqmps.compress_truncation(target, d_prime)
    assert report.error <= 2.0 * eps + 1e-12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["random", "xxz", "cluster"]),
    n=st.integers(2, 8),
    bond=st.integers(2, 6),
    d_prime=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="xxz", n=8, bond=2, d_prime=1, seed=0)
@example(kind="xxz", n=8, bond=2, d_prime=2, seed=0)
@example(kind="xxz", n=8, bond=2, d_prime=3, seed=0)
@example(kind="random", n=7, bond=6, d_prime=1, seed=5)
@example(kind="random", n=7, bond=6, d_prime=2, seed=5)
@example(kind="random", n=7, bond=6, d_prime=3, seed=5)
@example(kind="cluster", n=6, bond=2, d_prime=1, seed=0)
@example(kind="cluster", n=6, bond=2, d_prime=2, seed=0)
@example(kind="cluster", n=6, bond=2, d_prime=3, seed=0)
def test_variational_dominates_truncation(kind, n, bond, d_prime, seed):
    spec = seqmps.TargetSpec(kind, n, bond=bond if kind == "random" else None, seed=seed)
    target = seqmps.make_target(spec)
    _, tr = seqmps.compress_truncation(target, d_prime)
    trial, var = seqmps.compress_variational(target, d_prime)
    assert var.error <= tr.error + 1e-12
    assert abs(var.error - 2.0 * (1.0 - seqmps.overlap(target, trial).real)) < 1e-12
    assert isometry_residual(trial) < 1e-10


def test_variational_report_contract():
    target = seqmps.xxz_ground(8, 1.0)
    trial, report = seqmps.compress_variational(target, 3)
    assert report.method == "variational"
    assert trial.max_bond <= 3
    assert isometry_residual(trial) < 1e-10
    assert abs(seqmps.norm(trial) - 1.0) < 1e-10
    assert abs(report.error - dense_distance_sq(target, trial)) < 1e-8
    history = np.asarray(report.sweep_history)
    assert history.size == 2 * report.sweeps
    assert np.all(np.diff(history) <= 1e-12)
    assert report.error == history[-1]
    assert report.converged


def test_variational_zero_sweeps_when_capacity_suffices():
    target = seqmps.random_mps(6, 3, seed=2)
    trial, report = seqmps.compress_variational(target, 3)
    assert report.sweeps == 0
    assert report.error <= 1e-12
    assert abs(abs(seqmps.overlap(target, trial)) - 1.0) < 1e-10


def test_variational_single_cut_hits_schmidt_optimum():
    psi = seqmps.to_state_vector(seqmps.random_mps(2, 2, seed=11))
    target = seqmps.from_state_vector(psi)
    _, report = seqmps.compress_variational(target, 1)
    top = schmidt_values(psi, 1)[0]
    assert abs(report.fidelity - top) < 1e-10


@pytest.mark.parametrize("d_prime", [1, 2])
def test_variational_matches_brute_force(d_prime):
    # A generic descent over raw tensors must not find a better bond-d'
    # approximation than the sweeping solver.
    target = seqmps.random_mps(4, 4, seed=23)
    _, report = seqmps.compress_variational(target, d_prime)
    bf = brute_force_fidelity(seqmps.to_state_vector(target), d_prime, tries=4, seed=1)
    assert report.fidelity >= bf - 1e-6


def regauged(m, rng):
    """The state of m with a random invertible matrix inserted, with its inverse, on every bond."""
    dims = m.bond_dims
    gauges = []
    for dim in dims:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gauges.append(g + 2.0 * np.sqrt(dim) * np.eye(dim))
    inverses = [np.linalg.inv(g) for g in gauges]
    tensors = [gauges[k + 1] @ t @ inverses[k] for k, t in enumerate(m.tensors)]
    return Mps(tensors, gauges[0] @ m.phi_i, inverses[-1].conj().T @ m.phi_f)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    n=st.integers(2, 7),
    bond=st.integers(1, 6),
    d_prime=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_compression_is_gauge_invariant(n, bond, d_prime, seed):
    target = seqmps.random_mps(n, bond, seed=seed)
    gauged = regauged(target, np.random.default_rng(seed))
    assert isometry_residual(gauged) > 1e-3
    assert abs(seqmps.overlap(target, gauged) - 1.0) < 1e-12
    for compress_fn in (seqmps.compress_truncation, seqmps.compress_variational):
        _, ref = compress_fn(target, d_prime)
        _, rep = compress_fn(gauged, d_prime)
        assert abs(rep.error - ref.error) < 1e-12
        assert rep.sweeps == ref.sweeps


def test_compression_input_validation():
    target = seqmps.ghz_state(4)
    with pytest.raises(InvalidInputError):
        seqmps.compress_truncation(target, 0)
    with pytest.raises(InvalidInputError):
        seqmps.compress_variational(target, 0)
    # Non-integer sizes, also where the cap would cover every bond.
    wide = seqmps.random_mps(6, 4, 1)
    for compress_fn in (seqmps.compress_truncation, seqmps.compress_variational):
        for t, bad in ((wide, 2.5), (wide, 3.0), (wide, True), (target, 2.5)):
            with pytest.raises(InvalidInputError):
                compress_fn(t, bad)
    unnormalized = Mps([t.copy() for t in target.tensors], 2.0 * target.phi_i, target.phi_f)
    with pytest.raises(InvalidInputError):
        seqmps.compress_variational(unnormalized, 2)


def test_compression_report_validation():
    from seqmps.compress import CompressionReport

    with pytest.raises(InvalidInputError):
        CompressionReport(d_prime=1, method="magic", error=0.0, fidelity=1.0)
    for bad in (0, 2.5, True):
        with pytest.raises(InvalidInputError):
            CompressionReport(d_prime=bad, method="truncation", error=0.0, fidelity=1.0)
    with pytest.raises(InvalidInputError):
        CompressionReport(d_prime=1, method="truncation", error=0.0, fidelity=2.0)
    with pytest.raises(InvalidInputError):
        CompressionReport(
            d_prime=1, method="variational", error=0.1, fidelity=0.9,
            sweep_history=[0.1, 0.3],
        )
    # Roundoff-negative errors clamp to zero instead of failing.
    r = CompressionReport(d_prime=1, method="truncation", error=-1e-12, fidelity=1.0)
    assert r.error == 0.0
    doc = r.to_json_dict()
    assert doc["method"] == "truncation"
    assert doc["error"] == 0.0


def test_variational_error_decreases_with_d_prime():
    target = seqmps.xxz_ground(8, 1.0)
    errors = []
    for d_prime in range(1, 6):
        _, report = seqmps.compress_variational(target, d_prime)
        errors.append(report.error)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


# (kind, d', sweeps, error) under PINNED_CFG, computed by the ALS that folded
# its environments with mps._transfer_up/_transfer_down.  The XXZ caps are those
# that split no tied Schmidt multiplet at any cut: at the others (d' = 1, 2,
# 14 and every odd d') the truncation start keeps some vectors of a tie, chosen
# by roundoff, and moves with the BLAS thread count.
PINNED_CFG = OptimizationConfig(max_sweeps=30)
PINNED = [
    ("random", 1, 14, 1.7668824564098282),
    ("random", 2, 17, 1.2041797721492586),
    ("random", 4, 30, 0.4521159245468249),
    ("xxz", 4, 2, 0.0035428529655872065),
    ("xxz", 6, 2, 0.0005307191764885033),
    ("xxz", 8, 1, 5.936570904419014e-06),
    ("xxz", 10, 1, 2.3089455796210245e-06),
    ("xxz", 12, 1, 5.028864107359254e-07),
    ("xxz", 16, 1, 8.535110396223899e-10),
    ("xxz", 18, 1, 2.1770385494335187e-10),
    ("xxz", 20, 1, 1.1373058050878626e-10),
    ("xxz", 22, 1, 5.4425353113174424e-11),
    ("xxz", 24, 1, 2.467137605322023e-11),
    ("xxz", 26, 1, 1.935340776526573e-12),
    ("xxz", 28, 0, 4.951594689828198e-13),
    ("xxz", 30, 0, 8.459899447643693e-14),
    ("xxz", 32, 0, 0.0),
]


def test_variational_answers_are_pinned():
    target = seqmps.xxz_ground(10, 0.6)
    psi = seqmps.to_state_vector(target)
    spectra = [schmidt_values(psi, cut) for cut in range(1, target.n)]
    targets = {"random": seqmps.random_mps(24, 8, seed=5), "xxz": target}
    for kind, d_prime, sweeps, error in PINNED:
        if kind == "xxz":
            assert all(s[d_prime - 1] - s[d_prime] > 1e-8 for s in spectra if s.size > d_prime)
        _, report = seqmps.compress_variational(targets[kind], d_prime, PINNED_CFG)
        assert (kind, d_prime, report.sweeps) == (kind, d_prime, sweeps)
        assert abs(report.error - error) <= 1e-12, (kind, d_prime)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 16), min_size=4, max_size=4),
    up=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_site_environment_matches_its_definition(dims, up, seed):
    # A one-site walk sets the site to its environment and stops there.
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    trial_up, target_up, target_down, trial_down = dims
    above = gaussian(trial_up, target_up)
    site = gaussian(2, target_up, target_down)
    below = gaussian(target_down, trial_down)
    ts = [None]
    # The walk holds sites as (left, i, right) and above conjugated.
    compress._half_sweep([site.transpose(1, 0, 2).copy()], ts, [below], [above.conj()], up)
    ref = np.einsum("ab,ibc,cd->iad", above.conj(), site, below)
    got = ts[0].transpose(1, 0, 2)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12


KEEP_CFG = OptimizationConfig(tol=0.0, max_sweeps=4)


def test_kept_environments_equal_a_fresh_fold(monkeypatch):
    half_sweep = compress._half_sweep
    walks = []

    def checked(at, ts, below, above, up):
        fnorm = half_sweep(at, ts, below, above, up)
        n = len(at)
        one = np.eye(1, dtype=complex)
        # The same folds by the walk's 2-D kernel, and by mps's kernels on
        # (i, left, right) sites, with the down environments unconjugated.
        at3 = [a.transpose(1, 0, 2) for a in at]
        ts3 = [t.transpose(1, 0, 2) for t in ts]
        fresh, ref = [one] * n, [one] * n
        if up:
            kept = below
            for k in range(n - 1):
                site = ts[k].reshape(ts[k].shape[0], -1).conj().T
                fresh[k + 1] = compress._absorb_up(fresh[k], at[k]) @ site
            ref = [_fold_up(one, at3[:k], ts3[:k]) for k in range(n)]
        else:
            kept = above
            for k in range(n - 1, 0, -1):
                site = ts[k].reshape(-1, ts[k].shape[2]).conj().T
                fresh[k - 1] = site @ compress._absorb_down(fresh[k], at[k])
                ref[k - 1] = _transfer_down(ref[k], ts3[k], at3[k])
            ref = [r.conj() for r in ref]
        assert all(np.array_equal(a, b) for a, b in zip(kept, fresh, strict=True))
        assert all(np.abs(a - b).max() < 1e-12 for a, b in zip(kept, ref, strict=True))
        walks.append(up)
        return fnorm

    monkeypatch.setattr(compress, "_half_sweep", checked)
    _, report = seqmps.compress_variational(seqmps.random_mps(10, 8, seed=3), 3, KEEP_CFG)
    assert report.sweeps == KEEP_CFG.max_sweeps
    assert walks == [True, False] * report.sweeps


class Recorded(list):
    """A list that records the index of every item assignment."""

    def __init__(self, items, writes):
        super().__init__(items)
        self.writes = writes

    def __setitem__(self, k, value):
        self.writes.append(k)
        super().__setitem__(k, value)


def test_each_walk_folds_each_passed_site_once(monkeypatch):
    qrs, walks = [], []
    monkeypatch.setattr(compress, "qr", lambda a, qr=compress.qr: qrs.append(1) or qr(a))
    half_sweep = compress._half_sweep

    def recorded(at, ts, below, above, up):
        writes = []
        envs = Recorded(below, writes), Recorded(above, writes)
        qrs.clear()
        fnorm = half_sweep(at, ts, *envs, up)
        below[:], above[:] = envs
        walks.append((up, len(qrs), writes))
        return fnorm

    monkeypatch.setattr(compress, "_half_sweep", recorded)
    target = seqmps.random_mps(10, 8, seed=3)
    _, report = seqmps.compress_variational(target, 3, KEEP_CFG)
    n = target.n
    # Each walk splits and folds every site but its last, each into the
    # environment entry behind it, and writes nothing ahead of it.
    up_walk = (True, n - 1, list(range(1, n)))
    down_walk = (False, n - 1, list(range(n - 2, -1, -1)))
    assert walks == [up_walk, down_walk] * report.sweeps


# Compresses an exact XXZ ground state, then reports whether scipy was imported.
XXZ_COMPRESSION = """
import sys
import seqmps
seqmps.compress_variational(seqmps.xxz_ground(8, 1.0), 2)
print("scipy" in sys.modules)
"""


def test_xxz_compression_does_not_import_scipy():
    # scipy costs set-up time and memory; the sector eigensolves and the
    # sweeps need only numpy.
    src = str(Path(seqmps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", XXZ_COMPRESSION], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
