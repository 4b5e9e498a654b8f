"""Bond-dimension compression of matrix product states.

Both routes take a normalized left-canonical target and a bond cap d_prime
and return a normalized left-canonical approximation with every bond at most
d_prime, plus a report.  The error measure throughout is the squared
distance

    error = || |target> - |trial> ||^2 = 2 (1 - Re <target|trial>)

which for the variational route (whose overlap is real non-negative by
construction) equals 2 (1 - fidelity).

compress_truncation keeps, at every site independently, the d_prime largest
singular values of the stacked site matrix and re-canonicalizes.

compress_variational does alternating least squares in mixed-canonical
gauge: with all other sites isometric, the optimal tensor at the active site
is simply the target's environment there, and its Frobenius norm is the
overlap.  A half-sweep folds the environments ahead of the walk first
(``below[k]`` holds sites [0, k), ``above[k]`` sites (k, n)), then walks the
chain once (up: site 1 to n, down: n to 1), moving the gauge center by LQ
going up and by QR going down, and folds each passed site behind it.  The
contractions are the kernels of ``mps``; ``above`` is stored conjugated (see
the ``mps`` module docstring).  Initialized from the truncation result
(default) its error can only improve on truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import OptimizationConfig
from .errors import InvalidInputError
from .mps import GAUGE_LEFT, Mps, canonicalize_left, norm, normalize, overlap, truncate_per_matrix
from .mps import _absorb_boundaries, _center_down, _center_up, _transfer_down, _transfer_up
from .serialize import SCHEMA
from .tolerances import FIDELITY_CLAMP, FIDELITY_SLACK, MONOTONE_SLACK, ZERO_NORM

METHOD_TRUNCATION = "truncation"
METHOD_VARIATIONAL = "variational"


@dataclass(frozen=True)
class CompressionReport:
    """Outcome of a compression run.

    error = 2 (1 - Re <target|trial>), clamped at 0 against roundoff;
    fidelity = |<target|trial>|.  sweep_history holds the error after each
    half-sweep of the winning run (empty for truncation and for zero-sweep
    returns); it is non-increasing within MONOTONE_SLACK.
    """

    d_prime: int
    method: str
    error: float
    fidelity: float
    sweeps: int = 0
    converged: bool = True
    sweep_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.method not in (METHOD_TRUNCATION, METHOD_VARIATIONAL):
            raise InvalidInputError(f"unknown compression method {self.method!r}")
        if self.d_prime < 1:
            raise InvalidInputError("d_prime must be >= 1")
        if not -FIDELITY_SLACK <= self.fidelity <= FIDELITY_CLAMP:
            raise InvalidInputError(f"fidelity {self.fidelity} outside [0, 1]")
        object.__setattr__(self, "error", max(float(self.error), 0.0))
        h = np.asarray(self.sweep_history, dtype=float)
        if h.size and np.any(np.diff(h) > MONOTONE_SLACK):
            raise InvalidInputError("sweep_history is not non-increasing")

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "d_prime": self.d_prime,
            "method": self.method,
            "error": self.error,
            "fidelity": self.fidelity,
            "sweeps": self.sweeps,
            "converged": self.converged,
            "sweep_history": list(map(float, self.sweep_history)),
        }


def _check_target(target: Mps) -> None:
    if target.open_final:
        raise InvalidInputError("compression target must be a closed MPS")
    if target.gauge_tag != GAUGE_LEFT:
        raise InvalidInputError("compression target must be left-canonical")
    if abs(norm(target) - 1.0) > 1e-8:
        raise InvalidInputError("compression target must be normalized")


def _error_from_overlap(ov: complex) -> float:
    return max(2.0 * (1.0 - ov.real), 0.0)


def compress_truncation(target: Mps, d_prime: int) -> tuple[Mps, CompressionReport]:
    """Per-site singular value truncation to bond dimension d_prime."""
    _check_target(target)
    trial = truncate_per_matrix(target, d_prime)
    ov = overlap(target, trial)
    return trial, CompressionReport(
        d_prime=d_prime,
        method=METHOD_TRUNCATION,
        error=_error_from_overlap(ov),
        fidelity=min(float(abs(ov)), FIDELITY_CLAMP),
    )


def _random_trial(target: Mps, d_prime: int, rng: np.random.Generator) -> Mps:
    """Random left-canonical trial with the capped bond profile of the target."""
    dims = [min(int(d), d_prime) for d in target.bond_dims]
    tensors = []
    for k in range(1, target.n + 1):
        shape = (2, dims[k], dims[k - 1])
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t)
    phi_i = rng.standard_normal(dims[0]) + 1j * rng.standard_normal(dims[0])
    phi_f = rng.standard_normal(dims[-1]) + 1j * rng.standard_normal(dims[-1])
    return normalize(canonicalize_left(Mps(tensors, phi_i, phi_f)))


def compress_variational(
    target: Mps, d_prime: int, cfg: OptimizationConfig | None = None
) -> tuple[Mps, CompressionReport]:
    """Alternating-least-squares compression to bond dimension d_prime.

    cfg.init picks the starting trial ("truncation" or "random"); with
    random init, cfg.restarts independent seeded runs are performed and the
    lowest final error wins.  Convergence: the error change over one full
    sweep is at most cfg.tol * (1 + error).  If the initial trial already
    matches the target to within 1e-12 in error, it is returned with zero
    sweeps.
    """
    if cfg is None:
        cfg = OptimizationConfig()
    _check_target(target)
    if d_prime < 1:
        raise InvalidInputError("d_prime must be >= 1")

    at = _absorb_boundaries(target)
    runs = cfg.restarts if cfg.init == "random" else 1
    seeds = np.random.SeedSequence(cfg.seed).spawn(max(runs, 1))
    best = None
    for r in range(runs):
        if cfg.init == "truncation":
            start, _ = compress_truncation(target, d_prime)
        else:
            start = _random_trial(target, d_prime, np.random.default_rng(seeds[r]))
        result = _als_run(target, at, start, d_prime, cfg)
        if best is None or result[1].error < best[1].error:
            best = result
        if cfg.good_enough is not None and best[1].error <= cfg.good_enough:
            break
    return best


def _als_run(
    target: Mps, at: list[np.ndarray], start: Mps, d_prime: int, cfg: OptimizationConfig
) -> tuple[Mps, CompressionReport]:
    ov0 = overlap(target, start)
    err0 = _error_from_overlap(ov0)
    if err0 <= 1e-12:
        return start, CompressionReport(
            d_prime=d_prime,
            method=METHOD_VARIATIONAL,
            error=err0,
            fidelity=min(float(abs(ov0)), FIDELITY_CLAMP),
        )

    ts = _absorb_boundaries(start)
    # Absorbing a non-unit phi_f breaks the isometry of site n, and the first
    # up half-sweep needs every site above the center isometric: move the
    # center down to site 1 exactly, without changing the state.
    for k in range(len(ts) - 1, 0, -1):
        _center_down(ts, k)
    history: list[float] = []
    prev = err0
    converged = False
    sweeps = 0
    final_f = 0.0
    for sweep in range(cfg.max_sweeps):
        for up in (True, False):
            final_f = _half_sweep(at, ts, up)
            history.append(2.0 * (1.0 - min(final_f, FIDELITY_CLAMP)))
        err = history[-1]
        sweeps = sweep + 1
        if abs(prev - err) <= cfg.tol * (1.0 + abs(err)):
            converged = True
            break
        prev = err

    # After a down half-sweep the gauge center sits at site 1; normalizing it
    # makes every site isometric, i.e. the chain is left-canonical.
    fnorm = np.linalg.norm(ts[0])
    if fnorm < ZERO_NORM:
        raise InvalidInputError("variational trial collapsed to the zero state")
    ts[0] = ts[0] / fnorm
    trial = Mps(
        ts, np.ones(1, dtype=complex), np.ones(1, dtype=complex), GAUGE_LEFT
    )
    err = history[-1]
    return trial, CompressionReport(
        d_prime=d_prime,
        method=METHOD_VARIATIONAL,
        error=err,
        fidelity=min(final_f, FIDELITY_CLAMP),
        sweeps=sweeps,
        converged=converged,
        sweep_history=history,
    )


def _half_sweep(at: list[np.ndarray], ts: list[np.ndarray], up: bool) -> float:
    """One half-sweep of local updates; returns the last overlap value.

    The active site is set to its environment E (the exact local optimum),
    then split to move the gauge center one site along the sweep direction.
    ||E|| equals the overlap with the target, so it can only grow from one
    update to the next.
    """
    n = len(at)
    below = [np.eye(1, dtype=complex)] + [None] * (n - 1)
    above = [None] * (n - 1) + [np.eye(1, dtype=complex)]

    def fold_below(k):
        below[k + 1] = _transfer_up(below[k], at[k], ts[k])

    def fold_above(k):
        above[k - 1] = _transfer_down(above[k], ts[k], at[k])

    order = range(n) if up else range(n - 1, -1, -1)
    center, fold, prefold = (
        (_center_up, fold_below, fold_above) if up else (_center_down, fold_above, fold_below)
    )
    for k in reversed(order[1:]):
        prefold(k)
    for k in order:
        ts[k] = np.einsum("ab,ibc,cd->iad", above[k].conj(), at[k], below[k])
        fnorm = np.linalg.norm(ts[k])
        if k != order[-1]:
            center(ts, k)
            fold(k)
    return float(fnorm)
