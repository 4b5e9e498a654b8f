"""Bond-dimension compression of matrix product states.

Both routes take a normalized closed target, in any gauge, and a bond cap
d_prime and return a normalized left-canonical approximation with every bond
at most d_prime, plus a report.  The error measure throughout is the squared
distance

    error = || |target> - |trial> ||^2 = 2 (1 - Re <target|trial>)

which for the variational route (whose overlap is real non-negative by
construction) equals 2 (1 - fidelity).

compress_truncation keeps, at every site independently, the d_prime largest
singular values of the stacked site matrix and re-canonicalizes.

compress_variational does alternating least squares in mixed-canonical
gauge: with all other sites isometric, the optimal tensor at the active site
is simply the target's environment there,

    E^i = above[k] @ A^i @ below[k],
    i.e. einsum("ab,ibc,cd->iad", above[k], at[k], below[k]),

and its Frobenius norm is the overlap (``below[k]`` holds sites [0, k) and
``above[k]``, stored conjugated, sites (k, n)).  A half-sweep walks the chain
once (up: site 1 to n, down: n to 1), keeps the isometric factor of each
passed site's E, drops the triangular remainder (the next site is set to its
environment, which never reads it) and folds the site into the environment
behind it.  Sites are held as C-contiguous (left bond, i, right bond) arrays,
so every reshape is free and a passed site costs three 2-D matmuls and a QR:

    up:   x = (A[k] as ((left, i), right) @ below[k]) as (left, (i, right));
          E = above[k] @ x;  q = Q of E^T;  site k = q^T;  below[k + 1] = x @ conj(q)
    down: y = (above[k] @ A[k] as (left, (i, right))) as ((left, i), right);
          E = y @ below[k];  q = Q of E;  site k = q;  above[k - 1] = q^dag @ y

The start is the truncation result, whose sites are all isometric with unit
boundaries: it is already in mixed-canonical gauge with its center at site 1,
whatever the target's gauge (the target enters only through environments).

The environments persist across half-sweeps.  ``above`` is folded once, from
the start; from then on each walk reads the side ahead of it as the previous
walk left it, and rebuilds the side behind it, each entry before it is read.
An up walk folds site k into ``below[k + 1]`` after the last change to site
k (later steps touch only sites above k), so when it ends every ``below``
entry equals a fresh fold of the current sites by the same matmuls from the
same operands: reusing it is exact, bit for bit.  The same holds for
``above`` after a down walk.  A half-sweep thus costs n - 1 folds, where
re-folding the side ahead first would cost 2 (n - 1).

Initialized from the truncation result, the variational error can only
improve on truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import OptimizationConfig, check_count, non_increasing, stalled
from .errors import InvalidInputError, NumericalFailureError
from .linalg import qr
from .mps import Mps, _absorb_boundaries, _require_normalized, overlap, truncate_per_matrix
from .serialize import SCHEMA
from .tolerances import (
    COMPRESS_EXACT_ERROR,
    FIDELITY_CLAMP,
    FIDELITY_SLACK,
    ZERO_NORM,
)

METHOD_TRUNCATION = "truncation"
METHOD_VARIATIONAL = "variational"
METHODS = (METHOD_TRUNCATION, METHOD_VARIATIONAL)


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
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown compression method {self.method!r}")
        check_count(self.d_prime, "d_prime", 1)
        if not -FIDELITY_SLACK <= self.fidelity <= FIDELITY_CLAMP:
            raise InvalidInputError(f"fidelity {self.fidelity} outside [0, 1]")
        object.__setattr__(self, "error", max(float(self.error), 0.0))
        if not non_increasing(self.sweep_history):
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


def compress_truncation(target: Mps, d_prime: int) -> tuple[Mps, CompressionReport]:
    """Per-site singular value truncation to bond dimension d_prime.

    Where the Schmidt spectrum at a cut is degenerate at the cap, as for the
    XXZ ground states (whose Schmidt values come in equal pairs), which of
    the tied values survive depends on roundoff, and the choice made at one
    cut changes what the later cuts see.  The error is then roundoff-
    sensitive far beyond machine precision: moving phi_i = 1 of
    xxz_ground(12, 1.0) by one ulp moves the d_prime = 2 error from 0.30659
    to 0.30657 (up) or 0.30640 (down).
    """
    check_count(d_prime, "d_prime", 1)
    _require_normalized(target, "compression target")
    trial = truncate_per_matrix(target, d_prime)
    ov = overlap(target, trial)
    return trial, CompressionReport(
        d_prime=d_prime,
        method=METHOD_TRUNCATION,
        error=2.0 * (1.0 - ov.real),
        fidelity=min(float(abs(ov)), FIDELITY_CLAMP),
    )


def compress_variational(
    target: Mps, d_prime: int, cfg: OptimizationConfig | None = None
) -> tuple[Mps, CompressionReport]:
    """Alternating-least-squares compression to bond dimension d_prime.

    Starts from the truncation result.  Convergence: the error change over
    one full sweep is at most cfg.tol * (1 + error), within cfg.max_sweeps
    sweeps.  If the start already matches the target to within
    COMPRESS_EXACT_ERROR in error, it is returned with zero sweeps.  An error
    history that rises raises NumericalFailureError.
    """
    start, report = compress_truncation(target, d_prime)
    return _als(target, start, report, OptimizationConfig() if cfg is None else cfg)


def _als(
    target: Mps, start: Mps, report: CompressionReport, cfg: OptimizationConfig
) -> tuple[Mps, CompressionReport]:
    """compress_variational from start, the truncation of target that report describes."""
    if report.error <= COMPRESS_EXACT_ERROR:
        return start, replace(report, method=METHOD_VARIATIONAL)

    at = [np.ascontiguousarray(a.transpose(1, 0, 2)) for a in _absorb_boundaries(target)]
    ts = [np.ascontiguousarray(t.transpose(1, 0, 2)) for t in start.tensors]
    n = len(ts)
    below = [np.eye(1, dtype=complex)] + [None] * (n - 1)
    above = [None] * (n - 1) + [np.eye(1, dtype=complex)]
    for k in range(n - 1, 0, -1):
        above[k - 1] = ts[k].reshape(-1, ts[k].shape[2]).conj().T @ _absorb_down(above[k], at[k])
    history: list[float] = []
    for sweeps in range(1, cfg.max_sweeps + 1):
        prev = history[-1] if history else report.error
        for up in (True, False):
            final_f = _half_sweep(at, ts, below, above, up)
            history.append(2.0 * (1.0 - min(final_f, FIDELITY_CLAMP)))
        # A Python bool: the report's JSON row refuses numpy's.
        converged = bool(stalled(prev, history[-1], cfg))
        if converged:
            break
    if not non_increasing(history):
        raise NumericalFailureError("the compression error history is not non-increasing")

    # After a down half-sweep the gauge center sits at site 1; normalizing it
    # makes every site isometric, i.e. the chain is left-canonical.
    fnorm = np.linalg.norm(ts[0])
    if fnorm < ZERO_NORM:
        raise InvalidInputError("variational trial collapsed to the zero state")
    ts[0] = ts[0] / fnorm
    trial = Mps([t.transpose(1, 0, 2) for t in ts], np.ones(1), np.ones(1))
    return trial, replace(
        report,
        method=METHOD_VARIATIONAL,
        error=history[-1],
        fidelity=min(final_f, FIDELITY_CLAMP),
        sweeps=sweeps,
        converged=converged,
        sweep_history=history,
    )


def _absorb_up(below: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Target site a, as (left, i, right), folded onto below: x[b, (i, d)]."""
    return (a.reshape(-1, a.shape[2]) @ below).reshape(a.shape[0], -1)


def _absorb_down(above: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Target site a, as (left, i, right), folded onto the conjugated above: y[(a, i), c]."""
    return (above @ a.reshape(a.shape[0], -1)).reshape(-1, a.shape[2])


def _half_sweep(
    at: list[np.ndarray], ts: list[np.ndarray], below: list, above: list, up: bool
) -> float:
    """One half-sweep of local updates; returns the last overlap value.

    The last site is left at its environment E, whose norm is the overlap
    with the target, so it can only grow from one half-sweep to the next.
    ts, below and above are updated in place (see the module docstring).
    """
    n = len(at)
    if up:
        for k in range(n - 1):
            x = _absorb_up(below[k], at[k])
            q = qr((above[k] @ x).T)[0]
            below[k + 1] = x @ q.conj()
            ts[k] = q.T.reshape(q.shape[1], 2, -1)
        e = above[-1] @ _absorb_up(below[-1], at[-1])
        ts[-1] = e.reshape(e.shape[0], 2, -1)
    else:
        for k in range(n - 1, 0, -1):
            y = _absorb_down(above[k], at[k])
            q = qr(y @ below[k])[0]
            above[k - 1] = q.conj().T @ y
            ts[k] = q.reshape(-1, 2, q.shape[1])
        e = _absorb_down(above[0], at[0]) @ below[0]
        ts[0] = e.reshape(-1, 2, e.shape[1])
    fnorm = float(np.linalg.norm(e))
    if not np.isfinite(fnorm):
        raise NumericalFailureError("a compression half-sweep reached a non-finite overlap")
    return fnorm
