"""Shared sweep/restart configuration for the two variational optimizers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .tolerances import COMPRESS_MAX_SWEEPS, COMPRESS_TOL, GOOD_ENOUGH_COST


@dataclass(frozen=True)
class OptimizationConfig:
    """Knobs for sweeping optimizers (compression and protocol search).

    tol: convergence threshold on the sweep-to-sweep change of the cost;
        tested as |delta| <= tol * (1 + cost), i.e. relative for O(1) costs
        with an absolute floor near zero.
    max_sweeps: hard cap on full sweeps (one up plus one down pass).
    restarts: independently seeded runs; the best final result wins.  The
        first run always starts from the caller's initial point.
    seed: non-negative root seed; per-restart streams are split from it
        deterministically.
    init: trial initialization for compression, "truncation" or "random".
    vary_phi_i: let the protocol optimizer update the initial ancilla vector
        (closed form, once per sweep).
    good_enough: skip remaining restarts once a run's final cost is at or
        below this; None disables the shortcut.
    """

    tol: float = COMPRESS_TOL
    max_sweeps: int = COMPRESS_MAX_SWEEPS
    restarts: int = 1
    seed: int = 0
    init: str = "truncation"
    vary_phi_i: bool = False
    good_enough: float | None = GOOD_ENOUGH_COST

    def __post_init__(self):
        if self.tol < 0:
            raise InvalidInputError("tol must be >= 0")
        if self.max_sweeps < 1:
            raise InvalidInputError("max_sweeps must be >= 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.init not in ("truncation", "random"):
            raise InvalidInputError(f"unknown init {self.init!r}")
