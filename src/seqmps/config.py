"""Sweep/restart configuration (four fields and a constant early stop), stopping rule and
descent check shared by the two variational optimizers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .tolerances import COMPRESS_MAX_SWEEPS, COMPRESS_TOL, GOOD_ENOUGH_COST, MONOTONE_SLACK


def non_increasing(history) -> bool:
    """True unless a cost history rises by more than MONOTONE_SLACK from one entry to the next."""
    return not np.any(np.diff(np.asarray(history, dtype=float)) > MONOTONE_SLACK)


def check_count(value, name: str, low: int, high: int | None = None) -> None:
    """Refuse a value that is not an integer (numpy's included, bool not) in low..high (no bound if None)."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidInputError(f"{name} must be an integer {bound}, got {value!r}")


def stalled(prev, cost, cfg, good_enough=None):
    """Whether a sweep that took the cost from prev to cost ends its run, converged.

    True once the sweep ends at or below good_enough (when given) or moves
    the cost by at most cfg.tol * (1 + |cost|); elementwise on arrays.
    """
    done = np.abs(prev - cost) <= cfg.tol * (1.0 + np.abs(cost))
    return done if good_enough is None else done | (cost <= good_enough)


@dataclass(frozen=True)
class OptimizationConfig:
    """Knobs for sweeping optimizers.

    compress_variational reads tol and max_sweeps; optimize reads them all.

    tol: convergence threshold on the sweep-to-sweep change of the cost;
        tested as |delta| <= tol * (1 + cost), i.e. relative for O(1) costs
        with an absolute floor near zero.
    max_sweeps: hard cap on full sweeps (one up plus one down pass).
    restarts: independently seeded runs; the best final result wins.  The
        first run always starts from the caller's initial point.
    seed: non-negative root seed; per-restart streams are split from it
        deterministically.
    good_enough: a constant, not a field: optimize skips the remaining
        restarts once a run's final cost is at or below it (its restarts
        sweep in lockstep batches; the later ones leave a batch then, and no
        further batch starts).
    """

    tol: float = COMPRESS_TOL
    max_sweeps: int = COMPRESS_MAX_SWEEPS
    restarts: int = 1
    seed: int = 0
    good_enough: ClassVar[float] = GOOD_ENOUGH_COST

    def __post_init__(self):
        if not 0 <= self.tol < math.inf:
            raise InvalidInputError(f"tol must be finite and >= 0, got {self.tol}")
        check_count(self.max_sweeps, "max_sweeps", 1)
        check_count(self.restarts, "restarts", 1)
        check_count(self.seed, "seed", 0)
