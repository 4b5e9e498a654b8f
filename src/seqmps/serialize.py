"""Helpers for JSON round-tripping of complex arrays.

Complex entries are encoded as [re, im] pairs.  Floats go through Python's
json module, whose shortest-repr encoding round-trips IEEE doubles exactly
(equivalent in fidelity to a fixed 17-significant-digit encoding).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError, SeqmpsError

SCHEMA = "seqmps/1"


def load_document(text: str, build):
    """Parse a seqmps JSON document and return build(doc).

    Text that is not JSON, a schema other than SCHEMA, and missing or
    wrong-typed fields all raise InvalidInputError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not a JSON document: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise InvalidInputError(f"unsupported schema {schema!r}")
    try:
        return build(doc)
    except SeqmpsError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed document: {type(exc).__name__}: {exc}") from exc


def complex_to_pairs(a: np.ndarray | None) -> list | None:
    """Nested lists mirroring a's shape, innermost entries [re, im]; None stays None."""
    if a is None:
        return None
    a = np.asarray(a, dtype=complex)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(pairs) -> np.ndarray | None:
    """Inverse of complex_to_pairs."""
    if pairs is None:
        return None
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def fmt17(x: float) -> str:
    """A CSV cell: 17 significant digits, or repr for a whole float ("1.0"), so it reads as a float."""
    return repr(float(x)) if float(x).is_integer() else format(float(x), ".17g")
