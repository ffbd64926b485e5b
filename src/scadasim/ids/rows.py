"""Distinct feature rows, and the error a detector raises on unusable rows.

Captured SCADA traffic is heavily duplicated (tens of thousands of records,
a few hundred distinct feature rows), so every detector does its per-row work
once per distinct row and expands the result through the inverse index.
"""

from __future__ import annotations

import numpy as np


class TrainingDataError(ValueError):
    """The training rows cannot fit the model: too few of them, or one class only."""


def unique_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) with rows[inverse] == X, like np.unique(X, axis=0, return_inverse=True).

    Rows come out in the same lexicographic order as np.unique, found with one
    lexsort of the columns (first column primary) and a first-difference mask
    instead of np.unique's sort of a structured view.
    """
    X = np.asarray(X)
    order = np.lexsort(X.T[::-1])
    ordered = X[order]
    first = np.ones(len(X), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse
