"""Distinct feature rows, row blocks and tree walks.

Captured SCADA traffic is heavily duplicated (tens of thousands of records,
a few hundred distinct feature rows), so every detector does its per-row work
once per distinct row and expands the result through the inverse index.
Records come in that form, as ``EncodedRows``: their distinct encoded rows
and each record's index into them, grouped from the few hundred distinct
keys, never from a per-record matrix. ``FeatureDictionary.encode`` returns
them for prediction, and ``train_model`` hands them to the KNN, LOF and
isolation-forest fits, which keep them. A detector's fit, ``predict`` and
``score`` take their pair through ``distinct``, which groups a plain feature
matrix with ``unique_rows`` instead.
KNN and both forests score the distinct rows as array blocks: a block of
query rows against every distinct training row, or every (tree, row) pair
stepped one tree level at a time. Blocks are sized by ``row_blocks`` so that
their temporaries stay small however many distinct rows there are.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

# values in the largest temporary array of one block (512 KiB of float64)
BLOCK_VALUES = 1 << 16


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


class EncodedRows:
    """Records as distinct feature rows and each record's row index:
    ``rows[inverse]`` is the per-record matrix, in record order. ``rows``
    are in ``unique_rows`` order, and ``len()`` is the number of records.
    A model file holds the per-record matrix (``models.save_model``)."""

    __slots__ = ("rows", "inverse")

    def __init__(self, rows: np.ndarray, inverse: np.ndarray):
        self.rows = rows
        self.inverse = inverse

    @classmethod
    def grouped(cls, table: np.ndarray, inverse: np.ndarray) -> "EncodedRows":
        """The records whose rows are ``table[inverse]``, where every row of
        ``table`` belongs to some record: its rows are grouped with
        ``unique_rows``, which gives the rows and inverse of the per-record
        matrix without building it."""
        rows, group = unique_rows(table)
        return cls(rows, group[inverse])

    def __len__(self) -> int:
        return len(self.inverse)


def distinct(X: EncodedRows | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) of encoded records, which they hold, or of a feature
    matrix, by ``unique_rows``; both give the same pair for the same rows."""
    if isinstance(X, EncodedRows):
        return X.rows, X.inverse
    return unique_rows(X)


def row_blocks(n_rows: int, values_per_row: int) -> Iterator[slice]:
    """Consecutive slices of ``range(n_rows)`` whose rows hold at most
    BLOCK_VALUES values together, at least one row each."""
    step = max(1, BLOCK_VALUES // max(1, values_per_row))
    return (slice(start, start + step) for start in range(0, n_rows, step))


class FlatForest:
    """The nodes of several trees in one array per field, tree after tree.

    ``roots[t]`` is the first node of tree t. Each leaf (feature -1) is its
    own left and right child, so a walk steps every (tree, row) pair one
    level at a time until all of them sit at leaves.
    """

    def __init__(self, trees: list[dict[str, list]], cut: str):
        """``trees`` hold node lists ``feature``, ``left``, ``right`` and the
        split values in the list named by ``cut``."""
        def stacked(name: str, dtype) -> np.ndarray:
            return np.concatenate([t[name] for t in trees]).astype(dtype)

        sizes = np.array([len(t["feature"]) for t in trees])
        self.roots = np.cumsum(sizes) - sizes
        offset = np.repeat(self.roots, sizes)
        self.feature = stacked("feature", np.intp)
        self.cut = stacked(cut, np.float64)
        node = np.arange(len(self.feature))
        leaf = self.feature == -1
        self.left = np.where(leaf, node, stacked("left", np.intp) + offset)
        self.right = np.where(leaf, node, stacked("right", np.intp) + offset)

    def leaves(self, X: np.ndarray, goes_left: Callable) -> np.ndarray:
        """(trees, rows) index of the leaf each row of X reaches in each tree;
        a row goes left where ``goes_left(value, cut)`` holds. The pairs that
        sit at a leaf are dropped from the walk once they make up half of it,
        so deep trees are stepped only for the pairs still inside them."""
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        # the walked pairs' nodes and rows; once pairs are dropped, also their
        # flat positions in node
        at, row, pair = node, np.arange(len(X)), None
        while True:
            feature = self.feature[at]
            inner = feature != -1
            n_inner = np.count_nonzero(inner)
            if 2 * n_inner <= inner.size:
                if pair is None:
                    node[...] = at
                    pair = np.flatnonzero(inner)
                    row = pair % max(1, len(X))
                    at, feature = at.reshape(-1)[pair], feature.reshape(-1)[pair]
                else:
                    node.reshape(-1)[pair] = at
                    pair, row, at, feature = pair[inner], row[inner], at[inner], feature[inner]
                if not n_inner:
                    return node
            at = np.where(goes_left(X[row, feature], self.cut[at]), self.left[at], self.right[at])

    def depth(self) -> np.ndarray:
        """Each node's depth in its tree (root 0), as float."""
        depth = np.zeros(len(self.feature))
        frontier, level = self.roots, 0
        while len(frontier):
            depth[frontier] = level
            inner = frontier[self.feature[frontier] != -1]
            frontier = np.concatenate((self.left[inner], self.right[inner]))
            level += 1
        return depth
