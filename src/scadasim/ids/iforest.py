"""Isolation forest: random partition trees over attack-free traffic.

Anomaly score s(x) = 2 ** (-E[h(x)] / c(n)) with the standard average
unsuccessful-search normalizer c(n); h(x) is the path depth plus c(leaf size)
for unresolved leaves. The decision threshold is a quantile (default 99th
percentile) of the training scores; anomalies must score strictly above it.

Each tree is grown on its sample's distinct rows, each with the number of
times the sample drew it: a node's size is the sum of its rows' counts, and
its column ranges are those of its distinct rows, so the tree is the one the
full sample would grow, at the cost of the few distinct rows that captured
traffic has. A node that holds one distinct row is a leaf before its sample
is transposed: no feature splits it, so the full-sample tree ends there too,
having drawn nothing from the tree's generator. The fit takes its distinct
rows and the sample's counts from the training rows' (rows, inverse) pair,
which ``train_model`` hands over as ``EncodedRows``, and scores the training
rows from the same pair.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from ..capture import TrainingDataError
from ..engine import derive_seed
from .rows import EncodedRows, FlatForest, distinct, row_blocks

EULER_GAMMA = 0.5772156649015329
# a tree's node lists, as its model file holds them
TREE_FIELDS = ("feature", "split", "left", "right", "leaf_size")


def average_path_length(n: int) -> float:
    """c(n): expected path length of an unsuccessful BST search over n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1) + EULER_GAMMA
    return 2.0 * harmonic - 2.0 * (n - 1) / n


def grow_tree(sample: list[tuple[list[float], int]], rng, max_depth: int) -> dict[str, list]:
    """One isolation tree on a sample given as (distinct row, count) pairs:
    the TREE_FIELDS node lists in preorder, leaves with feature -1. A row
    goes left where its value is below the split."""
    tree: dict[str, list] = {name: [] for name in TREE_FIELDS}
    features, splits, lefts, rights, leaf_sizes = tree.values()

    def grow(sample: list[tuple[list[float], int]], depth: int) -> int:
        n = sum(map(itemgetter(1), sample))
        index = len(features)  # a leaf unless a split is drawn below
        features.append(-1)
        splits.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        leaf_sizes.append(n)
        if len(sample) <= 1 or depth >= max_depth:
            return index  # at most one distinct row: no feature splits it, and nothing is drawn
        columns = list(zip(*map(itemgetter(0), sample)))
        lo = list(map(min, columns))
        hi = list(map(max, columns))
        splittable = [f for f, (a, b) in enumerate(zip(lo, hi)) if b > a]
        if not splittable:  # no column tells the rows apart: NaN copies
            return index
        f = splittable[rng.integers(len(splittable))]
        value = float(rng.uniform(lo[f], hi[f]))
        features[index], splits[index] = f, value
        lefts[index] = grow([s for s in sample if s[0][f] < value], depth + 1)
        rights[index] = grow([s for s in sample if not s[0][f] < value], depth + 1)
        return index

    grow(sample, 0)
    return tree


class IsolationForestDetector:
    # the fields a model file holds
    FIELDS = ("n_trees", "subsample", "quantile", "seed", "sample_size", "threshold",
              "train_scores", "trees")

    def __init__(
        self,
        n_trees: int = 100,
        subsample: int = 256,
        quantile: float = 99.0,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.subsample = subsample
        self.quantile = quantile
        self.seed = seed
        self.trees: list[dict[str, list]] = []
        self.sample_size: int | None = None
        self.train_scores: np.ndarray | None = None
        self.threshold: float | None = None

    def fit(self, X: EncodedRows | np.ndarray) -> "IsolationForestDetector":
        if self.subsample > len(X):
            raise TrainingDataError(f"subsample {self.subsample} exceeds training set size {len(X)}")
        size = min(self.subsample, len(X))
        self.sample_size = size
        max_depth = max(1, math.ceil(math.log2(max(2, size))))
        rows, inverse = distinct(X)
        rows = rows.tolist()
        self.trees = []
        for i in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, f"itree:{i}"))
            counts = np.bincount(inverse[rng.choice(len(X), size, replace=False)])
            drawn = np.flatnonzero(counts)
            sample = list(zip(map(rows.__getitem__, drawn.tolist()), counts[drawn].tolist()))
            self.trees.append(grow_tree(sample, rng, max_depth))
        self.train_scores = self.score(X)
        self.threshold = float(np.percentile(self.train_scores, self.quantile))
        return self

    def score(self, Xq: EncodedRows | np.ndarray) -> np.ndarray:
        forest = FlatForest(self.trees, "split")
        rows, inverse = distinct(Xq)
        # h(x) at each leaf: its depth plus c(leaf size), c taken once per distinct size
        sizes, size_of = np.unique(np.concatenate([t["leaf_size"] for t in self.trees]),
                                   return_inverse=True)
        c = np.array([average_path_length(int(s)) for s in sizes])
        leaf_path = forest.depth() + c[size_of]
        depths = np.zeros(len(rows))
        for block in row_blocks(len(rows), len(self.trees)):
            block_depths = depths[block]
            for path in leaf_path[forest.leaves(rows[block], np.less)]:
                block_depths += path  # tree by tree in tree order: the float sum keeps its bits
        mean_depth = depths / len(self.trees)
        denom = average_path_length(self.sample_size)
        if denom <= 0:
            return np.ones(len(Xq))
        return (2.0 ** (-mean_depth / denom))[inverse]

    def predict(self, Xq: EncodedRows | np.ndarray) -> np.ndarray:
        return (self.score(Xq) > self.threshold).astype(np.int64)
