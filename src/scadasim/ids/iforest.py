"""Isolation forest: random partition trees over attack-free traffic.

Anomaly score s(x) = 2 ** (-E[h(x)] / c(n)) with the standard average
unsuccessful-search normalizer c(n); h(x) is the path depth plus c(leaf size)
for unresolved leaves. The decision threshold is a quantile (default 99th
percentile) of the training scores; anomalies must score strictly above it.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine import derive_seed
from .rows import FlatForest, TrainingDataError, read_tree, row_blocks, unique_rows

EULER_GAMMA = 0.5772156649015329


def average_path_length(n: int) -> float:
    """c(n): expected path length of an unsuccessful BST search over n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1) + EULER_GAMMA
    return 2.0 * harmonic - 2.0 * (n - 1) / n


class _IsolationTree:
    __slots__ = ("feature", "split", "left", "right", "leaf_size")

    def __init__(self):
        self.feature: list[int] = []
        self.split: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_size: list[int] = []

    def build(self, X: np.ndarray, rng, max_depth: int) -> None:
        self._grow(X, rng, max_depth, depth=0)

    def _node(self, feature: int, split: float, leaf_size: int) -> int:
        idx = len(self.feature)
        self.feature.append(feature)
        self.split.append(split)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_size.append(leaf_size)
        return idx

    def _grow(self, X: np.ndarray, rng, max_depth: int, depth: int) -> int:
        n = len(X)
        if n <= 1 or depth >= max_depth:
            return self._node(-1, 0.0, n)
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        splittable = np.nonzero(hi > lo)[0]
        if len(splittable) == 0:  # all duplicates
            return self._node(-1, 0.0, n)
        f = int(splittable[rng.integers(len(splittable))])
        value = float(rng.uniform(lo[f], hi[f]))
        node = self._node(f, value, n)
        mask = X[:, f] < value
        self.left[node] = self._grow(X[mask], rng, max_depth, depth + 1)
        self.right[node] = self._grow(X[~mask], rng, max_depth, depth + 1)
        return node

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "split": self.split,
            "left": self.left,
            "right": self.right,
            "leaf_size": self.leaf_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_IsolationTree":
        tree = cls()
        fields = read_tree(data, {"feature": int, "split": float, "left": int, "right": int,
                                  "leaf_size": int})
        for name, values in fields.items():
            setattr(tree, name, values)
        return tree


class IsolationForestDetector:
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
        self.trees: list[_IsolationTree] = []
        self.sample_size: int | None = None
        self.train_scores: np.ndarray | None = None
        self.threshold: float | None = None

    def fit(self, X: np.ndarray) -> "IsolationForestDetector":
        X = np.asarray(X, dtype=np.float64)
        if self.subsample > len(X):
            raise TrainingDataError(f"subsample {self.subsample} exceeds training set size {len(X)}")
        size = min(self.subsample, len(X))
        self.sample_size = size
        max_depth = max(1, math.ceil(math.log2(max(2, size))))
        self.trees = []
        for i in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, f"itree:{i}"))
            idx = rng.choice(len(X), size, replace=False)
            tree = _IsolationTree()
            tree.build(X[idx], rng, max_depth)
            self.trees.append(tree)
        self.train_scores = self.score(X)
        self.threshold = float(np.percentile(self.train_scores, self.quantile))
        return self

    def score(self, Xq: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValueError("model not fitted")
        Xq = np.asarray(Xq, dtype=np.float64)
        forest = FlatForest(self.trees, "split")
        forest.check_columns(Xq)
        if len(Xq) == 0:
            return np.zeros(0)
        rows, inverse = unique_rows(Xq)
        # h(x) at each leaf: its depth plus c(leaf size), c taken once per distinct size
        sizes, size_of = np.unique(np.concatenate([t.leaf_size for t in self.trees]),
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

    def predict(self, Xq: np.ndarray) -> np.ndarray:
        return (self.score(Xq) > self.threshold).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "subsample": self.subsample,
            "quantile": self.quantile,
            "seed": self.seed,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "train_scores": self.train_scores.tolist(),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IsolationForestDetector":
        det = cls(
            n_trees=int(data["n_trees"]),
            subsample=int(data["subsample"]),
            quantile=float(data["quantile"]),
            seed=int(data["seed"]),
        )
        det.sample_size = int(data["sample_size"])
        det.threshold = float(data["threshold"])
        det.train_scores = np.asarray(data["train_scores"], dtype=np.float64)
        det.trees = [_IsolationTree.from_dict(t) for t in data["trees"]]
        return det
