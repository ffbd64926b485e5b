"""Distance-based detectors: k-nearest-neighbor voting and local outlier factor.

KNN neighbor order is the lexicographic (distance, training index) order, which
makes predictions a pure function of the training set and reproducible against
a brute-force oracle. LOF follows the standard pipeline: k-distance, the
tie-inclusive k-neighborhood, reachability distance, local reachability
density, then the density ratio. Duplicate-collapsed neighborhoods (zero mean
reachability) are floored at a shared epsilon so scores stay finite and exact
duplicates come out at exactly 1.0.
"""

from __future__ import annotations

import numpy as np

from .rows import TrainingDataError, unique_rows

LRD_EPS = 1e-12


def _row_distances(X: np.ndarray, row: np.ndarray) -> np.ndarray:
    diff = X - row
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))


class KnnDetector:
    """Majority vote among the k nearest stored samples; vote ties -> attack."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.X: np.ndarray | None = None
        self.y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnDetector":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if self.k > len(X):
            raise TrainingDataError(f"k={self.k} exceeds training set size {len(X)}")
        self.X = X
        self.y = y
        return self

    def predict(self, Xq: np.ndarray) -> np.ndarray:
        if self.X is None:
            raise ValueError("model not fitted")
        Xq = np.asarray(Xq, dtype=np.float64)
        if Xq.ndim != 2 or Xq.shape[1] != self.X.shape[1]:
            raise ValueError(f"feature dimension mismatch: {Xq.shape} vs {self.X.shape}")
        if len(Xq) == 0:
            return np.zeros(0, dtype=np.int64)
        rows, inverse = unique_rows(Xq)
        # Identical training rows lie at bit-identical distances, so distances
        # are taken to each distinct training row once; only the group tied at
        # the k-th distance needs the training index to break its tie.
        train_rows, group = unique_rows(self.X)
        sizes = np.bincount(group)
        attacks = np.bincount(group, weights=self.y).astype(np.int64)
        out = np.zeros(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            d = _row_distances(train_rows, row)
            by_distance = np.argsort(d, kind="stable")
            reach = np.searchsorted(np.cumsum(sizes[by_distance]), self.k)
            kth = d[by_distance[reach]]
            closer = d < kth
            need = self.k - int(sizes[closer].sum())
            tied = np.flatnonzero((d == kth)[group])[:need]
            attack_votes = int(attacks[closer].sum()) + int(self.y[tied].sum())
            out[i] = 1 if attack_votes * 2 >= self.k else 0
        return out[inverse]

    def to_dict(self) -> dict:
        return {"k": self.k, "X": self.X.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "KnnDetector":
        return cls(k=int(data["k"])).fit(data["X"], data["y"])


class LofDetector:
    """Local outlier factor against an attack-free reference set.

    flag(x) is true iff LOF(x) strictly exceeds the decision threshold,
    calibrated as a quantile (default 99th percentile) of training scores.
    """

    def __init__(self, k: int = 20, quantile: float = 99.0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.quantile = quantile
        self.X: np.ndarray | None = None
        self.k_dist: np.ndarray | None = None
        self.lrd: np.ndarray | None = None
        self.train_scores: np.ndarray | None = None
        self.threshold: float | None = None

    def fit(self, X: np.ndarray) -> "LofDetector":
        X = np.asarray(X, dtype=np.float64)
        if len(X) <= self.k:
            raise TrainingDataError(f"need more than k={self.k} training points, got {len(X)}")
        self.X = X
        n = len(X)
        k = self.k
        k_dist = np.zeros(n)
        neighborhoods: list[np.ndarray] = []
        neighbor_d: list[np.ndarray] = []
        for i in range(n):
            d = _row_distances(X, X[i])
            d[i] = np.inf  # a point is not its own neighbor
            kth = float(np.partition(d, k - 1)[k - 1])
            neigh = np.nonzero(d <= kth)[0]
            k_dist[i] = kth
            neighborhoods.append(neigh)
            neighbor_d.append(d[neigh])
        lrd = np.zeros(n)
        for i in range(n):
            reach = np.maximum(k_dist[neighborhoods[i]], neighbor_d[i])
            lrd[i] = 1.0 / max(LRD_EPS, float(reach.mean()))
        scores = np.zeros(n)
        for i in range(n):
            scores[i] = float(lrd[neighborhoods[i]].mean()) / lrd[i]
        self.k_dist = k_dist
        self.lrd = lrd
        self.train_scores = scores
        self.threshold = float(np.percentile(scores, self.quantile))
        return self

    def score(self, Xq: np.ndarray) -> np.ndarray:
        """LOF of query points against the training set (unique rows cached)."""
        if self.X is None:
            raise ValueError("model not fitted")
        Xq = np.asarray(Xq, dtype=np.float64)
        if Xq.ndim != 2 or Xq.shape[1] != self.X.shape[1]:
            raise ValueError(f"feature dimension mismatch: {Xq.shape} vs {self.X.shape}")
        if len(Xq) == 0:
            return np.zeros(0)
        rows, inverse = unique_rows(Xq)
        out = np.zeros(len(rows))
        for i, row in enumerate(rows):
            d = _row_distances(self.X, row)
            kth = float(np.partition(d, self.k - 1)[self.k - 1])
            neigh = np.nonzero(d <= kth)[0]
            reach = np.maximum(self.k_dist[neigh], d[neigh])
            lrd_q = 1.0 / max(LRD_EPS, float(reach.mean()))
            out[i] = float(self.lrd[neigh].mean()) / lrd_q
        return out[inverse]

    def predict(self, Xq: np.ndarray) -> np.ndarray:
        return (self.score(Xq) > self.threshold).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "quantile": self.quantile,
            "X": self.X.tolist(),
            "k_dist": self.k_dist.tolist(),
            "lrd": self.lrd.tolist(),
            "train_scores": self.train_scores.tolist(),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LofDetector":
        det = cls(k=int(data["k"]), quantile=float(data["quantile"]))
        det.X = np.asarray(data["X"], dtype=np.float64)
        det.k_dist = np.asarray(data["k_dist"], dtype=np.float64)
        det.lrd = np.asarray(data["lrd"], dtype=np.float64)
        det.train_scores = np.asarray(data["train_scores"], dtype=np.float64)
        det.threshold = float(data["threshold"])
        return det
