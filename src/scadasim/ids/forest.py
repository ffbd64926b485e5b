"""Decision tree and random forest over the four traffic features.

Trees are grown on weighted unique rows: captured traffic is heavily
duplicated, so collapsing identical feature vectors and carrying multiplicity
as sample weight gives identical splits at a fraction of the cost.
``train_model`` hands ``fit`` the encoded rows of its distinct keys with each
key's record count, which gives the same trees as the per-record matrix. Bootstrap
resampling draws per-row multinomial counts, equivalent to resampling the
expanded multiset. All randomness flows from per-tree generators derived from
the model seed, so fitting is deterministic and trees are independent of each
other's order of construction.
"""

from __future__ import annotations

import numpy as np

from ..capture import TrainingDataError
from ..engine import derive_seed
from .rows import EncodedRows, FlatForest, distinct, row_blocks, unique_rows

GINI_EPS = 1e-12
# a tree's node lists, as its model file holds them
TREE_FIELDS = ("feature", "threshold", "left", "right", "label")


def _unique_weighted(X: np.ndarray, y: np.ndarray, counts: np.ndarray | None = None):
    """Collapse duplicate rows; returns (rows, pos_weight, total_weight).

    Row i of X stands for ``counts[i]`` records of label ``y[i]``, one by
    default. The weights are sums of whole numbers, exact in float64, so
    they do not depend on how the records were grouped into rows.
    """
    rows, inverse = unique_rows(X)
    if counts is None:
        counts = np.ones(len(X))
    total = np.bincount(inverse, weights=counts, minlength=len(rows))
    positive = np.bincount(inverse, weights=y * counts, minlength=len(rows))
    return rows, positive, total


def _gini(pos: float, tot: float) -> float:
    p = pos / tot
    return 2.0 * p * (1.0 - p)


def grow_tree(rows: np.ndarray, positive: np.ndarray, total: np.ndarray, rng,
              max_depth: int) -> dict[str, list]:
    """One CART-style tree on weighted rows: Gini impurity, <= threshold goes left.

    Every row weighs more than 0, so both sides of a split hold weight. A node
    that weighs less than 2 is a leaf, and each split tries
    max(1, int(sqrt(n_features))) features drawn at random. Returns the
    TREE_FIELDS node lists in preorder. Leaves carry feature -1 and their
    majority label, inner nodes label -1.
    """
    tree: dict[str, list] = {name: [] for name in TREE_FIELDS}
    features, thresholds, lefts, rights, labels = tree.values()
    n_features = rows.shape[1]
    n_candidates = max(1, int(np.sqrt(n_features)))
    # one contiguous copy per feature, so a node gathers its values in one run
    columns = rows.T.copy()

    def grow(idx: np.ndarray, depth: int) -> int:
        pos_sum = float(positive[idx].sum())
        tot_sum = float(total[idx].sum())
        # a leaf unless a split is found below: its majority label, ties to
        # attack (fail-safe toward detection)
        index = len(features)
        features.append(-1)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        labels.append(1 if pos_sum * 2 >= tot_sum else 0)
        pure = pos_sum < GINI_EPS or pos_sum > tot_sum - GINI_EPS
        # a bootstrap weight can sit an ulp below an integer, so a node of two
        # rows can weigh less than 2
        if pure or len(idx) < 2 or tot_sum < 2 or depth >= max_depth:
            return index

        candidates = rng.choice(n_features, n_candidates, replace=False)
        parent_gini = _gini(pos_sum, tot_sum)
        best = None  # (gain, feature, threshold, ordered, split_at)
        for f in candidates.tolist():
            values = columns[f][idx]
            order = values.argsort(kind="mergesort")
            sv = values[order]
            distinct = (sv[1:] != sv[:-1]).nonzero()[0]  # split after these positions
            if len(distinct) == 0:
                continue
            ordered = idx[order]
            left_pos = positive[ordered].cumsum()[distinct]
            left_tot = total[ordered].cumsum()[distinct]
            right_tot = tot_sum - left_tot
            p_left = left_pos / left_tot
            p_right = (pos_sum - left_pos) / right_tot
            weighted = (
                left_tot * (2.0 * p_left * (1.0 - p_left))
                + right_tot * (2.0 * p_right * (1.0 - p_right))
            ) / tot_sum
            gains = parent_gini - weighted
            at = int(gains.argmax())  # first maximum: lowest threshold wins ties
            gain = float(gains[at])
            if gain > GINI_EPS and (best is None or gain > best[0] + GINI_EPS):
                pos = distinct[at]
                threshold = float((sv[pos] + sv[pos + 1]) / 2.0)
                best = (gain, f, threshold, ordered, pos)
        if best is None:
            return index

        _, f, threshold, ordered, pos = best
        features[index], thresholds[index], labels[index] = f, threshold, -1
        lefts[index] = grow(ordered[: pos + 1], depth + 1)
        rights[index] = grow(ordered[pos + 1:], depth + 1)
        return index

    grow(np.arange(len(rows)), 0)
    return tree


class RandomForestDetector:
    """Bootstrap ensemble of Gini trees with per-node random feature subsets."""

    # the fields a model file holds
    FIELDS = ("n_trees", "max_depth", "min_samples_split", "bootstrap", "seed", "max_features",
              "trees")

    def __init__(self, n_trees: int = 100, max_depth: int = 16, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        # fixed settings, which a model file records: see fit and grow_tree
        self.min_samples_split = 2
        self.bootstrap = True
        self.max_features = "sqrt"
        self.trees: list[dict[str, list]] = []

    def fit(self, X: np.ndarray, y: np.ndarray,
            counts: np.ndarray | None = None) -> "RandomForestDetector":
        """Fit on feature rows X with 0/1 labels y; row i stands for
        ``counts[i]`` training records, one each by default."""
        classes = np.unique(y)
        if len(classes) < 2:
            raise TrainingDataError(
                f"random forest needs both classes in the training set, got only {classes.tolist()}"
            )
        rows, positive, total = _unique_weighted(X, y, counts)
        n = int(total.sum())
        share = total / n
        self.trees = []
        for i in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, f"tree:{i}"))
            drawn = rng.multinomial(n, share)
            scale = drawn / total  # every distinct row was seen at least once
            tree_tot = total * scale
            keep = tree_tot > 0
            self.trees.append(grow_tree(rows[keep], (positive * scale)[keep], tree_tot[keep],
                                        rng, self.max_depth))
        return self

    def predict(self, X: EncodedRows | np.ndarray) -> np.ndarray:
        forest = FlatForest(self.trees, "threshold")
        rows, inverse = distinct(X)
        label = np.concatenate([t["label"] for t in self.trees]).astype(np.int64)
        votes = np.zeros(len(rows), dtype=np.int64)
        for block in row_blocks(len(rows), len(self.trees)):
            votes[block] = label[forest.leaves(rows[block], np.less_equal)].sum(axis=0)
        # majority; exact ties go to attack
        return (votes * 2 >= len(self.trees)).astype(np.int64)[inverse]
