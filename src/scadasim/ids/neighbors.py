"""Distance-based detectors: k-nearest-neighbor voting and local outlier factor.

KNN neighbor order is the lexicographic (distance, training index) order, which
makes predictions a pure function of the training set and reproducible against
a brute-force oracle. Captured traffic repeats its training rows, so a query
row equal to a distinct training row that stands for at least k records is
answered without distances: its k-th distance is 0, no row is closer, and its
votes are those of that row's first k members in training-index order. That
holds only when no two different rows lie at distance 0, so the rule is used
only when every value of both row sets is finite and, column by column, any
two values are equal or at least ``SEPARATION`` apart, which keeps every
squared gap a nonzero double. The other query rows (novel rows, copies of a
row held by fewer than k records, or every row when the values do not
separate) take their distances to every distinct training row as before.

Both detectors keep their training rows as they are given, and
``train_model`` gives them ``EncodedRows``: the distinct rows and each
training record's row index. KNN's ``predict`` reads its groups from that
pair without regrouping, and LOF takes its distances to the distinct rows
and gathers them per training record wherever a mean runs over records.

LOF follows the standard pipeline: k-distance, the
tie-inclusive k-neighborhood, reachability distance, local reachability
density, then the density ratio. Duplicate-collapsed neighborhoods (zero mean
reachability) are floored at a shared epsilon so scores stay finite and exact
duplicates come out at exactly 1.0.

The LOF fit works once per distinct training row, and its k_dist, lrd and
training scores equal a per-row fit bit for bit. A training point is not its
own neighbor, but its duplicates are neighbors at distance 0, so a row's
k-distance is the k-th smallest of the other rows' distances, counted with
their multiplicities and with one fewer copy of its own row. The means that
give lrd and the score run over the row's neighborhood in ascending training
index with the member's own position deleted. Members of one distinct row can
sit at different positions, which reorders numpy's pairwise sum and can change
the last bit, so the mean is not taken once per distinct row; it is taken once
per run of equal values around the deleted position, since deleting any
position of such a run leaves the same array.
"""

from __future__ import annotations

import numpy as np

from ..capture import TrainingDataError
from .rows import EncodedRows, distinct, row_blocks, unique_rows

LRD_EPS = 1e-12
# values closer than this may square to 0; its own square, 2**-1000, is a normal double
SEPARATION = 2.0 ** -500


def _lengths(diff: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of a 2-D array of differences."""
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))


def _row_distances(X: np.ndarray, row: np.ndarray) -> np.ndarray:
    return _lengths(X - row)


def _block_distances(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), n) distances from each of ``rows`` to n training rows given
    as their contiguous (c, n) columns: each row's line equals
    ``_row_distances`` to the training rows, bit for bit, since it takes the
    same differences and the same reduction of them."""
    diff = np.empty((len(rows), columns.shape[1], len(columns)))
    for j, column in enumerate(columns):
        np.subtract(column, rows[:, j, None], out=diff[:, :, j])
    return _lengths(diff.reshape(-1, len(columns))).reshape(len(rows), -1)


def _separated(*row_sets: np.ndarray) -> bool:
    """Whether two different rows of ``row_sets`` can never lie at distance 0:
    every value is finite and, in each column, any two values are equal or at
    least SEPARATION apart."""
    values = np.vstack(row_sets)
    if not np.isfinite(values).all():
        return False
    gaps = np.diff(np.sort(values, axis=0), axis=0)
    return bool(((gaps == 0) | (gaps >= SEPARATION)).all())


def _matches(train_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per query row, the index of the distinct training row it equals, or -1."""
    _, group = unique_rows(np.vstack((train_rows, rows)))
    owner = np.full(len(train_rows) + len(rows), -1)
    owner[group[:len(train_rows)]] = np.arange(len(train_rows))
    return owner[group[len(train_rows):]]


def _kth_smallest(d: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Per row of the 2-D ``d``, its k-th smallest value when value j counts
    ``counts[..., j]`` times."""
    return np.array([np.partition(np.repeat(line, line_counts), k - 1)[k - 1]
                     for line, line_counts in zip(d, np.broadcast_to(counts, d.shape))],
                    dtype=d.dtype)


def _means_without_self(values: np.ndarray, idx: np.ndarray, members: np.ndarray) -> np.ndarray:
    """np.mean of `values` (one per index in `idx`) with each member's own position deleted.

    Deleting any position of a run of equal values leaves the same array, so
    one mean is taken per run that holds a member.
    """
    pos = np.searchsorted(idx, members)
    run = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))[pos]
    new_run = np.concatenate(([True], run[1:] != run[:-1]))
    means = np.array([np.delete(values, p).mean() for p in pos[new_run]])
    return means[np.cumsum(new_run) - 1]


class KnnDetector:
    """Majority vote among the k nearest stored samples; vote ties -> attack."""

    # the fields a model file holds
    FIELDS = ("k", "X", "y")

    def __init__(self, k: int = 5):
        self.k = k
        self.X: np.ndarray | None = None
        self.y: np.ndarray | None = None

    def fit(self, X: EncodedRows | np.ndarray, y: np.ndarray) -> "KnnDetector":
        """Keep the training rows X as they are given, with their 0/1 labels y."""
        if len(X) < self.k:
            raise TrainingDataError(f"k={self.k} exceeds training set size {len(X)}")
        self.X = X
        self.y = y
        return self

    def predict(self, Xq: EncodedRows | np.ndarray) -> np.ndarray:
        rows, inverse = distinct(Xq)
        # Identical training rows lie at bit-identical distances, so distances
        # are taken to each distinct training row once; only the group tied at
        # the k-th distance needs the training index to break its tie. Its
        # first `need` members in training-index order carry the votes read
        # off a running attack count over the members of each group.
        train_rows, group = distinct(self.X)
        sizes = np.bincount(group)
        attacks = np.bincount(group, weights=self.y).astype(np.int64)
        first_member = np.cumsum(sizes) - sizes
        running = np.concatenate(([0], np.cumsum(self.y[np.argsort(group, kind="stable")])))
        out = np.empty(len(rows), dtype=np.int64)
        pending = np.arange(len(rows))
        if _separated(train_rows, rows):
            # a copy of a group of k or more lies at distance 0 from it alone,
            # and the group's first k members carry its votes
            match = _matches(train_rows, rows)
            copy = match >= 0
            copy[copy] = sizes[match[copy]] >= self.k
            start = first_member[match[copy]]
            out[copy] = (running[start + self.k] - running[start]) * 2 >= self.k
            pending = np.flatnonzero(~copy)
        columns = train_rows.T.copy()
        for block in row_blocks(len(pending), train_rows.size):
            block = pending[block]
            d = _block_distances(columns, rows[block])
            by_distance = np.argsort(d, axis=1, kind="stable")
            reach = np.argmax(np.cumsum(sizes[by_distance], axis=1) >= self.k, axis=1)
            kth_group = by_distance[np.arange(len(d)), reach]
            kth = d[np.arange(len(d)), kth_group][:, None]
            closer = (d < kth).astype(np.int64)
            need = self.k - closer @ sizes
            votes = closer @ attacks
            tied = d == kth
            n_tied = tied.sum(axis=1)
            one = n_tied == 1
            start = first_member[kth_group[one]]
            votes[one] += running[start + need[one]] - running[start]
            for i in np.flatnonzero(n_tied > 1):  # several groups at the k-th distance
                votes[i] += self.y[np.flatnonzero(tied[i][group])[:need[i]]].sum()
            out[block] = votes * 2 >= self.k
        return out[inverse]


class LofDetector:
    """Local outlier factor against an attack-free reference set.

    flag(x) is true iff LOF(x) strictly exceeds the decision threshold,
    calibrated as a quantile (default 99th percentile) of training scores.
    """

    # the fields a model file holds
    FIELDS = ("k", "quantile", "X", "k_dist", "lrd", "train_scores", "threshold")

    def __init__(self, k: int = 20, quantile: float = 99.0):
        self.k = k
        self.quantile = quantile
        self.X: np.ndarray | None = None
        self.k_dist: np.ndarray | None = None
        self.lrd: np.ndarray | None = None
        self.train_scores: np.ndarray | None = None
        self.threshold: float | None = None

    def fit(self, X: EncodedRows | np.ndarray) -> "LofDetector":
        """Keep the training rows X as they are given, with each record's
        k-distance and lrd, its training score and the threshold."""
        if len(X) <= self.k:  # a point is not its own neighbor
            raise TrainingDataError(f"need more than k={self.k} training points, got {len(X)}")
        self.X = X
        rows, group = distinct(X)
        sizes = np.bincount(group)
        members = np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1])
        group_k_dist = np.empty(len(rows))
        neighborhoods = []
        columns = rows.T.copy()
        for block in row_blocks(len(rows), rows.size):
            d = _block_distances(columns, rows[block])
            others = np.tile(sizes, (len(d), 1))
            # a point's duplicates are its neighbors, the point is not
            others[np.arange(len(d)), range(len(rows))[block]] -= 1
            group_k_dist[block] = _kth_smallest(d, others, self.k)
            for line, kth in zip(d, group_k_dist[block]):
                # ascending training indices within the k-distance, own members included
                idx = np.flatnonzero((line <= kth)[group])
                neighborhoods.append((idx, line[group[idx]]))
        k_dist = group_k_dist[group]
        lrd = np.empty(len(X))
        for m, (idx, near_d) in zip(members, neighborhoods):
            reach = np.maximum(k_dist[idx], near_d)
            lrd[m] = 1.0 / np.maximum(LRD_EPS, _means_without_self(reach, idx, m))
        scores = np.empty(len(X))
        for m, (idx, _) in zip(members, neighborhoods):
            scores[m] = _means_without_self(lrd[idx], idx, m) / lrd[m]
        self.k_dist = k_dist
        self.lrd = lrd
        self.train_scores = scores
        self.threshold = float(np.percentile(scores, self.quantile))
        return self

    def score(self, Xq: EncodedRows | np.ndarray) -> np.ndarray:
        """LOF of query points against the training set, once per distinct
        query row; its distances to the training records are those to their
        distinct rows, and its means run over its neighbors in training
        index order."""
        rows, inverse = distinct(Xq)
        train_rows, group = distinct(self.X)
        sizes = np.bincount(group)
        columns = train_rows.T.copy()
        out = np.zeros(len(rows))
        for block in row_blocks(len(rows), train_rows.size):
            d = _block_distances(columns, rows[block])
            for i, line, kth in zip(range(len(rows))[block], d, _kth_smallest(d, sizes, self.k)):
                neigh = (line <= kth)[group].nonzero()[0]
                reach = np.maximum(self.k_dist[neigh], line[group[neigh]])
                lrd_q = 1.0 / max(LRD_EPS, float(reach.mean()))
                out[i] = float(self.lrd[neigh].mean()) / lrd_q
        return out[inverse]

    def predict(self, Xq: EncodedRows | np.ndarray) -> np.ndarray:
        return (self.score(Xq) > self.threshold).astype(np.int64)
