"""The once-per-distinct-row and array-block code paths against frozen copies
of the row-by-row code they replaced.

The CSV reader checks each distinct row tail once; KNN scores blocks of
distinct query rows; both forests walk all their trees together; isolation
trees grow on each sample's distinct rows; the random forest's split search
divides without guards; the key pass numbers records in one first-seen pass.
Each must give exactly what the row-by-row code gave: the same records and
error messages, the same predictions, scores equal byte for byte, and the
same trees and key numbers. A record list holds its key pass, and what it
returns, also after the list is changed in place, must be the generator's
numbering of the list as it then is. The forest that ``train_model`` grows
from the distinct rows and key counts it hands over must be the forest that
``fit`` grows on the expanded matrix. The distinct rows and inverse that
``encode`` groups from the distinct keys must be those of the per-record
matrix, and every detector must predict on them what it predicts on that
matrix; KNN's block distances must equal ``_row_distances`` byte for byte,
and LOF's k-th distance with counts must be what the argpartition of the
k + 1 nearest values and a walk of their running count gave.
KNN, LOF and the isolation forest, fitted on ``EncodedRows`` as
``train_model`` fits them, must keep, predict and save exactly what they do
when fitted on the per-record matrix, and the key pass that several joined
lists hold must be the pass over the joined records.
"""

import math
import os
import tempfile
from itertools import zip_longest
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scadasim.capture import (
    _ROW_STAGE,
    CSV_HEADER,
    LABELS,
    DatasetFormatError,
    LabeledDataset,
    LabeledRecord,
    RecordList,
    import_csv,
    join_record_lists,
)
from scadasim.engine import derive_seed
from scadasim.ids import (
    IsolationForestDetector,
    KnnDetector,
    LofDetector,
    RandomForestDetector,
    TrafficModel,
    TrainingDataError,
    save_model,
    train_model,
)
from scadasim.ids import neighbors
from scadasim.ids import rows as rows_module
from scadasim.ids.forest import GINI_EPS, _gini, _unique_weighted
from scadasim.ids.iforest import average_path_length, grow_tree
from scadasim.ids.models import FeatureDictionary, _distinct_keys, _key_pass
from scadasim.ids.neighbors import _block_distances, _row_distances
from scadasim.ids.rows import EncodedRows, row_blocks, unique_rows
from scadasim.network import MIN_PACKET_BYTES

# ---------------------------------------------------------------------------
# frozen row-by-row code
# ---------------------------------------------------------------------------


def frozen_import_csv(path: str) -> LabeledDataset:
    """The reader that checked every field of every row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DatasetFormatError(f"{path}: missing or wrong header")
    records: list[LabeledRecord] = []
    for row_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise DatasetFormatError(f"{path} row {row_no}: expected 7 fields, got {len(parts)}")
        time_s, src, dst, protocol, length_s, label, stage = parts
        try:
            time_ms = int(time_s)
            length = int(length_s)
        except ValueError as exc:
            raise DatasetFormatError(f"{path} row {row_no}: non-integer field: {exc}") from exc
        try:
            stage_tag = _ROW_STAGE[label, stage]
        except KeyError:
            if label not in LABELS:
                problem = f"bad label token {label!r}"
            elif label == "attack":
                problem = f"bad stage {stage!r} for attack row"
            else:
                problem = "normal row carries a stage"
            raise DatasetFormatError(f"{path} row {row_no}: {problem}") from None
        if time_ms < 0:
            raise DatasetFormatError(f"{path} row {row_no}: negative time_ms {time_ms}")
        if length < MIN_PACKET_BYTES:
            raise DatasetFormatError(
                f"{path} row {row_no}: length {length} below {MIN_PACKET_BYTES} bytes")
        if not (src and dst and protocol):
            raise DatasetFormatError(f"{path} row {row_no}: empty src, dst or protocol")
        records.append(LabeledRecord(time_ms, src, dst, protocol, length, label, stage_tag))
    return LabeledDataset.from_records(records)


def frozen_knn_predict(X, y, k, Xq):
    """KNN prediction one distinct query row at a time."""
    rows, inverse = unique_rows(Xq)
    train_rows, group = unique_rows(X)
    sizes = np.bincount(group)
    attacks = np.bincount(group, weights=y).astype(np.int64)
    out = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        diff = train_rows - row
        d = np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))
        by_distance = np.argsort(d, kind="stable")
        reach = np.searchsorted(np.cumsum(sizes[by_distance]), k)
        kth = d[by_distance[reach]]
        closer = d < kth
        need = k - int(sizes[closer].sum())
        tied = np.flatnonzero((d == kth)[group])[:need]
        attack_votes = int(attacks[closer].sum()) + int(y[tied].sum())
        out[i] = 1 if attack_votes * 2 >= k else 0
    return out[inverse]


def frozen_tree_predict(tree, X):
    """One decision tree's labels, the rows walked level by level."""
    out = np.zeros(len(X), dtype=np.int64)
    node_of = np.zeros(len(X), dtype=np.int64)
    feature = np.asarray(tree["feature"])
    threshold = np.asarray(tree["threshold"])
    left = np.asarray(tree["left"])
    right = np.asarray(tree["right"])
    label = np.asarray(tree["label"])
    active = np.arange(len(X))
    while len(active):
        nodes = node_of[active]
        at_leaf = feature[nodes] == -1
        done = active[at_leaf]
        out[done] = label[node_of[done]]
        active = active[~at_leaf]
        if not len(active):
            break
        nodes = node_of[active]
        goes_left = X[active, feature[nodes]] <= threshold[nodes]
        node_of[active] = np.where(goes_left, left[nodes], right[nodes])
    return out


def frozen_forest_predict(det, X):
    rows, inverse = unique_rows(np.asarray(X, dtype=np.float64))
    votes = np.zeros(len(rows), dtype=np.int64)
    for tree in det.trees:
        votes += frozen_tree_predict(tree, rows)
    return (votes * 2 >= len(det.trees)).astype(np.int64)[inverse]


def frozen_path_length(tree, X):
    """One isolation tree's path lengths, c(leaf size) taken per (leaf, row)."""
    out = np.zeros(len(X))
    node_of = np.zeros(len(X), dtype=np.int64)
    depth = np.zeros(len(X))
    feature = np.asarray(tree["feature"])
    split = np.asarray(tree["split"])
    left = np.asarray(tree["left"])
    right = np.asarray(tree["right"])
    leaf_size = np.asarray(tree["leaf_size"])
    active = np.arange(len(X))
    while len(active):
        nodes = node_of[active]
        at_leaf = feature[nodes] == -1
        done = active[at_leaf]
        sizes = leaf_size[node_of[done]]
        out[done] = depth[done] + np.array([average_path_length(int(s)) for s in sizes])
        active = active[~at_leaf]
        if not len(active):
            break
        nodes = node_of[active]
        goes_left = X[active, feature[nodes]] < split[nodes]
        node_of[active] = np.where(goes_left, left[nodes], right[nodes])
        depth[active] += 1.0
    return out


def frozen_iforest_score(det, Xq):
    Xq = np.asarray(Xq, dtype=np.float64)
    rows, inverse = unique_rows(Xq)
    depths = np.zeros(len(rows))
    for tree in det.trees:
        depths += frozen_path_length(tree, rows)
    mean_depth = depths / len(det.trees)
    denom = average_path_length(det.sample_size)
    if denom <= 0:
        return np.ones(len(Xq))
    return (2.0 ** (-mean_depth / denom))[inverse]


def frozen_iforest_trees(X, n_trees, subsample, seed):
    """Isolation trees grown on each sample's rows with their duplicates, as
    ``IsolationForestDetector.fit`` grew them."""
    def grow_tree(X, rng, max_depth):
        tree = {name: [] for name in ("feature", "split", "left", "right", "leaf_size")}
        features, splits, lefts, rights, leaf_sizes = tree.values()

        def grow(X, depth):
            n = len(X)
            index = len(features)
            features.append(-1)
            splits.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            leaf_sizes.append(n)
            if n <= 1 or depth >= max_depth:
                return index
            lo = X.min(axis=0)
            hi = X.max(axis=0)
            splittable = np.nonzero(hi > lo)[0]
            if len(splittable) == 0:
                return index
            f = int(splittable[rng.integers(len(splittable))])
            value = float(rng.uniform(lo[f], hi[f]))
            features[index], splits[index] = f, value
            mask = X[:, f] < value
            lefts[index] = grow(X[mask], depth + 1)
            rights[index] = grow(X[~mask], depth + 1)
            return index

        grow(X, 0)
        return tree

    size = min(subsample, len(X))
    max_depth = max(1, math.ceil(math.log2(max(2, size))))
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, f"itree:{i}"))
        idx = rng.choice(len(X), size, replace=False)
        trees.append(grow_tree(X[idx], rng, max_depth))
    return trees


def frozen_grow_tree(sample, rng, max_depth):
    """``iforest.grow_tree`` as it was when a node of one distinct row found
    no splittable feature in its transposed sample before it became a leaf."""
    tree = {name: [] for name in ("feature", "split", "left", "right", "leaf_size")}
    features, splits, lefts, rights, leaf_sizes = tree.values()

    def grow(sample, depth):
        n = sum(map(itemgetter(1), sample))
        index = len(features)
        features.append(-1)
        splits.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        leaf_sizes.append(n)
        if n <= 1 or depth >= max_depth:
            return index
        columns = list(zip(*map(itemgetter(0), sample)))
        lo = list(map(min, columns))
        hi = list(map(max, columns))
        splittable = [f for f, (a, b) in enumerate(zip(lo, hi)) if b > a]
        if not splittable:
            return index
        f = splittable[rng.integers(len(splittable))]
        value = float(rng.uniform(lo[f], hi[f]))
        features[index], splits[index] = f, value
        lefts[index] = grow([s for s in sample if s[0][f] < value], depth + 1)
        rights[index] = grow([s for s in sample if not s[0][f] < value], depth + 1)
        return index

    grow(sample, 0)
    return tree


def frozen_gini_vec(pos, tot):
    p = np.divide(pos, tot, out=np.zeros_like(pos), where=tot > 0)
    return 2.0 * p * (1.0 - p)


def frozen_rf_grow_tree(rows, positive, total, rng, max_depth, min_samples_split, max_features):
    """The split search whose divisions were guarded against empty sides."""
    tree = {name: [] for name in ("feature", "threshold", "left", "right", "label")}
    features, thresholds, lefts, rights, labels = tree.values()
    n_features = rows.shape[1]

    def grow(idx, depth):
        pos_sum = float(positive[idx].sum())
        tot_sum = float(total[idx].sum())
        index = len(features)
        features.append(-1)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        labels.append(1 if pos_sum * 2 >= tot_sum else 0)
        pure = pos_sum < GINI_EPS or pos_sum > tot_sum - GINI_EPS
        if (pure or len(idx) < 2 or tot_sum < min_samples_split
                or (max_depth is not None and depth >= max_depth)):
            return index
        if max_features is None or max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, max_features, replace=False)
        parent_gini = _gini(pos_sum, tot_sum)
        best = None
        for f in candidates:
            values = rows[idx, f]
            order = np.argsort(values, kind="mergesort")
            sv = values[order]
            distinct = np.nonzero(sv[1:] != sv[:-1])[0]
            if len(distinct) == 0:
                continue
            cum_pos = np.cumsum(positive[idx][order])
            cum_tot = np.cumsum(total[idx][order])
            left_pos = cum_pos[distinct]
            left_tot = cum_tot[distinct]
            right_pos = pos_sum - left_pos
            right_tot = tot_sum - left_tot
            weighted = (
                left_tot * frozen_gini_vec(left_pos, left_tot)
                + right_tot * frozen_gini_vec(right_pos, right_tot)
            ) / tot_sum
            gains = parent_gini - weighted
            at = int(np.argmax(gains))
            gain = float(gains[at])
            if gain > GINI_EPS and (best is None or gain > best[0] + GINI_EPS):
                pos = distinct[at]
                threshold = float((sv[pos] + sv[pos + 1]) / 2.0)
                best = (gain, int(f), threshold, order, pos)
        if best is None:
            return index
        _, f, threshold, order, pos = best
        features[index], thresholds[index], labels[index] = f, threshold, -1
        lefts[index] = grow(idx[order[: pos + 1]], depth + 1)
        rights[index] = grow(idx[order[pos + 1:]], depth + 1)
        return index

    grow(np.arange(len(rows)), 0)
    return tree


def frozen_rf_trees(X, y, n_trees, max_depth, max_features, bootstrap, seed):
    """``RandomForestDetector.fit``'s trees, bootstrap weights divided under a guard."""
    rows, positive, total = _unique_weighted(X, y)
    n = int(total.sum())
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, f"tree:{i}"))
        sample = rows, positive, total
        if bootstrap:
            counts = rng.multinomial(n, total / n)
            scale = np.divide(counts, total, out=np.zeros_like(total), where=total > 0)
            tree_tot = total * scale
            keep = tree_tot > 0
            sample = rows[keep], (positive * scale)[keep], tree_tot[keep]
        trees.append(frozen_rf_grow_tree(*sample, rng, max_depth, 2, max_features))
    return trees


def frozen_kth_smallest(d, counts, k):
    """LOF's k-th distance with counts as an argpartition of each row's k + 1
    nearest values took it, then a walk of their running count; a row's
    counts must all be positive but at most one."""
    line = np.arange(len(d))
    if d.shape[1] > k + 1:
        near = np.argpartition(d, k, axis=1)[:, :k + 1]
        near = near[line[:, None], np.argsort(d[line[:, None], near], axis=1)]
    else:
        near = np.argsort(d, axis=1)
    counts = np.broadcast_to(counts, d.shape)[line[:, None], near]
    return d[line, near[line, (np.cumsum(counts, axis=1) < k).sum(axis=1)]]


def frozen_distinct_keys(records):
    """The key pass numbering each record's key in a generator."""
    index = {}
    inverse = np.fromiter((index.setdefault(r[1:6], len(index)) for r in records),
                          dtype=np.intp, count=len(records))
    return index, inverse


# ---------------------------------------------------------------------------
# CSV reader
# ---------------------------------------------------------------------------

GOOD_TAILS = [
    "10.0.0.11,10.0.0.10,SCADA,61,normal,",
    "10.0.0.10,10.0.0.11,SCADA,64,normal,",
    "10.0.0.66,10.0.0.11,SCAN_PROBE,60,attack,S1",
    "10.0.0.66,10.0.0.11,SSH,120,attack,S2",
    "10.0.0.66,10.0.0.12,HTTP,20,attack,S4",
]
BAD_TIMES = ["-1", "x7", "", "1.5", "-0x1"]
# times int() reads although no export writes them
ODD_TIMES = [" 5", "+5", "1_0", "\u0663", "-0"]
BAD_TAILS = [
    "a,b,SCADA,sixty,normal,",  # non-integer length
    "a,b,SCADA,61,suspicious,",  # bad label
    "a,b,SCAN_PROBE,60,attack,S9",  # bad stage
    "a,b,SCADA,61,normal,S1",  # normal row with a stage
    "a,b,SCADA,19,normal,",  # short
    ",b,SCADA,61,normal,",  # empty src
    "a,b,SCADA,61,normal",  # too few fields
    "a,b,SCADA,61,normal,,extra",  # too many fields
]
# two faults in one row: the check that comes first must win
TWO_FAULTS = [
    "x1,a,b,SCADA,61,suspicious,",  # non-integer time before the label
    "-4,a,b,SCADA,61,suspicious,",  # the label before a negative time
    "-4,a,b,SCADA,sixty,normal,",  # a non-integer length before a negative time
    "-4,a,b,SCADA,19,normal,",  # a negative time before a short length
    "5,,b,SCADA,19,normal,",  # a short length before an empty src
    "x1,a,b",  # the field count before anything else
]


def read_both(text):
    """(records or error message) of the reader and of the frozen reader."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        for reader in (import_csv, frozen_import_csv):
            try:
                ds = reader(path)
                results.append((repr(ds.records), ds.warmup_end))
            except DatasetFormatError as exc:
                results.append(str(exc).replace(path, "<path>"))
    return results


good_rows = st.lists(
    st.tuples(st.one_of(st.integers(0, 10**9), st.sampled_from(ODD_TIMES)),
              st.integers(0, len(GOOD_TAILS) - 1)), max_size=60)


class TestCsvReader:
    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=good_rows)
    # each odd time on a new tail, then on a tail already checked
    @example(rows=[(t, i) for i, t in enumerate(ODD_TIMES)] + [(t, 0) for t in ODD_TIMES])
    def test_valid_files_read_as_the_frozen_reader_reads_them(self, rows):
        text = "".join(f"{t},{GOOD_TAILS[i]}\n" for t, i in rows)
        new, frozen = read_both(CSV_HEADER + "\n" + text)
        assert new == frozen

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=good_rows, data=st.data())
    def test_one_malformed_row_gives_the_frozen_readers_error(self, rows, data):
        lines = [f"{t},{GOOD_TAILS[i]}" for t, i in rows]
        kind = data.draw(st.sampled_from(["bad time", "bad tail", "two faults"]), label="kind")
        if kind == "bad time":
            # the tail repeats a good row's, so only the time can be wrong
            tail = data.draw(st.sampled_from([GOOD_TAILS[i] for _, i in rows] or GOOD_TAILS))
            bad = data.draw(st.sampled_from(BAD_TIMES), label="time") + "," + tail
        elif kind == "bad tail":
            bad = "7," + data.draw(st.sampled_from(BAD_TAILS), label="tail")
        else:
            bad = data.draw(st.sampled_from(TWO_FAULTS), label="row")
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), bad)
        new, frozen = read_both(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
        assert isinstance(frozen, str)
        assert new == frozen

    def test_bad_tail_after_many_good_rows_names_its_row(self):
        lines = [f"{t},{GOOD_TAILS[t % len(GOOD_TAILS)]}" for t in range(500)]
        lines.append("9,10.0.0.11,10.0.0.10,SCADA,61,normal,S3")
        new, frozen = read_both(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
        assert new == frozen == "<path> row 502: normal row carries a stage"

    def test_rows_with_the_same_tail_share_field_objects(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(f"{t},{GOOD_TAILS[2]}\n" for t in (5, 9)))
        a, b = import_csv(str(path)).records
        assert (a.time_ms, b.time_ms) == (5, 9)
        assert a.src is b.src and a.dst is b.dst and a.protocol is b.protocol
        assert a.label is b.label and a.stage is b.stage


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def feature_rows(data, n_min, n_max, label):
    """Encoded-traffic-like rows: three small category codes and a length
    normalized to [0, 1] as the encoder does, drawn from a few distinct rows
    so that duplicates and equal distances are common."""
    pool = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                                        st.integers(20, 29)),
                              min_size=1, max_size=12), label=f"{label} pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_min, max_size=n_max),
                      label=f"{label} picks")
    return np.array([(s, d, p, (length - 20) / 9) for s, d, p, length in
                     (pool[i] for i in picks)], dtype=np.float64).reshape(-1, 4)


def rows_on_cuts(trees, cut, row):
    """Copies of `row` whose split feature equals a tree node's cut, where
    the walk's comparison decides the branch."""
    out = []
    for tree in trees:
        for f, value in zip(tree["feature"], tree[cut]):
            if f != -1:
                out.append(np.array(row, dtype=np.float64))
                out[-1][f] = value
    return np.array(out).reshape(-1, len(row))


# one block of one row, a few rows, and the default size
block_values = st.sampled_from([1, 2000, rows_module.BLOCK_VALUES])

# values whose squared gaps are ordinary doubles, and values that do not
# separate: gaps that underflow to a zero square, a signed zero, non-finite
SEPARATE_VALUES = (0.0, 0.5, 1.0, 2.0)
OTHER_VALUES = (-0.0, 5e-324, 1e-200, math.inf, -math.inf, math.nan)


@st.composite
def duplicate_queries(draw):
    """(X, y, k, Xq): training rows in groups of sizes around k, shuffled, and
    queries that are mostly copies of those rows, with a few other rows."""
    values = SEPARATE_VALUES + tuple(draw(st.lists(st.sampled_from(OTHER_VALUES), max_size=2,
                                                   unique_by=repr), label="odd values"))
    row = st.tuples(*[st.sampled_from(values)] * 3)
    pool = draw(st.lists(row, min_size=1, max_size=6), label="pool")
    k = draw(st.integers(1, 6), label="k")
    sizes = draw(st.lists(st.integers(max(1, k - 2), k + 1), min_size=len(pool),
                          max_size=len(pool)), label="sizes")
    X = [r for r, size in zip(pool, sizes) for _ in range(size)]
    assume(len(X) >= k)
    X = np.array(draw(st.permutations(X), label="order"), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)),
                      label="y"), dtype=np.int64)
    copies = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20), label="copies")
    others = draw(st.lists(row, max_size=3), label="others")
    return X, y, k, np.array(copies + others, dtype=np.float64)


def knn_case(rows, y, k, queries):
    return (np.array(rows, dtype=np.float64), np.array(y, dtype=np.int64), k,
            np.array(queries, dtype=np.float64))


class TestKnnBlocks:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data(), block=block_values)
    def test_predictions_equal_the_row_by_row_code(self, data, block):
        X = feature_rows(data, 1, 60, "train")
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)),
                               label="y"), dtype=np.int64)
        Xq = np.vstack([X, feature_rows(data, 1, 40, "query")])
        k = data.draw(st.integers(1, len(X)), label="k")
        with mock.patch.object(rows_module, "BLOCK_VALUES", block):
            got = KnnDetector(k=k).fit(X, y).predict(Xq)
        assert got.tolist() == frozen_knn_predict(X, y, k, Xq).tolist()

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=duplicate_queries(), block=block_values)
    # 5e-324 and 1e-200 lie at distance 0 from 0.0 but are other rows: the
    # query's own group of k would carry the vote alone, not the tied union
    @example(case=knn_case([[5e-324, 0, 0], [0, 0, 0], [0, 0, 0]], [1, 0, 0], 2, [[0, 0, 0]]),
             block=rows_module.BLOCK_VALUES)
    @example(case=knn_case([[0, 1e-200, 0], [0, 0, 0], [0, 0, 0], [0, 1e-200, 0]], [1, 0, 0, 1],
                           3, [[0, 0, 0], [0, 1e-200, 0]]), block=rows_module.BLOCK_VALUES)
    @example(case=knn_case([[-0.0, 1, 0], [0, 1, 0], [1, 1, 0]], [0, 1, 1], 2, [[0, 1, 0]]),
             block=1)
    def test_copies_of_training_rows_equal_the_row_by_row_code(self, case, block):
        X, y, k, Xq = case
        # inf - inf differences are NaN distances on both sides
        with mock.patch.object(rows_module, "BLOCK_VALUES", block), np.errstate(invalid="ignore"):
            got = KnnDetector(k=k).fit(X, y).predict(Xq)
            want = frozen_knn_predict(X, y, k, Xq)
        assert got.tolist() == want.tolist()

    def test_copies_of_groups_of_k_or_more_take_no_distances(self):
        k = 5
        a, b, c, off = [0.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0], [0.5, 0.5, 0, 0]
        # a holds exactly k members and b k + 2, whose first k vote 2 of 5 (any
        # later k would vote 4); c holds k - 1, so its copies need distances
        groups = [(a, [1, 1, 1, 0, 0]), (b, [0, 0, 0, 1, 1, 1, 1]), (c, [1, 1, 1, 1])]
        # members interleaved by training index, each group's labels in order
        members = [m for layer in zip_longest(*[[(row, label) for label in labels]
                                                for row, labels in groups]) for m in layer if m]
        X = np.array([row for row, _ in members])
        y = np.array([label for _, label in members])
        det = KnnDetector(k=k).fit(X, y)
        seen = []

        def recording(columns, rows):
            seen.append(rows.copy())
            return _block_distances(columns, rows)

        with mock.patch.object(neighbors, "_block_distances", recording):
            copies = det.predict(np.array([b, a, a, b]))
            assert seen == []
            mixed = det.predict(np.array([off, a, c, b, c]))
        assert copies.tolist() == [0, 1, 1, 0]
        assert mixed.tolist() == frozen_knn_predict(X, y, k, np.array([off, a, c, b, c])).tolist()
        assert mixed[[1, 3]].tolist() == [1, 0]
        assert sorted(map(tuple, np.vstack(seen))) == sorted([tuple(c), tuple(off)])

    def test_several_groups_tied_at_the_kth_distance(self):
        # two groups at distance 1 from the query, members interleaved by
        # training index, so the vote takes the first members of both groups
        X = np.array([[0.0, 0, 0, 0.5], [2.0, 0, 0, 0.5]] * 3 + [[9.0, 9, 9, 1.0]])
        y = np.array([0, 1, 1, 1, 0, 0, 1])
        query = np.array([[1.0, 0, 0, 0.5]])
        for k in range(1, 7):
            got = KnnDetector(k=k).fit(X, y).predict(query)
            assert got.tolist() == frozen_knn_predict(X, y, k, query).tolist(), k

    def test_more_distinct_queries_than_one_block_holds(self):
        rng = np.random.default_rng(5)
        X = np.round(rng.uniform(0, 3, size=(300, 4)), 1)
        y = (rng.random(300) < 0.4).astype(np.int64)
        Xq = np.round(rng.uniform(0, 3, size=(400, 4)), 1)
        det = KnnDetector(k=7).fit(X, y)
        assert 4 * len(unique_rows(X)[0]) * len(unique_rows(Xq)[0]) > rows_module.BLOCK_VALUES
        assert det.predict(Xq).tolist() == frozen_knn_predict(X, y, 7, Xq).tolist()


class TestForestWalk:
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data(), block=block_values)
    def test_isolation_scores_equal_the_per_tree_sum_byte_for_byte(self, data, block):
        X = feature_rows(data, 2, 80, "train")
        subsample = data.draw(st.integers(1, len(X)), label="subsample")
        n_trees = data.draw(st.integers(1, 12), label="n_trees")
        seed = data.draw(st.integers(0, 3), label="seed")
        with mock.patch.object(rows_module, "BLOCK_VALUES", block):
            det = IsolationForestDetector(n_trees=n_trees, subsample=subsample, seed=seed).fit(X)
            Xq = np.vstack([X, feature_rows(data, 1, 30, "query"),
                            rows_on_cuts(det.trees, "split", X[0])])
            score = det.score(Xq)
        assert score.tobytes() == frozen_iforest_score(det, Xq).tobytes()
        train_scores = frozen_iforest_score(det, X)
        assert det.train_scores.tobytes() == train_scores.tobytes()
        assert det.threshold == float(np.percentile(train_scores, det.quantile))

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data(), block=block_values)
    def test_forest_votes_equal_the_per_tree_walk(self, data, block):
        X = feature_rows(data, 2, 80, "train")
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)),
                               label="y"), dtype=np.int64)
        y[:2] = (0, 1)  # both classes
        det = RandomForestDetector(n_trees=data.draw(st.integers(1, 12), label="n_trees"),
                                   max_depth=data.draw(st.sampled_from([1, 3, 16])),
                                   seed=data.draw(st.integers(0, 3), label="seed")).fit(X, y)
        Xq = np.vstack([X, feature_rows(data, 1, 30, "query"),
                        rows_on_cuts(det.trees, "threshold", X[0])])
        with mock.patch.object(rows_module, "BLOCK_VALUES", block):
            got = det.predict(Xq)
        assert got.tolist() == frozen_forest_predict(det, Xq).tolist()


# ---------------------------------------------------------------------------
# tree growth and the key pass
# ---------------------------------------------------------------------------

def tree_rows(data):
    """Rows whose columns are each constant, a few codes, two adjacent floats
    (a drawn split can round onto one of them, where ``<`` and ``<=`` part)
    or spread floats; heavily duplicated, or made all distinct."""
    columns = []
    for c in range(4):
        kind = data.draw(st.sampled_from(["constant", "codes", "adjacent", "spread"]),
                         label=f"column {c}")
        if kind == "constant":
            columns.append([float(data.draw(st.integers(0, 3), label="constant"))])
        elif kind == "codes":
            columns.append([0.0, 1.0, 2.0, 3.0])
        elif kind == "adjacent":
            x = data.draw(st.floats(0, 1), label="adjacent")
            columns.append([x, float(np.nextafter(x, 2.0))])
        else:
            columns.append(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=20,
                                              unique=True), label="spread"))
    X = np.array(data.draw(st.lists(st.tuples(*map(st.sampled_from, columns)),
                                    min_size=2, max_size=120), label="rows"),
                 dtype=np.float64)
    distinct = unique_rows(X)[0]
    if len(distinct) > 1 and data.draw(st.booleans(), label="all distinct"):
        return distinct
    return X


class TestTreeGrowth:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_isolation_trees_equal_the_ones_grown_on_every_sampled_row(self, data):
        X = tree_rows(data)
        subsample = data.draw(st.integers(1, len(X)), label="subsample")
        n_trees = data.draw(st.integers(1, 8), label="n_trees")
        seed = data.draw(st.integers(0, 3), label="seed")
        det = IsolationForestDetector(n_trees=n_trees, subsample=subsample, seed=seed).fit(X)
        assert det.trees == frozen_iforest_trees(X, n_trees, subsample, seed)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_isolation_tree_equals_the_one_that_split_one_row_nodes_in_vain(self, data):
        rows = unique_rows(tree_rows(data))[0].tolist()
        picked = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6,
                                    unique=True), label="distinct rows")
        sample = [rows[i] for i in picked]
        if data.draw(st.booleans(), label="NaN copies"):
            # two rows no column tells apart: the one node a split search still ends
            sample += [[math.nan, *sample[0][1:]]] * 2
        counts = data.draw(st.lists(st.integers(1, 4), min_size=len(sample),
                                    max_size=len(sample)), label="counts")
        max_depth = data.draw(st.integers(1, 8), label="max_depth")
        seed = data.draw(st.integers(0, 3), label="seed")
        sample = list(zip(sample, counts))
        assert grow_tree(sample, np.random.default_rng(seed), max_depth) == \
            frozen_grow_tree(sample, np.random.default_rng(seed), max_depth)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_forest_trees_equal_the_guarded_split_search(self, data):
        X = tree_rows(data)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)),
                               label="y"), dtype=np.int64)
        y[:2] = (0, 1)  # both classes
        kwargs = dict(n_trees=data.draw(st.integers(1, 6), label="n_trees"),
                      max_depth=data.draw(st.sampled_from([1, 3, 16]), label="max_depth"),
                      seed=data.draw(st.integers(0, 3), label="seed"))
        det = RandomForestDetector(**kwargs).fit(X, y)
        # sqrt of the 4 features: 2 tried per split
        assert det.trees == frozen_rf_trees(X, y, max_features=2, bootstrap=True, **kwargs)

    @settings(max_examples=200, deadline=None, database=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "d"]),
                                    st.sampled_from(["SCADA", "HTTP"]), st.integers(20, 23),
                                    st.sampled_from(["normal", "attack"]), st.integers(0, 9)),
                          max_size=80))
    def test_key_pass_numbers_records_as_the_generator_did(self, picks):
        records = [LabeledRecord(t, src, dst, protocol, length, label,
                                 "S1" if label == "attack" else None)
                   for src, dst, protocol, length, label, t in picks]
        keys, inverse = _distinct_keys(records)
        frozen_keys, frozen_inverse = frozen_distinct_keys(records)
        assert list(keys.items()) == list(frozen_keys.items())
        assert inverse.dtype == frozen_inverse.dtype
        assert inverse.tolist() == frozen_inverse.tolist()


# ---------------------------------------------------------------------------
# key pass held by a record list
# ---------------------------------------------------------------------------

def pick_record(pick):
    src, dst, protocol, length, label, t = pick
    return LabeledRecord(t, src, dst, protocol, length, label, "S1" if label == "attack" else None)


KEY_PICKS = st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "d"]),
                      st.sampled_from(["SCADA", "HTTP"]), st.integers(20, 23),
                      st.sampled_from(["normal", "attack"]), st.integers(0, 9))
MUTATIONS = ["append", "extend", "del", "sort", "reverse", "setitem"]


def mutate(records, mutation, data):
    """One in-place change of a non-empty record list."""
    index = data.draw(st.integers(0, len(records) - 1), label="index")
    if mutation == "append":
        records.append(pick_record(data.draw(KEY_PICKS, label="appended")))
    elif mutation == "extend":
        records.extend(map(pick_record, data.draw(st.lists(KEY_PICKS, max_size=5), label="added")))
    elif mutation == "del":
        del records[index:index + data.draw(st.integers(1, 3), label="deleted")]
    elif mutation == "sort":
        records.sort(key=itemgetter(data.draw(st.integers(1, 4), label="sort field")))
    elif mutation == "reverse":
        records.reverse()
    else:
        # an equal record that is another object: the pass must see the new object
        records[index] = LabeledRecord(*records[index])


def as_frozen(result):
    keys, inverse = result
    return list(keys.items()), inverse.dtype, inverse.tolist()


class TestHeldKeyPass:
    @settings(max_examples=300, deadline=None, database=None)
    @given(picks=st.lists(KEY_PICKS, min_size=1, max_size=60),
           mutation=st.sampled_from(MUTATIONS), data=st.data())
    def test_held_pass_equals_the_generator_before_and_after_a_mutation(
            self, picks, mutation, data):
        plain = [pick_record(pick) for pick in picks]
        held = RecordList(plain)
        frozen = as_frozen(frozen_distinct_keys(plain))
        first = _distinct_keys(held)
        stored = held.key_pass
        second = _distinct_keys(held)
        assert as_frozen(first) == as_frozen(second) == as_frozen(_distinct_keys(plain)) == frozen
        assert held.key_pass is stored  # held, not run again
        mutate(held, mutation, data)
        assert as_frozen(_distinct_keys(held)) == as_frozen(frozen_distinct_keys(held))
        assert len(held.key_pass[1]) == len(held)


# the tails of an imported key-pass file: normal ones first; a stage splits
# each attack key across several tails
KEY_TAILS = [
    "h1,mtu,SCADA,61,normal,",
    "mtu,h1,SCADA,64,normal,",
    "h2,mtu,SCADA,61,normal,",
    "atk,h1,SSH,120,attack,S1",
    "atk,h1,SSH,120,attack,S2",
    "atk,h1,SSH,120,attack,S3",
    "atk,h2,SCAN_PROBE,60,attack,S1",
    "atk,h2,SCAN_PROBE,60,attack,S4",
]
N_NORMAL_TAILS = 3


def import_key_csv(data) -> LabeledDataset:
    """A dataset read from a drawn CSV: an attack-free warm-up of any length,
    then any tails."""
    warmup = data.draw(st.lists(st.integers(0, N_NORMAL_TAILS - 1), max_size=20), label="warm-up")
    rest = data.draw(st.lists(st.integers(0, len(KEY_TAILS) - 1), max_size=60), label="rest")
    text = "".join(f"{t},{KEY_TAILS[i]}\n" for t, i in enumerate(warmup + rest))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n" + text)
        return import_csv(path)


def assert_holds_a_fresh_pass(records):
    keys, numbers = records.key_pass
    fresh_keys, fresh_inverse = _key_pass(list(records))
    assert list(keys.items()) == list(fresh_keys.items())
    assert list(numbers) == fresh_inverse.tolist()


# each RecordList method that can replace, reorder or remove a record
DROPPING = {
    "__init__": lambda r: r.__init__(list(r)),
    "__setitem__": lambda r: r.__setitem__(0, r[0]),
    "__delitem__": lambda r: r.__delitem__(slice(0, 0)),
    "__imul__": lambda r: r.__imul__(1),
    "insert": lambda r: r.insert(0, r[0]),
    "pop": lambda r: r.pop(),
    "remove": lambda r: r.remove(r[0]),
    "clear": lambda r: r.clear(),
    "sort": lambda r: r.sort(key=itemgetter(0)),
    "reverse": lambda r: r.reverse(),
}


class TestImportedKeyPass:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_imported_list_and_warmup_slice_hold_the_pass_of_their_records(self, data):
        dataset = import_key_csv(data)
        assert_holds_a_fresh_pass(dataset.records)
        prefix = dataset.warmup_slice()
        assert prefix == dataset.records[:dataset.warmup_end]
        assert_holds_a_fresh_pass(prefix)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), added=st.lists(KEY_PICKS, min_size=1, max_size=5))
    def test_an_appended_list_gets_a_fresh_pass(self, data, added):
        dataset = import_key_csv(data)
        for records in (dataset.records, dataset.warmup_slice()):
            records += map(pick_record, added)
            assert as_frozen(_distinct_keys(records)) == as_frozen(_key_pass(list(records)))
            assert_holds_a_fresh_pass(records)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n_lists=st.integers(1, 3))
    def test_joined_lists_hold_the_pass_of_the_joined_records(self, data, n_lists):
        datasets = [import_key_csv(data) for _ in range(n_lists)]
        for lists in ([d.records for d in datasets], [d.warmup_slice() for d in datasets]):
            first_keys = list(lists[0].key_pass[0].items())
            joined = join_record_lists(lists)
            assert joined == [record for records in lists for record in records]
            assert_holds_a_fresh_pass(joined)
            # the first list's own pass is left as it was
            assert list(lists[0].key_pass[0].items()) == first_keys
            assert_holds_a_fresh_pass(lists[0])
            # a list that holds no pass leaves the joined one to its own pass
            assert join_record_lists([*lists, list(lists[0])]).key_pass is None

    @pytest.mark.parametrize("method", sorted(DROPPING))
    def test_every_method_that_can_replace_reorder_or_remove_drops_the_pass(self, method):
        records = RecordList(map(pick_record, [("a", "b", "SCADA", 60, "normal", 1),
                                               ("c", "d", "HTTP", 61, "normal", 0)]))
        _distinct_keys(records)
        assert records.key_pass is not None
        DROPPING[method](records)
        assert records.key_pass is None

    def test_only_the_dropping_methods_are_overridden(self):
        # append, extend and += only append, which leaves a held pass shorter than its list
        overridden = {name for name, value in vars(RecordList).items()
                      if callable(value) and name in vars(list)}
        assert overridden == set(DROPPING)


# ---------------------------------------------------------------------------
# the random forest's distinct rows, handed over by train_model
# ---------------------------------------------------------------------------

def handover_records(data):
    """Records drawn from a few keys, so heavily duplicated; in some draws all
    of one length, which spans 0, and in some with one feature row that
    carries both labels."""
    lengths = st.just(60) if data.draw(st.booleans(), label="one length") else st.integers(60, 63)
    pool = data.draw(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "d"]),
                                        st.sampled_from(["SCADA", "HTTP"]), lengths,
                                        st.sampled_from(["normal", "attack"])),
                              min_size=1, max_size=8), label="keys")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=120),
                      label="picks")
    records = [pick_record((*pool[i], t)) for t, i in enumerate(picks)]
    if data.draw(st.booleans(), label="both labels on one row"):
        *row, _ = data.draw(st.sampled_from(pool), label="row with both labels")
        records += [pick_record((*row, label, len(records))) for label in ("attack", "normal")]
    return records


def expanded(records):
    """The (N, 4) matrix and 0/1 labels of the records, one row each."""
    return expanded_by(FeatureDictionary._from_keys(_distinct_keys(records)[0]), records)


def expanded_by(dictionary, records):
    """The (N, 4) matrix of the records under `dictionary`, one row each
    and unseen values coded 0, and their 0/1 labels."""
    e = dictionary.encode(records)
    y = np.array([r.label == "attack" for r in records], dtype=np.int64)
    return e.rows[e.inverse], y


class TestForestHandover:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_train_model_grows_the_trees_fit_grows_on_the_expanded_matrix(self, data):
        records = handover_records(data)
        seed = data.draw(st.integers(0, 3), label="seed")
        X, y = expanded(records)
        if y.min() == y.max():
            with pytest.raises(TrainingDataError) as handed:
                train_model("rf", records, seed=seed)
            with pytest.raises(TrainingDataError) as direct:
                RandomForestDetector(seed=seed).fit(X, y)
            assert str(handed.value) == str(direct.value)
            return
        model = train_model("rf", records, seed=seed)
        assert model.detector.trees == RandomForestDetector(seed=seed).fit(X, y).trees

    @pytest.mark.parametrize("label, shown", [("normal", r"\[0\]"), ("attack", r"\[1\]")])
    def test_one_class_is_refused_naming_the_class_it_holds(self, label, shown):
        records = [pick_record(("a", "b", "SCADA", 60 + t % 3, label, t)) for t in range(12)]
        with pytest.raises(TrainingDataError,
                           match=f"needs both classes in the training set, got only {shown}"):
            train_model("rf", records, seed=0)


# ---------------------------------------------------------------------------
# encoded records: the distinct rows and inverse every detector starts from
# ---------------------------------------------------------------------------

# keys that mix the values of KEY_PICKS with values no draw of it holds (z, y, SSH,
# lengths 18, 19, 24 and 25)
UNSEEN_PICKS = st.tuples(st.sampled_from(["a", "z"]), st.sampled_from(["d", "y"]),
                         st.sampled_from(["SCADA", "SSH"]), st.integers(18, 25),
                         st.sampled_from(["normal", "attack"]), st.integers(0, 9))


def encoding_case(data, min_records):
    """Training records, a dictionary of all of them or of a warm-up prefix,
    and tie-heavy records to encode, drawn from a few keys of the training
    records and of values the dictionary never saw."""
    train = [pick_record(pick) for pick in
             data.draw(st.lists(KEY_PICKS, min_size=2, max_size=40), label="train")]
    if data.draw(st.booleans(), label="warm-up dictionary"):
        seen = train[:data.draw(st.integers(1, len(train)), label="warm-up size")]
    else:
        seen = train
    dictionary = FeatureDictionary._from_keys(_distinct_keys(seen)[0])
    pool = data.draw(st.lists(st.one_of(st.sampled_from(train), UNSEEN_PICKS.map(pick_record)),
                              min_size=1, max_size=8), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=min_records,
                               max_size=80), label="picks")
    return train, dictionary, [pool[i] for i in picks]


class TestEncodedRows:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_encode_equals_unique_rows_of_the_expanded_key_table(self, data):
        _, dictionary, records = encoding_case(data, 0)
        keys, key_inverse = _distinct_keys(records)
        rows, inverse = unique_rows(dictionary._table(keys)[key_inverse])
        encoded = dictionary.encode(records)
        assert len(encoded) == len(records)
        assert encoded.rows.shape == rows.shape
        assert encoded.rows.tobytes() == rows.tobytes()
        assert encoded.inverse.tolist() == inverse.tolist()

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_every_detector_predicts_on_the_encoded_form_what_it_does_on_the_matrix(self, data):
        train, dictionary, records = encoding_case(data, 1)
        X, y = expanded_by(dictionary, train)
        y[:2] = (0, 1)  # both classes
        seed = data.draw(st.integers(0, 3), label="seed")
        encoded = dictionary.encode(records)
        matrix = encoded.rows[encoded.inverse]
        rf = RandomForestDetector(n_trees=5, seed=seed).fit(X, y)
        knn = KnnDetector(k=data.draw(st.integers(1, len(X)), label="knn k")).fit(X, y)
        lof = LofDetector(k=data.draw(st.integers(1, len(X) - 1), label="lof k")).fit(X)
        iforest = IsolationForestDetector(n_trees=5, subsample=min(16, len(X)), seed=seed).fit(X)
        for detector in (rf, knn, lof, iforest):
            assert detector.predict(encoded).tolist() == detector.predict(matrix).tolist()
        for detector in (lof, iforest):
            assert detector.score(encoded).tobytes() == detector.score(matrix).tobytes()


class TestKnnBlockDistances:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), block=block_values, n_columns=st.integers(1, 4))
    def test_block_distances_equal_row_distances_byte_for_byte(self, data, block, n_columns):
        values = st.lists(st.floats(-1e3, 1e3), min_size=n_columns, max_size=n_columns)
        train = np.array(data.draw(st.lists(values, min_size=1, max_size=40), label="train"))
        query = np.array(data.draw(st.lists(values, min_size=1, max_size=40), label="query"))
        columns = train.T.copy()
        with mock.patch.object(rows_module, "BLOCK_VALUES", block):
            blocks = list(row_blocks(len(query), train.size))
        for rows in (query[b] for b in blocks):
            got = _block_distances(columns, rows)
            assert got.shape == (len(rows), len(train))
            for row, line in zip(rows, got):
                assert line.tobytes() == _row_distances(train, row).tobytes()


class TestKthSmallest:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_kth_smallest_equals_the_argpartition_walk(self, data):
        n_rows = data.draw(st.integers(1, 6), label="n_rows")
        n = data.draw(st.integers(1, 12), label="n")
        # few values, so that distances tie within a row and repeat across rows
        value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0, 10))
        d = np.array(data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                        min_size=n_rows, max_size=n_rows), label="d"))
        positive = st.lists(st.integers(1, 4), min_size=n, max_size=n)
        if data.draw(st.booleans(), label="counts per row"):
            # as LOF's fit: a row may hold one zero, its own distinct row of one record
            counts = np.array(data.draw(st.lists(positive, min_size=n_rows, max_size=n_rows),
                                        label="counts"))
            for row in counts:
                zero = data.draw(st.none() | st.integers(0, n - 1), label="zero")
                if zero is not None and n > 1:
                    row[zero] = 0
        else:
            # as LOF's score: one count per column, shared by every row
            counts = np.array(data.draw(positive, label="counts"))
        total = int(np.broadcast_to(counts, d.shape).sum(axis=1).min())
        k = data.draw(st.integers(1, total), label="k")
        got = neighbors._kth_smallest(d, counts, k)
        want = frozen_kth_smallest(d, counts, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# KNN, LOF and the isolation forest fitted on encoded rows
# ---------------------------------------------------------------------------

def fitted_pair(data):
    """Each of knn, lof and iforest fitted on the EncodedRows of drawn rows,
    heavily duplicated or all distinct, and on their per-record matrix; and
    query rows of both kinds."""
    X = tree_rows(data)
    encoded = EncodedRows(*unique_rows(X))
    matrix = encoded.rows[encoded.inverse]
    assert matrix.tobytes() == X.tobytes()
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)),
                           label="y"), dtype=np.int64)
    knn_k = data.draw(st.integers(1, len(X)), label="knn k")
    lof_k = data.draw(st.integers(1, len(X) - 1), label="lof k")
    forest = dict(n_trees=data.draw(st.integers(1, 8), label="n_trees"),
                  subsample=data.draw(st.integers(1, len(X)), label="subsample"),
                  seed=data.draw(st.integers(0, 3), label="seed"))
    pairs = {name: tuple(fit(rows) for rows in (encoded, matrix)) for name, fit in (
        ("knn", lambda rows: KnnDetector(k=knn_k).fit(rows, y)),
        ("lof", lambda rows: LofDetector(k=lof_k).fit(rows)),
        ("iforest", lambda rows: IsolationForestDetector(**forest).fit(rows)),
    )}
    Xq = np.vstack([X, tree_rows(data)])
    return pairs, Xq


def normal_records(data):
    """More than lof's k=20 attack-free records: drawn from a few keys, so
    heavily duplicated, or each of a length of its own."""
    if data.draw(st.booleans(), label="all distinct"):
        lengths = data.draw(st.lists(st.integers(60, 400), min_size=21, max_size=60, unique=True),
                            label="lengths")
        return [pick_record(("a", "b", "SCADA", length, "normal", t))
                for t, length in enumerate(lengths)]
    pool = data.draw(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "d"]),
                                        st.sampled_from(["SCADA", "HTTP"]), st.integers(60, 63)),
                              min_size=1, max_size=8), label="keys")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=21, max_size=120),
                      label="picks")
    return [pick_record((*pool[i], "normal", t)) for t, i in enumerate(picks)]


def saved_bytes(algorithm, detector):
    model = TrafficModel(algorithm, FeatureDictionary({"a": 1}, {"b": 1}, {"SCADA": 1}, 60, 61),
                         detector)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


class TestEncodedFits:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_fits_on_encoded_rows_equal_fits_on_the_matrix(self, data):
        pairs, Xq = fitted_pair(data)
        encoded_q = EncodedRows(*unique_rows(Xq))
        for algorithm, (encoded, matrix) in pairs.items():
            expected = matrix.predict(Xq).tolist()
            assert encoded.predict(Xq).tolist() == expected
            assert encoded.predict(encoded_q).tolist() == expected
            assert saved_bytes(algorithm, encoded) == saved_bytes(algorithm, matrix)
        (lof, lof_m), (iforest, iforest_m) = pairs["lof"], pairs["iforest"]
        for name in ("k_dist", "lrd", "train_scores"):
            assert getattr(lof, name).tobytes() == getattr(lof_m, name).tobytes()
        assert lof.score(Xq).tobytes() == lof_m.score(Xq).tobytes()
        assert lof.threshold == lof_m.threshold
        assert iforest.trees == iforest_m.trees
        assert iforest.train_scores.tobytes() == iforest_m.train_scores.tobytes()
        assert iforest.threshold == iforest_m.threshold

    # each example fits two 100-tree isolation forests
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_train_model_fits_encoded_rows_that_save_as_the_matrix_fit(self, data):
        records = normal_records(data)
        X, y = expanded(records)
        direct = {"knn": KnnDetector().fit(X, y), "lof": LofDetector().fit(X),
                  "iforest": IsolationForestDetector(subsample=min(256, len(X)), seed=1).fit(X)}
        for algorithm, detector in direct.items():
            model = train_model(algorithm, records, seed=1)
            # no per-record feature matrix: the training rows are kept distinct
            assert not any(isinstance(value, np.ndarray) and value.ndim == 2
                           for value in vars(model.detector).values())
            assert saved_bytes(algorithm, model.detector) == saved_bytes(algorithm, detector)
