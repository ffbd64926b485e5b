import dataclasses
import gc
import io
import json
import math
import tempfile
import tracemalloc
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scadasim import writers
from scadasim.capture import LabeledDataset, LabeledRecord, export_csv, import_csv
from scadasim.cli import main
from scadasim.ids import (
    ALGORITHMS,
    IsolationForestDetector,
    KnnDetector,
    LofDetector,
    PurityError,
    RandomForestDetector,
    TrafficModel,
    evaluate,
    f1_score,
    save_model,
    train_model,
)
from scadasim.ids import models
from scadasim.ids.forest import grow_tree
from scadasim.ids.models import SEMI_SUPERVISED, FeatureDictionary, _distinct_keys, fields_of
from scadasim.ids.neighbors import LRD_EPS, _row_distances
from scadasim.ids.rows import EncodedRows, unique_rows


def toy_records(n_attack=5, n_normal=5):
    records = []
    for i in range(n_normal):
        records.append(LabeledRecord(i, "rtu", "mtu", "SCADA", 61, "normal"))
    for i in range(n_attack):
        records.append(LabeledRecord(100 + i, "atk", "rtu", "SCAN_PROBE", 60, "attack", "S1"))
    return records


class TestRandomForest:
    def test_linearly_separable_set_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(7)
        X0 = rng.normal(0.0, 0.5, size=(60, 2))
        X1 = rng.normal(5.0, 0.5, size=(60, 2))
        X = np.vstack([X0, X1])
        y = np.array([0] * 60 + [1] * 60)
        det = RandomForestDetector(seed=5).fit(X, y)
        # brute-force check over every training point
        assert (det.predict(X) == y).all()

    def test_same_seed_gives_identical_serialized_forests(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(80, 4))
        y = (X[:, 0] > 0.5).astype(np.int64)
        a = RandomForestDetector(n_trees=10, seed=42).fit(X, y)
        b = RandomForestDetector(n_trees=10, seed=42).fit(X, y)
        assert fields_of(a) == fields_of(b)
        c = RandomForestDetector(n_trees=10, seed=43).fit(X, y)
        assert fields_of(a) != fields_of(c)

    def test_single_class_training_refused(self):
        X = np.zeros((10, 4))
        y = np.ones(10, dtype=np.int64)
        with pytest.raises(ValueError, match="both classes"):
            RandomForestDetector().fit(X, y)

    def test_duplicate_rows_with_conflicting_labels_take_majority(self):
        # two distinct rows carrying their duplicates as weight: 10 copies of the
        # first, 8 of them attack, and 10 of the second, none attack; one column,
        # so the split always has it to try
        rows = np.array([[1.0], [2.0]])
        det = RandomForestDetector(n_trees=1)
        det.trees = [grow_tree(rows, np.array([8.0, 0.0]), np.array([10.0, 10.0]),
                               np.random.default_rng(0), det.max_depth)]
        assert det.predict(rows).tolist() == [1, 0]


class TestKnn:
    def test_k1_returns_label_of_identical_training_point(self):
        X = np.array([[0.0, 0], [5.0, 5], [9.0, 9]])
        y = np.array([0, 1, 0])
        det = KnnDetector(k=1).fit(X, y)
        assert det.predict(np.array([[5.0, 5]])).tolist() == [1]

    def test_k3_majority_two_attack_one_normal(self):
        X = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [9.0, 9]])
        y = np.array([1, 1, 0, 0])
        det = KnnDetector(k=3).fit(X, y)
        assert det.predict(np.array([[0.05, 0]])).tolist() == [1]

    def test_vote_tie_goes_to_attack(self):
        X = np.array([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
        y = np.array([1, 0, 0, 1])
        det = KnnDetector(k=4).fit(X, y)
        assert det.predict(np.array([[1.5, 0]])).tolist() == [1]

    def test_k_larger_than_training_set_refused(self):
        with pytest.raises(ValueError, match="exceeds"):
            KnnDetector(k=5).fit(np.zeros((3, 2)), np.array([0, 1, 0]))

    def test_matches_brute_force_oracle_on_random_points(self):
        rng = np.random.default_rng(123)
        X = rng.uniform(0, 1, size=(200, 4))
        y = (rng.random(200) < 0.4).astype(np.int64)
        queries = rng.uniform(0, 1, size=(200, 4))
        det = KnnDetector(k=5).fit(X, y)
        got = det.predict(queries)

        def oracle(q):
            d2 = [(float(np.sum((X[i] - q) ** 2)), i) for i in range(len(X))]
            nearest = sorted(d2)[:5]
            votes = sum(int(y[i]) for _, i in nearest)
            return 1 if votes * 2 >= 5 else 0

        expected = [oracle(q) for q in queries]
        assert got.tolist() == expected

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_distance_then_index_oracle_with_duplicates_and_ties(self, data):
        # A 0-2 grid makes duplicate rows and equal-distance ties common;
        # squared distances on it are exact, so the oracle's order is exact.
        dim = data.draw(st.integers(1, 3), label="dim")
        n = data.draw(st.integers(1, 40), label="n")
        X = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                                        min_size=n, max_size=n), label="X"), dtype=np.float64)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="y"))
        off_grid = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        queries = np.array(data.draw(st.lists(st.lists(off_grid, min_size=dim, max_size=dim),
                                              min_size=1, max_size=12), label="queries"))
        k = data.draw(st.integers(1, n), label="k")

        def oracle(q):
            nearest = sorted((float(np.sum((X[i] - q) ** 2)), i) for i in range(n))[:k]
            votes = sum(int(y[i]) for _, i in nearest)
            return 1 if votes * 2 >= k else 0

        got = KnnDetector(k=k).fit(X, y).predict(queries)
        assert got.tolist() == [oracle(q) for q in queries]


class TestUniqueRows:
    @staticmethod
    def assert_matches_np_unique(X):
        rows, inverse = unique_rows(X)
        expected_rows, expected_inverse = np.unique(X, axis=0, return_inverse=True)
        assert rows.tobytes() == expected_rows.tobytes()
        assert rows.shape == expected_rows.shape
        assert inverse.tolist() == expected_inverse.reshape(-1).tolist()

    @pytest.mark.parametrize("X", [
        pytest.param(np.zeros((0, 4)), id="empty"),
        pytest.param(np.array([[3.0, 1.0, 2.0, 0.25]]), id="one-row"),
        # a test length below the training minimum encodes below 0
        pytest.param(np.array([[1.0, 2.0, 1.0, -0.5], [1.0, 2.0, 1.0, 0.0],
                               [1.0, 2.0, 1.0, -0.5], [0.0, 2.0, 1.0, 1.5]]), id="negative"),
    ])
    def test_edge_cases_match_np_unique(self, X):
        self.assert_matches_np_unique(X)

    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=60))
    def test_duplicate_heavy_rows_match_np_unique(self, rows):
        self.assert_matches_np_unique(np.array(rows, dtype=np.float64).reshape(-1, 3) / 2)


def lof_dist(a, b):
    return math.sqrt(sum((p - q) ** 2 for p, q in zip(a, b)))


def lof_oracle_density(train, k, eps=1e-12):
    """Direct-definition k-distance and lrd of each training point, whose
    neighborhood is every other point within its k-distance. Pure python floats."""
    n = len(train)
    d = [[lof_dist(train[i], train[j]) for j in range(n)] for i in range(n)]
    k_dist = []
    neigh = []
    for i in range(n):
        ordered = sorted((d[i][j], j) for j in range(n) if j != i)
        kd = ordered[k - 1][0]
        k_dist.append(kd)
        neigh.append([j for dd, j in ordered if dd <= kd])
    lrd = []
    for i in range(n):
        reach = [max(k_dist[j], d[i][j]) for j in neigh[i]]
        lrd.append(1.0 / max(eps, sum(reach) / len(reach)))
    return k_dist, lrd


def lof_oracle(train, queries, k, eps=1e-12, training=False):
    """Direct-definition LOF: k-distance, tie-inclusive neighborhood,
    reachability, lrd, ratio. Pure python floats. With training=True the
    queries are the training points and each one is not its own neighbor."""
    n = len(train)
    k_dist, lrd = lof_oracle_density(train, k, eps)
    scores = []
    for qi, q in enumerate(queries):
        dq = {j: lof_dist(q, train[j]) for j in range(n) if not (training and j == qi)}
        kd = sorted(dq.values())[k - 1]
        nq = [j for j in dq if dq[j] <= kd]
        reach = [max(k_dist[j], dq[j]) for j in nq]
        lrd_q = 1.0 / max(eps, sum(reach) / len(reach))
        scores.append(sum(lrd[j] for j in nq) / len(nq) / lrd_q)
    return scores


def _per_row_lof_fit(X, k, quantile=99.0):
    """The per-row LOF fit loop that LofDetector.fit replaced, kept as the
    bit-for-bit reference: (k_dist, lrd, train_scores, threshold)."""
    n = len(X)
    k_dist = np.zeros(n)
    neighborhoods = []
    neighbor_d = []
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
    return k_dist, lrd, scores, float(np.percentile(scores, quantile))


class TestLof:
    def test_scores_match_direct_definition_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            n = int(rng.integers(25, 51))
            train = rng.uniform(0, 1, size=(n, 3))
            queries = rng.uniform(0, 1, size=(10, 3))
            det = LofDetector(k=5).fit(train)
            got = det.score(queries)
            expected = lof_oracle(train.tolist(), queries.tolist(), k=5)
            assert np.max(np.abs(got - np.array(expected))) < 1e-9
            k_dist, lrd = lof_oracle_density(train.tolist(), k=5)
            assert np.max(np.abs(det.k_dist - np.array(k_dist))) < 1e-9
            assert np.max(np.abs(det.lrd - np.array(lrd))) < 1e-9
            expected_train = lof_oracle(train.tolist(), train.tolist(), k=5, training=True)
            assert np.max(np.abs(det.train_scores - np.array(expected_train))) < 1e-9

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_fit_matches_per_row_fit_bit_for_bit(self, data):
        # Few distinct grid rows, repeated and interleaved, so groups of
        # duplicates share neighborhoods and means run over equal values.
        dim = data.draw(st.integers(1, 3), label="dim")
        distinct = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=1,
                                      max_size=8, unique=True), label="distinct")
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2,
                                   max_size=120), label="picks")
        floats = data.draw(st.lists(st.lists(st.floats(0, 3, allow_nan=False), min_size=dim,
                                             max_size=dim), max_size=4), label="floats")
        rows = [distinct[i] for i in picks] + floats
        order = data.draw(st.permutations(range(len(rows))), label="order")
        X = np.array([rows[i] for i in order], dtype=np.float64).reshape(-1, dim)
        k = data.draw(st.integers(1, len(X) - 1), label="k")
        det = LofDetector(k=k).fit(X)
        got = (det.k_dist, det.lrd, det.train_scores, det.threshold)
        for name, value, expected in zip(("k_dist", "lrd", "train_scores", "threshold"),
                                         got, _per_row_lof_fit(X, k)):
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), name

    def test_fit_memory_does_not_grow_with_neighborhoods(self):
        X = np.random.default_rng(2).uniform(0, 1, size=(4, 4))[np.arange(4000) % 4]
        tracemalloc.start()
        try:
            LofDetector(k=20).fit(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_duplicate_of_uniform_cluster_scores_near_one(self):
        grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=np.float64)
        det = LofDetector(k=4).fit(grid)
        score = det.score(np.array([[2.0, 2.0]]))[0]
        assert abs(score - 1.0) < 0.2

    def test_far_outlier_scores_above_two(self):
        rng = np.random.default_rng(4)
        cluster = rng.uniform(0, 1, size=(40, 2))
        det = LofDetector(k=5).fit(cluster)
        score = det.score(np.array([[10.0, 10.0]]))[0]
        assert score > 2.0

    def test_exact_duplicate_heavy_training_set_scores_one_exactly(self):
        X = np.array([[0.0, 0, 0, 0]] * 30 + [[1.0, 1, 1, 1]] * 30)
        det = LofDetector(k=5).fit(X)
        assert det.train_scores.tolist() == [1.0] * 60
        assert det.threshold == 1.0
        assert det.score(np.array([[0.0, 0, 0, 0]]))[0] == 1.0
        assert det.predict(np.array([[0.0, 0, 0, 0]])).tolist() == [0]
        assert det.predict(np.array([[0.5, 0, 0, 0]])).tolist() == [1]

    def test_training_set_not_larger_than_k_refused(self):
        with pytest.raises(ValueError, match="more than k"):
            LofDetector(k=5).fit(np.zeros((5, 2)))


class TestIsolationForest:
    def two_clusters(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 0.3, size=(150, 2))
        b = rng.normal(4.0, 0.3, size=(150, 2))
        return np.vstack([a, b])

    def test_same_seed_gives_identical_scores(self):
        X = self.two_clusters()
        s1 = IsolationForestDetector(n_trees=30, subsample=64, seed=17).fit(X).score(X)
        s2 = IsolationForestDetector(n_trees=30, subsample=64, seed=17).fit(X).score(X)
        assert (s1 == s2).all()

    def test_far_outlier_scores_strictly_above_interior_point(self):
        X = self.two_clusters()
        det = IsolationForestDetector(n_trees=100, subsample=128, seed=3).fit(X)
        interior, outlier = det.score(np.array([[0.0, 0.0], [12.0, -7.0]]))
        assert outlier > interior

    def test_subsample_one_gives_equal_scores(self):
        X = self.two_clusters()
        det = IsolationForestDetector(n_trees=10, subsample=1, seed=1).fit(X)
        scores = det.score(np.array([[0.0, 0.0], [50.0, 50.0], [4.0, 4.0]]))
        assert scores[0] == scores[1] == scores[2]

    def test_subsample_larger_than_training_refused(self):
        with pytest.raises(ValueError, match="subsample"):
            IsolationForestDetector(subsample=64).fit(np.zeros((10, 2)))

    def test_average_path_length_normalizer(self):
        from scadasim.ids.iforest import average_path_length
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # c(n) = 2 H(n-1) - 2(n-1)/n with H via ln + Euler-Mascheroni
        expected = 2 * (math.log(255) + 0.5772156649015329) - 2 * 255 / 256
        assert average_path_length(256) == pytest.approx(expected, rel=1e-12)


class TestEvaluate:
    def test_perfect_predictions_give_f1_one(self):
        cell = evaluate(["attack", "normal"], ["attack", "normal"])
        assert cell.f1 == 1.0 and cell.precision == 1.0 and cell.recall == 1.0

    def test_all_normal_with_attacks_present_gives_zero_recall_and_f1(self):
        cell = evaluate(["normal", "normal"], ["attack", "normal"])
        assert cell.recall == 0.0 and cell.f1 == 0.0

    def test_hand_computed_counts(self):
        predictions = ["attack"] * 10 + ["normal"] * 2
        truth = ["attack"] * 8 + ["normal"] * 2 + ["attack"] * 2
        cell = evaluate(predictions, truth)
        assert (cell.tp, cell.fp, cell.fn) == (8, 2, 2)
        assert cell.precision == pytest.approx(0.8)
        assert cell.recall == pytest.approx(0.8)
        assert cell.f1 == pytest.approx(0.8)

    @pytest.mark.parametrize("n_predictions, n_truth", [(3, 4), (4, 3), (0, 2)])
    def test_lists_of_different_lengths_are_refused(self, n_predictions, n_truth):
        # zip would score the shorter prefix alone, here one perfect cell
        with pytest.raises(ValueError, match=f"{n_predictions} predictions .* {n_truth} true labels"):
            evaluate(["attack"] * n_predictions, ["attack"] * n_truth)

    def test_f1_identity_recomputed_from_precision_recall(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            preds = ["attack" if v else "normal" for v in rng.random(30) < 0.5]
            truth = ["attack" if v else "normal" for v in rng.random(30) < 0.5]
            cell = evaluate(preds, truth)
            assert cell.f1 == pytest.approx(f1_score(cell.precision, cell.recall), abs=1e-15)


class TestTrafficModel:
    def test_purity_enforced_for_semi_supervised(self):
        records = toy_records()
        for algo in ("lof", "iforest"):
            with pytest.raises(PurityError, match="attack-labeled"):
                train_model(algo, records, seed=0)

    def test_supervised_trains_and_predicts_own_records(self):
        records = toy_records(n_attack=30, n_normal=30)
        model = train_model("rf", records, seed=0)
        preds = model.predict_records(records)
        assert preds == [r.label for r in records]

    def test_label_list_is_the_flag_comprehension_as_str(self, tmp_path):
        train = import_csv(str(write_dataset(tmp_path / "train.csv", seed=1)))
        test = import_csv(str(write_dataset(tmp_path / "test.csv", seed=2)))
        seen = set()
        for algorithm in ALGORITHMS:
            records = train.warmup_slice() if algorithm in SEMI_SUPERVISED else train.records
            model = train_model(algorithm, records, seed=0)
            flags = model.detector.predict(model.dictionary.encode(test.records))
            got = model.predict_records(test.records)
            assert got == ["attack" if f else "normal" for f in flags], algorithm
            assert all(type(label) is str for label in got)
            seen.update(got)
            assert model.predict_records([]) == []
        assert seen == {"attack", "normal"}

    def test_empty_predict_returns_empty(self):
        records = toy_records(n_attack=30, n_normal=30)
        model = train_model("knn", records, seed=0)
        assert model.predict_records([]) == []

    def test_semi_supervised_self_anomaly_rate_within_quantile_plus_2pp(self):
        rng = np.random.default_rng(11)
        records = [
            LabeledRecord(i, f"h{int(rng.integers(4))}", "mtu", "SCADA",
                          int(rng.integers(25, 500)), "normal")
            for i in range(500)
        ]
        for algo in ("lof", "iforest"):
            model = train_model(algo, records, seed=0)
            preds = model.predict_records(records)
            rate = preds.count("attack") / len(preds)
            assert rate <= 0.01 + 0.02

    def test_model_file_is_versioned(self, tmp_path):
        model = train_model("knn", toy_records(), seed=0)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        assert json.loads(path.read_text())["format_version"] == 1

    def test_knn_save_memory_does_not_grow_with_training_rows(self, tmp_path):
        # 50,000 rows of 4 random floats are a 5.4 MB model file; turning X
        # into a list of Python floats first peaks near 10 MB
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(50_000, 4))
        detector = KnnDetector().fit(X, (rng.random(50_000) < 0.5).astype(np.int64))
        model = TrafficModel("knn", FeatureDictionary({"a": 1}, {"b": 1}, {"SCADA": 1}, 60, 61),
                             detector)
        tracemalloc.start()
        try:
            save_model(model, str(tmp_path / "knn.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        saved = json.loads((tmp_path / "knn.json").read_text())
        assert (np.array(saved["detector"]["X"]) == X).all()


def write_dataset(path, seed, n_warmup=40, n_mixed=80):
    """A dataset CSV that all four algorithms can train on: an attack-free
    warm-up of ``n_warmup`` records, then a mix of normal and attack records."""
    rng = np.random.default_rng(seed)

    def normal(t):
        return LabeledRecord(t, f"h{rng.integers(4)}", "mtu", "SCADA",
                             int(rng.integers(60, 90)), "normal")

    records = [normal(t) for t in range(n_warmup)]
    records += [LabeledRecord(t, "atk", f"h{rng.integers(4)}", "SCAN_PROBE", 60, "attack", "S1")
                if rng.random() < 0.4 else normal(t)
                for t in range(n_warmup, n_warmup + n_mixed)]
    export_csv(LabeledDataset.from_records(records), str(path))
    return path


@pytest.fixture
def key_passes(monkeypatch):
    """The length of every list that the key pass really runs over, in order."""
    lengths = []
    key_pass = models._key_pass

    def counted(records):
        lengths.append(len(records))
        return key_pass(records)

    monkeypatch.setattr(models, "_key_pass", counted)
    return lengths


class TestKeyPassPerList:
    def test_evaluation_on_imported_lists_runs_no_key_pass(self, tmp_path, key_passes):
        train = import_csv(str(write_dataset(tmp_path / "train.csv", seed=1)))
        test = import_csv(str(write_dataset(tmp_path / "test.csv", seed=2)))
        predictions = {}
        for algorithm in ALGORITHMS:  # the benchmark's order and inputs
            records = train.warmup_slice() if algorithm in SEMI_SUPERVISED else train.records
            model = train_model(algorithm, records, seed=0)
            predictions[algorithm] = model.predict_records(test.records)
        # the reader numbered both lists' keys, and each warm-up slice holds its part
        assert key_passes == []
        for algorithm in ALGORITHMS:
            records = list(train.warmup_slice() if algorithm in SEMI_SUPERVISED else train.records)
            model = train_model(algorithm, records, seed=0)
            assert model.predict_records(list(test.records)) == predictions[algorithm]

    def test_cli_with_one_training_file_runs_no_key_pass(self, tmp_path, key_passes):
        train = write_dataset(tmp_path / "train.csv", seed=1)
        tests = [write_dataset(tmp_path / f"test{seed}.csv", seed=seed) for seed in (2, 3)]
        assert main(["ids", "eval", "--algo", "rf,knn,lof,iforest", "--train", str(train),
                     "--test", *map(str, tests), "--out", str(tmp_path / "out")]) == 0
        # every list, the warm-up slice included, holds the pass of its reader
        assert key_passes == []

    def test_cli_with_two_training_files_runs_no_key_pass(self, tmp_path_factory, key_passes):
        data = tmp_path_factory.mktemp("scenarios")
        train = [data / f"s{scenario}.csv" for scenario in (2, 5)]
        for scenario, path in zip((2, 5), train):
            assert main(["dataset", "export", "--scenario", str(scenario), "--seed", "0",
                         "--out", str(path)]) == 0
        assert main(["ids", "eval", "--algo", "rf,knn,lof,iforest", "--train", *map(str, train),
                     "--test", *map(str, train), "--out", str(data / "out")]) == 0
        # the joined list and the joined warm-up slices hold their readers' passes, joined
        assert key_passes == []

    def test_held_pass_dies_with_its_list_and_callers_cannot_change_it(self, tmp_path):
        dataset = import_csv(str(write_dataset(tmp_path / "train.csv", seed=1)))
        model = train_model("rf", dataset.records, seed=0)
        model.predict_records(dataset.records)
        keys, inverse = _distinct_keys(dataset.records)
        expected = inverse.tolist()
        inverse[:] = 0  # a caller's copy, not the held column
        assert _distinct_keys(dataset.records)[1].tolist() == expected
        held = weakref.ref(dataset.records.key_pass[1])
        del keys, inverse, dataset, model
        gc.collect()
        assert held() is None  # a module-level memo would keep it


class TestModelFileRoundTrip:
    @pytest.mark.parametrize("cls", [RandomForestDetector, KnnDetector, LofDetector,
                                     IsolationForestDetector])
    def test_fields_name_every_attribute_a_detector_sets(self, cls):
        # an attribute left out of FIELDS would be missing from the model file
        assert set(vars(cls())) == set(cls.FIELDS)

    def test_fields_name_every_dictionary_field(self):
        assert {f.name for f in dataclasses.fields(FeatureDictionary)} == set(FeatureDictionary.FIELDS)


def _as_lists(value):
    """The payload json.dump is given when every array, and every row-indexed
    one, is its nested list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, EncodedRows):
        return value.rows[value.inverse].tolist()
    if isinstance(value, dict):
        return {key: _as_lists(v) for key, v in value.items()}
    return value


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int64]),
                     hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))



@st.composite
def _encoded_rows(draw):
    """Distinct rows, non-finite values included, and an index into them,
    which may be empty."""
    rows = draw(hnp.arrays(st.sampled_from([np.float64, np.int64]),
                           hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)))
    inverse = draw(hnp.arrays(np.intp, st.integers(0, 12 if len(rows) else 0),
                              elements=st.integers(0, max(0, len(rows) - 1))))
    return EncodedRows(rows, inverse)


_EDGE_PAYLOAD = {
    "empty": np.zeros((0,)), "no rows": np.zeros((0, 4)), "no columns": np.zeros((3, 0)),
    "special": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5]),
    "rows": {"ints": np.arange(-3, 9, dtype=np.int64).reshape(4, 3),
             "floats": np.array([[0.1, np.nan], [-np.inf, 2.0], [5e-324, -0.0]])},
    "n\u00e4me": ["\u00fcn\u00efc\u00f8de", {"b": [], "a": {}}, 1e300, -7],
    "encoded": {"special": EncodedRows(np.array([[np.nan, 1.5], [-np.inf, -0.0], [0.1, 2.0]]),
                                       np.array([2, 0, 0, 1, 2, 2, 1])),
                "ints": EncodedRows(np.arange(6, dtype=np.int64).reshape(3, 2), np.array([1, 1])),
                "no index": EncodedRows(np.ones((2, 4)), np.zeros(0, dtype=np.intp)),
                "no columns": EncodedRows(np.zeros((1, 0)), np.zeros(3, dtype=np.intp))},
}


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(payload=st.recursive(_JSON_VALUES | _ARRAYS | _encoded_rows(),
                                lambda children: st.dictionaries(st.text(), children, max_size=4),
                                max_leaves=10),
           block=st.sampled_from([1, 2, writers.BLOCK_ROWS]))
    @example(payload=_EDGE_PAYLOAD, block=1)
    @example(payload=_EDGE_PAYLOAD, block=2)
    @example(payload=_EDGE_PAYLOAD, block=writers.BLOCK_ROWS)
    def test_bytes_equal_json_dump_at_every_block_size(self, payload, block):
        expected = io.StringIO()
        json.dump(_as_lists(payload), expected, sort_keys=True, indent=1)
        expected.write("\n")
        # save_model writes any payload that to_dict returns; BLOCK_ROWS is
        # patched where the model-file writer reads it
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(models, "BLOCK_ROWS", block):
            path = f"{tmp}/payload.json"
            save_model(SimpleNamespace(to_dict=lambda: payload), path)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8")
