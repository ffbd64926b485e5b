"""Confusion counts and precision/recall/F1, attack as the positive class, and
the train-and-test grid that ``ids eval`` reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..capture import LabeledDataset, RecordList, TrainingDataError, join_record_lists
from . import models


@dataclass
class EvalCell:
    algorithm: str
    train_scenario: str
    test_scenario: str
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return asdict(self)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(
    predictions: list[str],
    truth: list[str],
    algorithm: str = "",
    train_scenario: str = "",
    test_scenario: str = "",
) -> EvalCell:
    """Count the confusion matrix of one prediction per true label; derive precision/recall/F1.

    F1 is defined as 0 when there are no true positives (and so when
    precision + recall is 0). Lists of different lengths raise ValueError.
    """
    if len(predictions) != len(truth):
        raise ValueError(f"{len(predictions)} predictions for {len(truth)} true labels")
    tp = fp = tn = fn = 0
    for predicted, actual in zip(predictions, truth):
        if actual == "attack":
            if predicted == "attack":
                tp += 1
            else:
                fn += 1
        else:
            if predicted == "attack":
                fp += 1
            else:
                tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return EvalCell(
        algorithm=algorithm,
        train_scenario=train_scenario,
        test_scenario=test_scenario,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
    )


class GridTrainingError(TrainingDataError):
    """``evaluate_grid`` cannot train ``algorithm`` on the training sets, or on
    their warm-up slices when ``warmup``; the message is the detector's."""

    def __init__(self, algorithm: str, warmup: bool, detail: TrainingDataError):
        super().__init__(str(detail))
        self.algorithm, self.warmup = algorithm, warmup


def evaluate_grid(train_sets: list[tuple[str, LabeledDataset]],
                  test_sets: list[tuple[str, LabeledDataset]], algorithms, seed: int = 0,
                  semi_train: str = "warmup") -> tuple[list[EvalCell], dict]:
    """Train each algorithm on the (name, dataset) training sets together, the
    semi-supervised ones on their warm-up slices unless ``semi_train`` is
    "full", and evaluate it on each test set, whose labels are taken once.
    Returns the cells, algorithm by algorithm, and each algorithm's model; a
    cell's train scenario is the training names joined by "+". A single
    training set's list, or its warm-up slice, is trained on as it is, with
    the key pass it holds; several are joined once into a ``RecordList``
    that holds their passes joined, so no key pass runs and the algorithms
    share the joined one."""
    train_name = "+".join(name for name, _ in train_sets)
    warmups = {algorithm: algorithm in models.SEMI_SUPERVISED and semi_train == "warmup"
               for algorithm in algorithms}

    def training_list(warmup: bool) -> RecordList:
        lists = [ds.warmup_slice() if warmup else ds.records for _, ds in train_sets]
        if len(lists) == 1 and isinstance(lists[0], RecordList):
            return lists[0]
        return join_record_lists(lists)

    training_lists = {warmup: training_list(warmup) for warmup in set(warmups.values())}
    tests = [(name, ds.records, [r.label for r in ds.records]) for name, ds in test_sets]
    cells, trained = [], {}
    for algorithm, warmup in warmups.items():
        try:
            # looked up at each call, so that a wrapper of models.train_model sees it
            model = models.train_model(algorithm, training_lists[warmup], seed=seed)
        except TrainingDataError as exc:
            raise GridTrainingError(algorithm, warmup, exc) from None
        trained[algorithm] = model
        for name, records, truth in tests:
            cells.append(evaluate(model.predict_records(records), truth,
                                  algorithm, train_name, name))
    return cells, trained
