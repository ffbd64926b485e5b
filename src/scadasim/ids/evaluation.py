"""Confusion counts and precision/recall/F1, attack as the positive class."""

from __future__ import annotations

from dataclasses import asdict, dataclass


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
    precision + recall is 0).
    """
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
