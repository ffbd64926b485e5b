"""Record-level model wrapper: feature dictionary + detector + persistence.

A TrafficModel owns the categorical dictionary and length normalization frozen
from its own training records, so encoding at prediction time can never leak
test-set vocabulary. Semi-supervised training enforces purity: a single
attack-labeled record in the training input is a hard error naming the
offending indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..capture import FeatureDictionary, LabeledRecord, labels_array
from .forest import RandomForestDetector
from .iforest import IsolationForestDetector
from .neighbors import KnnDetector, LofDetector
from .rows import TrainingDataError

MODEL_FORMAT_VERSION = 1
ALGORITHMS = ("rf", "knn", "lof", "iforest")
SUPERVISED = ("rf", "knn")
SEMI_SUPERVISED = ("lof", "iforest")


class PurityError(ValueError):
    """Semi-supervised training input contained attack-labeled records."""

    def __init__(self, indices: list[int]):
        shown = ", ".join(str(i) for i in indices[:10])
        suffix = "" if len(indices) <= 10 else f" (+{len(indices) - 10} more)"
        super().__init__(
            f"semi-supervised training input contains {len(indices)} attack-labeled "
            f"records at indices [{shown}{suffix}]; it must be attack-free"
        )
        self.indices = indices


@dataclass
class TrafficModel:
    algorithm: str
    dictionary: FeatureDictionary
    detector: object

    def predict_records(self, records: list[LabeledRecord]) -> list[str]:
        """Pure per-record prediction: 'attack' or 'normal' for each input."""
        if not records:
            return []
        X = self.dictionary.encode(records)
        flags = self.detector.predict(X)
        return ["attack" if f else "normal" for f in flags]

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "dictionary": self.dictionary.to_dict(),
            "detector": self.detector.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficModel":
        version = data.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version {version!r}")
        algorithm = data["algorithm"]
        detector_cls = {
            "rf": RandomForestDetector,
            "knn": KnnDetector,
            "lof": LofDetector,
            "iforest": IsolationForestDetector,
        }[algorithm]
        return cls(
            algorithm=algorithm,
            dictionary=FeatureDictionary.from_dict(data["dictionary"]),
            detector=detector_cls.from_dict(data["detector"]),
        )


def train_model(
    algorithm: str,
    records: list[LabeledRecord],
    seed: int = 0,
    params: dict | None = None,
) -> TrafficModel:
    """Fit one of the four detectors on labeled records.

    Supervised algorithms (rf, knn) need both classes present. Semi-supervised
    algorithms (lof, iforest) refuse any attack-labeled input and calibrate
    their threshold on training scores. Records too few or too uniform to fit
    the detector raise TrainingDataError.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if not records:
        raise TrainingDataError("empty training set")
    params = dict(params or {})
    dictionary = FeatureDictionary.build(records)
    X = dictionary.encode(records)
    y = labels_array(records)

    if algorithm in SEMI_SUPERVISED:
        bad = [i for i, r in enumerate(records) if r.label == "attack"]
        if bad:
            raise PurityError(bad)

    if algorithm == "rf":
        detector = RandomForestDetector(
            n_trees=params.pop("n_trees", 100),
            max_depth=params.pop("max_depth", 16),
            min_samples_split=params.pop("min_samples_split", 2),
            max_features=params.pop("max_features", "sqrt"),
            bootstrap=params.pop("bootstrap", True),
            seed=seed,
        ).fit(X, y)
    elif algorithm == "knn":
        detector = KnnDetector(k=params.pop("k", 5)).fit(X, y)
    elif algorithm == "lof":
        detector = LofDetector(
            k=params.pop("k", 20), quantile=params.pop("quantile", 99.0)
        ).fit(X)
    else:
        subsample = params.pop("subsample", 256)
        detector = IsolationForestDetector(
            n_trees=params.pop("n_trees", 100),
            subsample=min(subsample, len(records)),
            quantile=params.pop("quantile", 99.0),
            seed=seed,
        ).fit(X)
    if params:
        raise ValueError(f"unknown parameters for {algorithm}: {sorted(params)}")
    return TrafficModel(algorithm=algorithm, dictionary=dictionary, detector=detector)


def save_model(model: TrafficModel, path: str) -> None:
    """Versioned JSON, stable bytes for identical models."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> TrafficModel:
    with open(path, "r", encoding="utf-8") as fh:
        return TrafficModel.from_dict(json.load(fh))
