"""Four natively implemented anomaly detectors plus the evaluation harness.

Supervised: random forest, k-nearest-neighbor. Semi-supervised (fit on
attack-free traffic only, threshold at a high quantile of training scores):
local outlier factor, isolation forest.
"""

from ..capture import PurityError, TrainingDataError
from .evaluation import EvalCell, GridTrainingError, evaluate, evaluate_grid, f1_score
from .forest import RandomForestDetector
from .iforest import IsolationForestDetector
from .neighbors import KnnDetector, LofDetector
from .models import ALGORITHMS, TrafficModel, save_model, train_model

__all__ = [
    "ALGORITHMS",
    "EvalCell",
    "GridTrainingError",
    "IsolationForestDetector",
    "KnnDetector",
    "LofDetector",
    "PurityError",
    "RandomForestDetector",
    "TrafficModel",
    "TrainingDataError",
    "evaluate",
    "evaluate_grid",
    "f1_score",
    "save_model",
    "train_model",
]
