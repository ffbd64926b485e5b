"""Record-level model wrapper: feature encoding + detector + model file.

A TrafficModel owns the categorical dictionary and length normalization frozen
from its own training records, so encoding at prediction time can never leak
test-set vocabulary. Semi-supervised training enforces purity: a single
attack-labeled record in the training input is a hard error naming the
offending indices.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..capture import (
    LabeledRecord,
    PurityError,
    RecordList,
    TrainingDataError,
    held_key_pass,
    record_key,
)
from ..writers import BLOCK_ROWS
from .forest import RandomForestDetector
from .iforest import IsolationForestDetector
from .neighbors import KnnDetector, LofDetector
from .rows import EncodedRows

MODEL_FORMAT_VERSION = 1
ALGORITHMS = ("rf", "knn", "lof", "iforest")
SEMI_SUPERVISED = ("lof", "iforest")
# the label of each detector flag, 0 or 1, as the str objects a list of them holds
PREDICTED_LABELS = np.array(["normal", "attack"], dtype=object)


def _key_pass(records: list[LabeledRecord]) -> tuple[dict[tuple, int], np.ndarray]:
    """The pass itself, for a list that no reader numbered: each key is
    numbered in first-seen order, and each record gets its key's number."""
    keys: dict[tuple, int] = {}
    numbers = np.fromiter((keys.setdefault(key, len(keys)) for key in map(record_key, records)),
                          dtype=np.intp, count=len(records))
    return keys, numbers


def _distinct_keys(records: list[LabeledRecord]) -> tuple[dict[tuple, int], np.ndarray]:
    """The one pass over the records that encoding and training make.

    Returns each distinct ``record_key``, (src, dst, protocol, length,
    label), numbered in first-seen order, and each record's key number. The
    label rides along so that training takes its labels from the same pass;
    encoding ignores it.

    A ``RecordList`` that holds a valid pass (``capture.held_key_pass``)
    returns it: an imported list and its warm-up slice hold theirs from the
    reader, and lists joined by ``capture.join_record_lists`` hold theirs
    joined. Any other list gets ``_key_pass``, and a ``RecordList`` stores
    the result as its column, so the pass runs once per list until the list
    is changed; a plain list gets a pass on every call. Each call returns
    its own ``np.intp`` copy of the column, so a caller that writes into the
    inverse cannot change what later calls return. Callers do not change the
    keys.
    """
    held = held_key_pass(records)
    if held is not None:
        keys, numbers = held
        return keys, np.array(numbers, dtype=np.intp)
    keys, inverse = _key_pass(records)
    if isinstance(records, RecordList):
        records.key_pass = (keys, array("I", inverse.astype(np.uintc).tobytes()))
    return keys, inverse


@dataclass
class FeatureDictionary:
    """Categorical codes frozen at training time; unseen values map to 0."""

    src_codes: dict[str, int]
    dst_codes: dict[str, int]
    protocol_codes: dict[str, int]
    length_min: int
    length_max: int

    # the fields a model file holds
    FIELDS = ("src_codes", "dst_codes", "protocol_codes", "length_min", "length_max")

    @classmethod
    def _from_keys(cls, keys: dict[tuple, int]) -> "FeatureDictionary":
        """Codes in first-seen order over the distinct keys, which is their
        first-seen order over the records; the lengths' range is theirs too."""
        def first_seen_codes(column: int) -> dict[str, int]:
            values = dict.fromkeys(key[column] for key in keys)
            return {value: code for code, value in enumerate(values, start=1)}

        lengths = [key[3] for key in keys] or [0]
        return cls(first_seen_codes(0), first_seen_codes(1), first_seen_codes(2),
                   min(lengths), max(lengths))

    def encode(self, records: list[LabeledRecord]) -> EncodedRows:
        """The records' distinct encoded rows (src code, dst code, protocol
        code, normalized length) and each record's index into them.

        Each distinct key is coded once, and its rows are grouped, so keys
        that encode alike share a row. Every key occurs among the records,
        so these are the rows, order and inverse that ``unique_rows`` gives
        on the per-record matrix, which is never built.
        """
        keys, key_inverse = _distinct_keys(records)
        return EncodedRows.grouped(self._table(keys), key_inverse)

    def _table(self, keys: dict[tuple, int]) -> np.ndarray:
        """One encoded row per distinct key, in key order."""
        span = self.length_max - self.length_min
        return np.array(
            [(self.src_codes.get(s, 0), self.dst_codes.get(d, 0), self.protocol_codes.get(p, 0),
              0.0 if span == 0 else (length - self.length_min) / span)
             for s, d, p, length, _ in keys],
            dtype=np.float64,
        ).reshape(len(keys), 4)


@dataclass
class TrafficModel:
    algorithm: str
    dictionary: FeatureDictionary
    detector: object

    def predict_records(self, records: list[LabeledRecord]) -> list[str]:
        """Pure per-record prediction: 'attack' or 'normal' for each input."""
        if not records:
            return []
        flags = self.detector.predict(self.dictionary.encode(records))
        return PREDICTED_LABELS[flags].tolist()

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "dictionary": fields_of(self.dictionary),
            "detector": fields_of(self.detector),
        }


def fields_of(obj) -> dict:
    """The model-file form of a detector or a FeatureDictionary: its FIELDS by name."""
    return {name: getattr(obj, name) for name in obj.FIELDS}


def train_model(algorithm: str, records: list[LabeledRecord], seed: int = 0) -> TrafficModel:
    """Fit one of the four ``ALGORITHMS``, with its default settings, on labeled records.

    Supervised algorithms (rf, knn) need both classes present. Semi-supervised
    algorithms (lof, iforest) refuse any attack-labeled input and calibrate
    their threshold on training scores. Records too few or too uniform to fit
    the detector raise TrainingDataError.

    The fits start from the one key pass over the records: the random forest
    from each distinct key's encoded row and record count, and KNN, LOF and
    the isolation forest from the records as ``EncodedRows``, grouped from
    those key rows, which the fitted detectors keep. No per-record feature
    matrix is built.
    """
    if not records:
        raise TrainingDataError("empty training set")
    keys, inverse = _distinct_keys(records)
    dictionary = FeatureDictionary._from_keys(keys)
    table = dictionary._table(keys)
    attack = np.array([label == "attack" for *_, label in keys], dtype=np.int64)

    if algorithm == "rf":
        # each key's encoded row stands for the records that have the key
        counts = np.bincount(inverse, minlength=len(keys))
        detector = RandomForestDetector(seed=seed).fit(table, attack, counts)
    elif algorithm == "knn":
        detector = KnnDetector().fit(EncodedRows.grouped(table, inverse), attack[inverse])
    else:
        if attack.any():
            raise PurityError(np.flatnonzero(attack[inverse]).tolist())
        X = EncodedRows.grouped(table, inverse)
        if algorithm == "lof":
            detector = LofDetector().fit(X)
        else:
            detector = IsolationForestDetector(subsample=min(256, len(records)), seed=seed).fit(X)
    return TrafficModel(algorithm=algorithm, dictionary=dictionary, detector=detector)


def save_model(model: TrafficModel, path: str) -> None:
    """Versioned JSON, stable bytes for identical models: ``json.dump(model.to_dict(),
    fh, sort_keys=True, indent=1)`` and "\\n", where arrays and ``EncodedRows`` are
    their per-record nested lists. Arrays are written a block of rows at a time,
    and each distinct row of ``EncodedRows`` is formatted once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(model.to_dict(), 0))
        fh.write("\n")


def _json_chunks(value, level: int) -> Iterator[str]:
    """The JSON text of ``value`` nested ``level`` deep, in pieces.

    Dicts with string keys are walked in sorted key order, and numeric arrays
    of one or two dimensions, row-indexed ones too, are written a block of
    rows at a time. Any other value is json's own text, re-indented to its
    level: a JSON string never holds a raw newline.
    """
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        indent = "\n" + " " * (level + 1)
        sep = "{"
        for key in sorted(value):
            yield f"{sep}{indent}{json.dumps(key)}: "
            yield from _json_chunks(value[key], level + 1)
            sep = ","
        yield "\n" + " " * level + "}"
    elif isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.dtype.kind in "fiu":
        yield from _array_chunks(value, level)
    elif isinstance(value, EncodedRows):
        yield from _array_chunks(value.rows, level, value.inverse)
    else:
        yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + " " * level)


def _array_chunks(array: np.ndarray, level: int, index: np.ndarray | None = None) -> Iterator[str]:
    """A 1-D or 2-D numeric array as json writes its nested list, one chunk
    per BLOCK_ROWS rows; with ``index``, the nested list of ``array[index]``,
    one chunk per BLOCK_ROWS indices, where each row of ``array`` is
    formatted once and its text is repeated by index."""
    n_rows = len(array) if index is None else len(index)
    if n_rows == 0:
        yield "[]"
        return
    outer = "\n" + " " * (level + 1)
    inner = "\n" + " " * (level + 2)
    columns = array.shape[1] if array.ndim == 2 else None
    # one row of a 2-D array, its values filled in by str.format
    row = "[" + inner + ("," + inner).join(["{}"] * columns) + outer + "]" if columns else "[]"

    def texts(start: int) -> list[str]:
        """The JSON text of each row of the block of ``array`` at ``start``."""
        block = array[start:start + BLOCK_ROWS]
        # repr is json's text for an int and a finite float; NaN and the
        # infinities take json's own spelling
        finite = block.dtype.kind != "f" or np.isfinite(block).all()
        values = list(map(repr if finite else json.dumps, block.ravel().tolist()))
        if columns is None:
            return values
        if columns:
            return list(map(row.format, *(values[j::columns] for j in range(columns))))
        return [row] * len(block)

    if index is not None:
        distinct = [text for start in range(0, len(array), BLOCK_ROWS) for text in texts(start)]
    sep = "["
    for start in range(0, n_rows, BLOCK_ROWS):
        if index is None:
            items = texts(start)
        else:
            items = map(distinct.__getitem__, index[start:start + BLOCK_ROWS].tolist())
        yield sep + outer + ("," + outer).join(items)
        sep = ","
    yield "\n" + " " * level + "]"
