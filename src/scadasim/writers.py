"""Artifact writers: text lines and JSON, formatted and written a block at a time.

Datasets, traces and model files are the largest things a run writes. They
are formatted from the records and arrays the run already holds, BLOCK_ROWS
lines or array rows at a time, so no run holds a second text copy of a whole
artifact. The bytes are those of the one-shot forms: every line followed by
"\\n", and ``json.dump(payload, fh, sort_keys=True, indent=1)`` followed by
"\\n".
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

# lines, or rows of an array, formatted and written together
BLOCK_ROWS = 4096


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line followed by "\\n" (UTF-8, LF endings)."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while block := list(islice(lines, BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def write_json(path: str, payload) -> None:
    """Write the bytes of ``json.dump(payload, fh, sort_keys=True, indent=1)``
    and a final "\\n", where a numeric numpy array of one or two dimensions
    stands for its nested list, and so does a row-indexed array: any object
    with such an array ``rows`` and an integer array ``inverse``, as
    ``ids.rows.EncodedRows`` holds them, stands for ``rows[inverse]``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(payload, 0))
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
    elif _numeric(value):
        yield from _array_chunks(value, level)
    elif _numeric(getattr(value, "rows", None)) and isinstance(getattr(value, "inverse", None),
                                                               np.ndarray):
        yield from _array_chunks(value.rows, level, value.inverse)
    else:
        yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + " " * level)


def _numeric(value) -> bool:
    """Whether ``value`` is a numeric array that is written as its nested list."""
    return isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.dtype.kind in "fiu"


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
