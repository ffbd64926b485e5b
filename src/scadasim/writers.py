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
    stands for its nested list."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(payload, 0))
        fh.write("\n")


def _json_chunks(value, level: int) -> Iterator[str]:
    """The JSON text of ``value`` nested ``level`` deep, in pieces.

    Dicts with string keys are walked in sorted key order, and numeric arrays
    of one or two dimensions are written a block of rows at a time. Any other
    value is json's own text, re-indented to its level: a JSON string never
    holds a raw newline.
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
    else:
        yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + " " * level)


def _array_chunks(array: np.ndarray, level: int) -> Iterator[str]:
    """A 1-D or 2-D numeric array as json writes its nested list, one chunk
    per BLOCK_ROWS rows."""
    if len(array) == 0:
        yield "[]"
        return
    outer = "\n" + " " * (level + 1)
    inner = "\n" + " " * (level + 2)
    columns = array.shape[1] if array.ndim == 2 else None
    # one row of a 2-D array, its values filled in by str.format
    row = "[" + inner + ("," + inner).join(["{}"] * columns) + outer + "]" if columns else "[]"
    sep = "["
    for start in range(0, len(array), BLOCK_ROWS):
        block = array[start:start + BLOCK_ROWS]
        # repr is json's text for an int and a finite float; NaN and the
        # infinities take json's own spelling
        finite = block.dtype.kind != "f" or np.isfinite(block).all()
        texts = list(map(repr if finite else json.dumps, block.ravel().tolist()))
        if columns is None:
            items = texts
        elif columns:
            items = map(row.format, *(texts[j::columns] for j in range(columns)))
        else:
            items = [row] * len(block)
        yield sep + outer + ("," + outer).join(items)
        sep = ","
    yield "\n" + " " * level + "]"
