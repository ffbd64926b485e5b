"""Artifact writers: text lines and JSON.

Datasets and traces are the largest things a run writes, each line followed
by "\\n". They are formatted from the records the run already holds and written
BLOCK_ROWS lines at a time, so no run holds a second text copy of a whole
artifact. Model files have their own writer, ``ids.models.save_model``.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterable

# lines, or rows of an array, formatted and written together
BLOCK_ROWS = 4096


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line followed by "\\n" (UTF-8, LF endings)."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while block := list(islice(lines, BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def write_json(path: str, payload) -> None:
    """Write ``json.dump(payload, fh, sort_keys=True, indent=1)`` and a final "\\n"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
