"""SPAN traffic collection, ground-truth labeling, dataset CSV.

Labeling rule: a record is attack when its source address is the attacker's
(the stage is whatever attack stage was active when it was sent), or when it is
an RTU measurement report emitted under an active manipulation effect (stage
S4, toggleable). Everything else is normal. An attacker record sent before the
first attack stage is a hard error, never a guess.
"""

from __future__ import annotations

import bisect
import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

from .network import MIN_PACKET_BYTES, Packet
from .writers import BLOCK_ROWS, write_lines

BALANCE_TOLERANCE_PP = 3.0

CSV_HEADER = "time_ms,src,dst,protocol,length,label,stage"
LABELS = ("normal", "attack")
STAGE_TAGS = {"S1_scan": "S1", "S2_rce": "S2", "S3_pe": "S3", "S4_impact": "S4"}
# every valid (label, stage field) pair of a CSV row, mapped to the record's stage
_ROW_STAGE = {("normal", ""): None, **{("attack", tag): tag for tag in STAGE_TAGS.values()}}


class LabelingError(RuntimeError):
    """An attacker record precedes the first logged attack stage."""


class DatasetFormatError(ValueError):
    """CSV import failed; the message names the offending row."""


class TrainingDataError(ValueError):
    """The training rows cannot fit the model: too few of them, or one class only."""


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


class CalibrationError(RuntimeError):
    """Scenario balance missed its target share."""

    def __init__(self, scenario_id: int | str, target: float, achieved: float):
        super().__init__(
            f"scenario {scenario_id}: achieved attack share {achieved:.2f}% "
            f"outside {target:.2f}% +/- {BALANCE_TOLERANCE_PP:.1f}pp"
        )
        self.scenario_id = scenario_id
        self.target = target
        self.achieved = achieved


def check_balance(scenario_id: int | str, target: float | None, dataset: "LabeledDataset") -> None:
    """Raise CalibrationError when the dataset's attack share misses ``target``
    by more than the tolerance; a None target is not checked."""
    achieved = dataset.balance[0]
    if target is not None and abs(achieved - target) > BALANCE_TOLERANCE_PP:
        raise CalibrationError(scenario_id, target, achieved)


@contextmanager
def collector_off():
    """Run the body with CPython's cyclic collector disabled, then, if it was
    enabled, run one ``gc.collect(1)`` and enable it again.

    A record is a tuple subclass, which the collector never untracks, so each
    record a growing list gains is walked by the collections its own
    allocations set off, and finds nothing: records hold no cycles. The one
    gen-1 collection moves every survivor to the oldest generation in a
    single visit. The CSV reader and a whole run (``scenario.run_scenario``,
    with every block the SPAN collector labels) go under this helper; a run
    makes no cyclic garbage, so the 88 gen-0, 8 gen-1 and 0.7 full
    collections that a scenario 1 run would set off find nothing. A columnar
    dataset (ROADMAP item 5) holds no per-record objects, so the record lists
    would no longer need this helper.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.collect(1)
            gc.enable()


class LabeledRecord(NamedTuple):
    """One dataset row; ``stage`` is set exactly when ``label`` is attack.

    Built only by ``label_records`` and ``import_csv``, which both hold to that
    rule, so a record does not check itself.
    """

    time_ms: int
    src: str
    dst: str
    protocol: str
    length_bytes: int
    label: str
    stage: str | None = None


# a record's IDS key, (src, dst, protocol, length, label): what the detectors
# encode and train on
record_key = itemgetter(slice(1, 6))


def _drops_key_pass(method):
    """``list.method`` for a ``RecordList``: it drops the held key pass first."""
    @wraps(method)
    def dropping(self, *args, **kwargs):
        self.key_pass = None
        return method(self, *args, **kwargs)
    return dropping


class RecordList(list):
    """A list of records that can hold the IDS key pass made over it.

    ``key_pass`` is ``(keys, numbers)``: each distinct ``record_key`` numbered
    in first-seen order, and each record's key number, an ``array("I")``.
    ``import_csv`` numbers the keys as it reads the rows, so an imported list
    holds its pass from the start, and ``join_record_lists`` joins the passes
    of the lists it joins; ``ids.models._distinct_keys`` runs the pass on any
    other list and stores it here. The IDS scores the same traffic
    with several detectors, and each reuses the held pass.

    Every list method that can replace, reorder or remove a record drops the
    pass; the others only append. So a held pass is valid exactly when its
    column is as long as the list (``held_key_pass``): after an append it is
    shorter, and only a method that drops it can shorten the list again. A
    list changed through ``list``'s own methods called on it directly gets no
    such guarantee. The pass is held by the list and dies with it: a
    module-level memo of recent passes kept the previous evaluation's
    datasets alive through the next one, and raised the ``ids_eval``
    benchmark's peak RSS from 78.7 to 92.6 MB.
    """

    __slots__ = ("key_pass",)

    __init__ = _drops_key_pass(list.__init__)
    __setitem__ = _drops_key_pass(list.__setitem__)
    __delitem__ = _drops_key_pass(list.__delitem__)
    __imul__ = _drops_key_pass(list.__imul__)
    insert = _drops_key_pass(list.insert)
    pop = _drops_key_pass(list.pop)
    remove = _drops_key_pass(list.remove)
    clear = _drops_key_pass(list.clear)
    sort = _drops_key_pass(list.sort)
    reverse = _drops_key_pass(list.reverse)


def held_key_pass(records: list) -> tuple[dict[tuple, int], array] | None:
    """The key pass that ``records`` holds while it is valid; otherwise, and
    for a plain list, None."""
    held = getattr(records, "key_pass", None)
    if held is not None and len(held[1]) == len(records):
        return held
    return None


def join_record_lists(lists: list[list]) -> RecordList:
    """The records of ``lists``, in order, as one ``RecordList``.

    When every list holds a valid key pass, the joined list holds theirs
    joined, and no pass runs over it: each later list's keys go, in order,
    through ``setdefault`` into a copy of the first list's keys, and its
    number column, remapped, is appended to a copy of the first one's. That
    is the first-seen numbering a pass over the joined list would give.
    """
    joined = RecordList(chain.from_iterable(lists))
    held = [held_key_pass(records) for records in lists]
    if held and None not in held:
        (keys, numbers), *later = held
        keys, numbers = dict(keys), array("I", numbers)
        for later_keys, later_numbers in later:
            # a held pass numbers its keys 0, 1, ... in its dict's order
            remap = [keys.setdefault(key, len(keys)) for key in later_keys]
            numbers.extend(map(remap.__getitem__, later_numbers))
        joined.key_pass = (keys, numbers)
    return joined


class TrafficCollector:
    """Mirror sink for the SPAN port: labels its frames a block at a time.

    ``record`` takes one snapshot per mirrored frame, in forwarding order: a
    plain ``(time_ms, src, dst, protocol, length_bytes, manipulated)`` tuple.
    Once ``BLOCK_ROWS`` snapshots are pending, ``label_records`` labels them,
    their records are appended to ``records`` and the snapshots are dropped,
    so at most one block of snapshots is alive. ``flush`` labels the last
    partial block when the run ends.

    Labelling during the run gives the records one pass after it would. A
    frame mirrored at time t was sent at least 1 ms earlier, the
    serialization of a ``MIN_PACKET_BYTES`` frame, so every stage transition
    its label needs is already in the attacker's live ``stage_times``; a
    transition logged later is at or after t, and ``bisect_right`` ignores
    it.
    """

    def __init__(self, attacker_address: str, stage_times: list[tuple[int, str]],
                 label_manipulated_reports: bool = True):
        self.attacker_address = attacker_address
        self.stage_times = stage_times
        self.label_manipulated_reports = label_manipulated_reports
        self.snapshots: list[tuple] = []
        self.records = RecordList()

    def record(self, packet: Packet) -> None:
        snapshots = self.snapshots
        snapshots.append((packet.sent_at, packet.src, packet.dst, packet.protocol,
                          packet.length_bytes, bool(packet.payload.get("manipulated", False))))
        if len(snapshots) >= BLOCK_ROWS:
            self.flush()

    def flush(self) -> RecordList:
        """Label the pending snapshots; returns every record labelled so far."""
        if self.snapshots:
            self.records += label_records(self.snapshots, self.attacker_address,
                                          self.stage_times, self.label_manipulated_reports)
            # in place: ``record`` still holds the list
            self.snapshots.clear()
        return self.records


def label_records(
    snapshots: list[tuple],
    attacker_address: str,
    stage_times: list[tuple[int, str]],
    label_manipulated_reports: bool = True,
) -> list[LabeledRecord]:
    """Apply the ground-truth labeling rule to collected snapshots."""
    transitions = [(ms, STAGE_TAGS[stage]) for ms, stage in stage_times if stage in STAGE_TAGS]
    times = [ms for ms, _ in transitions]
    out = []
    for time_ms, src, dst, protocol, length_bytes, manipulated in snapshots:
        if src == attacker_address:
            idx = bisect.bisect_right(times, time_ms) - 1
            if idx < 0:
                raise LabelingError(
                    f"attacker packet at {time_ms}ms precedes the first attack stage"
                )
            label, stage = "attack", transitions[idx][1]
        elif manipulated and label_manipulated_reports:
            label, stage = "attack", "S4"
        else:
            label, stage = "normal", None
        out.append(tuple.__new__(
            LabeledRecord, (time_ms, src, dst, protocol, length_bytes, label, stage)))
    return out


@dataclass
class LabeledDataset:
    """Records in capture order; ``records[:warmup_end]`` is the attack-free prefix."""

    records: list[LabeledRecord]
    warmup_end: int

    @classmethod
    def from_records(cls, records: list[LabeledRecord]) -> "LabeledDataset":
        """Split rule: the prefix before the first attack record is the warm-up (train) part."""
        warmup_end = next((i for i, r in enumerate(records) if r.label == "attack"), len(records))
        return cls(records, warmup_end)

    @property
    def balance(self) -> tuple[float, float]:
        """(attack_pct, normal_pct); (0, 0) for an empty dataset."""
        if not self.records:
            return (0.0, 0.0)
        attacks = sum(1 for r in self.records if r.label == "attack")
        attack_pct = 100.0 * attacks / len(self.records)
        return (attack_pct, 100.0 - attack_pct)

    def warmup_slice(self) -> RecordList:
        """The attack-free prefix used to train semi-supervised detectors; it
        holds its part of the records' key pass."""
        end = self.warmup_end
        prefix = RecordList(self.records[:end])
        held = held_key_pass(self.records)
        if held is not None:
            keys, numbers = held
            numbers = numbers[:end]
            # numbered in first-seen order, the prefix's keys are the first ones
            prefix.key_pass = (dict(islice(keys.items(), max(numbers, default=-1) + 1)), numbers)
        return prefix


# ---------------------------------------------------------------------------
# CSV wire format
# ---------------------------------------------------------------------------

def export_csv(dataset: LabeledDataset, path: str) -> None:
    """Write the dataset CSV: UTF-8, LF endings, fields never quoted.

    Only the records cross the wire; the split is re-derived on import from
    the attack-free prefix rule. Rows are formatted a block at a time as they
    are written.
    """
    rows = (f"{time_ms},{src},{dst},{protocol},{length},{label},{stage or ''}"
            for time_ms, src, dst, protocol, length, label, stage in dataset.records)
    write_lines(path, chain((CSV_HEADER,), rows))


class _RowProblem(Exception):
    """What is wrong with one CSV row; import_csv adds the file and row number."""


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise _RowProblem(f"non-integer field: {exc}") from exc


def _check_time(time_ms: int) -> int:
    if time_ms < 0:
        raise _RowProblem(f"negative time_ms {time_ms}")
    return time_ms


def _row_fields(line: str) -> tuple:
    """Every check of one row, in order; returns the fields after the time
    as a record holds them: (src, dst, protocol, length, label, stage)."""
    parts = line.split(",")
    if len(parts) != 7:
        raise _RowProblem(f"expected 7 fields, got {len(parts)}")
    time_s, src, dst, protocol, length_s, label, stage = parts
    time_ms = _integer(time_s)
    length = _integer(length_s)
    try:
        stage_tag = _ROW_STAGE[label, stage]
    except KeyError:
        if label not in LABELS:
            raise _RowProblem(f"bad label token {label!r}") from None
        if label == "attack":
            raise _RowProblem(f"bad stage {stage!r} for attack row") from None
        raise _RowProblem("normal row carries a stage") from None
    _check_time(time_ms)
    if length < MIN_PACKET_BYTES:
        raise _RowProblem(f"length {length} below {MIN_PACKET_BYTES} bytes")
    if not (src and dst and protocol):
        raise _RowProblem("empty src, dst or protocol")
    return (src, dst, protocol, length, label, stage_tag)


def import_csv(path: str) -> LabeledDataset:
    """Read a dataset CSV; the one place outside rows are checked.

    A row must have a valid (label, stage) pair, a time of at least 0, a
    length of at least ``MIN_PACKET_BYTES`` and non-empty src, dst and
    protocol. Times need not increase: capture order is the order the SPAN
    switch forwarded frames in, not the order they were sent.

    Each distinct row tail (everything after the time) is checked once, the
    first time it appears; a later row with the same tail can only be wrong
    in its time, so only its time is checked, and it shares the first row's
    field objects. Such a row costs one partition, one lookup, one ``int``
    and one sign test; a new tail or a bad time goes through the checkers,
    so the first bad row still raises the same error as a full check of
    every row. Records are built by ``tuple.__new__``, in C, as
    ``LabeledRecord._make`` does, not by the NamedTuple's Python ``__new__``,
    and under ``collector_off``.

    The returned ``RecordList`` holds its IDS key pass. A new tail's key is
    numbered in first-seen order when the tail is checked, and the tail
    keeps its number, so each row adds one number to the column.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bad byte's row: the line breaks before it, as splitlines counts them
        row_no = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise DatasetFormatError(
            f"{path} row {row_no}: byte {raw[exc.start]:#04x} is not valid UTF-8") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise DatasetFormatError(f"{path}: missing or wrong header")
    records, numbers, keys = RecordList(), array("I"), {}
    # each distinct tail: its fields as a record holds them, and its key's number
    tails: dict[str, tuple[tuple, int]] = {}
    append, append_number, new_record, known_tail = (
        records.append, numbers.append, tuple.__new__, tails.get)
    with collector_off():
        for line in lines[1:]:
            time_s, _, tail = line.partition(",")
            known = known_tail(tail)
            try:
                time_ms = int(time_s)
            except ValueError:
                time_ms = -1
            if known is None or time_ms < 0:
                # a new tail or a bad time: every check, in order, names the fault
                try:
                    fields = _row_fields(line) if known is None else known[0]
                    time_ms = _check_time(_integer(time_s))
                except _RowProblem as exc:
                    # each row before this one made a record; the header is row 1
                    row_no = len(records) + 2
                    raise DatasetFormatError(f"{path} row {row_no}: {exc}") from exc.__cause__
                if known is None:
                    key = record_key((time_ms,) + fields)
                    known = tails[tail] = (fields, keys.setdefault(key, len(keys)))
            fields, number = known
            append(new_record(LabeledRecord, (time_ms,) + fields))
            append_number(number)
        records.key_pass = (keys, numbers)
        return LabeledDataset.from_records(records)
