"""SPAN traffic collection, ground-truth labeling, features, dataset CSV.

Labeling rule: a record is attack when its origin actor is the attacker (the
stage is whatever attack stage was active when it was sent), or when it is an
RTU measurement report emitted under an active manipulation effect (stage S4,
toggleable). Everything else is normal. Records outside the ground-truth log
coverage are a hard error, never a guess.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .network import Packet

BALANCE_TOLERANCE_PP = 3.0

CSV_HEADER = "time_ms,src,dst,protocol,length,label,stage"
LABELS = ("normal", "attack")
STAGE_TAGS = {"S1_scan": "S1", "S2_rce": "S2", "S3_pe": "S3", "S4_impact": "S4"}


class LabelingError(RuntimeError):
    """A captured record falls outside ground-truth log coverage."""


class DatasetFormatError(ValueError):
    """CSV import failed; the message names the offending row."""


class CalibrationError(RuntimeError):
    """Scenario balance missed its target share."""

    def __init__(self, scenario_id: int, target: float, achieved: float):
        super().__init__(
            f"scenario {scenario_id}: achieved attack share {achieved:.2f}% "
            f"outside {target:.2f}% +/- {BALANCE_TOLERANCE_PP:.1f}pp"
        )
        self.scenario_id = scenario_id
        self.target = target
        self.achieved = achieved


@dataclass(frozen=True)
class CapturedPacket:
    """Snapshot of one mirrored frame, taken as the SPAN switch handled it."""

    time_ms: int
    src: str
    dst: str
    protocol: str
    length_bytes: int
    origin_actor: str
    manipulated: bool


@dataclass(frozen=True)
class LabeledRecord:
    time_ms: int
    src: str
    dst: str
    protocol: str
    length_bytes: int
    label: str
    stage: str | None = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise DatasetFormatError(f"unknown label {self.label!r}")
        if (self.stage is not None) != (self.label == "attack"):
            raise DatasetFormatError("stage must be present exactly when label is attack")


class TrafficCollector:
    """Mirror sink for the SPAN port; records in forwarding order."""

    def __init__(self):
        self.snapshots: list[CapturedPacket] = []

    def record(self, packet: Packet) -> None:
        self.snapshots.append(
            CapturedPacket(
                time_ms=packet.sent_at,
                src=packet.src,
                dst=packet.dst,
                protocol=packet.protocol,
                length_bytes=packet.length_bytes,
                origin_actor=packet.origin_actor,
                manipulated=bool(packet.payload.get("manipulated", False)),
            )
        )


def label_records(
    snapshots: list[CapturedPacket],
    attacker_origin: str,
    stage_times: list[tuple[int, str]],
    coverage_end_ms: int,
    label_manipulated_reports: bool = True,
) -> list[LabeledRecord]:
    """Apply the ground-truth labeling rule to collected snapshots."""
    transitions = [(ms, STAGE_TAGS[stage]) for ms, stage in stage_times if stage in STAGE_TAGS]
    times = [ms for ms, _ in transitions]
    out: list[LabeledRecord] = []
    for snap in snapshots:
        if snap.time_ms > coverage_end_ms:
            raise LabelingError(
                f"record at {snap.time_ms}ms is outside log coverage (ends {coverage_end_ms}ms)"
            )
        if snap.origin_actor == attacker_origin:
            idx = bisect.bisect_right(times, snap.time_ms) - 1
            if idx < 0:
                raise LabelingError(
                    f"attacker packet at {snap.time_ms}ms precedes the first attack stage"
                )
            label, stage = "attack", transitions[idx][1]
        elif snap.manipulated and label_manipulated_reports:
            label, stage = "attack", "S4"
        else:
            label, stage = "normal", None
        out.append(
            LabeledRecord(
                time_ms=snap.time_ms,
                src=snap.src,
                dst=snap.dst,
                protocol=snap.protocol,
                length_bytes=snap.length_bytes,
                label=label,
                stage=stage,
            )
        )
    return out


@dataclass
class LabeledDataset:
    scenario_id: str  # "1".."6" or "custom"
    seed: int | None
    records: list[LabeledRecord]
    train_ranges: list[tuple[int, int]] = field(default_factory=list)
    test_ranges: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_records(
        cls, records: list[LabeledRecord], scenario_id: str = "custom", seed: int | None = None
    ) -> "LabeledDataset":
        """Split rule: the attack-free prefix is the train range, the rest is test."""
        first_attack = len(records)
        for i, rec in enumerate(records):
            if rec.label == "attack":
                first_attack = i
                break
        train = [(0, first_attack)] if first_attack > 0 else []
        test = [(first_attack, len(records))] if first_attack < len(records) else []
        return cls(scenario_id, seed, records, train, test)

    @property
    def balance(self) -> tuple[float, float]:
        """(attack_pct, normal_pct); (0, 0) for an empty dataset."""
        if not self.records:
            return (0.0, 0.0)
        attacks = sum(1 for r in self.records if r.label == "attack")
        attack_pct = 100.0 * attacks / len(self.records)
        return (attack_pct, 100.0 - attack_pct)

    def warmup_slice(self) -> list[LabeledRecord]:
        """The attack-free prefix used to train semi-supervised detectors."""
        out: list[LabeledRecord] = []
        for start, end in self.train_ranges:
            out.extend(self.records[start:end])
        return out


@dataclass
class FeatureDictionary:
    """Categorical codes frozen at training time; unseen values map to 0."""

    src_codes: dict[str, int]
    dst_codes: dict[str, int]
    protocol_codes: dict[str, int]
    length_min: int
    length_max: int

    @classmethod
    def build(cls, records: list[LabeledRecord]) -> "FeatureDictionary":
        src: dict[str, int] = {}
        dst: dict[str, int] = {}
        proto: dict[str, int] = {}
        lengths = [r.length_bytes for r in records] or [0]
        for r in records:
            src.setdefault(r.src, len(src) + 1)
            dst.setdefault(r.dst, len(dst) + 1)
            proto.setdefault(r.protocol, len(proto) + 1)
        return cls(src, dst, proto, min(lengths), max(lengths))

    def encode(self, records: list[LabeledRecord]) -> np.ndarray:
        """(N, 4) float matrix: src code, dst code, protocol code, normalized length."""
        n = len(records)
        out = np.zeros((n, 4), dtype=np.float64)
        span = self.length_max - self.length_min
        for i, r in enumerate(records):
            out[i, 0] = self.src_codes.get(r.src, 0)
            out[i, 1] = self.dst_codes.get(r.dst, 0)
            out[i, 2] = self.protocol_codes.get(r.protocol, 0)
            out[i, 3] = 0.0 if span == 0 else (r.length_bytes - self.length_min) / span
        return out

    def to_dict(self) -> dict:
        return {
            "src_codes": self.src_codes,
            "dst_codes": self.dst_codes,
            "protocol_codes": self.protocol_codes,
            "length_min": self.length_min,
            "length_max": self.length_max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureDictionary":
        return cls(
            dict(data["src_codes"]),
            dict(data["dst_codes"]),
            dict(data["protocol_codes"]),
            int(data["length_min"]),
            int(data["length_max"]),
        )


def labels_array(records: list[LabeledRecord]) -> np.ndarray:
    """1 for attack, 0 for normal."""
    return np.fromiter((1 if r.label == "attack" else 0 for r in records), dtype=np.int64,
                       count=len(records))


# ---------------------------------------------------------------------------
# CSV wire format
# ---------------------------------------------------------------------------

def export_csv(dataset: LabeledDataset, path: str) -> None:
    """Write the dataset CSV: UTF-8, LF endings, fields never quoted.

    Only the records cross the wire; scenario provenance (id, seed) is not
    serialized, and the split is re-derived on import from the attack-free
    prefix rule.
    """
    lines = [CSV_HEADER]
    for r in dataset.records:
        stage = r.stage or ""
        lines.append(
            f"{r.time_ms},{r.src},{r.dst},{r.protocol},{r.length_bytes},{r.label},{stage}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def import_csv(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DatasetFormatError(f"{path}: missing or wrong header")
    records: list[LabeledRecord] = []
    for row_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise DatasetFormatError(f"{path} row {row_no}: expected 7 fields, got {len(parts)}")
        time_s, src, dst, protocol, length_s, label, stage = parts
        try:
            time_ms = int(time_s)
            length = int(length_s)
        except ValueError as exc:
            raise DatasetFormatError(f"{path} row {row_no}: non-integer field: {exc}") from exc
        if label not in LABELS:
            raise DatasetFormatError(f"{path} row {row_no}: bad label token {label!r}")
        if label == "attack" and stage not in ("S1", "S2", "S3", "S4"):
            raise DatasetFormatError(f"{path} row {row_no}: bad stage {stage!r} for attack row")
        if label == "normal" and stage != "":
            raise DatasetFormatError(f"{path} row {row_no}: normal row carries a stage")
        records.append(
            LabeledRecord(time_ms, src, dst, protocol, length, label, stage or None)
        )
    return LabeledDataset.from_records(records, scenario_id="custom", seed=None)

