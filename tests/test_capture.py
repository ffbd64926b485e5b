import gc
import os
import re
import string
import tempfile
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scadasim import capture
from scadasim.capture import (
    CSV_HEADER,
    STAGE_TAGS,
    DatasetFormatError,
    LabeledDataset,
    LabeledRecord,
    LabelingError,
    TrafficCollector,
    collector_off,
    export_csv,
    import_csv,
    label_records,
)
from scadasim.engine import Engine, SimulationError
from scadasim.ids.models import FeatureDictionary, _distinct_keys, train_model
from scadasim.network import Packet
from scadasim.scenario import load_fixture, run_scenario
from scadasim.writers import BLOCK_ROWS


ATTACKER = "10.0.0.66"


def dictionary_of(records):
    """The feature dictionary that ``train_model`` freezes from ``records``."""
    return FeatureDictionary._from_keys(_distinct_keys(records)[0])


def snap(time_ms, src=ATTACKER, dst="10.0.0.11",
         protocol="SCAN_PROBE", length=60, manipulated=False):
    return (time_ms, src, dst, protocol, length, manipulated)


STAGES = [(1000, "S1_scan"), (5000, "S2_rce"), (6000, "S3_pe"), (7000, "S4_impact")]


class TestCollector:
    def test_snapshot_copies_packet_fields(self):
        collector = TrafficCollector(ATTACKER, STAGES)
        packet = Packet(2345, "a", "b", "HTTP", 222, {"type": "x"})
        collector.record(packet)
        *fields, manipulated = collector.snapshots[0]
        assert fields == [2345, "a", "b", "HTTP", 222]
        assert manipulated is False

    def test_manipulated_flag_carried_through(self):
        collector = TrafficCollector(ATTACKER, STAGES)
        packet = Packet(1, "a", "b", "SCADA", 61, {"manipulated": True})
        collector.record(packet)
        assert collector.snapshots[0][-1] is True


class TestLabeling:
    def test_attacker_packets_get_stage_of_send_time(self):
        records = label_records(
            [snap(1500), snap(5500), snap(7200)],
            ATTACKER, STAGES,
        )
        assert [(r.label, r.stage) for r in records] == [
            ("attack", "S1"), ("attack", "S2"), ("attack", "S4")]

    def test_pre_attack_telemetry_is_normal(self):
        records = label_records(
            [snap(500, src="10.0.0.11", dst="10.0.0.10", protocol="SCADA", length=61),
             snap(800, src="10.0.0.10", dst="10.0.0.11", protocol="SCADA", length=25)],
            ATTACKER, STAGES,
        )
        assert all(r.label == "normal" and r.stage is None for r in records)

    def test_manipulated_report_is_attack_s4(self):
        records = label_records(
            [snap(8000, src="10.0.0.11", dst="10.0.0.10",
                  protocol="SCADA", length=61, manipulated=True)],
            ATTACKER, STAGES,
        )
        assert records[0].label == "attack"
        assert records[0].stage == "S4"

    def test_manipulated_labeling_can_be_toggled_off(self):
        records = label_records(
            [snap(8000, src="10.0.0.11", dst="10.0.0.10", manipulated=True)],
            ATTACKER, STAGES, label_manipulated_reports=False,
        )
        assert records[0].label == "normal"

    def test_attacker_packet_before_first_stage_is_fatal(self):
        with pytest.raises(LabelingError, match="precedes"):
            label_records([snap(10)], ATTACKER, STAGES)


# a stage name label_records skips, and the four it tags
STAGE_NAMES = ["done", *STAGE_TAGS]


@st.composite
def mirrored_run(draw):
    """Frames and stage transitions of a run, in the order a collector sees them.

    Each frame is sent at some time and mirrored at least 1 ms later; frames
    reach the collector in mirror order. A transition at time ms is logged
    at engine time ms, so it is appended before every frame mirrored after
    ms, and after the frames mirrored at ms itself (which were sent before
    ms).
    """
    frames = draw(st.lists(st.tuples(
        st.integers(0, 60),                                   # sent at
        st.integers(1, 5),                                    # mirrored this much later
        st.sampled_from([ATTACKER, "10.0.0.11", "10.0.0.10"]),
        st.booleans(),                                        # manipulated
    ), max_size=40))
    times = sorted(draw(st.lists(st.integers(0, 70), max_size=6)))
    transitions = [(ms, draw(st.sampled_from(STAGE_NAMES))) for ms in times]
    frames.sort(key=lambda f: f[0] + f[1])  # mirror order; sort is stable
    return frames, transitions


def mirror_into(collector, stage_times, frames, transitions):
    """Feed ``frames`` to ``collector`` one at a time, appending each transition
    to the live ``stage_times`` once the frames mirrored at or before its time
    are in."""
    pending = list(transitions)
    for sent_at, delay, src, manipulated in frames:
        while pending and pending[0][0] < sent_at + delay:
            stage_times.append(pending.pop(0))
        collector.record(Packet(sent_at, src, "10.0.0.12", "SCADA", 61,
                                {"manipulated": manipulated}))
    stage_times.extend(pending)


class TestBlockLabelling:
    """The collector labels full blocks during the run and the last partial
    block at its end; the records are those of one pass after the run."""

    @settings(max_examples=200, deadline=None)
    @given(run=mirrored_run(), block=st.integers(1, 7), label_manipulated=st.booleans())
    def test_block_records_equal_one_pass_over_every_frame(self, run, block, label_manipulated):
        frames, transitions = run
        stage_times = []
        collector = TrafficCollector(ATTACKER, stage_times, label_manipulated)
        try:
            expected = label_records(
                [snap(sent_at, src=src, dst="10.0.0.12", protocol="SCADA", length=61,
                      manipulated=manipulated) for sent_at, _, src, manipulated in frames],
                ATTACKER, transitions, label_manipulated)
        except LabelingError as exc:
            # an attacker frame before the first stage fails either way, with one message
            with patch.object(capture, "BLOCK_ROWS", block), \
                    pytest.raises(LabelingError, match=re.escape(str(exc))):
                mirror_into(collector, stage_times, frames, transitions)
                collector.flush()
            return
        with patch.object(capture, "BLOCK_ROWS", block):
            mirror_into(collector, stage_times, frames, transitions)
            assert len(collector.snapshots) == len(frames) % block
            records = collector.flush()
        assert records == expected
        assert collector.snapshots == []

    def test_reference_run_never_holds_a_full_block(self, monkeypatch):
        pending, blocks = [], []
        record, label = TrafficCollector.record, capture.label_records

        def counted_record(self, packet):
            record(self, packet)
            pending.append(len(self.snapshots))

        def counted_label(snapshots, *args):
            blocks.append(len(snapshots))
            return label(snapshots, *args)

        monkeypatch.setattr(TrafficCollector, "record", counted_record)
        monkeypatch.setattr(capture, "label_records", counted_label)
        result = run_scenario(load_fixture("reference"), seed=7)
        records = len(result.dataset.records)
        assert records == result.fabric.mirrored_count > 2 * BLOCK_ROWS
        assert max(pending) == BLOCK_ROWS - 1
        assert blocks == [BLOCK_ROWS] * (records // BLOCK_ROWS) + [records % BLOCK_ROWS]

    def test_attacker_frame_before_first_stage_is_fatal_at_its_block(self):
        collector = TrafficCollector(ATTACKER, [])
        with patch.object(capture, "BLOCK_ROWS", 2):
            collector.record(Packet(10, "10.0.0.11", "10.0.0.10", "SCADA", 61, {}))
            with pytest.raises(LabelingError,
                               match="attacker packet at 10ms precedes the first attack stage"):
                collector.record(Packet(10, ATTACKER, "10.0.0.11", "SCAN_PROBE", 60, {}))

    def test_a_labelling_error_in_a_run_is_the_cause_of_a_simulation_error(self):
        engine = Engine()
        collector = TrafficCollector(ATTACKER, [])
        engine.register("net", lambda engine, kind, packet: collector.record(packet))
        engine.schedule(11, "net", "arrival", Packet(10, ATTACKER, "10.0.0.11", "SCAN_PROBE", 60, {}))
        with patch.object(capture, "BLOCK_ROWS", 1), pytest.raises(SimulationError) as err:
            engine.run(11)
        assert isinstance(err.value.__cause__, LabelingError)
        assert "precedes the first attack stage" in str(err.value)


class TestDataset:
    def records(self):
        normal = LabeledRecord(100, "a", "b", "SCADA", 61, "normal")
        attack = LabeledRecord(2000, "x", "b", "SCAN_PROBE", 60, "attack", "S1")
        late_normal = LabeledRecord(2500, "a", "b", "SCADA", 61, "normal")
        return [normal, normal, attack, late_normal]

    def test_split_is_attack_free_prefix(self):
        ds = LabeledDataset.from_records(self.records())
        assert ds.warmup_end == 2
        assert [r.label for r in ds.warmup_slice()] == ["normal", "normal"]

    def test_balance_percentages(self):
        ds = LabeledDataset.from_records(self.records())
        attack_pct, normal_pct = ds.balance
        assert attack_pct == pytest.approx(25.0)
        assert attack_pct + normal_pct == pytest.approx(100.0)

    def test_training_labels_follow_record_labels(self):
        model = train_model("knn", self.records() * 2)
        assert model.detector.y.tolist() == [0, 0, 1, 0] * 2


class TestFeatures:
    def test_codes_assigned_first_seen_from_one(self):
        records = [
            LabeledRecord(0, "a", "m", "SCADA", 61, "normal"),
            LabeledRecord(1, "b", "m", "HTTP", 300, "normal"),
            LabeledRecord(2, "a", "n", "SCADA", 25, "normal"),
        ]
        fd = dictionary_of(records)
        assert fd.src_codes == {"a": 1, "b": 2}
        assert fd.dst_codes == {"m": 1, "n": 2}
        assert fd.protocol_codes == {"SCADA": 1, "HTTP": 2}

    def test_unseen_category_maps_to_zero(self):
        train = [LabeledRecord(0, "a", "m", "SCADA", 61, "normal")]
        fd = dictionary_of(train)
        e = fd.encode([LabeledRecord(5, "zz", "m", "SSH", 61, "normal")])
        row = e.rows[e.inverse][0]
        assert row[0] == 0.0  # unseen src
        assert row[1] == 1.0
        assert row[2] == 0.0  # unseen protocol

    def test_length_minmax_normalization(self):
        train = [
            LabeledRecord(0, "a", "m", "SCADA", 25, "normal"),
            LabeledRecord(1, "a", "m", "SCADA", 525, "normal"),
        ]
        fd = dictionary_of(train)
        e = fd.encode(train + [LabeledRecord(2, "a", "m", "SCADA", 275, "normal")])
        rows = e.rows[e.inverse]
        assert rows[0][3] == 0.0
        assert rows[1][3] == 1.0
        assert rows[2][3] == 0.5

    def test_degenerate_length_span_encodes_zero(self):
        train = [LabeledRecord(0, "a", "m", "SCADA", 61, "normal")] * 3
        fd = dictionary_of(train)
        e = fd.encode(train)
        assert e.rows[e.inverse][:, 3].tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_build_and_encode_match_per_record_reference(self, data):
        record = st.builds(
            lambda src, dst, protocol, length: LabeledRecord(0, src, dst, protocol, length, "normal"),
            st.sampled_from("abc"), st.sampled_from("mn"), st.sampled_from(["SCADA", "HTTP"]),
            st.integers(20, 30))
        train = data.draw(st.lists(record, max_size=30), label="train")
        # the test set repeats records and holds values (and lengths) training never saw
        test = data.draw(st.lists(st.one_of(st.sampled_from(train), record) if train else record,
                                  max_size=30), label="test")
        fd = dictionary_of(train)

        codes = ({}, {}, {})
        for r in train:
            for table, value in zip(codes, (r.src, r.dst, r.protocol)):
                table.setdefault(value, len(table) + 1)
        lengths = [r.length_bytes for r in train] or [0]
        assert [list(t.items()) for t in (fd.src_codes, fd.dst_codes, fd.protocol_codes)] == \
            [list(t.items()) for t in codes]
        assert (fd.length_min, fd.length_max) == (min(lengths), max(lengths))

        span = fd.length_max - fd.length_min
        expected = np.array([
            [fd.src_codes.get(r.src, 0), fd.dst_codes.get(r.dst, 0),
             fd.protocol_codes.get(r.protocol, 0),
             0.0 if span == 0 else (r.length_bytes - fd.length_min) / span]
            for r in test], dtype=np.float64).reshape(len(test), 4)
        e = fd.encode(test)
        got = e.rows[e.inverse]
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def frozen_join_export(dataset: LabeledDataset, path: str) -> None:
    """The dataset writer as it was before rows were written in blocks: every
    row as one string, joined into one text."""
    lines = [CSV_HEADER]
    for r in dataset.records:
        stage = r.stage or ""
        lines.append(
            f"{r.time_ms},{r.src},{r.dst},{r.protocol},{r.length_bytes},{r.label},{stage}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def mixed_records(n: int) -> list[LabeledRecord]:
    """n records: every third one normal, the others attacks over four stages."""
    return [LabeledRecord(i * 7, "10.0.0.11", "10.0.0.10", "SCADA", 61, "normal") if i % 3 == 0
            else LabeledRecord(i * 7, "10.0.0.66", f"10.0.0.{i % 200}", "SCAN_PROBE", 60 + i % 5,
                               "attack", f"S{1 + i % 4}")
            for i in range(n)]


class TestCsv:
    def dataset(self):
        records = [
            LabeledRecord(100, "10.0.0.11", "10.0.0.10", "SCADA", 61, "normal"),
            LabeledRecord(2000, "10.0.0.66", "10.0.0.11", "SCAN_PROBE", 60, "attack", "S1"),
        ]
        return LabeledDataset.from_records(records)

    def test_round_trip_identity_of_records_split_and_balance(self, tmp_path):
        ds = self.dataset()
        path = tmp_path / "ds.csv"
        export_csv(ds, str(path))
        back = import_csv(str(path))
        assert back.records == ds.records
        assert back.warmup_end == ds.warmup_end
        assert back.balance == ds.balance

    def test_export_bytes_are_stable(self, tmp_path):
        ds = self.dataset()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(ds, str(p1))
        export_csv(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "\r" not in text
        assert text.splitlines()[0] == "time_ms,src,dst,protocol,length,label,stage"

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_export_bytes_equal_the_join_writer_around_a_block(self, tmp_path, n):
        ds = LabeledDataset.from_records(mixed_records(n))
        export_csv(ds, str(tmp_path / "blocks.csv"))
        frozen_join_export(ds, str(tmp_path / "joined.csv"))
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()

    def test_export_memory_does_not_grow_with_the_dataset(self, tmp_path):
        # 50,000 rows are about 2.3 MB of CSV text; a writer holding every row
        # as a string, then their join, peaks near 10 MB
        ds = LabeledDataset.from_records(mixed_records(50_000))
        tracemalloc.start()
        try:
            export_csv(ds, str(tmp_path / "big.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_empty_dataset_is_header_only(self, tmp_path):
        ds = LabeledDataset.from_records([])
        path = tmp_path / "empty.csv"
        export_csv(ds, str(path))
        assert path.read_text() == "time_ms,src,dst,protocol,length,label,stage\n"
        assert import_csv(str(path)).records == []

    def test_bad_label_token_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_ms,src,dst,protocol,length,label,stage\n"
            "100,a,b,SCADA,61,normal,\n"
            "200,a,b,SCADA,61,suspicious,\n"
        )
        with pytest.raises(DatasetFormatError, match="row 3"):
            import_csv(str(path))

    def test_wrong_field_count_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ms,src,dst,protocol,length,label,stage\n1,2,3\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            import_csv(str(path))

    @pytest.mark.parametrize("row", [
        "200,a,b,SCAN_PROBE,60,attack,",
        "200,a,b,SCAN_PROBE,60,attack,S9",
        "200,a,b,SCADA,61,normal,S1",
    ], ids=["attack-without-stage", "attack-with-unknown-stage", "normal-with-stage"])
    def test_stage_not_matching_label_names_the_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("time_ms,src,dst,protocol,length,label,stage\n"
                        "100,a,b,SCADA,61,normal,\n" + row + "\n")
        with pytest.raises(DatasetFormatError, match="row 3"):
            import_csv(str(path))

    @pytest.mark.parametrize("row, reason", [
        ("-5,a,b,SCADA,61,normal,", "negative time_ms"),
        ("200,a,b,SCADA,19,normal,", "length 19 below 20"),
        ("200,,b,SCADA,61,normal,", "empty src"),
        ("200,a,,SCADA,61,normal,", "empty src, dst"),
        ("200,a,b,,61,normal,", "or protocol"),
    ], ids=["negative-time", "short-length", "empty-src", "empty-dst", "empty-protocol"])
    def test_row_no_simulation_produces_names_the_row(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text("time_ms,src,dst,protocol,length,label,stage\n"
                        "100,a,b,SCADA,61,normal,\n" + row + "\n")
        with pytest.raises(DatasetFormatError, match=f"row 3: .*{reason}"):
            import_csv(str(path))

    def test_times_out_of_order_are_accepted(self, tmp_path):
        # capture order is forwarding order, so a later row may carry an earlier send time
        path = tmp_path / "ds.csv"
        path.write_text("time_ms,src,dst,protocol,length,label,stage\n"
                        "300,a,b,SCADA,61,normal,\n100,b,a,SCADA,61,normal,\n")
        assert [r.time_ms for r in import_csv(str(path)).records] == [300, 100]

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        token = st.text(string.ascii_letters + string.digits + ".-_", min_size=1, max_size=12)

        def records_of(label_stage, min_size, max_size):
            record = st.builds(
                lambda t, src, dst, protocol, length, ls: LabeledRecord(
                    t, src, dst, protocol, length, *ls),
                st.integers(0, 10**12), token, token, token, st.integers(20, 65535), label_stage)
            return st.lists(record, min_size=min_size, max_size=max_size)

        normal = st.just(("normal", None))
        attack = st.sampled_from([("attack", stage) for stage in ("S1", "S2", "S3", "S4")])
        prefix = data.draw(records_of(normal, 0, 40), label="prefix")
        rest = data.draw(records_of(attack, 0, min(1, 40 - len(prefix))), label="first attack")
        if rest:
            rest += data.draw(records_of(st.one_of(normal, attack), 0, 39 - len(prefix)),
                              label="rest")
        ds = LabeledDataset.from_records(prefix + rest)
        assert ds.warmup_end == len(prefix)

        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            export_csv(ds, first)
            back = import_csv(first)
            export_csv(back, second)
            with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
                assert fh_a.read() == fh_b.read()
        assert back.records == ds.records
        assert back.warmup_slice() == ds.warmup_slice()
        assert back.balance == ds.balance


@pytest.fixture
def collections():
    """The generation of each cyclic collection that runs while the test does.

    Counting starts from a full collection, so no young generation is near
    its threshold when the code under test begins; the collector is enabled
    again afterwards, whatever the test did to it.
    """
    generations = []

    def count(phase, info):
        if phase == "stop":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        yield generations
    finally:
        gc.callbacks.remove(count)
        gc.enable()


def many_snapshots(n: int) -> list[tuple]:
    """n snapshots after the first stage: attacker probes, telemetry and
    manipulated reports."""
    return [snap(1000 + 3 * i) if i % 2
            else snap(1000 + 3 * i, src="10.0.0.11", dst="10.0.0.10", protocol="SCADA",
                      length=61, manipulated=i % 5 == 0)
            for i in range(n)]


class TestCyclicCollector:
    """The CSV reader and a run's labelling go under one gen-1 collection, and
    the collector's state is the caller's again afterwards."""

    def test_import_runs_one_young_collection(self, tmp_path, collections):
        path = str(tmp_path / "big.csv")
        export_csv(LabeledDataset.from_records(mixed_records(20_000)), path)
        gc.collect()
        collections.clear()
        assert len(import_csv(path).records) == 20_000
        assert collections == [1]

    def test_block_labelling_sets_off_no_collection(self, collections):
        # a run labels its blocks under collector_off, which then runs one gen-1 collection
        collector = TrafficCollector(ATTACKER, STAGES)
        collector.snapshots = many_snapshots(BLOCK_ROWS - 1)
        gc.collect()
        collections.clear()
        with collector_off():
            collector.record(Packet(9000, "10.0.0.11", "10.0.0.10", "SCADA", 61, {}))
            assert len(collector.records) == BLOCK_ROWS and collector.snapshots == []
            assert collections == []
        assert collections == [1]

    def test_import_leaves_the_collector_enabled(self, tmp_path, collections):
        path = tmp_path / "ds.csv"
        export_csv(LabeledDataset.from_records(mixed_records(100)), str(path))
        import_csv(str(path))
        assert gc.isenabled()

    def test_a_bad_row_mid_file_leaves_the_collector_enabled(self, tmp_path, collections):
        path = tmp_path / "bad.csv"
        export_csv(LabeledDataset.from_records(mixed_records(5_000)), str(path))
        rows = path.read_text().splitlines()
        rows.insert(2_500, "200,a,b,SCADA,61,suspicious,")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError, match="row 2501: bad label"):
            import_csv(str(path))
        assert gc.isenabled()

    def test_a_labelling_error_leaves_the_collector_enabled(self, collections):
        collector = TrafficCollector(ATTACKER, STAGES)
        collector.snapshots = many_snapshots(100) + [snap(10)]
        with pytest.raises(LabelingError,
                           match="attacker packet at 10ms precedes the first attack stage"):
            collector.flush()
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled_and_collects_nothing(
            self, tmp_path, collections):
        path = tmp_path / "ds.csv"
        export_csv(LabeledDataset.from_records(mixed_records(5_000)), str(path))
        collector = TrafficCollector(ATTACKER, STAGES)
        collector.snapshots = many_snapshots(BLOCK_ROWS)
        gc.disable()
        collections.clear()
        import_csv(str(path))
        assert not gc.isenabled()
        collector.flush()
        assert not gc.isenabled()
        assert collections == []
