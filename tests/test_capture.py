import pytest

from scadasim.capture import (
    CapturedPacket,
    DatasetFormatError,
    FeatureDictionary,
    LabeledDataset,
    LabeledRecord,
    LabelingError,
    TrafficCollector,
    export_csv,
    import_csv,
    label_records,
    labels_array,
)
from scadasim.network import Packet


def snap(time_ms, origin, src="10.0.0.66", dst="10.0.0.11",
         protocol="SCAN_PROBE", length=60, manipulated=False):
    return CapturedPacket(time_ms, src, dst, protocol, length, origin, manipulated)


STAGES = [(1000, "S1_scan"), (5000, "S2_rce"), (6000, "S3_pe"), (7000, "S4_impact")]


class TestCollector:
    def test_snapshot_copies_packet_fields(self):
        collector = TrafficCollector()
        packet = Packet(2345, "a", "b", "HTTP", 222, {"type": "x"}, "h1")
        collector.record(packet)
        s = collector.snapshots[0]
        assert (s.time_ms, s.src, s.dst, s.protocol, s.length_bytes, s.origin_actor) == (
            2345, "a", "b", "HTTP", 222, "h1")
        assert s.manipulated is False

    def test_manipulated_flag_carried_through(self):
        collector = TrafficCollector()
        packet = Packet(1, "a", "b", "SCADA", 61, {"manipulated": True}, "rtu1-host")
        collector.record(packet)
        assert collector.snapshots[0].manipulated is True


class TestLabeling:
    def test_attacker_packets_get_stage_of_send_time(self):
        records = label_records(
            [snap(1500, "attacker"), snap(5500, "attacker"), snap(7200, "attacker")],
            "attacker", STAGES, coverage_end_ms=10_000,
        )
        assert [(r.label, r.stage) for r in records] == [
            ("attack", "S1"), ("attack", "S2"), ("attack", "S4")]

    def test_pre_attack_telemetry_is_normal(self):
        records = label_records(
            [snap(500, "rtu1-host", src="10.0.0.11", dst="10.0.0.10", protocol="SCADA", length=61),
             snap(800, "mtu-host", src="10.0.0.10", dst="10.0.0.11", protocol="SCADA", length=25)],
            "attacker", STAGES, coverage_end_ms=10_000,
        )
        assert all(r.label == "normal" and r.stage is None for r in records)

    def test_manipulated_report_is_attack_s4(self):
        records = label_records(
            [snap(8000, "rtu1-host", src="10.0.0.11", dst="10.0.0.10",
                  protocol="SCADA", length=61, manipulated=True)],
            "attacker", STAGES, coverage_end_ms=10_000,
        )
        assert records[0].label == "attack"
        assert records[0].stage == "S4"

    def test_manipulated_labeling_can_be_toggled_off(self):
        records = label_records(
            [snap(8000, "rtu1-host", manipulated=True)],
            "attacker", STAGES, coverage_end_ms=10_000,
            label_manipulated_reports=False,
        )
        assert records[0].label == "normal"

    def test_record_outside_coverage_is_fatal(self):
        with pytest.raises(LabelingError, match="outside log coverage"):
            label_records([snap(99_999, "mtu-host")], "attacker", STAGES, coverage_end_ms=10_000)

    def test_attacker_packet_before_first_stage_is_fatal(self):
        with pytest.raises(LabelingError, match="precedes"):
            label_records([snap(10, "attacker")], "attacker", STAGES, coverage_end_ms=10_000)


class TestDataset:
    def records(self):
        normal = LabeledRecord(100, "a", "b", "SCADA", 61, "normal")
        attack = LabeledRecord(2000, "x", "b", "SCAN_PROBE", 60, "attack", "S1")
        late_normal = LabeledRecord(2500, "a", "b", "SCADA", 61, "normal")
        return [normal, normal, attack, late_normal]

    def test_split_is_attack_free_prefix(self):
        ds = LabeledDataset.from_records(self.records(), "custom", 1)
        assert ds.train_ranges == [(0, 2)]
        assert ds.test_ranges == [(2, 4)]
        assert [r.label for r in ds.warmup_slice()] == ["normal", "normal"]

    def test_balance_percentages(self):
        ds = LabeledDataset.from_records(self.records())
        attack_pct, normal_pct = ds.balance
        assert attack_pct == pytest.approx(25.0)
        assert attack_pct + normal_pct == pytest.approx(100.0)

    def test_stage_must_match_label(self):
        with pytest.raises(DatasetFormatError):
            LabeledRecord(0, "a", "b", "SCADA", 61, "normal", "S1")
        with pytest.raises(DatasetFormatError):
            LabeledRecord(0, "a", "b", "SCADA", 61, "attack")

    def test_labels_array(self):
        arr = labels_array(self.records())
        assert arr.tolist() == [0, 0, 1, 0]


class TestFeatures:
    def test_codes_assigned_first_seen_from_one(self):
        records = [
            LabeledRecord(0, "a", "m", "SCADA", 61, "normal"),
            LabeledRecord(1, "b", "m", "HTTP", 300, "normal"),
            LabeledRecord(2, "a", "n", "SCADA", 25, "normal"),
        ]
        fd = FeatureDictionary.build(records)
        assert fd.src_codes == {"a": 1, "b": 2}
        assert fd.dst_codes == {"m": 1, "n": 2}
        assert fd.protocol_codes == {"SCADA": 1, "HTTP": 2}

    def test_unseen_category_maps_to_zero(self):
        train = [LabeledRecord(0, "a", "m", "SCADA", 61, "normal")]
        fd = FeatureDictionary.build(train)
        row = fd.encode([LabeledRecord(5, "zz", "m", "SSH", 61, "normal")])[0]
        assert row[0] == 0.0  # unseen src
        assert row[1] == 1.0
        assert row[2] == 0.0  # unseen protocol

    def test_length_minmax_normalization(self):
        train = [
            LabeledRecord(0, "a", "m", "SCADA", 25, "normal"),
            LabeledRecord(1, "a", "m", "SCADA", 525, "normal"),
        ]
        fd = FeatureDictionary.build(train)
        rows = fd.encode(train + [LabeledRecord(2, "a", "m", "SCADA", 275, "normal")])
        assert rows[0][3] == 0.0
        assert rows[1][3] == 1.0
        assert rows[2][3] == 0.5

    def test_degenerate_length_span_encodes_zero(self):
        train = [LabeledRecord(0, "a", "m", "SCADA", 61, "normal")] * 3
        fd = FeatureDictionary.build(train)
        assert fd.encode(train)[:, 3].tolist() == [0.0, 0.0, 0.0]

    def test_dictionary_round_trips_through_dict(self):
        train = [LabeledRecord(0, "a", "m", "SCADA", 61, "normal"),
                 LabeledRecord(1, "b", "m", "HTTP", 300, "normal")]
        fd = FeatureDictionary.build(train)
        clone = FeatureDictionary.from_dict(fd.to_dict())
        assert (clone.encode(train) == fd.encode(train)).all()


class TestCsv:
    def dataset(self):
        records = [
            LabeledRecord(100, "10.0.0.11", "10.0.0.10", "SCADA", 61, "normal"),
            LabeledRecord(2000, "10.0.0.66", "10.0.0.11", "SCAN_PROBE", 60, "attack", "S1"),
        ]
        return LabeledDataset.from_records(records, "3", 42)

    def test_round_trip_identity_of_records_split_and_balance(self, tmp_path):
        ds = self.dataset()
        path = tmp_path / "ds.csv"
        export_csv(ds, str(path))
        back = import_csv(str(path))
        assert back.records == ds.records
        assert back.train_ranges == ds.train_ranges
        assert back.test_ranges == ds.test_ranges
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
