import pytest

from scadasim.capture import export_csv
from scadasim.scenario import load_fixture, make_scenario, run_scenario


@pytest.fixture(scope="module")
def reference_result():
    return run_scenario(load_fixture("reference"), seed=7)


class TestReferenceRun:
    def test_stage_sequence_s1_to_s4(self, reference_result):
        stages = [s for _, s in reference_result.attacker.state.stage_times]
        assert stages == ["S1_scan", "S2_rce", "S3_pe", "S4_impact", "done"]

    def test_rtu1_discovery_is_exactly_22_23_80(self, reference_result):
        discovered = reference_result.attacker.state.discovered
        assert set(discovered) == {"10.0.0.11"}
        assert {p for p, _ in discovered["10.0.0.11"]} == {22, 23, 80}

    def test_session_user_is_www_data_then_root(self, reference_result):
        log = reference_result.attacker.state.action_log
        rce = [r for r in log if r.action == "rce_attempt" and "session" in r.outcome]
        assert rce[0].outcome == "session user=www-data"
        pe = [r for r in log if r.action == "pe_attempt"]
        assert pe[0].outcome == "suid_binary: root"
        assert "10.0.0.11" in reference_result.attacker.state.rooted

    def test_manipulation_diverges_mtu_from_truth(self, reference_result):
        result = reference_result
        impact_step = result.attacker.state.impact[0][1] // 1000
        diverged = 0
        for step, station, point, quantity, value, stale in result.mtu.history:
            if station != "rtu1" or step <= impact_step:
                continue
            truth = result.grid.solution_at(step)
            if truth is None:
                continue
            true_value = {
                "transformer_loading_percent": truth.transformer_loading_percent,
                "P_kW": truth.transformer_p_kw,
                "Q_kvar": truth.transformer_q_kvar,
            }[quantity]
            assert value != pytest.approx(true_value)
            assert value == pytest.approx(true_value * 0.5)
            diverged += 1
        assert diverged > 50

    def test_mtu_matches_truth_before_attack(self, reference_result):
        result = reference_result
        attack_start = result.attack_start_step
        checked = 0
        for step, station, point, quantity, value, stale in result.mtu.history:
            # values reported at step s surface in the table snapshot of step s
            if not 1 <= step < attack_start:
                continue
            truth = result.grid.solution_at(step)
            true_value = {
                "transformer_loading_percent": truth.transformer_loading_percent,
                "P_kW": truth.transformer_p_kw,
                "Q_kvar": truth.transformer_q_kvar,
            }[quantity]
            assert value == true_value
            checked += 1
        assert checked > 50

    def test_every_attacker_packet_is_attack_labeled(self, reference_result):
        snapshots = reference_result.collector.snapshots
        records = reference_result.dataset.records
        assert len(snapshots) == len(records)
        for snap, rec in zip(snapshots, records):
            if snap.origin_actor == "attacker-host":
                assert rec.label == "attack"

    def test_compromise_log_has_manipulation_record(self, reference_result):
        log = reference_result.compromise_log
        assert len(log) == 1
        assert log[0].station == "rtu1"
        assert log[0].effect.kind == "manipulate"


class TestDeterminism:
    def test_identical_seed_gives_identical_dataset_and_trace(self, tmp_path):
        config = load_fixture("reference")
        a = run_scenario(config, seed=3, trace=True)
        b = run_scenario(load_fixture("reference"), seed=3, trace=True)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(a.dataset, str(pa))
        export_csv(b.dataset, str(pb))
        assert pa.read_bytes() == pb.read_bytes()
        assert a.trace_lines == b.trace_lines
        assert a.events_processed == b.events_processed

    def test_different_seed_changes_measurement_values(self):
        config = load_fixture("reference")
        a = run_scenario(config, seed=1)
        b = run_scenario(load_fixture("reference"), seed=2)
        va = [v for _, _, _, _, v, _ in a.mtu.history]
        vb = [v for _, _, _, _, v, _ in b.mtu.history]
        assert va != vb


class TestScenarioShapes:
    def test_dos_scenario_attack_records_cover_stages(self):
        result = run_scenario(load_fixture(1), seed=1)
        stages = {r.stage for r in result.dataset.records if r.label == "attack"}
        assert stages == {"S1", "S2", "S3", "S4"}

    def test_manipulation_scenario_has_s4_reports(self):
        result = run_scenario(load_fixture(4), seed=1)
        s4_reports = [
            r for r in result.dataset.records
            if r.stage == "S4" and r.src == "10.0.0.11" and r.protocol == "SCADA"
        ]
        assert len(s4_reports) >= 3

    def test_warmup_slice_is_attack_free_and_large_enough_for_lof(self):
        result = run_scenario(load_fixture(1), seed=1)
        warmup = result.dataset.warmup_slice()
        assert len(warmup) > 20
        assert all(r.label == "normal" for r in warmup)


class TestMakeScenario:
    def test_make_scenario_checks_balance_and_returns_dataset(self):
        ds = make_scenario(4, seed=2)
        assert ds.scenario_id == "4"
        assert abs(ds.balance[0] - 72.80) <= 3.0

    def test_make_scenario_rejects_bad_id(self):
        with pytest.raises(ValueError, match="1..6"):
            make_scenario(9, seed=0)
