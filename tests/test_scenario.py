import gc
import json

import pytest
import yaml

from scadasim.capture import check_balance, export_csv
from scadasim.config import load_config_dict
from scadasim.engine import Engine, SimulationError
from scadasim.scenario import fixture_text, load_fixture, run_scenario, write_artifacts


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
        truth_at = dict(result.grid.history)
        for step, station, point, quantity, value, stale in result.mtu.history:
            if station != "rtu1" or step <= impact_step:
                continue
            truth = truth_at.get(step)
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
        truth_at = dict(result.grid.history)
        for step, station, point, quantity, value, stale in result.mtu.history:
            # values reported at step s surface in the table snapshot of step s
            if not 1 <= step < attack_start:
                continue
            truth = truth_at.get(step)
            true_value = {
                "transformer_loading_percent": truth.transformer_loading_percent,
                "P_kW": truth.transformer_p_kw,
                "Q_kvar": truth.transformer_q_kvar,
            }[quantity]
            assert value == true_value
            checked += 1
        assert checked > 50

    def test_every_attacker_packet_is_attack_labeled(self, reference_result):
        records = reference_result.dataset.records
        assert len(records) == reference_result.fabric.mirrored_count
        attacker_address = reference_result.attacker.address
        assert attacker_address == "10.0.0.66"
        attacker_records = [r for r in records if r.src == attacker_address]
        assert attacker_records
        for rec in attacker_records:
            assert rec.label == "attack" and rec.stage is not None

    def test_only_rtu1_carries_a_manipulation_effect(self, reference_result):
        rtus = reference_result.rtus
        assert rtus["rtu1"].transform is not None
        assert [name for name, rtu in rtus.items() if rtu.transform is not None] == ["rtu1"]


class TestRtuStagger:
    def test_second_rtu_reports_10_ms_after_the_first(self):
        raw = yaml.safe_load(fixture_text("reference"))
        raw["scada"]["rtus"].append(dict(raw["scada"]["rtus"][0], station="rtu2", host="ops-host"))
        result = run_scenario(load_config_dict(raw), seed=1, trace=True)
        # trace rows as trace.csv holds them: step,offset_ms,seq,target,kind
        offsets = {}
        for line in result.trace_lines:
            _, offset_ms, _, target, kind = line.split(",")
            if kind == "report":
                offsets.setdefault(target, set()).add(int(offset_ms))
        assert offsets == {"rtu:rtu1": {20}, "rtu:rtu2": {30}}
        assert {station for _, station, *_ in result.mtu.history} == {"rtu1", "rtu2"}


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

    def test_every_event_reaches_its_handler_with_trace_on_and_off(self, monkeypatch):
        calls = 0
        register = Engine.register

        def counting_register(engine, target, handler):
            def counted(*args):
                nonlocal calls
                calls += 1
                return handler(*args)
            register(engine, target, counted)

        monkeypatch.setattr(Engine, "register", counting_register)
        runs = {}
        for trace in (True, False):
            calls = 0
            result = run_scenario(load_fixture("reference"), seed=1, trace=trace)
            runs[trace] = (result, calls)
        traced, traced_calls = runs[True]
        untraced, untraced_calls = runs[False]
        assert traced_calls == traced.events_processed == len(traced.trace_lines)
        assert untraced_calls == untraced.events_processed == traced.events_processed
        assert untraced.dataset.records == traced.dataset.records
        assert untraced.run_summary() == traced.run_summary()
        assert untraced.attacker.export_action_log() == traced.attacker.export_action_log()

    def test_different_seed_changes_measurement_values(self):
        config = load_fixture("reference")
        a = run_scenario(config, seed=1)
        b = run_scenario(load_fixture("reference"), seed=2)
        va = [v for _, _, _, _, v, _ in a.mtu.history]
        vb = [v for _, _, _, _, v, _ in b.mtu.history]
        assert va != vb


class TestCyclicCollector:
    """A run goes with CPython's cyclic collector off. That is sound because a
    run makes no cyclic garbage, and the caller's setting is kept."""

    @pytest.mark.parametrize("scenario, seed", [("reference", 1), (4, 0)])
    def test_a_run_makes_no_cyclic_garbage(self, scenario, seed):
        config = load_fixture(scenario)
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(config, seed=seed)
            # while the result is held, nothing the run made is unreachable
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert result.dataset.records

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_leaves_the_collector_as_it_found_it(self, monkeypatch, enabled):
        seen = []
        run = Engine.run

        def watched_run(engine, until_ms):
            seen.append(gc.isenabled())
            return run(engine, until_ms)

        monkeypatch.setattr(Engine, "run", watched_run)
        config = load_fixture("reference")
        (gc.enable if enabled else gc.disable)()
        try:
            run_scenario(config, seed=1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert len(seen) >= 3 and not any(seen)

    def test_a_failed_run_leaves_the_collector_enabled(self, monkeypatch):
        def failing_run(engine, until_ms):
            raise SimulationError("no component registered for event ghost/boo")

        monkeypatch.setattr(Engine, "run", failing_run)
        config = load_fixture("reference")
        gc.enable()
        with pytest.raises(SimulationError, match="ghost/boo"):
            run_scenario(config, seed=1)
        assert gc.isenabled()


class TestCounts:
    def test_counts_agree_with_the_files_of_a_traced_run(self, tmp_path):
        sim = run_scenario(load_fixture("reference"), seed=1, trace=True)
        write_artifacts(sim, str(tmp_path))
        counts = sim.counts()

        def rows(name):
            # the lines of a file after its header
            return len((tmp_path / name).read_text(encoding="utf-8").splitlines()) - 1

        assert counts["records"] == rows("dataset.csv")
        assert counts["events"] == rows("trace.csv")
        assert counts["attacker_actions"] == rows("attacker_actions.csv")
        assert counts["mirrored"] == counts["records"]
        assert counts["solves"] == sim.final_step + 1
        summary = json.loads((tmp_path / "run_summary.json").read_text(encoding="utf-8"))
        assert counts["stale_solves"] == summary["stale_solves"]
        assert counts["out_of_order_frames"] == summary["out_of_order_frames"]


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


class TestBalance:
    def test_fixture_run_passes_its_balance_check(self):
        # what `simulate` does: run the fixture, then check its attack share
        config = load_fixture(4)
        ds = run_scenario(config, seed=2).dataset
        check_balance(config.scenario_id, config.capture.balance_target, ds)
        assert abs(ds.balance[0] - 72.80) <= 3.0
