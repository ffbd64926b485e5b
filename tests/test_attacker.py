import pytest

from scadasim.attacker import ActionRecord, AttackGoal, AttackerComponent
from scadasim.engine import Engine
from scadasim.network import IctTopology, NetLink, NetNode, NetworkFabric, SpanConfig
from scadasim.vulnhost import HostService, RceVuln, SimHost


class FakeRtu:
    def __init__(self):
        self.stopped = False
        self.transform = None

    def apply_dos(self):
        self.stopped = True

    def apply_manipulate(self, transform):
        self.transform = transform


RTU_SERVICES = {
    22: HostService(22, "SSH", banner="openssh"),
    23: HostService(23, "TELNET", banner="telnetd"),
    80: HostService(80, "HTTP", banner="nginx", rce=RceVuln("cmd_param", "www-data")),
}


def rig(goal=None, port_set=None, address_range=None, skip_after=None,
        rtu_pe=("suid_binary",), extra_hosts=(), rtu_services=RTU_SERVICES):
    nodes = [
        NetNode("attacker", "host", "10.0.0.66"),
        NetNode("sw", "switch"),
        NetNode("rtu1-host", "host", "10.0.0.11"),
        NetNode("mtu-host", "host", "10.0.0.10"),
    ]
    links = [
        NetLink("l-att", "attacker", "sw"),
        NetLink("l-rtu", "rtu1-host", "sw"),
        NetLink("l-mtu", "mtu-host", "sw"),
    ]
    for i, (node_id, address) in enumerate(extra_hosts):
        nodes.append(NetNode(node_id, "host", address))
        links.append(NetLink(f"l-x{i}", node_id, "sw"))
    topo = IctTopology(nodes=nodes, links=links)
    engine = Engine()
    fabric = NetworkFabric(topo, engine, 11)
    rtu_host = SimHost("rtu1-host", "10.0.0.11", services=rtu_services, pe_paths=set(rtu_pe))
    rtu = FakeRtu()
    rtu_host.scada_app = rtu
    mtu_host = SimHost("mtu-host", "10.0.0.10")
    fabric.register_app("rtu1-host", rtu_host)
    fabric.register_app("mtu-host", mtu_host)
    for node_id, address in extra_hosts:
        fabric.register_app(node_id, SimHost(node_id, address))
    attacker = AttackerComponent(
        engine,
        fabric,
        "attacker",
        "10.0.0.66",
        goal or AttackGoal(kind="dos"),
        address_range or ["10.0.0.10", "10.0.0.11", "10.0.0.50"],
        port_set or [21, 22, 23, 80, 443],
        attack_start=0,
        skip_unreachable_after=skip_after,
    )
    fabric.register_app("attacker", attacker)
    return engine, fabric, attacker, rtu_host, rtu


def stages_in_log(attacker):
    return [rec.target for rec in attacker.state.action_log if rec.action == "stage"]


class TestScan:
    def test_discovers_exactly_the_open_ports(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        assert {p for p, _ in attacker.state.discovered["10.0.0.11"]} == {22, 23, 80}
        assert attacker.state.discovered.get("10.0.0.10") is None  # reachable, nothing open
        assert "10.0.0.10" in attacker.state.reachable

    def test_protocol_guess_recorded_per_port(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        assert attacker.state.discovered["10.0.0.11"] == {(22, "SSH"), (23, "TELNET"), (80, "HTTP")}

    def test_probe_count_is_addresses_times_ports_without_short_circuit(self):
        engine, fabric, attacker, _, _ = rig(
            address_range=["10.0.0.10", "10.0.0.11"],
            port_set=list(range(1, 1025)),
        )
        engine.run(120_000)
        assert attacker.probes_sent == 2 * 1024

    def test_unreachable_short_circuit_skips_remaining_ports(self):
        engine, fabric, attacker, _, _ = rig(
            address_range=["10.0.0.50", "10.0.0.11"],
            port_set=list(range(1, 101)),
            skip_after=3,
        )
        engine.run(120_000)
        # dead address probed 3 times, live address in full
        assert attacker.probes_sent == 3 + 100
        summaries = {r.target: r.outcome for r in attacker.state.action_log if r.action == "scan_host"}
        assert summaries["10.0.0.50"] == "unreachable"

    def test_host_behind_down_link_is_absent_from_discovered(self):
        engine, fabric, attacker, _, _ = rig()
        fabric.set_link_state("l-rtu", False)
        engine.run(120_000)
        assert "10.0.0.11" not in attacker.state.discovered
        assert "10.0.0.11" not in attacker.state.reachable

    def test_fresh_state_plans_a_probe_first(self):
        engine, fabric, attacker, _, _ = rig()
        assert attacker.peek_next_action()[0] == "probe"


class TestRce:
    def test_ports_tried_ascending_first_success_wins(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        attempts = [r for r in attacker.state.action_log if r.action == "rce_attempt"]
        targets = [r.target for r in attempts]
        assert targets == ["10.0.0.11:22", "10.0.0.11:23", "10.0.0.11:80"]
        assert attempts[0].outcome.startswith("failed")
        assert attempts[1].outcome.startswith("failed")
        assert attempts[2].outcome == "session user=www-data"

    def test_session_recorded_with_user(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        session = attacker.state.sessions["10.0.0.11"]
        assert session.user in ("www-data", "root")  # root after S3
        assert session.port == 80

    def test_all_rce_failed_leads_to_failed_without_s3_s4(self):
        services = {80: HostService(80, "HTTP", banner="nginx")}  # nothing exploitable
        engine, fabric, attacker, _, rtu = rig(rtu_services=services)
        engine.run(120_000)
        assert attacker.state.stage == "failed"
        stages = {r.stage for r in attacker.state.action_log}
        assert "S3_pe" not in stages and "S4_impact" not in stages
        assert rtu.stopped is False


class TestPrivilegeEscalation:
    def test_suid_path_reaches_root(self):
        engine, fabric, attacker, rtu_host, _ = rig()
        engine.run(120_000)
        assert "10.0.0.11" in attacker.state.rooted
        checks = [r for r in attacker.state.action_log if r.action == "privilege_check"]
        assert checks[0].outcome == "whoami=www-data"
        pe = [r for r in attacker.state.action_log if r.action == "pe_attempt"]
        assert pe[0].outcome == "suid_binary: root"

    def test_no_pe_paths_logs_two_failed_attempts(self):
        engine, fabric, attacker, _, rtu = rig(rtu_pe=())
        engine.run(120_000)
        pe = [r for r in attacker.state.action_log if r.action == "pe_attempt"]
        assert [r.outcome for r in pe] == ["suid_binary: denied", "sudoers_script: denied"]
        assert attacker.state.rooted == set()
        assert attacker.state.stage == "failed"
        assert rtu.stopped is False

    def test_sudoers_fallback_after_suid_denied(self):
        engine, fabric, attacker, _, _ = rig(rtu_pe=("sudoers_script",))
        engine.run(120_000)
        pe = [r.outcome for r in attacker.state.action_log if r.action == "pe_attempt"]
        assert pe == ["suid_binary: denied", "sudoers_script: root"]
        assert "10.0.0.11" in attacker.state.rooted


class TestImpact:
    def test_dos_goal_stops_the_rtu(self):
        engine, fabric, attacker, rtu_host, rtu = rig()
        engine.run(120_000)
        assert rtu.stopped is True
        assert rtu_host.silenced is True
        assert attacker.state.impact[0][2] == "ok"

    def test_manipulate_goal_applies_spec(self):
        goal = AttackGoal(
            kind="manipulate",
            manipulation={"P_kW": (0.5, 0.0), "Q_kvar": (0.5, 0.0)},
        )
        engine, fabric, attacker, _, rtu = rig(goal=goal)
        engine.run(120_000)
        assert rtu.transform == {"P_kW": (0.5, 0.0), "Q_kvar": (0.5, 0.0)}
        assert attacker.state.stage == "done"

    def test_goal_with_specific_target_skips_other_hosts(self):
        goal = AttackGoal(kind="dos", target_addresses=("10.0.0.99",))
        engine, fabric, attacker, _, rtu = rig(goal=goal)
        engine.run(120_000)
        assert attacker.state.stage == "failed"
        assert rtu.stopped is False

    def test_stage_sequence_is_monotone_s1_to_s4(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        seen = [s for _, s in attacker.state.stage_times]
        assert seen[:4] == ["S1_scan", "S2_rce", "S3_pe", "S4_impact"]

    def test_stage_gating_no_s3_without_s2_success(self):
        # exploitable service exists only on rtu1; mtu must never see S3/S4 actions
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        for rec in attacker.state.action_log:
            if rec.action in ("privilege_check", "pe_attempt", "impact"):
                assert rec.target == "10.0.0.11"

    def test_action_log_times_are_monotone(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        times = [r.time_ms for r in attacker.state.action_log]
        assert times == sorted(times)

    def test_action_log_csv_export_shape(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        lines = attacker.export_action_log()
        assert lines[0] == "time_ms,stage,action,target,outcome"
        assert all(line.count(",") >= 4 for line in lines[1:])


class TestDosEnforcement:
    def test_enforce_stream_reissues_stop_commands(self):
        engine, fabric, attacker, rtu_host, rtu = rig()
        attacker.enforce_dos = True
        engine.run(60_000)
        enforce = [r for r in attacker.state.action_log if r.action == "enforce_dos"]
        assert len(enforce) >= 10  # roughly one per step after impact
        assert attacker.state.stage == "S4_impact"  # stays in impact while enforcing


class TestEscalationInvariant:
    def test_no_root_without_configured_pe_path_over_randomized_configs(self):
        import random as _random

        rng = _random.Random(424242)
        subsets = [(), ("suid_binary",), ("sudoers_script",), ("suid_binary", "sudoers_script")]
        for trial in range(8):
            pe = subsets[rng.randrange(len(subsets))]
            engine, fabric, attacker, _, _ = rig(rtu_pe=pe)
            engine.run(120_000)
            if pe:
                assert attacker.state.rooted == {"10.0.0.11"}
            else:
                assert attacker.state.rooted == set()
