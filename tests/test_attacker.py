import hashlib

import pytest

from scadasim.attacker import ActionRecord, AttackGoal, AttackerComponent
from scadasim.config import AttackerSection
from scadasim.engine import Engine
from scadasim.network import IctTopology, NetLink, NetNode, NetworkFabric, SpanConfig
from scadasim.vulnhost import PROBE_LEN, HostService, RceVuln, SimHost


class FakeRtu:
    """Records the compromise hooks; like RtuApp, a DoS silences its host."""

    def __init__(self, host):
        self.host = host
        self.stopped = False
        self.transform = None

    def apply_dos(self):
        self.stopped = True
        self.host.silenced = True

    def apply_manipulate(self, transform):
        self.transform = transform


RTU_SERVICES = {
    22: HostService(22, "SSH", banner="openssh"),
    23: HostService(23, "TELNET", banner="telnetd"),
    80: HostService(80, "HTTP", banner="nginx", rce=RceVuln("cmd_param", "www-data")),
}


def rig(goal=None, port_set=None, address_range=None, skip_after=None,
        rtu_pe=("suid_binary",), extra_hosts=(), rtu_services=RTU_SERVICES,
        rtu_latency_ms=1, probe_timeout_ms=10, enforce_dos=False):
    nodes = [
        NetNode("attacker", "host", "10.0.0.66"),
        NetNode("sw", "switch"),
        NetNode("rtu1-host", "host", "10.0.0.11"),
        NetNode("mtu-host", "host", "10.0.0.10"),
    ]
    links = [
        NetLink("l-att", "attacker", "sw"),
        NetLink("l-rtu", "rtu1-host", "sw", latency_ms=rtu_latency_ms),
        NetLink("l-mtu", "mtu-host", "sw"),
    ]
    for i, (node_id, address) in enumerate(extra_hosts):
        nodes.append(NetNode(node_id, "host", address))
        links.append(NetLink(f"l-x{i}", node_id, "sw"))
    topo = IctTopology(nodes=nodes, links=links)
    engine = Engine()
    fabric = NetworkFabric(topo, engine, 11)
    rtu_host = SimHost("rtu1-host", "10.0.0.11", rtu_services, frozenset(rtu_pe))
    rtu = FakeRtu(rtu_host)
    rtu_host.scada_app = rtu
    mtu_host = SimHost("mtu-host", "10.0.0.10", {}, frozenset())
    fabric.register_app("rtu1-host", rtu_host)
    fabric.register_app("mtu-host", mtu_host)
    for node_id, address in extra_hosts:
        fabric.register_app(node_id, SimHost(node_id, address, {}, frozenset()))
    section = AttackerSection(
        host="attacker",
        goal=goal or AttackGoal(kind="dos"),
        address_range=address_range or ["10.0.0.10", "10.0.0.11", "10.0.0.50"],
        port_set=port_set or [21, 22, 23, 80, 443],
        probe_timeout_ms=probe_timeout_ms,
        skip_unreachable_after=skip_after,
        enforce_dos=enforce_dos,
    )
    attacker = AttackerComponent(engine, fabric, section, "10.0.0.66", attack_start=0)
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

    @pytest.mark.xfail(strict=True, reason=(
        "open FOUND in CHANGES.md: the scan_host row of an address is logged before "
        "replies to its last probes arrive, so it under-reports open ports; the fix "
        "changes attacker_actions.csv bytes (ROADMAP item 9(b))"))
    def test_scan_host_row_lists_every_discovered_port(self):
        engine, fabric, attacker, _, _ = rig()
        engine.run(120_000)
        summaries = {r.target: r.outcome for r in attacker.state.action_log if r.action == "scan_host"}
        assert sorted(p for p, _ in attacker.state.discovered["10.0.0.11"]) == [22, 23, 80]
        assert summaries["10.0.0.11"] == "open:22,23,80"

    def test_host_behind_down_link_is_absent_from_discovered(self):
        engine, fabric, attacker, _, _ = rig()
        fabric.set_link_state("l-rtu", False)
        engine.run(120_000)
        assert "10.0.0.11" not in attacker.state.discovered
        assert "10.0.0.11" not in attacker.state.reachable

    def test_fresh_state_plans_a_probe_first(self):
        engine, fabric, attacker, _, _ = rig()
        sent = []
        send = fabric.send_app_message
        fabric.send_app_message = lambda *args: sent.append(args) or send(*args)
        engine.run(0)  # the start event only
        assert sent == [("attacker", "10.0.0.10", "SCAN_PROBE", PROBE_LEN,
                         {"type": "probe", "port": 21})]
        assert attacker.probes_sent == 1
        assert attacker.state.stage == "S1_scan"


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
        assert session.protocol == "HTTP"
        rce = [r.outcome for r in attacker.state.action_log if r.action == "rce_attempt"]
        assert rce[-1] == "session user=www-data"

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
        engine, fabric, attacker, rtu_host, rtu = rig(enforce_dos=True)
        engine.run(60_000)
        enforce = [r for r in attacker.state.action_log if r.action == "enforce_dos"]
        assert len(enforce) >= 10  # roughly one per step after impact
        assert attacker.state.stage == "S4_impact"  # stays in impact while enforcing

    def test_no_keep_down_stream_when_every_impact_was_rejected(self):
        engine, fabric, attacker, rtu_host, rtu = rig(enforce_dos=True)
        rtu_host.scada_app = None  # the stop command finds no service to stop
        engine.trace_lines = []
        engine.run(60_000)
        assert [outcome for _, _, outcome in attacker.state.impact] == ["rejected"]
        assert not any(line.endswith(",attacker,enforce") for line in engine.trace_lines)
        assert attacker.state.stage == "done"  # as without enforce_dos


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


def flap_campaign(rtu_pe, down_at, enforce_dos):
    """Action log and engine trace of a rig campaign in which l-rtu is down for 150 ms."""
    engine, fabric, attacker, _, _ = rig(rtu_pe=rtu_pe, enforce_dos=enforce_dos)
    engine.trace_lines = []
    engine.schedule(down_at, "net", "set_link_state", ("l-rtu", False))
    engine.schedule(down_at + 150, "net", "set_link_state", ("l-rtu", True))
    engine.run(5_000)
    return attacker.export_action_log(), engine.trace_lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (PE paths, ms at which l-rtu goes down, enforce_dos) -> sha256 of the action
# log and of the engine trace. Each flap loses the request or the reply of one
# exchange in flight, so between them every exchange kind times out at least
# once; the last campaign pins the DoS enforce stream.
PINNED_FLAP_CAMPAIGNS = {
    (("suid_binary",), 45, False): (
        "46031c7c584e67505ee9f28a0112ef77ce2bd2ca38a6f4e00f220e176253bb2d",
        "86b5efe842d155204c931e24f781a96b3ebe0bede48f49b61d2bbdd71e3e4b8d"),
    (("suid_binary",), 53, False): (
        "fd9daa0453ff7e04d1ee0a35c93067c85cc2fd06971cd68dfc32bbeb5a7004c5",
        "ed0288b3af45beace9d0f50316ea4a7a9785ee5f9ca0aae8744499e8f17e7297"),
    (("suid_binary",), 81, False): (
        "d22ed1d774d053920e4e1406538701e20f32a2a3ce0ee9ffff4d49a4895ceb0e",
        "26d4382f7649fd6bcd4e1cfbdf0a6d854a4b9fc33ab09bb7f3ccc6d193141f0f"),
    (("suid_binary",), 91, False): (
        "e12f9b94266e6a9b5108f71a049a03ebda41810951ebff6440b92dd155dd5349",
        "42937a4e4e22a681481e069d8a5943f8200503ab557a19491bd73a95b14dd8b3"),
    (("sudoers_script",), 103, False): (
        "039143b541cff0ce3223206dd29419db20da69684102d7bec73d4f4f64806152",
        "ec6d4201a2409679dda8557abbd0098facc7607e352df64116b0f87aa6853bf8"),
    (("suid_binary",), 101, False): (
        "e39356d6c41f75a26f71a565f00575524e08661280ba92cbe18772f16d5e2684",
        "49d701f3141c28948241ee733984c51e982bd9dbb0bea7d369ee2560b9d61062"),
    (("suid_binary",), 2000, True): (
        "d8a5d96c8cd9c73efc2c7dd2cb6e36a54ad14fa4c1ac0361f14f45921e29a0b6",
        "739ef5f6c7a389d532f362aea2ee88eb8b52de08245a2bb4336cdab19f8d4074"),
}


class TestTimeouts:
    @pytest.mark.parametrize("campaign", list(PINNED_FLAP_CAMPAIGNS))
    def test_link_flap_campaign_is_pinned(self, campaign):
        log, trace = flap_campaign(*campaign)
        assert (digest(log), digest(trace)) == PINNED_FLAP_CAMPAIGNS[campaign]

    def test_flap_campaigns_time_out_every_exchange_kind(self):
        kinds = set()
        for campaign in PINNED_FLAP_CAMPAIGNS:
            log, _ = flap_campaign(*campaign)
            kinds |= {line.split(",")[2] for line in log if line.endswith(",timeout")}
        assert kinds == {"rce_attempt", "login_hello", "login_auth",
                         "whoami_check", "pe_attempt", "impact"}

    def test_reply_after_its_timeout_is_ignored(self):
        # a 60 ms RTU link makes every reply come after the 100 ms exchange timeout
        engine, fabric, attacker, _, rtu = rig(rtu_latency_ms=60, probe_timeout_ms=300)
        engine.run(120_000)
        timeouts = [(r.action, r.target) for r in attacker.state.action_log
                    if r.outcome == "timeout"]
        assert timeouts == [("login_hello", "10.0.0.11:22"), ("login_hello", "10.0.0.11:23"),
                            ("rce_attempt", "10.0.0.11:80")]
        assert attacker.state.sessions == {}
        assert attacker.state.stage == "failed"
        assert rtu.stopped is False
