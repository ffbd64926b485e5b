import pytest
import yaml

from scadasim.config import ConfigError, load_config_dict
from scadasim.engine import Engine
from scadasim.network import IctTopology, NetLink, NetNode, NetworkFabric
from scadasim.powergrid import RtuBinding
from scadasim.scada import RtuApp
from scadasim.scenario import fixture_text
from scadasim.vulnhost import (
    BANNER_LEN,
    HostService,
    RceVuln,
    REFUSAL_LEN,
    Session,
    SimHost,
)


class Probe:
    """Minimal client app collecting every response."""

    def __init__(self):
        self.responses = []

    def on_packet(self, fabric, packet):
        self.responses.append(packet)


def rig(services=None, pe_paths=frozenset()):
    topo = IctTopology(
        nodes=[
            NetNode("client", "host", "10.0.0.99"),
            NetNode("sw", "switch"),
            NetNode("srv", "host", "10.0.0.11"),
        ],
        links=[NetLink("l1", "client", "sw"), NetLink("l2", "sw", "srv")],
    )
    engine = Engine()
    fabric = NetworkFabric(topo, engine, 5)
    client = Probe()
    host = SimHost("srv", "10.0.0.11", services or {}, pe_paths)
    fabric.register_app("client", client)
    fabric.register_app("srv", host)
    return engine, fabric, client, host


def send(engine, fabric, payload, protocol="SCAN_PROBE", length=60, at_ms=0):
    engine.schedule(
        at_ms, "driver", "send",
        (payload, protocol, length),
    )


def run(engine, fabric, sends):
    def driver(eng, kind, item):
        payload, protocol, length = item
        fabric.send_app_message("client", "10.0.0.11", protocol, length, payload)

    engine.register("driver", driver)
    for i, item in enumerate(sends):
        engine.schedule(i * 50, "driver", "send", item)
    engine.run(30_000)


WEB = {80: HostService(80, "HTTP", banner="nginx", rce=RceVuln("cmd_param", "www-data"))}
SSH = {22: HostService(22, "SSH", banner="openssh", rce=RceVuln("known_credentials", "operator"))}


class TestServiceSurface:
    def test_open_port_returns_banner(self):
        engine, fabric, client, host = rig(services=WEB)
        run(engine, fabric, [({"type": "probe", "port": 80}, "SCAN_PROBE", 60)])
        assert len(client.responses) == 1
        reply = client.responses[0]
        assert reply.payload["state"] == "open"
        assert reply.payload["service"] == "HTTP"
        assert reply.protocol == "HTTP"
        assert reply.length_bytes == BANNER_LEN

    def test_closed_port_refused_with_packet_pair(self):
        engine, fabric, client, host = rig(services=WEB)
        run(engine, fabric, [({"type": "probe", "port": 8080}, "SCAN_PROBE", 60)])
        assert len(client.responses) == 1
        reply = client.responses[0]
        assert reply.payload["state"] == "closed"
        assert reply.protocol == "OTHER"
        assert reply.length_bytes == REFUSAL_LEN

    def test_cmd_param_rce_runs_whoami_as_service_user(self):
        engine, fabric, client, host = rig(services=WEB)
        run(engine, fabric, [
            ({"type": "rce_attempt", "port": 80, "method": "cmd_param", "command": "whoami"},
             "HTTP", 300),
        ])
        reply = client.responses[0]
        assert reply.payload["ok"] is True
        assert reply.payload["output"] == "www-data"
        assert reply.payload["session"] in host.sessions

    def test_rce_against_service_without_vuln_fails(self):
        services = {80: HostService(80, "HTTP", banner="nginx")}
        engine, fabric, client, host = rig(services=services)
        run(engine, fabric, [
            ({"type": "rce_attempt", "port": 80, "method": "cmd_param", "command": "whoami"},
             "HTTP", 300),
        ])
        assert client.responses[0].payload["ok"] is False
        assert host.sessions == {}

    def test_known_credentials_login_yields_operator_session(self):
        engine, fabric, client, host = rig(services=SSH)
        run(engine, fabric, [
            ({"type": "login_hello", "port": 22}, "SSH", 160),
            ({"type": "login_auth", "port": 22}, "SSH", 140),
        ])
        challenge, result = client.responses
        assert challenge.payload["ok"] is True
        assert result.payload["ok"] is True
        assert result.payload["output"] == "operator"
        session = host.sessions[result.payload["session"]]
        assert session.user == "operator"

    def test_login_without_credentials_vuln_fails(self):
        services = {22: HostService(22, "SSH", banner="openssh")}
        engine, fabric, client, host = rig(services=services)
        run(engine, fabric, [
            ({"type": "login_hello", "port": 22}, "SSH", 160),
            ({"type": "login_auth", "port": 22}, "SSH", 140),
        ])
        assert client.responses[1].payload["ok"] is False
        assert host.sessions == {}

    def test_every_attempt_produces_request_and_response_pair(self):
        engine, fabric, client, host = rig(services=WEB)
        sends = [({"type": "probe", "port": p}, "SCAN_PROBE", 60) for p in (22, 80, 443)]
        run(engine, fabric, sends)
        assert len(client.responses) == 3  # one reply per probe, open or closed


class TestCommandsAndEscalation:
    def open_session(self, host, user="www-data"):
        session = Session("srv-s1", user)
        host.sessions[session.session_id] = session
        return session

    def test_whoami_and_id(self):
        _, _, _, host = rig(services=WEB, pe_paths={"suid_binary"})
        session = self.open_session(host)
        assert host.exec_command(session, "whoami") == "www-data"
        # no attacker step issues `id`
        assert host.exec_command(session, "id") == "error: unknown command 'id'"

    def test_unknown_command_keeps_session_open(self):
        _, _, _, host = rig(services=WEB)
        session = self.open_session(host)
        out = host.exec_command(session, "rm -rf /")
        assert out.startswith("error: unknown command")
        assert host.exec_command(session, "whoami") == "www-data"

    def test_unknown_session_id_is_answered_session_closed(self):
        engine, fabric, client, host = rig(services=WEB)
        self.open_session(host)
        run(engine, fabric, [
            ({"type": "session_cmd", "session": "srv-s9", "protocol": "HTTP",
              "command": "whoami"}, "HTTP", 300),
        ])
        [reply] = client.responses
        assert reply.payload == {"type": "cmd_output", "ok": False, "error": "session closed"}

    def test_escalation_via_configured_suid(self):
        _, _, _, host = rig(services=WEB, pe_paths={"suid_binary"})
        session = self.open_session(host)
        assert host.exec_command(session, "escalate suid_binary") == "root"
        assert host.exec_command(session, "whoami") == "root"

    def test_escalation_without_path_is_denied(self):
        _, _, _, host = rig(services=WEB)
        session = self.open_session(host)
        assert host.exec_command(session, "escalate suid_binary") == "denied"
        assert host.exec_command(session, "escalate sudoers_script") == "denied"
        assert session.user == "www-data"

    def test_escalation_is_idempotent_for_root(self):
        _, _, _, host = rig(services=WEB, pe_paths={"suid_binary"})
        session = self.open_session(host)
        host.exec_command(session, "escalate suid_binary")
        assert host.exec_command(session, "escalate suid_binary") == "root"

    def test_privilege_never_moves_down(self):
        _, _, _, host = rig(services=WEB, pe_paths={"suid_binary", "sudoers_script"})
        session = self.open_session(host)
        host.exec_command(session, "escalate suid_binary")
        host.exec_command(session, "escalate sudoers_script")
        assert session.user == "root"

    def test_compromise_without_root_is_rejected(self):
        _, _, _, host = rig(services=WEB)

        class FakeRtu:
            stopped = False

            def apply_dos(self):
                self.stopped = True

        host.scada_app = FakeRtu()
        session = self.open_session(host)
        assert host.exec_command(session, "stop_service") == "permission denied"
        assert host.scada_app.stopped is False

    def test_compromise_with_root_stops_service_and_silences_host(self):
        engine, fabric, _, host = rig(services=WEB, pe_paths={"suid_binary"})
        host.scada_app = RtuApp(engine, fabric, host, RtuBinding("rtu1"), "10.0.0.99",
                                grid=None, report_offset_ms=20)
        session = self.open_session(host)
        host.exec_command(session, "escalate suid_binary")
        assert host.exec_command(session, "stop_service") == "service stopped"
        assert host.silenced is True

    def test_spoof_parses_affine_transform(self):
        _, _, _, host = rig(services=WEB, pe_paths={"suid_binary"})

        class FakeRtu:
            transform = None

            def apply_manipulate(self, transform):
                self.transform = transform

        host.scada_app = FakeRtu()
        session = self.open_session(host)
        host.exec_command(session, "escalate suid_binary")
        out = host.exec_command(session, "spoof P_kW=0.5,0 Q_kvar=1.0,25")
        assert out == "spoofing active"
        assert host.scada_app.transform == {"P_kW": (0.5, 0.0), "Q_kvar": (1.0, 25.0)}


class TestConfigChecks:
    def test_bad_port_rejected(self):
        # the range is declared on HostService's field, and the loader checks it
        raw = yaml.safe_load(fixture_text("reference"))
        raw["hosts"]["rtu1-host"]["services"][0]["port"] = 0
        with pytest.raises(ConfigError) as err:
            load_config_dict(raw)
        assert err.value.errors == [
            "hosts.rtu1-host.services[0].port: must be in [1, 65535], got 0"]

    def test_silenced_host_answers_nothing(self):
        engine, fabric, client, host = rig(services=WEB)
        host.silenced = True
        run(engine, fabric, [({"type": "probe", "port": 80}, "SCAN_PROBE", 60)])
        assert client.responses == []
