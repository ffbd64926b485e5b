"""Simulated host services and vulnerability semantics.

Services answer probes and application requests with protocol-typical packet
sizes; RCE is reduced to "the right request yields a command session", either
via an exploitable command parameter (web) or known credentials (SSH/Telnet).
Privilege escalation succeeds only through a configured path (SUID binary or
sudoers script). Exploit success is deterministic given the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

from .network import NetworkFabric, Packet

PePath = Literal["suid_binary", "sudoers_script"]
PE_METHODS = get_args(PePath)

PROBE_LEN = 60
REFUSAL_LEN = 54
BANNER_LEN = 60
HTTP_REQUEST_LEN = 300
HTTP_RESPONSE_LEN = 500
LOGIN_LENS = {
    "SSH": (160, 180, 140, 120),
    "TELNET": (110, 130, 100, 120),
}
SESSION_CMD_LENS = {"HTTP": (300, 500), "SSH": (120, 160), "TELNET": (110, 150)}
KEEPALIVE_LENS = {"SSH": (160, 120), "TELNET": (110, 100)}


@dataclass(frozen=True)
class RceVuln:
    method: Literal["cmd_param", "known_credentials"]
    executing_user: Literal["www-data", "operator", "root"]


@dataclass(frozen=True)
class HostService:
    port: int = field(metadata={"lo": 1, "hi": 65535})  # the loader's bounds
    protocol: Literal["SCADA", "HTTP", "SSH", "TELNET", "SCAN_PROBE", "OTHER"]
    banner: str = ""
    rce: RceVuln | None = None


@dataclass
class Session:
    session_id: str
    user: str


class SimHost:
    """Application handler for one host node: services, sessions, PE paths."""

    def __init__(
        self,
        node_id: str,
        address: str,
        services: dict[int, HostService],  # port -> service
        pe_paths: frozenset[str],
    ):
        self.node_id = node_id
        self.address = address
        self.services = services
        self.pe_paths = pe_paths
        self.sessions: dict[str, Session] = {}
        self.silenced = False  # the DoS, set by RtuApp.apply_dos: a silenced host emits nothing
        self._session_counter = 0
        self.scada_app = None  # RtuApp or MtuApp, set by scenario wiring

    # -- inbound -------------------------------------------------------------

    def on_packet(self, fabric: NetworkFabric, packet: Packet) -> None:
        """Answer one request, unless the host is silenced.

        A request to a port looks its service up once: a probe of a port with
        no service gets a "closed" reply, any other request to it a refusal.
        Telemetry goes to the SCADA app, a session command to its session, and
        anything else, such as a reply to the ops host, is dropped.
        """
        if self.silenced:
            return
        payload = packet.payload
        kind = payload["type"]
        on_service = _ON_SERVICE.get(kind)
        if on_service is not None:
            port = payload["port"]
            svc = self.services.get(port)
            if svc is not None:
                on_service(self, fabric, packet, port, svc)
            elif kind == "probe":
                self._reply(fabric, packet, "OTHER", REFUSAL_LEN,
                            {"type": "probe_reply", "port": port, "state": "closed"})
            else:
                self._refuse(fabric, packet, port)
        elif kind in ("telemetry_report", "telemetry_ack", "interrogation"):
            if self.scada_app is not None:
                self.scada_app.on_telemetry(fabric, packet)
        elif kind == "session_cmd":
            self._on_session_cmd(fabric, packet)

    def _reply(self, fabric, packet, protocol, length, payload) -> None:
        # Deliberately not guarded by `silenced`: the confirmation of the very
        # command that silenced the host still goes out; everything after is
        # cut off at the on_packet entry guard. The request's attempt id, if it
        # carries one, is echoed so the sender can match the reply to it.
        if "attempt" in packet.payload:
            payload["attempt"] = packet.payload["attempt"]
        fabric.send_app_message(self.node_id, packet.src, protocol, length, payload)

    def _refuse(self, fabric, packet, port: int) -> None:
        self._reply(
            fabric, packet, "OTHER", REFUSAL_LEN, {"type": "refused", "port": port}
        )

    # -- requests to a port with a service: (fabric, packet, port, service) --------

    def _on_probe(self, fabric, packet, port, svc) -> None:
        self._reply(
            fabric, packet, svc.protocol, BANNER_LEN,
            {"type": "probe_reply", "port": port, "state": "open",
             "service": svc.protocol, "banner": svc.banner},
        )

    def _on_http_get(self, fabric, packet, port, svc) -> None:
        if svc.protocol != "HTTP":
            self._refuse(fabric, packet, port)
            return
        self._reply(
            fabric, packet, "HTTP", HTTP_RESPONSE_LEN,
            {"type": "http_response", "status": 200, "port": port},
        )

    def _on_keepalive(self, fabric, packet, port, svc) -> None:
        if svc.protocol not in KEEPALIVE_LENS:
            self._refuse(fabric, packet, port)
            return
        self._reply(
            fabric, packet, svc.protocol, KEEPALIVE_LENS[svc.protocol][1],
            {"type": "keepalive_ack", "port": port},
        )

    # -- remote code execution paths ------------------------------------------

    def _on_rce_attempt(self, fabric, packet, port, svc) -> None:
        """Command-parameter exploit against a web service, single exchange."""
        if svc.rce is None or svc.rce.method != "cmd_param":
            self._reply(
                fabric, packet, svc.protocol, HTTP_RESPONSE_LEN,
                {"type": "rce_result", "ok": False, "port": port, "error": "not exploitable"},
            )
            return
        session = self._open_session(svc)
        output = self.exec_command(session, packet.payload["command"])
        self._reply(
            fabric, packet, svc.protocol, HTTP_RESPONSE_LEN,
            {"type": "rce_result", "ok": True, "port": port,
             "session": session.session_id, "output": output},
        )

    def _on_login_hello(self, fabric, packet, port, svc) -> None:
        lens = LOGIN_LENS.get(svc.protocol)
        if lens is None:
            self._reply(
                fabric, packet, svc.protocol, REFUSAL_LEN,
                {"type": "login_challenge", "ok": False, "port": port},
            )
            return
        self._reply(
            fabric, packet, svc.protocol, lens[1],
            {"type": "login_challenge", "ok": True, "port": port},
        )

    def _on_login_auth(self, fabric, packet, port, svc) -> None:
        # sent only after an ok challenge, so the protocol has login lengths
        lens = LOGIN_LENS[svc.protocol]
        if svc.rce is None or svc.rce.method != "known_credentials":
            self._reply(
                fabric, packet, svc.protocol, lens[3],
                {"type": "login_result", "ok": False, "port": port, "error": "auth failed"},
            )
            return
        session = self._open_session(svc)
        self._reply(
            fabric, packet, svc.protocol, lens[3],
            {"type": "login_result", "ok": True, "port": port,
             "session": session.session_id, "output": session.user},
        )

    def _open_session(self, svc: HostService) -> Session:
        self._session_counter += 1
        session = Session(f"{self.node_id}-s{self._session_counter}", svc.rce.executing_user)
        self.sessions[session.session_id] = session
        return session

    # -- command execution inside a session ------------------------------------

    def _on_session_cmd(self, fabric, packet) -> None:
        payload = packet.payload
        sid = payload["session"]
        session = self.sessions.get(sid)
        proto = payload["protocol"]
        out_len = SESSION_CMD_LENS[proto][1]
        if session is None:
            self._reply(
                fabric, packet, proto, out_len,
                {"type": "cmd_output", "ok": False, "error": "session closed"},
            )
            return
        output = self.exec_command(session, payload["command"])
        self._reply(
            fabric, packet, proto, out_len,
            {"type": "cmd_output", "ok": True, "session": sid, "output": output},
        )

    def exec_command(self, session: Session, command: str) -> str:
        """Interpret the small fixed command set; deterministic output."""
        parts = command.split()
        if not parts:
            return "error: empty command"
        name = parts[0]
        if name == "whoami":
            return session.user
        if name == "escalate":
            method = parts[1] if len(parts) > 1 else ""
            return self.escalate(session, method)
        if name == "stop_service":
            return self._compromise_dos(session)
        if name == "spoof":
            return self._compromise_manipulate(session, parts[1:])
        return f"error: unknown command {name!r}"

    def escalate(self, session: Session, method: str) -> str:
        """Try one PE path; the session user only ever moves up to root."""
        if session.user == "root" or method in self.pe_paths:
            session.user = "root"
            return "root"
        return "denied"

    # -- compromise hooks (root required) ---------------------------------------

    def _compromise_dos(self, session: Session) -> str:
        if session.user != "root":
            return "permission denied"
        if self.scada_app is None or not hasattr(self.scada_app, "apply_dos"):
            return "error: no telemetry service"
        self.scada_app.apply_dos()
        return "service stopped"

    def _compromise_manipulate(self, session: Session, args: list[str]) -> str:
        if session.user != "root":
            return "permission denied"
        if self.scada_app is None or not hasattr(self.scada_app, "apply_manipulate"):
            return "error: no telemetry service"
        # args like  P_kW=0.5,0  quantity=scale,offset
        transform: dict[str, tuple[float, float]] = {}
        for arg in args:
            quantity, _, rest = arg.partition("=")
            scale_s, _, offset_s = rest.partition(",")
            transform[quantity] = (float(scale_s), float(offset_s or 0.0))
        self.scada_app.apply_manipulate(transform)
        return "spoofing active"


# request kind -> its handler, for the requests addressed to one port's service
_ON_SERVICE = {
    "probe": SimHost._on_probe,
    "http_get": SimHost._on_http_get,
    "keepalive": SimHost._on_keepalive,
    "rce_attempt": SimHost._on_rce_attempt,
    "login_hello": SimHost._on_login_hello,
    "login_auth": SimHost._on_login_auth,
}
