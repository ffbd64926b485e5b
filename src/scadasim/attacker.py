"""Four-stage attacker: scan, remote code execution, privilege escalation, impact.

The attacker is one procedure, the generator ``AttackerComponent._campaign``,
which reads top to bottom as the attack: scan, RCE, PE, impact and, for a DoS
goal with ``enforce_dos`` and at least one successful impact, the keep-down
stream. It yields either a wait (an event kind and its due time in ms) or an
``Exchange`` (a request that expects one reply). A small driver in ``handle``
and ``on_packet`` schedules the waits, sends the requests and resumes the
generator with the reply payload, or with ``None`` when the reply does not
come in time. All emitted packets carry the attacker's address as their
source, which is what the labeling stage keys on.

Attack timing:

- scan probes are ``probe_pacing_ms`` apart and do not wait for replies;
- after ``skip_unreachable_after`` unanswered probes to one address the scan
  waits ``probe_timeout_ms`` once more and moves on if still nothing came back;
- the scan ends ``probe_timeout_ms`` after the last probe;
- every other request waits up to ``RESPONSE_TIMEOUT_MS`` (100 ms) for its
  reply; replies are matched to their request by an attempt id the host
  echoes, so a reply that comes after its timeout is ignored;
- the next action comes ``probe_pacing_ms`` after a reply, but at once after a
  timeout;
- the DoS enforce stream fires ``ENFORCE_OFFSET_MS`` (500 ms) into each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

from .engine import MS_PER_STEP, Engine
from .network import NetworkFabric, Packet
from .powergrid import Quantity
from .vulnhost import HTTP_REQUEST_LEN, LOGIN_LENS, PE_METHODS, PROBE_LEN, SESSION_CMD_LENS

RESPONSE_TIMEOUT_MS = 100
ENFORCE_OFFSET_MS = 500


@dataclass(frozen=True)
class AttackGoal:
    kind: Literal["dos", "manipulate"]
    target_addresses: tuple[str, ...] | None = None  # None: any compromised RTU
    manipulation: dict[Quantity, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.kind == "manipulate" and not self.manipulation:
            raise ValueError("manipulate goal requires a manipulation spec")
        if self.kind == "dos" and self.manipulation:
            raise ValueError("dos goal carries no manipulation spec")

    def matches(self, address: str) -> bool:
        return self.target_addresses is None or address in self.target_addresses


@dataclass
class ActionRecord:
    time_ms: int
    stage: str
    action: str
    target: str
    outcome: str


@dataclass
class SessionInfo:
    address: str
    session_id: str
    protocol: str


@dataclass
class AttackerState:
    stage: str = "idle"
    discovered: dict[str, set[tuple[int, str]]] = field(default_factory=dict)
    reachable: set[str] = field(default_factory=set)
    sessions: dict[str, SessionInfo] = field(default_factory=dict)
    rooted: set[str] = field(default_factory=set)
    action_log: list[ActionRecord] = field(default_factory=list)
    stage_times: list[tuple[int, str]] = field(default_factory=list)
    impact: list[tuple[str, int, str]] = field(default_factory=list)  # (address, ms, outcome)


class Exchange(NamedTuple):
    """One request that waits for its reply; ``kind`` and ``target`` name it in the log."""

    kind: str
    target: str
    dst: str
    protocol: str
    length: int
    payload: dict


class AttackerComponent:
    """Engine target ``attacker``: the attack procedure and its packet I/O.

    ``section`` is the scenario's ``config.AttackerSection``, which holds every
    attack setting; it is not typed here because ``config`` imports this module.
    """

    def __init__(self, engine: Engine, fabric: NetworkFabric, section, address: str,
                 attack_start: int):
        self.engine = engine
        self.fabric = fabric
        self.section = section
        self.address = address
        self.address_range = [a for a in section.address_range if a != address]

        self.state = AttackerState()
        self.probes_sent = 0
        self._pending: tuple[int, Exchange] | None = None  # (attempt id, request)
        self._attempts = 0
        self._procedure = self._campaign()

        engine.register("attacker", self.handle)
        engine.schedule(attack_start, "attacker", "start")

    # -- logging helpers ----------------------------------------------------

    def _log(self, action: str, target: str, outcome: str) -> None:
        self.state.action_log.append(
            ActionRecord(self.engine.now, self.state.stage, action, target, outcome)
        )

    def _enter(self, stage: str) -> None:
        self.state.stage = stage
        self.state.stage_times.append((self.engine.now, stage))
        self._log("stage", stage, "entered")

    # -- the attack procedure --------------------------------------------------

    def _campaign(self):
        state = self.state
        section = self.section
        gate = section.skip_unreachable_after  # None or 0: never skip

        self._enter("S1_scan")
        for addr in self.address_range:
            probes = 0
            gate_passed = False
            for port in section.port_set:
                if gate and not gate_passed and probes >= gate:
                    if addr not in state.reachable:  # no reply to any probe yet
                        yield "gate_check", self.engine.now + section.probe_timeout_ms
                        if addr not in state.reachable:
                            break
                    gate_passed = True
                self._send(addr, "SCAN_PROBE", PROBE_LEN, {"type": "probe", "port": port})
                self.probes_sent += 1
                probes += 1
                yield "scan_next", self.engine.now + section.probe_pacing_ms
            if probes:
                self._log("scan_host", addr, self._scan_outcome(addr))
        yield "scan_done", self.engine.now + section.probe_timeout_ms

        plan = [(addr, port, protocol) for addr in self.address_range
                for port, protocol in sorted(state.discovered.get(addr, ()))]
        self._enter("S2_rce")
        for addr, port, protocol in plan:
            if addr in state.sessions:
                continue  # first success per host wins
            target = f"{addr}:{port}"
            if protocol == "HTTP":
                reply = yield Exchange(
                    "rce_attempt", target, addr, "HTTP", HTTP_REQUEST_LEN,
                    {"type": "rce_attempt", "port": port, "method": "cmd_param", "command": "whoami"},
                )
                refusal = "refused"
            elif protocol in LOGIN_LENS:
                lens = LOGIN_LENS[protocol]
                reply = yield Exchange("login_hello", target, addr, protocol, lens[0],
                                       {"type": "login_hello", "port": port})
                if reply is None:
                    continue
                if not reply.get("ok"):
                    self._log("rce_attempt", target, "failed: no login service")
                    yield self._pause()
                    continue
                reply = yield Exchange("login_auth", target, addr, protocol, lens[2],
                                       {"type": "login_auth", "port": port})
                refusal = "auth failed"
            else:
                self._log("rce_attempt", target, f"skipped: no exploit for {protocol}")
                continue
            if reply is None:
                continue
            if reply.get("ok"):
                state.sessions[addr] = SessionInfo(addr, reply["session"], protocol)
                self._log("rce_attempt", target, f"session user={reply['output']}")
            else:
                self._log("rce_attempt", target, f"failed: {reply.get('error', refusal)}")
            yield self._pause()
        if not state.sessions:
            self._enter("failed")
            self._log("abort", "-", "no RCE succeeded")
            return

        self._enter("S3_pe")
        for addr, session in list(state.sessions.items()):
            reply = yield self._session_cmd("whoami_check", session, "whoami")
            if reply is None:
                continue  # a dead host must not stall the stage
            user = reply.get("output", "?")
            self._log("privilege_check", addr, f"whoami={user}")
            if user == "root":
                state.rooted.add(addr)
            yield self._pause()
            for method in PE_METHODS if user != "root" else ():
                reply = yield self._session_cmd("pe_attempt", session, f"escalate {method}")
                if reply is None:
                    break
                if reply.get("output", "?") == "root":
                    state.rooted.add(addr)
                    self._log("pe_attempt", addr, f"{method}: root")
                    yield self._pause()
                    break
                self._log("pe_attempt", addr, f"{method}: denied")
                yield self._pause()

        self._enter("S4_impact")
        hosts = [a for a in state.sessions if section.goal.matches(a)]
        if not any(a in state.rooted for a in hosts):
            self._enter("failed")
            self._log("abort", "-", "no rooted host matches the goal")
            return
        command = self._impact_command()
        for addr in hosts:
            if addr not in state.rooted:
                self._log("impact_skipped", addr, "not rooted")
                continue
            reply = yield self._session_cmd("impact", state.sessions[addr], command)
            if reply is None:
                continue
            output = reply.get("output", "")
            ok = output in ("service stopped", "spoofing active")
            state.impact.append((addr, self.engine.now, "ok" if ok else "rejected"))
            self._log("impact", addr, output or "no output")
            yield self._pause()
        if not state.impact:
            self._enter("failed")
            self._log("abort", "-", "impact commands rejected")
            return
        targets = [a for a, _, outcome in state.impact if outcome == "ok"]
        if section.goal.kind == "dos" and section.enforce_dos and targets:
            # keep-down stream: re-issue the stop command once per step, fire and forget
            while True:
                yield "enforce", (self.engine.now // MS_PER_STEP + 1) * MS_PER_STEP + ENFORCE_OFFSET_MS
                for addr in targets:
                    request = self._session_cmd("enforce_dos", state.sessions[addr], "stop_service")
                    self._send(request.dst, request.protocol, request.length, request.payload)
                    self._log("enforce_dos", addr, "sent")
        self._enter("done")

    def _pause(self) -> tuple[str, int]:
        return "next_action", self.engine.now + self.section.probe_pacing_ms

    def _scan_outcome(self, addr: str) -> str:
        if addr not in self.state.reachable:
            return "unreachable"
        open_ports = sorted(p for p, _ in self.state.discovered.get(addr, set()))
        if open_ports:
            return "open:" + ",".join(str(p) for p in open_ports)
        return "no_open_ports"

    def _session_cmd(self, kind: str, session: SessionInfo, command: str) -> Exchange:
        return Exchange(
            kind, session.address, session.address, session.protocol,
            SESSION_CMD_LENS[session.protocol][0],
            {"type": "session_cmd", "session": session.session_id,
             "protocol": session.protocol, "command": command},
        )

    def _impact_command(self) -> str:
        goal = self.section.goal
        if goal.kind == "dos":
            return "stop_service"
        parts = [
            f"{quantity}={scale},{offset}"
            for quantity, (scale, offset) in goal.manipulation.items()
        ]
        return "spoof " + " ".join(parts)

    # -- driver: engine events and inbound packets ---------------------------------

    def _send(self, dst: str, protocol: str, length: int, payload: dict) -> None:
        self.fabric.send_app_message(self.section.host, dst, protocol, length, payload)

    def _resume(self, reply: dict | None) -> None:
        try:
            request = self._procedure.send(reply)
        except StopIteration:
            return
        if isinstance(request, Exchange):
            self._attempts += 1
            self._pending = (self._attempts, request)
            self._send(request.dst, request.protocol, request.length,
                       {**request.payload, "attempt": self._attempts})
            self.engine.schedule(self.engine.now + RESPONSE_TIMEOUT_MS, "attacker", "timeout",
                                 self._attempts)
        else:
            kind, due = request
            self.engine.schedule(due, "attacker", kind)

    def handle(self, engine: Engine, kind: str, payload) -> None:
        if kind == "timeout":
            if self._pending is None or self._pending[0] != payload:
                return  # answered in time
            request = self._pending[1]
            self._pending = None
            self._log(request.kind, request.target, "timeout")
        self._resume(None)

    def on_packet(self, fabric: NetworkFabric, packet: Packet) -> None:
        payload = packet.payload
        kind = payload["type"]
        src = packet.src
        if kind == "probe_reply" or (kind == "refused" and self.state.stage == "S1_scan"):
            self.state.reachable.add(src)
            if kind == "probe_reply" and payload["state"] == "open":
                self.state.discovered.setdefault(src, set()).add(
                    (payload["port"], payload["service"])
                )
            return
        if self._pending is None or payload.get("attempt") != self._pending[0]:
            return  # not the reply to the request in flight, e.g. one that came too late
        self._pending = None
        self._resume(payload)

    def export_action_log(self) -> list[str]:
        lines = ["time_ms,stage,action,target,outcome"]
        for rec in self.state.action_log:
            lines.append(f"{rec.time_ms},{rec.stage},{rec.action},{rec.target},{rec.outcome}")
        return lines
