"""Four-stage attacker: scan, remote code execution, privilege escalation, impact.

The attacker is a single logical actor driven by engine events, with one
outstanding request/response exchange at a time. Scan probes are paced at a
fixed interval and fired without waiting for replies; every other exchange
waits for the response (or a timeout) before the next action. All emitted
packets carry the attacker's node id as origin_actor, which is what the
labeling stage keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import MS_PER_STEP, Engine, Event
from .network import NetworkFabric, Packet
from .vulnhost import HTTP_REQUEST_LEN, LOGIN_LENS, PROBE_LEN, SESSION_CMD_LENS

STAGES = ("S1_scan", "S2_rce", "S3_pe", "S4_impact", "done", "failed")
RESPONSE_TIMEOUT_MS = 100


@dataclass(frozen=True)
class AttackGoal:
    kind: str  # dos | manipulate
    target_addresses: tuple[str, ...] | None = None  # None: any compromised RTU
    manipulation: dict[str, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.kind not in ("dos", "manipulate"):
            raise ValueError(f"unknown goal kind {self.kind!r}")
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
    port: int
    protocol: str
    user: str


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


class AttackerComponent:
    """Engine target ``attacker``: the stage machine and its packet I/O."""

    def __init__(
        self,
        engine: Engine,
        fabric: NetworkFabric,
        node_id: str,
        address: str,
        goal: AttackGoal,
        address_range: list[str],
        port_set: list[int],
        attack_start: int,
        pacing_ms: int = 2,
        probe_timeout_ms: int = 10,
        skip_unreachable_after: int | None = 3,
        enforce_dos: bool = False,
        enforce_offset_ms: int = 500,
    ):
        self.engine = engine
        self.fabric = fabric
        self.node_id = node_id
        self.address = address
        self.goal = goal
        self.address_range = [a for a in address_range if a != address]
        self.port_set = sorted(port_set)
        self.pacing_ms = pacing_ms
        self.probe_timeout_ms = probe_timeout_ms
        self.skip_unreachable_after = skip_unreachable_after
        self.enforce_dos = enforce_dos
        self.enforce_offset_ms = enforce_offset_ms

        self.state = AttackerState()
        self.probes_sent = 0
        self._addr_index = 0
        self._port_index = 0
        self._addr_probes = 0
        self._addr_replies: dict[str, int] = {}
        self._gate_passed = False
        self._pending: tuple[int, str, dict] | None = None  # (attempt id, kind, context)
        self._attempt_counter = 0
        self._rce_plan: list[tuple[str, int, str]] = []
        self._rce_index = 0
        self._pe_hosts: list[str] = []
        self._pe_index = 0
        self._pe_methods_left: list[str] = []
        self._impact_hosts: list[str] = []
        self._impact_index = 0
        self._enforce_targets: list[str] = []

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

    # -- engine events --------------------------------------------------------

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind == "start":
            self._enter("S1_scan")
            self._scan_next()
        elif event.kind == "scan_next":
            self._scan_next()
        elif event.kind == "gate_check":
            self._gate_check(event.payload)
        elif event.kind == "scan_done":
            self._finish_scan()
        elif event.kind == "next_action":
            self._advance()
        elif event.kind == "timeout":
            self._on_timeout(event.payload)
        elif event.kind == "enforce":
            self._enforce_tick()

    # -- stage 1: scan ---------------------------------------------------------

    def _current_scan_target(self) -> tuple[str, int] | None:
        while self._addr_index < len(self.address_range):
            if self._port_index < len(self.port_set):
                return self.address_range[self._addr_index], self.port_set[self._port_index]
            self._next_address()
        return None

    def _next_address(self) -> None:
        if self._addr_index < len(self.address_range):
            addr = self.address_range[self._addr_index]
            if self._addr_probes > 0:
                open_ports = sorted(p for p, _ in self.state.discovered.get(addr, set()))
                if addr not in self.state.reachable:
                    outcome = "unreachable"
                elif open_ports:
                    outcome = "open:" + ",".join(str(p) for p in open_ports)
                else:
                    outcome = "no_open_ports"
                self._log("scan_host", addr, outcome)
        self._addr_index += 1
        self._port_index = 0
        self._addr_probes = 0
        self._gate_passed = False

    def _scan_next(self) -> None:
        target = self._current_scan_target()
        if target is None:
            self.engine.schedule_in(self.probe_timeout_ms, "attacker", "scan_done")
            return
        addr, port = target
        gate = self.skip_unreachable_after
        if (
            gate is not None
            and not self._gate_passed
            and self._addr_probes >= gate
        ):
            if self._addr_replies.get(addr, 0) > 0:
                self._gate_passed = True
            else:
                self.engine.schedule_in(self.probe_timeout_ms, "attacker", "gate_check", addr)
                return
        self.fabric.send_app_message(
            self.node_id, addr, "SCAN_PROBE", PROBE_LEN,
            {"type": "probe", "port": port}, self.node_id,
        )
        self.probes_sent += 1
        self._addr_probes += 1
        self._port_index += 1
        self.engine.schedule_in(self.pacing_ms, "attacker", "scan_next")

    def _gate_check(self, addr: str) -> None:
        if self._addr_replies.get(addr, 0) > 0:
            self._gate_passed = True
        else:
            self._next_address()
        self._scan_next()

    def _finish_scan(self) -> None:
        self._next_address()  # summary row for the last address
        self._rce_plan = []
        for addr in self.address_range:
            ports = self.state.discovered.get(addr)
            if not ports:
                continue
            for port, protocol in sorted(ports):
                self._rce_plan.append((addr, port, protocol))
        self._enter("S2_rce")
        self._rce_index = 0
        self._advance()

    # -- stages 2-4 driver -------------------------------------------------------

    def _advance(self) -> None:
        stage = self.state.stage
        if stage == "S2_rce":
            self._rce_next()
        elif stage == "S3_pe":
            self._pe_next()
        elif stage == "S4_impact":
            self._impact_next()

    def _schedule_advance(self) -> None:
        self.engine.schedule_in(self.pacing_ms, "attacker", "next_action")

    def _send_pending(self, kind: str, context: dict, dst: str, protocol: str,
                      length: int, payload: dict) -> None:
        self._attempt_counter += 1
        attempt = self._attempt_counter
        self._pending = (attempt, kind, context)
        self.fabric.send_app_message(self.node_id, dst, protocol, length, payload, self.node_id)
        self.engine.schedule_in(RESPONSE_TIMEOUT_MS, "attacker", "timeout", attempt)

    def _on_timeout(self, attempt: int) -> None:
        if self._pending is None or self._pending[0] != attempt:
            return
        _, kind, context = self._pending
        self._pending = None
        self._log(kind, context.get("target", "?"), "timeout")
        if kind in ("whoami_check", "pe_attempt"):
            # the PE cursor only moves on replies; a dead host must not loop
            self._pe_index += 1
            self._pe_methods_left = []
        self._advance()

    # -- stage 2: RCE ---------------------------------------------------------

    def _rce_next(self) -> None:
        while self._rce_index < len(self._rce_plan):
            addr, port, protocol = self._rce_plan[self._rce_index]
            self._rce_index += 1
            if addr in self.state.sessions:
                continue  # first success per host wins
            target = f"{addr}:{port}"
            if protocol == "HTTP":
                self._send_pending(
                    "rce_attempt", {"target": target, "addr": addr, "port": port, "protocol": protocol},
                    addr, "HTTP", HTTP_REQUEST_LEN,
                    {"type": "rce_attempt", "port": port, "method": "cmd_param", "command": "whoami"},
                )
                return
            if protocol in ("SSH", "TELNET"):
                lens = LOGIN_LENS[protocol]
                self._send_pending(
                    "login_hello", {"target": target, "addr": addr, "port": port, "protocol": protocol},
                    addr, protocol, lens[0],
                    {"type": "login_hello", "port": port},
                )
                return
            self._log("rce_attempt", target, f"skipped: no exploit for {protocol}")
        # plan exhausted
        if self.state.sessions:
            self._enter("S3_pe")
            self._pe_hosts = list(self.state.sessions)
            self._pe_index = 0
            self._pe_methods_left = []
            self._advance()
        else:
            self._enter("failed")
            self._log("abort", "-", "no RCE succeeded")

    # -- stage 3: privilege escalation -------------------------------------------

    def _pe_next(self) -> None:
        if self._pe_index >= len(self._pe_hosts):
            self._enter("S4_impact")
            self._impact_hosts = [a for a in self.state.sessions if self.goal.matches(a)]
            self._impact_index = 0
            self._advance()
            return
        addr = self._pe_hosts[self._pe_index]
        session = self.state.sessions[addr]
        if not self._pe_methods_left and addr not in self.state.rooted:
            # fresh host: check privileges first
            self._send_session_cmd("whoami_check", addr, session, "whoami")
            return
        if self._pe_methods_left:
            method = self._pe_methods_left.pop(0)
            self._send_session_cmd("pe_attempt", addr, session, f"escalate {method}", extra=method)
            return
        self._pe_index += 1
        self._pe_methods_left = []
        self._advance()

    def _send_session_cmd(self, kind: str, addr: str, session: SessionInfo,
                          command: str, extra: str | None = None) -> None:
        lens = SESSION_CMD_LENS.get(session.protocol, SESSION_CMD_LENS["HTTP"])
        self._send_pending(
            kind,
            {"target": addr, "addr": addr, "command": command, "extra": extra},
            addr, session.protocol, lens[0],
            {"type": "session_cmd", "session": session.session_id,
             "protocol": session.protocol, "command": command},
        )

    # -- stage 4: impact -----------------------------------------------------------

    def _impact_command(self) -> str:
        if self.goal.kind == "dos":
            return "stop_service"
        parts = [
            f"{quantity}={scale},{offset}"
            for quantity, (scale, offset) in self.goal.manipulation.items()
        ]
        return "spoof " + " ".join(parts)

    def _impact_next(self) -> None:
        eligible = [a for a in self._impact_hosts if a in self.state.rooted]
        if not eligible:
            self._enter("failed")
            self._log("abort", "-", "no rooted host matches the goal")
            return
        while self._impact_index < len(self._impact_hosts):
            addr = self._impact_hosts[self._impact_index]
            self._impact_index += 1
            if addr not in self.state.rooted:
                self._log("impact_skipped", addr, "not rooted")
                continue
            session = self.state.sessions[addr]
            self._send_session_cmd("impact", addr, session, self._impact_command())
            return
        # all matching hosts handled
        if self.state.impact:
            if self.goal.kind == "dos" and self.enforce_dos:
                self._enforce_targets = [a for a, _, outcome in self.state.impact if outcome == "ok"]
                self._schedule_enforce()
            else:
                self._enter("done")
        else:
            self._enter("failed")
            self._log("abort", "-", "impact commands rejected")

    def _enforce_tick(self) -> None:
        """Keep-down stream: re-issue the stop command once per step, fire and forget."""
        for addr in self._enforce_targets:
            session = self.state.sessions[addr]
            lens = SESSION_CMD_LENS.get(session.protocol, SESSION_CMD_LENS["HTTP"])
            self.fabric.send_app_message(
                self.node_id, addr, session.protocol, lens[0],
                {"type": "session_cmd", "session": session.session_id,
                 "protocol": session.protocol, "command": "stop_service"},
                self.node_id,
            )
            self._log("enforce_dos", addr, "sent")
        self._schedule_enforce()

    def _schedule_enforce(self) -> None:
        next_step_ms = (self.engine.now // MS_PER_STEP + 1) * MS_PER_STEP
        self.engine.schedule(next_step_ms + self.enforce_offset_ms, "attacker", "enforce")

    # -- inbound packets -------------------------------------------------------------

    def on_packet(self, fabric: NetworkFabric, packet: Packet) -> None:
        payload = packet.payload
        kind = payload.get("type")
        src = packet.src
        if kind == "probe_reply" or (kind == "refused" and self.state.stage == "S1_scan"):
            self._addr_replies[src] = self._addr_replies.get(src, 0) + 1
            self.state.reachable.add(src)
            if kind == "probe_reply" and payload.get("state") == "open":
                self.state.discovered.setdefault(src, set()).add(
                    (payload["port"], payload.get("service", "OTHER"))
                )
            return
        if self._pending is None:
            return
        _, pending_kind, context = self._pending
        if context.get("addr") != src:
            return
        self._pending = None
        handler = {
            "rce_attempt": self._on_rce_result,
            "login_hello": self._on_login_challenge,
            "login_auth": self._on_login_result,
            "whoami_check": self._on_whoami,
            "pe_attempt": self._on_pe_result,
            "impact": self._on_impact_result,
        }.get(pending_kind)
        if handler is not None:
            handler(src, context, payload)

    def _on_rce_result(self, addr: str, context: dict, payload: dict) -> None:
        target = context["target"]
        if payload.get("ok"):
            user = payload.get("output", "?")
            self.state.sessions[addr] = SessionInfo(
                addr, payload["session"], context["port"], context["protocol"], user
            )
            self._log("rce_attempt", target, f"session user={user}")
        else:
            self._log("rce_attempt", target, f"failed: {payload.get('error', 'refused')}")
        self._schedule_advance()

    def _on_login_challenge(self, addr: str, context: dict, payload: dict) -> None:
        if not payload.get("ok"):
            self._log("rce_attempt", context["target"], "failed: no login service")
            self._schedule_advance()
            return
        lens = LOGIN_LENS[context["protocol"]]
        self._send_pending(
            "login_auth", context, addr, context["protocol"], lens[2],
            {"type": "login_auth", "port": context["port"]},
        )

    def _on_login_result(self, addr: str, context: dict, payload: dict) -> None:
        target = context["target"]
        if payload.get("ok"):
            user = payload.get("output", "?")
            self.state.sessions[addr] = SessionInfo(
                addr, payload["session"], context["port"], context["protocol"], user
            )
            self._log("rce_attempt", target, f"session user={user}")
        else:
            self._log("rce_attempt", target, f"failed: {payload.get('error', 'auth failed')}")
        self._schedule_advance()

    def _on_whoami(self, addr: str, context: dict, payload: dict) -> None:
        user = payload.get("output", "?")
        self._log("privilege_check", addr, f"whoami={user}")
        if user == "root":
            self.state.rooted.add(addr)
            self.state.sessions[addr].user = "root"
            self._pe_index += 1
            self._pe_methods_left = []
        else:
            self._pe_methods_left = ["suid_binary", "sudoers_script"]
        self._schedule_advance()

    def _on_pe_result(self, addr: str, context: dict, payload: dict) -> None:
        method = context["extra"]
        output = payload.get("output", "?")
        if output == "root":
            self.state.rooted.add(addr)
            self.state.sessions[addr].user = "root"
            self._log("pe_attempt", addr, f"{method}: root")
            self._pe_index += 1
            self._pe_methods_left = []
        else:
            self._log("pe_attempt", addr, f"{method}: denied")
            if not self._pe_methods_left:
                self._pe_index += 1
        self._schedule_advance()

    def _on_impact_result(self, addr: str, context: dict, payload: dict) -> None:
        output = payload.get("output", "")
        ok = output in ("service stopped", "spoofing active")
        self.state.impact.append((addr, self.engine.now, "ok" if ok else "rejected"))
        self._log("impact", addr, output or "no output")
        self._schedule_advance()

    # -- introspection ------------------------------------------------------------

    def peek_next_action(self) -> tuple:
        """Deterministic next action implied by the current state and cursors."""
        stage = self.state.stage
        if stage == "idle":
            if not self.address_range or not self.port_set:
                return ("finish_scan",)
            return ("probe", self.address_range[0], self.port_set[0])
        if stage == "S1_scan":
            target = self._current_scan_target()
            return ("probe", *target) if target else ("finish_scan",)
        if stage == "S2_rce":
            if self._rce_index < len(self._rce_plan):
                return ("rce", *self._rce_plan[self._rce_index])
            return ("enter_s3",) if self.state.sessions else ("fail",)
        if stage == "S3_pe":
            if self._pe_index < len(self._pe_hosts):
                return ("pe", self._pe_hosts[self._pe_index])
            return ("enter_s4",)
        if stage == "S4_impact":
            if self._impact_index < len(self._impact_hosts):
                return ("impact", self._impact_hosts[self._impact_index])
            return ("finish",)
        return (stage,)

    def export_action_log(self) -> list[str]:
        lines = ["time_ms,stage,action,target,outcome"]
        for rec in self.state.action_log:
            lines.append(f"{rec.time_ms},{rec.stage},{rec.action},{rec.target},{rec.outcome}")
        return lines
