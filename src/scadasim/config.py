"""Scenario configuration: one YAML file describes grid, network, hosts,
telemetry, background operator traffic, the attacker, and capture settings.

Loading validates everything up front and reports every error found, not just
the first. Cross-references (bus ids, host ids, link endpoints, bindings) must
all resolve before a simulation is allowed to start.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

import yaml

from .attacker import AttackGoal
from .engine import MS_PER_STEP
from .network import IctTopology, NetLink, NetNode, SpanConfig
from .powergrid import (
    BoundPoint,
    Bus,
    Der,
    GridModel,
    Line,
    Load,
    RtuBinding,
    Transformer,
)
from .vulnhost import PE_METHODS, HostService, RceVuln

FORMAT_VERSION = 1
# build_simulation starts the i-th RTU's report cycle RTU_STAGGER_MS * i
# after its configured offset.
RTU_STAGGER_MS = 10


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid scenario config:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass
class DurationsConfig:
    warmup_steps: int = 30
    post_steps: int = 30
    attack_start_jitter_steps: int = 0
    max_attack_steps: int = 2000


@dataclass
class GridSection:
    model: GridModel
    day_steps: int = 1440
    noise_amplitude: float = 0.08


@dataclass
class HostEntry:
    services: dict[int, HostService] = field(default_factory=dict)
    pe_paths: frozenset[str] = frozenset()


@dataclass
class RtuConfig:
    station: str
    host: str
    binding: RtuBinding
    report_offset_ms: int = 20


@dataclass
class ScadaSection:
    mtu_host: str
    rtus: list[RtuConfig]
    interrogate_stale: bool = True


@dataclass
class OpsSection:
    host: str
    http_targets: list[str] = field(default_factory=list)
    http_period_steps: int = 5
    http_port: int = 80
    keepalive_targets: list[str] = field(default_factory=list)
    keepalive_period_steps: int = 7
    keepalive_port: int = 22
    monitor_targets: list[str] = field(default_factory=list)
    monitor_period_steps: int = 6
    monitor_port: int = 2404
    give_up_after: int = 0  # consecutive missed liveness probes; 0 = never give up


@dataclass
class AttackerSection:
    host: str
    goal: AttackGoal
    address_range: list[str]
    port_set: list[int]
    probe_pacing_ms: int = 2
    probe_timeout_ms: int = 10
    skip_unreachable_after: int | None = 3
    enforce_dos: bool = False


@dataclass
class CaptureSection:
    label_manipulated_reports: bool = True
    balance_target: float | None = None


@dataclass
class ScenarioConfig:
    format_version: int
    scenario_id: str
    seed: int
    durations: DurationsConfig
    grid: GridSection
    topology: IctTopology
    hosts: dict[str, HostEntry]
    scada: ScadaSection
    attacker: AttackerSection
    capture: CaptureSection
    ops: OpsSection | None = None


def expand_address_range(spec) -> list[str]:
    """Accept single addresses and 'a.b.c.d-e.f.g.h' inclusive spans."""
    items = spec if isinstance(spec, list) else [spec]
    out: list[str] = []
    for item in items:
        text = str(item)
        if "-" in text:
            start_s, end_s = text.split("-", 1)
            start = int(ipaddress.ip_address(start_s.strip()))
            end = int(ipaddress.ip_address(end_s.strip()))
            if end < start:
                raise ValueError(f"address range {text!r} runs backwards")
            out.extend(str(ipaddress.ip_address(v)) for v in range(start, end + 1))
        else:
            out.append(str(ipaddress.ip_address(text)))
    return out


def expand_port_set(spec) -> list[int]:
    """Accept 'lo-hi' strings, single ints, or lists mixing both."""
    items = spec if isinstance(spec, list) else [spec]
    ports: list[int] = []
    for item in items:
        if isinstance(item, int):
            ports.append(item)
            continue
        text = str(item)
        if "-" in text:
            lo_s, hi_s = text.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"port range {text!r} runs backwards")
            ports.extend(range(lo, hi + 1))
        else:
            ports.append(int(text))
    for p in ports:
        if not 1 <= p <= 65535:
            raise ValueError(f"port {p} out of range")
    return sorted(set(ports))


def _build_grid(raw: dict, errors: list[str]) -> GridSection | None:
    try:
        buses = tuple(Bus(str(b["id"]), float(b["nominal_kv"])) for b in raw.get("buses", []))
        tx_raw = raw["transformer"]
        transformer = Transformer(
            str(tx_raw["id"]), str(tx_raw["hv_bus"]), str(tx_raw["lv_bus"]),
            float(tx_raw["rating_kva"]), float(tx_raw["resistance_ohm"]),
            float(tx_raw["reactance_ohm"]),
        )
        lines = tuple(
            Line(str(l["id"]), str(l["from"]), str(l["to"]), float(l["resistance_ohm"]),
                 float(l["reactance_ohm"]), float(l["rating_kva"]))
            for l in raw.get("lines", [])
        )
        loads = tuple(
            Load(str(l["id"]), str(l["bus"]), float(l["p_kw"]), float(l["q_kvar"]))
            for l in raw.get("loads", [])
        )
        ders = tuple(
            Der(str(d["id"]), str(d["bus"]), float(d["p_kw"])) for d in raw.get("ders", [])
        )
        model = GridModel(buses, lines, transformer, loads, ders)
        model.validate()
        profile = raw.get("profile", {})
        return GridSection(
            model=model,
            day_steps=int(profile.get("day_steps", 1440)),
            noise_amplitude=float(profile.get("noise_amplitude", 0.08)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"grid: {exc}")
        return None


def _build_topology(raw: dict, errors: list[str]) -> IctTopology | None:
    try:
        nodes = [
            NetNode(
                str(n["id"]), str(n["kind"]), n.get("address"),
                tuple(n.get("blocked_prefixes", ())),
            )
            for n in raw.get("nodes", [])
        ]
        links = [
            NetLink(
                str(l["id"]), str(l["a"]), str(l["b"]),
                int(l.get("latency_ms", 1)),
                float(l.get("loss_probability", 0.0)),
                int(l.get("bandwidth_bps", 10_000_000)),
                bool(l.get("up", True)),
            )
            for l in raw.get("links", [])
        ]
        span_raw = raw.get("span")
        span = None
        if span_raw is not None:
            span = SpanConfig(str(span_raw["switch"]), str(span_raw["monitor"]))
        topology = IctTopology(nodes=nodes, links=links, span=span)
        topology.validate()
        return topology
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"ict: {exc}")
        return None


def _build_hosts(raw: dict, errors: list[str]) -> dict[str, HostEntry]:
    out: dict[str, HostEntry] = {}
    for node_id, entry in (raw or {}).items():
        try:
            services: dict[int, HostService] = {}
            for svc in entry.get("services", []):
                rce_raw = svc.get("rce")
                rce = None
                if rce_raw is not None:
                    rce = RceVuln(str(rce_raw["method"]), str(rce_raw["user"]))
                service = HostService(
                    int(svc["port"]), str(svc["protocol"]), str(svc.get("banner", "")), rce
                )
                if service.port in services:
                    raise ValueError(f"duplicate service on port {service.port}")
                services[service.port] = service
            pe_paths = frozenset(str(p) for p in entry.get("pe_paths", []))
            for p in pe_paths:
                if p not in PE_METHODS:
                    raise ValueError(f"unknown pe path {p!r}")
            out[str(node_id)] = HostEntry(services=services, pe_paths=pe_paths)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"hosts.{node_id}: {exc}")
    return out


def _build_scada(raw: dict, errors: list[str]) -> ScadaSection | None:
    try:
        mtu_raw = raw["mtu"]
        rtus = []
        for r in raw.get("rtus", []):
            points = tuple(
                BoundPoint(str(p["id"]), str(p["quantity"]), str(p["element"]))
                for p in r.get("points", [])
            )
            rtus.append(
                RtuConfig(
                    station=str(r["station"]),
                    host=str(r["host"]),
                    binding=RtuBinding(str(r["station"]), points),
                    report_offset_ms=int(r.get("report_offset_ms", 20)),
                )
            )
        return ScadaSection(
            mtu_host=str(mtu_raw["host"]),
            rtus=rtus,
            interrogate_stale=bool(mtu_raw.get("interrogate_stale", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"scada: {exc}")
        return None


def _build_ops(raw: dict | None, errors: list[str]) -> OpsSection | None:
    if raw is None:
        return None
    try:
        return OpsSection(
            host=str(raw["host"]),
            http_targets=[str(t) for t in raw.get("http_targets", [])],
            http_period_steps=int(raw.get("http_period_steps", 5)),
            http_port=int(raw.get("http_port", 80)),
            keepalive_targets=[str(t) for t in raw.get("keepalive_targets", [])],
            keepalive_period_steps=int(raw.get("keepalive_period_steps", 7)),
            keepalive_port=int(raw.get("keepalive_port", 22)),
            monitor_targets=[str(t) for t in raw.get("monitor_targets", [])],
            monitor_period_steps=int(raw.get("monitor_period_steps", 6)),
            monitor_port=int(raw.get("monitor_port", 2404)),
            give_up_after=int(raw.get("give_up_after", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"ops: {exc}")
        return None


def _build_attacker(raw: dict, errors: list[str]) -> AttackerSection | None:
    try:
        goal_raw = raw["goal"]
        manipulation = None
        if goal_raw.get("transform"):
            manipulation = {
                str(q): (float(pair[0]), float(pair[1]))
                for q, pair in goal_raw["transform"].items()
            }
        targets = goal_raw.get("targets")
        goal = AttackGoal(
            kind=str(goal_raw["kind"]),
            target_addresses=tuple(str(t) for t in targets) if targets else None,
            manipulation=manipulation,
        )
        skip = raw.get("skip_unreachable_after", 3)
        return AttackerSection(
            host=str(raw["host"]),
            goal=goal,
            address_range=expand_address_range(raw["address_range"]),
            port_set=expand_port_set(raw["port_set"]),
            probe_pacing_ms=int(raw.get("probe_pacing_ms", 2)),
            probe_timeout_ms=int(raw.get("probe_timeout_ms", 10)),
            skip_unreachable_after=None if skip in (None, 0, "none") else int(skip),
            enforce_dos=bool(raw.get("enforce_dos", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"attacker: {exc}")
        return None


def load_config_dict(raw: dict) -> ScenarioConfig:
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping"])
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        errors.append(f"format_version: expected {FORMAT_VERSION}, got {version!r}")

    grid = _build_grid(raw.get("grid", {}), errors)
    topology = _build_topology(raw.get("ict", {}), errors)
    hosts = _build_hosts(raw.get("hosts", {}), errors)
    scada = _build_scada(raw.get("scada", {}), errors)
    ops = _build_ops(raw.get("ops"), errors)
    attacker = _build_attacker(raw.get("attacker", {}), errors)

    durations_raw = raw.get("durations", {})
    durations = DurationsConfig(
        warmup_steps=int(durations_raw.get("warmup_steps", 30)),
        post_steps=int(durations_raw.get("post_steps", 30)),
        attack_start_jitter_steps=int(durations_raw.get("attack_start_jitter_steps", 0)),
        max_attack_steps=int(durations_raw.get("max_attack_steps", 2000)),
    )
    if durations.warmup_steps < 0:
        errors.append(f"durations.warmup_steps: must not be negative, got {durations.warmup_steps}")
    capture_raw = raw.get("capture", {})
    balance = capture_raw.get("balance_target")
    capture = CaptureSection(
        label_manipulated_reports=bool(capture_raw.get("label_manipulated_reports", True)),
        balance_target=None if balance is None else float(balance),
    )

    # cross references; the host set comes from the raw node list so these
    # checks still run (and report) when topology validation itself failed
    host_ids = {
        str(n.get("id")) for n in raw.get("ict", {}).get("nodes", [])
        if isinstance(n, dict) and n.get("kind") == "host"
    }
    for node_id in hosts:
        if node_id not in host_ids:
            errors.append(f"hosts.{node_id}: not a host node in ict.nodes")
    if scada is not None:
        if scada.mtu_host not in host_ids:
            errors.append(f"scada.mtu: unknown host {scada.mtu_host!r}")
        for i, rtu in enumerate(scada.rtus):
            if rtu.host not in host_ids:
                errors.append(f"scada.rtus[{rtu.station}]: unknown host {rtu.host!r}")
            offset = rtu.report_offset_ms + RTU_STAGGER_MS * i
            if not 0 <= offset < MS_PER_STEP:
                errors.append(
                    f"scada.rtus[{rtu.station}].report_offset_ms: reports {offset} ms into "
                    f"the step, outside [0, {MS_PER_STEP})"
                )
            if grid is not None:
                try:
                    rtu.binding.validate(grid.model)
                except ValueError as exc:
                    errors.append(f"scada.rtus[{rtu.station}]: {exc}")
    if ops is not None:
        if ops.host not in host_ids:
            errors.append(f"ops: unknown host {ops.host!r}")
        for target in ops.http_targets + ops.keepalive_targets + ops.monitor_targets:
            if target not in host_ids:
                errors.append(f"ops: unknown target host {target!r}")
    if attacker is not None:
        if attacker.host not in host_ids:
            errors.append(f"attacker: unknown host {attacker.host!r}")
        if not attacker.port_set:
            errors.append("attacker: empty port set")
        for name, value in (("probe_pacing_ms", attacker.probe_pacing_ms),
                            ("probe_timeout_ms", attacker.probe_timeout_ms)):
            if value < 0:
                errors.append(f"attacker.{name}: must not be negative, got {value}")
    if topology is not None and topology.span is None and raw.get("capture") is not None:
        errors.append("capture: requires ict.span to be configured")

    if errors:
        raise ConfigError(errors)

    return ScenarioConfig(
        format_version=FORMAT_VERSION,
        scenario_id=str(raw.get("scenario_id", "custom")),
        seed=int(raw.get("seed", 0)),
        durations=durations,
        grid=grid,
        topology=topology,
        hosts=hosts,
        scada=scada,
        attacker=attacker,
        capture=capture,
        ops=ops,
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return load_config_dict(raw)
