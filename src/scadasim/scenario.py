"""Scenario assembly: wire grid, network, hosts, telemetry, operator traffic
and the attacker onto one engine, run the three phases (warm-up, attack,
post), and label the captured traffic.

The six reference scenarios and the exemplary attack-replication scenario ship
as YAML fixtures under ``scadasim/data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .attacker import AttackerComponent
from .capture import (
    BALANCE_TOLERANCE_PP,
    CalibrationError,
    LabeledDataset,
    TrafficCollector,
    label_records,
)
from .config import RTU_STAGGER_MS, ScenarioConfig, load_config
from .engine import MS_PER_STEP, Engine, Event, derive_seed
from .network import NetworkFabric, Packet
from .powergrid import PowerFlowSolution, sample_load_profile, solve_power_flow
from .scada import CompromiseRecord, MtuApp, RtuApp
from .vulnhost import KEEPALIVE_LENS, HTTP_REQUEST_LEN, PROBE_LEN, SimHost


class GridComponent:
    """Engine target ``grid``: one power-flow solve per step."""

    def __init__(self, engine: Engine, section, seed: int):
        self.engine = engine
        self.section = section
        self.seed = seed
        self.load_ids = [ld.load_id for ld in section.model.loads]
        self.history: list[tuple[int, PowerFlowSolution]] = []
        self.stale_solves = 0
        self._last_converged: PowerFlowSolution | None = None
        self._stale = False
        engine.register("grid", self.handle)
        engine.schedule(0, "grid", "tick")

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind != "tick":
            return
        step = engine.now // MS_PER_STEP
        scaling = sample_load_profile(
            self.seed, step, self.load_ids,
            day_steps=self.section.day_steps,
            noise_amplitude=self.section.noise_amplitude,
        )
        solution = solve_power_flow(self.section.model, load_scaling=scaling)
        if solution.converged:
            self._last_converged = solution
            self._stale = False
        else:
            self.stale_solves += 1
            self._stale = True
        self.history.append((step, solution if solution.converged else self._last_converged))
        engine.schedule((step + 1) * MS_PER_STEP, "grid", "tick")

    def current_solution(self) -> tuple[PowerFlowSolution | None, bool]:
        """Last converged solution plus a staleness flag for failed solves."""
        return self._last_converged, self._stale

    def solution_at(self, step: int) -> PowerFlowSolution | None:
        for s, sol in self.history:
            if s == step:
                return sol
        return None


class OpsComponent:
    """Engine target ``ops``: light periodic operator/monitoring traffic.

    The point is normal-traffic variety: web status pulls, SSH keepalives and
    liveness probes keep HTTP/SSH/SCAN_PROBE tuples inside the attack-free
    training vocabulary. The component doubles as the packet app of the ops
    host so it can watch its own probe responses; a target that misses
    ``give_up_after`` consecutive liveness probes is marked down and gets no
    further operator traffic.
    """

    def __init__(self, engine: Engine, fabric: NetworkFabric, section,
                 addresses: dict[str, str], host):
        self.engine = engine
        self.fabric = fabric
        self.section = section
        self.addresses = addresses
        self.host = host
        self.requests_sent = 0
        # monitor_targets is fixed for the run, so the reply lookup is too
        self._monitor_by_address = {addresses[t]: t for t in section.monitor_targets}
        self._unanswered: dict[str, int] = {}
        self.down: set[str] = set()
        engine.register("ops", self.handle)
        engine.schedule(150, "ops", "tick")

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind != "tick":
            return
        step = engine.now // MS_PER_STEP
        section = self.section
        if step % section.http_period_steps == 0:
            for target in section.http_targets:
                self._send(target, "HTTP", HTTP_REQUEST_LEN,
                           {"type": "http_get", "port": section.http_port})
        if step % section.keepalive_period_steps == 0:
            for target in section.keepalive_targets:
                self._send(target, "SSH", KEEPALIVE_LENS["SSH"][0],
                           {"type": "keepalive", "port": section.keepalive_port})
        if step % section.monitor_period_steps == 0:
            for target in section.monitor_targets:
                if self._send(target, "SCAN_PROBE", PROBE_LEN,
                              {"type": "probe", "port": section.monitor_port}):
                    self._unanswered[target] = self._unanswered.get(target, 0) + 1
                    if (
                        section.give_up_after
                        and self._unanswered[target] > section.give_up_after
                    ):
                        self.down.add(target)
        engine.schedule((step + 1) * MS_PER_STEP + 150, "ops", "tick")

    def _send(self, target: str, protocol: str, length: int, payload: dict) -> bool:
        if target in self.down:
            return False
        dst = self.addresses[target]
        self.fabric.send_app_message(self.section.host, dst, protocol, length, payload,
                                     self.section.host)
        self.requests_sent += 1
        return True

    def on_packet(self, fabric: NetworkFabric, packet: Packet) -> None:
        target = self._monitor_by_address.get(packet.src)
        if target is not None:
            self._unanswered[target] = 0
        self.host.on_packet(fabric, packet)


@dataclass
class Simulation:
    """One run: the wired components, then what ``run_scenario`` fills in."""

    config: ScenarioConfig
    seed: int
    engine: Engine
    fabric: NetworkFabric
    hosts: dict[str, SimHost]
    grid: GridComponent
    rtus: dict[str, RtuApp]
    mtu: MtuApp
    attacker: AttackerComponent
    ops: OpsComponent | None
    collector: TrafficCollector
    compromise_log: list[CompromiseRecord]
    attack_start_step: int
    dataset: LabeledDataset | None = None
    final_step: int | None = None
    events_processed: int = 0

    @property
    def trace_lines(self) -> list[str] | None:
        return self.engine.trace_lines

    def run_summary(self) -> dict:
        attack_pct, normal_pct = self.dataset.balance
        return {
            "scenario_id": self.config.scenario_id,
            "seed": self.seed,
            "events_processed": self.events_processed,
            "final_step": self.final_step,
            "attack_start_step": self.attack_start_step,
            "packets_captured": len(self.dataset.records),
            "attack_pct": attack_pct,
            "normal_pct": normal_pct,
            "attacker_stage": self.attacker.state.stage,
            "stale_solves": self.grid.stale_solves,
            "out_of_order_frames": self.mtu.out_of_order_count,
        }

    def mtu_history_lines(self) -> list[str]:
        lines = ["step,station,point,quantity,value,stale"]
        for step, station, point, quantity, value, stale in self.mtu.history:
            lines.append(f"{step},{station},{point},{quantity},{value!r},{str(stale).lower()}")
        return lines

    def grid_history_lines(self) -> list[str]:
        lines = ["step,element,quantity,value"]
        tx = self.config.grid.model.transformer.transformer_id
        for step, sol in self.grid.history:
            if sol is None:
                continue
            lines.append(f"{step},{tx},transformer_loading_percent,{sol.transformer_loading_percent!r}")
            lines.append(f"{step},{tx},P_kW,{sol.transformer_p_kw!r}")
            lines.append(f"{step},{tx},Q_kvar,{sol.transformer_q_kvar!r}")
        return lines


def build_simulation(config: ScenarioConfig, seed: int, trace: bool = False) -> Simulation:
    """Wire every component onto a fresh engine."""
    engine = Engine(trace=trace)
    fabric = NetworkFabric(config.topology, engine, derive_seed(seed, "net"))
    addresses = {n.node_id: n.address for n in config.topology.nodes if n.address}

    hosts: dict[str, SimHost] = {}
    for node in config.topology.nodes:
        if node.kind != "host":
            continue
        entry = config.hosts.get(node.node_id)
        host = SimHost(
            node.node_id,
            node.address,
            services=entry.services if entry else {},
            pe_paths=entry.pe_paths if entry else frozenset(),
        )
        hosts[node.node_id] = host

    compromise_log: list[CompromiseRecord] = []
    grid = GridComponent(engine, config.grid, derive_seed(seed, "grid"))

    mtu_addr = addresses[config.scada.mtu_host]
    rtus: dict[str, RtuApp] = {}
    stations = {}
    for i, rtu_cfg in enumerate(config.scada.rtus):
        host = hosts[rtu_cfg.host]
        rtu = RtuApp(
            engine, fabric, host, rtu_cfg.station, rtu_cfg.binding, mtu_addr,
            grid, compromise_log, report_offset_ms=rtu_cfg.report_offset_ms + RTU_STAGGER_MS * i,
        )
        host.scada_app = rtu
        rtus[rtu_cfg.station] = rtu
        stations[rtu_cfg.station] = addresses[rtu_cfg.host]
    mtu = MtuApp(
        engine, fabric, hosts[config.scada.mtu_host], stations,
        interrogate_stale=config.scada.interrogate_stale,
    )
    hosts[config.scada.mtu_host].scada_app = mtu

    jitter = config.durations.attack_start_jitter_steps
    attack_start_step = config.durations.warmup_steps
    if jitter > 0:
        attack_start_step += derive_seed(seed, "attack-start") % (jitter + 1)

    attacker = AttackerComponent(
        engine, fabric,
        config.attacker.host,
        addresses[config.attacker.host],
        config.attacker.goal,
        config.attacker.address_range,
        config.attacker.port_set,
        attack_start=attack_start_step * MS_PER_STEP,
        pacing_ms=config.attacker.probe_pacing_ms,
        probe_timeout_ms=config.attacker.probe_timeout_ms,
        skip_unreachable_after=config.attacker.skip_unreachable_after,
        enforce_dos=config.attacker.enforce_dos,
    )

    ops = None
    if config.ops is not None:
        ops = OpsComponent(engine, fabric, config.ops, addresses, hosts[config.ops.host])

    for node_id, host in hosts.items():
        if node_id == config.attacker.host:
            fabric.register_app(node_id, attacker)
        elif ops is not None and node_id == config.ops.host:
            fabric.register_app(node_id, ops)
        else:
            fabric.register_app(node_id, host)

    collector = TrafficCollector()
    if config.topology.span is not None:
        fabric.mirror_sink = collector.record

    return Simulation(
        config=config, seed=seed, engine=engine, fabric=fabric, hosts=hosts, grid=grid,
        rtus=rtus, mtu=mtu, attacker=attacker, ops=ops, collector=collector,
        compromise_log=compromise_log, attack_start_step=attack_start_step,
    )


def run_scenario(config: ScenarioConfig, seed: int | None = None, trace: bool = False) -> Simulation:
    """Warm-up phase, attack phase (until impact or terminal stage), post phase."""
    seed = config.seed if seed is None else seed
    sim = build_simulation(config, seed, trace)
    engine, attacker = sim.engine, sim.attacker

    step = sim.attack_start_step
    sim.events_processed += engine.run(_last_ms_of(step))

    deadline = sim.attack_start_step + config.durations.max_attack_steps
    while (
        attacker.state.stage not in ("done", "failed")
        and not attacker.state.impact
        and step < deadline
    ):
        step += 1
        sim.events_processed += engine.run(_last_ms_of(step))

    sim.final_step = step + config.durations.post_steps
    sim.events_processed += engine.run(_last_ms_of(sim.final_step))

    records = label_records(
        sim.collector.snapshots,
        config.attacker.host,
        attacker.state.stage_times,
        _last_ms_of(sim.final_step),
        label_manipulated_reports=config.capture.label_manipulated_reports,
    )
    sim.dataset = LabeledDataset.from_records(records, config.scenario_id, seed)
    return sim


def _last_ms_of(step: int) -> int:
    return step * MS_PER_STEP + MS_PER_STEP - 1


def fixture_path(name: str):
    """Path to a shipped scenario fixture, e.g. 'scenario1' or 'reference'."""
    return resources.files("scadasim").joinpath("data", f"{name}.yaml")


def load_fixture(spec) -> ScenarioConfig:
    """Accepts 1..6, 'scenarioN', 'reference', or a filesystem path."""
    if isinstance(spec, int) or (isinstance(spec, str) and spec.isdigit()):
        name = f"scenario{int(spec)}"
    else:
        name = str(spec)
    if name in ("reference",) or name.startswith("scenario"):
        path = fixture_path(name)
        if path.is_file():
            return load_config(str(path))
    return load_config(str(spec))


def make_scenario(scenario_id: int, seed: int) -> LabeledDataset:
    """Run one of the six reference scenarios end to end and return its dataset.

    Raises CalibrationError when the achieved attack share misses the
    fixture's balance target.
    """
    if scenario_id not in range(1, 7):
        raise ValueError(f"scenario_id must be 1..6, got {scenario_id}")
    config = load_fixture(scenario_id)
    dataset = run_scenario(config, seed=seed).dataset
    target = config.capture.balance_target
    achieved = dataset.balance[0]
    if abs(achieved - target) > BALANCE_TOLERANCE_PP:
        raise CalibrationError(scenario_id, target, achieved)
    return dataset
