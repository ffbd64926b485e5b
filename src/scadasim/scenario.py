"""Scenario assembly: wire grid, network, hosts, telemetry, operator traffic
and the attacker onto one engine, run the three phases (warm-up, attack,
post), and build the dataset the SPAN collector labelled as the run went.

The six reference scenarios and the exemplary attack-replication scenario ship
as YAML fixtures under ``scadasim/data``: one shared ``world.yaml``, and a campaign each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from itertools import chain

from .attacker import AttackerComponent
from .capture import LabeledDataset, TrafficCollector, collector_off, export_csv
from .config import HostEntry, ScenarioConfig, load_config, parse_config
from .engine import MS_PER_STEP, Engine, derive_seed
from .network import NetworkFabric, Packet
from .powergrid import Feeder, PowerFlowSolution, sample_load_profile
from .scada import MtuApp, RtuApp
from .vulnhost import KEEPALIVE_LENS, HTTP_REQUEST_LEN, PROBE_LEN, SimHost
from .writers import write_json, write_lines

OPS_OFFSET_MS = 150  # operator traffic goes out 150 ms into each step
TRACE_HEADER = "step,offset_ms,seq,target,kind"


class GridComponent:
    """Engine target ``grid``: one power-flow solve per step."""

    def __init__(self, engine: Engine, section, seed: int):
        self.engine = engine
        self.section = section
        self.seed = seed
        self.feeder = Feeder(section.model)
        self.load_ids = [ld.load_id for ld in section.model.loads]
        self.history: list[tuple[int, PowerFlowSolution]] = []
        self.stale_solves = 0
        self._last_converged: PowerFlowSolution | None = None
        engine.register("grid", self.handle)
        engine.schedule(0, "grid", "tick")

    def handle(self, engine: Engine, kind: str, payload) -> None:
        step = engine.now // MS_PER_STEP
        scaling = sample_load_profile(
            self.seed, step, self.load_ids,
            day_steps=self.section.day_steps,
            noise_amplitude=self.section.noise_amplitude,
        )
        solution = self.feeder.solve(scaling)
        if solution.converged:
            self._last_converged = solution
        else:
            self.stale_solves += 1
        self.history.append((step, solution if solution.converged else self._last_converged))
        engine.schedule((step + 1) * MS_PER_STEP, "grid", "tick")

    def current_solution(self) -> PowerFlowSolution | None:
        """The last converged solution; None until one step converged."""
        return self._last_converged


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
        # monitor_targets is fixed for the run, so the reply lookup is too
        self._monitor_by_address = {addresses[t]: t for t in section.monitor_targets}
        self._unanswered: dict[str, int] = {}
        self.down: set[str] = set()
        engine.register("ops", self.handle)
        engine.schedule(OPS_OFFSET_MS, "ops", "tick")

    def handle(self, engine: Engine, kind: str, payload) -> None:
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
        engine.schedule((step + 1) * MS_PER_STEP + OPS_OFFSET_MS, "ops", "tick")

    def _send(self, target: str, protocol: str, length: int, payload: dict) -> bool:
        if target in self.down:
            return False
        dst = self.addresses[target]
        self.fabric.send_app_message(self.section.host, dst, protocol, length, payload)
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
    attack_start_step: int
    dataset: LabeledDataset | None = None
    final_step: int | None = None
    events_processed: int = 0

    @property
    def trace_lines(self) -> list[str] | None:
        return self.engine.trace_lines

    def counts(self) -> dict[str, int]:
        """The run's counts, the same on every run of one config and seed."""
        return {
            "events": self.events_processed,
            "records": len(self.dataset.records),
            "mirrored": self.fabric.mirrored_count,
            "solves": len(self.grid.history),
            "rtu_reports": sum(rtu.reports_sent for rtu in self.rtus.values()),
            "attacker_actions": len(self.attacker.state.action_log),
            "stale_solves": self.grid.stale_solves,
            "out_of_order_frames": self.mtu.out_of_order_count,
        }

    def run_summary(self) -> dict:
        attack_pct, normal_pct = self.dataset.balance
        counts = self.counts()
        return {
            "scenario_id": self.config.scenario_id,
            "seed": self.seed,
            "events_processed": counts["events"],
            "final_step": self.final_step,
            "attack_start_step": self.attack_start_step,
            "packets_captured": counts["records"],
            "attack_pct": attack_pct,
            "normal_pct": normal_pct,
            "attacker_stage": self.attacker.state.stage,
            "stale_solves": counts["stale_solves"],
            "out_of_order_frames": counts["out_of_order_frames"],
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


# Every file a run can write, in writing order, and its writer; trace.csv is
# written for a traced run only, and grid_truth.csv on request.
_ARTIFACT_WRITERS = {
    "dataset.csv": lambda sim, path: export_csv(sim.dataset, path),
    "attacker_actions.csv": lambda sim, path: write_lines(path, sim.attacker.export_action_log()),
    "mtu_measurements.csv": lambda sim, path: write_lines(path, sim.mtu_history_lines()),
    "run_summary.json": lambda sim, path: write_json(path, sim.run_summary()),
    "trace.csv": lambda sim, path: write_lines(path, chain((TRACE_HEADER,), sim.trace_lines)),
    "grid_truth.csv": lambda sim, path: write_lines(path, sim.grid_history_lines()),
}
ARTIFACTS = tuple(_ARTIFACT_WRITERS)


def artifact_names(trace: bool, grid_csv: bool) -> list[str]:
    """The files a run writes: trace.csv only when traced, grid_truth.csv only when asked."""
    optional = {"trace.csv": trace, "grid_truth.csv": grid_csv}
    return [name for name in ARTIFACTS if optional.get(name, True)]


def write_artifacts(sim: Simulation, out: str, grid_csv: bool = False) -> None:
    """Write the files of a finished run into the directory ``out``."""
    for name in artifact_names(sim.trace_lines is not None, grid_csv):
        _ARTIFACT_WRITERS[name](sim, os.path.join(out, name))


def build_simulation(config: ScenarioConfig, seed: int, trace: bool = False) -> Simulation:
    """Wire every component onto a fresh engine."""
    engine = Engine(trace=trace)
    fabric = NetworkFabric(config.topology, engine, derive_seed(seed, "net"))
    addresses = {n.node_id: n.address for n in config.topology.nodes if n.address}

    hosts: dict[str, SimHost] = {}
    for node in config.topology.nodes:
        if node.kind != "host":
            continue
        entry = config.hosts.get(node.node_id) or HostEntry()
        hosts[node.node_id] = SimHost(node.node_id, node.address, entry.services, entry.pe_paths)

    grid = GridComponent(engine, config.grid, derive_seed(seed, "grid"))

    mtu_addr = addresses[config.scada.mtu_host]
    rtus: dict[str, RtuApp] = {}
    stations = {}
    for rtu_cfg in config.scada.rtus:
        host = hosts[rtu_cfg.host]
        rtu = RtuApp(engine, fabric, host, rtu_cfg.binding, mtu_addr, grid,
                     rtu_cfg.report_offset_ms)
        host.scada_app = rtu
        rtus[rtu_cfg.binding.station] = rtu
        stations[rtu_cfg.binding.station] = addresses[rtu_cfg.host]
    mtu = MtuApp(
        engine, fabric, hosts[config.scada.mtu_host], stations,
        interrogate_stale=config.scada.interrogate_stale,
    )
    hosts[config.scada.mtu_host].scada_app = mtu

    jitter = config.durations.attack_start_jitter_steps
    attack_start_step = config.durations.warmup_steps
    if jitter > 0:
        attack_start_step += derive_seed(seed, "attack-start") % (jitter + 1)

    attacker = AttackerComponent(engine, fabric, config.attacker,
                                 addresses[config.attacker.host], attack_start_step * MS_PER_STEP)

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

    collector = TrafficCollector(attacker.address, attacker.state.stage_times,
                                 config.capture.label_manipulated_reports)
    if config.topology.span is not None:
        fabric.mirror_sink = collector.record

    return Simulation(
        config=config, seed=seed, engine=engine, fabric=fabric, hosts=hosts, grid=grid,
        rtus=rtus, mtu=mtu, attacker=attacker, ops=ops, collector=collector,
        attack_start_step=attack_start_step,
    )


def run_scenario(config: ScenarioConfig, seed: int | None = None, trace: bool = False) -> Simulation:
    """Warm-up phase, attack phase (until impact or terminal stage), post phase,
    all under ``capture.collector_off``."""
    seed = config.seed if seed is None else seed
    sim = build_simulation(config, seed, trace)
    engine, attacker = sim.engine, sim.attacker

    with collector_off():
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

        # the collector labelled every full block as the run went
        records = sim.collector.flush()
    sim.dataset = LabeledDataset.from_records(records)
    return sim


def _last_ms_of(step: int) -> int:
    return step * MS_PER_STEP + MS_PER_STEP - 1


def fixture_text(name: str) -> str:
    """Shipped fixture ``name``, e.g. 'scenario1': the shared world, then its campaign."""
    data = resources.files("scadasim").joinpath("data")
    return "".join(data.joinpath(f"{p}.yaml").read_text(encoding="utf-8") for p in ("world", name))


def load_fixture(spec) -> ScenarioConfig:
    """Accepts 1..6, 'scenarioN', 'reference', or a filesystem path."""
    if isinstance(spec, int) or (isinstance(spec, str) and spec.isdigit()):
        name = f"scenario{int(spec)}"
    else:
        name = str(spec)
    if name in ("reference",) or name.startswith("scenario"):
        try:
            text = fixture_text(name)
        except OSError:  # no such fixture: try it as a path
            pass
        else:
            return parse_config(text, name)
    try:
        return load_config(str(spec))
    except FileNotFoundError:
        raise FileNotFoundError(f"scenario {str(spec)!r}: not a shipped fixture (1..6, "
                                f"reference), and no file at {str(spec)!r}") from None
