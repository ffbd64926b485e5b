"""MTU and RTU application behavior over a simplified telemetry framing.

Frames are 25 bytes of header plus 12 bytes per point, so packet lengths are
deterministic and meaningful to a length-based detector. RTUs push one
measurement report per grid step; the MTU acknowledges each report, keeps a
last-value table, and re-interrogates stations that went stale (three missed
cycles). Compromise effects model the two attack outcomes: a DoS'd RTU goes
silent, a manipulated RTU reports affinely transformed values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import MS_PER_STEP, Engine, Event
from .network import NetworkFabric, Packet
from .powergrid import RtuBinding, measurements_for

FRAME_HEADER_BYTES = 25
BYTES_PER_POINT = 12


def frame_length(n_points: int) -> int:
    return FRAME_HEADER_BYTES + BYTES_PER_POINT * n_points


@dataclass(frozen=True)
class TelemetryFrame:
    frame_kind: str  # measurement_report | command | ack
    station_address: str
    points: tuple[tuple[str, str, float], ...]  # (point_id, quantity, value)
    sequence_no: int


@dataclass(frozen=True)
class CompromiseEffect:
    kind: str  # dos | manipulate
    active_from: int  # ms
    transform: dict[str, tuple[float, float]] | None = None  # quantity -> (scale, offset)

    def __post_init__(self):
        if self.kind not in ("dos", "manipulate"):
            raise ValueError(f"unknown compromise kind {self.kind!r}")
        if self.kind == "dos" and self.transform:
            raise ValueError("dos effect carries no transform")
        if self.kind == "manipulate" and not self.transform:
            raise ValueError("manipulate effect requires a transform")


@dataclass(frozen=True)
class CompromiseRecord:
    station: str
    effect: CompromiseEffect


class RtuApp:
    """Telemetry behavior of one RTU station; engine target ``rtu:<station>``."""

    def __init__(
        self,
        engine: Engine,
        fabric: NetworkFabric,
        host,
        station: str,
        binding: RtuBinding,
        mtu_address: str,
        grid,
        compromise_log: list[CompromiseRecord],
        report_offset_ms: int = 20,
    ):
        self.engine = engine
        self.fabric = fabric
        self.host = host
        self.station = station
        self.binding = binding
        self.mtu_address = mtu_address
        self.grid = grid
        self.compromise_log = compromise_log
        self.report_offset_ms = report_offset_ms
        self.running = True
        self.effect: CompromiseEffect | None = None
        self.sequence_no = 0
        self.reports_sent = 0
        engine.register(f"rtu:{station}", self.handle)
        engine.schedule(report_offset_ms, f"rtu:{station}", "report")

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind == "report":
            self.emit_report()
            engine.schedule(
                (engine.now // MS_PER_STEP + 1) * MS_PER_STEP + self.report_offset_ms,
                f"rtu:{self.station}",
                "report",
            )

    def emit_report(self) -> None:
        """One measurement report per cycle, unless the service was stopped."""
        if not self.running or self.host.silenced:
            return
        solution, stale = self.grid.current_solution()
        if solution is None:
            return
        measurements = measurements_for(self.binding, solution)
        manipulated = False
        points = []
        for point, m in zip(self.binding.points, measurements):
            value = m.value
            if self.effect is not None and self.effect.kind == "manipulate":
                scale, offset = self.effect.transform.get(m.quantity, (1.0, 0.0))
                transformed = value * scale + offset
                if transformed != value:
                    manipulated = True
                value = transformed
            points.append((point.point_id, m.quantity, value))
        self.sequence_no += 1
        frame = TelemetryFrame(
            frame_kind="measurement_report",
            station_address=self.station,
            points=tuple(points),
            sequence_no=self.sequence_no,
        )
        self.fabric.send_app_message(
            self.host.node_id,
            self.mtu_address,
            "SCADA",
            frame_length(len(points)),
            {"type": "telemetry_report", "frame": frame,
             "manipulated": manipulated, "stale_solution": stale},
            self.host.node_id,
        )
        self.reports_sent += 1

    def on_telemetry(self, fabric: NetworkFabric, packet: Packet) -> None:
        kind = packet.payload["type"]
        if kind == "interrogation" and self.running and not self.host.silenced:
            self.emit_report()
        # acks carry no state the RTU needs

    # -- compromise hooks, reached through a root session on the host ------------

    def apply_dos(self) -> None:
        """Permanently stop the report cycle from now on."""
        effect = CompromiseEffect(kind="dos", active_from=self.engine.now)
        self.effect = effect
        self.running = False
        self.compromise_log.append(CompromiseRecord(self.station, effect))

    def apply_manipulate(self, transform: dict[str, tuple[float, float]]) -> None:
        """Affine per-quantity transform applied to all subsequent reports."""
        effect = CompromiseEffect(
            kind="manipulate", active_from=self.engine.now, transform=dict(transform)
        )
        self.effect = effect
        self.compromise_log.append(CompromiseRecord(self.station, effect))


@dataclass
class TablePoint:
    station: str
    point_id: str
    quantity: str
    value: float
    at: int  # ms
    sequence_no: int
    stale: bool = False


class MtuApp:
    """Master station: ingests reports, acks them, re-interrogates stale RTUs.

    Engine target ``mtu``; one table check per step. A station is stale once
    more than three report cycles passed without a report.
    """

    STALE_AFTER_CYCLES = 3

    def __init__(
        self,
        engine: Engine,
        fabric: NetworkFabric,
        host,
        stations: dict[str, str],  # station -> address
        check_offset_ms: int = 900,
        interrogate_stale: bool = True,
    ):
        self.engine = engine
        self.fabric = fabric
        self.host = host
        self.stations = dict(stations)
        self.interrogate_stale = interrogate_stale
        self.check_offset_ms = check_offset_ms
        self.table: dict[tuple[str, str], TablePoint] = {}
        self.last_report_step: dict[str, int] = {s: 0 for s in stations}
        self.last_sequence: dict[str, int] = {}
        self.out_of_order_count = 0
        self.malformed_count = 0
        self.interrogations_sent = 0
        self.history: list[tuple[int, str, str, str, float, bool]] = []
        engine.register("mtu", self.handle)
        engine.schedule(check_offset_ms, "mtu", "cycle_check")

    def handle(self, engine: Engine, event: Event) -> None:
        if event.kind == "cycle_check":
            self.cycle_check()
            engine.schedule(
                (engine.now // MS_PER_STEP + 1) * MS_PER_STEP + self.check_offset_ms,
                "mtu", "cycle_check",
            )

    def on_telemetry(self, fabric: NetworkFabric, packet: Packet) -> None:
        if packet.payload["type"] != "telemetry_report":
            return
        frame = packet.payload["frame"]
        if self.ingest(frame):
            ack = TelemetryFrame(
                frame_kind="ack",
                station_address=frame.station_address,
                points=(),
                sequence_no=frame.sequence_no,
            )
            fabric.send_app_message(
                self.host.node_id,
                packet.src,
                "SCADA",
                frame_length(0),
                {"type": "telemetry_ack", "frame": ack},
                self.host.node_id,
            )

    def ingest(self, frame: TelemetryFrame) -> bool:
        """Update the point table; returns False for malformed frames (dropped)."""
        if (
            not isinstance(frame, TelemetryFrame)
            or frame.frame_kind != "measurement_report"
            or len(frame.points) < 1
        ):
            self.malformed_count += 1
            return False
        station = frame.station_address
        last_seq = self.last_sequence.get(station)
        if last_seq is not None and frame.sequence_no <= last_seq:
            self.out_of_order_count += 1
            return True  # acked but not applied: newer data already in the table
        self.last_sequence[station] = frame.sequence_no
        self.last_report_step[station] = self.engine.now // MS_PER_STEP
        for point_id, quantity, value in frame.points:
            self.table[(station, point_id)] = TablePoint(
                station=station,
                point_id=point_id,
                quantity=quantity,
                value=value,
                at=self.engine.now,
                sequence_no=frame.sequence_no,
                stale=False,
            )
        return True

    def cycle_check(self) -> None:
        """Mark stale stations, optionally re-interrogate them, snapshot the table."""
        step = self.engine.now // MS_PER_STEP
        for station, address in self.stations.items():
            missed = step - self.last_report_step.get(station, 0)
            if missed > self.STALE_AFTER_CYCLES:
                for key, point in self.table.items():
                    if key[0] == station:
                        point.stale = True
                if self.interrogate_stale and not self.host.silenced:
                    frame = TelemetryFrame(
                        frame_kind="command",
                        station_address=station,
                        points=(("interrogation", "all", 0.0),),
                        sequence_no=0,
                    )
                    self.fabric.send_app_message(
                        self.host.node_id,
                        address,
                        "SCADA",
                        frame_length(1),
                        {"type": "interrogation", "frame": frame},
                        self.host.node_id,
                    )
                    self.interrogations_sent += 1
        for point in self.table.values():
            self.history.append(
                (step, point.station, point.point_id, point.quantity, point.value, point.stale)
            )

    def value(self, station: str, point_id: str) -> float | None:
        point = self.table.get((station, point_id))
        return None if point is None else point.value
