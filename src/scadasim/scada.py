"""MTU and RTU application behavior over a simplified telemetry framing.

Frames are 25 bytes of header plus 12 bytes per point, so packet lengths are
deterministic and meaningful to a length-based detector. RTUs push one
measurement report per grid step as a plain payload: ``station``, ``seq`` and
``points``, each point a ``(point_id, quantity, value)`` tuple. The MTU
acknowledges each report, keeps a last-value table, and re-interrogates
stations that went stale (three missed cycles). Each attack outcome is one
attribute, set through the RTU's compromise hooks: a DoS sets the RTU host's
``SimHost.silenced``, so nothing leaves that host again; a manipulation sets
``RtuApp.transform``, a per-quantity ``(scale, offset)`` map applied to every
later report.
"""

from __future__ import annotations

from .engine import MS_PER_STEP, Engine
from .network import NetworkFabric, Packet
from .powergrid import RtuBinding, measurements_for

FRAME_HEADER_BYTES = 25
BYTES_PER_POINT = 12
CHECK_OFFSET_MS = 900  # the MTU checks its table 900 ms into each step


def frame_length(n_points: int) -> int:
    return FRAME_HEADER_BYTES + BYTES_PER_POINT * n_points


class RtuApp:
    """Telemetry behavior of one RTU station; engine target ``rtu:<station>``."""

    def __init__(
        self,
        engine: Engine,
        fabric: NetworkFabric,
        host,
        binding: RtuBinding,
        mtu_address: str,
        grid,
        report_offset_ms: int,
    ):
        self.fabric = fabric
        self.host = host
        self.binding = binding
        self.mtu_address = mtu_address
        self.grid = grid
        self.report_offset_ms = report_offset_ms
        self.transform: dict[str, tuple[float, float]] | None = None  # quantity -> (scale, offset)
        self.reports_sent = 0  # also the seq of the last report
        engine.register(f"rtu:{binding.station}", self.handle)
        engine.schedule(report_offset_ms, f"rtu:{binding.station}", "report")

    def handle(self, engine: Engine, kind: str, payload) -> None:
        self.emit_report()
        engine.schedule((engine.now // MS_PER_STEP + 1) * MS_PER_STEP + self.report_offset_ms,
                        f"rtu:{self.binding.station}", "report")

    def emit_report(self) -> None:
        """One measurement report per cycle, unless the host was silenced."""
        if self.host.silenced:
            return
        solution = self.grid.current_solution()
        if solution is None:
            return
        transform = self.transform
        manipulated = False
        points = []
        for point_id, quantity, value in measurements_for(self.binding, solution):
            if transform is not None:
                scale, offset = transform.get(quantity, (1.0, 0.0))
                transformed = value * scale + offset
                if transformed != value:
                    manipulated = True
                value = transformed
            points.append((point_id, quantity, value))
        self.reports_sent += 1
        self.fabric.send_app_message(
            self.host.node_id,
            self.mtu_address,
            "SCADA",
            frame_length(len(points)),
            {"type": "telemetry_report", "station": self.binding.station, "seq": self.reports_sent,
             "points": points, "manipulated": manipulated},
        )

    def on_telemetry(self, fabric: NetworkFabric, packet: Packet) -> None:
        kind = packet.payload["type"]
        if kind == "interrogation":
            self.emit_report()
        # acks carry no state the RTU needs

    # -- compromise hooks, reached through a root session on the host ------------

    def apply_dos(self) -> None:
        """Silence the host for good: no report, reply or ack leaves it from now on."""
        self.host.silenced = True

    def apply_manipulate(self, transform: dict[str, tuple[float, float]]) -> None:
        """Affine per-quantity transform applied to all subsequent reports."""
        self.transform = dict(transform)


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
        interrogate_stale: bool,
    ):
        self.engine = engine
        self.fabric = fabric
        self.host = host
        self.stations = dict(stations)
        self.interrogate_stale = interrogate_stale
        self.table: dict[tuple[str, str], tuple[str, float]] = {}  # -> (quantity, value)
        self.last_report_step: dict[str, int] = {s: 0 for s in stations}
        self.last_sequence: dict[str, int] = {}
        self.out_of_order_count = 0
        self.malformed_count = 0
        self.interrogations_sent = 0
        self.history: list[tuple[int, str, str, str, float, bool]] = []
        engine.register("mtu", self.handle)
        engine.schedule(CHECK_OFFSET_MS, "mtu", "cycle_check")

    def handle(self, engine: Engine, kind: str, payload) -> None:
        self.cycle_check()
        engine.schedule((engine.now // MS_PER_STEP + 1) * MS_PER_STEP + CHECK_OFFSET_MS,
                        "mtu", "cycle_check")

    def on_telemetry(self, fabric: NetworkFabric, packet: Packet) -> None:
        report = packet.payload
        if report["type"] == "telemetry_report" and self.ingest(report):
            fabric.send_app_message(
                self.host.node_id, packet.src, "SCADA", frame_length(0), {"type": "telemetry_ack"}
            )

    def ingest(self, report: dict) -> bool:
        """Update the point table; returns False for a report with no points (dropped)."""
        if not report["points"]:
            self.malformed_count += 1
            return False
        station = report["station"]
        last_seq = self.last_sequence.get(station)
        if last_seq is not None and report["seq"] <= last_seq:
            self.out_of_order_count += 1
            return True  # acked but not applied: newer data already in the table
        self.last_sequence[station] = report["seq"]
        self.last_report_step[station] = self.engine.now // MS_PER_STEP
        for point_id, quantity, value in report["points"]:
            self.table[(station, point_id)] = (quantity, value)
        return True

    def cycle_check(self) -> None:
        """Find stale stations, optionally re-interrogate them, snapshot the table."""
        step = self.engine.now // MS_PER_STEP
        stale_stations = set()
        for station, address in self.stations.items():
            if step - self.last_report_step[station] > self.STALE_AFTER_CYCLES:
                stale_stations.add(station)
                if self.interrogate_stale and not self.host.silenced:
                    self.fabric.send_app_message(
                        self.host.node_id, address, "SCADA", frame_length(1),
                        {"type": "interrogation"},
                    )
                    self.interrogations_sent += 1
        for (station, point_id), (quantity, value) in self.table.items():
            self.history.append(
                (step, station, point_id, quantity, value, station in stale_stations)
            )
