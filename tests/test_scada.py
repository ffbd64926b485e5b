from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scadasim.engine import Engine
from scadasim.network import IctTopology, NetLink, NetNode, NetworkFabric
from scadasim.powergrid import (
    BoundPoint,
    Bus,
    Feeder,
    GridModel,
    Line,
    Load,
    RtuBinding,
    Transformer,
)
from scadasim.scada import (
    MtuApp,
    RtuApp,
    frame_length,
)
from scadasim.vulnhost import Session, SimHost


BINDING = RtuBinding(
    station="rtu1",
    points=(
        BoundPoint("m1", "transformer_loading_percent", "tx"),
        BoundPoint("m2", "P_kW", "tx"),
        BoundPoint("m3", "Q_kvar", "tx"),
    ),
)


def make_grid():
    return GridModel(
        buses=(Bus("mv", 10.0), Bus("lv", 0.4), Bus("b2", 0.4)),
        lines=(Line("l1", "lv", "b2", 0.05, 0.05, 400.0),),
        transformer=Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
        loads=(Load("ld", "b2", 80.0, 20.0),),
        ders=(),
    )


class StaticGrid:
    """Grid stand-in: one fixed converged solution."""

    def __init__(self):
        self.solution = Feeder(make_grid()).solve()

    def current_solution(self):
        return self.solution


def rig(interrogate=True, binding=BINDING):
    topo = IctTopology(
        nodes=[
            NetNode("rtu1-host", "host", "10.0.0.11"),
            NetNode("sw", "switch"),
            NetNode("mtu-host", "host", "10.0.0.10"),
        ],
        links=[NetLink("l1", "rtu1-host", "sw"), NetLink("l2", "sw", "mtu-host")],
    )
    engine = Engine()
    fabric = NetworkFabric(topo, engine, 3)
    rtu_host = SimHost("rtu1-host", "10.0.0.11", {}, frozenset())
    mtu_host = SimHost("mtu-host", "10.0.0.10", {}, frozenset())
    fabric.register_app("rtu1-host", rtu_host)
    fabric.register_app("mtu-host", mtu_host)
    grid = StaticGrid()
    rtu = RtuApp(engine, fabric, rtu_host, binding, "10.0.0.10", grid, report_offset_ms=20)
    mtu = MtuApp(engine, fabric, mtu_host, {"rtu1": "10.0.0.11"}, interrogate_stale=interrogate)
    rtu_host.scada_app = rtu
    mtu_host.scada_app = mtu
    return engine, fabric, rtu, mtu, grid


def report(station, seq, points):
    """A telemetry report payload as RtuApp sends it."""
    return {"type": "telemetry_report", "station": station, "seq": seq,
            "points": points, "manipulated": False}


def spy_sends(fabric):
    """Record every packet the fabric is asked to send from now on."""
    captured = []
    original = fabric.send_app_message

    def spy(*args, **kwargs):
        packet = original(*args, **kwargs)
        captured.append(packet)
        return packet

    fabric.send_app_message = spy
    return captured


def stale_flags_at(mtu, step):
    return {stale for row_step, _, _, _, _, stale in mtu.history if row_step == step}


class TestReporting:
    def test_frame_length_rule(self):
        assert frame_length(3) == 61
        assert frame_length(0) == 25

    def test_report_cycle_fills_mtu_table_with_true_values(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(5999)
        assert mtu.table[("rtu1", "m2")][1] == grid.solution.transformer_p_kw
        assert mtu.table[("rtu1", "m1")][1] == grid.solution.transformer_loading_percent
        assert mtu.out_of_order_count == 0

    def test_points_of_the_same_quantity_keep_their_own_ids(self):
        binding = RtuBinding(
            "rtu1", (BoundPoint("va", "V_pu", "lv"), BoundPoint("vb", "V_pu", "b2"))
        )
        engine, fabric, rtu, mtu, grid = rig(binding=binding)
        engine.run(1999)
        assert sorted(point_id for _, point_id in mtu.table) == ["va", "vb"]
        assert mtu.table[("rtu1", "va")][1] == grid.solution.bus_voltage_pu["lv"]
        assert mtu.table[("rtu1", "vb")][1] == grid.solution.bus_voltage_pu["b2"]

    def test_one_report_per_cycle_with_strictly_increasing_sequence(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(9999)
        assert rtu.reports_sent == 10
        assert mtu.last_sequence["rtu1"] == 10  # each report's seq counts the reports sent

    def test_manipulate_scales_reported_values(self):
        engine, fabric, rtu, mtu, grid = rig()
        rtu.apply_manipulate({"P_kW": (0.5, 0.0)})
        engine.run(3999)
        assert mtu.table[("rtu1", "m2")][1] == pytest.approx(grid.solution.transformer_p_kw * 0.5)
        # untransformed quantity passes through
        assert mtu.table[("rtu1", "m1")][1] == grid.solution.transformer_loading_percent

    def test_identity_transform_reports_true_values_unflagged(self):
        engine, fabric, rtu, mtu, grid = rig()
        rtu.apply_manipulate({"P_kW": (1.0, 0.0)})
        captured = spy_sends(fabric)
        engine.run(2999)
        reports = [p for p in captured if p.payload.get("type") == "telemetry_report"]
        assert reports and all(p.payload["manipulated"] is False for p in reports)
        assert mtu.table[("rtu1", "m2")][1] == grid.solution.transformer_p_kw

    def test_dos_stops_all_reports_after_activation(self):
        engine, fabric, rtu, mtu, grid = rig(interrogate=False)
        engine.run(4999)

        class Stop:
            def __init__(self, rtu):
                self.rtu = rtu

            def __call__(self, eng, kind, payload):
                self.rtu.apply_dos()

        engine.register("killer", Stop(rtu))
        engine.schedule(5010, "killer", "go")
        engine.run(20_999)
        assert rtu.reports_sent == 5  # steps 0..4 only
        assert rtu.host.silenced


def root_session(host):
    session = Session(f"{host.node_id}-s1", "root")
    host.sessions[session.session_id] = session
    return session


class TestCompromiseHooks:
    def test_rooted_mtu_host_has_no_telemetry_service_to_stop_or_spoof(self):
        engine, fabric, rtu, mtu, grid = rig()
        session = root_session(mtu.host)
        assert mtu.host.exec_command(session, "stop_service") == "error: no telemetry service"
        assert mtu.host.exec_command(session, "spoof P_kW=0.5,0") == "error: no telemetry service"
        assert mtu.host.silenced is False
        engine.run(3999)
        assert sorted({row[0] for row in mtu.history}) == [0, 1, 2, 3]  # one check per step
        assert mtu.table[("rtu1", "m2")][1] == grid.solution.transformer_p_kw


class TestMtuIngest:
    def test_out_of_order_sequence_keeps_newer_value(self):
        engine, fabric, rtu, mtu, grid = rig()
        assert mtu.ingest(report("rtu1", 5, [("m2", "P_kW", 60.0)])) is True
        assert mtu.ingest(report("rtu1", 5, [("m2", "P_kW", 30.0)])) is True  # acked but ignored
        assert mtu.ingest(report("rtu1", 4, [("m2", "P_kW", 10.0)])) is True
        assert mtu.table[("rtu1", "m2")][1] == 60.0
        assert mtu.out_of_order_count == 2

    def test_malformed_frame_counted_and_dropped(self):
        engine, fabric, rtu, mtu, grid = rig()
        assert mtu.ingest(report("rtu1", 1, [])) is False
        assert mtu.malformed_count == 1
        # an RTU whose binding has no points sends such reports; none is acked
        engine, fabric, rtu, mtu, grid = rig(binding=RtuBinding("rtu1"))
        captured = spy_sends(fabric)
        engine.run(2999)
        assert rtu.reports_sent == 3
        assert mtu.malformed_count == 3
        assert mtu.table == {} and mtu.last_sequence == {}
        assert [p.payload["type"] for p in captured] == ["telemetry_report"] * 3

    def test_stale_after_three_missed_cycles(self):
        engine, fabric, rtu, mtu, grid = rig(interrogate=False)
        engine.run(2999)
        rtu.host.silenced = True  # silent failure, not a compromise
        engine.run(5999)
        assert stale_flags_at(mtu, 5) == {False}  # step 5: only 3 cycles missed
        engine.run(6999)
        assert stale_flags_at(mtu, 6) == {True}
        assert [row[2] for row in mtu.history if row[0] == 6] == ["m1", "m2", "m3"]

    def test_stale_station_is_reinterrogated(self):
        engine, fabric, rtu, mtu, grid = rig(interrogate=True)
        engine.run(2999)
        rtu.host.silenced = True
        engine.run(10_999)
        assert mtu.interrogations_sent == 5  # stale from step 6, one per check through step 10
        assert stale_flags_at(mtu, 10) == {True}
        rtu.host.silenced = False  # service restored: interrogation triggers a report
        engine.run(11_999)
        assert stale_flags_at(mtu, 11) == {False}

    def test_history_rows_have_csv_shape(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(3999)
        step, station, point, quantity, value, stale = mtu.history[0]
        assert station == "rtu1"
        assert quantity in ("transformer_loading_percent", "P_kW", "Q_kvar")
        assert isinstance(value, float) and isinstance(stale, bool)


@dataclass
class FrozenTablePoint:
    station: str
    point_id: str
    quantity: str
    value: float
    stale: bool = False


class FrozenMtu:
    """Oracle: the MTU table as it was once kept, one object per point with a
    stale flag set by the check that found the station stale and cleared by
    the next applied report. Its ingest and cycle_check are kept verbatim but
    for taking the step as an argument."""

    STALE_AFTER_CYCLES = 3

    def __init__(self, stations, interrogate_stale, silenced):
        self.stations = dict(stations)
        self.interrogate_stale = interrogate_stale
        self.silenced = silenced
        self.table = {}
        self.last_report_step = {s: 0 for s in stations}
        self.last_sequence = {}
        self.out_of_order_count = 0
        self.malformed_count = 0
        self.interrogations_sent = 0
        self.history = []

    def ingest(self, frame, step):
        if len(frame["points"]) < 1:
            self.malformed_count += 1
            return False
        station = frame["station"]
        last_seq = self.last_sequence.get(station)
        if last_seq is not None and frame["seq"] <= last_seq:
            self.out_of_order_count += 1
            return True
        self.last_sequence[station] = frame["seq"]
        self.last_report_step[station] = step
        for point_id, quantity, value in frame["points"]:
            self.table[(station, point_id)] = FrozenTablePoint(
                station=station, point_id=point_id, quantity=quantity, value=value, stale=False,
            )
        return True

    def cycle_check(self, step):
        for station in self.stations:
            missed = step - self.last_report_step.get(station, 0)
            if missed > self.STALE_AFTER_CYCLES:
                for key, point in self.table.items():
                    if key[0] == station:
                        point.stale = True
                if self.interrogate_stale and not self.silenced:
                    self.interrogations_sent += 1
        for point in self.table.values():
            self.history.append(
                (step, point.station, point.point_id, point.quantity, point.value, point.stale)
            )


class RecordingFabric:
    def __init__(self):
        self.sent = []

    def send_app_message(self, src, dst, protocol, length, payload):
        self.sent.append((dst, length, payload))


STATION_POOL = ("s0", "s1", "s2", "x0")
QUANTITY_POOL = ("P_kW", "Q_kvar", "V_pu")


@st.composite
def mtu_runs(draw):
    """Stations, each with a fixed point set, and a random walk of reports and checks."""
    stations = draw(st.lists(st.sampled_from(STATION_POOL), unique=True, max_size=3))
    point_sets = {
        station: draw(st.lists(st.tuples(st.sampled_from(("p0", "p1", "p2")),
                                         st.sampled_from(QUANTITY_POOL)),
                               min_size=1, max_size=3, unique_by=lambda p: p[0]))
        for station in STATION_POOL
    }
    op = st.one_of(
        st.tuples(st.just("advance"), st.integers(1, 5)),
        st.tuples(st.just("check")),
        st.tuples(st.just("report"), st.sampled_from(STATION_POOL), st.integers(0, 6),
                  st.booleans(), st.floats(-1e3, 1e3, allow_nan=False)),
    )
    ops = draw(st.lists(op, max_size=60))
    return stations, point_sets, ops, draw(st.booleans()), draw(st.booleans())


class TestMtuAgainstFrozenCopy:
    @settings(max_examples=200, deadline=None, database=None)
    @given(run=mtu_runs())
    def test_history_and_counters_match_the_per_point_stale_flags(self, run):
        stations, point_sets, ops, interrogate, silenced = run
        addresses = {station: f"10.0.1.{i}" for i, station in enumerate(stations)}
        engine = Engine()
        fabric = RecordingFabric()
        host = SimHost("mtu-host", "10.0.0.10", {}, frozenset())
        host.silenced = silenced
        mtu = MtuApp(engine, fabric, host, addresses, interrogate_stale=interrogate)
        frozen = FrozenMtu(addresses, interrogate, silenced)
        step = 0
        for kind, *args in ops:
            if kind == "advance":
                step += args[0]
            elif kind == "check":
                engine.now = step * 1000 + 900
                mtu.cycle_check()
                frozen.cycle_check(step)
            else:
                station, seq, empty, value = args
                points = [] if empty else [
                    (point_id, quantity, value + i)
                    for i, (point_id, quantity) in enumerate(point_sets[station])
                ]
                engine.now = step * 1000 + 20
                assert mtu.ingest(report(station, seq, points)) == frozen.ingest(
                    report(station, seq, points), step)
        assert mtu.history == frozen.history
        assert mtu.out_of_order_count == frozen.out_of_order_count
        assert mtu.malformed_count == frozen.malformed_count
        assert mtu.interrogations_sent == frozen.interrogations_sent == len(fabric.sent)
        assert all(payload == {"type": "interrogation"} and length == frame_length(1)
                   for _, length, payload in fabric.sent)
