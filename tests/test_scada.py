import pytest

from scadasim.engine import Engine
from scadasim.network import IctTopology, NetLink, NetNode, NetworkFabric
from scadasim.powergrid import (
    BoundPoint,
    Bus,
    GridModel,
    Line,
    Load,
    RtuBinding,
    Transformer,
    solve_power_flow,
)
from scadasim.scada import (
    CompromiseEffect,
    MtuApp,
    RtuApp,
    TelemetryFrame,
    frame_length,
)
from scadasim.vulnhost import SimHost


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
        self.solution = solve_power_flow(make_grid())

    def current_solution(self):
        return self.solution, False


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
    rtu_host = SimHost("rtu1-host", "10.0.0.11")
    mtu_host = SimHost("mtu-host", "10.0.0.10")
    fabric.register_app("rtu1-host", rtu_host)
    fabric.register_app("mtu-host", mtu_host)
    grid = StaticGrid()
    rtu = RtuApp(engine, fabric, rtu_host, "rtu1", binding, "10.0.0.10", grid)
    mtu = MtuApp(engine, fabric, mtu_host, {"rtu1": "10.0.0.11"}, interrogate_stale=interrogate)
    rtu_host.scada_app = rtu
    mtu_host.scada_app = mtu
    return engine, fabric, rtu, mtu, grid


class TestReporting:
    def test_frame_length_rule(self):
        assert frame_length(3) == 61
        assert frame_length(0) == 25

    def test_report_cycle_fills_mtu_table_with_true_values(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(5999)
        assert mtu.value("rtu1", "m2") == grid.solution.transformer_p_kw
        assert mtu.value("rtu1", "m1") == grid.solution.transformer_loading_percent
        assert mtu.out_of_order_count == 0

    def test_points_of_the_same_quantity_keep_their_own_ids(self):
        binding = RtuBinding(
            "rtu1", (BoundPoint("va", "V_pu", "lv"), BoundPoint("vb", "V_pu", "b2"))
        )
        engine, fabric, rtu, mtu, grid = rig(binding=binding)
        engine.run(1999)
        assert sorted(point_id for _, point_id in mtu.table) == ["va", "vb"]
        assert mtu.value("rtu1", "va") == grid.solution.bus_voltage_pu["lv"]
        assert mtu.value("rtu1", "vb") == grid.solution.bus_voltage_pu["b2"]

    def test_one_report_per_cycle_with_strictly_increasing_sequence(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(9999)
        assert rtu.reports_sent == 10
        assert rtu.sequence_no == 10

    def test_manipulate_scales_reported_values(self):
        engine, fabric, rtu, mtu, grid = rig()
        rtu.apply_manipulate({"P_kW": (0.5, 0.0)})
        engine.run(3999)
        assert mtu.value("rtu1", "m2") == pytest.approx(grid.solution.transformer_p_kw * 0.5)
        # untransformed quantity passes through
        assert mtu.value("rtu1", "m1") == grid.solution.transformer_loading_percent

    def test_identity_transform_reports_true_values_unflagged(self):
        engine, fabric, rtu, mtu, grid = rig()
        rtu.apply_manipulate({"P_kW": (1.0, 0.0)})
        captured = []
        original = fabric.send_app_message

        def spy(*args, **kwargs):
            packet = original(*args, **kwargs)
            captured.append(packet)
            return packet

        fabric.send_app_message = spy
        engine.run(2999)
        reports = [p for p in captured if p.payload.get("type") == "telemetry_report"]
        assert reports and all(p.payload["manipulated"] is False for p in reports)
        assert mtu.value("rtu1", "m2") == grid.solution.transformer_p_kw

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
        assert rtu.effect.kind == "dos"
        assert rtu.effect.active_from == 5010


class TestMtuIngest:
    def test_out_of_order_sequence_keeps_newer_value(self):
        engine, fabric, rtu, mtu, grid = rig()
        newer = TelemetryFrame("measurement_report", "rtu1", (("m2", "P_kW", 60.0),), 5)
        older = TelemetryFrame("measurement_report", "rtu1", (("m2", "P_kW", 10.0),), 4)
        assert mtu.ingest(newer) is True
        assert mtu.ingest(older) is True  # acked but ignored
        assert mtu.value("rtu1", "m2") == 60.0
        assert mtu.out_of_order_count == 1

    def test_malformed_frame_counted_and_dropped(self):
        engine, fabric, rtu, mtu, grid = rig()
        empty = TelemetryFrame("measurement_report", "rtu1", (), 1)
        assert mtu.ingest(empty) is False
        assert mtu.malformed_count == 1
        assert mtu.ingest("not a frame") is False
        assert mtu.malformed_count == 2

    def test_stale_after_three_missed_cycles(self):
        engine, fabric, rtu, mtu, grid = rig(interrogate=False)
        engine.run(2999)
        rtu.running = False  # silent failure, not a compromise
        engine.run(5999)
        point = mtu.table[("rtu1", "m2")]
        assert point.stale is False  # step 5: only 3 cycles missed
        engine.run(6999)
        assert mtu.table[("rtu1", "m2")].stale is True

    def test_stale_station_is_reinterrogated(self):
        engine, fabric, rtu, mtu, grid = rig(interrogate=True)
        engine.run(2999)
        rtu.running = False
        engine.run(10_999)
        assert mtu.interrogations_sent == 5  # stale from step 6, one per check through step 10
        rtu.running = True  # service restored: interrogation triggers a report
        engine.run(11_999)
        assert mtu.table[("rtu1", "m2")].stale is False

    def test_history_rows_have_csv_shape(self):
        engine, fabric, rtu, mtu, grid = rig()
        engine.run(3999)
        step, station, point, quantity, value, stale = mtu.history[0]
        assert station == "rtu1"
        assert quantity in ("transformer_loading_percent", "P_kW", "Q_kvar")
        assert isinstance(value, float) and isinstance(stale, bool)


class TestEffectValidation:
    def test_dos_with_transform_rejected(self):
        with pytest.raises(ValueError):
            CompromiseEffect(kind="dos", active_from=0, transform={"P_kW": (0.5, 0)})

    def test_manipulate_requires_transform(self):
        with pytest.raises(ValueError):
            CompromiseEffect(kind="manipulate", active_from=0)
