import math
import random
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scadasim.config import ConfigError, load_config_dict
from scadasim.powergrid import (
    BoundPoint,
    Bus,
    Der,
    Feeder,
    GridModel,
    Line,
    Load,
    PowerFlowSolution,
    RtuBinding,
    Transformer,
    measurements_for,
    sample_load_profile,
)
from scadasim.scenario import fixture_text

from power_balance import PowerBalanceError, check_power_balance


def feeder(loads=(), ders=(), lines=(), buses=()):
    base_buses = (Bus("mv", 10.0), Bus("lv", 0.4)) + tuple(buses)
    return GridModel(
        buses=base_buses,
        lines=tuple(lines),
        transformer=Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
        loads=tuple(loads),
        ders=tuple(ders),
    )


def reference_errors(mutate):
    """The loader's errors on the reference fixture after ``mutate`` edits its YAML."""
    raw = yaml.safe_load(fixture_text("reference"))
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        load_config_dict(raw)
    return err.value.errors


def two_bus_grid(r_ohm, x_ohm, p_kw, q_kvar):
    return feeder(
        buses=(Bus("b2", 0.4),),
        lines=(Line("l1", "lv", "b2", r_ohm, x_ohm, 400.0),),
        loads=(Load("ld", "b2", p_kw, q_kvar),),
    )


# ---------------------------------------------------------------------------
# frozen oracle: the dict-based sweep that Feeder replaced, kept verbatim in its
# float operations so that Feeder can be held to it bit for bit
# ---------------------------------------------------------------------------

def _oracle_tree_order(grid):
    s_base_kva = grid.transformer.rating_kva
    adjacency = {b.bus_id: [] for b in grid.buses}

    def nominal_kv(bus_id):
        for b in grid.buses:
            if b.bus_id == bus_id:
                return b.nominal_kv
        raise KeyError(f"unknown bus {bus_id!r}")

    def z_pu(r_ohm, x_ohm, side_bus):
        v_kv = nominal_kv(side_bus)
        z_base = v_kv * v_kv * 1000.0 / s_base_kva
        return complex(r_ohm, x_ohm) / z_base

    tx = grid.transformer
    z_tx = z_pu(tx.resistance_ohm, tx.reactance_ohm, tx.lv_bus)
    adjacency[tx.hv_bus].append((tx.lv_bus, z_tx, tx.transformer_id))
    adjacency[tx.lv_bus].append((tx.hv_bus, z_tx, tx.transformer_id))
    for ln in grid.lines:
        z = z_pu(ln.resistance_ohm, ln.reactance_ohm, ln.to_bus)
        adjacency[ln.from_bus].append((ln.to_bus, z, ln.line_id))
        adjacency[ln.to_bus].append((ln.from_bus, z, ln.line_id))

    ordered = []
    seen = {tx.hv_bus}
    queue = [tx.hv_bus]
    while queue:
        parent = queue.pop(0)
        for child, z, edge_id in adjacency[parent]:
            if child not in seen:
                seen.add(child)
                ordered.append((parent, child, z, edge_id))
                queue.append(child)
    return ordered


def _oracle_solve(grid, load_scaling=None, tol_pu=1e-8, max_iterations=50):
    load_scaling = load_scaling or {}
    s_base = grid.transformer.rating_kva
    slack = grid.transformer.hv_bus
    ordered = _oracle_tree_order(grid)
    s_net = {b.bus_id: 0j for b in grid.buses}
    for ld in grid.loads:
        s_net[ld.bus] += complex(ld.p_kw, ld.q_kvar) * load_scaling.get(ld.load_id, 1.0) / s_base
    for der in grid.ders:
        s_net[der.bus] -= complex(der.p_kw, 0.0) / s_base

    voltage = {bus: 1.0 + 0j for bus in s_net}
    into_bus = {child: edge_id for _, child, _, edge_id in ordered}
    branch_current = {edge_id: 0j for _, _, _, edge_id in ordered}
    converged = False
    for _ in range(max_iterations):
        inj = {bus: (s_net[bus] / voltage[bus]).conjugate() for bus in s_net}
        branch_current = {edge_id: 0j for _, _, _, edge_id in ordered}
        for parent, child, _, edge_id in reversed(ordered):
            current = inj[child] + branch_current[edge_id]
            branch_current[edge_id] = current
            if parent != slack:
                branch_current[into_bus[parent]] += current
        max_delta = 0.0
        for parent, child, z, edge_id in ordered:
            new_v = voltage[parent] - z * branch_current[edge_id]
            max_delta = max(max_delta, abs(new_v - voltage[child]))
            voltage[child] = new_v
        if max_delta < tol_pu:
            converged = True
            break

    tx_id = grid.transformer.transformer_id
    tx_s = voltage[slack] * branch_current[tx_id].conjugate() * s_base
    return PowerFlowSolution(
        converged=converged,
        bus_voltage_pu={bus: abs(v) for bus, v in voltage.items()},
        transformer_p_kw=tx_s.real,
        transformer_q_kvar=tx_s.imag,
        transformer_loading_percent=abs(tx_s) / grid.transformer.rating_kva * 100.0,
    )


@st.composite
def radial_feeders(draw):
    """2-12 buses on one LV voltage; lines in any order and either direction."""
    kv = draw(st.sampled_from([0.4, 0.69]))
    ohms = st.floats(0.001, 0.05)
    buses = [Bus("mv", 10.0), Bus("lv", kv)]
    lines = []
    for i in range(draw(st.integers(0, 10))):
        parent = draw(st.sampled_from([b.bus_id for b in buses[1:]]))
        ends = (f"b{i}", parent) if draw(st.booleans()) else (parent, f"b{i}")
        r_ohm = draw(st.one_of(st.just(0.0), ohms))
        lines.append(Line(f"l{i}", *ends, r_ohm, draw(ohms), 400.0))
        buses.append(Bus(f"b{i}", kv))
    loads, ders = [], []
    for bus in buses[1:]:
        if draw(st.booleans()):
            loads.append(Load(f"ld-{bus.bus_id}", bus.bus_id,
                              draw(st.floats(0.0, 15.0)), draw(st.floats(0.0, 6.0))))
        if draw(st.integers(0, 2)) == 0:
            ders.append(Der(f"der-{bus.bus_id}", bus.bus_id, draw(st.floats(0.0, 10.0))))
    return GridModel(
        buses=tuple(buses),
        lines=tuple(draw(st.permutations(lines))),
        transformer=Transformer("tx", "mv", "lv", 400.0, draw(ohms) / 10, draw(ohms) / 5),
        loads=tuple(loads),
        ders=tuple(ders),
    )


def scalings_for(ids):
    """A scaling dict over a subset of ids (missing keys mean 1.0), or None."""
    factor = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    some = st.dictionaries(st.sampled_from(ids), factor) if ids else st.just({})
    return st.one_of(st.none(), some)


class TestValidation:
    def test_disconnected_bus_rejected(self):
        grid = feeder(buses=(Bus("island", 0.4),), lines=(Line("l1", "lv", "lv", 0.1, 0.1, 100),))
        assert list(grid.problems()) == ["disconnected buses: ['island']"]

    def test_non_radial_rejected(self):
        grid = feeder(
            buses=(Bus("b2", 0.4), Bus("b3", 0.4)),
            lines=(
                Line("l1", "lv", "b2", 0.1, 0.1, 100),
                Line("l2", "lv", "b3", 0.1, 0.1, 100),
                Line("l3", "b2", "b3", 0.1, 0.1, 100),
            ),
        )
        assert list(grid.problems()) == ["not radial: 4 edges for 4 buses (need buses-1)"]

    def test_duplicate_edge_id_rejected(self):
        grid = feeder(buses=(Bus("b2", 0.4),), lines=(Line("tx", "lv", "b2", 0.1, 0.1, 100),))
        assert list(grid.problems()) == ["duplicate transformer/line id 'tx'"]

    def test_unknown_load_bus_rejected(self):
        errors = reference_errors(lambda raw: raw["grid"]["loads"][0].update(bus="nope"))
        assert errors == ["grid.loads[0].bus: unknown bus 'nope'"]

    def test_unknown_bus_is_refused_by_the_power_balance_check_by_name(self):
        # the oracle solves grids built in tests, which no loader has read
        grid = feeder(loads=(Load("ld", "nope", 10, 0),))
        with pytest.raises(PowerBalanceError, match="grid names an unknown bus: 'nope'"):
            check_power_balance(grid)

    def test_bus_without_a_positive_voltage_rejected(self):
        # the solver divides each impedance by its bus's base impedance, nominal_kv squared
        grid = feeder(buses=(Bus("b2", 0.0), Bus("b3", -0.4)),
                      lines=(Line("l1", "lv", "b2", 0.1, 0.1, 100),
                             Line("l2", "lv", "b3", 0.1, 0.1, 100)))
        assert list(grid.problems()) == ["bus b2: nominal_kv must be > 0",
                                         "bus b3: nominal_kv must be > 0"]

    def test_every_problem_is_listed_and_no_check_reads_a_bad_reference(self):
        # connectivity would look up the unknown bus, so it is not checked
        grid = feeder(buses=(Bus("lv", 0.4),), lines=(Line("l1", "lv", "ghost", 0.1, 0.1, 0),),
                      loads=(Load("ld", "nope", 10, 0),), ders=(Der("pv", "nope", 5),))
        assert list(grid.problems()) == ["duplicate bus id 'lv'", "line l1: rating must be > 0"]

    def test_every_unknown_bus_is_named_by_the_loader_with_the_grid_problems(self):
        def mutate(raw):
            grid = raw["grid"]
            grid["buses"].append({"id": "lv", "nominal_kv": 0.4})
            grid["lines"][0].update(to="ghost", rating_kva=0)
            grid["loads"][0]["bus"] = grid["ders"][0]["bus"] = "nope"
            grid["transformer"]["hv_bus"] = "ghost-mv"
        assert sorted(reference_errors(mutate)) == sorted([
            "grid: duplicate bus id 'lv'", "grid: not radial: 4 edges for 6 buses (need buses-1)",
            "grid: line lf1: rating must be > 0",
            "grid.transformer.hv_bus: unknown bus 'ghost-mv'",
            "grid.lines[0].to: unknown bus 'ghost'", "grid.loads[0].bus: unknown bus 'nope'",
            "grid.ders[0].bus: unknown bus 'nope'"])


class TestSolver:
    def test_no_injection_gives_flat_profile(self):
        grid = feeder(buses=(Bus("b2", 0.4),), lines=(Line("l1", "lv", "b2", 0.1, 0.1, 100),))
        sol = Feeder(grid).solve()
        assert sol.converged
        assert sol.transformer_loading_percent == pytest.approx(0.0, abs=1e-12)
        assert sol.transformer_p_kw == pytest.approx(0.0, abs=1e-12)
        for v in sol.bus_voltage_pu.values():
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_lossless_line_conserves_power(self):
        # only the transformer impedance dissipates; a tiny-impedance line passes
        # 100 kW, so the transformer delivers what it does to the load on its own bus
        grid = feeder(
            buses=(Bus("b2", 0.4),),
            lines=(Line("l1", "lv", "b2", 1e-9, 1e-9, 400.0),),
            loads=(Load("ld", "b2", 100.0, 0.0),),
        )
        sol = Feeder(grid).solve()
        assert sol.converged
        direct = Feeder(feeder(loads=(Load("ld", "lv", 100.0, 0.0),))).solve()
        assert sol.transformer_p_kw == pytest.approx(direct.transformer_p_kw, abs=1e-3)

    def test_two_bus_matches_analytic_oracle(self):
        # DistFlow quadratic for |V2|^2, derived independently of the sweep:
        # u^2 + u*(2(pr+qx) - |V1|^2) + (p^2+q^2)|z|^2 = 0, physical root is the larger one.
        rng = random.Random(20240811)
        for _ in range(50):
            r = rng.uniform(0.01, 0.2)
            x = rng.uniform(0.01, 0.2)
            p_kw = rng.uniform(5.0, 120.0)
            q_kvar = rng.uniform(0.0, 50.0)
            grid = two_bus_grid(r, x, p_kw, q_kvar)
            # per-unit quantities on the LV side
            s_base = 400.0
            z_base = 0.4 * 0.4 * 1000.0 / s_base
            rpu, xpu = r / z_base, x / z_base
            p, q = p_kw / s_base, q_kvar / s_base
            sol = Feeder(grid).solve()
            assert sol.converged
            v1 = sol.bus_voltage_pu["lv"]  # sending end actually solved by the sweep
            b = 2.0 * (p * rpu + q * xpu) - v1 * v1
            c = (p * p + q * q) * (rpu * rpu + xpu * xpu)
            disc = b * b - 4.0 * c
            assert disc > 0.0
            u = (-b + math.sqrt(disc)) / 2.0
            assert sol.bus_voltage_pu["b2"] == pytest.approx(math.sqrt(u), abs=1e-6)

    def test_power_balance_on_random_radial_grids(self):
        rng = random.Random(77)
        for trial in range(30):
            n_extra = rng.randint(0, 18)  # 2..20 buses total
            buses = [Bus("mv", 10.0), Bus("lv", 0.4)]
            lines = []
            loads = []
            ders = []
            attached = ["lv"]
            for i in range(n_extra):
                bus_id = f"b{i}"
                parent = rng.choice(attached)
                buses.append(Bus(bus_id, 0.4))
                lines.append(
                    Line(f"l{i}", parent, bus_id, rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05), 400.0)
                )
                attached.append(bus_id)
                if rng.random() < 0.8:
                    loads.append(Load(f"ld{i}", bus_id, rng.uniform(1.0, 15.0), rng.uniform(0.0, 6.0)))
                if rng.random() < 0.3:
                    ders.append(Der(f"der{i}", bus_id, rng.uniform(0.0, 8.0)))
            grid = GridModel(
                buses=tuple(buses),
                lines=tuple(lines),
                transformer=Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
                loads=tuple(loads),
                ders=tuple(ders),
            )
            assert check_power_balance(grid) < 1e-6

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_feeder_matches_frozen_dict_solver_bit_for_bit(self, data):
        grid = data.draw(radial_feeders(), label="grid")
        load_ids = [ld.load_id for ld in grid.loads]
        steps = data.draw(st.lists(scalings_for(load_ids), min_size=3, max_size=5),
                          label="scalings")
        cap = data.draw(st.sampled_from([0, 1, 3, 50]), label="max_iterations")
        expected = [repr(_oracle_solve(grid, ls, 1e-8, cap)) for ls in steps]
        reused = Feeder(grid)
        for i in data.draw(st.permutations(range(len(steps))), label="order"):
            ls = steps[i]
            assert repr(reused.solve(ls, cap)) == expected[i]
            assert repr(Feeder(grid).solve(ls, cap)) == expected[i]
            assert check_power_balance(grid, ls) < 1e-6

    def test_monotone_loading_under_uniform_scaling(self):
        grid = feeder(
            buses=(Bus("b2", 0.4), Bus("b3", 0.4)),
            lines=(
                Line("l1", "lv", "b2", 0.05, 0.05, 400.0),
                Line("l2", "b2", "b3", 0.05, 0.05, 400.0),
            ),
            loads=(Load("ld2", "b2", 50.0, 10.0), Load("ld3", "b3", 30.0, 5.0)),
            ders=(Der("pv", "b3", 10.0),),
        )
        # DER held fixed but below total load, so higher scaling means more import
        previous = 0.0
        for f in (1.0, 1.1, 1.25, 1.5, 2.0):
            sol = Feeder(grid).solve(load_scaling={"ld2": f, "ld3": f})
            assert sol.converged
            apparent = math.hypot(sol.transformer_p_kw, sol.transformer_q_kvar)
            assert apparent >= previous
            previous = apparent

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
    def test_power_balance_refuses_non_finite_or_negative_scaling(self, factor):
        # a NaN scaling made every voltage NaN, and the check then reported 0.0
        grid = two_bus_grid(0.1, 0.1, 50.0, 0.0)
        with pytest.raises(PowerBalanceError, match="finite and >= 0"):
            check_power_balance(grid, load_scaling={"ld": factor})


class TestLoadProfile:
    def test_deterministic_per_seed_and_step(self):
        ids, shape = ["a", "b"], {"day_steps": 1440, "noise_amplitude": 0.1}
        assert sample_load_profile(9, 100, ids, **shape) == sample_load_profile(9, 100, ids, **shape)
        assert sample_load_profile(9, 100, ids, **shape) != sample_load_profile(9, 101, ids, **shape)
        assert sample_load_profile(9, 100, ids, **shape) != sample_load_profile(10, 100, ids, **shape)

    def test_zero_noise_is_periodic_base_shape(self):
        a = sample_load_profile(1, 7, ["x"], day_steps=100, noise_amplitude=0.0)
        b = sample_load_profile(1, 107, ["x"], day_steps=100, noise_amplitude=0.0)
        c = sample_load_profile(99, 7, ["x"], day_steps=100, noise_amplitude=0.0)
        assert a == b == c

    def test_bounds_hold_over_long_sweep(self):
        lo, hi = 10.0, -10.0
        for step in range(10_000):
            value = sample_load_profile(3, step, ["x"], day_steps=1440, noise_amplitude=0.1)["x"]
            lo, hi = min(lo, value), max(hi, value)
        assert 0.2 <= lo <= hi <= 1.5

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        step=st.integers(0, 10**6),
        day_steps=st.integers(1, 10**6),
        noise_amplitude=st.one_of(
            st.floats(0.0, 2.0),
            st.floats(1e300, 1.7976931348623157e308),  # 2 * amplitude overflows to inf
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_factors_stay_in_bounds_for_every_profile_the_loader_accepts(
        self, seed, step, day_steps, noise_amplitude
    ):
        # Feeder.solve relies on this: it does not check that a factor is finite and >= 0
        factors = sample_load_profile(seed, step, ["a", "b", "c"], day_steps, noise_amplitude)
        assert all(0.2 <= f <= 1.5 for f in factors.values())

    @pytest.mark.parametrize("draw, clamped", [(0.0, 0.2), (0.5, 1.5)])
    def test_overflowing_noise_is_clamped(self, draw, clamped):
        # uniform(-a, a) is -a + (2a) * random(); past about 9e307 2a is inf, so
        # the noise is NaN for a draw of 0 and inf for any other draw
        with mock.patch.object(random.Random, "random", return_value=draw):
            factor = sample_load_profile(0, 0, ["x"], 1, 1.7976931348623157e308)["x"]
        assert factor == clamped


class TestMeasurements:
    def binding(self):
        return RtuBinding(
            station="rtu1",
            points=(
                BoundPoint("m1", "transformer_loading_percent", "tx"),
                BoundPoint("m2", "P_kW", "tx"),
                BoundPoint("m3", "Q_kvar", "tx"),
            ),
        )

    def test_three_bound_points_give_three_measurements(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        sol = Feeder(grid).solve()
        measurements = measurements_for(self.binding(), sol)
        assert len(measurements) == 3
        assert [(point_id, quantity) for point_id, quantity, _ in measurements] == [
            ("m1", "transformer_loading_percent"), ("m2", "P_kW"), ("m3", "Q_kvar"),
        ]

    def test_empty_binding_gives_empty_list(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        sol = Feeder(grid).solve()
        assert measurements_for(RtuBinding("rtu1"), sol) == []

    def test_values_are_copied_from_solution(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        sol = Feeder(grid).solve()
        sol.transformer_p_kw = 120.0
        assert measurements_for(self.binding(), sol)[1] == ("m2", "P_kW", 120.0)

    def test_unknown_element_rejected_at_validation(self):
        def mutate(raw):
            raw["scada"]["rtus"][0]["points"] = [
                {"id": "m1", "quantity": "V_pu", "element": "ghost-bus"},
                {"id": "m2", "quantity": "P_kW", "element": "b1"},
                {"id": "m3", "quantity": "V_pu", "element": "b1"}]
        # a V_pu point names a bus, any other the transformer
        assert reference_errors(mutate) == [
            "scada.rtus[0].points[0].element: unknown bus 'ghost-bus'",
            "scada.rtus[0].points[1].element: unknown transformer 'b1'"]
