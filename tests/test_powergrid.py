import math
import random

import pytest

from scadasim.powergrid import (
    BoundPoint,
    Bus,
    Der,
    GridConfigError,
    GridModel,
    Line,
    Load,
    RtuBinding,
    Transformer,
    check_power_balance,
    measurements_for,
    sample_load_profile,
    solve_power_flow,
)


def feeder(loads=(), ders=(), lines=(), buses=()):
    base_buses = (Bus("mv", 10.0), Bus("lv", 0.4)) + tuple(buses)
    return GridModel(
        buses=base_buses,
        lines=tuple(lines),
        transformer=Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
        loads=tuple(loads),
        ders=tuple(ders),
    )


def two_bus_grid(r_ohm, x_ohm, p_kw, q_kvar):
    return feeder(
        buses=(Bus("b2", 0.4),),
        lines=(Line("l1", "lv", "b2", r_ohm, x_ohm, 400.0),),
        loads=(Load("ld", "b2", p_kw, q_kvar),),
    )


class TestValidation:
    def test_disconnected_bus_rejected(self):
        grid = feeder(buses=(Bus("island", 0.4),), lines=(Line("l1", "lv", "lv", 0.1, 0.1, 100),))
        with pytest.raises(GridConfigError):
            grid.validate()

    def test_non_radial_rejected(self):
        grid = feeder(
            buses=(Bus("b2", 0.4), Bus("b3", 0.4)),
            lines=(
                Line("l1", "lv", "b2", 0.1, 0.1, 100),
                Line("l2", "lv", "b3", 0.1, 0.1, 100),
                Line("l3", "b2", "b3", 0.1, 0.1, 100),
            ),
        )
        with pytest.raises(GridConfigError, match="not radial"):
            grid.validate()

    def test_unknown_load_bus_rejected(self):
        grid = feeder(loads=(Load("ld", "nope", 10, 0),))
        with pytest.raises(GridConfigError, match="unknown bus"):
            grid.validate()


class TestSolver:
    def test_no_injection_gives_flat_profile(self):
        grid = feeder(buses=(Bus("b2", 0.4),), lines=(Line("l1", "lv", "b2", 0.1, 0.1, 100),))
        sol = solve_power_flow(grid)
        assert sol.converged
        assert sol.transformer_loading_percent == pytest.approx(0.0, abs=1e-12)
        assert sol.transformer_p_kw == pytest.approx(0.0, abs=1e-12)
        for v in sol.bus_voltage_pu.values():
            assert v == pytest.approx(1.0, abs=1e-12)
        for p in sol.line_p_kw.values():
            assert p == pytest.approx(0.0, abs=1e-12)

    def test_lossless_line_conserves_power(self):
        # only the transformer impedance dissipates; a tiny-impedance line passes 100 kW
        grid = feeder(
            buses=(Bus("b2", 0.4),),
            lines=(Line("l1", "lv", "b2", 1e-9, 1e-9, 400.0),),
            loads=(Load("ld", "b2", 100.0, 0.0),),
        )
        sol = solve_power_flow(grid)
        assert sol.converged
        assert sol.line_p_kw["l1"] == pytest.approx(100.0, abs=1e-3)

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
            sol = solve_power_flow(grid)
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
            sol = solve_power_flow(grid, load_scaling={"ld2": f, "ld3": f})
            assert sol.converged
            apparent = math.hypot(sol.transformer_p_kw, sol.transformer_q_kvar)
            assert apparent >= previous
            previous = apparent

    def test_negative_scaling_rejected(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 0.0)
        with pytest.raises(GridConfigError, match="finite and >= 0"):
            solve_power_flow(grid, load_scaling={"ld": -1.0})


class TestLoadProfile:
    def test_deterministic_per_seed_and_step(self):
        ids = ["a", "b"]
        assert sample_load_profile(9, 100, ids) == sample_load_profile(9, 100, ids)
        assert sample_load_profile(9, 100, ids) != sample_load_profile(9, 101, ids)
        assert sample_load_profile(9, 100, ids) != sample_load_profile(10, 100, ids)

    def test_zero_noise_is_periodic_base_shape(self):
        a = sample_load_profile(1, 7, ["x"], day_steps=100, noise_amplitude=0.0)
        b = sample_load_profile(1, 107, ["x"], day_steps=100, noise_amplitude=0.0)
        c = sample_load_profile(99, 7, ["x"], day_steps=100, noise_amplitude=0.0)
        assert a == b == c

    def test_bounds_hold_over_long_sweep(self):
        lo, hi = 10.0, -10.0
        for step in range(10_000):
            value = sample_load_profile(3, step, ["x"])["x"]
            lo, hi = min(lo, value), max(hi, value)
        assert 0.2 <= lo <= hi <= 1.5


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
        sol = solve_power_flow(grid)
        measurements = measurements_for(self.binding(), sol)
        assert len(measurements) == 3
        assert [m.quantity for m in measurements] == [
            "transformer_loading_percent", "P_kW", "Q_kvar",
        ]

    def test_empty_binding_gives_empty_list(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        sol = solve_power_flow(grid)
        assert measurements_for(RtuBinding("rtu1"), sol) == []

    def test_values_are_copied_from_solution(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        sol = solve_power_flow(grid)
        sol.transformer_p_kw = 120.0
        m = measurements_for(self.binding(), sol)[1]
        assert m.value == 120.0

    def test_unknown_element_rejected_at_validation(self):
        grid = two_bus_grid(0.1, 0.1, 50.0, 10.0)
        binding = RtuBinding("rtu1", (BoundPoint("m1", "V_pu", "ghost-bus"),))
        with pytest.raises(GridConfigError, match="unknown bus"):
            binding.validate(grid)
