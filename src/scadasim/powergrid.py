"""Radial MV/LV feeder model and backward/forward-sweep power flow.

The feeder is a tree rooted at the transformer HV bus (the slack). Loads are
constant-power, DER injections are modeled as negative constant-power loads.
Everything is solved in per-unit with the transformer rating as S_base and
each bus's nominal voltage as its local V_base.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .engine import derive_seed


class GridConfigError(ValueError):
    """Grid description violates the radial-feeder invariants."""


@dataclass(frozen=True)
class Bus:
    bus_id: str
    nominal_kv: float


@dataclass(frozen=True)
class Line:
    line_id: str
    from_bus: str
    to_bus: str
    resistance_ohm: float
    reactance_ohm: float
    rating_kva: float


@dataclass(frozen=True)
class Transformer:
    transformer_id: str
    hv_bus: str
    lv_bus: str
    rating_kva: float
    resistance_ohm: float
    reactance_ohm: float


@dataclass(frozen=True)
class Load:
    load_id: str
    bus: str
    p_kw: float
    q_kvar: float


@dataclass(frozen=True)
class Der:
    der_id: str
    bus: str
    p_kw: float


@dataclass(frozen=True)
class GridModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    transformer: Transformer
    loads: tuple[Load, ...]
    ders: tuple[Der, ...]

    def validate(self) -> None:
        """Raise GridConfigError unless the grid is a connected radial feeder."""
        bus_ids = [b.bus_id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise GridConfigError("duplicate bus ids")
        known = set(bus_ids)
        edges = [(self.transformer.hv_bus, self.transformer.lv_bus)]
        edges += [(ln.from_bus, ln.to_bus) for ln in self.lines]
        for a, b in edges:
            if a not in known or b not in known:
                raise GridConfigError(f"edge references unknown bus: {a!r}-{b!r}")
        if len(edges) != len(self.buses) - 1:
            raise GridConfigError(
                f"not radial: {len(edges)} edges for {len(self.buses)} buses (need buses-1)"
            )
        for ln in self.lines:
            if ln.resistance_ohm <= 0 and ln.reactance_ohm <= 0:
                raise GridConfigError(f"line {ln.line_id}: impedance must be > 0")
            if ln.rating_kva <= 0:
                raise GridConfigError(f"line {ln.line_id}: rating must be > 0")
        if self.transformer.rating_kva <= 0:
            raise GridConfigError("transformer rating must be > 0")
        if self.transformer.resistance_ohm <= 0 and self.transformer.reactance_ohm <= 0:
            raise GridConfigError("transformer impedance must be > 0")
        for ld in self.loads:
            if ld.bus not in known:
                raise GridConfigError(f"load {ld.load_id}: unknown bus {ld.bus!r}")
        for der in self.ders:
            if der.bus not in known:
                raise GridConfigError(f"der {der.der_id}: unknown bus {der.bus!r}")
        adjacency: dict[str, list[str]] = {b: [] for b in known}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = {self.transformer.hv_bus}
        stack = [self.transformer.hv_bus]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != known:
            raise GridConfigError(f"disconnected buses: {sorted(known - seen)}")

    def nominal_kv(self, bus_id: str) -> float:
        for b in self.buses:
            if b.bus_id == bus_id:
                return b.nominal_kv
        raise GridConfigError(f"unknown bus {bus_id!r}")


@dataclass
class PowerFlowSolution:
    converged: bool
    iterations: int
    bus_voltage_pu: dict[str, float]
    line_p_kw: dict[str, float]
    line_q_kvar: dict[str, float]
    transformer_p_kw: float
    transformer_q_kvar: float
    transformer_loading_percent: float


QUANTITIES = ("transformer_loading_percent", "P_kW", "Q_kvar", "V_pu")


@dataclass(frozen=True)
class Measurement:
    source_device: str
    quantity: str
    value: float


@dataclass(frozen=True)
class BoundPoint:
    point_id: str
    quantity: str
    element: str


@dataclass(frozen=True)
class RtuBinding:
    station: str
    points: tuple[BoundPoint, ...] = field(default_factory=tuple)

    def validate(self, grid: GridModel) -> None:
        bus_ids = {b.bus_id for b in grid.buses}
        for pt in self.points:
            if pt.quantity not in QUANTITIES:
                raise GridConfigError(f"binding {pt.point_id}: unknown quantity {pt.quantity!r}")
            if pt.quantity == "V_pu":
                if pt.element not in bus_ids:
                    raise GridConfigError(f"binding {pt.point_id}: unknown bus {pt.element!r}")
            elif pt.element != grid.transformer.transformer_id:
                raise GridConfigError(f"binding {pt.point_id}: unknown grid element {pt.element!r}")


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

def _tree_order(grid: GridModel) -> list[tuple[str, str, complex, str]]:
    """Edges in BFS order from the slack as (parent, child, z_pu, edge_id)."""
    s_base_kva = grid.transformer.rating_kva
    adjacency: dict[str, list[tuple[str, complex, str]]] = {b.bus_id: [] for b in grid.buses}

    def z_pu(r_ohm: float, x_ohm: float, side_bus: str) -> complex:
        v_kv = grid.nominal_kv(side_bus)
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

    ordered: list[tuple[str, str, complex, str]] = []
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


def _net_injections(
    grid: GridModel,
    load_scaling: dict[str, float],
    der_scaling: dict[str, float],
) -> dict[str, complex]:
    """Net constant-power consumption per bus in per-unit (DER negative)."""
    s_base = grid.transformer.rating_kva
    s_net: dict[str, complex] = {b.bus_id: 0j for b in grid.buses}
    for ld in grid.loads:
        s_net[ld.bus] += complex(ld.p_kw, ld.q_kvar) * load_scaling.get(ld.load_id, 1.0) / s_base
    for der in grid.ders:
        s_net[der.bus] -= complex(der.p_kw, 0.0) * der_scaling.get(der.der_id, 1.0) / s_base
    return s_net


def _sweep(
    ordered: list[tuple[str, str, complex, str]],
    slack: str,
    s_net: dict[str, complex],
    tol_pu: float,
    max_iterations: int,
) -> tuple[dict[str, complex], dict[str, complex], bool, int]:
    """Iterate backward/forward sweeps to a voltage fixed point."""
    voltage: dict[str, complex] = {bus: 1.0 + 0j for bus in s_net}
    into_bus = {child: edge_id for _, child, _, edge_id in ordered}
    branch_current: dict[str, complex] = {edge_id: 0j for _, _, _, edge_id in ordered}
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
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
    return voltage, branch_current, converged, iterations


def solve_power_flow(
    grid: GridModel,
    load_scaling: dict[str, float] | None = None,
    der_scaling: dict[str, float] | None = None,
    tol_pu: float = 1e-8,
    max_iterations: int = 50,
) -> PowerFlowSolution:
    """Backward/forward sweep to a fixed point.

    Scaling factors default to 1.0 per element; they must be finite and >= 0.
    Convergence means the largest per-bus voltage change of a sweep fell
    below tol_pu before hitting the iteration cap.
    """
    grid.validate()
    load_scaling = load_scaling or {}
    der_scaling = der_scaling or {}
    for name, factor in list(load_scaling.items()) + list(der_scaling.items()):
        if not math.isfinite(factor) or factor < 0:
            raise GridConfigError(f"scaling for {name!r} must be finite and >= 0, got {factor}")

    s_base = grid.transformer.rating_kva
    slack = grid.transformer.hv_bus
    ordered = _tree_order(grid)
    s_net = _net_injections(grid, load_scaling, der_scaling)
    voltage, branch_current, converged, iterations = _sweep(
        ordered, slack, s_net, tol_pu, max_iterations
    )

    line_p: dict[str, float] = {}
    line_q: dict[str, float] = {}
    tx_s = 0j
    for parent, child, z, edge_id in ordered:
        sending = voltage[parent] * branch_current[edge_id].conjugate() * s_base
        if edge_id == grid.transformer.transformer_id:
            tx_s = sending
        else:
            line_p[edge_id] = sending.real
            line_q[edge_id] = sending.imag

    return PowerFlowSolution(
        converged=converged,
        iterations=iterations,
        bus_voltage_pu={bus: abs(v) for bus, v in voltage.items()},
        line_p_kw=line_p,
        line_q_kvar=line_q,
        transformer_p_kw=tx_s.real,
        transformer_q_kvar=tx_s.imag,
        transformer_loading_percent=abs(tx_s) / grid.transformer.rating_kva * 100.0,
    )


def check_power_balance(
    grid: GridModel,
    load_scaling: dict[str, float] | None = None,
    der_scaling: dict[str, float] | None = None,
) -> float:
    """Solve tightly, then return the worst per-bus power mismatch in per-unit.

    For every non-slack bus the power arriving over the parent edge must equal
    the local net consumption plus the power sent down every child edge.
    """
    grid.validate()
    ordered = _tree_order(grid)
    slack = grid.transformer.hv_bus
    s_net = _net_injections(grid, load_scaling or {}, der_scaling or {})
    voltage, branch_current, converged, _ = _sweep(ordered, slack, s_net, 1e-10, 500)
    if not converged:
        raise GridConfigError("power balance check: sweep did not converge")

    children_of: dict[str, list[str]] = {}
    for parent, child, _, edge_id in ordered:
        children_of.setdefault(parent, []).append(edge_id)
    worst = 0.0
    for parent, child, z, edge_id in ordered:
        received = voltage[child] * branch_current[edge_id].conjugate()
        sent_down = sum(
            (voltage[child] * branch_current[e].conjugate() for e in children_of.get(child, [])),
            start=0j,
        )
        worst = max(worst, abs(received - s_net[child] - sent_down))
    return worst


def sample_load_profile(
    seed: int,
    step: int,
    load_ids: list[str],
    day_steps: int = 1440,
    noise_amplitude: float = 0.1,
) -> dict[str, float]:
    """Per-load scaling factors for one step: smooth daily shape plus seeded noise.

    Deterministic in (seed, step, load id); values always land in [0.2, 1.5].
    """
    phase = 2.0 * math.pi * (step % day_steps) / day_steps
    base = 0.85 + 0.38 * math.sin(phase - 1.76) + 0.07 * math.sin(2.0 * phase + 1.1)
    out: dict[str, float] = {}
    for load_id in load_ids:
        noise = 0.0
        if noise_amplitude > 0:
            rng = random.Random(derive_seed(seed, f"load:{load_id}:{step}"))
            noise = rng.uniform(-noise_amplitude, noise_amplitude)
        out[load_id] = min(1.5, max(0.2, base + noise))
    return out


def measurements_for(binding: RtuBinding, solution: PowerFlowSolution) -> list[Measurement]:
    """Copy the bound quantities out of a converged solution."""
    if not solution.converged:
        raise GridConfigError("measurements requested from a non-converged solution")
    values = {
        "transformer_loading_percent": solution.transformer_loading_percent,
        "P_kW": solution.transformer_p_kw,
        "Q_kvar": solution.transformer_q_kvar,
    }
    out = []
    for pt in binding.points:
        if pt.quantity == "V_pu":
            if pt.element not in solution.bus_voltage_pu:
                raise GridConfigError(f"binding {pt.point_id}: unknown bus {pt.element!r}")
            value = solution.bus_voltage_pu[pt.element]
        else:
            if pt.quantity not in values:
                raise GridConfigError(f"binding {pt.point_id}: unknown quantity {pt.quantity!r}")
            value = values[pt.quantity]
        out.append(Measurement(binding.station, pt.quantity, value))
    return out
