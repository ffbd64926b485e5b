"""Radial MV/LV feeder model and backward/forward-sweep power flow.

The feeder is a tree rooted at the transformer HV bus (the slack). Loads are
constant-power, DER injections are modeled as negative constant-power loads.
Everything is solved in per-unit with the transformer rating as S_base and
each bus's nominal voltage as its local V_base.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Literal

from .engine import derive_seed

# a field naming a bus; the scenario loader checks each such name
_BUS = {"ref": "bus"}


@dataclass(frozen=True)
class Bus:
    bus_id: str
    nominal_kv: float


@dataclass(frozen=True)
class Line:
    line_id: str
    from_bus: str = field(metadata=_BUS)
    to_bus: str = field(metadata=_BUS)
    resistance_ohm: float
    reactance_ohm: float
    rating_kva: float


@dataclass(frozen=True)
class Transformer:
    transformer_id: str
    hv_bus: str = field(metadata=_BUS)
    lv_bus: str = field(metadata=_BUS)
    rating_kva: float
    resistance_ohm: float
    reactance_ohm: float


@dataclass(frozen=True)
class Load:
    load_id: str
    bus: str = field(metadata=_BUS)
    p_kw: float
    q_kvar: float


@dataclass(frozen=True)
class Der:
    der_id: str
    bus: str = field(metadata=_BUS)
    p_kw: float


@dataclass(frozen=True)
class GridModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    transformer: Transformer
    loads: tuple[Load, ...]
    ders: tuple[Der, ...]

    def problems(self) -> Iterator[str]:
        """Every way in which the grid is not a connected radial feeder, but for
        a name of no bus, which the loader reports; connectivity is checked only
        when every edge names known buses."""
        bus_ids = [b.bus_id for b in self.buses]
        edge_ids = [self.transformer.transformer_id] + [ln.line_id for ln in self.lines]
        for what, ids in (("bus id", bus_ids), ("transformer/line id", edge_ids)):
            for i, count in Counter(ids).items():
                if count > 1:
                    yield f"duplicate {what} {i!r}"
        for b in self.buses:
            if b.nominal_kv <= 0:  # it divides every impedance on its side
                yield f"bus {b.bus_id}: nominal_kv must be > 0"
        known = set(bus_ids)
        edges = [(self.transformer.hv_bus, self.transformer.lv_bus)]
        edges += [(ln.from_bus, ln.to_bus) for ln in self.lines]
        if len(edges) != len(self.buses) - 1:
            yield f"not radial: {len(edges)} edges for {len(self.buses)} buses (need buses-1)"
        for ln in self.lines:
            if ln.resistance_ohm <= 0 and ln.reactance_ohm <= 0:
                yield f"line {ln.line_id}: impedance must be > 0"
            if ln.rating_kva <= 0:
                yield f"line {ln.line_id}: rating must be > 0"
        if self.transformer.rating_kva <= 0:
            yield "transformer rating must be > 0"
        if self.transformer.resistance_ohm <= 0 and self.transformer.reactance_ohm <= 0:
            yield "transformer impedance must be > 0"
        if not known.issuperset(end for edge in edges for end in edge):
            return
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
            yield f"disconnected buses: {sorted(known - seen)}"


@dataclass
class PowerFlowSolution:
    """One step's solve: the bus voltages and the flow through the transformer,
    the quantities an RTU binding can measure."""

    converged: bool
    bus_voltage_pu: dict[str, float]
    transformer_p_kw: float
    transformer_q_kvar: float
    transformer_loading_percent: float


Quantity = Literal["transformer_loading_percent", "P_kW", "Q_kvar", "V_pu"]


@dataclass(frozen=True)
class BoundPoint:
    point_id: str
    quantity: Quantity
    # a bus for a V_pu point, the transformer for any other
    element: str = field(metadata={"ref": "grid_element"})


@dataclass(frozen=True)
class RtuBinding:
    station: str
    points: tuple[BoundPoint, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class Feeder:
    """A grid the loader accepts, prepared once for repeated backward/forward
    sweeps.

    Buses are indexed in ``grid.buses`` order and edges in BFS order from the
    slack; each step then sweeps over plain lists. The float operations and
    their order are those of a sweep over the grid itself, so a solution does
    not depend on whether the feeder is reused.
    """

    def __init__(self, grid: GridModel):
        tx = grid.transformer
        self.s_base = tx.rating_kva
        self.bus_ids = [b.bus_id for b in grid.buses]
        index = {bus_id: i for i, bus_id in enumerate(self.bus_ids)}
        self.slack = hv = index[tx.hv_bus]

        def z_pu(r_ohm: float, x_ohm: float, side_bus: str) -> complex:
            v_kv = grid.buses[index[side_bus]].nominal_kv
            z_base = v_kv * v_kv * 1000.0 / self.s_base
            return complex(r_ohm, x_ohm) / z_base

        adjacency: list[list[tuple[int, complex]]] = [[] for _ in self.bus_ids]
        lv = index[tx.lv_bus]
        z_tx = z_pu(tx.resistance_ohm, tx.reactance_ohm, tx.lv_bus)
        adjacency[hv].append((lv, z_tx))
        adjacency[lv].append((hv, z_tx))
        for ln in grid.lines:
            a, b = index[ln.from_bus], index[ln.to_bus]
            z = z_pu(ln.resistance_ohm, ln.reactance_ohm, ln.to_bus)
            adjacency[a].append((b, z))
            adjacency[b].append((a, z))

        # (parent index, child index, z_pu), parents before children
        self.edges: list[tuple[int, int, complex]] = []
        seen = {hv}
        queue = deque([hv])
        while queue:
            parent = queue.popleft()
            for child, z in adjacency[parent]:
                if child not in seen:
                    seen.add(child)
                    self.edges.append((parent, child, z))
                    queue.append(child)

        into_bus = {child: k for k, (_, child, _) in enumerate(self.edges)}
        # backward sweep, leaves first: (edge, child, parent's edge or -1 at the slack)
        self._backward = [
            (k, child, -1 if parent == hv else into_bus[parent])
            for k, (parent, child, _) in reversed(list(enumerate(self.edges)))
        ]
        self._loads = [(ld.load_id, index[ld.bus], complex(ld.p_kw, ld.q_kvar))
                       for ld in grid.loads]
        self._ders = [(index[der.bus], complex(der.p_kw, 0.0)) for der in grid.ders]

    def solve(
        self, load_scaling: dict[str, float] | None = None, max_iterations: int = 50
    ) -> PowerFlowSolution:
        """Backward/forward sweep to a fixed point.

        Load scaling factors default to 1.0 per load; every DER injects its
        configured p_kw. Convergence means the largest per-bus voltage change of
        a sweep fell below 1e-8 pu before hitting the iteration cap.
        """
        s_base = self.s_base
        s_net = self._injections(load_scaling)
        voltage, branch_current, converged = self._sweep(s_net, 1e-8, max_iterations)
        # edge 0 is the transformer, the slack's first adjacency entry
        tx_s = voltage[self.slack] * branch_current[0].conjugate() * s_base
        return PowerFlowSolution(
            converged=converged,
            bus_voltage_pu={bus: abs(v) for bus, v in zip(self.bus_ids, voltage)},
            transformer_p_kw=tx_s.real,
            transformer_q_kvar=tx_s.imag,
            transformer_loading_percent=abs(tx_s) / s_base * 100.0,
        )

    def _injections(self, load_scaling: dict[str, float] | None) -> list[complex]:
        """Net constant-power consumption per bus in per-unit (DER negative)."""
        load_scaling = load_scaling or {}
        s_base = self.s_base
        s_net = [0j] * len(self.bus_ids)
        for load_id, bus, s in self._loads:
            s_net[bus] += s * load_scaling.get(load_id, 1.0) / s_base
        for bus, s in self._ders:
            s_net[bus] -= s / s_base
        return s_net

    def _sweep(
        self, s_net: list[complex], tol_pu: float, max_iterations: int
    ) -> tuple[list[complex], list[complex], bool]:
        """Iterate backward/forward sweeps to a voltage fixed point."""
        voltage = [1.0 + 0j] * len(s_net)
        branch_current = [0j] * len(self.edges)
        converged = False
        for _ in range(max_iterations):
            inj = [(s / v).conjugate() for s, v in zip(s_net, voltage)]
            branch_current = [0j] * len(self.edges)
            for k, child, up in self._backward:
                current = inj[child] + branch_current[k]
                branch_current[k] = current
                if up >= 0:
                    branch_current[up] += current
            max_delta = 0.0
            for (parent, child, z), current in zip(self.edges, branch_current):
                new_v = voltage[parent] - z * current
                delta = abs(new_v - voltage[child])
                if delta > max_delta:
                    max_delta = delta
                voltage[child] = new_v
            if max_delta < tol_pu:
                converged = True
                break
        return voltage, branch_current, converged


def sample_load_profile(
    seed: int,
    step: int,
    load_ids: list[str],
    day_steps: int,
    noise_amplitude: float,
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


def measurements_for(
    binding: RtuBinding, solution: PowerFlowSolution
) -> list[tuple[str, str, float]]:
    """Copy the bound quantities out of a solution as (point_id, quantity, value)
    points; the binding was validated against the solution's grid."""
    values = {
        "transformer_loading_percent": solution.transformer_loading_percent,
        "P_kW": solution.transformer_p_kw,
        "Q_kvar": solution.transformer_q_kvar,
    }
    voltages = solution.bus_voltage_pu
    return [(pt.point_id, pt.quantity,
             voltages[pt.element] if pt.quantity == "V_pu" else values[pt.quantity])
            for pt in binding.points]
