"""The power-balance oracle of the solver tests and acceptance criterion 6.

It solves a grid far tighter than a simulation step does, then checks
conservation at every bus; a solver change that breaks either shows here.
"""

from __future__ import annotations

from scadasim.powergrid import Feeder, GridConfigError, GridModel


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
    feeder = Feeder(grid)
    s_net = feeder._injections(load_scaling, der_scaling)
    voltage, branch_current, converged, _ = feeder._sweep(s_net, 1e-10, 500)
    if not converged:
        raise GridConfigError("power balance check: sweep did not converge")

    children_of: dict[int, list[int]] = {}
    for k, (parent, _, _, _) in enumerate(feeder.edges):
        children_of.setdefault(parent, []).append(k)
    worst = 0.0
    for k, (_, child, _, _) in enumerate(feeder.edges):
        received = voltage[child] * branch_current[k].conjugate()
        sent_down = sum(
            (voltage[child] * branch_current[e].conjugate() for e in children_of.get(child, [])),
            start=0j,
        )
        worst = max(worst, abs(received - s_net[child] - sent_down))
    return worst
