"""The power-balance oracle of the solver tests and acceptance criterion 6.

It solves a grid far tighter than a simulation step does, then checks
conservation at every bus; a solver change that breaks either shows here.
"""

from __future__ import annotations

import math

from scadasim.powergrid import Feeder, GridModel


class PowerBalanceError(ValueError):
    """The check cannot run: a bad scaling, a grid with problems or an unknown bus, or
    no convergence."""


def check_power_balance(
    grid: GridModel,
    load_scaling: dict[str, float] | None = None,
) -> float:
    """Solve tightly, then return the worst per-bus power mismatch in per-unit.

    For every non-slack bus the power arriving over the parent edge must equal
    the local net consumption plus the power sent down every child edge. A
    scaling factor must be finite and >= 0, as ``sample_load_profile``'s are;
    a NaN one would make every voltage NaN and the mismatch read 0.0.
    """
    for name, factor in (load_scaling or {}).items():
        if not math.isfinite(factor) or factor < 0:
            raise PowerBalanceError(f"scaling for {name!r} must be finite and >= 0, got {factor}")
    problems = list(grid.problems())
    if problems:
        raise PowerBalanceError(f"grid problems: {problems}")
    try:
        feeder = Feeder(grid)
    except KeyError as exc:  # a name of no bus, which the scenario loader would refuse
        raise PowerBalanceError(f"grid names an unknown bus: {exc}") from None
    s_net = feeder._injections(load_scaling)
    voltage, branch_current, converged = feeder._sweep(s_net, 1e-10, 500)
    if not converged:
        raise PowerBalanceError("power balance check: sweep did not converge")

    children_of: dict[int, list[int]] = {}
    for k, (parent, _, _) in enumerate(feeder.edges):
        children_of.setdefault(parent, []).append(k)
    worst = 0.0
    for k, (_, child, _) in enumerate(feeder.edges):
        received = voltage[child] * branch_current[k].conjugate()
        sent_down = sum(
            (voltage[child] * branch_current[e].conjugate() for e in children_of.get(child, [])),
            start=0j,
        )
        worst = max(worst, abs(received - s_net[child] - sent_down))
    return worst
