"""DC optimal power flow as a bounded LP over generator setpoints."""

from dataclasses import dataclass

import numpy as np

from ..simplex import LpProblem, LpStatus, solve_lp


@dataclass
class DispatchSolution:
    status: LpStatus
    p: np.ndarray = None          # per-generator setpoints (MW)
    cost: float = float("nan")
    line_flows: np.ndarray = None  # (n_lines,) MW, from_bus -> to_bus
    basis: tuple = None            # the LP's LpSolution.basis; None unless optimal


def injection_matrices(grid):
    """Bus-incidence maps: injections = m_gen @ p - m_load @ d."""
    m_gen = np.zeros((grid.n_bus, grid.n_gen))
    for g, gen in enumerate(grid.generators):
        m_gen[grid.bus_index(gen.bus), g] = 1.0
    m_load = np.zeros((grid.n_bus, grid.n_load))
    for l, ld in enumerate(grid.loads):
        m_load[grid.bus_index(ld.bus), l] = 1.0
    return m_gen, m_load


def solve_dcopf(grid, ptdf, demands, start=None) -> DispatchSolution:
    """Minimize generation cost subject to balance, limits and line flows.

    minimize    sum_g cost_g * p_g
    subject to  sum_g p_g == sum_d demand_d
                p_min <= p <= p_max
                |ptdf @ (m_gen p - m_load d)| <= line limits

    Demands enter only the right-hand sides, so the rows and the cost
    vector are the grid's alone.  start, the basis of an earlier optimal
    dispatch of the same grid (DispatchSolution.basis), is passed to
    solve_lp as a warm start; the returned basis is the one to pass on.
    """
    demands = np.asarray(demands, dtype=float).reshape(-1)
    if demands.shape[0] != grid.n_load:
        raise ValueError(f"expected {grid.n_load} demand values, got {demands.shape[0]}")
    m_gen, m_load = injection_matrices(grid)
    costs = np.array([g.cost for g in grid.generators])
    p_min = np.array([g.p_min for g in grid.generators])
    p_max = np.array([g.p_max for g in grid.generators])
    limits = np.array([ln.limit for ln in grid.lines])

    flow_gen = ptdf.matrix @ m_gen              # (n_lines, n_gen)
    flow_load = ptdf.matrix @ m_load @ demands  # (n_lines,)

    a_eq = np.ones((1, grid.n_gen))
    b_eq = np.array([demands.sum()])
    if grid.lines:
        a_ub = np.vstack([flow_gen, -flow_gen])
        b_ub = np.concatenate([limits + flow_load, limits - flow_load])
    else:
        a_ub = None
        b_ub = None

    sol = solve_lp(LpProblem(c=-costs, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                             lo=p_min, hi=p_max), start=start)
    if sol.status != LpStatus.OPTIMAL:
        return DispatchSolution(status=sol.status)
    flows = flow_gen @ sol.x - flow_load if grid.lines else np.zeros(0)
    return DispatchSolution(status=LpStatus.OPTIMAL, p=sol.x,
                            cost=float(costs @ sol.x), line_flows=flows, basis=sol.basis)
