"""DC optimal power flow as a bounded LP over generator setpoints."""

from dataclasses import dataclass

import numpy as np

from ..simplex import LpProblem, LpStatus, basis_solutions, solve_lp


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


@dataclass(frozen=True)
class DispatchRows:
    """The grid's part of every dispatch LP; demands enter only the
    right-hand sides, so one instance serves every sample."""

    costs: np.ndarray      # (n_gen,)
    p_min: np.ndarray
    p_max: np.ndarray
    limits: np.ndarray     # (n_lines,)
    flow_gen: np.ndarray   # ptdf @ m_gen, (n_lines, n_gen)
    flow_load: np.ndarray  # ptdf @ m_load, (n_lines, n_load)
    a_eq: np.ndarray
    a_ub: np.ndarray       # None without lines


def dispatch_rows(grid, ptdf) -> DispatchRows:
    m_gen, m_load = injection_matrices(grid)
    flow_gen = ptdf.matrix @ m_gen
    return DispatchRows(
        costs=np.array([g.cost for g in grid.generators]),
        p_min=np.array([g.p_min for g in grid.generators]),
        p_max=np.array([g.p_max for g in grid.generators]),
        limits=np.array([ln.limit for ln in grid.lines]),
        flow_gen=flow_gen,
        flow_load=ptdf.matrix @ m_load,
        a_eq=np.ones((1, grid.n_gen)),
        a_ub=np.vstack([flow_gen, -flow_gen]) if grid.lines else None)


def _dispatch_rhs(rows, demands):
    """(b_eq, b_ub) of the dispatch LP of one demand vector, or of each
    row of a (k, n_load) stack; b_ub is None without lines.  A stack's
    rows come out bit for bit as if each went alone (each contiguous row
    is its own BLAS matrix-vector product)."""
    demands = np.ascontiguousarray(demands, dtype=float)
    b_eq = demands.sum(axis=-1, keepdims=True)
    if rows.a_ub is None:
        return b_eq, None
    flow_load = np.matmul(rows.flow_load, demands[..., None])[..., 0]
    return b_eq, np.concatenate([rows.limits + flow_load, rows.limits - flow_load], axis=-1)


def _dispatch_lp(rows, demands):
    b_eq, b_ub = _dispatch_rhs(rows, demands)
    return LpProblem(c=-rows.costs, a_eq=rows.a_eq, b_eq=b_eq, a_ub=rows.a_ub, b_ub=b_ub,
                     lo=rows.p_min, hi=rows.p_max)


def solve_dcopf(grid, ptdf, demands, start=None, rows=None) -> DispatchSolution:
    """Minimize generation cost subject to balance, limits and line flows.

    minimize    sum_g cost_g * p_g
    subject to  sum_g p_g == sum_d demand_d
                p_min <= p <= p_max
                |ptdf @ (m_gen p - m_load d)| <= line limits

    Demands enter only the right-hand sides, so the rows and the cost
    vector are the grid's alone: rows, dispatch_rows(grid, ptdf), is
    built here unless the caller passes the one it built for every
    sample.  start, the basis of an earlier optimal dispatch of the same
    grid (DispatchSolution.basis), is passed to solve_lp as a warm
    start; the returned basis is the one to pass on.
    """
    demands = np.asarray(demands, dtype=float).reshape(-1)
    if demands.shape[0] != grid.n_load:
        raise ValueError(f"expected {grid.n_load} demand values, got {demands.shape[0]}")
    if rows is None:
        rows = dispatch_rows(grid, ptdf)
    sol = solve_lp(_dispatch_lp(rows, demands), start=start)
    if sol.status != LpStatus.OPTIMAL:
        return DispatchSolution(status=sol.status)
    flows = rows.flow_gen @ sol.x - rows.flow_load @ demands if grid.lines else np.zeros(0)
    return DispatchSolution(status=LpStatus.OPTIMAL, p=sol.x,
                            cost=float(rows.costs @ sol.x), line_flows=flows,
                            basis=sol.basis)


def basis_dispatch(rows, basis, demands):
    """(p, ok) for a (k, n_load) stack of demands, k >= 1: the dispatch
    of each sample that basis, an earlier optimal dispatch's, serves
    without a pivot, as simplex.basis_solutions says.  Where ok, p is
    bit for bit what solve_dcopf(..., start=basis, rows=rows) returns;
    the other samples need solve_dcopf."""
    return basis_solutions(basis, *_dispatch_rhs(rows, demands))
