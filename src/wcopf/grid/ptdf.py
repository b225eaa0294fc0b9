"""Power transfer distribution factors from the susceptance matrix."""

from dataclasses import dataclass

import numpy as np

from ..errors import SingularMatrix, SingularNetwork
from ..linalg import solve_linear_system


@dataclass(frozen=True)
class Ptdf:
    """Line-flow sensitivities to bus injections; slack column is zero."""

    matrix: np.ndarray  # (n_lines, n_bus)


def compute_ptdf(grid) -> Ptdf:
    """Build the PTDF matrix by inverting the reduced susceptance matrix.

    Flow on line l for injection vector p (slack absorbs the imbalance)
    is (ptdf.matrix @ p)[l], oriented from_bus -> to_bus.
    """
    n = grid.n_bus
    slack = grid.slack_index
    bmat = np.zeros((n, n))
    bf = np.zeros((len(grid.lines), n))
    for l, ln in enumerate(grid.lines):
        i = grid.bus_index(ln.from_bus)
        j = grid.bus_index(ln.to_bus)
        b = ln.susceptance
        bmat[i, i] += b
        bmat[j, j] += b
        bmat[i, j] -= b
        bmat[j, i] -= b
        bf[l, i] = b
        bf[l, j] = -b
    keep = [i for i in range(n) if i != slack]
    matrix = np.zeros((len(grid.lines), n))
    if keep and grid.lines:
        b_red = bmat[np.ix_(keep, keep)]
        try:
            # b_red is symmetric, so solving against bf^T gives ptdf^T
            sol = solve_linear_system(b_red, bf[:, keep].T)
        except SingularMatrix as exc:
            raise SingularNetwork("reduced susceptance matrix is singular") from exc
        matrix[:, keep] = sol.T
    return Ptdf(matrix=matrix)
