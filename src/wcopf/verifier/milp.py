"""Branch-and-bound search for the worst generator-bound violation.

Each ReLU unit gets an activation variable z and an on/off variable y;
three big-M rows per unit (with interval preactivation bounds as the
constants) make the LP relaxation exact once every y is integral.  Each
(generator, side) candidate is maximized in its own best-bound tree and
the largest certified margin wins.  Every tie-break is by index, so
repeated runs explore identical trees and return identical witnesses.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from ..mlp.network import forward
from ..simplex import LpProblem, LpStatus, solve_lp
from .bounds import Box, interval_bounds
from .patterns import (candidate_constraints, margin_of_output,
                       worst_case_fixed_pattern)

# fathom a node once it cannot beat the incumbent by more than this
FATHOM_PAD = 1e-7
# certificate is exact up to this gap
GAP_TOL = 1e-6
# a relaxed y this close to 0/1 counts as integral
INT_TOL = 1e-7

DEFAULT_NODE_LIMIT = 200_000

CERTIFIED = "certified"
GAP_REMAINING = "gap_remaining"


@dataclass(frozen=True)
class WorstCaseCert:
    """Outcome of a verification run.

    value is the worst violation over the box clipped at zero; witness,
    constraint_id and pattern describe where it is attained (all None
    when no constraint can be violated).  bound is a certified upper
    bound on the violation; gap = bound - value.
    """

    value: float
    witness: np.ndarray
    constraint_id: tuple
    pattern: list
    bound: float
    gap: float
    status: str
    nodes_explored: int

    @property
    def certified(self):
        return self.status == CERTIFIED


class _Encoding:
    """Shared LP rows for one (network, box) pair.

    Variable layout: [d (inputs) | z (all hidden units) | y (one per
    hidden unit)].  Rows, listed per unit with preactivation s = w@prev + b
    and interval bounds zlo <= s <= zhi:

        z - w@prev - zlo*y <= b - zlo      (z <= s - zlo*(1-y))
        w@prev - z         <= -b           (z >= s)
        z - zhi*y          <= 0            (z <= zhi*y)

    with z in [0, max(zhi, 0)].  y = 1 forces z = s >= 0, y = 0 forces
    z = 0 and s <= 0.
    """

    def __init__(self, params, box: Box, gen_bounds: Box):
        if box.dim != params.n_inputs:
            raise ValueError("box dimension does not match network inputs")
        if gen_bounds.dim != params.n_outputs:
            raise ValueError("generator bounds do not match network outputs")
        self.params = params
        self.box = box
        self.gen_bounds = gen_bounds
        self.n_in = params.n_inputs
        self.widths = list(params.hidden_dims)
        self.h_total = int(sum(self.widths))
        offs = np.concatenate([[0], np.cumsum(self.widths)])[:-1]
        self.z_off = (offs + self.n_in).astype(int)
        self.y_off = self.n_in + self.h_total
        self.n_vars = self.n_in + 2 * self.h_total

        pre, out_dn, out_up = interval_bounds(params, box)
        self.pre = pre
        self.out_dn = out_dn
        self.out_up = out_up
        self._build_rows()
        self._build_bounds()

    def _build_rows(self):
        rows = np.zeros((3 * self.h_total, self.n_vars))
        rhs = np.zeros(3 * self.h_total)
        r = 0
        unit = 0
        for k, width in enumerate(self.widths):
            w = self.params.weights[k]
            b = self.params.biases[k]
            zlo = self.pre.lower[k]
            zhi = self.pre.upper[k]
            if k == 0:
                prev = slice(0, self.n_in)
            else:
                prev = slice(self.z_off[k - 1], self.z_off[k - 1] + self.widths[k - 1])
            for j in range(width):
                zv = self.z_off[k] + j
                yv = self.y_off + unit
                rows[r, zv] = 1.0
                rows[r, prev] = -w[j]
                rows[r, yv] = -zlo[j]
                rhs[r] = b[j] - zlo[j]
                r += 1
                rows[r, zv] = -1.0
                rows[r, prev] = w[j]
                rhs[r] = -b[j]
                r += 1
                rows[r, zv] = 1.0
                rows[r, yv] = -zhi[j]
                rhs[r] = 0.0
                r += 1
                unit += 1
        self.rows = rows
        self.rhs = rhs

    def _build_bounds(self):
        lo = np.zeros(self.n_vars)
        hi = np.zeros(self.n_vars)
        lo[: self.n_in] = self.box.lo
        hi[: self.n_in] = self.box.hi
        # -1 free, 0/1 pinned; units stable by interval analysis start pinned
        y_fix = np.full(self.h_total, -1, dtype=np.int8)
        unit = 0
        for k, width in enumerate(self.widths):
            zlo = self.pre.lower[k]
            zhi = self.pre.upper[k]
            zs = self.z_off[k]
            lo[zs : zs + width] = 0.0
            hi[zs : zs + width] = np.maximum(zhi, 0.0)
            for j in range(width):
                if zhi[j] <= 0.0:
                    y_fix[unit] = 0
                elif zlo[j] >= 0.0:
                    y_fix[unit] = 1
                unit += 1
        self.var_lo = lo
        self.var_hi = hi
        self.base_fix = y_fix

    def objective(self, constraint_id):
        g, side = constraint_id
        w_out = self.params.weights[-1][g]
        b_out = float(self.params.biases[-1][g])
        if self.widths:
            last = slice(self.z_off[-1], self.z_off[-1] + self.widths[-1])
        else:
            last = slice(0, self.n_in)
        c = np.zeros(self.n_vars)
        if side == "upper":
            c[last] = w_out
            const = b_out - float(self.gen_bounds.hi[g])
        else:
            c[last] = -w_out
            const = float(self.gen_bounds.lo[g]) - b_out
        return c, const

    def interval_margin_bound(self, constraint_id):
        """Cheap upper bound on the candidate's margin over the box."""
        g, side = constraint_id
        if side == "upper":
            return float(self.out_up[g] - self.gen_bounds.hi[g])
        return float(self.gen_bounds.lo[g] - self.out_dn[g])

    def solve_node(self, c, y_fix, start=None):
        lo = self.var_lo.copy()
        hi = self.var_hi.copy()
        ys = self.y_off
        lo[ys:] = np.where(y_fix == 1, 1.0, 0.0)
        hi[ys:] = np.where(y_fix == 0, 0.0, 1.0)
        a_ub = self.rows if self.h_total else None
        b_ub = self.rhs if self.h_total else None
        return solve_lp(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi),
                        start=start)

    def margin_at(self, d, constraint_id):
        """Exact forward-pass margin; any point in the box is a valid witness."""
        out = forward(self.params, d).output
        return margin_of_output(out, self.gen_bounds, constraint_id)

    def split_pattern(self, bits):
        out = []
        at = 0
        for width in self.widths:
            out.append(np.asarray(bits[at : at + width], dtype=bool))
            at += width
        return out


class _Incumbent:
    """Best exactly-achieved margin so far; value ties keep the
    lexicographically smaller witness."""

    def __init__(self):
        self.value = -np.inf
        self.witness = None

    def offer(self, value, witness):
        if value > self.value:
            self.value = value
            self.witness = np.array(witness, dtype=float)
        elif value == self.value and self.witness is not None and witness is not None:
            if tuple(witness) < tuple(self.witness):
                self.witness = np.array(witness, dtype=float)


def _branch_and_bound(enc: _Encoding, constraint_id, target, node_budget):
    """Maximize one candidate margin.

    target is the best value found by earlier candidates; subtrees that
    cannot beat max(target, incumbent, 0) by more than FATHOM_PAD are
    fathomed.  Returns (value, witness, nodes_used, remaining_bound)
    where remaining_bound > -inf only if the node budget ran out first.
    """
    c, const = enc.objective(constraint_id)
    inc = _Incumbent()
    inc.offer(enc.margin_at(enc.box.midpoint(), constraint_id), enc.box.midpoint())

    def cutoff():
        return max(inc.value, target, 0.0) + FATHOM_PAD

    if enc.interval_margin_bound(constraint_id) <= cutoff():
        return inc.value, inc.witness, 0, -np.inf

    heap = []
    seq = 0
    # entries: (-parent bound, seq, y_fix, parent's optimal LP basis)
    heapq.heappush(heap, (-np.inf, seq, enc.base_fix.copy(), None))
    nodes = 0
    at_root = True

    while heap:
        neg_bound, _, y_fix, start = heap[0]
        if -neg_bound <= cutoff():
            heap = []
            break
        if nodes >= node_budget:
            break
        heapq.heappop(heap)
        nodes += 1

        # children differ from their parent only in y bounds, so the
        # parent's basis stays dual feasible and warm-starts the child
        sol = enc.solve_node(c, y_fix, start)
        if sol.status == LpStatus.INFEASIBLE:
            at_root = False
            continue
        val = float(sol.objective_value) + const
        d = sol.x[: enc.n_in]
        inc.offer(enc.margin_at(d, constraint_id), d)

        if at_root and enc.h_total:
            # round the relaxation and polish inside that linear region
            at_root = False
            y_rel = sol.x[enc.y_off :]
            bits = np.where(y_fix >= 0, y_fix, (y_rel >= 0.5).astype(int))
            rv, rw = worst_case_fixed_pattern(
                enc.params, enc.split_pattern(bits), enc.box, enc.gen_bounds,
                constraint_id)
            if rw is not None:
                inc.offer(enc.margin_at(rw, constraint_id), rw)

        if val <= cutoff():
            continue

        y_rel = sol.x[enc.y_off :]
        frac = np.abs(y_rel - np.round(y_rel))
        frac[y_fix >= 0] = 0.0
        free_frac = (frac > INT_TOL) & (y_fix < 0)
        if not np.any(free_frac):
            # integral node: the LP already maximized over this region
            continue
        score = np.where(free_frac, np.abs(y_rel - 0.5), np.inf)
        j = int(np.argmin(score))
        for bit in (0, 1):
            child = y_fix.copy()
            child[j] = bit
            seq += 1
            heapq.heappush(heap, (-val, seq, child, sol.basis))

    remaining = -np.inf
    if heap:
        remaining = -heap[0][0]
    return inc.value, inc.witness, nodes, remaining


def solve_worst_case(params, box: Box, gen_bounds: Box,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> WorstCaseCert:
    """Certified worst-case generator-bound violation over an input box.

    Scans every (generator, side) candidate with its own branch-and-bound
    run; candidates whose interval bound already rules them out are
    skipped.  node_limit caps the nodes per candidate; when it is hit
    the certificate reports the remaining gap instead of raising.
    """
    enc = _Encoding(params, box, gen_bounds)
    best_value = -np.inf
    best_witness = None
    best_cid = None
    nodes_total = 0
    remaining_max = -np.inf

    for cid in candidate_constraints(params.n_outputs):
        value, witness, nodes, remaining = _branch_and_bound(
            enc, cid, best_value, node_limit)
        nodes_total += nodes
        remaining_max = max(remaining_max, remaining)
        if value > best_value:
            best_value = value
            best_witness = witness
            best_cid = cid

    value = max(best_value, 0.0)
    bound = max(value, remaining_max)
    gap = bound - value
    status = CERTIFIED if gap <= GAP_TOL else GAP_REMAINING
    if best_value > 0.0:
        witness = best_witness
        cid = best_cid
        pattern = [p.copy() for p in forward(params, witness).pattern]
    else:
        witness = None
        cid = None
        pattern = None
    return WorstCaseCert(value=value, witness=witness, constraint_id=cid,
                         pattern=pattern, bound=float(bound), gap=float(gap),
                         status=status, nodes_explored=nodes_total)
