"""Branch-and-bound search for the worst generator-bound violation.

Each ReLU unit that its preactivation bounds cannot prove stable gets
an activation variable z and an on/off variable y; three big-M rows per
such unit (with those bounds as the constants) make the LP relaxation
exact once every y is integral.  Stable units enter the rows as affine
forms of the encoded variables and are never branched on.

The bounds are interval bounds, tightened before the search in every
hidden layer past the first by bound LPs over the big-M rows of the
layers before it (bounds.lp_bounds, after Tjeng et al., ICLR 2019):
fewer unstable units and narrower big-M ranges make a smaller tree of
smaller node LPs.  A one-hidden-layer net solves no bound LP.  Bound LPs
are solved in bounds.py, never in the search, whose every LP is a node
LP.

Every (generator, side) candidate is maximized in one best-first tree
over the disjunction of their subproblems, as in Bunel et al. (JMLR
2020): the node with the largest bound of any candidate is expanded
next, and every point evaluated in the box raises the
incumbent of every candidate, so a loser is fathomed against the
winner's margin however early it is searched.  A node branches on the
free fractional unit with the largest weighted big-M range times
fractionality, nu+ * (zhi - zlo) * min(y, 1 - y), after their BaBSR
score: nu+ is the objective's marginal value on the unit's activation,
read from the node LP's row duals on the unit's three rows (falling back
to the unweighted score when no candidate unit has a positive weight).
The rule only picks which tree proves the bound, never what it proves.
Every tie-break is by index, so repeated runs explore identical trees
and return identical witnesses.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from ..mlp.network import forward
from ..simplex import LpProblem, LpStatus, SharedPhase1, row_duals, solve_lp
from .bounds import Box, PreactBounds, interval_bounds, lp_bounds, narrow_deeper
from .patterns import candidate_constraints, margin_of_output
# not called here; bound only for perfbench/tracing.py's verifier.polish site
from .patterns import worst_case_fixed_pattern

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

    The preactivation bounds pre start as interval bounds.  For each
    hidden layer k >= 1 in turn, lp_bounds tightens layer k's bounds by
    bound LPs over the rows of the layers before k (_build with depth
    k), and narrow_deeper re-propagates intervals from layer k to the
    deeper layers and the output (out_dn, out_up), never loosening a
    bound.  The first layer's interval bounds are already exact.  pre
    keeps the bounds the final rows use.

    These bounds split the hidden units into stable-inactive
    (upper bound <= 0; this test wins when both apply), stable-active
    (lower bound >= 0) and unstable units, and only the unstable ones
    are encoded.  Variable layout: [d (inputs) | z (one per unstable
    unit) | y (one per unstable unit)].  Each layer's activation is an
    affine form act @ x + off in these variables: an unstable unit's is
    its own z, a stable-active unit's is its preactivation and a
    stable-inactive unit's is 0.  Rows, listed per unstable unit with
    preactivation s = w@act_prev + b and bounds zlo < s < zhi:

        z - s - zlo*y <= -zlo      (z <= s - zlo*(1-y))
        s - z         <= 0         (z >= s)
        z - zhi*y     <= 0         (z <= zhi*y)

    with z in [0, zhi].  y = 1 forces z = s >= 0, y = 0 forces z = 0
    and s <= 0.  The bounds hold for any relaxed activations that satisfy
    the rows of the layers before, so a stable unit's rows are implied
    and dropping them leaves every node LP's optimum unchanged.  y_range
    holds each unstable unit's big-M range zhi - zlo, in the order of
    the y variables.
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

        pre, out_dn, out_up = interval_bounds(params, box)
        n_layers = params.n_hidden_layers
        lower = pre.lower + [out_dn]
        upper = pre.upper + [out_up]
        for k in range(1, n_layers):
            rows, rhs, lo, hi, _, act, off = self._build(PreactBounds(lower, upper), k)
            w, b = params.weights[k], params.biases[k]
            lower[k], upper[k] = lp_bounds(rows, rhs, lo, hi, (w @ act, w @ off + b),
                                           lower[k], upper[k])
            narrow_deeper(params, lower, upper, k)
        self.pre = PreactBounds(lower[:n_layers], upper[:n_layers])
        self.out_dn = lower[-1]
        self.out_up = upper[-1]
        (self.rows, self.rhs, self.var_lo, self.var_hi, self.y_range,
         self.out_act, self.out_off) = self._build(self.pre, n_layers)
        self.n_unstable = self.y_range.shape[0]
        self.y_off = self.n_in + self.n_unstable
        self.n_vars = self.rows.shape[1]

    def _build(self, pre, depth):
        """Rows of the hidden layers before depth, from the bounds pre.

        Returns (rows, rhs, var_lo, var_hi, y_range, act, off), where
        act @ x + off is the activation of layer depth - 1 (the input at
        depth 0).
        """
        inactive = [pre.stable_inactive(k) for k in range(depth)]
        active = [pre.stable_active(k) & ~dead for k, dead in enumerate(inactive)]
        unstable = [~(live | dead) for live, dead in zip(active, inactive)]
        n_in = self.n_in
        n_unstable = int(sum(np.sum(u) for u in unstable))
        y_off = n_in + n_unstable
        n_vars = n_in + 2 * n_unstable
        rows = np.zeros((3 * n_unstable, n_vars))
        rhs = np.zeros(3 * n_unstable)
        y_range = np.zeros(n_unstable)
        lo = np.zeros(n_vars)
        hi = np.ones(n_vars)
        lo[:n_in] = self.box.lo
        hi[:n_in] = self.box.hi
        act = np.eye(n_in, n_vars)
        off = np.zeros(n_in)
        u = 0
        for k in range(depth):
            s_act = self.params.weights[k] @ act
            s_off = self.params.weights[k] @ off + self.params.biases[k]
            zlo = pre.lower[k]
            zhi = pre.upper[k]
            act = np.where(active[k][:, None], s_act, 0.0)
            off = np.where(active[k], s_off, 0.0)
            for j in np.flatnonzero(unstable[k]):
                zv = n_in + u
                yv = y_off + u
                r = 3 * u
                rows[r] = -s_act[j]
                rows[r, zv] = 1.0
                rows[r, yv] = -zlo[j]
                rhs[r] = s_off[j] - zlo[j]
                rows[r + 1] = s_act[j]
                rows[r + 1, zv] = -1.0
                rhs[r + 1] = -s_off[j]
                rows[r + 2, zv] = 1.0
                rows[r + 2, yv] = -zhi[j]
                hi[zv] = zhi[j]
                y_range[u] = zhi[j] - zlo[j]
                act[j, zv] = 1.0
                u += 1
        return rows, rhs, lo, hi, y_range, act, off

    def objective(self, constraint_id):
        g, side = constraint_id
        w_out = self.params.weights[-1][g]
        out_off = float(w_out @ self.out_off + self.params.biases[-1][g])
        c = w_out @ self.out_act
        if side == "upper":
            return c, out_off - float(self.gen_bounds.hi[g])
        return -c, float(self.gen_bounds.lo[g]) - out_off

    def interval_margin_bound(self, constraint_id):
        """Cheap upper bound on the candidate's margin over the box."""
        g, side = constraint_id
        if side == "upper":
            return float(self.out_up[g] - self.gen_bounds.hi[g])
        return float(self.gen_bounds.lo[g] - self.out_dn[g])

    def solve_node(self, c, y_fix, start=None):
        lo = self.var_lo.copy()
        hi = self.var_hi.copy()
        lo[self.y_off :] = y_fix == 1
        hi[self.y_off :] = y_fix != 0
        return solve_lp(LpProblem(c=c, a_ub=self.rows, b_ub=self.rhs, lo=lo, hi=hi),
                        start=start)

    def unit_weights(self, c, basis):
        """Objective weight of each unstable unit at a node LP's basis.

        With u = row_duals(c, basis), nu = u[3k] - u[3k+1] + u[3k+2] is
        the price that unit k's three rows put on its z: the objective's
        marginal value on z downstream.  Returns max(nu, 0), in the order
        of the y variables.
        """
        u = row_duals(c, basis)
        return np.maximum(u[0::3] - u[1::3] + u[2::3], 0.0)

    def margins_at(self, d, cids):
        """Exact forward-pass margin of each candidate; any point in the
        box is a valid witness for all of them."""
        out = forward(self.params, d).output
        return [margin_of_output(out, self.gen_bounds, cid) for cid in cids]


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


def _branch_unit(y_rel, y_fix, y_range, weight):
    """Unit to branch on at a node, or None when the node is integral.

    Among the free units (y_fix < 0) whose relaxed y is more than
    INT_TOL from 0 and 1, picks the one with the largest
    weight * y_range * min(y, 1 - y), where weight is each unit's
    nonnegative objective weight (_Encoding.unit_weights); when no such
    unit has a positive weight, the largest y_range * min(y, 1 - y).
    Ties go to the lowest index.
    """
    frac = np.abs(y_rel - np.round(y_rel))  # min(y, 1 - y) for y in [0, 1]
    free_frac = (frac > INT_TOL) & (y_fix < 0)
    if not np.any(free_frac):
        return None
    score = y_range * frac
    if np.any(free_frac & (weight > 0.0)):
        score = weight * score
    return int(np.argmax(np.where(free_frac, score, -np.inf)))


def _branch_and_bound(enc: _Encoding, cids, node_limit):
    """Maximize every candidate margin in one best-first tree.

    Heap entries are (-bound, seq, candidate index, y_fix, parent's LP
    basis).  A root is keyed by its candidate's interval margin bound and
    every other node by its parent's LP value, so the node with the
    largest bound over all candidates is expanded first, and a root
    whose interval bound is already beaten is never solved.  Every point
    the search evaluates (the box midpoint and each clipped node-LP
    point) lies in the box and so attains its margin for every
    candidate; each is offered to every candidate's incumbent, and a
    node is fathomed once it cannot beat max(best margin of any
    candidate, 0) by more than FATHOM_PAD.  A surviving node branches on
    the unit _branch_unit picks.  A node popped after its candidate has
    solved node_limit node LPs is set aside unexplored.  Returns
    (incumbents, nodes, leaf_bound): an _Incumbent and a node count per
    candidate, and the largest bound on any leaf of the tree, so on any
    margin in the box: the LP value of each fathomed or integral node
    and the key of each node set aside or left in the heap (-inf if
    there is none).
    Root LPs differ only in their objective, so they share one phase 1
    (a SharedPhase1 that lives as long as the search).
    """
    objectives = [enc.objective(cid) for cid in cids]
    incs = [_Incumbent() for _ in cids]

    def offer(d):
        for inc, margin in zip(incs, enc.margins_at(d, cids)):
            inc.offer(margin, d)

    def cutoff():
        return max(max(inc.value for inc in incs), 0.0) + FATHOM_PAD

    offer(enc.box.midpoint())
    phase1 = SharedPhase1()
    free = np.full(enc.n_unstable, -1, dtype=np.int8)
    heap = [(-enc.interval_margin_bound(cid), k, k, free, None)
            for k, cid in enumerate(cids)]
    heapq.heapify(heap)
    seq = len(heap)
    nodes = [0] * len(cids)
    leaf_bound = -np.inf

    while heap and -heap[0][0] > cutoff():
        neg_bound, _, k, y_fix, start = heapq.heappop(heap)
        if nodes[k] >= node_limit:
            leaf_bound = max(leaf_bound, -neg_bound)
            continue
        nodes[k] += 1

        c, const = objectives[k]
        # children differ from their parent only in y bounds, so the
        # parent's basis stays dual feasible and warm-starts the child;
        # roots differ only in c, so they share one phase 1
        sol = enc.solve_node(c, y_fix, phase1 if start is None else start)
        if sol.status == LpStatus.INFEASIBLE:
            continue
        val = float(sol.objective_value) + const
        # a basic variable at a bound can come back an ulp outside it
        offer(np.clip(sol.x[: enc.n_in], enc.box.lo, enc.box.hi))

        if val <= cutoff():
            leaf_bound = max(leaf_bound, val)
            continue

        j = _branch_unit(sol.x[enc.y_off :], y_fix, enc.y_range,
                         enc.unit_weights(c, sol.basis))
        if j is None:
            # integral node: the LP already maximized over this region
            leaf_bound = max(leaf_bound, val)
            continue
        for bit in (0, 1):
            child = y_fix.copy()
            child[j] = bit
            seq += 1
            # both children share the parent's basis inverse
            heapq.heappush(heap, (-val, seq, k, child, sol.basis))

    if heap:
        # every node still queued is keyed at most the heap's top
        leaf_bound = max(leaf_bound, -heap[0][0])
    return incs, nodes, leaf_bound


def solve_worst_case(params, box: Box, gen_bounds: Box,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> WorstCaseCert:
    """Certified worst-case generator-bound violation over an input box.

    Searches every (generator, side) candidate in one shared best-first
    branch-and-bound tree (_branch_and_bound); candidates whose interval
    bound already rules them out are never solved.  The winner is the
    first candidate, in candidate_constraints order, with the largest
    margin.  node_limit caps the nodes per candidate; when it is hit
    the certificate reports the remaining gap instead of raising.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be positive")
    enc = _Encoding(params, box, gen_bounds)
    cids = candidate_constraints(params.n_outputs)
    incs, nodes, leaf_bound = _branch_and_bound(enc, cids, node_limit)
    # max keeps the first of equal values
    win = max(range(len(cids)), key=lambda k: incs[k].value)
    best_value = incs[win].value

    value = max(best_value, 0.0)
    bound = max(value, leaf_bound)
    gap = bound - value
    status = CERTIFIED if gap <= GAP_TOL else GAP_REMAINING
    if best_value > 0.0:
        witness = incs[win].witness
        cid = cids[win]
        pattern = [p.copy() for p in forward(params, witness).pattern]
    else:
        witness = None
        cid = None
        pattern = None
    return WorstCaseCert(value=value, witness=witness, constraint_id=cid,
                         pattern=pattern, bound=float(bound), gap=float(gap),
                         status=status, nodes_explored=sum(nodes))
