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
next, and one incumbent holds the best margin of any candidate at any
point evaluated in the box, so a loser is fathomed against the
winner's margin however early it is searched.  A node branches on the
free fractional unit with the largest weighted big-M range times
fractionality, nu+ * (zhi - zlo) * min(y, 1 - y), after their BaBSR
score: nu+ is the objective's marginal value on the unit's activation,
read from the node LP's row duals on the unit's three rows (falling back
to the unweighted score when no candidate unit has a positive weight).
The rule only picks which tree proves the bound, never what it proves.
Every tie-break is by index, so repeated runs explore identical trees
and return identical witnesses.

Every node LP is a sibling of one LpProblem per encoding (the same
rows, its own objective and y bounds), and every one is solved through
one call with the incumbent's cutoff.  A child's LP starts from its
parent's optimal basis with that cutoff: its dual simplex stops as soon
as the row duals prove that the child cannot beat the cutoff
(simplex.safe_max), and the child is then a fathomed leaf whose safe
bound counts toward the certificate's bound.  Such a child takes a
pivot or two, and no primal phase or forward pass of its point.

A root LP starts from its candidate's last optimal root basis when the
search is given an earlier certificate (solve_worst_case's start) whose
encoding has the same unstable units in every layer: a training loop
verifies a net that has moved by a few steps since, and its LPs differ
from the earlier ones only in their numbers.  The simplex refactorizes
such a start's inverse where the rows moved, and a root that its cutoff
stops is a leaf as a child is.  Bound LPs are started the same way,
layer by layer (bounds.lp_bounds).  A root without such a start starts
from the last root solved in the search: the roots differ only in their
objective, so that basis is primal feasible and only the primal simplex
runs.  Only the first root solved without one starts from the slack
basis (simplex.solve_lp).  Incremental
verification reuses more than the bases (Ugare et al., "Incremental
Verification of Neural Networks", PLDI 2023), but trees here average a
few nodes, and the bases are what carries over from one epoch to the
next.

A node LP that ends optimal is valued by safe_max over its row duals
too, with its candidate's constant folded in: a rigorous upper bound on
the candidate's margin over the node, a little above the LP optimum,
that fathoms the node or keys its children.  The same row duals weigh
its branching scores.  Its candidate point and its relaxed y are the
values the simplex carried (LpSolution.point), and the point is clipped
into the box and evaluated by forward, so a point off by the simplex's
tolerances weakens the incumbent at worst.  No node LP re-solves its
basis for an exact x, and every leaf's bound comes from a dual vector.

A search gives up on a node one way: it sets the node aside, and the
node's key (a child's is its parent's safe bound, a root's its interval
margin bound) still bounds the certificate.  That happens past
node_limit and when the node LP raises NumericalBreakdown, so no
breakdown escapes the search.  A root's key is rounded to nearest, not
padded, as for a root the search never solves.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalBreakdown
from ..mlp.network import forward
from ..simplex import LpProblem, LpStatus, row_duals, safe_add, safe_max, solve_lp
from .bounds import Box, PreactBounds, interval_bounds, lp_bounds, narrow_deeper
from .patterns import candidate_constraints, margin_form, margin_of_output
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
class _Bases:
    """The optimal LP bases a verification leaves for the next one.

    layout is the encoding's (n_inputs, n_outputs, unstable-unit mask of
    each hidden layer); roots maps a candidate's index to its last
    optimal root basis; bounds maps a hidden layer to the last optimal
    basis of each of its bound LPs, keyed (unit, "max" or "min").
    """

    layout: tuple
    roots: dict
    bounds: dict

    def fits(self, layout, depth):
        """Whether LPs over the rows of the first depth hidden layers of
        an encoding with this layout have the layout of these bases."""
        (n_in, n_out, masks), (n_in2, n_out2, masks2) = self.layout, layout
        return ((n_in, n_out) == (n_in2, n_out2)
                and [m.shape for m in masks] == [m.shape for m in masks2]
                and all(np.array_equal(a, b) for a, b in zip(masks[:depth], masks2[:depth])))


@dataclass(frozen=True)
class WorstCaseCert:
    """Outcome of a verification run.

    value is the largest violation found at a point of the box, clipped
    at zero; witness, constraint_id and pattern say where (all None
    exactly when value is 0).  bound is a rigorous upper bound on the
    violation; gap = bound - value.  status is "certified" when the gap
    is within GAP_TOL, else "gap_remaining": bound holds the key of each
    node set aside (past node_limit, or whose node LP broke down), and
    value is only a lower bound, as the one sentence warning says.  So
    only a certified certificate without a witness shows no violation.
    lp_pivots counts the simplex iterations of all the run's LPs.

    bases holds the run's optimal LP bases (_Bases), the start of a later
    verification of the net a few training steps on (solve_worst_case's
    start).  It takes no part in equality or repr, and no JSON document
    holds it.
    """

    value: float
    witness: np.ndarray
    constraint_id: tuple
    pattern: list
    bound: float
    gap: float
    status: str
    nodes_explored: int
    lp_pivots: int = 0
    bases: _Bases = field(default=None, compare=False, repr=False)

    @property
    def certified(self):
        return self.status == CERTIFIED

    @property
    def warning(self):
        return None if self.certified else (
            f"verification left a gap of {self.gap:.3e} (node limit or numerical trouble): "
            f"v_g {self.value:.6g} is a lower bound; the worst violation is at most bound "
            f"{self.bound:.6g}")


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

    start, if given, is an earlier verification's _Bases: layer k's
    bound LPs start from its bases for layer k when it fits the unstable
    units of the layers before k.  bound_bases keeps this encoding's
    bound-LP bases in the same form, pivots the simplex iterations of
    its bound LPs, and layout its unstable units (see _Bases).
    """

    def __init__(self, params, box: Box, gen_bounds: Box, start=None):
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
        self.bound_bases = {}
        self.pivots = 0
        for k in range(1, n_layers):
            bounds = PreactBounds(lower, upper)
            rows, rhs, lo, hi, _, act, off = self._build(bounds, k)
            w, b = params.weights[k], params.biases[k]
            earlier = None
            if start is not None and start.fits(self._layout(bounds), k):
                earlier = start.bounds.get(k)
            lower[k], upper[k], self.bound_bases[k], pivots = lp_bounds(
                rows, rhs, lo, hi, (w @ act, w @ off + b), lower[k], upper[k], earlier)
            self.pivots += pivots
            narrow_deeper(params, lower, upper, k)
        self.pre = PreactBounds(lower[:n_layers], upper[:n_layers])
        self.layout = self._layout(self.pre)
        self.out_dn = lower[-1]
        self.out_up = upper[-1]
        (self.rows, self.rhs, self.var_lo, self.var_hi, self.y_range,
         self.out_act, self.out_off) = self._build(self.pre, n_layers)
        self.n_unstable = self.y_range.shape[0]
        self.y_off = self.n_in + self.n_unstable
        self.n_vars = self.rows.shape[1]
        # every node LP is a sibling of this one: same rows, own c and bounds
        self.node_lp = LpProblem(c=np.zeros(self.n_vars), a_ub=self.rows, b_ub=self.rhs,
                                 lo=self.var_lo, hi=self.var_hi)

    def _layout(self, pre):
        """(n_inputs, n_outputs, unstable-unit mask of each hidden layer)
        under the bounds pre (see _Bases)."""
        return (self.n_in, self.params.n_outputs,
                [pre.unstable(k) for k in range(self.params.n_hidden_layers)])

    def _build(self, pre, depth):
        """Rows of the hidden layers before depth, from the bounds pre.

        Returns (rows, rhs, var_lo, var_hi, y_range, act, off), where
        act @ x + off is the activation of layer depth - 1 (the input at
        depth 0).
        """
        unstable = [pre.unstable(k) for k in range(depth)]
        active = [~(u | pre.stable_inactive(k)) for k, u in enumerate(unstable)]
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
        """(c, const): the candidate's margin is c @ x + const."""
        g, sign, offset = margin_form(self.gen_bounds, constraint_id)
        w_out = self.params.weights[-1][g]
        out_off = float(w_out @ self.out_off + self.params.biases[-1][g])
        return sign * (w_out @ self.out_act), sign * out_off + offset

    def interval_margin_bound(self, constraint_id):
        """Cheap upper bound on the candidate's margin over the box: its
        margin at the output interval's end on the candidate's side."""
        end = self.out_up if constraint_id[1] == "upper" else self.out_dn
        return margin_of_output(end, self.gen_bounds, constraint_id)

    def solve_node(self, c, y_fix, start=None, cutoff=None):
        lo = self.var_lo.copy()
        hi = self.var_hi.copy()
        lo[self.y_off :] = y_fix == 1
        hi[self.y_off :] = y_fix != 0
        return solve_lp(self.node_lp.sibling(c=c, lo=lo, hi=hi), start=start, cutoff=cutoff)

    def unit_weights(self, u):
        """Objective weight of each unstable unit at a node LP's basis.

        With u the basis's row duals (simplex.row_duals), nu = u[3k] -
        u[3k+1] + u[3k+2] is the price that unit k's three rows put on
        its z: the objective's marginal value on z downstream.  Returns
        max(nu, 0), in the order of the y variables.
        """
        return np.maximum(u[0::3] - u[1::3] + u[2::3], 0.0)


class _Incumbent:
    """Best exactly-attained margin of any candidate so far: its value,
    its candidate's index and a witness point.  It keeps the first
    candidate with the largest value, that candidate's value bits as
    first seen, and the lexicographically smallest point attaining it."""

    def __init__(self):
        self.value = -np.inf
        self.index = np.inf
        self.witness = None

    def offer(self, value, index, point):
        if value > self.value or (value == self.value and index < self.index):
            self.value = value
            self.index = index
            self.witness = np.array(point, dtype=float)
        elif (value == self.value and index == self.index
              and tuple(point) < tuple(self.witness)):
            self.witness = np.array(point, dtype=float)


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


def _branch_and_bound(enc: _Encoding, cids, node_limit, roots):
    """Maximize every candidate margin in one best-first tree.

    Heap entries are (-bound, seq, candidate index, y_fix, parent's LP
    basis).  A root is keyed by its candidate's interval margin bound and
    every other node by its parent's LP value, so the node with the
    largest bound over all candidates is expanded first, and a root
    whose interval bound is already beaten is never solved.  Every point
    the search evaluates (the box midpoint and each clipped node-LP
    point) lies in the box and so attains its margin for every
    candidate; each of these margins is offered to the one incumbent,
    and a node is fathomed once it cannot beat the cutoff,
    max(incumbent value, 0) + FATHOM_PAD.  A surviving node branches on
    the unit _branch_unit picks.  A node popped after its candidate has
    solved node_limit node LPs, or whose node LP raises
    NumericalBreakdown, is set aside unexplored: it still counts in its
    candidate's nodes, records no root basis and offers no point.  Returns
    (incumbent, nodes, leaf_bound, pivots): the _Incumbent, a node
    count per candidate, the largest bound on any leaf of the tree, so
    on any margin in the box (the safe bound of each fathomed or
    integral node, and of each node whose LP stopped at the cutoff, and
    the key of each node set aside or left in the heap; -inf if there is
    none), and the simplex iterations of every node LP, a broken one's
    (NumericalBreakdown.iterations) included.

    Every node LP is solved with the cutoff at the time it is solved.
    roots maps a candidate's index to the basis its root LP starts from
    (an earlier verification's, refactorized where its rows moved); each
    root LP that ends optimal replaces its entry.  A root without one
    starts from the last optimal root basis of this search: roots differ
    only in their objective, so that basis is primal feasible, only the
    primal simplex runs, and the cutoff stops nothing.  The first root without one
    starts from the slack basis.  A child warm-starts from its parent's
    basis.  A started node that stops at the cutoff (LpStatus.CUTOFF)
    has no point, so it offers none, and it never branches.  An optimal
    node's value is safe_max over its row duals plus the candidate's
    constant, and a CUTOFF node's is its bound plus that constant
    (safe_add), so the pad covers the addition; the row duals also give
    _Encoding.unit_weights, and the point offered and branched on is
    LpSolution.point.
    """
    objectives = [enc.objective(cid) for cid in cids]
    forms = [margin_form(enc.gen_bounds, cid) for cid in cids]
    inc = _Incumbent()

    def offer(d):
        out = forward(enc.params, d).output
        for k, (g, sign, offset) in enumerate(forms):
            inc.offer(float(sign * out[g] + offset), k, d)

    def cutoff():
        return max(inc.value, 0.0) + FATHOM_PAD

    offer(enc.box.midpoint())
    free = np.full(enc.n_unstable, -1, dtype=np.int8)
    heap = [(-enc.interval_margin_bound(cid), k, k, free, roots.get(k))
            for k, cid in enumerate(cids)]
    heapq.heapify(heap)
    seq = len(heap)
    nodes = [0] * len(cids)
    leaf_bound = -np.inf
    pivots = 0
    last_root = None  # the last optimal root basis

    while heap and -heap[0][0] > cutoff():
        neg_bound, _, k, y_fix, start = heapq.heappop(heap)
        if nodes[k] >= node_limit:
            leaf_bound = max(leaf_bound, -neg_bound)
            continue
        nodes[k] += 1

        c, const = objectives[k]
        root = y_fix is free
        if root and start is None:
            start = last_root
        # a child differs from its parent only in y bounds, so the parent's
        # basis stays dual feasible and warm-starts it, and its dual
        # simplex stops once it proves the child fathomed
        try:
            sol = enc.solve_node(c, y_fix, start, cutoff() - const)
        except NumericalBreakdown as exc:
            # set aside as a node past node_limit is: its key bounds its region
            leaf_bound = max(leaf_bound, -neg_bound)
            pivots += exc.iterations
            continue
        pivots += sol.iteration_count
        if sol.status == LpStatus.INFEASIBLE:
            continue
        if sol.status == LpStatus.CUTOFF:
            leaf_bound = max(leaf_bound, safe_add(sol.bound, const))
            continue
        if root:
            roots[k] = last_root = sol.basis
        duals = row_duals(sol.basis)
        val = float(safe_max(duals, sol.basis.problem, const))
        # a basic variable can sit up to the simplex's tolerance outside
        # its bounds
        offer(np.clip(sol.point[: enc.n_in], enc.box.lo, enc.box.hi))

        if val <= cutoff():
            leaf_bound = max(leaf_bound, val)
            continue

        j = _branch_unit(sol.point[enc.y_off :], y_fix, enc.y_range, enc.unit_weights(duals))
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
    return inc, nodes, leaf_bound, pivots


def solve_worst_case(params, box: Box, gen_bounds: Box,
                     node_limit: int = DEFAULT_NODE_LIMIT, start=None) -> WorstCaseCert:
    """Certified worst-case generator-bound violation over an input box.

    Searches every (generator, side) candidate in one shared best-first
    branch-and-bound tree (_branch_and_bound); candidates whose interval
    bound already rules them out are never solved.  The winner is the
    first candidate, in candidate_constraints order, with the largest
    margin.  node_limit caps the nodes per candidate.  A node past it,
    or one whose node LP breaks down numerically, is set aside and its
    key bounds the certificate, which then reports the remaining gap:
    this never raises NumericalBreakdown.

    start, if given, is the certificate of an earlier verification, as
    a training loop has from a few steps back.  Its LP bases (the
    certificate's bases) start this run's LPs where the layouts agree:
    a hidden layer's bound LPs when the unstable units of every layer
    before it are the same, and the root LPs when those of every layer
    are.  Other LPs solve as without a start, and a start from another
    architecture or unstable layout changes nothing.  The value, bound
    and status are as rigorous either way; a started run may end at
    another of the LPs' equal-valued vertices, so its witness and
    value's last bits may differ from a run without a start.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be positive")
    earlier = None if start is None else start.bases
    enc = _Encoding(params, box, gen_bounds, earlier)
    cids = candidate_constraints(params.n_outputs)
    roots = {}
    if earlier is not None and earlier.fits(enc.layout, params.n_hidden_layers):
        roots = dict(earlier.roots)
    inc, nodes, leaf_bound, pivots = _branch_and_bound(enc, cids, node_limit, roots)

    value = max(inc.value, 0.0)
    bound = max(value, leaf_bound)
    gap = bound - value
    status = CERTIFIED if gap <= GAP_TOL else GAP_REMAINING
    if inc.value > 0.0:
        witness = inc.witness
        cid = cids[inc.index]
        pattern = [p.copy() for p in forward(params, witness).pattern]
    else:
        witness = None
        cid = None
        pattern = None
    return WorstCaseCert(value=value, witness=witness, constraint_id=cid,
                         pattern=pattern, bound=float(bound), gap=float(gap),
                         status=status, nodes_explored=sum(nodes),
                         lp_pivots=enc.pivots + pivots,
                         bases=_Bases(enc.layout, roots, enc.bound_bases))
