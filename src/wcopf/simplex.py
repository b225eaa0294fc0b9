"""Bounded-variable simplex for small dense LPs.

Solves

    maximize    c @ x
    subject to  a_eq @ x == b_eq
                a_ub @ x <= b_ub
                lo <= x <= hi        (every bound finite)

Every <= row gets a slack and every equality row an artificial pinned
at zero; nonbasic variables rest at one of their bounds and bound flips
are pivots that change no basis column.  This is the revised simplex
method: the only state a solve carries besides x and the statuses is
binv, the inverse of the basis matrix.  Each iteration computes what it
reads from binv (the reduced costs c - (c_B @ binv) @ a, the entering
column binv @ a_j and, in the dual loop, the leaving row binv[r] @ a),
and a pivot updates binv in place in O(m^2).

Every solve is one algorithm: a dual simplex from a dual feasible basis
restores primal feasibility, and the primal simplex finishes
(Koberstein, "The Dual Simplex Method, Techniques for a Fast and Stable
Implementation", PhD thesis, Paderborn, 2005).  Every variable is
boxed, so no solve needs a phase 1: a basis is dual feasible once each
nonbasic rests at the bound its reduced cost favors.  A solve without a
usable start begins from a crash basis (_Core.cold; Bixby,
"Implementing the simplex method: the initial basis", ORSA J.
Computing 4, 1992): each <= row's slack is basic, and so is each
equality row's artificial unless a structural of cost 0 that can move
has its one nonzero in that row (_RowSet.singletons), which is basic
in its place.  binv is diagonal, the row duals are 0, and each
structural rests at the bound its cost favors, so the basis is dual
feasible as it is.

LPs that share their rows share one validated LpProblem: sibling
derives one with a new objective or new bounds and validates only
those, and every core of a row set reads one [a | slacks | artificials]
matrix (_RowSet), laid out once.

solve_lp takes one kind of start: the basis of an earlier optimal
solve, LpSolution.basis, which remembers the problem it solved, and one
rule starts from it (_Core.warm).  Its basic indices and statuses stand.
Its binv is carried when the rows are the source's (siblings share
theirs, other rows are compared in full) and it passes the identity
test: binv @ a[:, basis] may miss the identity by at most _FEAS_TOL (a
test that NaN also fails).  A pass is not tested again for the same row
set (_Basis.inverts), so the two children of a branch-and-bound node pay
for one test between them.  Any other binv is refactorized from this
problem's a[:, basis] (_Core._refit), as a MIP solver re-solves from an
earlier basis (Achterberg, "Constraint Integer Programming", 2007), and
must pass the same test.

The simplex then measures what the start is, instead of inferring it
from the problem it came from, as the dual simplex over boxed variables
starts in Koberstein's thesis: the basic values are binv @ (b - a_N
x_N), and a primal feasible start goes straight to the primal simplex.
Any other start enters the dual simplex, which first flips each
nonbasic whose reduced cost favors its other bound there; the basis is
then dual feasible, and the dual simplex restores primal feasibility
(or proves the LP infeasible from a row of binv).  A sibling with
another objective over the same rows and bounds is primal feasible as
it is; a start whose objective stays, under new right-hand sides or the
tighter bounds of a branch-and-bound child, has its source's reduced
costs and flips nothing.  A singular basis matrix, a failed identity
test, or a flip that needs a slack's infinite upper bound (its row dual
turned negative) sends the solve to the crash basis, and so does a dual
simplex that breaks down numerically.  An LP without rows takes the
same paths with an empty basis.

A solve may come with a cutoff, which its dual simplex tests.  After
each dual pivot, and before the first when binv is fresh (the crash
basis or refactorized) or a status flipped, the row duals c_B @ binv
become a rigorous upper bound on the objective (safe_max, after
Neumaier & Shcherbina, Math. Prog. 99, 2004; it is the only
implementation, and the verifier's node and bound LPs use it too), and
the solve stops as soon as that bound is at or below the cutoff, with
status CUTOFF and the bound on LpSolution.bound: no x, no primal
simplex, no refactorization.  A solve that the cutoff does not stop
ends where it would without one.

An optimal solve carries its point: the nonbasics at their bounds and
the basics as the pivots left them, within _FEAS_TOL of feasible
(LpSolution.point).  One rule decides whether it also carries x, the
basics solved for exactly from the final basis (final_values), the one
O(m^3) step of a solve: a solve without a cutoff does, and a solve with
one does not.  A started solve whose x fails the feasibility recheck
starts again from the crash basis.

A warm start whose basis is already primal feasible for the new
right-hand sides takes no pivot, and its x is that same refactorized
point.  basis_solutions computes that x for a whole stack of right-hand
sides at once, without solving an LP, and says which of them the basis
serves; the others need solve_lp.  A dispatch dataset's samples share a
handful of optimal bases, so most of them never reach solve_lp.

The dual and primal loops keep their per-iteration state and update it
at the variables each pivot or bound flip moves, and the primal simplex
continues from the state the dual loop leaves.  That state is the basic
variables' bounds and costs and two direction multipliers per variable:
up_j = 1.0 where x_j may rise from its bound (else 0.0) and dn_j = -1.0
where it may fall (else -0.0).  One fused pass, max(d * up, d * dn), is
then |d_j| exactly where moving x_j helps and at most 0 elsewhere, so
its argmax is Dantzig's entering variable and its first entry above
_OBJ_TOL Bland's.  The dual ratio test finds its eligible columns by the
same fused pass over its row.  Reduced costs are recomputed on every
iteration.

iteration_count counts dual pivots, primal pivots and bound flips, plus
the primal simplex's closing pricing pass; a start's flips are not
counted.  All ties break toward the lowest variable index, so repeated
solves of the same problem (and start) are bit identical.  After 1000
consecutive degenerate primal pivots the entering rule switches to
Bland's rule, which guarantees the primal simplex terminates.  The dual
loop has no such rule; the iteration cap bounds it (NumericalBreakdown).
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

# nonbasic/basic status codes
_BASIC = 0
_AT_LO = 1
_AT_UP = 2

_BLAND_TRIGGER = 1000

_FEAS_TOL = 1e-7     # slack allowed on constraints and bounds
_PIVOT_TOL = 1e-12   # magnitude below which a pivot element counts as zero
_OBJ_TOL = 1e-9      # reduced-cost threshold for optimality
_SAFE_PAD = 1e-12    # relative pad on a safe bound: covers its own rounding
_CRASH_MIN = 1e-3    # smallest |entry| of a column the crash basis takes


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF = "cutoff"


@dataclass
class LpProblem:
    """Dense LP data.  Missing constraint blocks may be passed as None;
    the bounds lo and hi may not, and every entry must be finite.

    The rows and right-hand sides are validated and laid out for the
    simplex once, on construction (row_set); sibling derives problems
    that share them.  They must not change afterwards.
    """

    c: np.ndarray
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    a_ub: np.ndarray = None
    b_ub: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        if self.b_eq.shape[0] != self.a_eq.shape[0] or self.b_ub.shape[0] != self.a_ub.shape[0]:
            raise ValueError("constraint matrix / rhs shape mismatch")
        self._check_variables()
        for arr in (self.a_eq, self.a_ub, self.b_eq, self.b_ub):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError("nonfinite entries in LP data")
        self.row_set = _RowSet(self)

    def sibling(self, c=None, lo=None, hi=None):
        """This problem with a new objective c or new bounds lo and hi
        (each one left None is kept).  The rows and right-hand sides are
        shared, not copied or checked again, so LPs over one row set
        validate and lay out their rows once."""
        sib = object.__new__(LpProblem)
        sib.__dict__.update(self.__dict__)
        if c is not None:
            sib.c = np.asarray(c, dtype=float)
        sib.lo = self.lo if lo is None else lo
        sib.hi = self.hi if hi is None else hi
        sib._check_variables()
        return sib

    def _check_variables(self):
        """Validate c and the bounds: every variable must be boxed."""
        n = self.a_ub.shape[1]
        if self.c.shape != (n,):
            raise ValueError("objective must match the number of variables")
        if self.lo is None or self.hi is None:
            raise ValueError("missing bound: every variable must be boxed")
        self.lo = np.asarray(self.lo, dtype=float).reshape(-1)
        self.hi = np.asarray(self.hi, dtype=float).reshape(-1)
        lo, hi = self.lo, self.hi
        if lo.shape[0] != n or hi.shape[0] != n:
            raise ValueError("bound vectors must match the number of variables")
        # one pass for the valid case; a NaN fails every comparison
        if not ((lo <= hi) & (lo > -np.inf) & (hi < np.inf)).all():
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("NaN in variable bounds")
            if (lo > hi).any():
                raise ValueError("lower bound exceeds upper bound")
            raise ValueError("infinite bound: every variable must be boxed")
        if not np.isfinite(self.c).all():
            raise ValueError("nonfinite entries in LP data")


class _RowSet:
    """The rows of an LpProblem and its siblings in the simplex's layout.

    a = [a_eq; a_ub | one slack per <= row | one artificial per equality
    row], b = [b_eq; b_ub], and rows = [a_eq; a_ub], the structural block
    of a, for safe_max, which also reads abs_rows and abs_b, their
    magnitudes, computed on its first call over these rows.  Row i's
    slack or artificial column is e_i.  Nothing writes to them.
    """

    def __init__(self, problem):
        n = problem.c.shape[0]
        m_eq = problem.a_eq.shape[0]
        m_ub = problem.a_ub.shape[0]
        m = m_eq + m_ub
        self.n = n
        self.m = m
        self.m_eq = m_eq
        self.n_real = n + m_ub
        self.n_total = self.n_real + m_eq
        self.rows = np.concatenate([problem.a_eq, problem.a_ub])
        a = np.zeros((m, self.n_total))
        a[:, :n] = self.rows
        rows = np.arange(m)
        a[rows[m_eq:], rows[:m_ub] + n] = 1.0
        a[rows[:m_eq], rows[:m_eq] + self.n_real] = 1.0
        self.a = a
        self.b = np.concatenate([problem.b_eq, problem.b_ub])
        # bounds of the slacks and artificials, and their zero costs
        self.lo_tail = np.zeros(self.n_total - n)
        self.hi_tail = np.concatenate([np.full(m_ub, np.inf), np.zeros(m_eq)])

    @functools.cached_property
    def singletons(self):
        """(cols, rows): each structural column whose one nonzero in the
        rows is in an equality row and at least _CRASH_MIN in magnitude,
        in increasing order, and that row (_Core.cold)."""
        if not self.m_eq:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        nonzero = self.rows != 0.0
        rows = nonzero.argmax(axis=0)
        entry = np.abs(self.rows[rows, np.arange(self.n)])
        cols = np.flatnonzero((nonzero.sum(axis=0) == 1) & (rows < self.m_eq)
                              & (entry >= _CRASH_MIN))
        return cols, rows[cols]

    @functools.cached_property
    def abs_rows(self):
        return np.abs(self.rows)

    @functools.cached_property
    def abs_b(self):
        return np.abs(self.b)


@dataclass(eq=False)
class LpSolution:
    """What solve_lp returns.

    basis (the (basic indices, statuses, binv) of the final basis) and
    point (the structural values as the simplex carried them, within
    _FEAS_TOL of its bounds and rows) are set when the solve is optimal,
    and bound (a safe bound on the objective) when it stopped at its
    cutoff.  x, with its basic values solved for exactly from the final
    basis (_Core.final_values), and objective_value = c @ x are set when
    it is optimal and had no cutoff; otherwise x is None and
    objective_value NaN.
    """

    status: LpStatus
    iteration_count: int = 0
    basis: tuple = None
    point: np.ndarray = None
    x: np.ndarray = None
    objective_value: float = float("nan")
    bound: float = float("nan")


class _Basis(tuple):
    """LpSolution.basis: the (basic indices, statuses, binv) of an optimal
    solve, which also keeps the problem it solved (see _Core.warm).

    inverts is the _RowSet over whose matrix _Core._invert last found
    binv to invert a[:, basic], or None: a second start from this basis
    over those rows, as a branch-and-bound node's second child is, skips
    the identity test.  Nothing writes to the three arrays.
    """

    def __new__(cls, basic, stat, binv, problem):
        basis = super().__new__(cls, (basic, stat, binv))
        basis.problem = problem
        basis.inverts = None
        return basis


def solve_lp(problem: LpProblem, start=None, cutoff=None) -> LpSolution:
    """Solve an LpProblem; returns a deterministic LpSolution.

    start, if given, is the basis of an earlier optimal solve
    (LpSolution.basis); anything else raises TypeError, and one whose
    arrays do not fit this problem's shape ValueError.  Its binv is
    carried when the problem it solved has this one's rows and binv
    passes the identity test, and refactorized otherwise (_Core._refit).
    A primal feasible start then runs the primal simplex; any other runs
    the dual simplex first, once each nonbasic whose reduced cost favors
    its other bound has flipped there.  A solve without a start, or
    whose start is singular, fails the identity test or needs a slack at
    its infinite bound, starts from the crash basis (_Core.cold): the
    slack basis with each equality row's artificial swapped for the
    first structural of cost 0 that can move and has its one nonzero in
    that row, where there is one.

    With a cutoff, the dual simplex gives up as soon as the row duals
    after one of its pivots (or, for a fresh binv or a flipped status,
    before the first) prove c @ x <= cutoff (safe_max): the result is
    CUTOFF, its bound that proof's bound.  Every other result ends where
    it would without a cutoff.  An optimal solve has x exactly when it
    has no cutoff; a failed feasibility recheck of that x sends a
    started solve to the crash basis and raises NumericalBreakdown from
    a crash-basis one.  A NumericalBreakdown raised here carries the
    iterations of every attempt in its iterations.
    """
    spent = 0
    if start is not None:
        core = _Core(problem)
        try:
            status = core.warm(start, cutoff)
            if status is not None:
                return _solution(core, status, 0, cutoff)
        except NumericalBreakdown:
            pass
        spent = core.iterations
    core = _Core(problem)
    try:
        return _solution(core, core.cold(cutoff), spent, cutoff)
    except NumericalBreakdown as exc:
        exc.iterations = spent + core.iterations
        raise


def basis_solutions(basis, b_eq, b_ub):
    """What a warm start from basis returns without a pivot, for each of a
    stack of right-hand sides; solves no LP.

    basis is an earlier optimal solve's LpSolution.basis, as for
    solve_lp; the problem it solved gives the rows, objective and bounds
    (its own b_eq and b_ub are not read).  b_eq (k, m_eq) and b_ub
    (k, m_ub) stack k right-hand sides, and b_ub may be None when that
    problem has no <= rows.  Returns (x, ok), x of shape (k, n): where
    ok[i], basis is primal feasible within _FEAS_TOL for the i-th
    right-hand sides and x[i] is, bit for bit, solve_lp(problem with
    b_eq[i] and b_ub[i], start=basis).x, which takes no pivot there.
    Where not ok[i] (basis not primal feasible, binv no inverse of its
    matrix, or a solution that fails the feasibility recheck), x[i] is
    meaningless and the LP needs solve_lp.  Numerical trouble never
    raises.
    """
    core = _Core(_source(basis))
    b_eq = np.asarray(b_eq, dtype=float)
    k = b_eq.shape[0]
    b_ub = np.zeros((k, 0)) if b_ub is None else np.asarray(b_ub, dtype=float)
    b = np.concatenate([b_eq.reshape(k, core.m_eq), b_ub.reshape(k, core.m - core.m_eq)],
                       axis=1)
    if not core._invert(basis):
        return np.zeros((k, core.n)), np.zeros(k, dtype=bool)
    core._rest()
    # the basic values warm sets, and _dual's stopping test
    xb = core._basic_values(b)
    x = np.repeat(core.x[None], k, axis=0)
    x[:, core.basis] = xb
    lo_b = core.lo[core.basis]
    hi_b = core.hi[core.basis]
    ok = (np.maximum(lo_b - xb, xb - hi_b) <= _FEAS_TOL).all(axis=1)
    x, bad = core._exact(x, b)
    return x[:, :core.n], ok & ~bad


def _source(start):
    """The problem whose optimal solve left start, an LpSolution.basis."""
    if not isinstance(start, _Basis):
        raise TypeError("a start must be an LpSolution.basis")
    return start.problem


def row_duals(basis):
    """Row duals c_B @ binv of an LpSolution.basis, with c the objective
    of the problem it solved; its columns past c are slacks and
    artificials, which cost 0.  One entry per row, equality rows first.
    At an optimal basis the dual of a <= row is the objective's rate of
    change per unit of its right-hand side, so it is nonnegative up to
    the simplex's tolerances.
    """
    basic, _, binv = basis
    c = basis.problem.c
    c_b = np.append(c, 0.0)[np.minimum(basic, c.shape[0])]
    return c_b @ binv


def safe_max(y, problem, off=0.0, cutoff=np.inf):
    """Rigorous upper bound on problem.c @ x + off over the x that satisfy
    problem's rows within its bounds (every bound finite), from any row
    multipliers y, one per row with the equality rows first.  Where the
    bound is sure to exceed cutoff, the trivial bound inf is returned
    instead.

    The multipliers of the <= rows are clipped at 0.  For any feasible x,
    c @ x = y @ rows @ x + r @ x <= y @ rhs + sum_j max(r_j lo_j, r_j hi_j)
    with r = c - rows.T @ y, so the bound holds whatever the simplex's
    tolerances, and is tight when y are an optimal basis's row duals
    (row_duals).  A pad relative to the magnitudes summed covers the
    rounding of its own arithmetic, the addition of off included; it
    reads |y|, since an equality row's multiplier may have either sign
    (Neumaier & Shcherbina, "Safe bounds in linear and mixed-integer
    linear programming", Math. Prog. 99, 2004).  The rows, the
    right-hand sides and their magnitudes come from problem.row_set.
    """
    rs = problem.row_set
    c, lo, hi, m_eq = problem.c, problem.lo, problem.hi, rs.m_eq
    y = np.concatenate([y[:m_eq], np.maximum(y[m_eq:], 0.0)]) if m_eq else np.maximum(y, 0.0)
    r = c - rs.rows.T @ y
    bound = y @ rs.b + np.maximum(r * lo, r * hi).sum() + off
    if bound > cutoff:
        return np.inf  # the pad would only raise it
    y_abs = np.abs(y)
    scale = (y_abs @ rs.abs_b
             + (np.abs(c) + rs.abs_rows.T @ y_abs) @ np.maximum(np.abs(lo), np.abs(hi))
             + abs(off))
    return bound + _SAFE_PAD * scale


def safe_add(bound, off):
    """Rigorous upper bound on v + off from a safe_max bound on v: the sum,
    padded as safe_max pads an off of its own."""
    return bound + off + _SAFE_PAD * abs(off)


def _solution(core, status, spent, cutoff):
    """LpSolution of a finished core; spent counts abandoned warm
    iterations.  Without a cutoff an optimal one derives x, and a failed
    recheck raises NumericalBreakdown."""
    iterations = spent + core.iterations
    if status == LpStatus.CUTOFF:
        return LpSolution(status, iterations, bound=core.bound)
    if status != LpStatus.OPTIMAL:
        return LpSolution(status, iterations)
    sol = LpSolution(status, iterations, point=core.x[:core.n].copy(),
                     basis=_Basis(core.basis, core.stat, core.binv, core.problem))
    if cutoff is None:
        sol.x = core.final_values()[:core.n]
        sol.objective_value = float(core.problem.c @ sol.x)
    return sol


class _Core:
    """Revised bounded-variable simplex over equality rows a z = b.

    Columns are [structural | one slack per <= row | one artificial per
    equality row], and row i's slack or artificial column is e_i.
    Artificials are pinned at zero: one that is nonbasic (from the
    crash basis on, or once it leaves) never enters, and one that stays
    basic marks a redundant row.

    Besides x and stat, the core's state is the basic indices and binv,
    the m x m inverse of a[:, basis]; no tableau is kept.  _pivot(r,
    col) updates binv in place when the variable whose column binv maps
    to col enters at row r.

    The dual and primal loops carry their per-iteration state instead of
    rebuilding it: _track sets the direction multipliers up and dn of
    _directions and the basic variables' bounds and costs at loop entry,
    and _move updates them at the two variables a pivot moves, or the
    one a bound flip does.  The primal simplex continues from the state
    the dual loop leaves.
    """

    def __init__(self, problem):
        rs = problem.row_set
        self.problem = problem
        self.n = rs.n
        self.m = rs.m
        self.m_eq = rs.m_eq
        self.n_real = rs.n_real
        self.n_total = rs.n_total
        self.iterations = 0
        self.max_iterations = 50 * (self.n_real + 2 * self.m)

        self.a = rs.a
        self.b = rs.b
        self.lo = np.concatenate([problem.lo, rs.lo_tail])
        self.hi = np.concatenate([problem.hi, rs.hi_tail])
        self.c = np.concatenate([problem.c, rs.lo_tail])

    # -- starting bases ------------------------------------------------------

    def cold(self, cutoff=None):
        """Dual simplex from the crash basis, then the primal simplex.

        Each <= row's slack is basic, and so is each equality row's
        artificial unless the row has a crash column: a structural whose
        one nonzero in the rows is in that row, at least _CRASH_MIN in
        magnitude, with cost 0 and hi > lo (the lowest-index one; Bixby,
        "Implementing the simplex method: the initial basis", ORSA J.
        Computing 4, 1992).  It takes the artificial's place, which rests
        at its pinned zero.  The basis matrix is diagonal, so binv is too
        (1 / a_ij at a crash column's row), and each structural rests at
        the bound its cost favors (its upper bound where c_j > _OBJ_TOL).
        Every basic cost is 0, so the row duals are 0 and every reduced
        cost c_j is on its optimal side: the basis is dual feasible and
        the dual simplex flips nothing.  As for every fresh binv, it
        tests the cutoff before its first pivot.
        """
        m_eq = self.m_eq
        self.basis = np.concatenate([self.n_real + np.arange(m_eq),
                                     self.n + np.arange(self.m - m_eq)])
        self.stat = np.where(self.c > _OBJ_TOL, _AT_UP, _AT_LO).astype(np.int8)
        diag = np.ones(self.m)
        cols, rows = self.problem.row_set.singletons
        keep = (self.c[cols] == 0.0) & (self.hi[cols] > self.lo[cols])
        rows, first = np.unique(rows[keep], return_index=True)
        cols = cols[keep][first]
        self.basis[rows] = cols
        diag[rows] = self.a[rows, cols]
        self.stat[self.basis] = _BASIC
        self.binv = np.diag(1.0 / diag)
        return self._finish(cutoff, True)

    def warm(self, start, cutoff=None):
        """Dual simplex from start, an earlier optimal solve's
        LpSolution.basis, then the primal simplex from the state the dual
        loop leaves.  The start's basic indices and statuses stand; its
        binv is carried when its rows are this problem's (the same row
        set, or an equal [a | slacks | artificials]) and it passes
        _invert's identity test, and is refactorized (_refit) otherwise.
        None if that fails: the solve goes to the crash basis."""
        rows = _source(start).row_set
        same_rows = rows is self.problem.row_set or np.array_equal(rows.a, self.a)
        fresh = not (same_rows and self._invert(start))
        if fresh and not self._refit(start):
            return None
        return self._finish(cutoff, fresh)

    def _shaped(self, start):
        """A start's basic indices and statuses as fresh arrays, and its
        binv; ValueError unless their shapes are this problem's."""
        basis, stat, binv = start
        basis = np.array(basis, dtype=int)
        stat = np.array(stat, dtype=np.int8)
        m = self.m
        if (basis.shape != (m,) or stat.shape != (self.n_total,)
                or np.shape(binv) != (m, m)):
            raise ValueError("start basis does not match the problem's shape")
        return basis, stat, binv

    def _invert(self, start):
        """Copy a start's basis, statuses and inverse into the core; False
        if binv @ a[:, basis] misses the identity by more than _FEAS_TOL
        (binv does not invert this basis, or is not finite).  The test
        runs once per start and row set: a pass is remembered on the
        start (_Basis.inverts), a failure is not."""
        basis, stat, binv = self._shaped(start)
        binv = np.array(binv, dtype=float)
        rs = self.problem.row_set
        if start.inverts is not rs:
            if not _inverts(binv, self.a[:, basis]):
                return False
            start.inverts = rs
        self.basis = basis
        self.stat = stat
        self.binv = binv
        return True

    def _refit(self, start):
        """Copy a start's basis and statuses into the core with binv
        refactorized from this problem's a[:, basis]; False, and the core
        unusable, when that matrix is singular or the fresh binv fails
        _invert's identity test."""
        basis, stat, _ = self._shaped(start)
        bmat = self.a[:, basis]
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            return False
        if not _inverts(binv, bmat):
            return False
        self.basis = basis
        self.stat = stat
        self.binv = binv
        return True

    def _rest(self):
        """x with each nonbasic at the bound its status names and zero at
        the basics."""
        self.x = np.where(self.stat == _AT_UP, self.hi, self.lo)
        self.x[self.basis] = 0.0

    def _basic_values(self, b):
        """binv @ (b - a_N x_N) for one b or a stack, read while x holds
        zero at the basics."""
        return _matvec(self.binv, b - self.a @ self.x)

    def _place(self):
        """x with each nonbasic at the bound its status names and the
        basics at binv @ (b - a_N x_N)."""
        self._rest()
        self.x[self.basis] = self._basic_values(self.b)

    def _finish(self, cutoff, fresh):
        """Solve from the basis and statuses set: the basic values, the
        dual simplex (fresh as _dual's), then the primal simplex."""
        self._place()
        status = self._dual(cutoff, fresh)
        return self._run() if status is None else status

    # -- carried loop state --------------------------------------------------

    def _track(self):
        """Start carrying the state of a loop."""
        self.up, self.dn = self._directions()
        self.lo_b = self.lo[self.basis]
        self.hi_b = self.hi[self.basis]
        self.c_b = self.c[self.basis]

    def _directions(self):
        """(up, dn): up_j is 1.0 where x_j may rise from its bound, else
        0.0, and dn_j is -1.0 where it may fall, else -0.0.

        max(v * up, v * dn) is then |v_j| where x_j may move in the
        direction of v_j's sign and at most 0 everywhere else, so one
        pass prices every variable.
        """
        movable = self.hi > self.lo
        stat = self.stat
        up = np.where(movable & (stat == _AT_LO), 1.0, 0.0)
        dn = np.where(movable & (stat == _AT_UP), -1.0, -0.0)
        return up, dn

    def _move(self, j, s, r=None, col=None):
        """Bound flip, or with a row r and j's column col = binv @ a_j a pivot.

        A flip gives nonbasic j status s; a pivot enters j at row r and
        that row's basic variable leaves with nonbasic status s.  Only the
        moved variables' entries of the carried state change.
        """
        if r is not None:
            k = self.basis[r]
            self.basis[r] = j
            self.lo_b[r] = self.lo[j]
            self.hi_b[r] = self.hi[j]
            self.c_b[r] = self.c[j]
            self._pivot(r, col)
            self.stat[j] = _BASIC
            self.up[j] = 0.0
            self.dn[j] = -0.0
            j = k
        self.stat[j] = s
        movable = self.hi[j] > self.lo[j]
        self.up[j] = 1.0 if movable and s != _AT_UP else 0.0
        self.dn[j] = -1.0 if movable and s != _AT_LO else -0.0

    # -- dual simplex --------------------------------------------------------

    def _dual(self, cutoff=None, fresh=False):
        """Pivot out bound-violating basics.

        Returns None once the basis is primal feasible, at once for a
        primal feasible start, and INFEASIBLE when a row of binv proves it
        never will be.  Any other start is first made dual feasible: each
        nonbasic whose reduced cost favors moving it (the fused pass that
        _run prices with) flips to its other bound, and the basics move
        with it.  A flip that needs a slack's infinite upper bound raises
        NumericalBreakdown, which sends the solve to the crash basis.  The
        leaving row's ratio test then keeps every reduced cost on its
        optimal side.

        With a cutoff, each iteration after a pivot first turns the
        current row duals into a safe bound on the objective (safe_max,
        into self.bound) and returns CUTOFF without pivoting again once
        that bound is at or below the cutoff.  Before the first pivot the
        bound is tested only when binv is fresh (the crash basis or
        refactorized) or a status flipped: a carried start that flips
        nothing is its earlier solve's optimum, up to rounding, whenever
        its bounds only differ at basic variables, as a branch-and-bound
        child's do.  The loop state it starts carrying (_track) is
        current when it returns, for the primal simplex that follows.
        """
        self._track()
        if not self.m:
            return None
        binv, a, x, basis = self.binv, self.a, self.x, self.basis
        lo_b, hi_b, up, dn = self.lo_b, self.hi_b, self.up, self.dn
        p = self.problem
        priced = False  # whether the start's statuses were priced
        while True:
            xb = x[basis]
            below = lo_b - xb
            excess = np.maximum(below, xb - hi_b)
            r = int(excess.argmax())
            if excess[r] <= _FEAS_TOL:
                return None
            y = self.c_b @ binv  # the row duals
            if not priced:
                priced = True
                d = self.c - y @ a  # _reduced_costs
                wrong = (np.maximum(d * up, d * dn) > _OBJ_TOL).nonzero()[0]
                if wrong.size:
                    if (self.hi[wrong] == np.inf).any():
                        raise NumericalBreakdown(
                            "a slack's reduced cost favors its infinite bound")
                    for j in wrong:
                        self._move(j, _AT_UP if up[j] else _AT_LO)
                    self._place()
                    x = self.x
                    fresh = True
                    continue
            if cutoff is not None and (self.iterations or fresh):
                self.bound = safe_max(y, p, 0.0, cutoff)
                if self.bound <= cutoff:
                    return LpStatus.CUTOFF
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")

            # x_r = beta - sum t_rj x_j, with row t_r = binv[r] @ a, moves
            # toward its bound when x_j moves in the direction of alpha_j
            g = 1.0 if below[r] > 0.0 else -1.0
            alpha = -g * (binv[r] @ a)
            elig = np.maximum(alpha * up, alpha * dn) > _PIVOT_TOL
            movers = elig.nonzero()[0]
            if not movers.size:
                if self._row_proves_infeasible(r):
                    return LpStatus.INFEASIBLE
                raise NumericalBreakdown("dual ratio test disagrees with its row")

            if self.iterations > 1:  # the first pivot's were priced above
                d = self.c - y @ a
            aabs = np.abs(alpha)
            room = np.maximum(-np.sign(alpha) * d, 0.0)  # |d_j| when dual feasible
            # Harris two-pass ratio test, as in the primal _run
            ratios = (room[movers] + _OBJ_TOL) / aabs[movers]
            theta = ratios[ratios.argmin()]
            cand = (elig & (room <= theta * aabs)).nonzero()[0]
            j = int(cand[aabs[cand].argmax()])

            col = binv @ a[:, j]
            target = lo_b[r] if g > 0 else hi_b[r]
            step = (xb[r] - target) / col[r]
            x[basis] = xb - col * step
            x[j] += step
            x[basis[r]] = target
            self._move(j, _AT_LO if g > 0 else _AT_UP, r, col)

    def _row_proves_infeasible(self, r):
        """Recheck from the problem data that row r of binv @ a z = binv @ b
        cannot hold inside the bounds."""
        u = self.binv[r]
        coef = u @ self.a[:, :self.n_real]
        rhs = float(u @ self.b)
        coef[np.abs(coef) <= _PIVOT_TOL] = 0.0  # as in the ratio test
        pos = coef > 0.0
        neg = coef < 0.0
        top = coef[pos] @ self.hi[:self.n_real][pos] + coef[neg] @ self.lo[:self.n_real][neg]
        low = coef[pos] @ self.lo[:self.n_real][pos] + coef[neg] @ self.hi[:self.n_real][neg]
        pad = _FEAS_TOL * (1.0 + np.abs(u) @ np.abs(self.b))
        return rhs > top + pad or rhs < low - pad

    # -- primal simplex ------------------------------------------------------

    def _run(self):
        """Primal simplex from a primal feasible basis, on the loop state
        that _dual leaves (_track): OPTIMAL.  Every variable but the
        slacks is boxed, so an entering variable that no bound limits is
        a numerical breakdown."""
        binv, a, x, basis = self.binv, self.a, self.x, self.basis
        lo, hi, m = self.lo, self.hi, self.m
        lo_b, hi_b, up, dn = self.lo_b, self.hi_b, self.up, self.dn
        bland = False
        stalled = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")
            d = self._reduced_costs()
            # |d_j| where moving x_j raises the objective, at most 0 elsewhere
            score = np.maximum(d * up, d * dn)
            j = int((score > _OBJ_TOL).argmax() if bland else score.argmax())
            if not score[j] > _OBJ_TOL:
                return LpStatus.OPTIMAL
            sigma = 1.0 if d[j] > 0.0 else -1.0

            col = binv @ a[:, j]
            delta = -sigma * col  # basic variable rate of change per unit step
            xb = x[basis]
            adelta = np.abs(delta)
            pos = delta > _PIVOT_TOL
            neg = delta < -_PIVOT_TOL
            room = np.where(pos, hi_b - xb, np.where(neg, xb - lo_b, np.inf))
            np.maximum(room, 0.0, out=room)
            t_arr = room / adelta  # inf wherever the row does not limit the step

            t_flip = hi[j] - lo[j]  # inf for a slack
            t_min = t_arr[t_arr.argmin()] if m else np.inf
            if t_flip == np.inf and t_min == np.inf:
                raise NumericalBreakdown("no bound limits the entering variable")

            r = -1
            t_step = np.inf
            if t_min < np.inf:
                if bland:
                    ties = (t_arr == t_min).nonzero()[0]
                    r = int(ties[basis[ties].argmin()])
                else:
                    # Harris two-pass ratio test: allow _FEAS_TOL of bound
                    # slack when shortlisting leaving rows, then take the
                    # largest pivot so near-zero elements never enter the
                    # basis.  Any overshoot of another row's bound is at
                    # most _FEAS_TOL by the definition of theta.
                    ratios = (room + _FEAS_TOL) / adelta
                    theta = ratios[ratios.argmin()]
                    cand = (t_arr <= theta).nonzero()[0]
                    r = int(cand[adelta[cand].argmax()])
                t_step = t_arr[r]

            if t_flip <= t_step:
                # bound flip: no basis change
                x[basis] = xb + delta * t_flip
                if sigma > 0:
                    x[j] = hi[j]
                    self._move(j, _AT_UP)
                else:
                    x[j] = lo[j]
                    self._move(j, _AT_LO)
                gain = abs(d[j]) * t_flip
            else:
                x[basis] = xb + delta * t_step
                if delta[r] > 0:
                    x[basis[r]] = hi_b[r]
                    s = _AT_UP
                else:
                    x[basis[r]] = lo_b[r]
                    s = _AT_LO
                x[j] = x[j] + sigma * t_step
                self._move(j, s, r, col)
                gain = abs(d[j]) * t_step

            if gain <= _OBJ_TOL:
                stalled += 1
                if stalled >= _BLAND_TRIGGER:
                    bland = True
            else:
                stalled = 0

    def _reduced_costs(self):
        """Reduced costs c - (c_B @ binv) @ a."""
        return self.c - (self.c_b @ self.binv) @ self.a

    def _pivot(self, r, col):
        """Enter the column that binv maps to col at row r: update binv."""
        binv = self.binv
        binv[r] /= col[r]
        col = col.copy()
        col[r] = 0.0
        binv -= col[:, None] * binv[r]

    # -- solution extraction -------------------------------------------------

    def final_values(self):
        """Recompute basic values exactly from the current basis."""
        self.x, bad = self._exact(self.x, self.b)
        if bad:
            raise NumericalBreakdown("solution fails feasibility recheck")
        return self.x

    def _exact(self, x, b):
        """x with its basic values solved for from b and its nonbasic values,
        and whether it fails the feasibility recheck.

        x (..., n_total) and b (..., m) are one point or a stack; a
        stack's points come out bit for bit as if each went alone.  A
        singular basis matrix keeps the values x carries.
        """
        nonbasic = np.ones(self.n_total, dtype=bool)
        nonbasic[self.basis] = False
        rhs = b - _matvec(self.a[:, nonbasic], x[..., nonbasic])
        bmat = self.a[:, self.basis]
        try:
            x[..., self.basis] = np.linalg.solve(bmat, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass  # keep the values the pivots carried
        resid = np.abs(_matvec(self.a, x) - b)
        scale = 1.0 + np.abs(b)
        return x, (resid > 1e-6 * scale).any(axis=-1)


def _inverts(binv, bmat):
    """Whether binv @ bmat misses the identity by at most _FEAS_TOL, a
    test that NaN fails."""
    gap = binv @ bmat
    gap.flat[::gap.shape[0] + 1] -= 1.0  # minus the identity
    return bool((np.abs(gap) <= _FEAS_TOL).all())


def _matvec(a, x):
    """a @ x for one vector x or each row of a stack, computed alike.

    Each row goes to BLAS on its own; a row read with a stride other
    than one (as a column mask of a stack leaves it) would sum in
    another order, so the rows are made contiguous first.
    """
    return np.matmul(a, np.ascontiguousarray(x)[..., None])[..., 0]
