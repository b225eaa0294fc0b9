"""Bounded-variable simplex for small dense LPs.

Solves

    maximize    c @ x
    subject to  a_eq @ x == b_eq
                a_ub @ x <= b_ub
                lo <= x <= hi        (entries may be -inf / +inf)

Every <= row gets a slack; nonbasic variables rest at one of their
finite bounds and bound flips are pivots that change no basis column.
This is the revised simplex method: the only state a solve carries
besides x and the statuses is binv, the inverse of the basis matrix.
Each iteration computes what it reads from binv (the reduced costs
c - (c_B @ binv) @ a, the entering column binv @ a_j and, in the dual
loop, the leaving row binv[r] @ a), and a pivot updates binv in place
in O(m^2).

A cold solve starts each variable at a finite bound (lower preferred).
A <= row whose residual is nonnegative there starts with its slack
basic; every other row starts with its artificial basic at the row's
residual, bounded on that residual's side of zero.  Every artificial
column is e_i, so the starting binv is the identity.  Phase 1 drives
the basic artificials to zero (no big-M constants) and is skipped when
there are none; phase 2 optimizes the objective.

solve_lp takes two kinds of start.  A warm start is the (basis, stat,
binv) that an earlier optimal solve left on LpSolution.basis.  The rows
and objective must be unchanged; variable bounds and the right-hand
sides b_eq and b_ub may differ.  The basis stays dual feasible because
its reduced costs c - c_B binv a involve neither b nor the bounds (each
boxed nonbasic moves to the bound its reduced cost favors).  The warm
core copies binv, sets the basic values to binv @ (b - a_N x_N), and
a dual simplex restores primal feasibility (or proves the LP
infeasible from a row of binv); the primal simplex finishes.  A start
for which binv @ a[:, basis] misses the identity by more than
_FEAS_TOL (a test that NaN also fails), or that is not dual feasible
or breaks down numerically, falls back to the cold path.  An LP
without rows takes the same path with an empty basis: each variable
flips to the bound its cost favors.

A warm start whose basis is already primal feasible for the new
right-hand sides takes no pivot: its x is the nonbasics at their bounds
and the basics solved for exactly (final_values).  basis_solutions
computes that x for a whole stack of right-hand sides at once, without
solving an LP, and says which of them the basis serves; the others
need solve_lp.  A dispatch dataset's samples share a handful of optimal
bases, so most of them never reach solve_lp.

A SharedPhase1 start serves LPs that differ only in c: phase 1 never
reads the objective, so the first of them runs the cold path and keeps
a copy of its state after phase 1, and each later one runs only phase
2 from a copy of that state, with the same result as a cold solve.
The rows, right-hand sides and bounds must be equal.

The dual and primal loops keep their per-iteration state (the movable
masks and the basic variables' bounds and costs) and update it at the
variables each pivot or bound flip moves; reduced costs are recomputed
on every iteration.

iteration_count counts dual pivots, primal pivots and bound flips, plus
the closing pricing pass of each primal phase.  All ties break toward
the lowest variable index, so repeated solves of the same problem (and
start) are bit identical.  After 1000 consecutive degenerate primal
pivots the entering rule switches to Bland's rule, which guarantees
termination.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

# nonbasic/basic status codes
_BASIC = 0
_AT_LO = 1
_AT_UP = 2
_FREE = 3

_BLAND_TRIGGER = 1000

_FEAS_TOL = 1e-7     # slack allowed on constraints and bounds
_PIVOT_TOL = 1e-12   # magnitude below which a pivot element counts as zero
_OBJ_TOL = 1e-9      # reduced-cost threshold for optimality


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """Dense LP data.  Missing constraint blocks may be passed as None."""

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
        if self.lo is None:
            self.lo = np.full(n, -np.inf)
        if self.hi is None:
            self.hi = np.full(n, np.inf)
        self.lo = np.asarray(self.lo, dtype=float).reshape(-1)
        self.hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if self.b_eq.shape[0] != self.a_eq.shape[0] or self.b_ub.shape[0] != self.a_ub.shape[0]:
            raise ValueError("constraint matrix / rhs shape mismatch")
        if self.lo.shape[0] != n or self.hi.shape[0] != n:
            raise ValueError("bound vectors must match the number of variables")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("NaN in variable bounds")
        if (self.lo > self.hi).any():
            raise ValueError("lower bound exceeds upper bound")
        if (self.lo == np.inf).any() or (self.hi == -np.inf).any():
            raise ValueError("infinite bound leaves a variable no value")
        for arr in (self.c, self.a_eq, self.a_ub, self.b_eq, self.b_ub):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError("nonfinite entries in LP data")


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray = None
    objective_value: float = float("nan")
    iteration_count: int = 0
    basis: tuple = None  # (basic indices, statuses, binv) of an optimal solve


class SharedPhase1:
    """A start shared by LPs that differ only in their objective.

    Phase 1 of a cold start depends on the rows, the right-hand sides
    and the bounds, never on c.  The first solve_lp given a SharedPhase1
    solves cold and leaves here a copy of its core's state just after
    phase 1; every later one resumes phase 2 from a copy of that state,
    so it returns what a cold solve would, bit for bit, without
    repeating phase 1.  Its iteration_count counts only its own pivots.
    """

    def __init__(self):
        self.state = None


def solve_lp(problem: LpProblem, start=None) -> LpSolution:
    """Solve an LpProblem; returns a deterministic LpSolution.

    start is one of two kinds:
    - the basis of an earlier optimal solve (LpSolution.basis) of a
      problem with the same rows and objective.  Variable bounds and the
      right-hand sides b_eq and b_ub may differ: the start's dual
      feasibility does not depend on them, as its reduced costs involve
      only a and c.
    - a SharedPhase1 passed to LPs with the same rows, right-hand sides
      and bounds; only c may differ.  The first of them runs phase 1,
      the others resume after it.
    """
    shared = start if isinstance(start, SharedPhase1) else None
    spent = 0
    if start is not None and shared is None:
        core = _Core(problem)
        try:
            status = core.warm(*start)
            if status is not None:
                return _solution(problem, core, status, 0)
        except NumericalBreakdown:
            pass
        spent = core.iterations
    core = _Core(problem)
    if shared is not None and shared.state is not None:
        return _solution(problem, core, core.resume(shared.state), 0)
    return _solution(problem, core, core.cold(shared), spent)


def basis_solutions(problem, basis, b_eq, b_ub):
    """What a warm start from basis returns without a pivot, for each of a
    stack of right-hand sides; solves no LP.

    problem gives the rows, objective and bounds (its own b_eq and b_ub
    are not read); b_eq (k, m_eq) and b_ub (k, m_ub) stack k right-hand
    sides, and b_ub may be None when problem has no <= rows.  basis is
    an earlier optimal solve's LpSolution.basis, as for solve_lp.
    Returns (x, ok), x of shape (k, n): where ok[i], basis is primal
    feasible within _FEAS_TOL for the i-th right-hand sides and x[i] is,
    bit for bit, solve_lp(problem with b_eq[i] and b_ub[i], start=basis).x,
    which takes no pivot there.  Where not ok[i] (basis not primal
    feasible, not dual feasible or no inverse of its matrix, or a
    solution that fails the feasibility recheck), x[i] is meaningless
    and the LP needs solve_lp.  Numerical trouble never raises.
    """
    core = _Core(problem)
    b_eq = np.asarray(b_eq, dtype=float)
    k = b_eq.shape[0]
    b_ub = np.zeros((k, 0)) if b_ub is None else np.asarray(b_ub, dtype=float)
    b = np.concatenate([b_eq.reshape(k, core.m_eq), b_ub.reshape(k, core.m - core.m_eq)],
                       axis=1)
    if not core._adopt(*basis):
        return np.zeros((k, core.n)), np.zeros(k, dtype=bool)
    # the basic values warm sets, and _dual's stopping test
    xb = core._basic_values(b)
    x = np.repeat(core.x[None], k, axis=0)
    x[:, core.basis] = xb
    lo_b = core.lo[core.basis]
    hi_b = core.hi[core.basis]
    ok = (np.maximum(lo_b - xb, xb - hi_b) <= _FEAS_TOL).all(axis=1)
    x, bad = core._exact(x, b)
    return x[:, :core.n], ok & ~bad


def row_duals(c, basis):
    """Row duals c_B @ binv of a basis of the LP maximizing c @ x.

    basis is an LpSolution.basis; its columns past c are slacks and
    artificials, which cost 0.  One entry per row, equality rows first.
    At an optimal basis the dual of a <= row is the objective's rate of
    change per unit of its right-hand side, so it is nonnegative up to
    the simplex's tolerances.
    """
    basic, _, binv = basis
    c_b = np.append(c, 0.0)[np.minimum(basic, c.shape[0])]
    return c_b @ binv


def _solution(problem, core, status, spent):
    """LpSolution of a finished core; spent counts abandoned warm iterations."""
    if status != LpStatus.OPTIMAL:
        return LpSolution(status, iteration_count=spent + core.iterations)
    x = core.final_values()[:core.n]
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=float(problem.c @ x),
                      iteration_count=spent + core.iterations,
                      basis=(core.basis, core.stat, core.binv))


class _Core:
    """Revised bounded-variable simplex over equality rows a z = b.

    Columns are [structural | one slack per <= row | one artificial per
    row], and row i's artificial column is e_i.  Artificials are pinned
    at zero except while phase 1 of a cold start drives them there.

    Besides x and stat, the core's state is the basic indices and binv,
    the m x m inverse of a[:, basis]; no tableau is kept.  _pivot(r,
    col) updates binv in place when the variable whose column binv maps
    to col enters at row r.

    The dual and primal loops carry their per-iteration state instead of
    rebuilding it: _track sets the rises/falls masks of _movable and the
    basic variables' bounds and costs at loop entry, and _move updates
    them at the variables each pivot or bound flip moves.
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
        self.n_total = self.n_real + m
        self.iterations = 0
        self.max_iterations = 50 * (self.n_total + m)

        a = np.zeros((m, self.n_total))
        a[:m_eq, :n] = problem.a_eq
        a[m_eq:, :n] = problem.a_ub
        rows = np.arange(m)
        a[rows[m_eq:], rows[:m_ub] + n] = 1.0
        a[rows, rows + self.n_real] = 1.0
        self.a = a
        self.b = np.concatenate([problem.b_eq, problem.b_ub])
        self.lo = np.concatenate([problem.lo, np.zeros(m_ub + m)])
        self.hi = np.concatenate([problem.hi, np.full(m_ub, np.inf), np.zeros(m)])
        self.c = np.zeros(self.n_total)
        self.c[:n] = problem.c

    # -- starting bases ------------------------------------------------------

    def cold(self, shared=None):
        """Slack/artificial start, phase 1 if needed, then phase 2.

        A SharedPhase1 passed as shared receives the state after phase 1.
        """
        m, n_real = self.m, self.n_real
        lo, hi = self.lo, self.hi
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        x = np.where(fin_lo, lo, np.where(fin_hi, hi, 0.0))
        stat = np.where(fin_lo, _AT_LO, np.where(fin_hi, _AT_UP, _FREE)).astype(np.int8)

        resid = self.b - self.a[:, :n_real] @ x[:n_real]
        rows = np.arange(m)
        slack = np.zeros(m, dtype=bool)
        slack[self.m_eq:] = resid[self.m_eq:] >= 0.0
        below = resid < 0.0
        art = n_real + rows
        lo[art[below]] = -np.inf
        hi[art[~(slack | below)]] = np.inf
        self.basis = np.where(slack, self.n + rows - self.m_eq, art)
        x[self.basis] = resid
        stat[self.basis] = _BASIC
        self.x = x
        self.stat = stat
        self.binv = np.eye(m)

        if not slack.all() and not self._phase1():
            return LpStatus.INFEASIBLE
        if shared is not None:
            shared.state = (self.a, self.b) + tuple(
                v.copy() for v in (self.binv, self.x, self.stat, self.basis, self.lo, self.hi))
        return self._phase2()

    def resume(self, state):
        """Phase 2 from the state that a cold start of an LP with equal
        rows, right-hand sides and bounds left after phase 1."""
        a, b, binv, x, stat, basis, lo, hi = state
        real = slice(None, self.n_real)
        if not (np.array_equal(self.a, a) and np.array_equal(self.b, b)
                and np.array_equal(self.lo[real], lo[real])
                and np.array_equal(self.hi[real], hi[real])):
            raise ValueError("a shared phase 1 needs equal rows, right-hand sides and bounds")
        self.binv, self.x, self.stat, self.basis, self.lo, self.hi = (
            v.copy() for v in (binv, x, stat, basis, lo, hi))
        return self._phase2()

    def warm(self, basis, stat, binv):
        """Dual simplex from an earlier optimal basis; None if it is unusable."""
        if not self._adopt(basis, stat, binv):
            return None
        self.x[self.basis] = self._basic_values(self.b)
        if not self._dual():
            return LpStatus.INFEASIBLE
        return self._phase2()

    def _adopt(self, basis, stat, binv):
        """Take over an earlier optimal basis; False if it is unusable.

        binv, the inverse of that basis's matrix, is copied; the start is
        unusable when binv @ a[:, basis] misses the identity by more than
        _FEAS_TOL (binv does not invert this basis, or is not finite),
        and when the basis is not dual feasible.  Neither test reads b.
        On success x holds the nonbasics at their bounds and zero at the
        basics.
        """
        basis = np.array(basis, dtype=int)
        stat = np.array(stat, dtype=np.int8)
        m = self.m
        if (basis.shape != (m,) or stat.shape != (self.n_total,)
                or np.shape(binv) != (m, m)):
            raise ValueError("start basis does not match the problem's shape")
        lo, hi = self.lo, self.hi
        # nonbasics keep their bound where it is still finite
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        stat = np.where((stat == _AT_UP) & fin_hi, _AT_UP,
                        np.where(fin_lo, _AT_LO,
                                 np.where(fin_hi, _AT_UP, _FREE))).astype(np.int8)
        stat[basis] = _BASIC

        binv = np.array(binv, dtype=float)
        gap = binv @ self.a[:, basis]
        gap.flat[::m + 1] -= 1.0  # minus the identity
        if not (np.abs(gap) <= _FEAS_TOL).all():
            return False
        self.binv = binv
        self.basis = basis
        self.stat = stat

        # boxed nonbasics move to the bound their reduced cost favors; a
        # favored move toward an infinite bound is a dual infeasibility
        self._track(self.c)
        d = self._reduced_costs()
        up = self.rises & (d > _OBJ_TOL)
        down = self.falls & (d < -_OBJ_TOL)
        if (up & ~fin_hi).any() or (down & ~fin_lo).any():
            return False  # not dual feasible
        stat[up] = _AT_UP
        stat[down] = _AT_LO

        x = np.where(stat == _AT_UP, hi, np.where(stat == _AT_LO, lo, 0.0))
        x[basis] = 0.0
        self.x = x
        return True

    def _basic_values(self, b):
        """binv @ (b - a_N x_N) for one b or a stack, read while x holds
        zero at the basics."""
        return _matvec(self.binv, b - self.a @ self.x)

    def _phase2(self):
        return LpStatus.OPTIMAL if self._run(self.c) else LpStatus.UNBOUNDED

    # -- carried loop state --------------------------------------------------

    def _track(self, c):
        """Start carrying the state of a loop on objective c."""
        self.cost = c
        self.rises, self.falls = self._movable()
        self.lo_b = self.lo[self.basis]
        self.hi_b = self.hi[self.basis]
        self.c_b = c[self.basis]

    def _move(self, j, s, r=None, col=None):
        """Bound flip, or with a row r and j's column col = binv @ a_j a pivot.

        A flip gives nonbasic j status s; a pivot enters j at row r and
        that row's basic variable leaves with status s.  Only the moved
        variables' entries of the carried state change.
        """
        if r is None:
            moved = ((j, s),)
        else:
            moved = ((self.basis[r], s), (j, _BASIC))
            self.basis[r] = j
            self.lo_b[r] = self.lo[j]
            self.hi_b[r] = self.hi[j]
            self.c_b[r] = self.cost[j]
            self._pivot(r, col)
        for k, s_k in moved:
            self.stat[k] = s_k
            movable = self.hi[k] > self.lo[k]
            self.rises[k] = movable and (s_k == _AT_LO or s_k == _FREE)
            self.falls[k] = movable and (s_k == _AT_UP or s_k == _FREE)

    # -- dual simplex --------------------------------------------------------

    def _dual(self):
        """Pivot out bound-violating basics; False when the LP is infeasible.

        Assumes a dual feasible basis, so the leaving row's ratio test keeps
        every reduced cost on its optimal side.
        """
        if not self.m:
            return True
        self._track(self.c)
        binv, a, x, basis = self.binv, self.a, self.x, self.basis
        lo_b, hi_b, rises, falls = self.lo_b, self.hi_b, self.rises, self.falls
        while True:
            xb = x[basis]
            below = lo_b - xb
            excess = np.maximum(below, xb - hi_b)
            r = int(excess.argmax())
            if excess[r] <= _FEAS_TOL:
                return True
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")

            # x_r = beta - sum t_rj x_j, with row t_r = binv[r] @ a, moves
            # toward its bound when x_j moves in the direction of alpha_j
            g = 1.0 if below[r] > 0.0 else -1.0
            alpha = -g * (binv[r] @ a)
            elig = (rises & (alpha > _PIVOT_TOL)) | (falls & (alpha < -_PIVOT_TOL))
            if not elig.any():
                if self._row_proves_infeasible(r):
                    return False
                raise NumericalBreakdown("dual ratio test disagrees with its row")

            d = self._reduced_costs()
            aabs = np.abs(alpha)
            room = np.maximum(-np.sign(alpha) * d, 0.0)  # |d_j| when dual feasible
            # Harris two-pass ratio test, as in the primal _run
            theta = ((room[elig] + _OBJ_TOL) / aabs[elig]).min()
            cand = np.flatnonzero(elig & (room <= theta * aabs))
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

    def _run(self, c):
        """Primal simplex on objective c from a primal feasible basis;
        False when c @ x is unbounded above."""
        self._track(c)
        binv, a, x, basis = self.binv, self.a, self.x, self.basis
        lo, hi, m = self.lo, self.hi, self.m
        lo_b, hi_b, rises, falls = self.lo_b, self.hi_b, self.rises, self.falls
        bland = False
        stalled = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")
            d = self._reduced_costs()
            elig = (rises & (d > _OBJ_TOL)) | (falls & (d < -_OBJ_TOL))
            if not elig.any():
                return True  # optimal for this phase
            if bland:
                j = int(elig.argmax())
            else:
                j = int(np.where(elig, np.abs(d), 0.0).argmax())
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

            t_flip = hi[j] - lo[j]  # inf unless j is boxed
            t_min = t_arr.min() if m else np.inf
            if t_flip == np.inf and t_min == np.inf:
                return False  # unbounded direction

            r = -1
            t_step = np.inf
            if t_min < np.inf:
                if bland:
                    ties = np.flatnonzero(t_arr == t_min)
                    r = int(ties[basis[ties].argmin()])
                else:
                    # Harris two-pass ratio test: allow _FEAS_TOL of bound
                    # slack when shortlisting leaving rows, then take the
                    # largest pivot so near-zero elements never enter the
                    # basis.  Any overshoot of another row's bound is at
                    # most _FEAS_TOL by the definition of theta.
                    theta = ((room + _FEAS_TOL) / adelta).min()
                    cand = np.flatnonzero(t_arr <= theta)
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
        """Reduced costs of the tracked objective."""
        return self.cost - (self.c_b @ self.binv) @ self.a

    def _movable(self):
        """(rises, falls): nonbasics free to move up, and down, from their bound."""
        movable = self.hi > self.lo
        rises = movable & ((self.stat == _AT_LO) | (self.stat == _FREE))
        falls = movable & ((self.stat == _AT_UP) | (self.stat == _FREE))
        return rises, falls

    def _pivot(self, r, col):
        """Enter the column that binv maps to col at row r: update binv."""
        binv = self.binv
        binv[r] /= col[r]
        col = col.copy()
        col[r] = 0.0
        binv -= col[:, None] * binv[r]

    def _phase1(self):
        """Drive the basic artificials to zero, then pin every artificial."""
        art = slice(self.n_real, None)
        c = np.zeros(self.n_total)
        c[art] = np.where(self.lo[art] < 0.0, 1.0, -1.0)  # maximize -|x_art|
        self._run(c)  # bounded by construction
        if np.abs(self.x[art]).sum() > _FEAS_TOL:
            return False
        self._drive_out_artificials()
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        nb_art = self.stat[art] != _BASIC
        self.stat[art][nb_art] = _AT_LO
        self.x[art] = np.where(nb_art, 0.0, self.x[art])
        return True

    def _drive_out_artificials(self):
        """Pivot basic artificials (all at zero) onto real columns where possible."""
        for r in range(self.m):
            v = self.basis[r]
            if v < self.n_real:
                continue
            row = self.binv[r] @ self.a[:, :self.n_real]
            cand = np.flatnonzero((np.abs(row) > 1e-9) & (self.stat[:self.n_real] != _BASIC))
            if cand.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(cand[0])
            self.stat[v] = _AT_LO
            self.x[v] = 0.0
            self.stat[j] = _BASIC
            self.basis[r] = j
            self._pivot(r, self.binv @ self.a[:, j])

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


def _matvec(a, x):
    """a @ x for one vector x or each row of a stack, computed alike.

    Each row goes to BLAS on its own; a row read with a stride other
    than one (as a column mask of a stack leaves it) would sum in
    another order, so the rows are made contiguous first.
    """
    return np.matmul(a, np.ascontiguousarray(x)[..., None])[..., 0]
