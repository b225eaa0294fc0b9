"""Bounded-variable simplex for small dense LPs.

Solves

    maximize    c @ x
    subject to  a_eq @ x == b_eq
                a_ub @ x <= b_ub
                lo <= x <= hi        (entries may be -inf / +inf)

Every <= row gets a slack; nonbasic variables rest at one of their
finite bounds and bound flips are pivots that change no basis column.

A cold solve starts each variable at a finite bound (lower preferred).
A <= row whose residual is nonnegative there starts with its slack
basic; only equality rows and violated rows get a basic artificial.
Phase 1 minimizes the sum of those artificials (no big-M constants)
and is skipped when there are none; phase 2 optimizes the objective.

A warm solve takes the (basis, stat) that an earlier optimal solve left
on LpSolution.basis.  When the rows and objective are unchanged and only
variable bounds moved, that basis is still dual feasible: the tableau is
rebuilt with one linear solve, a dual simplex restores primal
feasibility (or proves the LP infeasible from a tableau row), and the
primal simplex finishes.  A start that is singular, not dual feasible
or numerically unusable falls back to the cold path.

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
from .tolerances import DEFAULT_TOL, Tolerances

# nonbasic/basic status codes
_BASIC = 0
_AT_LO = 1
_AT_UP = 2
_FREE = 3

_BLAND_TRIGGER = 1000


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
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")
        for arr in (self.c, self.a_eq, self.a_ub, self.b_eq, self.b_ub):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("nonfinite entries in LP data")


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray = None
    objective_value: float = float("nan")
    iteration_count: int = 0
    basis: tuple = None    # (basic indices, statuses) of an optimal solve


def solve_lp(problem: LpProblem, tol: Tolerances = DEFAULT_TOL,
             start=None) -> LpSolution:
    """Solve an LpProblem; returns a deterministic LpSolution.

    start is the basis of an earlier optimal solve of a problem with the
    same rows and objective (LpSolution.basis); only bounds may differ.
    """
    if problem.a_eq.shape[0] + problem.a_ub.shape[0] == 0:
        return _solve_bounds_only(problem, tol)

    spent = 0
    if start is not None:
        core = _Core(problem, tol)
        try:
            status = core.warm(*start)
            if status is not None:
                return _solution(problem, core, status, 0)
        except (np.linalg.LinAlgError, NumericalBreakdown):
            pass
        spent = core.iterations
    core = _Core(problem, tol)
    return _solution(problem, core, core.cold(), spent)


def _solution(problem, core, status, spent):
    """LpSolution of a finished core; spent counts abandoned warm iterations."""
    if status != LpStatus.OPTIMAL:
        return LpSolution(status, iteration_count=spent + core.iterations)
    x = core.final_values()[:core.n]
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=float(problem.c @ x),
                      iteration_count=spent + core.iterations,
                      basis=(core.basis.copy(), core.stat.copy()))


def _solve_bounds_only(problem, tol):
    """No constraint rows: each variable sits at its favorable bound."""
    c, lo, hi = problem.c, problem.lo, problem.hi
    x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    for j in range(c.shape[0]):
        if c[j] > tol.objective:
            if not np.isfinite(hi[j]):
                return LpSolution(LpStatus.UNBOUNDED)
            x[j] = hi[j]
        elif c[j] < -tol.objective:
            if not np.isfinite(lo[j]):
                return LpSolution(LpStatus.UNBOUNDED)
            x[j] = lo[j]
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=float(c @ x), iteration_count=0)


class _Core:
    """Tableau-based bounded-variable simplex over equality rows a z = b.

    Columns are [structural | one slack per <= row | one artificial per
    row].  Artificials are pinned at zero unless the cold start makes
    them basic.
    """

    def __init__(self, problem, tol):
        n = problem.c.shape[0]
        m_eq = problem.a_eq.shape[0]
        m_ub = problem.a_ub.shape[0]
        m = m_eq + m_ub
        self.n = n
        self.m = m
        self.m_eq = m_eq
        self.n_real = n + m_ub
        self.n_total = self.n_real + m
        self.tol = tol
        self.iterations = 0
        self.max_iterations = 50 * (self.n_total + m)

        a = np.zeros((m, self.n_total))
        a[:m_eq, :n] = problem.a_eq
        a[m_eq:, :n] = problem.a_ub
        a[m_eq:, n:self.n_real] = np.eye(m_ub)
        a[:, self.n_real:] = np.eye(m)
        self.a = a
        self.b = np.concatenate([problem.b_eq, problem.b_ub])
        self.lo = np.concatenate([problem.lo, np.zeros(m_ub + m)])
        self.hi = np.concatenate([problem.hi, np.full(m_ub, np.inf), np.zeros(m)])
        self.c = np.zeros(self.n_total)
        self.c[:n] = problem.c

    # -- starting bases ------------------------------------------------------

    def cold(self):
        """Slack/artificial start, phase 1 if needed, then phase 2."""
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
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        art = n_real + rows
        self.a[rows, art] = sign
        hi[art[~slack]] = np.inf
        self.basis = np.where(slack, self.n + rows - self.m_eq, art)
        x[self.basis] = np.abs(resid)
        stat[self.basis] = _BASIC
        self.x = x
        self.stat = stat
        # B = diag(sign) (slack rows have sign +1), so Binv @ a is a row scaling
        self.t = self.a * sign[:, None]

        if not slack.all() and not self._phase1():
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL if self._run(self.c) else LpStatus.UNBOUNDED

    def warm(self, basis, stat):
        """Dual simplex from an earlier optimal basis; None if it is unusable.

        Raises LinAlgError when the basis matrix is singular.
        """
        basis = np.array(basis, dtype=int)
        stat = np.array(stat, dtype=np.int8)
        if basis.shape != (self.m,) or stat.shape != (self.n_total,):
            raise ValueError("start basis does not match the problem's shape")
        lo, hi = self.lo, self.hi
        # nonbasics keep their bound where it is still finite
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        stat = np.where((stat == _AT_UP) & fin_hi, _AT_UP,
                        np.where(fin_lo, _AT_LO,
                                 np.where(fin_hi, _AT_UP, _FREE))).astype(np.int8)
        stat[basis] = _BASIC

        tab = np.linalg.solve(self.a[:, basis], np.column_stack([self.a, self.b]))
        if not np.all(np.isfinite(tab)):
            return None
        t = np.ascontiguousarray(tab[:, :-1])

        # boxed nonbasics move to the bound their reduced cost favors
        tol = self.tol
        d = self.c - self.c[basis] @ t
        movable = hi > lo
        stat[movable & (stat == _AT_LO) & fin_hi & (d > tol.objective)] = _AT_UP
        stat[movable & (stat == _AT_UP) & fin_lo & (d < -tol.objective)] = _AT_LO
        rises = (stat == _AT_LO) | (stat == _FREE)
        falls = (stat == _AT_UP) | (stat == _FREE)
        if np.any(movable & ((rises & (d > tol.objective)) | (falls & (d < -tol.objective)))):
            return None  # not dual feasible

        x = np.where(stat == _AT_UP, hi, np.where(stat == _AT_LO, lo, 0.0))
        x[basis] = 0.0
        x[basis] = tab[:, -1] - t @ x
        self.basis = basis
        self.stat = stat
        self.x = x
        self.t = t

        if not self._dual():
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL if self._run(self.c) else LpStatus.UNBOUNDED

    # -- dual simplex --------------------------------------------------------

    def _dual(self):
        """Pivot out bound-violating basics; False when the LP is infeasible.

        Assumes a dual feasible basis, so the leaving row's ratio test keeps
        every reduced cost on its optimal side.
        """
        tol = self.tol
        while True:
            xb = self.x[self.basis]
            below = self.lo[self.basis] - xb
            above = xb - self.hi[self.basis]
            excess = np.maximum(below, above)
            r = int(np.argmax(excess))
            if excess[r] <= tol.feas:
                return True
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")

            # x_r = beta - sum t_rj x_j moves toward its bound when x_j
            # moves in the direction of alpha_j
            g = 1.0 if below[r] > 0.0 else -1.0
            alpha = -g * self.t[r]
            movable = self.hi > self.lo
            inc = movable & ((self.stat == _AT_LO) | (self.stat == _FREE)) & (alpha > tol.pivot)
            dec = movable & ((self.stat == _AT_UP) | (self.stat == _FREE)) & (alpha < -tol.pivot)
            elig = inc | dec
            if not elig.any():
                if self._row_proves_infeasible(r):
                    return False
                raise NumericalBreakdown("dual ratio test disagrees with its row")

            d = self.c - self.c[self.basis] @ self.t
            aabs = np.abs(alpha)
            room = np.maximum(-np.sign(alpha) * d, 0.0)  # |d_j| when dual feasible
            # Harris two-pass ratio test, as in the primal _run
            theta = np.min((room[elig] + tol.objective) / aabs[elig])
            cand = np.flatnonzero(elig & (room <= theta * aabs))
            j = int(cand[np.argmax(aabs[cand])])

            leaving = self.basis[r]
            target = self.lo[leaving] if g > 0 else self.hi[leaving]
            step = (xb[r] - target) / self.t[r, j]
            self.x[self.basis] = xb - self.t[:, j] * step
            self.x[j] += step
            self.x[leaving] = target
            self.stat[leaving] = _AT_LO if g > 0 else _AT_UP
            self.stat[j] = _BASIC
            self.basis[r] = j
            self._pivot(r, j)

    def _row_proves_infeasible(self, r):
        """Recheck from the problem data that row r of Binv @ a z = Binv @ b
        cannot hold inside the bounds.  Artificial columns are the identity
        in a warm start, so the row of Binv sits in those columns."""
        u = self.t[r, self.n_real:]
        coef = u @ self.a[:, :self.n_real]
        rhs = float(u @ self.b)
        coef[np.abs(coef) <= self.tol.pivot] = 0.0  # as in the ratio test
        pos = coef > 0.0
        neg = coef < 0.0
        top = coef[pos] @ self.hi[:self.n_real][pos] + coef[neg] @ self.lo[:self.n_real][neg]
        low = coef[pos] @ self.lo[:self.n_real][pos] + coef[neg] @ self.hi[:self.n_real][neg]
        pad = self.tol.feas * (1.0 + np.abs(u) @ np.abs(self.b))
        return rhs > top + pad or rhs < low - pad

    # -- primal simplex ------------------------------------------------------

    def _run(self, c):
        tol = self.tol
        bland = False
        stalled = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")
            d = c - c[self.basis] @ self.t
            movable = self.hi > self.lo
            can_inc = movable & ((self.stat == _AT_LO) | (self.stat == _FREE)) & (d > tol.objective)
            can_dec = movable & ((self.stat == _AT_UP) | (self.stat == _FREE)) & (d < -tol.objective)
            if not (can_inc.any() or can_dec.any()):
                return True  # optimal for this phase
            if bland:
                j = int(np.flatnonzero(can_inc | can_dec)[0])
            else:
                score = np.where(can_inc, d, 0.0) + np.where(can_dec, -d, 0.0)
                j = int(np.argmax(score))
            sigma = 1.0 if can_inc[j] else -1.0

            u = self.t[:, j]
            delta = -sigma * u  # basic variable rate of change per unit step
            xb = self.x[self.basis]
            lo_b = self.lo[self.basis]
            hi_b = self.hi[self.basis]

            adelta = np.abs(delta)
            pos = delta > tol.pivot
            neg = delta < -tol.pivot
            lim = pos | neg
            room = np.full(self.m, np.inf)
            room[pos] = np.maximum(hi_b[pos] - xb[pos], 0.0)
            room[neg] = np.maximum(xb[neg] - lo_b[neg], 0.0)
            t_arr = np.full(self.m, np.inf)
            t_arr[lim] = room[lim] / adelta[lim]

            t_flip = np.inf
            if np.isfinite(self.lo[j]) and np.isfinite(self.hi[j]):
                t_flip = self.hi[j] - self.lo[j]

            t_min = t_arr.min() if self.m else np.inf
            if not (np.isfinite(t_flip) or np.isfinite(t_min)):
                return False  # unbounded direction

            r = -1
            t_step = np.inf
            if np.isfinite(t_min):
                if bland:
                    ties = np.flatnonzero(t_arr == t_min)
                    r = int(ties[np.argmin(self.basis[ties])])
                else:
                    # Harris two-pass ratio test: allow tol.feas of bound
                    # slack when shortlisting leaving rows, then take the
                    # largest pivot so near-zero elements never enter the
                    # basis.  Any overshoot of another row's bound is at
                    # most tol.feas by the definition of theta.
                    theta = np.min((room[lim] + tol.feas) / adelta[lim])
                    cand = np.flatnonzero(lim & (t_arr <= theta))
                    r = int(cand[np.argmax(adelta[cand])])
                t_step = t_arr[r]

            if t_flip <= t_step:
                # bound flip: no basis change
                self.x[self.basis] = xb + delta * t_flip
                if sigma > 0:
                    self.x[j] = self.hi[j]
                    self.stat[j] = _AT_UP
                else:
                    self.x[j] = self.lo[j]
                    self.stat[j] = _AT_LO
                gain = abs(d[j]) * t_flip
            else:
                leaving = self.basis[r]
                self.x[self.basis] = xb + delta * t_step
                if delta[r] > 0:
                    self.x[leaving] = self.hi[leaving]
                    self.stat[leaving] = _AT_UP
                else:
                    self.x[leaving] = self.lo[leaving]
                    self.stat[leaving] = _AT_LO
                self.x[j] = self.x[j] + sigma * t_step
                self.stat[j] = _BASIC
                self.basis[r] = j
                self._pivot(r, j)
                gain = abs(d[j]) * t_step

            if gain <= tol.objective:
                stalled += 1
                if stalled >= _BLAND_TRIGGER:
                    bland = True
            else:
                stalled = 0

    def _pivot(self, r, j):
        t = self.t
        piv = t[r, j]
        t[r] = t[r] / piv
        col = t[:, j].copy()
        col[r] = 0.0
        t -= np.outer(col, t[r])
        # keep the entering column numerically exact
        t[:, j] = 0.0
        t[r, j] = 1.0

    def _phase1(self):
        """Drive the basic artificials to zero, then pin every artificial."""
        art = slice(self.n_real, None)
        c = np.zeros(self.n_total)
        c[art] = -1.0
        self._run(c)  # bounded by construction
        if self.x[art].sum() > self.tol.feas:
            return False
        self._drive_out_artificials()
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
            row = self.t[r, :self.n_real]
            cand = np.flatnonzero((np.abs(row) > 1e-9) & (self.stat[:self.n_real] != _BASIC))
            if cand.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(cand[0])
            self.stat[v] = _AT_LO
            self.x[v] = 0.0
            self.stat[j] = _BASIC
            self.basis[r] = j
            self._pivot(r, j)

    # -- solution extraction -------------------------------------------------

    def final_values(self):
        """Recompute basic values exactly from the current basis."""
        nonbasic = np.ones(self.n_total, dtype=bool)
        nonbasic[self.basis] = False
        rhs = self.b - self.a[:, nonbasic] @ self.x[nonbasic]
        bmat = self.a[:, self.basis]
        try:
            xb = np.linalg.solve(bmat, rhs)
            self.x[self.basis] = xb
        except np.linalg.LinAlgError:
            pass  # keep tableau-propagated values
        resid = np.abs(self.a @ self.x - self.b)
        scale = 1.0 + np.abs(self.b)
        if np.any(resid > 1e-6 * scale):
            raise NumericalBreakdown("solution fails feasibility recheck")
        return self.x
