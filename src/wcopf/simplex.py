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
basic; every other row starts with its artificial basic at the row's
residual, bounded on that residual's side of zero.  Every artificial
column is e_i, so the starting basis is the identity.  Phase 1 drives
the basic artificials to zero (no big-M constants) and is skipped when
there are none; phase 2 optimizes the objective.

A warm solve takes the (basis, stat, binv) that an earlier optimal solve
left on LpSolution.basis; binv is that basis's inverse, read off the
artificial columns of the final tableau when .basis is first read.  The
rows and objective must be unchanged; variable bounds and the
right-hand sides b_eq and b_ub may differ.  The basis stays dual
feasible because its reduced costs c - c_B binv a involve neither b nor
the bounds (each boxed nonbasic moves to the bound its reduced cost
favors).  The tableau is rebuilt as binv @ [a | b] from the new b, a
dual simplex restores primal feasibility (or proves the LP infeasible
from a tableau row), and the primal simplex finishes.  A start whose
product is not finite or whose basis columns miss the identity by more
than _FEAS_TOL, or that is not dual feasible or breaks down
numerically, falls back to the cold path.  An LP without rows takes
the same path with an empty basis: each variable flips to the bound its
cost favors.

iteration_count counts dual pivots, primal pivots and bound flips, plus
the closing pricing pass of each primal phase.  All ties break toward
the lowest variable index, so repeated solves of the same problem (and
start) are bit identical.  After 1000 consecutive degenerate primal
pivots the entering rule switches to Bland's rule, which guarantees
termination.
"""

import enum
import functools
from dataclasses import dataclass, field

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
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("NaN in variable bounds")
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
    _core: "_Core" = field(default=None, repr=False, compare=False)  # set by an optimal solve

    @functools.cached_property
    def basis(self):
        """(basic indices, statuses, Binv) of an optimal solve, else None.

        Copied out of the finished core on first use, which then lets the
        core and its tableau go; solves that never warm-start another LP
        skip the copy.
        """
        core, self._core = self._core, None
        if core is None:
            return None
        return core.basis.copy(), core.stat.copy(), core.basis_inverse()


def solve_lp(problem: LpProblem, start=None) -> LpSolution:
    """Solve an LpProblem; returns a deterministic LpSolution.

    start is the basis of an earlier optimal solve of a problem with the
    same rows and objective (LpSolution.basis).  Variable bounds and the
    right-hand sides b_eq and b_ub may differ: the start's dual
    feasibility does not depend on them, as its reduced costs involve
    only a and c.
    """
    spent = 0
    if start is not None:
        core = _Core(problem)
        try:
            status = core.warm(*start)
            if status is not None:
                return _solution(problem, core, status, 0)
        except NumericalBreakdown:
            pass
        spent = core.iterations
    core = _Core(problem)
    return _solution(problem, core, core.cold(), spent)


def _solution(problem, core, status, spent):
    """LpSolution of a finished core; spent counts abandoned warm iterations."""
    if status != LpStatus.OPTIMAL:
        return LpSolution(status, iteration_count=spent + core.iterations)
    x = core.final_values()[:core.n]
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=float(problem.c @ x),
                      iteration_count=spent + core.iterations, _core=core)


class _Core:
    """Tableau-based bounded-variable simplex over equality rows a z = b.

    Columns are [structural | one slack per <= row | one artificial per
    row], and row i's artificial column is e_i.  Artificials are pinned
    at zero except while phase 1 of a cold start drives them there.
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
        below = resid < 0.0
        art = n_real + rows
        lo[art[below]] = -np.inf
        hi[art[~(slack | below)]] = np.inf
        self.basis = np.where(slack, self.n + rows - self.m_eq, art)
        x[self.basis] = resid
        stat[self.basis] = _BASIC
        self.x = x
        self.stat = stat
        self.t = self.a.copy()  # B = I

        if not slack.all() and not self._phase1():
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL if self._run(self.c) else LpStatus.UNBOUNDED

    def warm(self, basis, stat, binv):
        """Dual simplex from an earlier optimal basis; None if it is unusable.

        binv, the inverse of that basis's matrix, rebuilds the tableau as
        binv @ [a | b]; the start is unusable when that product is not
        finite or its basis columns miss the identity by more than
        _FEAS_TOL (binv does not invert this basis), and when the basis
        is not dual feasible.
        """
        basis = np.array(basis, dtype=int)
        stat = np.array(stat, dtype=np.int8)
        if (basis.shape != (self.m,) or stat.shape != (self.n_total,)
                or np.shape(binv) != (self.m, self.m)):
            raise ValueError("start basis does not match the problem's shape")
        lo, hi = self.lo, self.hi
        # nonbasics keep their bound where it is still finite
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        stat = np.where((stat == _AT_UP) & fin_hi, _AT_UP,
                        np.where(fin_lo, _AT_LO,
                                 np.where(fin_hi, _AT_UP, _FREE))).astype(np.int8)
        stat[basis] = _BASIC

        tab = binv @ np.column_stack([self.a, self.b])
        if not (np.all(np.isfinite(tab))
                and np.all(np.abs(tab[:, basis] - np.eye(self.m)) <= _FEAS_TOL)):
            return None
        self.t = np.ascontiguousarray(tab[:, :-1])
        self.basis = basis
        self.stat = stat

        # boxed nonbasics move to the bound their reduced cost favors
        d = self._reduced_costs(self.c)
        rises, falls = self._movable()
        stat[rises & (stat == _AT_LO) & fin_hi & (d > _OBJ_TOL)] = _AT_UP
        stat[falls & (stat == _AT_UP) & fin_lo & (d < -_OBJ_TOL)] = _AT_LO
        rises, falls = self._movable()
        if np.any((rises & (d > _OBJ_TOL)) | (falls & (d < -_OBJ_TOL))):
            return None  # not dual feasible

        x = np.where(stat == _AT_UP, hi, np.where(stat == _AT_LO, lo, 0.0))
        x[basis] = 0.0
        x[basis] = tab[:, -1] - self.t @ x
        self.x = x

        if not self._dual():
            return LpStatus.INFEASIBLE
        return LpStatus.OPTIMAL if self._run(self.c) else LpStatus.UNBOUNDED

    # -- dual simplex --------------------------------------------------------

    def _dual(self):
        """Pivot out bound-violating basics; False when the LP is infeasible.

        Assumes a dual feasible basis, so the leaving row's ratio test keeps
        every reduced cost on its optimal side.
        """
        while True:
            xb = self.x[self.basis]
            below = self.lo[self.basis] - xb
            above = xb - self.hi[self.basis]
            excess = np.maximum(below, above)
            if np.max(excess, initial=0.0) <= _FEAS_TOL:
                return True
            r = int(np.argmax(excess))
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")

            # x_r = beta - sum t_rj x_j moves toward its bound when x_j
            # moves in the direction of alpha_j
            g = 1.0 if below[r] > 0.0 else -1.0
            alpha = -g * self.t[r]
            rises, falls = self._movable()
            elig = (rises & (alpha > _PIVOT_TOL)) | (falls & (alpha < -_PIVOT_TOL))
            if not elig.any():
                if self._row_proves_infeasible(r):
                    return False
                raise NumericalBreakdown("dual ratio test disagrees with its row")

            d = self._reduced_costs(self.c)
            aabs = np.abs(alpha)
            room = np.maximum(-np.sign(alpha) * d, 0.0)  # |d_j| when dual feasible
            # Harris two-pass ratio test, as in the primal _run
            theta = np.min((room[elig] + _OBJ_TOL) / aabs[elig])
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
        cannot hold inside the bounds.  Artificial columns are the identity,
        so the row of Binv sits in those columns."""
        u = self.t[r, self.n_real:]
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
        bland = False
        stalled = 0
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalBreakdown(
                    f"simplex iteration cap {self.max_iterations} exceeded")
            d = self._reduced_costs(c)
            rises, falls = self._movable()
            can_inc = rises & (d > _OBJ_TOL)
            can_dec = falls & (d < -_OBJ_TOL)
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
            pos = delta > _PIVOT_TOL
            neg = delta < -_PIVOT_TOL
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
                    # Harris two-pass ratio test: allow _FEAS_TOL of bound
                    # slack when shortlisting leaving rows, then take the
                    # largest pivot so near-zero elements never enter the
                    # basis.  Any overshoot of another row's bound is at
                    # most _FEAS_TOL by the definition of theta.
                    theta = np.min((room[lim] + _FEAS_TOL) / adelta[lim])
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

            if gain <= _OBJ_TOL:
                stalled += 1
                if stalled >= _BLAND_TRIGGER:
                    bland = True
            else:
                stalled = 0

    def _reduced_costs(self, c):
        return c - c[self.basis] @ self.t

    def _movable(self):
        """(rises, falls): nonbasics free to move up, and down, from their bound."""
        movable = self.hi > self.lo
        rises = movable & ((self.stat == _AT_LO) | (self.stat == _FREE))
        falls = movable & ((self.stat == _AT_UP) | (self.stat == _FREE))
        return rises, falls

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

    def basis_inverse(self):
        """Binv: the tableau's artificial block, as every artificial column is e_i."""
        return self.t[:, self.n_real:].copy()

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
