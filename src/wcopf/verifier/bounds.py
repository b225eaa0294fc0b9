"""Axis-aligned boxes and preactivation bounds of ReLU layers.

interval_bounds propagates the input box through the layers by interval
arithmetic.  narrow_deeper re-propagates from one layer after its bounds
have been tightened, and lp_bounds tightens a layer's bounds by linear
programming over the big-M rows of the layers before it (Tjeng et al.,
ICLR 2019).  Each LP value becomes a rigorous bound through its dual, as
in Neumaier & Shcherbina (Math. Prog. 99, 2004), so the simplex's
tolerances never make a bound too tight.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import BoundsUnavailable, NumericalBreakdown, ShapeMismatch
from ..simplex import LpProblem, LpStatus, SharedPhase1, row_duals, solve_lp

# relative pad on a safe bound: covers the rounding of its dot products
_SAFE_PAD = 1e-12


@dataclass(frozen=True)
class Box:
    """Per-dimension interval [lo, hi]; entries may be infinite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).reshape(-1))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).reshape(-1))
        if self.lo.shape != self.hi.shape:
            raise ShapeMismatch("box bounds must have equal shapes")
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dim(self):
        return self.lo.shape[0]

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass
class PreactBounds:
    """Valid preactivation intervals for every hidden neuron."""

    lower: list  # per hidden layer
    upper: list

    def stable_active(self, k):
        return self.lower[k] >= 0.0

    def stable_inactive(self, k):
        return self.upper[k] <= 0.0


def interval_bounds(params, box):
    """Bounds valid over the whole input box.

    Returns (PreactBounds, out_lower, out_upper) where the output
    bounds are per-dimension intervals on the network output.
    """
    if box.dim != params.n_inputs:
        raise ShapeMismatch(f"box dimension {box.dim} does not match inputs {params.n_inputs}")
    lo = box.lo
    hi = box.hi
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise BoundsUnavailable("input box must be bounded")
    lower = []
    upper = []
    for k in range(params.n_hidden_layers):
        dn, up = _affine_interval(params.weights[k], params.biases[k], lo, hi)
        lower.append(dn)
        upper.append(up)
        lo = np.maximum(dn, 0.0)
        hi = np.maximum(up, 0.0)
    out_dn, out_up = _affine_interval(params.weights[-1], params.biases[-1], lo, hi)
    for arr in lower + upper + [out_dn, out_up]:
        if not np.all(np.isfinite(arr)):
            raise BoundsUnavailable("interval propagation produced nonfinite bounds")
    return PreactBounds(lower=lower, upper=upper), out_dn, out_up


def _affine_interval(w, b, lo, hi):
    """Interval (lower, upper) of w @ x + b over the box lo <= x <= hi."""
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    return wp @ lo + wn @ hi + b, wp @ hi + wn @ lo + b


def narrow_deeper(params, lower, upper, k):
    """Re-propagate intervals from layer k after its bounds have tightened.

    lower and upper list the bounds of every hidden layer and then of the
    output.  Each entry after k is replaced in place by its intersection
    with the interval propagated from the entry before it, so no bound
    ever loosens.
    """
    for i in range(k + 1, len(lower)):
        dn, up = _affine_interval(params.weights[i], params.biases[i],
                                  np.maximum(lower[i - 1], 0.0),
                                  np.maximum(upper[i - 1], 0.0))
        lower[i] = np.maximum(lower[i], dn)
        upper[i] = np.minimum(upper[i], up)


def lp_bounds(rows, rhs, lo, hi, forms, lower, upper):
    """Tighten lower <= a @ x + b <= upper, for (a, b) = forms, by LP.

    Each unit is the affine form a[j] @ x + b[j] of x in the polytope
    rows @ x <= rhs, lo <= x <= hi (every bound finite).  Only units with
    lower < 0 < upper are solved: first their maximum, then their minimum
    unless the maximum already proves them inactive.  All LPs share one
    SharedPhase1.  Each optimal LP yields a safe bound (_safe_max); an LP
    that is not optimal or breaks down numerically leaves its bound as it
    was.  Returns new arrays (lower, upper), never looser than the ones
    given.
    """
    a, b = forms
    lower = np.array(lower, dtype=float)
    upper = np.array(upper, dtype=float)
    phase1 = SharedPhase1()

    def safe_max(c, off):
        try:
            sol = solve_lp(LpProblem(c=c, a_ub=rows, b_ub=rhs, lo=lo, hi=hi), start=phase1)
        except NumericalBreakdown:
            return np.inf
        if sol.status != LpStatus.OPTIMAL:
            return np.inf
        return _safe_max(sol.basis, c, off, rows, rhs, lo, hi)

    for j in np.flatnonzero((lower < 0.0) & (upper > 0.0)):
        upper[j] = min(upper[j], safe_max(a[j], b[j]))
        if upper[j] > 0.0:
            lower[j] = max(lower[j], -safe_max(-a[j], -b[j]))
    return lower, upper


def _safe_max(basis, c, off, rows, rhs, lo, hi):
    """Rigorous upper bound on c @ x + off over rows @ x <= rhs, lo <= x <= hi.

    basis is an LpSolution.basis of that LP, whose row duals
    y = c_B @ binv (row_duals) are clipped at 0.  For any y >= 0 and
    any feasible x,
    c @ x = y @ rows @ x + r @ x <= y @ rhs + sum_j max(r_j lo_j, r_j hi_j)
    with r = c - rows.T @ y, so the bound holds whatever the simplex's
    tolerances, and is tight when the basis is optimal.  A pad relative
    to the magnitudes summed covers the rounding of its own arithmetic.
    """
    y = np.maximum(row_duals(c, basis), 0.0)
    r = c - rows.T @ y
    bound = y @ rhs + np.maximum(r * lo, r * hi).sum() + off
    scale = (y @ np.abs(rhs)
             + (np.abs(c) + np.abs(rows).T @ y) @ np.maximum(np.abs(lo), np.abs(hi))
             + abs(off))
    return bound + _SAFE_PAD * scale
