"""Axis-aligned boxes and preactivation bounds of ReLU layers.

narrow_deeper is the one loop that propagates intervals through the
layers: it re-propagates from one layer after its bounds have been
tightened, and interval_bounds is that pass from the first layer's
interval over the input box, every deeper bound starting unbounded.
lp_bounds tightens a layer's bounds by linear programming over the
big-M rows of the layers before it (Tjeng et al., ICLR 2019).  Each LP
value becomes a rigorous bound through its dual, as in Neumaier &
Shcherbina (Math. Prog. 99, 2004), so the simplex's tolerances never
make a bound too tight.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import BoundsUnavailable, NumericalBreakdown, ShapeMismatch
from ..simplex import LpProblem, LpStatus, row_duals, safe_max, solve_lp


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


@dataclass
class PreactBounds:
    """Valid preactivation intervals for every hidden neuron."""

    lower: list  # per hidden layer
    upper: list

    def stable_inactive(self, k):
        return self.upper[k] <= 0.0

    def unstable(self, k):
        return (self.lower[k] < 0.0) & (self.upper[k] > 0.0)


def interval_bounds(params, box):
    """Bounds valid over the whole input box.

    Returns (PreactBounds, out_lower, out_upper) where the output
    bounds are per-dimension intervals on the network output.
    """
    if box.dim != params.n_inputs:
        raise ShapeMismatch(f"box dimension {box.dim} does not match inputs {params.n_inputs}")
    if not (np.all(np.isfinite(box.lo)) and np.all(np.isfinite(box.hi))):
        raise BoundsUnavailable("input box must be bounded")
    dn, up = _affine_interval(params.weights[0], params.biases[0], box.lo, box.hi)
    # each deeper entry is the interval propagated to it, since
    # max(-inf, x) and min(inf, x) are x
    lower = [dn] + [np.full(d, -np.inf) for d in params.layer_dims[2:]]
    upper = [up] + [np.full(d, np.inf) for d in params.layer_dims[2:]]
    narrow_deeper(params, lower, upper, 0)
    out_dn, out_up = lower.pop(), upper.pop()
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


def lp_bounds(rows, rhs, lo, hi, forms, lower, upper, starts=None):
    """Tighten lower <= a @ x + b <= upper, for (a, b) = forms, by LP.

    Each unit is the affine form a[j] @ x + b[j] of x in the polytope
    rows @ x <= rhs, lo <= x <= hi (every bound finite).  Only units with
    lower < 0 < upper are solved: first their maximum, then their minimum
    unless the maximum already proves them inactive.  All LPs are
    siblings of one LpProblem under equal bounds, and safe_max takes the
    rows' magnitudes from that one row set.

    starts maps (unit, "max" or "min") to the basis that LP starts from,
    as the same bound LP of an earlier verification of the net left it
    (rows of the same layout, moved by a few training steps).  Such a
    start's inverse is carried, or refactorized where the rows moved
    (simplex.solve_lp).  An LP without one starts from the last optimal
    basis of this call's LPs of its sense, which the same rows and
    bounds make primal feasible, so only the primal simplex runs; and the first of a sense without one from the
    slack basis.  Every LP reads only its basis, so it is solved with
    the cutoff -inf, which no bound reaches: no x.

    Each optimal LP yields a safe bound from the row duals of its final
    basis (simplex.safe_max), which is rigorous for any multipliers, so
    a start changes what an LP proves by the simplex's tolerances at
    most.  An LP that ends other than optimal, or whose simplex breaks
    down (the iteration cap), leaves its bound as it was.  Returns
    (lower, upper, bases, pivots): new arrays never looser than the ones
    given, a copy of starts in which each LP that ended optimal has left
    its basis, and the simplex iterations of every LP solved, a broken
    one's (NumericalBreakdown.iterations) included.
    """
    a, b = forms
    lower = np.array(lower, dtype=float)
    upper = np.array(upper, dtype=float)
    lp = LpProblem(c=np.zeros(rows.shape[1]), a_ub=rows, b_ub=rhs, lo=lo, hi=hi)
    bases = dict(starts or {})
    last = {}  # sense -> the last optimal basis of that sense
    pivots = 0

    def upper_bound(key, c, off):
        nonlocal pivots
        problem = lp.sibling(c=c)
        start = bases[key] if key in bases else last.get(key[1])
        try:
            sol = solve_lp(problem, start=start, cutoff=-np.inf)
        except NumericalBreakdown as exc:
            pivots += exc.iterations
            return np.inf
        pivots += sol.iteration_count
        if sol.status != LpStatus.OPTIMAL:
            return np.inf
        bases[key] = last[key[1]] = sol.basis
        return safe_max(row_duals(sol.basis), problem, off)

    for j in np.flatnonzero((lower < 0.0) & (upper > 0.0)):
        upper[j] = min(upper[j], upper_bound((int(j), "max"), a[j], b[j]))
        if upper[j] > 0.0:
            lower[j] = max(lower[j], -upper_bound((int(j), "min"), -a[j], -b[j]))
    return lower, upper, bases, pivots
