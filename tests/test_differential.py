"""solve_worst_case against HiGHS on nets past brute force's reach.

The interval bounds and the big-M encoding below are written here from
scratch, so no verifier code is shared with the engine under test.  A
branch-and-bound node wrongly declared infeasible prunes a subtree and
overclaims the bound; HiGHS's optimum then exceeds that bound.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from oracles import bounds_around_outputs, naive_forward, seeded_net
from wcopf.verifier import MAX_HIDDEN_UNITS, Box, solve_worst_case
from wcopf.verifier.milp import CERTIFIED


def _preactivation_bounds(params, box):
    """Interval bounds of every hidden preactivation, centre/radius form."""
    centre = 0.5 * (box.lo + box.hi)
    radius = 0.5 * (box.hi - box.lo)
    out = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        mid = w @ centre + b
        rad = np.abs(w) @ radius
        out.append((mid - rad, mid + rad))
        lo = np.maximum(mid - rad, 0.0)
        hi = np.maximum(mid + rad, 0.0)
        centre = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
    return out


def _highs_worst_case(params, box, gen):
    """Largest margin over every (generator, side), one HiGHS MILP each.

    Returns (optimum, true margin at HiGHS's point).  Variables are
    [d | z per hidden unit | y per hidden unit].
    """
    n_in = params.n_inputs
    pre = _preactivation_bounds(params, box)
    h = sum(lo.shape[0] for lo, _ in pre)
    nv = n_in + 2 * h
    var_lo = np.concatenate([box.lo, np.zeros(2 * h)])
    var_hi = np.concatenate([box.hi, np.zeros(h), np.ones(h)])
    rows, rhs = [], []
    prev = list(range(n_in))
    unit = 0
    for (w, b), (s_lo, s_hi) in zip(zip(params.weights, params.biases), pre):
        layer = []
        for j in range(w.shape[0]):
            z = n_in + unit
            y = n_in + h + unit
            var_hi[z] = max(s_hi[j], 0.0)
            if s_hi[j] <= 0.0:
                var_hi[y] = 0.0
            if s_lo[j] >= 0.0:
                var_lo[y] = 1.0
            r = np.zeros(nv)       # z >= s
            r[prev] = w[j]
            r[z] = -1.0
            rows.append(r)
            rhs.append(-b[j])
            r = np.zeros(nv)       # z <= s - s_lo (1 - y)
            r[prev] = -w[j]
            r[z] = 1.0
            r[y] = -s_lo[j]
            rows.append(r)
            rhs.append(b[j] - s_lo[j])
            r = np.zeros(nv)       # z <= s_hi y
            r[z] = 1.0
            r[y] = -s_hi[j]
            rows.append(r)
            rhs.append(0.0)
            layer.append(z)
            unit += 1
        prev = layer
    integrality = np.zeros(nv)
    integrality[n_in + h:] = 1
    cons = LinearConstraint(np.array(rows), -np.inf, np.array(rhs))

    best, best_true = -np.inf, -np.inf
    w_out, b_out = params.weights[-1], params.biases[-1]
    for g in range(params.n_outputs):
        for side, sign, const in (("upper", 1.0, b_out[g] - gen.hi[g]),
                                  ("lower", -1.0, gen.lo[g] - b_out[g])):
            c = np.zeros(nv)
            c[prev] = sign * w_out[g]
            res = milp(-c, constraints=cons, integrality=integrality,
                       bounds=Bounds(var_lo, var_hi), options={"mip_rel_gap": 0.0})
            assert res.status == 0, res.message
            value = -res.fun + const
            if value > best:
                best = value
                best_true = _margin(params, gen, res.x[:n_in], (g, side))
    return best, best_true


def _margin(params, gen, d, constraint_id):
    out = naive_forward(params.weights, params.biases, d)
    g, side = constraint_id
    return out[g] - gen.hi[g] if side == "upper" else gen.lo[g] - out[g]


_CASES = [
    (0, (3, 24, 2), 0.6, -10.0),
    (1, (4, 32, 3), 0.7, -10.0),
    (2, (3, 40, 2), 0.5, 0.2),
    (3, (3, 10, 10, 2), 0.6, -10.0),
    (4, (4, 12, 14, 2), 0.7, 0.1),
    (5, (3, 16, 16, 1), 0.6, -10.0),
]


@pytest.mark.parametrize("seed,dims,frac_hi,frac_lo", _CASES)
def test_milp_matches_highs_past_brute_force(seed, dims, frac_hi, frac_lo):
    assert sum(dims[1:-1]) > MAX_HIDDEN_UNITS
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed,
                                frac_hi=frac_hi, frac_lo=frac_lo)
    cert = solve_worst_case(params, box, gen)
    optimum, true_at_optimum = _highs_worst_case(params, box, gen)
    optimum = max(optimum, 0.0)

    assert cert.status == CERTIFIED
    assert cert.value <= optimum + 1e-6 <= cert.bound + 2e-6
    assert true_at_optimum <= cert.bound + 1e-6
    if cert.value > 0.0:
        assert box.contains(cert.witness, tol=0.0)
        assert _margin(params, gen, cert.witness, cert.constraint_id) == \
            pytest.approx(cert.value, abs=1e-9)
