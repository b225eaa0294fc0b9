"""solve_worst_case and solve_lp against HiGHS, past brute force's reach.

The interval bounds and the big-M encoding below are written here from
scratch, so no verifier code is shared with the engine under test.  A
branch-and-bound node wrongly declared infeasible prunes a subtree and
overclaims the bound; HiGHS's optimum then exceeds that bound.  This
encoding keeps every unit, so narrow boxes, where the verifier drops
the units interval analysis proves stable, check that substitution.

The LP core is checked on its own on seeded LPs far larger than vertex
enumeration can solve, cold and warm-started from a parent's basis.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from oracles import (MAX_HIDDEN_UNITS, bounds_around_outputs, in_box, naive_forward,
                     seeded_net)
from wcopf.simplex import LpProblem, LpStatus, row_duals, solve_lp
from wcopf.verifier import Box, solve_worst_case
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

    Returns (optimum, true margin at HiGHS's point clipped into the box).
    Variables are [d | z per hidden unit | y per hidden unit].
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
                best_true = _margin(params, gen, np.clip(res.x[:n_in], box.lo, box.hi),
                                    (g, side))
    return best, best_true


def _margin(params, gen, d, constraint_id):
    out = naive_forward(params.weights, params.biases, d)
    g, side = constraint_id
    return out[g] - gen.hi[g] if side == "upper" else gen.lo[g] - out[g]


def _check_against_highs(params, box, gen):
    cert = solve_worst_case(params, box, gen)
    optimum, true_at_optimum = _highs_worst_case(params, box, gen)
    optimum = max(optimum, 0.0)

    assert cert.status == CERTIFIED
    assert cert.value <= cert.bound
    assert cert.value <= optimum + 1e-6 <= cert.bound + 2e-6
    # a point in the box attains its forward-pass margin, so no bound may
    # fall below it, by any rounding
    assert true_at_optimum <= cert.bound
    if cert.value > 0.0:
        assert in_box(box, cert.witness, tol=0.0)
        assert _margin(params, gen, cert.witness, cert.constraint_id) == \
            pytest.approx(cert.value, abs=1e-9)


def _seeded_case(seed, dims, radius, frac_hi, frac_lo):
    params = seeded_net(seed, dims)
    box = Box(-radius * np.ones(dims[0]), radius * np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed,
                                frac_hi=frac_hi, frac_lo=frac_lo)
    return params, box, gen


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
    _check_against_highs(*_seeded_case(seed, dims, 1.0, frac_hi, frac_lo))


# boxes of half-width `radius` narrow enough that interval analysis proves
# many units stable, so the verifier substitutes them out of its encoding
_NARROW_CASES = [
    (10, (3, 12, 12, 2), 0.3, 0.6, -10.0),
    (12, (3, 16, 12, 1), 0.2, 0.5, -10.0),
    (17, (4, 14, 12, 2), 0.25, 0.7, 0.15),
    (18, (2, 20, 2), 0.3, 0.4, 0.2),
    (16, (3, 12, 10, 2), 0.02, 0.5, 0.2),     # every unit stable
    (15, (3, 32, 32, 2), 0.2, 0.6, -10.0),    # 64 hidden units
]


def _stability(params, box):
    """(stable-active, stable-inactive, unstable) unit counts per layer."""
    out = []
    for lo, hi in _preactivation_bounds(params, box):
        dead = hi <= 0.0
        live = (lo >= 0.0) & ~dead
        out.append((int(np.sum(live)), int(np.sum(dead)),
                    int(np.sum(~(live | dead)))))
    return out


@pytest.mark.parametrize("seed,dims,radius,frac_hi,frac_lo", _NARROW_CASES)
def test_milp_matches_highs_with_stable_units(seed, dims, radius, frac_hi,
                                              frac_lo):
    assert sum(dims[1:-1]) > MAX_HIDDEN_UNITS
    params, box, gen = _seeded_case(seed, dims, radius, frac_hi, frac_lo)
    layers = _stability(params, box)
    assert sum(live for live, _, _ in layers) > 0
    assert sum(dead for _, dead, _ in layers) > 0
    _check_against_highs(params, box, gen)


def test_milp_bound_holds_where_interval_rounding_overclaimed():
    # each candidate's interval margin bound is within FATHOM_PAD of 0, so
    # no root LP is solved and the bound is the larger of them; rounded to
    # nearest, it read 0.0, while HiGHS's point has a forward margin of
    # 5.55e-17
    params, box, gen = _seeded_case(0, (1, 3, 1), 0.2, 1.0, -10.0)
    cert = solve_worst_case(params, box, gen)
    assert cert.nodes_explored == 0 and cert.value == 0.0
    _check_against_highs(params, box, gen)


def test_narrow_cases_cover_the_substitutions():
    layers = {seed: _stability(*_seeded_case(seed, dims, radius, hi, lo)[:2])
              for seed, dims, radius, hi, lo in _NARROW_CASES}
    # two-layer nets whose stable-active layer-1 units feed unstable layer-2 units
    assert sum(len(v) == 2 and v[0][0] > 0 and v[1][2] > 0
               for v in layers.values()) >= 3
    assert all(unstable == 0 for _, _, unstable in layers[16])
    assert any(sum(map(sum, v)) == 64 for v in layers.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       widths=st.lists(st.integers(2, 8), min_size=1, max_size=2),
       n_in=st.integers(1, 3), n_out=st.integers(1, 2),
       radius=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
       frac_hi=st.floats(0.3, 1.2), frac_lo=st.sampled_from([-10.0, 0.1]))
def test_drawn_nets_match_highs(seed, widths, n_in, n_out, radius, frac_hi,
                                frac_lo):
    dims = (n_in, *widths, n_out)
    _check_against_highs(*_seeded_case(seed, dims, radius, frac_hi, frac_lo))


def _random_lp(seed):
    """Seeded LP of 30-60 variables and 25-40 rows, maximize c @ x.

    Rows are built around the middle of the box, so many of them are
    violated at the all-lower-bounds start.  Three variables, listed in
    free, are boxed at +-10, and rows |x_j| <= 5 keep them within bounds
    that never bind.  One <= row and one equality row are duplicated, and
    a floor row keeps x_0 in the top quarter of its range.  Every third
    seed adds a row that contradicts another, which makes the LP
    infeasible.  Returns (c, a_eq, b_eq, a_ub, b_ub, lo, hi), free.
    """
    rng = np.random.default_rng((seed, 41))
    n = int(rng.integers(30, 61))
    m_eq = int(rng.integers(1, 6))
    m_ub = int(rng.integers(16, 31)) - m_eq
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)
    x0 = 0.5 * (lo + hi)
    free = 1 + rng.choice(n - 1, size=3, replace=False)
    lo[free], hi[free], x0[free] = -10.0, 10.0, 0.0
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, m_ub)
    extra = np.zeros((7, n))
    extra[np.arange(6), np.repeat(free, 2)] = np.tile([1.0, -1.0], 3)
    extra[6, 0] = -1.0
    a_ub = np.vstack([a_ub, extra, a_ub[:1]])
    b_ub = np.concatenate([b_ub, np.full(6, 5.0), [-lo[0] - 0.75 * (hi[0] - lo[0])],
                           b_ub[:1]])
    a_eq = np.vstack([a_eq, -2.0 * a_eq[:1]])
    b_eq = a_eq @ x0
    if seed % 3 == 2:
        a_ub = np.vstack([a_ub, -a_ub[:1]])
        b_ub = np.append(b_ub, -b_ub[0] - 1.0)
    return (rng.normal(size=n), a_eq, b_eq, a_ub, b_ub, lo, hi), free


def _check_lp_against_highs(c, a_eq, b_eq, a_ub, b_ub, lo, hi, start=None):
    sol = solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                             lo=lo, hi=hi), start=start)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lo, hi]), method="highs")
    assert ref.status in (0, 2), ref.message
    if ref.status == 2:
        assert sol.status == LpStatus.INFEASIBLE
        return sol
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-6 * (1.0 + abs(ref.fun)))
    assert np.all(sol.x >= lo - 1e-9) and np.all(sol.x <= hi + 1e-9)
    assert np.all(a_ub @ sol.x <= b_ub + 1e-7)
    assert np.max(np.abs(a_eq @ sol.x - b_eq)) <= 1e-7
    return sol


@pytest.mark.parametrize("seed", range(30))
def test_lp_matches_highs_cold_and_warm(seed):
    (c, a_eq, b_eq, a_ub, b_ub, lo, hi), free = _random_lp(seed)
    parent = _check_lp_against_highs(c, a_eq, b_eq, a_ub, b_ub, lo, hi)
    assert (parent.status == LpStatus.OPTIMAL) == (seed % 3 != 2)
    if parent.status != LpStatus.OPTIMAL:
        return
    # one branch-and-bound-like child: a variable other than the three of
    # free that is basic strictly inside its range is fixed at a bound or
    # has the parent's optimum cut out of its range; or x_0 is fixed below
    # its floor row
    inside = (parent.x > lo + 1e-6) & (parent.x < hi - 1e-6)
    inside[0] = False
    inside[free] = False
    k = 0 if seed % 3 == 1 else int(np.flatnonzero(inside)[seed % inside.sum()])
    xk = parent.x[k]
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[k], hi2[k] = [(lo[k], lo[k]), (hi[k], hi[k]),
                      (lo[k], lo[k] + 0.5 * (xk - lo[k])),
                      (xk + 0.5 * (hi[k] - xk), hi[k])][0 if k == 0 else seed % 4]
    child = _check_lp_against_highs(c, a_eq, b_eq, a_ub, b_ub, lo2, hi2, start=parent.basis)
    assert (child.status == LpStatus.OPTIMAL) == (k > 0)


@pytest.mark.parametrize("seed", range(12))
def test_row_duals_match_highs_marginals(seed):
    # boxed LPs with random dense rows: generically primal and dual
    # nondegenerate, so the optimum and its row duals are unique (both
    # checked below); HiGHS minimizes -c, so its marginals flip sign
    rng = np.random.default_rng((seed, 43))
    n = int(rng.integers(8, 25))
    m_eq = int(rng.integers(1, 3))
    m_ub = int(rng.integers(4, 16))
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(lo, hi)
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 0.5, m_ub)
    c = rng.normal(size=n)
    sol = _check_lp_against_highs(c, a_eq, a_eq @ x0, a_ub, b_ub, lo, hi)
    basic, stat, binv = sol.basis
    real = basic < n + m_ub
    values = np.concatenate([sol.x, b_ub - a_ub @ sol.x])[basic[real]]
    floor = np.concatenate([lo, np.zeros(m_ub)])[basic[real]]
    ceil = np.concatenate([hi, np.full(m_ub, np.inf)])[basic[real]]
    assert real.all() and np.minimum(values - floor, ceil - values).min() > 1e-6
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=a_eq @ x0,
                  bounds=np.column_stack([lo, hi]), method="highs")
    assert np.allclose(sol.x, ref.x, atol=1e-7)
    duals = row_duals(sol.basis)
    assert duals.shape == (m_eq + m_ub,)
    assert np.allclose(duals[:m_eq], -ref.eqlin.marginals, atol=1e-7)
    assert np.allclose(duals[m_eq:], -ref.ineqlin.marginals, atol=1e-7)
