"""Soundness of the LP-tightened preactivation bounds.

_Encoding tightens the interval bounds of every hidden layer past the
first by the LPs of bounds.lp_bounds.  A bound that is too tight would
let the big-M rows cut off part of the network's graph, and with it the
true worst case, so every tightened bound is checked against sampled
forward passes and against HiGHS's optimum of the same LP.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import bounds_around_outputs, seeded_net
from wcopf.errors import NumericalBreakdown
from wcopf.mlp import forward
from wcopf.simplex import LpProblem, LpSolution, LpStatus, safe_max, solve_lp
from wcopf.verifier import Box, bounds, interval_bounds, milp

# 1, 2 and 3 hidden layers; boxes wide enough to leave deep units unstable
_NETS = [
    (0, (3, 10, 2), 1.0),
    (1, (3, 8, 8, 2), 1.0),
    (2, (2, 12, 10, 3), 0.6),
    (3, (3, 6, 6, 6, 2), 1.0),
    (4, (2, 8, 8, 8, 1), 0.8),
]


def _encoding(seed, dims, radius):
    params = seeded_net(seed, dims)
    box = Box(np.full(dims[0], -radius), np.full(dims[0], radius))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.6)
    return params, box, milp._Encoding(params, box, gen)


def _highs_max(c, rows, rhs, lo, hi):
    res = linprog(-c, A_ub=rows if rows.size else None, b_ub=rhs if rows.size else None,
                  bounds=list(zip(lo, hi)), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("seed,dims,radius", _NETS)
def test_tightened_bounds_contain_sampled_activity(seed, dims, radius):
    params, box, enc = _encoding(seed, dims, radius)
    rng = np.random.default_rng((seed, 5))
    corners = [box.lo + (box.hi - box.lo) * np.array([(b >> i) & 1 for i in range(box.dim)])
               for b in range(2 ** box.dim)]
    for d in corners + list(rng.uniform(box.lo, box.hi, size=(200, box.dim))):
        trace = forward(params, d)
        for k, s in enumerate(trace.preactivations):
            assert np.all(s >= enc.pre.lower[k] - 1e-9)
            assert np.all(s <= enc.pre.upper[k] + 1e-9)
        assert np.all(trace.output >= enc.out_dn - 1e-9)
        assert np.all(trace.output <= enc.out_up + 1e-9)


@pytest.mark.parametrize("seed,dims,radius", _NETS)
def test_tightened_bounds_are_never_looser_than_intervals(seed, dims, radius):
    params, box, enc = _encoding(seed, dims, radius)
    pre, out_dn, out_up = interval_bounds(params, box)
    for k in range(params.n_hidden_layers):
        assert np.all(enc.pre.lower[k] >= pre.lower[k])
        assert np.all(enc.pre.upper[k] <= pre.upper[k])
    assert np.all(enc.out_dn >= out_dn) and np.all(enc.out_up <= out_up)
    # the first layer's intervals are exact; on these nets every deeper one narrows
    assert enc.pre.lower[0].tobytes() == pre.lower[0].tobytes()
    assert enc.pre.upper[0].tobytes() == pre.upper[0].tobytes()
    width = sum(np.sum(enc.pre.upper[k] - enc.pre.lower[k]) for k in range(1, len(pre.lower)))
    interval_width = sum(np.sum(pre.upper[k] - pre.lower[k]) for k in range(1, len(pre.lower)))
    assert width < interval_width or params.n_hidden_layers == 1


@pytest.mark.parametrize("seed,dims,radius", [n for n in _NETS if len(n[1]) > 3])
def test_lp_bounds_are_safe_and_tight_against_highs(monkeypatch, seed, dims, radius):
    calls = []  # (args, result, LPs solved) of every lp_bounds call
    solved = []

    def recording(*args):
        before = len(solved)
        result = bounds.lp_bounds(*args)
        calls.append((args, result, len(solved) - before))
        return result

    def counting(problem, start=None, cutoff=None):
        assert cutoff == -np.inf  # no bound reaches it, and no x is derived
        solved.append(problem)
        return solve_lp(problem, start=start, cutoff=cutoff)

    monkeypatch.setattr(milp, "lp_bounds", recording)
    monkeypatch.setattr(bounds, "solve_lp", counting)
    _encoding(seed, dims, radius)
    assert len(calls) == len(dims) - 3  # one call per hidden layer past the first
    for (rows, rhs, lo, hi, (a, b), lower, upper, starts), result, n_lps in calls:
        new_lo, new_up, bases, pivots = result
        unstable = np.flatnonzero((lower < 0.0) & (upper > 0.0))
        assert unstable.size
        # no LP had a start of its own; every one ended optimal and left its basis
        assert starts is None and len(bases) == n_lps and pivots > 0
        stable = np.setdiff1d(np.arange(lower.size), unstable)
        assert new_lo[stable].tobytes() == lower[stable].tobytes()
        assert new_up[stable].tobytes() == upper[stable].tobytes()
        # a maximum that proves a unit inactive skips its minimum
        assert n_lps == unstable.size + int(np.sum(new_up[unstable] > 0.0))
        for j in unstable:
            top = _highs_max(a[j], rows, rhs, lo, hi) + b[j]
            assert top - 1e-9 <= new_up[j] <= top + 1e-6
            if new_up[j] > 0.0:
                bottom = -_highs_max(-a[j], rows, rhs, lo, hi) + b[j]
                assert bottom - 1e-6 <= new_lo[j] <= bottom + 1e-9
            else:
                assert new_lo[j] == lower[j]


@pytest.mark.parametrize("seed", range(6))
def test_safe_bound_holds_for_any_basis(seed):
    # the duals of a basis that is optimal for another objective are no
    # optimal duals, some of them negative; clipped at 0 they still bound
    _, _, enc = _encoding(1, (3, 8, 8, 2), 1.0)
    rows, rhs, lo, hi = enc.rows, enc.rhs, enc.var_lo, enc.var_hi
    rng = np.random.default_rng((seed, 9))
    other, c = rng.standard_normal((2, rows.shape[1]))
    lp = LpProblem(c=other, a_ub=rows, b_ub=rhs, lo=lo, hi=hi)
    sol = solve_lp(lp)
    basic, _, binv = sol.basis
    c_b = np.append(c, 0.0)[np.minimum(basic, c.shape[0])]
    assert (c_b @ binv < -1e-3).any()
    best = _highs_max(c, rows, rhs, lo, hi)
    assert safe_max(c_b @ binv, lp.sibling(c=c), 0.25) >= best + 0.25


@pytest.mark.parametrize("failure", ["breakdown", "infeasible"])
def test_lp_bounds_keep_the_given_bound_when_an_lp_fails(monkeypatch, failure):
    def failing(problem, start=None, cutoff=None):
        if failure == "breakdown":
            raise NumericalBreakdown("simplex iteration cap exceeded")
        return LpSolution(LpStatus.INFEASIBLE)

    monkeypatch.setattr(bounds, "solve_lp", failing)
    rows = np.array([[1.0, 1.0]])
    lower = np.array([-1.0, -2.0])
    upper = np.array([1.0, 3.0])
    forms = (np.eye(2), np.zeros(2))
    new_lo, new_up, bases, pivots = bounds.lp_bounds(rows, np.array([1.0]), np.zeros(2),
                                                     np.ones(2), forms, lower, upper)
    assert new_lo.tobytes() == lower.tobytes() and new_up.tobytes() == upper.tobytes()
    assert bases == {} and pivots == 0


def _one_layer_reference(params, box):
    """The big-M rows of _Encoding's docstring from interval bounds alone."""
    pre, out_dn, out_up = interval_bounds(params, box)
    lower, upper = pre.lower[0], pre.upper[0]
    w, b = params.weights[0], params.biases[0]
    n_in = params.n_inputs
    units = [j for j in range(w.shape[0]) if lower[j] < 0.0 < upper[j]]
    n_vars = n_in + 2 * len(units)
    rows = np.zeros((3 * len(units), n_vars))
    rhs = np.zeros(3 * len(units))
    var_lo = np.concatenate([box.lo, np.zeros(2 * len(units))])
    var_hi = np.concatenate([box.hi, np.ones(2 * len(units))])
    out_act = np.zeros((w.shape[0], n_vars))
    for u, j in enumerate(units):
        z, y = n_in + u, n_in + len(units) + u
        s_j = np.zeros(n_vars)  # the preactivation's coefficients
        s_j[:n_in] = w[j]
        rows[3 * u] = -s_j
        rows[3 * u, z] = 1.0
        rows[3 * u, y] = -lower[j]
        rhs[3 * u] = b[j] - lower[j]
        rows[3 * u + 1] = s_j
        rows[3 * u + 1, z] = -1.0
        rhs[3 * u + 1] = -b[j]
        rows[3 * u + 2, z] = 1.0
        rows[3 * u + 2, y] = -upper[j]
        var_hi[z] = upper[j]
        out_act[j, z] = 1.0
    active = lower >= 0.0
    out_act[active, :n_in] = w[active]
    out_off = np.where(active, b, 0.0)
    return rows, rhs, var_lo, var_hi, upper[units] - lower[units], out_act, out_off, out_dn, out_up


@pytest.mark.parametrize("seed,dims", [(0, (3, 10, 2)), (5, (3, 24, 3)), (7, (2, 16, 1))])
def test_one_layer_encoding_is_the_interval_encoding(monkeypatch, seed, dims):
    def no_lp(problem, start=None):
        raise AssertionError("a one-hidden-layer net solved a bound LP")

    monkeypatch.setattr(bounds, "solve_lp", no_lp)
    params, box, enc = _encoding(seed, dims, 1.0)
    got = (enc.rows, enc.rhs, enc.var_lo, enc.var_hi, enc.y_range, enc.out_act, enc.out_off,
           enc.out_dn, enc.out_up)
    want = _one_layer_reference(params, box)
    assert enc.n_unstable > 0
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
