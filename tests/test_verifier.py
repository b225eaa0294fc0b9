import dataclasses
import hashlib
import heapq
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import (NodeLpBreaker, TooLarge, bounds_around_outputs, brute_force_worst_case,
                     grid_fixture, in_box, seeded_net)
from wcopf import simplex
from wcopf.errors import BoundsUnavailable, NumericalBreakdown
from wcopf.mlp import MlpParams, forward
from wcopf.simplex import LpProblem, LpStatus, row_duals, solve_lp
from wcopf.train import TrainConfig, train_standard
from wcopf.verifier import (Box, candidate_constraints, interval_bounds,
                            margin_of_output, margin_param_gradient, solve_worst_case,
                            worst_case_fixed_pattern, worst_case_gradient)
from wcopf.verifier import bounds, milp, patterns
from wcopf.verifier.milp import CERTIFIED, GAP_REMAINING, GAP_TOL


def _ramp_net(out_w=1.0, out_b=0.0):
    # one hidden unit passing its input through: g(d) = out_w * relu(d) + out_b
    return MlpParams((1, 1, 1),
                     [np.array([[1.0]]), np.array([[out_w]])],
                     [np.array([0.0]), np.array([out_b])])


def test_ramp_net_upper_violation():
    # g(d) = d on [0, 1] against an upper bound of 0.5: worst case 0.5 at d = 1
    params = _ramp_net()
    cert = solve_worst_case(params, Box([0.0], [1.0]), Box([-1.0], [0.5]))
    assert cert.status == CERTIFIED
    assert cert.value == pytest.approx(0.5, abs=1e-9)
    assert cert.constraint_id == (0, "upper")
    assert cert.witness == pytest.approx([1.0], abs=1e-9)
    assert cert.pattern is not None and bool(cert.pattern[0][0]) is True
    assert cert.gap <= 1e-9
    assert cert.nodes_explored >= 1


def test_ramp_net_lower_violation():
    # g(d) = d on [0, 1] against a lower bound of 0.25: worst case at d = 0
    params = _ramp_net()
    cert = solve_worst_case(params, Box([0.0], [1.0]), Box([0.25], [2.0]))
    assert cert.status == CERTIFIED
    assert cert.value == pytest.approx(0.25, abs=1e-9)
    assert cert.constraint_id == (0, "lower")
    assert cert.witness == pytest.approx([0.0], abs=1e-9)


def test_no_violation_is_clipped_to_zero():
    params = _ramp_net()
    cert = solve_worst_case(params, Box([0.0], [1.0]), Box([-1.0], [2.0]))
    assert cert.status == CERTIFIED
    assert cert.value == 0.0
    assert cert.witness is None
    assert cert.constraint_id is None
    assert cert.pattern is None
    assert cert.gap == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_interval_bounds_contain_sampled_activity(seed):
    params = seeded_net(seed, (2, 4, 3, 2))
    box = Box([-1.0, -0.5], [1.0, 1.5])
    pre, out_dn, out_up = interval_bounds(params, box)
    rng = np.random.default_rng((seed, 3))
    for _ in range(40):
        d = rng.uniform(box.lo, box.hi)
        trace = forward(params, d)
        for k, s in enumerate(trace.preactivations):
            assert np.all(s >= pre.lower[k] - 1e-9)
            assert np.all(s <= pre.upper[k] + 1e-9)
        assert np.all(trace.output >= out_dn - 1e-9)
        assert np.all(trace.output <= out_up + 1e-9)


def test_interval_bounds_require_bounded_box():
    params = seeded_net(0, (2, 3, 1))
    with pytest.raises(BoundsUnavailable):
        interval_bounds(params, Box([-np.inf, 0.0], [1.0, 1.0]))


# nets with no hidden layer (--arch ""): out = w @ d + b, every pass has
# zero layers to loop over, and each answer has a closed form
_LINEAR_CASES = [(seed, frac_hi, frac_lo) for seed in range(3)
                 for frac_hi, frac_lo in ((0.7, -10.0), (10.0, 0.3))]


def _linear_case(seed, frac_hi, frac_lo):
    params = seeded_net(seed, (3, 2))
    rng = np.random.default_rng((seed, 41))
    lo = rng.uniform(-1.0, 0.0, 3)
    box = Box(lo, lo + rng.uniform(0.5, 1.5, 3))
    return params, box, bounds_around_outputs(params, box, seed, frac_hi, frac_lo)


@pytest.mark.parametrize("case", _LINEAR_CASES)
def test_linear_net_certificate_is_the_closed_form_maximum(case):
    params, box, gen = _linear_case(*case)
    w, b = params.weights[0], params.biases[0]
    top = b + np.maximum(w * box.lo, w * box.hi).sum(axis=1)
    bottom = b + np.minimum(w * box.lo, w * box.hi).sum(axis=1)
    worst = max(np.max(top - gen.hi), np.max(gen.lo - bottom))
    assert worst > 0.0
    cert = solve_worst_case(params, box, gen)
    assert cert.status == CERTIFIED
    assert cert.value == pytest.approx(worst, rel=0, abs=1e-12)
    assert in_box(box, cert.witness, tol=0.0)
    assert margin_of_output(forward(params, cert.witness).output, gen,
                            cert.constraint_id) == cert.value


@pytest.mark.parametrize("case", _LINEAR_CASES)
def test_linear_net_interval_bounds_are_exact(case):
    params, box, _ = _linear_case(*case)
    corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
    outs = corners @ params.weights[0].T + params.biases[0]
    pre, out_dn, out_up = interval_bounds(params, box)
    assert pre.lower == [] and pre.upper == []
    np.testing.assert_allclose(out_dn, outs.min(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out_up, outs.max(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", _LINEAR_CASES)
@pytest.mark.parametrize("last_layer_only", [False, True])
def test_linear_net_worst_case_gradient_is_the_closed_form(case, last_layer_only):
    # the margin sign * (w[g] @ d + b[g]) + offset has d/dw[g] = sign * d
    # and d/db[g] = sign, and nothing else moves it
    params, box, gen = _linear_case(*case)
    cert = solve_worst_case(params, box, gen)
    g, side = cert.constraint_id
    sign = 1.0 if side == "upper" else -1.0
    grads = worst_case_gradient(params, cert, last_layer_only)
    want_w = np.zeros_like(params.weights[0])
    want_w[g] = sign * cert.witness
    want_b = np.zeros_like(params.biases[0])
    want_b[g] = sign
    assert np.array_equal(grads.weights[0], want_w)
    assert np.array_equal(grads.biases[0], want_b)


def test_fixed_pattern_lp_improves_on_interior_point():
    params = seeded_net(1, (2, 5, 2))
    box = Box([-1.0, -1.0], [1.0, 1.0])
    gen = bounds_around_outputs(params, box, seed=1, frac_hi=0.5)
    d0 = np.array([0.3, -0.2])
    trace = forward(params, d0)
    cid = (0, "upper")
    val, wit = worst_case_fixed_pattern(params, trace.pattern, box, gen, cid)
    assert val >= margin_of_output(trace.output, gen, cid) - 1e-9
    assert in_box(box, wit, tol=1e-9)
    # the witness realizes the LP value exactly (continuity across region faces)
    assert margin_of_output(forward(params, wit).output, gen, cid) == pytest.approx(val, abs=1e-7)


def test_fixed_pattern_empty_region():
    # unit preactivation d + 5 is positive on [0, 1]; pinning it off is infeasible
    params = MlpParams((1, 1, 1),
                       [np.array([[1.0]]), np.array([[1.0]])],
                       [np.array([5.0]), np.array([0.0])])
    val, wit = worst_case_fixed_pattern(params, [np.array([False])],
                                        Box([0.0], [1.0]), Box([-1.0], [1.0]),
                                        (0, "upper"))
    assert val == -np.inf and wit is None


_EQUIV_CASES = [
    (0, (1, 3, 2), 0.5, -10.0),
    (1, (2, 4, 2), 0.6, -10.0),
    (2, (2, 5, 3), 0.7, -10.0),
    (3, (3, 4, 4, 2), 0.6, -10.0),
    (4, (2, 3, 3, 1), 0.5, -10.0),
    (5, (2, 6, 2), 0.4, 0.2),     # binding lower bounds as well
    (6, (3, 5, 3), 1.6, -10.0),   # loose bounds: usually nothing violated
    (7, (2, 4, 3, 3), 0.8, 0.1),
    (8, (1, 6, 1), 0.3, -10.0),
    (9, (4, 5, 2), 0.7, -10.0),
]


@pytest.mark.parametrize("seed,dims,frac_hi,frac_lo", _EQUIV_CASES)
def test_milp_matches_brute_force(seed, dims, frac_hi, frac_lo):
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed,
                                frac_hi=frac_hi, frac_lo=frac_lo)
    cert = solve_worst_case(params, box, gen)
    raw, wit, cid = brute_force_worst_case(params, box, gen)
    assert cert.status == CERTIFIED
    assert cert.value == pytest.approx(max(raw, 0.0), abs=1e-6)
    if cert.value > 0.0:
        out = forward(params, cert.witness).output
        assert margin_of_output(out, gen, cert.constraint_id) == pytest.approx(cert.value, abs=1e-9)
        violation = max([0.0] + [margin_of_output(out, gen, cid)
                                 for cid in candidate_constraints(len(out))])
        assert violation == pytest.approx(cert.value, abs=1e-9)
        assert in_box(box, cert.witness, tol=1e-9)
        # brute force witness achieves its value too
        assert margin_of_output(forward(params, wit).output, gen, cid) == pytest.approx(raw, abs=1e-7)


def test_box_growth_is_monotone():
    params = seeded_net(11, (2, 5, 2))
    gen = bounds_around_outputs(params, Box([-1.0, -1.0], [1.0, 1.0]),
                                seed=11, frac_hi=0.5)
    values = []
    for r in (0.25, 0.5, 1.0):
        box = Box([-r, -r], [r, r])
        values.append(solve_worst_case(params, box, gen).value)
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9


def test_repeat_runs_are_identical():
    params = seeded_net(3, (3, 4, 4, 2))
    box = Box(-np.ones(3), np.ones(3))
    gen = bounds_around_outputs(params, box, seed=3, frac_hi=0.6)
    a = solve_worst_case(params, box, gen)
    b = solve_worst_case(params, box, gen)
    assert a.value == b.value
    assert a.constraint_id == b.constraint_id
    assert a.nodes_explored == b.nodes_explored
    if a.witness is None:
        assert b.witness is None
    else:
        assert a.witness.tobytes() == b.witness.tobytes()


def test_candidate_order_and_ties():
    # two identical outputs violate identically; the lower index must win
    params = MlpParams((1, 1, 2),
                       [np.array([[1.0]]), np.array([[1.0], [1.0]])],
                       [np.array([0.0]), np.array([0.0, 0.0])])
    cert = solve_worst_case(params, Box([0.0], [1.0]),
                            Box([-1.0, -1.0], [0.5, 0.5]))
    assert cert.value == pytest.approx(0.5, abs=1e-9)
    assert cert.constraint_id == (0, "upper")
    assert candidate_constraints(2) == [(0, "upper"), (0, "lower"),
                                        (1, "upper"), (1, "lower")]


def test_tied_candidates_name_the_earlier_one():
    # generators 0 and 1 share their output row and their bounds, so every
    # point gives both the same margin and every incumbent ties
    params = seeded_net(5, (3, 8, 2))
    params.weights[-1][1] = params.weights[-1][0]
    params.biases[-1][1] = params.biases[-1][0]
    box = Box(-np.ones(3), np.ones(3))
    gen = bounds_around_outputs(params, box, seed=5, frac_hi=0.6)
    gen = Box(np.full(2, gen.lo[0]), np.full(2, gen.hi[0]))
    cert = solve_worst_case(params, box, gen)
    assert cert.status == CERTIFIED and cert.value > 0.0
    assert cert.constraint_id[0] == 0
    out = forward(params, cert.witness).output
    assert margin_of_output(out, gen, cert.constraint_id) == cert.value


_UNKNOWN_SIDE_CALLS = {
    "margin_of_output": lambda params, cid: margin_of_output(
        np.zeros(2), Box(-np.ones(2), np.ones(2)), cid),
    "margin_param_gradient": lambda params, cid: margin_param_gradient(
        params, np.zeros(1), cid),
    "worst_case_fixed_pattern": lambda params, cid: worst_case_fixed_pattern(
        params, [np.array([True])], Box([0.0], [1.0]), Box(-np.ones(2), np.ones(2)), cid),
}


@pytest.mark.parametrize("entry", sorted(_UNKNOWN_SIDE_CALLS))
def test_unknown_side_raises(entry):
    params = MlpParams((1, 1, 2),
                       [np.array([[1.0]]), np.array([[1.0], [1.0]])],
                       [np.array([0.0]), np.array([0.0, 0.0])])
    with pytest.raises(ValueError, match="unknown constraint side 'up'"):
        _UNKNOWN_SIDE_CALLS[entry](params, (0, "up"))


def _per_candidate_winner(offers, n_candidates):
    """(value, candidate, witness) by the per-candidate rule: each
    candidate keeps its first value bits and, among the points attaining
    its largest value, the lexicographically smallest; the winner is the
    first candidate with the largest value."""
    best = [(-np.inf, None)] * n_candidates
    for value, k, point in offers:
        v, w = best[k]
        if value > v:
            best[k] = (value, point)
        elif value == v and tuple(point) < tuple(w):
            best[k] = (v, point)
    win = max(range(n_candidates), key=lambda k: best[k][0])
    return best[win][0], win, best[win][1]


# (generator bounds, [(point, output)]): designed ties at the largest margin
_TIE_CASES = {
    # (0, upper) reaches 0.5 at two points with one output; (1, upper) and
    # (1, lower) tie it at later candidates, one at the smallest point
    "across_and_within": (Box([0.0, 0.0], [1.0, 1.0]), [
        ((0.5, 0.5), (1.5, 0.5)), ((0.2, 0.9), (1.5, 0.5)), ((0.1, 0.3), (0.5, 1.5)),
        ((0.7, 0.1), (0.5, -0.5)), ((0.9, 0.9), (1.2, 0.5))]),
    # hi = 0.0: out -0.0 gives (0, upper) the margin -0.0 and out 0.0 the
    # margin 0.0; at the smallest point (0, lower) and (1, upper) tie at 0.0
    "signed_zero": (Box([-1.0, -1.0], [0.0, 0.0]), [
        ((0.5, 0.5), (-0.0, -0.5)), ((0.25, 0.75), (0.0, -0.5)),
        ((0.75, 0.0), (-0.0, -0.5)), ((0.0, 0.0), (-1.0, 0.0))]),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_one_incumbent_keeps_the_per_candidate_winner(case):
    gen, points = _TIE_CASES[case]
    cids = candidate_constraints(2)
    seen = set()
    for order in itertools.permutations(points):
        # the search offers each point's margins in candidate order
        offers = [(margin_of_output(np.array(out), gen, cid), k, np.array(point))
                  for point, out in order for k, cid in enumerate(cids)]
        inc = milp._Incumbent()
        for offer in offers:
            inc.offer(*offer)
        value, k, witness = _per_candidate_winner(offers, len(cids))
        got = (np.float64(inc.value).tobytes(), inc.index, inc.witness.tobytes())
        assert got == (np.float64(value).tobytes(), k, witness.tobytes()), order
        seen.add(got)
    # the winner's value bits are those of the zero it sees first
    assert len(seen) == (2 if case == "signed_zero" else 1)


def test_brute_force_size_guard():
    params = seeded_net(0, (2, 17, 1))
    with pytest.raises(TooLarge):
        brute_force_worst_case(params, Box([-1.0, -1.0], [1.0, 1.0]),
                               Box([-1.0], [1.0]))


# found by scanning widths at seed 3 for a net whose LP-tightened bounds
# still leave a candidate more node LPs than the caps below allow
# ((3, 4, 4, 2) needs only 3 per candidate; this one needs 13)
_BRANCHY_SEED = 3
_BRANCHY_DIMS = (3, 5, 4, 2)


@pytest.mark.parametrize("seed,dims", [(_BRANCHY_SEED, _BRANCHY_DIMS), (0, (3, 12, 2))])
def test_node_limit_caps_each_candidate(monkeypatch, seed, dims):
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.6)
    enc = milp._Encoding(params, box, gen)
    # node LPs of different candidates differ in their objective
    by_objective = {enc.objective(cid)[0].tobytes(): cid
                    for cid in candidate_constraints(params.n_outputs)}
    counts = Counter()

    def counting(problem, *args, **kwargs):
        counts[by_objective[problem.c.tobytes()]] += 1
        return solve_lp(problem, *args, **kwargs)

    monkeypatch.setattr(milp, "solve_lp", counting)
    full = solve_worst_case(params, box, gen)
    # some candidate needs more node LPs than any cap below allows
    assert max(counts.values()) > 4
    for node_limit in range(1, 5):
        counts.clear()
        capped = solve_worst_case(params, box, gen, node_limit=node_limit)
        assert max(counts.values()) <= node_limit
        assert sum(counts.values()) == capped.nodes_explored
        # a node set aside unexplored still bounds the certificate
        assert capped.bound >= full.value
        assert capped.value <= full.value
        assert capped.status == GAP_REMAINING
        assert capped.gap > GAP_TOL


def test_bound_covers_nodes_fathomed_within_the_pad(monkeypatch):
    # a pad this wide fathoms the node holding the optimum, 0.2746, once
    # the incumbent reaches 0.2499; its LP value must still reach bound
    monkeypatch.setattr(milp, "FATHOM_PAD", 0.05)
    params = seeded_net(6, (3, 4, 4, 2))
    box = Box(-np.ones(3), np.ones(3))
    gen = bounds_around_outputs(params, box, seed=6, frac_hi=0.6)
    cert = solve_worst_case(params, box, gen)
    raw, _, _ = brute_force_worst_case(params, box, gen)
    assert cert.value < raw - 0.01
    assert cert.bound >= raw
    assert cert.status == GAP_REMAINING


def test_small_box_prefixes_everything():
    # a tiny box keeps every unit stable, so no branching is ever needed
    params = seeded_net(2, (2, 6, 6, 2))
    box = Box([0.30, 0.30], [0.31, 0.31])
    pre, _, _ = interval_bounds(params, box)
    stable = sum(int(np.sum(~pre.unstable(k)))
                 for k in range(params.n_hidden_layers))
    assert stable == sum(params.hidden_dims)
    gen = bounds_around_outputs(params, box, seed=2, frac_hi=0.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.status == CERTIFIED
    # one LP per candidate that survives the interval check
    assert cert.nodes_explored <= 2 * params.n_outputs


_ENCODING_CASES = [
    (2, (2, 6, 6, 2), 0.30, 0.31),   # every unit stable, as above
    (4, (2, 8, 6, 2), -0.3, 0.3),
    (7, (3, 10, 2), -0.4, 0.4),
]


@pytest.mark.parametrize("seed,dims,lo,hi", _ENCODING_CASES)
def test_node_lps_encode_only_unstable_units(monkeypatch, seed, dims, lo, hi):
    params = seeded_net(seed, dims)
    box = Box(np.full(dims[0], lo), np.full(dims[0], hi))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    pre = milp._Encoding(params, box, gen).pre  # the bounds the node LPs encode
    unstable = sum(int(np.sum((pre.lower[k] < 0.0) & (pre.upper[k] > 0.0)))
                   for k in range(params.n_hidden_layers))
    assert unstable < sum(params.hidden_dims)
    shapes = []

    def recording(problem, *args, **kwargs):
        shapes.append(problem.a_ub.shape)
        return solve_lp(problem, *args, **kwargs)

    def outside_the_tree(problem, *args, **kwargs):
        raise AssertionError("the search solved an LP that is not a node LP")

    monkeypatch.setattr(milp, "solve_lp", recording)
    monkeypatch.setattr(patterns, "solve_lp", outside_the_tree)
    cert = solve_worst_case(params, box, gen)
    assert cert.status == CERTIFIED
    assert len(shapes) == cert.nodes_explored > 0
    assert set(shapes) == {(3 * unstable, dims[0] + 2 * unstable)}


def _cert_bytes(cert):
    return (cert.value, cert.bound, cert.gap, cert.status, cert.nodes_explored,
            cert.constraint_id, None if cert.witness is None else cert.witness.tobytes(),
            None if cert.pattern is None else [p.tobytes() for p in cert.pattern])


@pytest.mark.parametrize("seed,dims,lo,hi", _ENCODING_CASES)
def test_node_lps_warm_start_without_refactorizing(monkeypatch, cold_cores, seed, dims,
                                                   lo, hi):
    params = seeded_net(seed, dims)
    box = Box(np.full(dims[0], lo), np.full(dims[0], hi))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    warm_cold = []  # cold-path solves inside each warm-started node LP

    def recording(problem, *args, **kwargs):
        start = kwargs.get("start", args[0] if args else None)
        before = len(cold_cores)
        sol = solve_lp(problem, *args, **kwargs)
        if start is not None:
            warm_cold.append(len(cold_cores) - before)
        return sol

    monkeypatch.setattr(milp, "solve_lp", recording)
    cert = solve_worst_case(params, box, gen)
    # a child's start is its parent's optimal basis under tighter bounds,
    # so it enters the dual simplex and never falls back to a cold solve
    assert not any(warm_cold)
    assert _cert_bytes(cert) == _cert_bytes(solve_worst_case(params, box, gen))


# (seed, dims, lo, hi, whether bound LPs are solved): LP-tightened bounds
# leave (2, 8, 6, 2) at seed 4 one root to solve; the second net keeps
# three, and it and the last solve bound LPs of both senses
_CHAIN_CASES = [(*_ENCODING_CASES[0], False), (4, (2, 6, 6, 3), -0.3, 0.3, True),
                (*_ENCODING_CASES[2], False), (1, (3, 8, 8, 2), -1.0, 1.0, True)]


@pytest.mark.parametrize("seed,dims,lo,hi,bound_lps", _CHAIN_CASES)
def test_lps_without_a_start_chain_from_one_slack_basis(monkeypatch, cold_cores,
                                                        refit_cores, seed, dims, lo, hi,
                                                        bound_lps):
    # a verification without a start: its first root, and its first bound
    # LP of each layer and sense, start from the slack basis; every other
    # one starts from the last of its kind, which the simplex takes as it
    # is, and ends where HiGHS and a slack-basis solve of the same LP do
    params = seeded_net(seed, dims)
    box = Box(np.full(dims[0], lo), np.full(dims[0], hi))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    solved = []  # (kind, problem, solution, cold, refit) of each root and bound LP
    forms = []   # the unit forms of each lp_bounds call

    def tracked(kind, problem, solve):
        before = len(cold_cores), len(refit_cores)
        sol = solve()
        solved.append((kind, problem, sol, len(cold_cores) - before[0],
                       len(refit_cores) - before[1]))
        return sol

    solve_node = milp._Encoding.solve_node

    def node(enc, c, y_fix, start=None, cutoff=None):
        if (y_fix >= 0).any():
            return solve_node(enc, c, y_fix, start, cutoff)
        problem = enc.node_lp.sibling(c=c)
        return tracked("root", problem, lambda: solve_node(enc, c, y_fix, start, cutoff))

    def layer(*args):
        forms.append(args[4][0])
        return bounds.lp_bounds(*args)

    def bound_lp(problem, start=None, cutoff=None):
        sense = "max" if any(np.array_equal(problem.c, a) for a in forms[-1]) else "min"
        return tracked((len(forms), sense), problem,
                       lambda: solve_lp(problem, start=start, cutoff=cutoff))

    monkeypatch.setattr(milp._Encoding, "solve_node", node)
    monkeypatch.setattr(milp, "lp_bounds", layer)
    monkeypatch.setattr(bounds, "solve_lp", bound_lp)
    solve_worst_case(params, box, gen)
    kinds = [kind for kind, *_ in solved]
    assert kinds.count("root") >= 2
    assert set(kinds) == ({"root", (1, "max"), (1, "min")} if bound_lps else {"root"})
    for kind in set(kinds):
        of_kind = [entry for entry in solved if entry[0] == kind]
        # the first of each kind from the slack basis, and only the first
        # root or bound LP of it; no inverse refactorized
        assert [entry[3] for entry in of_kind] == [1] + [0] * (len(of_kind) - 1)
        assert not any(entry[4] for entry in of_kind)
    for _, problem, sol, _, _ in solved:
        assert sol.status == LpStatus.OPTIMAL
        fresh = solve_lp(LpProblem(c=problem.c, a_ub=problem.a_ub, b_ub=problem.b_ub,
                                   lo=problem.lo, hi=problem.hi))
        ref = linprog(-problem.c, A_ub=problem.a_ub if problem.a_ub.size else None,
                      b_ub=problem.b_ub if problem.a_ub.size else None,
                      bounds=np.column_stack([problem.lo, problem.hi]), method="highs")
        value = problem.c @ sol.point
        for want in (fresh.objective_value, -ref.fun):
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("node_limit", [0, -5])
def test_node_limit_below_one_is_rejected(node_limit):
    params = seeded_net(_BRANCHY_SEED, _BRANCHY_DIMS)
    box = Box(-np.ones(_BRANCHY_DIMS[0]), np.ones(_BRANCHY_DIMS[0]))
    gen = bounds_around_outputs(params, box, seed=_BRANCHY_SEED, frac_hi=0.6)
    with pytest.raises(ValueError, match="node_limit"):
        solve_worst_case(params, box, gen, node_limit=node_limit)


@pytest.mark.parametrize("y_rel,y_fix,y_range,weight,unit", [
    # the nearest to 0.5 has the narrower range: 1.0 * 0.5 < 4.0 * 0.2
    ([0.5, 0.2, 0.0], [-1, -1, -1], [1.0, 4.0, 9.0], [1.0, 1.0, 1.0], 1),
    # exact tie, 2.0 * 0.25 == 1.0 * 0.5: the lower index wins
    ([0.25, 0.5], [-1, -1], [2.0, 1.0], [1.0, 1.0], 0),
    ([0.5, 0.75], [-1, -1], [1.0, 2.0], [1.0, 1.0], 0),
    # fixed and integral units are never picked, however wide
    ([0.5, 0.3, 1.0, 0.1], [1, -1, -1, -1], [50.0, 1.0, 50.0, 2.0], [1.0] * 4, 1),
    ([0.5, 1.0, 0.0], [0, -1, -1], [1.0, 1.0, 1.0], [1.0] * 3, None),
    # the weight turns "wider": 3.0 * 1.0 * 0.5 > 1.0 * 4.0 * 0.2
    ([0.5, 0.2, 0.0], [-1, -1, -1], [1.0, 4.0, 9.0], [3.0, 1.0, 9.0], 0),
    # a unit of weight 0 loses to any weighted one, however wide
    ([0.5, 0.5], [-1, -1], [100.0, 1.0], [0.0, 1e-9], 1),
    # exact weighted tie, 2.0 * 1.0 * 0.5 == 1.0 * 4.0 * 0.25: the lower index
    ([0.5, 0.25], [-1, -1], [1.0, 4.0], [2.0, 1.0], 0),
    # no free fractional unit has a positive weight (a fixed or integral
    # one may): the unweighted score decides
    ([0.5, 0.2, 0.5, 1.0], [1, -1, -1, -1], [9.0, 1.0, 4.0, 9.0],
     [5.0, 0.0, 0.0, 5.0], 2),
    ([0.5, 0.2], [-1, -1], [1.0, 4.0], [0.0, 0.0], 1),
], ids=["wider", "tie", "tie-at-half", "skips-fixed", "integral", "weighted",
        "zero-weight-loses", "weighted-tie", "all-zero-fallback",
        "all-zero-everywhere"])
def test_branch_unit_scores_range_times_fractionality(y_rel, y_fix, y_range, weight,
                                                      unit):
    assert milp._branch_unit(np.array(y_rel), np.array(y_fix, dtype=np.int8),
                             np.array(y_range), np.array(weight)) == unit


def test_unit_weights_price_each_basic_z_at_its_objective_coefficient():
    # one hidden layer: z_k enters only its own three rows, so where z_k
    # is basic its reduced cost c_z - nu_k is zero and nu_k = c_z
    params = seeded_net(2, (4, 20, 3))
    box = Box(-np.ones(4), np.ones(4))
    enc = milp._Encoding(params, box, bounds_around_outputs(params, box, seed=2))
    n_in, n_un = enc.n_in, enc.n_unstable
    seen = 0
    for cid in candidate_constraints(params.n_outputs):
        c, _ = enc.objective(cid)
        sol = enc.solve_node(c, np.full(n_un, -1, dtype=np.int8))
        weight = enc.unit_weights(row_duals(sol.basis))
        assert weight.shape == (n_un,) and np.all(weight >= 0.0)
        z_basic = np.isin(n_in + np.arange(n_un), sol.basis[0])
        c_z = c[n_in:n_in + n_un]
        assert weight[z_basic] == pytest.approx(np.maximum(c_z[z_basic], 0.0),
                                                abs=1e-9)
        seen += int(z_basic.sum())
    assert seen > 0


def test_encoding_ranges_follow_the_y_variables():
    params = seeded_net(0, (3, 8, 8, 2))
    box = Box(-np.ones(3), np.ones(3))
    enc = milp._Encoding(params, box, bounds_around_outputs(params, box, seed=0))
    pre = enc.pre
    ranges = [(pre.upper[k] - pre.lower[k])[(pre.lower[k] < 0.0) & (pre.upper[k] > 0.0)]
              for k in range(params.n_hidden_layers)]
    assert enc.y_range.tobytes() == np.concatenate(ranges).tobytes()
    assert enc.y_range.shape == (enc.n_unstable,)


# Counts of the dual-weighted branching rule (_branch_unit with
# _Encoding.unit_weights) in one tree shared by every candidate; the
# unweighted rule took 16, 61, 152 and 1367 nodes.  A change to
# branching, bounds, the node LP or the search order that moves them
# must update them on purpose.
@pytest.mark.parametrize("seed,dims,nodes,constraint_id", [
    (0, (3, 12, 2), 16, (1, "upper")),
    (2, (4, 20, 3), 31, (0, "upper")),
    (0, (3, 8, 8, 2), 88, (1, "upper")),
    (1, (8, 16, 16, 3), 169, (1, "upper")),
], ids=["3-12-2_s0", "4-20-3_s2", "3-8-8-2_s0", "8-16-16-3_s1"])
def test_branching_node_counts_are_pinned(seed, dims, nodes, constraint_id):
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    cert = solve_worst_case(params, box,
                            bounds_around_outputs(params, box, seed=seed, frac_hi=0.6))
    assert cert.status == CERTIFIED
    assert (cert.nodes_explored, cert.constraint_id) == (nodes, constraint_id)


@pytest.fixture(scope="module")
def case9_fixture():
    return grid_fixture("case9", n=400, seed=0)


# The fixture set: nn-trained case9 nets (400 samples, data seed 0, 400
# epochs, alpha 3e-3) certified over the unit box.  The unweighted
# branching rule took 605, 581, 815, 55, 11, 84, 27 and 18 nodes.
_CASE9_NETS = [
    ((16, 16), 0, 189, (1, "lower")),
    ((16, 16), 1, 165, (0, "upper")),
    ((24, 24), 0, 129, (0, "upper")),
    ((12, 12), 2, 27, (1, "lower")),
    ((8, 8), 4, 9, (1, "lower")),
    ((24,), 4, 40, (1, "lower")),
    ((8,), 0, 17, (1, "lower")),
    ((8,), 1, 14, (1, "lower")),
]
_CASE9_IDS = ["16-16_s0", "16-16_s1", "24-24_s0", "12-12_s2", "8-8_s4", "24_s4", "8_s0", "8_s1"]
# sha256 over the value, bound and witness bytes of the eight
# certificates, and over the LP-tightened bounds (_Encoding.pre) of the
# five two-layer nets, in _CASE9_NETS order
_CASE9_CERT_SHA256 = "f3ef671ea0773a14e806f9270dc514bc09b9878c0bc94abdf66e02f32950b92f"
_CASE9_PRE_SHA256 = "dd06c5611689f7b95917b53c13747b1932b75bc516d62b6cadd0e1f897a8d50a"


@pytest.fixture(scope="module")
def case9_nets(case9_fixture):
    """(params, certificate) of every case9 fixture net, keyed (arch, seed)."""
    data, gen, box = case9_fixture
    nets = {}
    for arch, seed, _, _ in _CASE9_NETS:
        params, _ = train_standard(data, arch, TrainConfig(alpha=3e-3, epochs=400, seed=seed))
        nets[arch, seed] = params, solve_worst_case(params, box, gen)
    return nets


@pytest.fixture(scope="module")
def case9_digests(case9_fixture, case9_nets):
    """The two digests that _CASE9_CERT_SHA256 and _CASE9_PRE_SHA256 pin."""
    _, gen, box = case9_fixture
    certs, pre = hashlib.sha256(), hashlib.sha256()
    for params, cert in case9_nets.values():
        witness = b"" if cert.witness is None else cert.witness.tobytes()
        certs.update(np.float64(cert.value).tobytes() + np.float64(cert.bound).tobytes()
                     + witness)
        if params.n_hidden_layers == 2:
            enc = milp._Encoding(params, box, gen)
            for lower, upper in zip(enc.pre.lower, enc.pre.upper):
                pre.update(lower.tobytes() + upper.tobytes())
    return certs.hexdigest(), pre.hexdigest()


@pytest.mark.parametrize("arch,seed,nodes,constraint_id", _CASE9_NETS, ids=_CASE9_IDS)
def test_case9_fixture_trees_are_pinned(case9_nets, case9_digests, arch, seed, nodes,
                                        constraint_id):
    cert = case9_nets[arch, seed][1]
    assert (cert.nodes_explored, cert.status, cert.constraint_id) == \
        (nodes, CERTIFIED, constraint_id)
    # and what the whole set's certificates and bound LPs say, to the bit
    assert case9_digests == (_CASE9_CERT_SHA256, _CASE9_PRE_SHA256)


# The syn39 fixture set: nn-trained nets on the synthetic 39-bus grid
# (1000 samples, data seed 0, 400 epochs, alpha 3e-3, seed 0), certified
# over scaled_boxes(grid): (arch, nodes, lp_pivots, unstable units,
# winning candidate).  (16, 16) takes 1685 nodes and is left out.
_SYN39_NETS = [
    ((16,), 238, 1336, 15, (1, "lower")),
    ((8, 8), 141, 988, 14, (4, "upper")),
    ((12, 12), 557, 4016, 24, (2, "upper")),
]
# sha256 over the value, bound and witness bytes of the three
# certificates, in _SYN39_NETS order
_SYN39_CERT_SHA256 = "c081b39bf506ac25ec25687e777b38e82e97708c623ce58adebd0c486f2b4ef0"


@pytest.fixture(scope="module")
def syn39_certs():
    """(certificate, unstable units) of every syn39 fixture net, keyed arch."""
    data, gen, box = grid_fixture("syn39", n=1000, seed=0)
    certs = {}
    for arch, *_ in _SYN39_NETS:
        params, _ = train_standard(data, arch, TrainConfig(alpha=3e-3, epochs=400, seed=0))
        certs[arch] = (solve_worst_case(params, box, gen),
                       milp._Encoding(params, box, gen).n_unstable)
    return certs


@pytest.mark.parametrize("arch,nodes,pivots,unstable,constraint_id", _SYN39_NETS,
                         ids=["16_s0", "8-8_s0", "12-12_s0"])
def test_syn39_fixture_trees_are_pinned(syn39_certs, arch, nodes, pivots, unstable,
                                        constraint_id):
    cert, n_unstable = syn39_certs[arch]
    assert (cert.nodes_explored, cert.lp_pivots, n_unstable, cert.status,
            cert.constraint_id) == (nodes, pivots, unstable, CERTIFIED, constraint_id)
    digest = hashlib.sha256()
    for cert, _ in syn39_certs.values():
        digest.update(np.float64(cert.value).tobytes() + np.float64(cert.bound).tobytes()
                      + cert.witness.tobytes())
    assert digest.hexdigest() == _SYN39_CERT_SHA256


@pytest.mark.parametrize("net", ["8-16-16-3_s1", "case9_16-16_s0"])
def test_node_lps_that_break_down_are_set_aside_soundly(monkeypatch, case9_fixture,
                                                        case9_nets, net):
    if net == "8-16-16-3_s1":
        params = seeded_net(1, (8, 16, 16, 3))
        box = Box(-np.ones(8), np.ones(8))
        gen = bounds_around_outputs(params, box, seed=1, frac_hi=0.6)
    else:
        _, gen, box = case9_fixture
        params = case9_nets[(16, 16), 0][0]
    unbroken = solve_worst_case(params, box, gen)
    assert unbroken.status == CERTIFIED
    enc = milp._Encoding(params, box, gen)
    for k in (1, 2, 5, 20, 60):
        breaker = NodeLpBreaker(lambda n: n == k)
        monkeypatch.setattr(milp, "solve_lp", breaker)
        cert = solve_worst_case(params, box, gen)
        assert breaker.raised == 1
        assert cert.nodes_explored == breaker.calls
        # each value is attained in the box and each bound holds; a witness
        # found on another path may evaluate a last bit above the unbroken
        # value (case9 at k = 1), never above its bound
        assert cert.value <= unbroken.bound and unbroken.value <= cert.bound
    # with every node LP set aside, only the box midpoint is evaluated, and
    # each root popped keeps its interval key
    breaker = NodeLpBreaker(lambda n: True)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    cert = solve_worst_case(params, box, gen)
    cids = candidate_constraints(params.n_outputs)
    out = forward(params, box.midpoint()).output
    midpoint = max([margin_of_output(out, gen, cid) for cid in cids] + [0.0])
    assert cert.value == midpoint
    assert cert.bound == max(midpoint, max(enc.interval_margin_bound(cid) for cid in cids))
    assert cert.status == GAP_REMAINING
    assert cert.nodes_explored == breaker.calls == breaker.raised > 0
    assert cert.lp_pivots == enc.pivots  # NodeLpBreaker's breakdowns spend no pivots


@pytest.mark.parametrize("arch", [(8,), (16, 16)], ids=["8_s0", "16-16_s0"])
def test_pivots_of_lps_that_break_down_count_in_lp_pivots(monkeypatch, case9_fixture,
                                                         case9_nets, arch):
    # a simplex capped at 6 iterations breaks down on every LP that needs
    # more, node and bound LPs alike; lp_pivots still counts every
    # iteration of every simplex core the verification ran
    cap = 6
    cores = []
    init = simplex._Core.__init__

    def capped(self, problem):
        init(self, problem)
        self.max_iterations = cap
        cores.append(self)

    monkeypatch.setattr(simplex._Core, "__init__", capped)
    broken = Counter()  # module -> LPs that broke down there

    def recording(module):
        def solve(*args, **kwargs):
            try:
                return simplex.solve_lp(*args, **kwargs)
            except NumericalBreakdown:
                broken[module] += 1
                raise
        return solve

    for module in (milp, bounds):
        monkeypatch.setattr(module, "solve_lp", recording(module))
    _, gen, box = case9_fixture
    params = case9_nets[arch, 0][0]
    cert = solve_worst_case(params, box, gen)
    assert broken[milp] > 0 and cert.status == GAP_REMAINING
    assert (broken[bounds] > 0) == (params.n_hidden_layers == 2)
    assert cert.lp_pivots == sum(core.iterations for core in cores)


def _moved_last_layer(params, seed):
    """params with the output layer nudged, as a few last-layer training
    steps move it; no hidden unit changes its stability."""
    rng = np.random.default_rng((seed, 23))
    vec = params.vec.copy()
    for part in params.layer_parts(params.n_layers - 1):
        vec[part] += 1e-3 * rng.standard_normal(vec[part].shape)
    return MlpParams.from_vec(params.layer_dims, vec)


def _moved_past_first_layer(params, seed):
    """params with every layer after the first nudged by 1e-6: the bound
    LPs' objectives move, and the first layer's stability stays."""
    rng = np.random.default_rng((seed, 29))
    vec = params.vec.copy()
    for part in params.layer_parts(1):
        vec[part] += 1e-6 * rng.standard_normal(vec[part].shape)
    return MlpParams.from_vec(params.layer_dims, vec)


@pytest.mark.parametrize("arch,seed", [n[:2] for n in _CASE9_NETS], ids=_CASE9_IDS)
def test_started_search_agrees_with_a_start_free_one(case9_fixture, case9_nets, refit_cores,
                                                     arch, seed):
    # a start from the same net, or from the net with its output layer
    # nudged, which moves only objectives, carries every basis inverse;
    # one from the net with its later layers nudged moves the node LPs'
    # rows of a two-layer net, whose roots then refactorize.  Either way
    # the certificate is as rigorous as a fresh one
    _, gen, box = case9_fixture
    params, fresh = case9_nets[arch, seed]
    last = solve_worst_case(_moved_last_layer(params, seed), box, gen)
    later = solve_worst_case(_moved_past_first_layer(params, seed), box, gen)
    for start in (fresh, last, later):
        refit_cores.clear()
        got = solve_worst_case(params, box, gen, start=start)
        assert got.status == CERTIFIED
        assert abs(got.value - fresh.value) <= GAP_TOL
        assert got.value <= got.bound and fresh.value <= got.bound and got.value <= fresh.bound
        assert got.lp_pivots < fresh.lp_pivots
        assert bool(refit_cores) == (start is later and params.n_hidden_layers == 2)


def _held_arrays(obj, seen=None):
    """Every numpy array reachable from obj through containers and the
    attributes of wcopf's own objects (certificate, bases, LP problems)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    found = []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            found += _held_arrays(item, seen)
    if type(obj).__module__.startswith("wcopf") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            found += _held_arrays(item, seen)
    return found


@pytest.mark.parametrize("key", [((24,), 4), ((12, 12), 2), ((16, 16), 0)],
                         ids=["24_s4", "12-12_s2", "16-16_s0"])
def test_certificate_shares_no_memory_with_the_parameters(case9_fixture, case9_nets, key):
    # training steps the parameters in place, so a certificate that kept a
    # view of them would change under the next verification's start
    _, gen, box = case9_fixture
    params, pinned = case9_nets[key]
    params = params.copy()
    for start in (None, pinned):
        cert = solve_worst_case(params, box, gen, start=start)
        held = _held_arrays(cert)
        assert cert.witness is not None and any(a is cert.bases.layout[2][0] for a in held)
        assert len(held) > 10  # witness, pattern, and the bases' binv, rows, c and bounds
        assert not any(np.shares_memory(a, params.vec) for a in held)
        before = [a.tobytes() for a in held]
        params.vec += 1e-3  # an in-place step
        assert [a.tobytes() for a in held] == before


@pytest.mark.parametrize("start_key,key", [(((8,), 0), ((24,), 4)),
                                           (((8, 8), 4), ((12, 12), 2)),
                                           (((12, 12), 2), ((12, 12), 2))],
                         ids=["one_layer", "two_layers", "flipped_unit"])
def test_start_of_another_layout_changes_nothing(case9_fixture, case9_nets, refit_cores,
                                                 start_key, key):
    # another architecture, or the same net with one first-layer unit's
    # stability flipped in the start's layout: no basis of the start is
    # used, and the certificate is the start-free one, bit for bit
    _, gen, box = case9_fixture
    params, fresh = case9_nets[key]
    start = case9_nets[start_key][1]
    if start_key == key:
        n_in, n_out, masks = start.bases.layout
        flipped = [m.copy() for m in masks]
        flipped[0][0] = not flipped[0][0]
        start = dataclasses.replace(start, bases=dataclasses.replace(
            start.bases, layout=(n_in, n_out, flipped)))
    got = solve_worst_case(params, box, gen, start=start)
    assert _cert_bytes(got) == _cert_bytes(fresh)
    assert got.lp_pivots == fresh.lp_pivots and not refit_cores


def test_each_start_basis_runs_one_identity_test(monkeypatch, case9_fixture, case9_nets):
    # both children of a node start from its basis; only the first to be
    # solved tests that binv inverts it
    _, gen, box = case9_fixture
    params, pinned = case9_nets[(16, 16), 0]
    starts = []  # the start of every warm start, in order
    tests = []   # the start whose warm start ran each identity test
    warm, inverts = simplex._Core.warm, simplex._inverts
    monkeypatch.setattr(simplex._Core, "warm", lambda core, start, cutoff=None: (
        starts.append(start) or warm(core, start, cutoff)))
    monkeypatch.setattr(simplex, "_inverts", lambda binv, bmat: (
        tests.append(starts[-1]) or inverts(binv, bmat)))
    cert = solve_worst_case(params, box, gen)
    assert cert.nodes_explored == pinned.nodes_explored == 189
    per_start = Counter(id(start) for start in tests)
    assert max(per_start.values()) == 1
    assert len(set(map(id, starts))) == len(per_start) < len(starts)


@pytest.mark.parametrize("key", [((12, 12), 2), ((16, 16), 0)], ids=["12-12_s2", "16-16_s0"])
def test_search_never_refactorizes(monkeypatch, refactorizations, case9_fixture, case9_nets,
                                   key):
    # bound LPs read only their basis, and node LPs their basis and their
    # carried point, so no LP of a verification re-solves its basis, started
    # or not, and a feasibility recheck that fails every time changes nothing
    _, gen, box = case9_fixture
    params, pinned = case9_nets[key]
    assert _cert_bytes(solve_worst_case(params, box, gen)) == _cert_bytes(pinned)
    assert not refactorizations
    # started from its own certificate and from that of the net with its
    # later layers moved (bound LP objectives moved)
    started = []  # whether each bound LP had a start
    lp = bounds.solve_lp
    monkeypatch.setattr(bounds, "solve_lp", lambda problem, start=None, cutoff=None: (
        started.append(start is not None) or lp(problem, start=start, cutoff=cutoff)))
    for start in (pinned, solve_worst_case(_moved_past_first_layer(params, key[1]), box, gen)):
        refactorizations.clear()
        started.clear()
        got = solve_worst_case(params, box, gen, start=start)
        assert got.status == CERTIFIED and abs(got.value - pinned.value) <= GAP_TOL
        assert started and all(started)
        assert not refactorizations
    exact = simplex._Core._exact
    monkeypatch.setattr(simplex._Core, "_exact",
                        lambda core, x, b: (exact(core, x, b)[0], np.True_))
    assert _cert_bytes(solve_worst_case(params, box, gen)) == _cert_bytes(pinned)
    assert not refactorizations
    # the failing recheck is live: a root LP without a cutoff derives x, and raises
    enc = milp._Encoding(params, box, gen)
    c, _ = enc.objective(pinned.constraint_id)
    with pytest.raises(NumericalBreakdown, match="feasibility recheck"):
        enc.solve_node(c, np.full(enc.n_unstable, -1, dtype=np.int8))
    assert refactorizations


@pytest.fixture(scope="module")
def node_lps(case9_fixture, case9_nets):
    """[problem, start, cutoff, const, value] of every node LP that the
    searches of the case9 fixture nets (24,) s4 and (12, 12) s2 and of one
    seeded wide-input net pass to solve_lp: const is its candidate's
    constant, and value the bound the search keys the node's children by
    (None for a node that does not branch)."""
    _, gen, box = case9_fixture
    cases = [(case9_nets[key][0], box, gen) for key in [((24,), 4), ((12, 12), 2)]]
    params = seeded_net(1, (8, 16, 16, 3))
    wide = Box(-np.ones(8), np.ones(8))
    cases.append((params, wide, bounds_around_outputs(params, wide, seed=1, frac_hi=0.6)))
    nodes = []
    consts = {}

    def recording(problem, start=None, cutoff=None):
        nodes.append([problem, start, cutoff, consts[problem.c.tobytes()], None])
        return solve_lp(problem, start=start, cutoff=cutoff)

    def pushing(heap, entry):
        nodes[-1][4] = -entry[0]  # both children are keyed by their parent's value
        heapq.heappush(heap, entry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(milp, "solve_lp", recording)
        mp.setattr(milp, "heapq", SimpleNamespace(heappush=pushing, heappop=heapq.heappop,
                                                  heapify=heapq.heapify))
        for params, box, gen in cases:
            enc = milp._Encoding(params, box, gen)
            consts.clear()
            for cid in candidate_constraints(params.n_outputs):
                c, const = enc.objective(cid)
                consts[c.tobytes()] = const
            solve_worst_case(params, box, gen)
    return nodes


def _lp_bytes(sol):
    """What a node LP's caller reads of a solution; x and objective_value
    are set only without a cutoff."""
    return (sol.status, sol.iteration_count, np.float64(sol.bound).tobytes(),
            None if sol.point is None else sol.point.tobytes(),
            None if sol.basis is None else [v.tobytes() for v in sol.basis])


def _highs(problem):
    return linprog(-problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                   bounds=list(zip(problem.lo, problem.hi)), method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def test_cutoff_bounds_agree_with_highs(node_lps):
    # around each child's optimum (or, when it is infeasible, the cutoff
    # the search gave it), a CUTOFF must carry a bound between HiGHS's
    # optimum and the cutoff; any other result is the one without a cutoff
    cut = Counter()
    for problem, start, searched, _, _ in node_lps:
        if start is None:
            continue
        plain = solve_lp(problem, start=start)
        feasible = plain.status == LpStatus.OPTIMAL
        centre = plain.objective_value if feasible else searched
        highs = None
        for delta in (-1e-3, -1e-9, 1e-9, 1e-3):
            cutoff = centre + delta
            got = solve_lp(problem, start=start, cutoff=cutoff)
            if got.status != LpStatus.CUTOFF:
                assert _lp_bytes(got) == _lp_bytes(plain)
                continue
            cut[feasible, delta] += 1
            assert got.x is None and got.basis is None and got.bound <= cutoff
            if highs is None:
                highs = _highs(problem)
            if highs.status == 2:
                assert not feasible
            else:
                assert highs.status == 0 and -highs.fun - 1e-9 <= got.bound
    assert cut[True, 1e-3] > 50 and cut[False, 1e-3] > 0
    assert cut[True, -1e-3] == cut[True, -1e-9] == 0


def test_optimal_node_values_agree_with_highs(node_lps):
    # the value the search keys a node's children by is the safe bound from
    # its row duals: at or above HiGHS's optimum of the node LP plus the
    # candidate's constant, and within 1e-6 of it
    seen = Counter()
    for problem, start, _, const, value in node_lps:
        if value is None:
            continue
        seen[start is None] += 1
        highs = _highs(problem)
        assert highs.status == 0
        optimum = -highs.fun + const
        assert optimum - 1e-9 <= value <= optimum + 1e-6
    assert seen[True] >= 3 and seen[False] > 50
