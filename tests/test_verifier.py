from collections import Counter

import numpy as np
import pytest

from oracles import TooLarge, bounds_around_outputs, brute_force_worst_case, seeded_net
from wcopf.errors import BoundsUnavailable
from wcopf.mlp import MlpParams, forward
from wcopf.simplex import LpStatus, SharedPhase1, solve_lp
from wcopf.verifier import (Box, candidate_constraints, interval_bounds,
                            margin_of_output, solve_worst_case,
                            violation_of_output, worst_case_fixed_pattern)
from wcopf.verifier import milp
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


def test_fixed_pattern_lp_improves_on_interior_point():
    params = seeded_net(1, (2, 5, 2))
    box = Box([-1.0, -1.0], [1.0, 1.0])
    gen = bounds_around_outputs(params, box, seed=1, frac_hi=0.5)
    d0 = np.array([0.3, -0.2])
    trace = forward(params, d0)
    cid = (0, "upper")
    val, wit = worst_case_fixed_pattern(params, trace.pattern, box, gen, cid)
    assert val >= margin_of_output(trace.output, gen, cid) - 1e-9
    assert Box(box.lo, box.hi).contains(wit, tol=1e-9)
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
        assert violation_of_output(out, gen) == pytest.approx(cert.value, abs=1e-9)
        assert box.contains(cert.witness, tol=1e-9)
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


def test_brute_force_size_guard():
    params = seeded_net(0, (2, 17, 1))
    with pytest.raises(TooLarge):
        brute_force_worst_case(params, Box([-1.0, -1.0], [1.0, 1.0]),
                               Box([-1.0], [1.0]))


# found by scanning seeds for a run that needs several branchings
_BRANCHY_SEED = 3
_BRANCHY_DIMS = (3, 4, 4, 2)


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

    def counting(problem, start=None):
        counts[by_objective[problem.c.tobytes()]] += 1
        return solve_lp(problem, start=start)

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


def test_small_box_prefixes_everything():
    # a tiny box keeps every unit stable, so no branching is ever needed
    params = seeded_net(2, (2, 6, 6, 2))
    box = Box([0.30, 0.30], [0.31, 0.31])
    pre, _, _ = interval_bounds(params, box)
    stable = sum(int(np.sum(pre.stable_active(k) | pre.stable_inactive(k)))
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
    pre, _, _ = interval_bounds(params, box)
    unstable = sum(int(np.sum((pre.lower[k] < 0.0) & (pre.upper[k] > 0.0)))
                   for k in range(params.n_hidden_layers))
    assert unstable < sum(params.hidden_dims)
    shapes = []

    def recording(problem, *args, **kwargs):
        shapes.append(problem.a_ub.shape)
        return solve_lp(problem, *args, **kwargs)

    monkeypatch.setattr(milp, "solve_lp", recording)
    cert = solve_worst_case(params, box,
                            bounds_around_outputs(params, box, seed=seed,
                                                  frac_hi=0.5))
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

    def recording(problem, start=None):
        before = len(cold_cores)
        sol = solve_lp(problem, start=start)
        if start is not None and not isinstance(start, SharedPhase1):
            warm_cold.append(len(cold_cores) - before)
        return sol

    monkeypatch.setattr(milp, "solve_lp", recording)
    cert = solve_worst_case(params, box, gen)
    assert not any(warm_cold)
    assert _cert_bytes(cert) == _cert_bytes(solve_worst_case(params, box, gen))


@pytest.mark.parametrize("seed,dims,lo,hi", _ENCODING_CASES)
def test_roots_share_one_phase1_that_equals_a_cold_solve(monkeypatch, cold_cores, seed, dims,
                                                        lo, hi):
    params = seeded_net(seed, dims)
    box = Box(np.full(dims[0], lo), np.full(dims[0], hi))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    roots = []     # (problem, solution, resumed) of every root LP
    node_cold = [0]  # cold-path solves inside node LPs

    def recording(problem, start=None):
        before = len(cold_cores)
        resumed = isinstance(start, SharedPhase1) and start.state is not None
        sol = solve_lp(problem, start=start)
        node_cold[0] += len(cold_cores) - before
        if start is None or isinstance(start, SharedPhase1):
            roots.append((problem, sol, resumed))
        return sol

    monkeypatch.setattr(milp, "solve_lp", recording)
    shared = solve_worst_case(params, box, gen)
    # one encoding, so one phase 1 for all its roots
    assert node_cold == [1]
    assert not roots[0][2] and all(resumed for _, _, resumed in roots[1:])
    assert len(roots) >= 2
    for problem, sol, resumed in roots[1:]:
        cold = solve_lp(problem)
        assert sol.status == cold.status == LpStatus.OPTIMAL
        assert sol.x.tobytes() == cold.x.tobytes()
        assert sol.objective_value == cold.objective_value
        for got, want in zip(sol.basis, cold.basis):
            assert got.tobytes() == want.tobytes()
        # a resumed root counts only its phase 2; these nets' roots need a phase 1
        assert sol.iteration_count < cold.iteration_count or not problem.a_ub.size

    # without sharing every root solves cold, to the same certificate
    roots.clear()
    node_cold[0] = 0
    monkeypatch.setattr(milp, "SharedPhase1", lambda: None)
    unshared = solve_worst_case(params, box, gen)
    assert node_cold == [len(roots)]
    assert _cert_bytes(unshared) == _cert_bytes(shared)


@pytest.mark.parametrize("node_limit", [0, -5])
def test_node_limit_below_one_is_rejected(node_limit):
    params = seeded_net(_BRANCHY_SEED, _BRANCHY_DIMS)
    box = Box(-np.ones(_BRANCHY_DIMS[0]), np.ones(_BRANCHY_DIMS[0]))
    gen = bounds_around_outputs(params, box, seed=_BRANCHY_SEED, frac_hi=0.6)
    with pytest.raises(ValueError, match="node_limit"):
        solve_worst_case(params, box, gen, node_limit=node_limit)


@pytest.mark.parametrize("y_rel,y_fix,y_range,unit", [
    # the nearest to 0.5 has the narrower range: 1.0 * 0.5 < 4.0 * 0.2
    ([0.5, 0.2, 0.0], [-1, -1, -1], [1.0, 4.0, 9.0], 1),
    # exact tie, 2.0 * 0.25 == 1.0 * 0.5: the lower index wins
    ([0.25, 0.5], [-1, -1], [2.0, 1.0], 0),
    ([0.5, 0.75], [-1, -1], [1.0, 2.0], 0),
    # fixed and integral units are never picked, however wide
    ([0.5, 0.3, 1.0, 0.1], [1, -1, -1, -1], [50.0, 1.0, 50.0, 2.0], 1),
    ([0.5, 1.0, 0.0], [0, -1, -1], [1.0, 1.0, 1.0], None),
], ids=["wider", "tie", "tie-at-half", "skips-fixed", "integral"])
def test_branch_unit_scores_range_times_fractionality(y_rel, y_fix, y_range, unit):
    assert milp._branch_unit(np.array(y_rel), np.array(y_fix, dtype=np.int8),
                             np.array(y_range)) == unit


def test_encoding_ranges_follow_the_y_variables():
    params = seeded_net(0, (3, 8, 8, 2))
    box = Box(-np.ones(3), np.ones(3))
    pre, _, _ = interval_bounds(params, box)
    enc = milp._Encoding(params, box, bounds_around_outputs(params, box, seed=0))
    ranges = [(pre.upper[k] - pre.lower[k])[(pre.lower[k] < 0.0) & (pre.upper[k] > 0.0)]
              for k in range(params.n_hidden_layers)]
    assert enc.y_range.tobytes() == np.concatenate(ranges).tobytes()
    assert enc.y_range.shape == (enc.n_unstable,)


# Counts of the widest-fractional-unit rule in one tree shared by every
# candidate.  A change to branching, bounds, the node LP or the search
# order that moves them must update them on purpose.
@pytest.mark.parametrize("seed,dims,nodes,constraint_id", [
    (0, (3, 12, 2), 16, (1, "upper")),
    (2, (4, 20, 3), 61, (0, "upper")),
    (0, (3, 8, 8, 2), 156, (1, "upper")),
], ids=["3-12-2_s0", "4-20-3_s2", "3-8-8-2_s0"])
def test_branching_node_counts_are_pinned(seed, dims, nodes, constraint_id):
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    cert = solve_worst_case(params, box,
                            bounds_around_outputs(params, box, seed=seed, frac_hi=0.6))
    assert cert.status == CERTIFIED
    assert (cert.nodes_explored, cert.constraint_id) == (nodes, constraint_id)
