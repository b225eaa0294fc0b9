from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import lp_vertex_enumeration
from wcopf import simplex
from wcopf.errors import NumericalBreakdown
from wcopf.simplex import LpProblem, LpSolution, LpStatus, solve_lp


def _solve(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, lo=None, hi=None):
    return solve_lp(LpProblem(c=np.asarray(c, dtype=float), a_eq=a_eq, b_eq=b_eq,
                              a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi))


def test_textbook_production_lp():
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, 0 <= x, y <= 100
    # (the rows keep x <= 4 and y <= 6, so the upper bounds never bind)
    sol = _solve([3.0, 5.0],
                 a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                 b_ub=[4.0, 12.0, 18.0],
                 lo=[0.0, 0.0], hi=[100.0, 100.0])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(36.0, abs=1e-9)
    assert np.allclose(sol.x, [2.0, 6.0], atol=1e-9)


def test_equality_infeasible():
    # x + y = 1 with x, y in [2, 10] is infeasible
    sol = _solve([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lo=[2.0, 2.0], hi=[10.0, 10.0])
    assert sol.status == LpStatus.INFEASIBLE


def test_bounds_only_box():
    sol = _solve([1.0], lo=[0.0], hi=[5.0])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0, abs=0.0)
    # the slack basis rests x at the bound its cost favors: only the
    # closing pricing pass remains
    assert sol.iteration_count == 1


def test_negative_cost_prefers_lower_bound():
    sol = _solve([-2.0, 0.0], lo=[-3.0, 1.0], hi=[4.0, 1.0])
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.x, [-3.0, 1.0])


def test_free_variable_with_equality():
    # max -x1 s.t. x0 + x1 = 2, x0 in [0, 1], x1 in [-10, 10] (the row
    # keeps it in [1, 2]) -> x1 = 1 at x0 = 1
    sol = _solve([0.0, -1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0],
                 lo=[0.0, -10.0], hi=[1.0, 10.0])
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_degenerate_vertex():
    # three inequalities meet at the optimum (2, 2); the upper bounds 10
    # never bind
    sol = _solve([1.0, 1.0],
                 a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                 b_ub=[2.0, 2.0, 4.0],
                 lo=[0.0, 0.0], hi=[10.0, 10.0])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)


def test_redundant_equality_rows():
    sol = _solve([1.0, 1.0],
                 a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0],
                 lo=[0.0, 0.0], hi=[5.0, 5.0])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_deterministic_repeat():
    rng = np.random.default_rng(11)
    c = rng.normal(size=6)
    a_ub = rng.normal(size=(4, 6))
    b_ub = rng.normal(size=4) + 2.0
    lo = np.full(6, -2.0)
    hi = np.full(6, 2.0)
    s1 = _solve(c, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    s2 = _solve(c, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    assert s1.status == s2.status == LpStatus.OPTIMAL
    assert s1.objective_value == s2.objective_value
    assert np.array_equal(s1.x, s2.x)
    assert s1.iteration_count == s2.iteration_count


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m_ub = int(rng.integers(0, 7 - (seed % 2)))
    use_eq = bool(rng.integers(0, 2)) and n >= 2
    c = rng.normal(size=n)
    lo = rng.uniform(-3.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 4.0, size=n)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.normal(size=m_ub)
    if use_eq:
        a_eq = rng.normal(size=(1, n))
        mid = 0.5 * (lo + hi)
        b_eq = np.array([a_eq[0] @ mid])  # guarantees the row can be met
    else:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    return c, a_eq, b_eq, a_ub, b_ub, lo, hi


@pytest.mark.parametrize("seed", range(60))
def test_matches_vertex_enumeration(seed):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    status, _, ref_val = lp_vertex_enumeration(c, a_eq, b_eq, a_ub, b_ub, lo, hi)
    sol = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    if status == "infeasible":
        assert sol.status == LpStatus.INFEASIBLE
    else:
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(ref_val, abs=1e-7)
        # solution must satisfy every constraint
        assert np.all(sol.x >= lo - 1e-9) and np.all(sol.x <= hi + 1e-9)
        if len(b_ub):
            assert np.all(a_ub @ sol.x <= b_ub + 1e-7)
        if len(b_eq):
            assert np.max(np.abs(a_eq @ sol.x - b_eq)) <= 1e-7


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1000, max_value=9999))
def test_property_feasible_solutions_respect_constraints(seed):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    sol = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    assert sol.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
    if sol.status == LpStatus.OPTIMAL:
        assert np.all(sol.x >= lo - 1e-9) and np.all(sol.x <= hi + 1e-9)
        if len(b_ub):
            assert np.all(a_ub @ sol.x <= b_ub + 1e-7)
        if len(b_eq):
            assert np.max(np.abs(a_eq @ sol.x - b_eq)) <= 1e-7


def _children(sol, lo, hi, k):
    """Bound changes a branch-and-bound child makes on variable k: fix it
    at either bound, or cut the parent's optimum out of its range."""
    xk = sol.x[k]
    return [(lo[k], lo[k]), (hi[k], hi[k]),
            (lo[k], lo[k] + 0.5 * (xk - lo[k])),
            (xk + 0.5 * (hi[k] - xk), hi[k])]


@pytest.mark.parametrize("seed", range(60))
def test_warm_start_matches_cold_and_enumeration(seed, cold_cores):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    if parent.status != LpStatus.OPTIMAL:
        assert parent.basis is None
        return
    # every warm solve below must finish on the dual path, not the fallback
    cold_cores.clear()
    k = seed % len(c)
    for new_lo, new_hi in _children(parent, lo, hi, k):
        lo2 = lo.copy()
        hi2 = hi.copy()
        lo2[k], hi2[k] = new_lo, new_hi
        problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                            lo=lo2, hi=hi2)
        warm = solve_lp(problem, start=parent.basis)
        again = solve_lp(problem, start=parent.basis)
        assert not cold_cores
        cold = solve_lp(problem)
        cold_cores.clear()
        status, _, ref_val = lp_vertex_enumeration(c, a_eq, b_eq, a_ub, b_ub, lo2, hi2)
        assert warm.status == cold.status
        assert again.status == warm.status
        assert again.iteration_count == warm.iteration_count
        if status == "infeasible":
            assert warm.status == LpStatus.INFEASIBLE
            continue
        assert warm.status == LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(ref_val, abs=1e-7)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
        assert np.all(warm.x >= lo2 - 1e-9) and np.all(warm.x <= hi2 + 1e-9)
        if len(b_ub):
            assert np.all(a_ub @ warm.x <= b_ub + 1e-7)
        if len(b_eq):
            assert np.max(np.abs(a_eq @ warm.x - b_eq)) <= 1e-7
        assert again.x.tobytes() == warm.x.tobytes()
        assert again.objective_value == warm.objective_value


def _dispatch_like(demand, b_ub=(2.0, 7.0)):
    """Cheapest three-unit dispatch: one balance row, two flow-limit rows."""
    return LpProblem(c=-np.array([1.0, 2.0, 3.0]), a_eq=np.ones((1, 3)), b_eq=[demand],
                     a_ub=np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]]), b_ub=list(b_ub),
                     lo=np.zeros(3), hi=np.full(3, 5.0))


@pytest.mark.parametrize("demand,b_ub,kind", [
    (6.5, (2.0, 7.5), "same_basis"),
    (8.0, (1.0, 7.0), "dual_pivots"),
    (13.0, (2.0, 7.0), "infeasible"),
], ids=["same_basis", "dual_pivots", "infeasible"])
def test_warm_start_after_a_rhs_change_matches_cold(demand, b_ub, kind, cold_cores,
                                                    monkeypatch):
    # only b_eq and b_ub move, so the parent's basis stays dual feasible
    parent = solve_lp(_dispatch_like(6.0))
    assert parent.status == LpStatus.OPTIMAL
    duals = []
    dual = simplex._Core._dual
    monkeypatch.setattr(simplex._Core, "_dual",
                        lambda core, *args: duals.append(core) or dual(core, *args))
    cold_cores.clear()
    # a fresh LpProblem, as each dispatch LP is: its rows are equal to the
    # parent's, not shared, and the start still enters the dual simplex
    warm = solve_lp(_dispatch_like(demand, b_ub), start=parent.basis)
    assert len(duals) == 1
    assert not cold_cores  # finished on the dual path, not the fallback
    cold = solve_lp(_dispatch_like(demand, b_ub))
    assert warm.status == cold.status
    if kind == "infeasible":
        assert warm.status == LpStatus.INFEASIBLE
        return
    assert warm.status == LpStatus.OPTIMAL
    moved = set(warm.basis[0]) != set(parent.basis[0])
    if kind == "same_basis":
        assert not moved and warm.iteration_count == 1  # the closing pricing pass
        assert warm.x.tobytes() == cold.x.tobytes()
    else:
        assert moved and warm.iteration_count > 1
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


def _rhs_stack(rng, b, k, scale):
    """k right-hand sides around b: half nudged by 1e-3 scale, half by scale."""
    size = np.array([1e-3 * scale] * (k // 2) + [scale] * (k - k // 2))
    return b + size[:, None] * rng.normal(size=(k, len(b)))


def test_basis_solutions_are_zero_pivot_warm_starts(cold_cores):
    served = unserved = 0
    for seed in range(60):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
        parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        if parent.status != LpStatus.OPTIMAL:
            continue
        rng = np.random.default_rng(seed)
        beqs = _rhs_stack(rng, b_eq, 16, 1.0)
        bubs = _rhs_stack(rng, b_ub, 16, 1.0)
        cold_cores.clear()
        x, ok = simplex.basis_solutions(parent.basis, beqs, bubs)
        assert not cold_cores  # no LP solved
        assert x.shape == (16, len(c)) and ok.shape == (16,)
        for i in range(16):
            warm = solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=beqs[i], a_ub=a_ub,
                                      b_ub=bubs[i], lo=lo, hi=hi), start=parent.basis)
            if ok[i]:
                served += 1
                assert warm.status == LpStatus.OPTIMAL
                assert warm.iteration_count == 1  # the closing pricing pass
                assert warm.x.tobytes() == x[i].tobytes()
            else:
                unserved += 1
                assert warm.status != LpStatus.OPTIMAL or warm.iteration_count > 1
    assert served > 200 and unserved > 50


def _balance_only(demand, b_ub=None):
    """_dispatch_like without its <= rows."""
    return LpProblem(c=-np.array([1.0, 2.0, 3.0]), a_eq=np.ones((1, 3)), b_eq=[demand],
                     lo=np.zeros(3), hi=np.full(3, 5.0))


# (LP family, [(demand, b_ub, served)]): the basis optimal at demand 6
# stays primal feasible up to demand 7 (the second <= row's slack leaves
# the basis) and 10 (the second unit reaches its bound) respectively
_RHS_CASES = {
    "rows": (_dispatch_like, [(6.5, (2.0, 7.5), True), (7.0 + 5e-8, (2.0, 7.0), True),
                              (7.0 + 3e-7, (2.0, 7.0), False), (8.0, (1.0, 7.0), False),
                              (13.0, (2.0, 7.0), False)]),
    "bounds-only": (_balance_only, [(7.0, None, True), (10.0 + 5e-8, None, True),
                                    (10.0 + 3e-7, None, False), (11.0, None, False),
                                    (16.0, None, False)]),
}


@pytest.mark.parametrize("family", sorted(_RHS_CASES))
def test_basis_solutions_serve_exactly_the_feasible_rhs(family):
    lp, cases = _RHS_CASES[family]
    parent = solve_lp(lp(6.0))
    x, ok = simplex.basis_solutions(
        parent.basis, [[d] for d, _, _ in cases],
        None if family == "bounds-only" else [b for _, b, _ in cases])
    # served within _FEAS_TOL; a hair beyond it, a pivot, infeasible
    assert ok.tolist() == [served for _, _, served in cases]
    for (demand, b_ub, served), xi in zip(cases, x):
        warm = solve_lp(lp(demand, b_ub), start=parent.basis)
        if served:
            assert warm.iteration_count == 1 and warm.x.tobytes() == xi.tobytes()
        else:
            assert warm.status != LpStatus.OPTIMAL or warm.iteration_count > 1


def test_basis_solutions_without_a_usable_basis_serve_nothing():
    parent = solve_lp(_dispatch_like(6.0))
    basis, stat, binv = parent.basis
    problem = _dispatch_like(6.0)
    for bad in (2.0 * binv, np.full_like(binv, np.nan)):
        start = simplex._Basis(basis, stat, bad, problem)
        x, ok = simplex.basis_solutions(start, [[6.0], [6.5]], [[2.0, 7.0], [2.0, 7.5]])
        assert x.shape == (2, 3) and not ok.any()
    _, ok = simplex.basis_solutions(parent.basis, [[6.0], [6.5]], [[2.0, 7.0], [2.0, 7.5]])
    assert ok.all()


def test_basis_solutions_reject_what_fails_the_equality_recheck():
    # x0, x1 in [-1e13, 1e13] with rows x0 + x1 = b0, x0 + (1 + 2**-40) x1
    # = b1: the basis of both columns is ill-conditioned, but its inverse
    # is exact, so it passes _invert's identity test and, its basics
    # staying far inside their bounds, the _FEAS_TOL bound test for these
    # b.  Where b1 - b0 is not a multiple of 2**-40 the basics are about
    # 2**40 (b1 - b0) and round at 1e-4, and the rows miss b by more than
    # 1e-6 (1 + |b|): only the recheck in _exact turns those right-hand
    # sides away.
    t = 2.0 ** 40
    box = np.full(2, 1e13)
    problem = LpProblem(c=np.zeros(2), a_eq=np.array([[1.0, 1.0], [1.0, 1.0 + 1.0 / t]]),
                        b_eq=np.zeros(2), lo=-box, hi=box)
    basis = simplex._Basis(np.array([0, 1]), np.array([0, 0, 1, 1], dtype=np.int8),
                           np.array([[t + 1.0, -t], [-t, t]]), problem)
    b_eqs = [[0.0, 0.0], [0.0, 1.0], [0.1, 0.3], [0.3, 0.7]]
    x, ok = simplex.basis_solutions(basis, b_eqs, None)
    assert ok.tolist() == [True, True, False, False]
    for b_eq, xi, served in zip(b_eqs, x, ok):
        lp = LpProblem(c=problem.c, a_eq=problem.a_eq, b_eq=b_eq, lo=-box, hi=box)
        warm = solve_lp(lp, start=basis)
        if served:
            assert warm.iteration_count == 1 and warm.x.tobytes() == xi.tobytes()
        else:
            # the warm start's own recheck fails too, and the cold path runs
            assert warm.status != LpStatus.OPTIMAL or warm.iteration_count > 1
            core = simplex._Core(lp)
            assert core.warm(basis) == LpStatus.OPTIMAL
            with pytest.raises(NumericalBreakdown, match="feasibility recheck"):
                core.final_values()


def test_singular_start_falls_back_to_cold(cold_cores):
    # identical structural columns make any basis holding both singular,
    # so no inverse can turn its columns into the identity
    problem = LpProblem(c=np.array([1.0, 2.0]),
                        a_ub=np.array([[1.0, 1.0], [2.0, 2.0]]),
                        b_ub=np.array([3.0, 5.0]),
                        lo=np.zeros(2), hi=np.full(2, 4.0))
    cold = solve_lp(problem)
    stat = np.full(4, simplex._AT_LO, dtype=np.int8)
    stat[:2] = simplex._BASIC
    cold_cores.clear()
    warm = solve_lp(problem, start=simplex._Basis(np.array([0, 1]), stat, np.eye(2), problem))
    assert len(cold_cores) == 1
    assert cold.status == warm.status == LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(5.0, abs=1e-9)
    assert warm.x.tobytes() == cold.x.tobytes()


def test_start_of_wrong_shape_is_rejected():
    problem = LpProblem(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                        lo=np.zeros(2), hi=np.ones(2))
    # columns [x0, x1, slack]: statuses for 3 variables and a 1 x 1 binv
    for basic, stat, binv in [(np.array([2]), np.zeros(4, dtype=np.int8), np.eye(1)),
                              (np.array([2]), np.zeros(3, dtype=np.int8), np.eye(2))]:
        with pytest.raises(ValueError, match="shape"):
            solve_lp(problem, start=simplex._Basis(basic, stat, binv, problem))


def test_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LpProblem(c=np.ones(2), lo=np.array([1.0, 0.0]), hi=np.array([0.0, 1.0]))


def test_validation_rejects_nan():
    with pytest.raises(ValueError, match="nonfinite"):
        LpProblem(c=np.array([np.nan, 1.0]), lo=np.zeros(2), hi=np.ones(2))


@pytest.mark.parametrize("lo,hi,match", [(None, [1.0, 2.0], "missing bound"),
                                         ([0.0, 0.0], None, "missing bound"),
                                         ([-np.inf, 0.0], [1.0, 2.0], "infinite bound"),
                                         ([0.0, 0.0], [1.0, np.inf], "infinite bound")],
                         ids=["missing_lo", "missing_hi", "infinite_lo", "infinite_hi"])
def test_validation_rejects_unboxed_variables(lo, hi, match):
    # every variable must be boxed: the slack basis rests each one at a
    # bound, and the simplex has no free or half-bounded variables
    with pytest.raises(ValueError, match=match):
        LpProblem(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=lo, hi=hi)


@pytest.mark.parametrize("lo,hi", [([np.nan, 0.0], [np.nan, 2.0]),
                                   ([np.nan, 0.0], [1.0, 2.0]),
                                   ([0.0, 0.0], [1.0, np.nan])])
def test_validation_rejects_nan_bounds(lo, hi):
    # every comparison with NaN is false, so lo > hi alone lets these through
    with pytest.raises(ValueError, match="NaN"):
        LpProblem(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=lo, hi=hi)


@pytest.mark.parametrize("lo,hi", [([np.inf, 0.0], [np.inf, 2.0]),
                                   ([0.0, -np.inf], [1.0, -np.inf]),
                                   ([np.inf, 0.0], [np.inf, np.inf])])
def test_validation_rejects_empty_infinite_domains(lo, hi):
    # inf > inf is false, so lo > hi alone lets these through as free variables
    with pytest.raises(ValueError, match="infinite bound"):
        LpProblem(c=[-1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=lo, hi=hi)


def test_two_generations_of_warm_starts_use_the_carried_inverse(monkeypatch, cold_cores):
    # children start from the parent's carried inverse, grandchildren from
    # the child's; many parents' slack bases had negative slacks
    proofs = []
    prove = simplex._Core._row_proves_infeasible
    monkeypatch.setattr(simplex._Core, "_row_proves_infeasible",
                        lambda core, r: proofs.append(prove(core, r)) or proofs[-1])
    negative_parents = grandchildren = infeasible = 0
    for seed in range(30):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)

        def solve(lo2, hi2, start=None):
            problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                                lo=lo2, hi=hi2)
            return solve_lp(problem, start=start)

        parent = solve(lo, hi)
        if parent.basis is None:
            continue
        # the slack basis rests each variable at the bound its cost
        # favors; a <= row violated there starts with a negative slack
        resid = b_ub - a_ub @ np.where(c > simplex._OBJ_TOL, hi, lo)
        negative_parents += bool(np.any(resid < 0.0))
        cold_cores.clear()
        k = seed % len(c)
        k2 = (seed + 1) % len(c)
        for new_lo, new_hi in _children(parent, lo, hi, k):
            lo1, hi1 = lo.copy(), hi.copy()
            lo1[k], hi1[k] = new_lo, new_hi
            child = solve(lo1, hi1, parent.basis)
            assert not cold_cores
            if child.status != LpStatus.OPTIMAL:
                continue
            for g_lo, g_hi in _children(child, lo1, hi1, k2):
                lo2, hi2 = lo1.copy(), hi1.copy()
                lo2[k2], hi2[k2] = max(g_lo, lo1[k2]), min(g_hi, hi1[k2])
                proofs.clear()
                warm = solve(lo2, hi2, child.basis)
                assert not cold_cores
                cold = solve(lo2, hi2)
                cold_cores.clear()
                status, _, ref_val = lp_vertex_enumeration(c, a_eq, b_eq, a_ub, b_ub,
                                                           lo2, hi2)
                grandchildren += 1
                assert warm.status == cold.status
                if status == "infeasible":
                    assert warm.status == LpStatus.INFEASIBLE
                    assert proofs and proofs[-1]
                    infeasible += 1
                    continue
                assert warm.status == LpStatus.OPTIMAL
                assert warm.objective_value == pytest.approx(ref_val, abs=1e-7)
                assert warm.objective_value == pytest.approx(cold.objective_value,
                                                             abs=1e-7)
                assert np.all(warm.x >= lo2 - 1e-9) and np.all(warm.x <= hi2 + 1e-9)
    assert negative_parents >= 5 and grandchildren >= 100 and infeasible >= 10


def test_warm_start_from_a_basic_artificial_matches_cold(cold_cores):
    # the rows are a redundant pair, so one artificial stays basic (at 0)
    # in every basis
    lo, hi = np.full(2, 1.0), np.full(2, 5.0)
    problem = LpProblem(c=np.array([1.0, 2.0]),
                        a_eq=np.array([[-1.0, -1.0], [-2.0, -2.0]]),
                        b_eq=np.array([-6.0, -12.0]), lo=lo, hi=hi)
    parent = solve_lp(problem)
    assert parent.status == LpStatus.OPTIMAL
    assert np.any(parent.basis[0] >= 2)  # columns 2 and 3 are the artificials
    child = LpProblem(c=problem.c, a_eq=problem.a_eq, b_eq=problem.b_eq,
                      lo=np.array([1.0, 2.5]), hi=hi)
    cold_cores.clear()
    warm = solve_lp(child, start=parent.basis)
    assert not cold_cores
    cold = solve_lp(child)
    assert warm.status == cold.status == LpStatus.OPTIMAL
    assert warm.x.tobytes() == cold.x.tobytes()
    assert warm.objective_value == cold.objective_value


def _agrees_with_cold(got, problem):
    """got has the status of a slack-basis solve and of the vertex oracle
    and, when optimal, their objective within 1e-9 relative; returns the
    slack-basis solve."""
    want = solve_lp(problem)
    status, _, ref = lp_vertex_enumeration(problem.c, problem.a_eq, problem.b_eq,
                                           problem.a_ub, problem.b_ub, problem.lo, problem.hi)
    assert got.status == want.status
    assert (want.status == LpStatus.INFEASIBLE) == (status == "infeasible")
    if want.status == LpStatus.OPTIMAL:
        for value in (want.objective_value, ref):
            assert abs(got.objective_value - value) <= 1e-9 * max(1.0, abs(value))
    return want


@pytest.mark.parametrize("seed", [0, 2, 7, 21])
def test_drifted_inverse_falls_back_to_cold(seed, cold_cores, refit_cores):
    # a start whose binv fails the identity test is no longer thrown away:
    # its basis is refactorized, and the solve matches a cold one
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    assert parent.status == LpStatus.OPTIMAL and parent.basis is not None
    basis, stat, binv = parent.basis
    drifted = binv.copy()
    drifted[0] *= 1.0 + 1e-5
    k = seed % len(c)
    lo2 = lo.copy()
    lo2[k] = 0.5 * (parent.x[k] + hi[k])

    def problem():
        return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo2, hi=hi)

    cold_cores.clear()
    # undrifted, the start's inverse is carried; drifted, only the identity test fails it
    solve_lp(problem(), start=simplex._Basis(basis, stat, binv, parent.basis.problem))
    assert not cold_cores and not refit_cores
    start = simplex._Basis(basis, stat, drifted, parent.basis.problem)
    # a failed test is not remembered: passed twice, the start is refactorized twice
    for k in (1, 2):
        got = solve_lp(problem(), start=start)
        assert not cold_cores
        assert len(refit_cores) == k and start.inverts is None
        _agrees_with_cold(got, problem())
        cold_cores.clear()


@pytest.mark.parametrize("seed", [0, 7, 15, 21])
def test_identity_test_runs_once_per_start_and_row_set(monkeypatch, seed, cold_cores):
    # two children of one row set share their parent's test; a problem
    # with equal rows in a row set of its own runs its own test
    tests = []
    inverts = simplex._inverts
    monkeypatch.setattr(simplex, "_inverts",
                        lambda binv, bmat: tests.append(1) or inverts(binv, bmat))
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    parent = solve_lp(problem)
    assert parent.status == LpStatus.OPTIMAL and not tests
    cold_cores.clear()
    k = seed % len(c)
    children = []
    for new_lo, new_hi in _children(parent, lo, hi, k)[:2]:
        lo2, hi2 = lo.copy(), hi.copy()
        lo2[k], hi2[k] = new_lo, new_hi
        children.append((lo2, hi2))
        solve_lp(problem.sibling(lo=lo2, hi=hi2), start=parent.basis)
        assert len(tests) == 1 and parent.basis.inverts is problem.row_set
    lo2, hi2 = children[-1]
    twin = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo2, hi=hi2)
    got = solve_lp(twin, start=parent.basis)
    assert len(tests) == 2 and parent.basis.inverts is twin.row_set
    # each start was taken, and skipping the test changes no bit
    assert not cold_cores
    want = solve_lp(problem.sibling(lo=lo2, hi=hi2),
                    start=simplex._Basis(*parent.basis, parent.basis.problem))
    assert len(tests) == 3
    assert (got.status, got.iteration_count) == (want.status, want.iteration_count)
    if want.status == LpStatus.OPTIMAL:
        assert got.x.tobytes() == want.x.tobytes()
        for g, w in zip(got.basis, want.basis):
            assert g.tobytes() == w.tobytes()


def _moved(rng, problem, parent):
    """problem, solved optimal by parent, with its objective, its rows,
    its right-hand sides and its bounds each moved or kept by draws of
    rng.  The bounds tighten, loosen or stay, alike on both sides; then
    half the time a basic variable's range is cut short of its value, as
    a branch-and-bound child's is.  A problem with all rows and
    right-hand sides kept is a sibling half the time, and otherwise has
    equal rows of its own; one with new ones keeps its equality rows at
    the bounds' midpoint, so they can be met."""
    p = problem
    c = p.c + rng.normal(size=p.c.shape) if rng.random() < 0.7 else p.c
    step = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 0.3, size=p.lo.shape) * (p.hi - p.lo)
    lo, hi = p.lo + step, p.hi - step
    basic = [j for j in parent.basis[0] if j < len(c)]
    if basic and rng.random() < 0.5:
        k = rng.choice(basic)
        cut = np.clip(parent.x[k], lo[k], hi[k])
        if rng.random() < 0.5:
            hi[k] = cut - 0.5 * (cut - lo[k])
        else:
            lo[k] = cut + 0.5 * (hi[k] - cut)
    new_rows, new_rhs = rng.random(2) < 0.5
    if not (new_rows or new_rhs) and rng.random() < 0.5:
        return p.sibling(c=c, lo=lo, hi=hi)
    a_eq, b_eq, a_ub, b_ub = p.a_eq, p.b_eq, p.a_ub, p.b_ub
    if new_rows:
        a_eq = a_eq + 0.05 * rng.normal(size=a_eq.shape)
        a_ub = a_ub + 0.05 * rng.normal(size=a_ub.shape)
    if new_rhs:
        b_ub = b_ub + 0.3 * rng.normal(size=b_ub.shape)
    if new_rows or new_rhs:
        b_eq = a_eq @ (0.5 * (lo + hi))
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)


def _wrong_side(core):
    """The largest reduced cost on its wrong side: how much moving some
    nonbasic off its bound would raise c @ x per unit (at most 0 when
    the basis is dual feasible), computed from the basis and statuses."""
    d = core.c - (core.c[core.basis] @ core.binv) @ core.a
    wrong = np.where(core.stat == simplex._AT_UP, -d, d)
    wrong[(core.stat == simplex._BASIC) | (core.hi == core.lo)] = 0.0
    return wrong.max(initial=0.0)


def _watched_starts(monkeypatch):
    """Wrap _Core._move and _Core._run to watch how each solve leaves its
    start.  Returns a dict of sets of cores, which the caller empties
    between solves: 'flipped', whose dual simplex flipped a status before
    its first pivot; 'pivoted', that made a dual pivot, each first from
    a dual feasible basis (asserted); 'primal', that entered the primal
    simplex with no dual pivot before; and 'seen', the union of the last
    two.  Every entry to the primal simplex is asserted primal feasible."""
    watched = {"flipped": set(), "pivoted": set(), "primal": set(), "seen": set()}
    seen = watched["seen"]
    move, run = simplex._Core._move, simplex._Core._run

    def checked_move(core, j, s, r=None, col=None):
        if core not in seen:
            if r is None:
                watched["flipped"].add(core)
            else:
                assert _wrong_side(core) <= simplex._OBJ_TOL
                watched["pivoted"].add(core)
                seen.add(core)
        return move(core, j, s, r, col)

    def checked_run(core):
        xb = core.x[core.basis]
        assert (core.lo[core.basis] - xb <= simplex._FEAS_TOL).all()
        assert (xb - core.hi[core.basis] <= simplex._FEAS_TOL).all()
        if core not in seen:
            watched["primal"].add(core)
        seen.add(core)
        return run(core)

    monkeypatch.setattr(simplex._Core, "_move", checked_move)
    monkeypatch.setattr(simplex._Core, "_run", checked_run)
    return watched


def _measured(start, problem):
    """(primal feasible, repairable) for the basis and statuses of start
    under problem, computed from problem's data apart from the simplex:
    whether, with each nonbasic at the bound its status names, every
    basic lies within _FEAS_TOL of its bounds, and whether every
    nonbasic's favored bound is finite, so that the dual simplex's flips
    need no slack at its infinite bound."""
    m_eq, m_ub = len(problem.b_eq), len(problem.b_ub)
    m = m_eq + m_ub
    # columns [structural | slacks | one artificial per equality row]
    a = np.hstack([np.vstack([problem.a_eq, problem.a_ub]),
                   np.vstack([np.zeros((m_eq, m_ub)), np.eye(m_ub)]), np.eye(m, m_eq)])
    b = np.concatenate([problem.b_eq, problem.b_ub])
    c = np.concatenate([problem.c, np.zeros(m_ub + m_eq)])
    lo = np.concatenate([problem.lo, np.zeros(m_ub + m_eq)])
    hi = np.concatenate([problem.hi, np.full(m_ub, np.inf), np.zeros(m_eq)])
    basic, stat = np.asarray(start[0]), np.asarray(start[1])
    binv = np.linalg.solve(a[:, basic], np.eye(m))
    x = np.where(stat == simplex._AT_UP, hi, lo)
    x[basic] = 0.0
    xb = binv @ (b - a @ x)
    feasible = bool((lo[basic] - xb <= simplex._FEAS_TOL).all()
                    and (xb - hi[basic] <= simplex._FEAS_TOL).all())
    d = c - c[basic] @ binv @ a
    d[basic] = 0.0
    return feasible, not ((d > simplex._OBJ_TOL) & np.isinf(hi)).any()


@pytest.mark.parametrize("change", ["objective", "looser_bounds"])
def test_start_for_another_problem_solves_cold(monkeypatch, change, cold_cores, refit_cores):
    # a start for a problem with equal rows and another objective, or
    # looser bounds, keeps its inverse.  Under another objective it is
    # primal feasible as it stands and runs the primal simplex; under
    # looser bounds it is dual feasible as it stands and flips nothing.
    # Neither goes to the slack basis, and each ends as a cold solve does
    watched = _watched_starts(monkeypatch)

    def lp(seed, child):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
        if child:
            c, lo = (c + 1.0, lo) if change == "objective" else (c, lo - 1.0)
        return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)

    solved = pivoted = 0
    for seed in range(40):
        parent = solve_lp(lp(seed, False))
        if parent.status != LpStatus.OPTIMAL:
            continue
        for seen in watched.values():
            seen.clear()
        cold_cores.clear()
        refit_cores.clear()
        got = solve_lp(lp(seed, True), start=parent.basis)
        assert not cold_cores and not refit_cores and not watched["flipped"]
        if change == "objective":
            assert watched["primal"] and not watched["pivoted"]
        solved += 1
        pivoted += bool(watched["pivoted"])
        _agrees_with_cold(got, lp(seed, True))
    assert solved >= 10
    # looser bounds move the basics of some starts out of their bounds
    assert (pivoted > 0) == (change == "looser_bounds")


def _perturbed(rng, c, a_eq, b_eq, a_ub, b_ub, lo, hi):
    """The LP moved a little: every row and c nudged, each bound tightened
    or loosened, and b_eq kept at a point inside the new bounds."""
    c = c + 0.3 * rng.normal(size=c.shape)
    a_ub = a_ub + 0.05 * rng.normal(size=a_ub.shape)
    b_ub = b_ub + 0.05 * rng.normal(size=b_ub.shape)
    lo = lo + rng.uniform(-0.3, 0.3, size=lo.shape)
    hi = np.maximum(hi + rng.uniform(-0.3, 0.3, size=hi.shape), lo + 0.1)
    if len(b_eq):
        a_eq = a_eq + 0.05 * rng.normal(size=a_eq.shape)
        b_eq = a_eq @ (0.5 * (lo + hi))
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)


def test_property_refit_start_solves_a_moved_lp(monkeypatch, cold_cores, refit_cores):
    # the parent's basis starts the LP of a net a step later: rows, c and
    # bounds have all moved, so binv, where there are rows, is refactorized.
    # The start goes to the slack basis exactly when it is neither primal
    # feasible nor repairable by flips; every other one runs the primal
    # simplex, or makes its first dual pivot dual feasible, and ends as a
    # cold solve does
    watched = _watched_starts(monkeypatch)
    kept = cold = primal = flipped = 0
    for seed in range(200):
        parent = solve_lp(LpProblem(*_random_problem(seed)))
        if parent.status != LpStatus.OPTIMAL:
            continue
        child = _perturbed(np.random.default_rng((seed, 1)), *_random_problem(seed))
        for seen in watched.values():
            seen.clear()
        cold_cores.clear()
        refit_cores.clear()
        got = solve_lp(child, start=parent.basis)
        feasible, repairable = _measured(parent.basis, child)
        assert len(refit_cores) == (len(child.b_eq) + len(child.b_ub) > 0)
        assert bool(cold_cores) == (not feasible and not repairable)
        if cold_cores:
            cold += 1
        else:
            kept += 1
            primal += feasible
            flipped += bool(watched["flipped"])
            if feasible:  # taken as it stands
                assert watched["primal"] and not watched["flipped"]
        _agrees_with_cold(got, child)
    assert kept >= 100 and cold > 0 and primal > 0 and flipped > 0


def test_property_one_start_rule_solves_moved_lps(monkeypatch, cold_cores, refit_cores):
    # an optimal basis starts a child LP whose objective, rows and
    # right-hand sides moved and whose bounds tightened or loosened: each
    # dual simplex makes its first pivot from a dual feasible basis, each
    # primal simplex starts primal feasible, and every solve ends as a
    # slack-basis solve and vertex enumeration do
    watched = _watched_starts(monkeypatch)
    paths = Counter()
    for seed in range(60):
        problem = LpProblem(*_random_problem(seed))
        parent = solve_lp(problem)
        if parent.status != LpStatus.OPTIMAL:
            continue
        rng = np.random.default_rng((seed, 3))
        for _ in range(4):
            child = _moved(rng, problem, parent)
            for seen in watched.values():
                seen.clear()
            cold_cores.clear()
            refit_cores.clear()
            got = solve_lp(child, start=parent.basis)
            paths["slack basis"] += bool(cold_cores)
            if not cold_cores:
                paths["refactorized" if refit_cores else "carried"] += 1
                paths["flipped"] += bool(watched["flipped"])
                paths["primal feasible" if watched["primal"] else "dual pivots"] += 1
            _agrees_with_cold(got, child)
            paths[got.status] += 1
    # every path of the rule was taken
    assert paths["carried"] >= 40 and paths["refactorized"] >= 40, paths
    assert paths["primal feasible"] >= 40 and paths["dual pivots"] >= 20, paths
    assert paths["flipped"] >= 10 and paths["slack basis"] > 0, paths
    assert paths[LpStatus.INFEASIBLE] > 0, paths


def test_primal_feasible_start_runs_the_primal_simplex(cold_cores, refit_cores):
    # the rows of the parent, passed again, under another objective: the
    # start is primal feasible as it stands, although the slack of the
    # tight row x0 + x1 <= 1 now has a reduced cost that favors its
    # infinite upper bound, so no flip could make it dual feasible.  The
    # primal simplex finishes from it, with no slack-basis solve
    rows, b_ub, lo, hi = np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.5], np.zeros(2), np.full(2, 2.0)
    parent = solve_lp(LpProblem(c=[1.0, 2.0], a_ub=rows, b_ub=b_ub, lo=lo, hi=hi))
    assert parent.x.tolist() == [0.0, 1.0] and simplex.row_duals(parent.basis)[0] > 0.0
    child = LpProblem(c=[-1.0, -1.0], a_ub=rows, b_ub=b_ub, lo=lo, hi=hi)
    cold_cores.clear()
    got = solve_lp(child, start=parent.basis)
    assert not cold_cores and not refit_cores
    assert got.status == LpStatus.OPTIMAL and got.x.tolist() == [0.0, 0.0]
    _agrees_with_cold(got, child)


def test_start_that_is_no_basis_is_rejected():
    problem = _dispatch_like(6.0)
    basis = solve_lp(problem).basis
    with pytest.raises(TypeError):
        solve_lp(problem, start=tuple(basis))
    with pytest.raises(TypeError):
        simplex.basis_solutions(tuple(basis), [[6.0]], [[2.0, 7.0]])


def _checked_moves(monkeypatch):
    """Wrap _Core._move so that after every pivot and bound flip the carried
    loop state is compared with one rebuilt from scratch, and after every
    pivot binv is checked to still invert the basis; returns a counter of
    (loop, 'pivot' or 'flip') and the list of (row, entering) pivots."""
    moves = {}
    pivots = []
    loop = ["primal"]
    move = simplex._Core._move

    def checked(core, j, s, r=None, col=None):
        move(core, j, s, r, col)
        # bytes, so a stale sign of a zero in dn counts as drift too
        up, dn = core._directions()
        assert core.up.tobytes() == up.tobytes()
        assert core.dn.tobytes() == dn.tobytes()
        assert core.lo_b.tobytes() == core.lo[core.basis].tobytes()
        assert core.hi_b.tobytes() == core.hi[core.basis].tobytes()
        assert core.c_b.tobytes() == core.c[core.basis].tobytes()
        key = (loop[0], "flip" if r is None else "pivot")
        moves[key] = moves.get(key, 0) + 1
        if r is not None:
            pivots.append((r, j))
            eye = np.eye(core.m)
            assert np.abs(core.binv @ core.a[:, core.basis] - eye).max() <= 1e-9

    def in_loop(name, method):
        def run(core, *args):
            outer, loop[0] = loop[0], name
            try:
                return method(core, *args)
            finally:
                loop[0] = outer
        return run

    monkeypatch.setattr(simplex._Core, "_move", checked)
    monkeypatch.setattr(simplex._Core, "_dual", in_loop("dual", simplex._Core._dual))
    return moves, pivots


def test_carried_loop_state_never_drifts(monkeypatch):
    moves, _ = _checked_moves(monkeypatch)
    for seed in range(60):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
        problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        parent = solve_lp(problem)
        if parent.status != LpStatus.OPTIMAL:
            continue
        k = seed % len(c)
        for new_lo, new_hi in _children(parent, lo, hi, k):
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[k], hi2[k] = new_lo, new_hi
            solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                               lo=lo2, hi=hi2), start=parent.basis)
        # a sibling with another objective takes the basis primal feasible
        solve_lp(problem.sibling(c=-c), start=parent.basis)
    # slack-basis and warm starts pivoted in the dual loop, and the primal
    # loop of the siblings pivoted and flipped bounds
    for key in [("dual", "pivot"), ("primal", "pivot"), ("primal", "flip")]:
        assert moves.get(key, 0) >= 10, (key, moves)


def test_carried_loop_state_never_drifts_under_blands_rule(monkeypatch):
    moves, pivots = _checked_moves(monkeypatch)
    paths = {}
    values = {}
    default = simplex._BLAND_TRIGGER
    for trigger in (default, 1):
        # from the first degenerate pivot on, enter and leave by Bland's rule
        monkeypatch.setattr(simplex, "_BLAND_TRIGGER", trigger)
        for seed in range(60):
            c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
            # every row is tight at lo, where the first objective's slack
            # basis rests every variable and is optimal: degenerate for the
            # primal simplex of the second, started from that basis
            first = LpProblem(c=-1.0 - np.abs(c), a_eq=a_eq, b_eq=a_eq @ lo, a_ub=a_ub,
                              b_ub=a_ub @ lo, lo=lo, hi=hi)
            start = solve_lp(first).basis
            pivots.clear()
            sol = solve_lp(first.sibling(c=c), start=start)
            paths[trigger, seed] = list(pivots)
            values[trigger, seed] = (sol.status, sol.objective_value)
    for seed in range(60):
        status, value = values[default, seed]
        assert values[1, seed][0] == status
        if status == LpStatus.OPTIMAL:
            assert values[1, seed][1] == pytest.approx(value, abs=1e-7)
    changed = sum(paths[default, s] != paths[1, s] for s in range(60))
    assert changed >= 10  # Bland's rule took over on these paths


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_sibling_starts_under_equal_bounds_are_taken_primal_feasible(monkeypatch, seed,
                                                                     cold_cores,
                                                                     refit_cores):
    # siblings that differ only in c, each started from the last one's
    # optimal basis: the first from the slack basis, every later one taken
    # as it is, with no dual pivot, to a slack-basis solve's value
    dual_pivots = []
    dual = simplex._Core._dual

    def counted(core, *args):
        status = dual(core, *args)
        dual_pivots.append(core.iterations)
        return status

    monkeypatch.setattr(simplex._Core, "_dual", counted)
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    rng = np.random.default_rng(seed)
    first = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    start = None
    for k in range(4):
        problem = first if k == 0 else first.sibling(c=rng.normal(size=len(c)))
        cold_cores.clear()
        dual_pivots.clear()
        got = solve_lp(problem, start=start)
        assert len(cold_cores) == (k == 0) and not refit_cores
        if k:
            assert dual_pivots == [0]
        _agrees_with_cold(got, LpProblem(c=problem.c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub,
                                         b_ub=b_ub, lo=lo, hi=hi))
        if got.status != LpStatus.OPTIMAL:
            assert k == 0  # the row set is infeasible
            return
        start = got.basis


def test_sibling_start_under_tighter_bounds_is_not_taken(monkeypatch, cold_cores,
                                                        refit_cores):
    # another objective under tighter bounds, with every basic structural
    # variable's parent value cut out of its range: the start keeps its
    # inverse, and where a structural variable is basic it is primal
    # infeasible.  Its statuses then flip to the bounds their reduced
    # costs favor before the dual simplex pivots, or, where that needs a
    # slack's infinite bound, it goes to the slack basis; a start with
    # only slacks basic stays primal feasible and runs the primal simplex.
    # Each ends as a cold solve does
    watched = _watched_starts(monkeypatch)
    flipped = cold = 0
    for seed in range(60):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
        problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        parent = solve_lp(problem)
        if parent.status != LpStatus.OPTIMAL:
            continue
        tighter = lo + 0.25 * (hi - lo)
        basic = parent.basis[0][parent.basis[0] < len(c)]
        x = parent.x[basic]
        tighter[basic] = np.maximum(tighter[basic], x + 0.5 * (hi[basic] - x))
        sibling = problem.sibling(c=-c, lo=tighter)
        for seen in watched.values():
            seen.clear()
        cold_cores.clear()
        refit_cores.clear()
        got = solve_lp(sibling, start=parent.basis)
        feasible, repairable = _measured(parent.basis, sibling)
        assert not refit_cores
        assert bool(cold_cores) == (not feasible and not repairable)
        if feasible:
            assert watched["primal"] and not watched["flipped"]
        elif not cold_cores:
            assert watched["flipped"]
        cold += bool(cold_cores)
        flipped += bool(watched["flipped"])
        _agrees_with_cold(got, LpProblem(c=-c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                                         lo=tighter, hi=hi))
    assert flipped >= 5 and cold > 0, (flipped, cold)


@pytest.mark.xfail(strict=True, reason="the cold path calls this feasible ill-conditioned LP "
                                       "infeasible (ROADMAP item 7)")
@pytest.mark.parametrize("b_eq", [(0.0, 1.0), (0.1, 0.3), (0.3, 0.7)])
def test_cold_path_solves_a_feasible_ill_conditioned_lp(b_eq):
    # x0, x1 in [-1e13, 1e13] with rows x0 + x1 = b0, x0 + (1 + 2**-40) x1
    # = b1: the solution x1 = 2**40 (b1 - b0), x0 = b0 - x1 lies inside
    # the bounds for these b (for b = (0, 1) it is (-2**40, 2**40), exact
    # in floats)
    box = np.full(2, 1e13)
    problem = LpProblem(c=np.zeros(2), a_eq=np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -40]]),
                        b_eq=np.array(b_eq), lo=-box, hi=box)
    assert solve_lp(problem).status != LpStatus.INFEASIBLE


def test_sibling_shares_the_rows_and_checks_what_is_new():
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(4)
    problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    sib = problem.sibling(c=-c, hi=hi + 1.0)
    assert sib.row_set is problem.row_set and sib.lo.tobytes() == problem.lo.tobytes()
    want = solve_lp(LpProblem(c=-c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo,
                              hi=hi + 1.0))
    got = solve_lp(sib)
    assert got.status == want.status and got.x.tobytes() == want.x.tobytes()
    with pytest.raises(ValueError, match="NaN"):
        problem.sibling(lo=np.full_like(lo, np.nan))
    with pytest.raises(ValueError, match="lower bound exceeds"):
        problem.sibling(hi=lo - 1.0)
    with pytest.raises(ValueError, match="number of variables"):
        problem.sibling(c=np.ones(len(c) + 1))
    with pytest.raises(ValueError, match="nonfinite"):
        problem.sibling(c=np.full_like(c, np.inf))


def test_cutoff_needs_boxed_variables():
    # safe_max sums r_j times a bound of every variable, so an LP with an
    # unboxed variable is refused before any solve, with a cutoff or not
    with pytest.raises(ValueError, match="boxed"):
        LpProblem(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                  lo=np.zeros(2), hi=np.array([1.0, np.inf]))


def test_x_is_derived_exactly_when_there_is_no_cutoff(monkeypatch, refactorizations,
                                                      cold_cores):
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, 0 <= x, y <= 10;
    # the cutoff -inf never stops a solve, so only x and the value differ
    problem = LpProblem(c=np.array([3.0, 5.0]),
                        a_ub=np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
                        b_ub=np.array([4.0, 12.0, 18.0]), lo=np.zeros(2), hi=np.full(2, 10.0))
    plain = solve_lp(problem)
    assert isinstance(plain, LpSolution) and plain.status == LpStatus.OPTIMAL
    assert plain.x.tolist() == [2.0, 6.0] and plain.objective_value == 36.0
    assert len(refactorizations) == 1
    for start in (None, plain.basis):
        refactorizations.clear()
        cut = solve_lp(problem, start=start, cutoff=-np.inf)
        assert cut.status == LpStatus.OPTIMAL and not refactorizations
        assert cut.x is None and np.isnan(cut.objective_value)
        full = solve_lp(problem, start=start)
        assert full.x.tobytes() == plain.x.tobytes() and len(refactorizations) == 1
        assert cut.point.tobytes() == full.point.tobytes()
        assert [v.tobytes() for v in cut.basis] == [v.tobytes() for v in full.basis]
    # a recheck that fails raises from a cold solve, sends a started one
    # cold, and is never run with a cutoff
    exact = simplex._Core._exact
    fails = [True]
    monkeypatch.setattr(simplex._Core, "_exact", lambda core, x, b: (
        exact(core, x, b)[0], np.bool_(fails.pop() if fails else False)))
    with pytest.raises(NumericalBreakdown, match="feasibility recheck"):
        solve_lp(problem)
    fails.append(True)
    assert solve_lp(problem, cutoff=-np.inf).x is None and fails
    cold_cores.clear()
    warm = solve_lp(problem, start=plain.basis)
    assert len(cold_cores) == 1 and not fails
    assert warm.x.tobytes() == plain.x.tobytes() and warm.objective_value == 36.0
