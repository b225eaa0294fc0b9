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
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
    sol = _solve([3.0, 5.0],
                 a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                 b_ub=[4.0, 12.0, 18.0],
                 lo=[0.0, 0.0], hi=[np.inf, np.inf])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(36.0, abs=1e-9)
    assert np.allclose(sol.x, [2.0, 6.0], atol=1e-9)


def test_equality_infeasible():
    # x + y = 1 with x, y >= 2 is infeasible
    sol = _solve([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lo=[2.0, 2.0], hi=[np.inf, np.inf])
    assert sol.status == LpStatus.INFEASIBLE


def test_unbounded_direction():
    sol = _solve([1.0], a_ub=[[-1.0]], b_ub=[0.0], lo=[0.0], hi=[np.inf])
    assert sol.status == LpStatus.UNBOUNDED


def test_bounds_only_box():
    sol = _solve([1.0], lo=[0.0], hi=[5.0])
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(5.0, abs=0.0)
    assert sol.iteration_count == 2  # one bound flip, one closing pricing pass


def test_bounds_only_unbounded():
    sol = _solve([1.0], lo=[0.0], hi=[np.inf])
    assert sol.status == LpStatus.UNBOUNDED


def test_negative_cost_prefers_lower_bound():
    sol = _solve([-2.0, 0.0], lo=[-3.0, 1.0], hi=[4.0, 1.0])
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.x, [-3.0, 1.0])


def test_free_variable_with_equality():
    # max -x1 s.t. x0 + x1 = 2, x0 in [0, 1], x1 free -> x1 = 1 at x0 = 1
    sol = _solve([0.0, -1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0],
                 lo=[0.0, -np.inf], hi=[1.0, np.inf])
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_degenerate_vertex():
    # three inequalities meet at the optimum (2, 2)
    sol = _solve([1.0, 1.0],
                 a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                 b_ub=[2.0, 2.0, 4.0],
                 lo=[0.0, 0.0], hi=[np.inf, np.inf])
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


@settings(max_examples=40, deadline=None)
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
def test_warm_start_after_a_rhs_change_matches_cold(demand, b_ub, kind, cold_cores):
    # only b_eq and b_ub move, so the parent's basis stays dual feasible
    parent = solve_lp(_dispatch_like(6.0))
    assert parent.status == LpStatus.OPTIMAL
    cold_cores.clear()
    warm = solve_lp(_dispatch_like(demand, b_ub), start=parent.basis)
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
        problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        cold_cores.clear()
        x, ok = simplex.basis_solutions(problem, parent.basis, beqs, bubs)
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
        lp(6.0), parent.basis, [[d] for d, _, _ in cases],
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
    for start in ((basis, stat, 2.0 * binv), (basis, stat, np.full_like(binv, np.nan))):
        x, ok = simplex.basis_solutions(problem, start, [[6.0], [6.5]],
                                        [[2.0, 7.0], [2.0, 7.5]])
        assert x.shape == (2, 3) and not ok.any()
    _, ok = simplex.basis_solutions(problem, parent.basis, [[6.0], [6.5]],
                                    [[2.0, 7.0], [2.0, 7.5]])
    assert ok.all()


def test_basis_solutions_reject_what_fails_the_equality_recheck():
    # free x0, x1 with rows x0 + x1 = b0, x0 + (1 + 2**-40) x1 = b1: the
    # basis of both columns is ill-conditioned, but its inverse is exact,
    # so it passes every test of _adopt and, its basics being free, the
    # _FEAS_TOL bound test for any b.  Where b1 - b0 is not a multiple of
    # 2**-40 the basics are about 2**40 (b1 - b0) and round at 1e-4, and
    # the rows miss b by more than 1e-6 (1 + |b|): only the recheck in
    # _exact turns those right-hand sides away.
    t = 2.0 ** 40
    problem = LpProblem(c=np.zeros(2), a_eq=np.array([[1.0, 1.0], [1.0, 1.0 + 1.0 / t]]),
                        b_eq=np.zeros(2))
    basis = (np.array([0, 1]), np.array([0, 0, 1, 1], dtype=np.int8),
             np.array([[t + 1.0, -t], [-t, t]]))
    b_eqs = [[0.0, 0.0], [0.0, 1.0], [0.1, 0.3], [0.3, 0.7]]
    x, ok = simplex.basis_solutions(problem, basis, b_eqs, None)
    assert ok.tolist() == [True, True, False, False]
    for b_eq, xi, served in zip(b_eqs, x, ok):
        lp = LpProblem(c=problem.c, a_eq=problem.a_eq, b_eq=b_eq)
        warm = solve_lp(lp, start=basis)
        if served:
            assert warm.iteration_count == 1 and warm.x.tobytes() == xi.tobytes()
        else:
            # the warm start's own recheck fails too, and the cold path runs
            assert warm.status != LpStatus.OPTIMAL or warm.iteration_count > 1
            core = simplex._Core(lp)
            assert core.warm(*basis) == LpStatus.OPTIMAL
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
    stat = np.full(6, simplex._AT_LO, dtype=np.int8)
    stat[:2] = simplex._BASIC
    cold_cores.clear()
    warm = solve_lp(problem, start=(np.array([0, 1]), stat, np.eye(2)))
    assert len(cold_cores) == 1
    assert cold.status == warm.status == LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(5.0, abs=1e-9)
    assert warm.x.tobytes() == cold.x.tobytes()


def test_start_of_wrong_shape_is_rejected():
    problem = LpProblem(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                        lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ValueError):
        solve_lp(problem, start=(np.array([2]), np.zeros(3, dtype=np.int8), np.eye(1)))
    with pytest.raises(ValueError):
        solve_lp(problem, start=(np.array([2]), np.zeros(4, dtype=np.int8), np.eye(2)))


def test_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LpProblem(c=np.ones(2), lo=np.array([1.0, 0.0]), hi=np.array([0.0, 1.0]))


def test_validation_rejects_nan():
    with pytest.raises(ValueError):
        LpProblem(c=np.array([np.nan, 1.0]))


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
    # the child's; many parents' cold starts had nonpositive artificials
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
        # the cold start puts every variable at lo; a row violated there
        # starts with its artificial basic at the negative residual
        resid = np.concatenate([b_eq - a_eq @ lo, b_ub - a_ub @ lo])
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
    # the cold start violates both rows; one (nonpositive) artificial of the
    # redundant pair stays basic
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


@pytest.mark.parametrize("seed", [0, 2, 7, 21])
def test_drifted_inverse_falls_back_to_cold(seed, cold_cores):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    assert parent.status == LpStatus.OPTIMAL and parent.basis is not None
    basis, stat, binv = parent.basis
    drifted = binv.copy()
    drifted[0] *= 1.0 + 1e-5
    k = seed % len(c)
    lo2 = lo.copy()
    lo2[k] = 0.5 * (parent.x[k] + hi[k])
    problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo2, hi=hi)
    cold_cores.clear()
    fallback = solve_lp(problem, start=(basis, stat, drifted))
    assert len(cold_cores) == 1
    cold = solve_lp(problem)
    assert fallback.status == cold.status
    assert fallback.iteration_count == cold.iteration_count
    assert fallback.objective_value == cold.objective_value
    if cold.status == LpStatus.OPTIMAL:
        assert fallback.x.tobytes() == cold.x.tobytes()
        for got, want in zip(fallback.basis, cold.basis):
            assert got.tobytes() == want.tobytes()


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
        rises, falls = core._movable()
        assert core.rises.tobytes() == rises.tobytes()
        assert core.falls.tobytes() == falls.tobytes()
        assert core.lo_b.tobytes() == core.lo[core.basis].tobytes()
        assert core.hi_b.tobytes() == core.hi[core.basis].tobytes()
        assert core.c_b.tobytes() == core.cost[core.basis].tobytes()
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
    monkeypatch.setattr(simplex._Core, "_phase1", in_loop("phase1", simplex._Core._phase1))
    return moves, pivots


def test_carried_loop_state_never_drifts(monkeypatch):
    moves, _ = _checked_moves(monkeypatch)
    for seed in range(60):
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
        parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        if parent.status != LpStatus.OPTIMAL:
            continue
        k = seed % len(c)
        for new_lo, new_hi in _children(parent, lo, hi, k):
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[k], hi2[k] = new_lo, new_hi
            solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                               lo=lo2, hi=hi2), start=parent.basis)
    # cold starts with phase 1, warm starts with dual pivots, and primal
    # phase 2 all pivoted, and the primal loops flipped bounds
    for key in [("phase1", "pivot"), ("dual", "pivot"), ("primal", "pivot"),
                ("phase1", "flip"), ("primal", "flip")]:
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
            # every row is tight at the cold start's vertex lo: degenerate
            pivots.clear()
            sol = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=a_ub @ lo, lo=lo, hi=hi)
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
def test_shared_phase1_matches_cold_solves(seed, cold_cores):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    rng = np.random.default_rng(seed)
    shared = simplex.SharedPhase1()
    for k in range(4):
        problem = LpProblem(c=c if k == 0 else rng.normal(size=len(c)), a_eq=a_eq, b_eq=b_eq,
                            a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
        cold_cores.clear()
        got = solve_lp(problem, start=shared)
        # only the first LP runs phase 1, unless it never got past it
        assert len(cold_cores) == (k == 0 or got.status == LpStatus.INFEASIBLE)
        want = solve_lp(problem)
        assert got.status == want.status
        assert got.iteration_count <= want.iteration_count
        if want.status == LpStatus.OPTIMAL:
            assert got.x.tobytes() == want.x.tobytes()
            assert got.objective_value == want.objective_value
            for g, w in zip(got.basis, want.basis):
                assert g.tobytes() == w.tobytes()


def test_shared_phase1_rejects_other_bounds():
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(0)
    shared = simplex.SharedPhase1()
    solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi),
             start=shared)
    assert shared.state is not None
    with pytest.raises(ValueError, match="shared phase 1"):
        solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                           lo=lo, hi=hi + 1.0), start=shared)
