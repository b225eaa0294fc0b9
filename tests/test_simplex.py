import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import lp_vertex_enumeration
from wcopf import simplex
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
    assert sol.iteration_count == 0


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
def test_warm_start_matches_cold_and_enumeration(seed, monkeypatch):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _random_problem(seed)
    parent = _solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)
    if parent.status != LpStatus.OPTIMAL or len(b_eq) + len(b_ub) == 0:
        assert parent.basis is None
        return
    # every warm solve below must finish on the dual path, not the fallback
    cold_calls = []
    cold_path = simplex._Core.cold
    monkeypatch.setattr(simplex._Core, "cold",
                        lambda core: cold_calls.append(core) or cold_path(core))
    k = seed % len(c)
    for new_lo, new_hi in _children(parent, lo, hi, k):
        lo2 = lo.copy()
        hi2 = hi.copy()
        lo2[k], hi2[k] = new_lo, new_hi
        problem = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                            lo=lo2, hi=hi2)
        warm = solve_lp(problem, start=parent.basis)
        again = solve_lp(problem, start=parent.basis)
        assert not cold_calls
        cold = solve_lp(problem)
        cold_calls.clear()
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


def test_singular_start_falls_back_to_cold():
    # identical structural columns make any basis holding both singular
    problem = LpProblem(c=np.array([1.0, 2.0]),
                        a_ub=np.array([[1.0, 1.0], [2.0, 2.0]]),
                        b_ub=np.array([3.0, 5.0]),
                        lo=np.zeros(2), hi=np.full(2, 4.0))
    cold = solve_lp(problem)
    stat = np.full(6, simplex._AT_LO, dtype=np.int8)
    stat[:2] = simplex._BASIC
    warm = solve_lp(problem, start=(np.array([0, 1]), stat))
    assert cold.status == warm.status == LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(5.0, abs=1e-9)
    assert warm.x.tobytes() == cold.x.tobytes()


def test_start_of_wrong_shape_is_rejected():
    problem = LpProblem(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                        lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ValueError):
        solve_lp(problem, start=(np.array([0, 1]), np.zeros(4, dtype=np.int8)))


def test_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LpProblem(c=np.ones(2), lo=np.array([1.0, 0.0]), hi=np.array([0.0, 1.0]))


def test_validation_rejects_nan():
    with pytest.raises(ValueError):
        LpProblem(c=np.array([np.nan, 1.0]))
