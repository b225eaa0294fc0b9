import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from oracles import lp_vertex_enumeration, ptdf_reference
from wcopf import simplex
from wcopf.errors import NumericalBreakdown, SchemaError, SingularNetwork
from wcopf.grid import (BUILTIN_CASES, GridModel, Generator, Line, Load, builtin_grid,
                        compute_ptdf, grid_from_dict, injection_matrices,
                        load_grid, solve_dcopf)
from wcopf.grid.model import builtin_case_text
from wcopf.simplex import LpStatus


def ring3(limit12=120.0, p_max1=120.0):
    return grid_from_dict({
        "buses": [1, 2, 3],
        "slack": 1,
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": p_max1, "cost": 10.0},
            {"bus": 3, "p_min": 0.0, "p_max": 100.0, "cost": 30.0},
        ],
        "loads": [{"bus": 2, "nominal": 90.0}, {"bus": 3, "nominal": 60.0}],
        "lines": [
            {"from": 1, "to": 2, "susceptance": 10.0, "limit": limit12},
            {"from": 2, "to": 3, "susceptance": 10.0, "limit": 120.0},
            {"from": 1, "to": 3, "susceptance": 10.0, "limit": 120.0},
        ],
    })


# ---------------------------------------------------------------- schema


def test_builtin_grids_load():
    for name in BUILTIN_CASES:
        g = builtin_grid(name)
        assert g.n_bus >= 3 and g.n_gen >= 2 and g.n_load >= 2


def _syn39_doc():
    """The synthetic 39-bus grid, built from numpy's default_rng(0): a
    ring of 39 buses plus 7 random chords, 20 loads and 10 generators on
    random buses (the first generator's bus is the slack), then nominal
    loads, capacities, costs and susceptances, every line limited to 400 MW."""
    rng = np.random.default_rng(0)
    pairs = [(i, (i + 1) % 39) for i in range(39)]
    while len(pairs) < 46:
        a, b = (int(v) for v in sorted(rng.choice(39, 2, replace=False)))
        if {a, b} not in [set(p) for p in pairs]:
            pairs.append((a, b))
    loads = sorted(rng.choice(39, 20, replace=False))
    gens = sorted(rng.choice(39, 10, replace=False))
    nominal = rng.uniform(50, 150, 20)
    p_max = 1.6 * nominal.sum() / 10 * rng.uniform(0.7, 1.3, 10)
    cost = rng.uniform(10, 40, 10)
    susceptance = rng.uniform(5, 25, 46)
    return {
        "buses": list(range(1, 40)),
        "slack": int(gens[0]) + 1,
        "generators": [{"bus": int(g) + 1, "p_min": 0.0, "p_max": float(p), "cost": float(c)}
                       for g, p, c in zip(gens, p_max, cost)],
        "loads": [{"bus": int(d) + 1, "nominal": float(n)} for d, n in zip(loads, nominal)],
        "lines": [{"from": a + 1, "to": b + 1, "susceptance": float(s), "limit": 400.0}
                  for (a, b), s in zip(pairs, susceptance)],
    }


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_syn39_is_its_seeded_build():
    built = _syn39_doc()
    assert _canonical(json.loads(builtin_case_text("syn39"))) == _canonical(built)
    assert hashlib.sha256(_canonical(built).encode()).hexdigest() == \
        "7bfb0c563b9aa7eead718905e6461988d609d6b40470fb66e3b18b9f73218595"
    chords = [(ln["from"], ln["to"]) for ln in built["lines"][39:]]
    assert chords == [(25, 33), (11, 13), (1, 3), (26, 31), (20, 24), (25, 28), (22, 37)]
    grid = builtin_grid("syn39")
    assert (grid.n_bus, grid.n_gen, grid.n_load, len(grid.lines)) == (39, 10, 20, 46)
    assert grid.slack == 5 and round(float(grid.nominal_demand().sum()), 3) == 1885.175


def test_unknown_top_level_key_rejected():
    doc = {"buses": [1], "slack": 1, "generators": [], "loads": [], "lines": [], "extra": 1}
    with pytest.raises(SchemaError, match="unknown keys"):
        grid_from_dict(doc)


def test_unknown_nested_key_rejected():
    doc = {
        "buses": [1], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0, "p_max": 1, "cost": 1, "fuel": "gas"}],
        "loads": [], "lines": [],
    }
    with pytest.raises(SchemaError, match="unknown keys"):
        grid_from_dict(doc)


def test_missing_key_rejected():
    doc = {"buses": [1], "slack": 1, "generators": [{"bus": 1, "p_min": 0, "p_max": 1}],
           "loads": [], "lines": []}
    with pytest.raises(SchemaError, match="missing keys"):
        grid_from_dict(doc)


def test_slack_must_exist():
    with pytest.raises(SchemaError, match="slack"):
        GridModel(buses=(1, 2), slack=9,
                  generators=(Generator(bus=1, p_min=0, p_max=1, cost=1),),
                  loads=(), lines=(Line(from_bus=1, to_bus=2, susceptance=1, limit=1),))


def test_negative_susceptance_rejected():
    with pytest.raises(SchemaError, match="susceptance"):
        GridModel(buses=(1, 2), slack=1,
                  generators=(Generator(bus=1, p_min=0, p_max=1, cost=1),),
                  loads=(), lines=(Line(from_bus=1, to_bus=2, susceptance=-1, limit=1),))


def test_pmin_above_pmax_rejected():
    with pytest.raises(SchemaError, match="p_min"):
        GridModel(buses=(1, 2), slack=1,
                  generators=(Generator(bus=1, p_min=2, p_max=1, cost=1),),
                  loads=(), lines=(Line(from_bus=1, to_bus=2, susceptance=1, limit=1),))


def test_disconnected_grid_rejected():
    with pytest.raises(SchemaError, match="disconnected"):
        GridModel(buses=(1, 2, 3), slack=1,
                  generators=(Generator(bus=1, p_min=0, p_max=1, cost=1),),
                  loads=(), lines=(Line(from_bus=1, to_bus=2, susceptance=1, limit=1),))


def test_invalid_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n "buses": [1,]\n}\n')
    with pytest.raises(SchemaError, match="line"):
        load_grid(p)


@pytest.mark.parametrize("section,key,text", [("generators", "p_max", "NaN"),
                                              ("lines", "susceptance", "Infinity"),
                                              ("generators", "cost", "-Infinity")])
def test_nonfinite_number_rejected(tmp_path, section, key, text):
    # Python's json parses these literals; the grid loader must not take them
    doc = json.loads((resources.files("wcopf.grid") / "cases/case9.json").read_text())
    doc[section][0][key] = "PLACEHOLDER"
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc).replace('"PLACEHOLDER"', text))
    with pytest.raises(SchemaError, match=rf"{section}\[0\]\.{key}: expected a finite"):
        load_grid(p)


@pytest.mark.parametrize("value", [5, None, "ab", {}])
@pytest.mark.parametrize("section", ["generators", "loads", "lines"])
def test_record_section_that_is_not_a_list_rejected(section, value):
    # an int or null is not iterable, and a string or an object would be
    # walked by character or by key
    doc = json.loads((resources.files("wcopf.grid") / "cases/case3.json").read_text())
    doc[section] = value
    with pytest.raises(SchemaError, match=rf"^grid\.{section}: expected a list$"):
        grid_from_dict(doc)


def test_load_grid_roundtrip(tmp_path):
    g = builtin_grid("case3")
    doc = {
        "buses": list(g.buses), "slack": g.slack,
        "generators": [{"bus": x.bus, "p_min": x.p_min, "p_max": x.p_max, "cost": x.cost}
                       for x in g.generators],
        "loads": [{"bus": x.bus, "nominal": x.nominal} for x in g.loads],
        "lines": [{"from": x.from_bus, "to": x.to_bus, "susceptance": x.susceptance,
                   "limit": x.limit} for x in g.lines],
    }
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    g2 = load_grid(p)
    assert g2 == g


# ---------------------------------------------------------------- ptdf


def test_ptdf_slack_column_zero_and_range():
    for name in ("case3", "case5", "case9"):
        g = builtin_grid(name)
        ptdf = compute_ptdf(g)
        assert np.allclose(ptdf.matrix[:, g.slack_index], 0.0)
        assert ptdf.matrix.min() >= -1.0 - 1e-9
        assert ptdf.matrix.max() <= 1.0 + 1e-9


def test_ptdf_matches_reference_reduction():
    for name in ("case3", "case5", "case9"):
        g = builtin_grid(name)
        lines = [(g.bus_index(ln.from_bus), g.bus_index(ln.to_bus), ln.susceptance)
                 for ln in g.lines]
        ref = ptdf_reference(g.n_bus, lines, g.slack_index)
        assert np.allclose(compute_ptdf(g).matrix, ref, atol=1e-10)


def test_ptdf_equal_ring_splits_two_thirds():
    # equal susceptance ring: injection at bus 2 returns to the slack via
    # the direct line (2/3) and the two-hop path (1/3)
    g = ring3()
    ptdf = compute_ptdf(g)
    col = ptdf.matrix[:, g.bus_index(2)]
    assert abs(col[0]) == pytest.approx(2.0 / 3.0, abs=1e-9)   # line 1-2
    assert abs(col[1]) == pytest.approx(1.0 / 3.0, abs=1e-9)   # line 2-3
    assert abs(col[2]) == pytest.approx(1.0 / 3.0, abs=1e-9)   # line 1-3


def test_ptdf_two_bus_magnitude_one():
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0.0, "p_max": 10.0, "cost": 1.0}],
        "loads": [{"bus": 2, "nominal": 5.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "limit": 10.0}],
    })
    ptdf = compute_ptdf(g)
    assert abs(ptdf.matrix[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_ptdf_linearity_in_injections():
    g = builtin_grid("case5")
    ptdf = compute_ptdf(g)
    rng = np.random.default_rng(2)
    p1 = rng.normal(size=g.n_bus)
    p2 = rng.normal(size=g.n_bus)
    assert np.allclose(ptdf.matrix @ (2.0 * p1 - 3.0 * p2),
                       2.0 * ptdf.matrix @ p1 - 3.0 * ptdf.matrix @ p2, atol=1e-9)


# ---------------------------------------------------------------- dcopf


def test_merit_order_two_generators():
    # two generators at one bus pair, caps 100 each, costs 10 / 20,
    # demand 150 -> cheap unit full, expensive covers the rest
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": 100.0, "cost": 10.0},
            {"bus": 2, "p_min": 0.0, "p_max": 100.0, "cost": 20.0},
        ],
        "loads": [{"bus": 2, "nominal": 150.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 10.0, "limit": 1000.0}],
    })
    sol = solve_dcopf(g, compute_ptdf(g), np.array([150.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.p, [100.0, 50.0], atol=1e-7)
    assert sol.cost == pytest.approx(2000.0, abs=1e-6)


def test_congested_line_forces_local_generation():
    # same pair but the connecting line only moves 40 MW
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": 100.0, "cost": 10.0},
            {"bus": 2, "p_min": 0.0, "p_max": 200.0, "cost": 20.0},
        ],
        "loads": [{"bus": 2, "nominal": 150.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 10.0, "limit": 40.0}],
    })
    sol = solve_dcopf(g, compute_ptdf(g), np.array([150.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.p, [40.0, 110.0], atol=1e-7)
    assert sol.cost == pytest.approx(40.0 * 10.0 + 110.0 * 20.0, abs=1e-6)
    assert abs(sol.line_flows[0]) == pytest.approx(40.0, abs=1e-7)


def test_dcopf_matches_vertex_enumeration_oracle():
    g = ring3(limit12=60.0)
    ptdf = compute_ptdf(g)
    m_gen, m_load = injection_matrices(g)
    rng = np.random.default_rng(5)
    nom = g.nominal_demand()
    for _ in range(25):
        d = (0.6 + 0.4 * rng.uniform(size=g.n_load)) * nom
        sol = solve_dcopf(g, ptdf, d)
        costs = np.array([x.cost for x in g.generators])
        flow_gen = ptdf.matrix @ m_gen
        flow_load = ptdf.matrix @ m_load @ d
        limits = np.array([ln.limit for ln in g.lines])
        status, _, best = lp_vertex_enumeration(
            -costs,
            a_eq=np.ones((1, g.n_gen)), b_eq=np.array([d.sum()]),
            a_ub=np.vstack([flow_gen, -flow_gen]),
            b_ub=np.concatenate([limits + flow_load, limits - flow_load]),
            lo=np.array([x.p_min for x in g.generators]),
            hi=np.array([x.p_max for x in g.generators]))
        if status == "infeasible":
            assert sol.status == LpStatus.INFEASIBLE
        else:
            assert sol.status == LpStatus.OPTIMAL
            assert sol.cost == pytest.approx(-best, abs=1e-6)


def test_dcopf_power_balance_and_limits():
    g = builtin_grid("case5")
    ptdf = compute_ptdf(g)
    rng = np.random.default_rng(9)
    nom = g.nominal_demand()
    limits = np.array([ln.limit for ln in g.lines])
    for _ in range(50):
        d = (0.6 + 0.4 * rng.uniform(size=g.n_load)) * nom
        sol = solve_dcopf(g, ptdf, d)
        assert sol.status == LpStatus.OPTIMAL
        assert abs(sol.p.sum() - d.sum()) <= 1e-5
        assert np.all(np.abs(sol.line_flows) <= limits + 1e-6)


def test_dcopf_infeasible_demand():
    g = ring3()
    sol = solve_dcopf(g, compute_ptdf(g), np.array([300.0, 100.0]))  # above capacity
    assert sol.status == LpStatus.INFEASIBLE


def test_dispatch_whose_recheck_fails_raises(monkeypatch):
    # a dispatch LP reads its x, so a feasibility recheck that fails
    # every time raises whether it solves cold or from a start
    g = builtin_grid("case9")
    ptdf = compute_ptdf(g)
    d = g.nominal_demand()
    start = solve_dcopf(g, ptdf, d).basis
    refactor = simplex._Core._exact
    monkeypatch.setattr(simplex._Core, "_exact",
                        lambda core, x, b: (refactor(core, x, b)[0], np.True_))
    for basis in (None, start):
        with pytest.raises(NumericalBreakdown, match="feasibility recheck"):
            solve_dcopf(g, ptdf, 0.9 * d, start=basis)


def test_singular_network_error():
    # vanishingly small susceptance passes the schema (positive) but the
    # reduced matrix's smallest singular value falls below the singularity
    # threshold
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0.0, "p_max": 1.0, "cost": 1.0}],
        "loads": [{"bus": 2, "nominal": 0.5}],
        "lines": [{"from": 1, "to": 2, "susceptance": 1e-13, "limit": 1.0}],
    })
    with pytest.raises(SingularNetwork):
        compute_ptdf(g)
