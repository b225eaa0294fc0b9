"""End-to-end checks of the package's headline behaviors.

Covered here, each against an independent oracle or a frozen budget:
the branch-and-bound verifier agrees exactly with brute-force pattern
enumeration, every analytic gradient matches finite differences, the
dispatch solver matches analytic and vertex-enumeration oracles,
worst-case-aware training and sequential fine-tuning actually cut the
certified violation without wrecking prediction error, the last layer
carries the largest pooled worst-case gradient, CLI runs are
byte-deterministic, and the demand sampler stratifies every dimension.
"""

import time
from statistics import median

import numpy as np
import pytest

from oracles import (bounds_around_outputs, brute_force_worst_case, in_box,
                     lp_vertex_enumeration, seeded_net)
from wcopf import cli
from wcopf.grid import (builtin_grid, compute_ptdf, generate_dataset,
                        grid_from_dict, injection_matrices,
                        sample_demands_lhs, solve_dcopf)
from wcopf.mlp import LossSpec, forward, gradient, total_loss
from wcopf.simplex import LpStatus
from wcopf.train import (TrainConfig, finetune_sequential, layer_sensitivity,
                         scaled_boxes, train_standard, train_wcnn)
from wcopf.verifier import (Box, margin_of_output, solve_worst_case,
                            worst_case_gradient)

_DATASETS = {}


def _case_fixture(case):
    """200-sample dataset for a builtin grid plus its scaled boxes."""
    if case not in _DATASETS:
        data = generate_dataset(builtin_grid(case), 200, seed=0)
        box, gen_box = scaled_boxes(data.grid)
        _DATASETS[case] = (data, gen_box, box)
    return _DATASETS[case]


def _pack(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def _unpack(template, vec):
    q = template.copy()
    i = 0
    for w in q.weights:
        w[:] = vec[i:i + w.size].reshape(w.shape)
        i += w.size
    for b in q.biases:
        b[:] = vec[i:i + b.size].reshape(b.shape)
        i += b.size
    return q


# ---------------------------------------------------- exact verification


_NETS = [
    # (seed, dims, frac_hi, frac_lo): bounds sit a fraction into the
    # observed output range, so most nets violate and a few do not
    (0, (1, 3, 2), 0.5, -10.0),
    (1, (2, 4, 2), 0.6, -10.0),
    (2, (2, 5, 3), 0.7, -10.0),
    (3, (3, 4, 4, 2), 0.6, -10.0),
    (4, (2, 3, 3, 1), 0.5, -10.0),
    (5, (2, 6, 2), 0.4, 0.2),
    (6, (3, 5, 3), 1.6, -10.0),
    (7, (2, 4, 3, 3), 0.8, 0.1),
    (8, (1, 6, 1), 0.3, -10.0),
    (9, (4, 5, 2), 0.7, -10.0),
    (10, (2, 6, 6, 2), 0.6, -10.0),
    (11, (3, 4, 4, 3), 0.5, 0.1),
    (12, (2, 5, 5, 2), 0.7, -10.0),
    (13, (1, 4, 4, 1), 0.4, -10.0),
    (14, (4, 6, 4, 2), 0.6, -10.0),
    (15, (2, 2, 2, 2), 0.5, -10.0),
    (16, (3, 6, 3), 0.8, 0.2),
    (17, (2, 6, 5, 3), 0.5, -10.0),
    (18, (5, 6, 2), 0.6, -10.0),
    (19, (3, 3, 6, 2), 1.2, -10.0),
]


def test_verifier_matches_enumeration_on_twenty_nets():
    """Branch and bound equals brute-force enumeration on 20 nets.

    Certified values agree within 1e-6, every returned witness
    reproduces its violation through a plain forward pass, and the
    whole sweep stays under a minute.
    """
    t0 = time.monotonic()
    violated = 0
    for seed, dims, frac_hi, frac_lo in _NETS:
        params = seeded_net(seed, dims)
        box = Box(-np.ones(dims[0]), np.ones(dims[0]))
        gen = bounds_around_outputs(params, box, seed=seed,
                                    frac_hi=frac_hi, frac_lo=frac_lo)
        cert = solve_worst_case(params, box, gen)
        raw, wit, cid = brute_force_worst_case(params, box, gen)
        assert abs(cert.value - max(raw, 0.0)) <= 1e-6, (seed, dims)
        if cert.value > 0.0:
            violated += 1
            out = forward(params, cert.witness).output
            replayed = margin_of_output(out, gen, cert.constraint_id)
            assert abs(replayed - cert.value) <= 1e-6, (seed, dims)
            assert in_box(box, cert.witness, tol=1e-9)
            replayed_bf = margin_of_output(forward(params, wit).output, gen, cid)
            assert abs(replayed_bf - raw) <= 1e-6, (seed, dims)
    assert violated >= 10
    assert time.monotonic() - t0 <= 60.0


# ------------------------------------------------- gradient correctness


def _grad_case(kind, seed):
    """(params, x, y, spec) for one loss term with a nonzero gradient."""
    rng = np.random.default_rng((seed, 41))
    params = seeded_net(seed, (2, 4, 3))
    x = rng.uniform(size=(6, 2))
    y = rng.uniform(size=(6, 3))
    if kind == "error":
        return params, x, y, LossSpec(mae_weight=1.0)
    return params, x, y, LossSpec(mae_weight=0.0, gen_weight=1.0,
                                  gen_lo=np.full(3, -0.05),
                                  gen_hi=np.full(3, 0.05))


@pytest.mark.parametrize("kind", ["error", "bound_penalty"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_gradients_match_central_differences(kind, seed):
    params, x, y, spec = _grad_case(kind, seed)
    flat_g = gradient(params, x, y, spec).vec
    theta = _pack(params)
    h = 1e-6
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        fd[i] = (total_loss(_unpack(params, tp), x, y, spec)
                 - total_loss(_unpack(params, tm), x, y, spec)) / (2 * h)
    mask = np.abs(flat_g) > 1e-8
    assert mask.any()
    rel = np.abs(flat_g[mask] - fd[mask]) / np.maximum(np.abs(fd[mask]), 1e-10)
    assert rel.max() <= 1e-5, f"{kind} seed {seed}: max rel err {rel.max():.3e}"


def _same_pattern(a, b):
    return len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


def _kink_distance(params, x):
    """Smallest |preactivation| at x; zero means x sits on a ReLU kink."""
    tr = forward(params, x)
    if not tr.preactivations:
        return np.inf
    return min(float(np.min(np.abs(z))) for z in tr.preactivations)


def test_envelope_gradient_matches_directional_differences():
    """Fixed-pattern gradients predict how the certified value moves.

    On nets whose worst case is robust (witness off every ReLU kink,
    same pattern and constraint under the perturbation), the central
    difference of the solved worst-case value along a random parameter
    direction matches the inner product with the envelope gradient.
    """
    archs = [(2, 4, 2), (2, 5, 3), (3, 4, 4, 2), (2, 6, 2), (3, 5, 2)]
    h = 1e-5
    accepted = 0
    for seed in range(60):
        dims = archs[seed % len(archs)]
        params = seeded_net(seed, dims)
        box = Box(-np.ones(dims[0]), np.ones(dims[0]))
        gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
        cert = solve_worst_case(params, box, gen)
        if cert.value <= 1e-2 or _kink_distance(params, cert.witness) <= 1e-4:
            continue
        rng = np.random.default_rng((seed, 31))
        theta = _pack(params)
        direction = rng.standard_normal(theta.size)
        direction /= np.linalg.norm(direction)
        up = solve_worst_case(_unpack(params, theta + h * direction), box, gen)
        dn = solve_worst_case(_unpack(params, theta - h * direction), box, gen)
        stable = (up.constraint_id == cert.constraint_id == dn.constraint_id
                  and _same_pattern(up.pattern, cert.pattern)
                  and _same_pattern(dn.pattern, cert.pattern)
                  and np.max(np.abs(up.witness - cert.witness)) < 1e-3
                  and np.max(np.abs(dn.witness - cert.witness)) < 1e-3)
        if not stable:
            continue
        fd = (up.value - dn.value) / (2 * h)
        along = float(worst_case_gradient(params, cert).vec @ direction)
        rel = abs(fd - along) / max(abs(fd), 1e-10)
        assert rel <= 1e-4, f"seed {seed} {dims}: rel err {rel:.3e}"
        accepted += 1
        if accepted >= 12:
            break
    assert accepted >= 10


# ------------------------------------------------------ dispatch oracle


def _ring3(limit12):
    """Three-bus ring: cheap generator at bus 1, expensive at bus 3."""
    return grid_from_dict({
        "buses": [1, 2, 3], "slack": 1,
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": 120.0, "cost": 10.0},
            {"bus": 3, "p_min": 0.0, "p_max": 100.0, "cost": 30.0},
        ],
        "loads": [{"bus": 2, "nominal": 90.0}, {"bus": 3, "nominal": 60.0}],
        "lines": [
            {"from": 1, "to": 2, "susceptance": 10.0, "limit": limit12},
            {"from": 2, "to": 3, "susceptance": 10.0, "limit": 120.0},
            {"from": 1, "to": 3, "susceptance": 10.0, "limit": 120.0},
        ],
    })


def _chain5(limit23):
    """Five-bus chain; the 2-3 line separates cheap from captive load."""
    return grid_from_dict({
        "buses": [1, 2, 3, 4, 5], "slack": 1,
        "generators": [
            {"bus": 1, "p_min": 0.0, "p_max": 200.0, "cost": 5.0},
            {"bus": 2, "p_min": 0.0, "p_max": 100.0, "cost": 12.0},
            {"bus": 4, "p_min": 0.0, "p_max": 150.0, "cost": 25.0},
        ],
        "loads": [{"bus": 3, "nominal": 120.0}, {"bus": 5, "nominal": 80.0}],
        "lines": [
            {"from": 1, "to": 2, "susceptance": 12.0, "limit": 250.0},
            {"from": 2, "to": 3, "susceptance": 8.0, "limit": limit23},
            {"from": 3, "to": 4, "susceptance": 10.0, "limit": 200.0},
            {"from": 4, "to": 5, "susceptance": 9.0, "limit": 120.0},
        ],
    })


def _vertex_cost(grid, d):
    """Optimal cost by enumerating basic points of the dispatch polytope."""
    ptdf = compute_ptdf(grid)
    m_gen, m_load = injection_matrices(grid)
    costs = np.array([g.cost for g in grid.generators])
    flow_gen = ptdf.matrix @ m_gen
    flow_load = ptdf.matrix @ m_load @ d
    limits = np.array([ln.limit for ln in grid.lines])
    status, _, best = lp_vertex_enumeration(
        -costs,
        a_eq=np.ones((1, grid.n_gen)), b_eq=np.array([d.sum()]),
        a_ub=np.vstack([flow_gen, -flow_gen]),
        b_ub=np.concatenate([limits + flow_load, limits - flow_load]),
        lo=np.array([g.p_min for g in grid.generators]),
        hi=np.array([g.p_max for g in grid.generators]))
    assert status == "optimal"
    return -best


_DISPATCH_FIXTURES = [
    # (grid, demand, dispatch, cost, index of the line that binds or None)
    (_ring3(200.0), [90.0, 60.0], [120.0, 30.0], 2100.0, None),
    (_ring3(60.0), [90.0, 60.0], [90.0, 60.0], 2700.0, 0),
    (_chain5(250.0), [120.0, 80.0], [200.0, 0.0, 0.0], 1000.0, None),
    (_chain5(90.0), [120.0, 80.0], [90.0, 0.0, 110.0], 3200.0, 1),
]


@pytest.mark.parametrize("grid,d,p_star,cost_star,binding",
                         _DISPATCH_FIXTURES)
def test_dispatch_matches_analytic_and_vertex_oracles(grid, d, p_star,
                                                      cost_star, binding):
    d = np.asarray(d)
    sol = solve_dcopf(grid, compute_ptdf(grid), d)
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(sol.p, p_star, atol=1e-6)
    assert abs(sol.cost - cost_star) <= 1e-6
    assert abs(sol.cost - _vertex_cost(grid, d)) <= 1e-6
    if binding is not None:
        limit = grid.lines[binding].limit
        assert abs(abs(sol.line_flows[binding]) - limit) <= 1e-6


def test_power_balance_on_thousand_lhs_samples():
    grid = builtin_grid("case5")
    ptdf = compute_ptdf(grid)
    demands = sample_demands_lhs(grid, 1000, seed=0)
    worst = 0.0
    for d in demands:
        sol = solve_dcopf(grid, ptdf, d)
        assert sol.status == LpStatus.OPTIMAL
        worst = max(worst, abs(sol.p.sum() - d.sum()))
    assert worst <= 1e-5


# ------------------------------------------------ training reductions


@pytest.mark.parametrize("case", ["case3", "case9"])
def test_worst_case_training_cuts_violation(case):
    """Verification-in-the-loop training pays off on seeded fixtures.

    Against a plain regression net with the same initialization, the
    median certified violation over five seeds drops to at most 80%,
    while the median test MAE gives up no more than half a point on the
    scaled outputs.
    """
    t0 = time.monotonic()
    data, gen_box, box = _case_fixture(case)
    v_nn, v_wc, mae_nn, mae_wc = [], [], [], []
    for s in range(5):
        cfg = TrainConfig(alpha=3e-3, epochs=400, warmup=50, wc_every=2,
                          lambda_wc=0.1, seed=s)
        p_nn, r_nn = train_standard(data, (8,), cfg)
        p_wc, r_wc = train_wcnn(data, gen_box, (8,), cfg, box=box)
        v_nn.append(solve_worst_case(p_nn, box, gen_box).value)
        v_wc.append(r_wc.final_v_g)
        mae_nn.append(r_nn.final_test_mae)
        mae_wc.append(r_wc.final_test_mae)
    assert median(v_nn) > 0.0
    assert median(v_wc) <= 0.8 * median(v_nn)
    assert median(mae_wc) - median(mae_nn) <= 0.005
    assert time.monotonic() - t0 <= 900.0


def test_finetuning_cuts_violation_without_mae_blowup():
    """Anchored fine-tuning from converged nets: 20% off the violation.

    For five seeds the base net is trained long enough to converge yet
    still violate; at most 25 anchored updates then cut the certified
    violation by at least 20% (median) while validation MAE never rises
    more than 10% above its starting value.
    """
    data, gen_box, box = _case_fixture("case3")
    cuts, rises = [], []
    for s in range(5):
        base_cfg = TrainConfig(alpha=3e-3, epochs=200, seed=s)
        p0, r0 = train_standard(data, (8,), base_cfg)
        ft_cfg = TrainConfig(alpha=7e-4, lambda_wc=1.0, max_iters=25, seed=s)
        _, rt = finetune_sequential(p0, data, gen_box, ft_cfg, box=box)
        v0 = rt.records[0].v_g
        assert v0 > 0.0, f"seed {s}: base net does not violate"
        assert len(rt.records) <= 25
        cuts.append(1.0 - rt.final_v_g / v0)
        rises.append(rt.final_val_mae / r0.final_val_mae - 1.0)
    assert median(cuts) >= 0.20
    assert max(rises) <= 0.10 + 1e-9


def test_last_layer_has_strictly_largest_sensitivity():
    data, gen_box, box = _case_fixture("case3")
    report = layer_sensitivity((8, 8), data, gen_box, seeds=range(5),
                               config=TrainConfig(alpha=3e-3, epochs=400),
                               box=box)
    values = np.asarray(report.layer_values)
    assert values.shape == (3,)
    assert values[-1] == 1.0
    assert np.all(values[:-1] < 1.0)
    assert report.n_seeds == 5


# ------------------------------------------------------- reproducibility


def test_cli_pipeline_is_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 25, "alpha": 0.003, "warmup": 5}')
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    cert = tmp_path / "cert.json"

    def run():
        assert cli.main(["gen-data", "--grid", "case3", "--n", "60",
                         "--seed", "1", "--out", str(data)]) == 0
        assert cli.main(["train", "--dataset", str(data), "--grid", "case3",
                         "--mode", "wcnn", "--arch", "8", "--seed", "1",
                         "--config", str(cfg), "--out", str(model)]) == 0
        assert cli.main(["verify", "--model", str(model), "--grid", "case3",
                         "--out", str(cert)]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                if p != cfg}

    first = run()
    second = run()
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def test_lhs_places_exactly_one_sample_per_stratum():
    grid = builtin_grid("case5")
    nominal = grid.nominal_demand()
    for n in (1, 7, 100):
        demands = sample_demands_lhs(grid, n, seed=3)
        assert demands.shape == (n, grid.n_load)
        strata = np.floor((demands - 0.6 * nominal) / (0.4 * nominal) * n)
        for j in range(grid.n_load):
            assert sorted(strata[:, j].astype(int).tolist()) == list(range(n))
