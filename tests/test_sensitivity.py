import numpy as np
import pytest

from oracles import NodeLpBreaker, grid_fixture, midband_dataset, toy_dataset, unit_box
from wcopf.train import TrainConfig, layer_sensitivity
from wcopf.verifier import milp

_CFG = TrainConfig(alpha=3e-3, epochs=400)


def test_two_hidden_layer_profile():
    data, gen_box, _ = grid_fixture("case3")
    report = layer_sensitivity((8, 8), data, gen_box, seeds=range(5),
                               config=_CFG)
    values = np.asarray(report.layer_values)
    assert values.shape == (3,)
    assert values[-1] == 1.0
    assert np.all(values > 0.0)
    assert np.all(np.isfinite(values))
    assert report.n_seeds == 5
    assert tuple(report.layer_dims) == (2, 8, 8, 2)


def test_single_linear_layer_normalizes_to_one():
    # targets scaled far outside the unit bounds guarantee violations
    data = toy_dataset(5, response=2.5 * np.eye(2))
    report = layer_sensitivity((), data, unit_box(2), seeds=range(3),
                               config=TrainConfig(alpha=3e-3, epochs=600),
                               box=unit_box(2))
    assert report.layer_values == [1.0]
    assert report.n_seeds == 3


def test_nonviolating_seeds_are_skipped():
    # at this training length seeds 1 and 4 end certified violation free
    data, gen_box, _ = grid_fixture("case3")
    report = layer_sensitivity((8,), data, gen_box, seeds=range(5),
                               config=TrainConfig(alpha=3e-3, epochs=1500))
    assert report.n_seeds == 3


def test_errors_when_no_seed_violates():
    data = midband_dataset()
    with pytest.raises(ValueError, match="no seed produced a violating network"):
        layer_sensitivity((8,), data, unit_box(2), seeds=range(3),
                          config=TrainConfig(alpha=3e-3, epochs=800), box=unit_box(2))


def test_error_does_not_claim_no_violation_after_a_gap(monkeypatch):
    # with every node LP broken, seed 0's certificate is v_g 0 with a gap
    # left: skipped, with nothing to differentiate, but not shown violation free
    data, gen_box, _ = grid_fixture("case3")
    monkeypatch.setattr(milp, "solve_lp", NodeLpBreaker(lambda n: True))
    with pytest.raises(ValueError) as info:
        layer_sensitivity((8,), data, gen_box, seeds=[0],
                          config=TrainConfig(alpha=3e-3, epochs=200))
    assert "no seed produced a violating network" not in str(info.value)
    assert "but 1 left a gap" in str(info.value)


def test_deterministic_across_runs():
    data, gen_box, _ = grid_fixture("case3")
    a = layer_sensitivity((6,), data, gen_box, seeds=range(2), config=_CFG)
    b = layer_sensitivity((6,), data, gen_box, seeds=range(2), config=_CFG)
    assert a.to_dict() == b.to_dict()


def test_solver_breakdown_keeps_its_seed(monkeypatch):
    data, gen_box, _ = grid_fixture("case3")
    # seed 0's verification solves four node LPs, so the fifth is seed 1's
    # first; it breaks down and is set aside, and seed 1 still violates
    breaker = NodeLpBreaker(lambda n: n == 5)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    report = layer_sensitivity((6,), data, gen_box, seeds=range(3), config=_CFG)
    assert breaker.raised == 1
    assert report.n_seeds == 3
    assert sorted(report.to_dict()) == ["layer_dims", "layer_values", "n_seeds"]


def test_every_node_lp_breaking_down_keeps_each_violating_seed(monkeypatch):
    # with every node LP set aside, a seed's certificate is its box
    # midpoint's margin: 0 for seed 0 and positive for seed 1
    data, gen_box, _ = grid_fixture("case3")
    breaker = NodeLpBreaker(lambda n: True)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    report = layer_sensitivity((4,), data, gen_box, seeds=range(2),
                               config=TrainConfig(epochs=20))
    assert breaker.raised == breaker.calls > 0
    assert report.n_seeds == 1
    assert report.layer_values[-1] == 1.0 and np.all(np.isfinite(report.layer_values))
