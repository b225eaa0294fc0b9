import numpy as np
import pytest

import wcopf.train.sensitivity as sensitivity_module
from oracles import grid_fixture, midband_dataset, toy_dataset, unit_box
from wcopf.errors import NumericalBreakdown
from wcopf.train import TrainConfig, layer_sensitivity

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


def test_deterministic_across_runs():
    data, gen_box, _ = grid_fixture("case3")
    a = layer_sensitivity((6,), data, gen_box, seeds=range(2), config=_CFG)
    b = layer_sensitivity((6,), data, gen_box, seeds=range(2), config=_CFG)
    assert a.to_dict() == b.to_dict()


def test_solver_breakdown_skips_only_its_seed(monkeypatch):
    data, gen_box, _ = grid_fixture("case3")
    ref = layer_sensitivity((6,), data, gen_box, seeds=[0, 2], config=_CFG)
    assert "skipped" not in ref.to_dict()

    real = sensitivity_module.solve_worst_case
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalBreakdown("simplex iteration cap 10 exceeded")
        return real(*args, **kwargs)

    monkeypatch.setattr(sensitivity_module, "solve_worst_case", flaky)
    report = layer_sensitivity((6,), data, gen_box, seeds=range(3), config=_CFG)
    assert len(calls) == 3
    assert report.layer_values == ref.layer_values
    assert report.n_seeds == ref.n_seeds == 2
    assert report.to_dict()["skipped"] == [
        {"seed": 1,
         "warning": "verification failed (simplex iteration cap 10 exceeded)"}]


def test_error_names_solver_failures_when_every_seed_breaks_down(monkeypatch):
    data, gen_box, _ = grid_fixture("case3")

    def broken(*args, **kwargs):
        raise NumericalBreakdown("simplex iteration cap 10 exceeded")

    monkeypatch.setattr(sensitivity_module, "solve_worst_case", broken)
    with pytest.raises(ValueError, match="2 of 2 seeds failed verification"):
        layer_sensitivity((4,), data, gen_box, seeds=range(2),
                          config=TrainConfig(epochs=20))
