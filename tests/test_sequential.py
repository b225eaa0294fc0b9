import numpy as np
import pytest

from oracles import grid_fixture, midband_dataset
from wcopf.errors import NumericalBreakdown
from wcopf.mlp import fisher_diag, loss_mae, params_checksum
from wcopf.train import (STOP_MAX_ITERS, STOP_NO_VIOLATION,
                         STOP_SOLVER_FAILURE, STOP_VALIDATION_GUARD,
                         TrainConfig, finetune_sequential, sequential,
                         train_standard)
from wcopf.verifier import solve_worst_case, worst_case_gradient

_CACHE = {}


def _case3():
    if "fix" not in _CACHE:
        _CACHE["fix"] = grid_fixture("case3")
    return _CACHE["fix"]


def _trained(seed, epochs=400):
    key = ("net", seed, epochs)
    if key not in _CACHE:
        data, _, _ = _case3()
        params, report = train_standard(
            data, (8,), TrainConfig(alpha=3e-3, epochs=epochs, seed=seed))
        _CACHE[key] = (params, report)
    return _CACHE[key]


def _proximal_reference(params, grads, fisher, config):
    # closed-form minimizer of  ||q-p||^2/(2a) + lw g.q + le F (q-anchor)^2
    out = []
    a, lw, le = config.alpha, config.lambda_wc, config.lambda_ewc
    first = params.n_layers - 1 if config.last_layer_only else 0
    for k in range(params.n_layers):
        for theta, g, f, anc in ((params.weights[k], grads.weights[k],
                                  fisher.weights[k], fisher.anchor.weights[k]),
                                 (params.biases[k], grads.biases[k],
                                  fisher.biases[k], fisher.anchor.biases[k])):
            if k < first:
                out.append(theta.copy())
            else:
                out.append((theta - a * lw * g + 2 * a * le * f * anc)
                           / (1 + 2 * a * le * f))
    return out


def _flat(params):
    arrs = []
    for w, b in zip(params.weights, params.biases):
        arrs.extend([w, b])
    return arrs


@pytest.mark.parametrize("lam_e,llo", [(0.0, True), (10.0, True), (10.0, False)])
def test_first_update_matches_closed_form(lam_e, llo):
    data, gen_box, box = _case3()
    params, _ = _trained(0)
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, lambda_ewc=lam_e,
                         max_iters=1, seed=0, last_layer_only=llo)
    cert = solve_worst_case(params, box, gen_box)
    grads = worst_case_gradient(params, cert, llo)
    xs, ys = data.scaled("train")
    fisher = fisher_diag(params, xs, ys)
    expected = _proximal_reference(params, grads, fisher, config)
    tuned, report = finetune_sequential(params, data, gen_box, config, box=box)
    for got, want in zip(_flat(tuned), expected):
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert len(report.records) == 1


def test_plain_step_means_gradient_descent():
    # lambda_ewc = 0 reduces the update to theta - alpha lambda_wc g
    data, gen_box, box = _case3()
    params, _ = _trained(1)
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, lambda_ewc=0.0,
                         max_iters=1, seed=1)
    cert = solve_worst_case(params, box, gen_box)
    grads = worst_case_gradient(params, cert, True)
    tuned, _ = finetune_sequential(params, data, gen_box, config, box=box)
    want_w = params.weights[-1] - 7e-4 * grads.weights[-1]
    want_b = params.biases[-1] - 7e-4 * grads.biases[-1]
    assert np.allclose(tuned.weights[-1], want_w, rtol=0.0, atol=1e-15)
    assert np.allclose(tuned.biases[-1], want_b, rtol=0.0, atol=1e-15)
    # untouched layer is copied verbatim
    assert np.array_equal(tuned.weights[0], params.weights[0])
    assert np.array_equal(tuned.biases[0], params.biases[0])


def test_huge_anchor_freezes_parameters():
    # with an overwhelming anchor weight the update cannot move anything,
    # no matter how many iterations run; the same run without the anchor
    # moves the violation by orders of magnitude more
    data, gen_box, box = _case3()
    params, _ = _trained(0)
    v0 = solve_worst_case(params, box, gen_box).value
    assert v0 > 0.0
    config = TrainConfig(alpha=1e-3, lambda_wc=0.1, lambda_ewc=1e9,
                         max_iters=5, seed=0)
    tuned, report = finetune_sequential(params, data, gen_box, config, box=box)
    moved = max(float(np.max(np.abs(a - b)))
                for a, b in zip(_flat(tuned), _flat(params)))
    assert moved <= 1e-5
    assert abs(report.final_v_g - v0) <= 1e-5
    free, free_report = finetune_sequential(
        params, data, gen_box, config.replaced(lambda_ewc=0.0), box=box)
    assert abs(free_report.final_v_g - v0) >= 1e-4


def test_stops_immediately_without_violation():
    data = midband_dataset()
    params, _ = train_standard(data, (8,),
                               TrainConfig(alpha=3e-3, epochs=800, seed=0))
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, max_iters=25, seed=0)
    tuned, report = finetune_sequential(params, data, None, config)
    assert report.stopped == STOP_NO_VIOLATION
    assert len(report.records) == 1
    assert report.final_v_g == 0.0
    assert params_checksum(tuned) == params_checksum(params)


def test_validation_guard_discards_the_update():
    data, gen_box, box = _case3()
    params, _ = _trained(2)
    v0 = solve_worst_case(params, box, gen_box).value
    # a huge step wrecks validation MAE; with zero tolerance the guard
    # fires on the first candidate and the returned net is untouched
    config = TrainConfig(alpha=0.5, lambda_wc=1.0, early_stop_rel=0.0,
                         max_iters=10, seed=2)
    tuned, report = finetune_sequential(params, data, gen_box, config, box=box)
    assert report.stopped == STOP_VALIDATION_GUARD
    assert len(report.records) == 1
    assert params_checksum(tuned) == params_checksum(params)
    assert report.final_v_g == v0


def test_reduces_violation_within_budget():
    data, gen_box, box = _case3()
    params, base_report = _trained(0, epochs=200)
    v0 = solve_worst_case(params, box, gen_box).value
    assert v0 > 0.0
    mae0 = base_report.final_val_mae
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, max_iters=25, seed=0)
    tuned, report = finetune_sequential(params, data, gen_box, config, box=box)
    assert report.final_v_g <= 0.8 * v0
    assert report.final_val_mae <= mae0 * 1.10 + 1e-12
    assert len(report.records) <= 25
    assert report.stopped in (STOP_VALIDATION_GUARD, STOP_MAX_ITERS)
    _CACHE["reduction_run"] = (tuned, report, v0)


def test_report_shape_and_reproducibility():
    if "reduction_run" not in _CACHE:
        test_reduces_violation_within_budget()
    tuned, report, _ = _CACHE["reduction_run"]
    data, gen_box, box = _case3()
    assert report.mode == "finetune"
    assert [r.epoch for r in report.records] == list(range(len(report.records)))
    assert all(r.v_g is not None for r in report.records)
    assert report.records[0].v_g == solve_worst_case(
        _trained(0, epochs=200)[0], box, gen_box).value
    # the reported final violation reproduces from the returned params
    assert solve_worst_case(tuned, box, gen_box).value == report.final_v_g
    assert report.params_sha256 == params_checksum(tuned)


def test_solver_breakdown_stops_and_keeps_parameters(monkeypatch):
    data, gen_box, box = _case3()
    params, _ = _trained(0, epochs=200)
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, max_iters=5, seed=0)
    one_step, _ = finetune_sequential(params, data, gen_box,
                                      config.replaced(max_iters=1), box=box)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalBreakdown("solution fails feasibility recheck")
        return solve_worst_case(*args, **kwargs)

    monkeypatch.setattr(sequential, "solve_worst_case", flaky)
    tuned, report = finetune_sequential(params, data, gen_box, config, box=box)
    assert report.stopped == STOP_SOLVER_FAILURE
    assert len(report.records) == 2
    assert report.records[0].v_g is not None
    assert report.records[1].v_g is None
    assert "feasibility recheck" in report.records[1].warning
    # the parameters after the one accepted update are kept
    assert params_checksum(tuned) == params_checksum(one_step)
    assert report.params_sha256 == params_checksum(tuned)
    assert report.final_v_g is None and report.final_v_g_raw is None
    assert len(calls) == 2


def test_full_parameter_mode_touches_hidden_layers():
    data, gen_box, box = _case3()
    params, _ = _trained(3)
    config = TrainConfig(alpha=7e-4, lambda_wc=1.0, lambda_ewc=0.0,
                         max_iters=1, seed=3, last_layer_only=False)
    tuned, _ = finetune_sequential(params, data, gen_box, config, box=box)
    assert not np.array_equal(tuned.weights[0], params.weights[0])
