import numpy as np
import pytest

from oracles import bounds_around_outputs, seeded_net
from wcopf.mlp import MlpParams, forward
from wcopf.verifier import (Box, margin_param_gradient, solve_worst_case,
                            worst_case_gradient)


def _frozen_margin(params, witness, pattern, constraint_id, gen):
    """Margin at a fixed input with the ReLU pattern pinned."""
    z = np.asarray(witness, dtype=float)
    for k in range(params.n_hidden_layers):
        s = params.weights[k] @ z + params.biases[k]
        z = np.where(pattern[k], s, 0.0)
    out = params.weights[-1] @ z + params.biases[-1]
    g, side = constraint_id
    if side == "upper":
        return float(out[g] - gen.hi[g])
    return float(gen.lo[g] - out[g])


def _perturbed(params, direction, h):
    weights = []
    biases = []
    at = 0
    for w in params.weights:
        weights.append(w + h * direction[at:at + w.size].reshape(w.shape))
        at += w.size
    for b in params.biases:
        biases.append(b + h * direction[at:at + b.size].reshape(b.shape))
        at += b.size
    return MlpParams(params.layer_dims, weights, biases)


def test_zero_gradient_without_violation():
    params = seeded_net(0, (2, 4, 2))
    box = Box([-1.0, -1.0], [1.0, 1.0])
    gen = bounds_around_outputs(params, box, seed=0, frac_hi=2.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.value == 0.0
    grads = worst_case_gradient(params, cert)
    assert all(np.all(w == 0.0) for w in grads.weights)
    assert all(np.all(b == 0.0) for b in grads.biases)


@pytest.mark.parametrize("seed,dims", [(0, (2, 4, 2)), (1, (2, 5, 3)),
                                       (2, (3, 4, 4, 2)), (5, (1, 6, 1))])
def test_gradient_matches_frozen_margin_fd(seed, dims):
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.value > 0.0
    grads = worst_case_gradient(params, cert)
    flat = grads.vec
    rng = np.random.default_rng((seed, 13))
    h = 1e-6
    for _ in range(3):
        direction = rng.standard_normal(flat.size)
        direction /= np.linalg.norm(direction)
        up = _frozen_margin(_perturbed(params, direction, h), cert.witness,
                            cert.pattern, cert.constraint_id, gen)
        dn = _frozen_margin(_perturbed(params, direction, -h), cert.witness,
                            cert.pattern, cert.constraint_id, gen)
        fd = (up - dn) / (2.0 * h)
        assert fd == pytest.approx(float(flat @ direction), rel=1e-5, abs=1e-8)


def test_gradient_tracks_reverified_value():
    # envelope property: re-solving at perturbed weights moves the value
    # by the gradient's prediction when the maximizer is stable
    seed, dims = 1, (2, 5, 3)
    params = seeded_net(seed, dims)
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.value > 1e-3
    trace_margins = [np.min(np.abs(s))
                     for s in forward(params, cert.witness).preactivations]
    assert min(trace_margins) > 1e-4   # pattern locally stable at the witness
    flat = worst_case_gradient(params, cert).vec
    rng = np.random.default_rng((seed, 17))
    direction = rng.standard_normal(flat.size)
    direction /= np.linalg.norm(direction)
    h = 1e-5
    v_up = solve_worst_case(_perturbed(params, direction, h), box, gen).value
    v_dn = solve_worst_case(_perturbed(params, direction, -h), box, gen).value
    fd = (v_up - v_dn) / (2.0 * h)
    assert fd == pytest.approx(float(flat @ direction), rel=1e-4, abs=1e-6)


def test_last_layer_only_masks_earlier_layers():
    params = seeded_net(2, (2, 4, 2))
    box = Box([-1.0, -1.0], [1.0, 1.0])
    gen = bounds_around_outputs(params, box, seed=2, frac_hi=0.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.value > 0.0
    full = worst_case_gradient(params, cert)
    last = worst_case_gradient(params, cert, last_layer_only=True)
    for k in range(params.n_layers - 1):
        assert np.all(last.weights[k] == 0.0)
        assert np.all(last.biases[k] == 0.0)
    assert np.array_equal(last.weights[-1], full.weights[-1])
    assert np.array_equal(last.biases[-1], full.biases[-1])
    # the earlier layers do carry signal in the full gradient
    assert any(np.any(full.weights[k] != 0.0) for k in range(params.n_layers - 1))


def test_gradient_direction_reduces_violation():
    # one explicit descent step on the margin shrinks the worst case
    seed, dims = 0, (2, 4, 2)
    params = seeded_net(seed, dims)
    box = Box(-np.ones(2), np.ones(2))
    gen = bounds_around_outputs(params, box, seed=seed, frac_hi=0.5)
    cert = solve_worst_case(params, box, gen)
    assert cert.value > 0.0
    flat = worst_case_gradient(params, cert).vec
    step = 1e-3 / np.linalg.norm(flat)
    moved = solve_worst_case(_perturbed(params, flat, -step), box, gen)
    assert moved.value < cert.value


def test_margin_param_gradient_signs():
    params = seeded_net(4, (1, 3, 1))
    witness = np.array([0.4])
    up = margin_param_gradient(params, witness, (0, "upper"))
    dn = margin_param_gradient(params, witness, (0, "lower"))
    assert np.allclose(up.vec, -dn.vec)
