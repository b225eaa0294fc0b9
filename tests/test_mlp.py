import json

import numpy as np
import pytest

from oracles import adam_per_array, naive_forward
from wcopf.errors import SchemaError, ShapeMismatch, TrainingDiverged
from wcopf.grid.dataset import Scaler
from wcopf.mlp import (FisherDiag, Gradients, LossSpec, adam_init, adam_step,
                       backprop_from_output_grad, file_checksum, fisher_diag,
                       forward, forward_batch, gradient, init_params, load_model,
                       loss_gen_penalty, loss_mae, model_json,
                       params_checksum, save_model, total_loss)
from wcopf.mlp.network import MlpParams


def small_net(seed=0, dims=(2, 5, 4, 2)):
    p = init_params(list(dims), seed)
    rng = np.random.default_rng(seed + 1000)
    for b in p.biases:
        b += rng.normal(scale=0.3, size=b.shape)
    return p


# ---------------------------------------------------------------- network


def test_forward_matches_naive_reimplementation():
    for seed in range(8):
        p = small_net(seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=2)
        trace = forward(p, x)
        ref = naive_forward(p.weights, p.biases, x)
        assert np.max(np.abs(trace.output - ref)) <= 1e-12


def test_trace_consistency():
    p = small_net(3)
    trace = forward(p, [0.3, 0.7])
    for pre, act, pat in zip(trace.preactivations, trace.activations, trace.pattern):
        assert np.array_equal(act, np.maximum(pre, 0.0))
        assert np.array_equal(pat, pre > 0.0)


def test_forward_batch_matches_single():
    p = small_net(5)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(7, 2))
    _, _, out = forward_batch(p, x)
    for i in range(7):
        assert np.allclose(out[i], forward(p, x[i]).output, atol=1e-14)


def test_glorot_init_bounds_and_zero_bias():
    dims = [4, 32, 16, 3]
    p = init_params(dims, seed=9)
    for k, w in enumerate(p.weights):
        limit = np.sqrt(6.0 / (dims[k] + dims[k + 1]))
        assert np.all(np.abs(w) <= limit)
        assert np.std(w) > 0.1 * limit
    for b in p.biases:
        assert np.all(b == 0.0)


def test_init_deterministic():
    a = init_params([3, 8, 2], seed=4)
    b = init_params([3, 8, 2], seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        MlpParams(layer_dims=[2, 3], weights=[np.zeros((3, 3))], biases=[np.zeros(3)])
    p = small_net()
    with pytest.raises(ShapeMismatch):
        forward(p, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- losses


def test_mae_frozen_example():
    # one sample, two outputs off by +0.1 and -0.3 -> mean 0.2
    p = MlpParams(layer_dims=[1, 2], weights=[np.array([[0.0], [0.0]])],
                  biases=[np.array([0.1, -0.3])])
    assert loss_mae(p, np.zeros((1, 1)), np.zeros((1, 2))) == pytest.approx(0.2, abs=1e-15)


def test_identical_outputs_zero_mae():
    p = small_net(1)
    x = np.random.default_rng(0).uniform(size=(5, 2))
    y = forward_batch(p, x)[2]
    assert loss_mae(p, x, y) == 0.0


def test_gen_penalty_frozen_examples():
    # single output exceeding the upper bound by 0.2 -> 0.04
    p = MlpParams(layer_dims=[1, 1], weights=[np.zeros((1, 1))],
                  biases=[np.array([0.7])])
    assert loss_gen_penalty(p, np.zeros((1, 1)), np.array([0.0]),
                            np.array([0.5])) == pytest.approx(0.04, abs=1e-15)
    # one output below lo by 0.1 and another above hi by 0.1 -> 0.02
    p2 = MlpParams(layer_dims=[1, 2], weights=[np.zeros((2, 1))],
                   biases=[np.array([-0.1, 0.6])])
    assert loss_gen_penalty(p2, np.zeros((1, 1)), np.array([0.0, 0.0]),
                            np.array([0.5, 0.5])) == pytest.approx(0.02, abs=1e-15)


def test_gen_penalty_zero_inside_bounds():
    p = small_net(2)
    x = np.random.default_rng(2).uniform(size=(4, 2))
    out = forward_batch(p, x)[2]
    lo = out.min(axis=0) - 1.0
    hi = out.max(axis=0) + 1.0
    assert loss_gen_penalty(p, x, lo, hi) == 0.0


# ---------------------------------------------------------------- gradients


def _fd_check(p, x, y, spec, h=1e-6, rel_tol=1e-5):
    g = gradient(p, x, y, spec)
    flat_g = g.vec

    def pack(q):
        return np.concatenate([a.ravel() for a in q.weights + q.biases])

    def unpack(vec):
        q = p.copy()
        i = 0
        for w in q.weights:
            w[:] = vec[i:i + w.size].reshape(w.shape)
            i += w.size
        for b in q.biases:
            b[:] = vec[i:i + b.size].reshape(b.shape)
            i += b.size
        return q

    theta = pack(p)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        fd[i] = (total_loss(unpack(tp), x, y, spec)
                 - total_loss(unpack(tm), x, y, spec)) / (2 * h)
    mask = np.abs(flat_g) > 1e-8
    assert mask.any()
    rel = np.abs(flat_g[mask] - fd[mask]) / np.maximum(np.abs(fd[mask]), 1e-10)
    assert rel.max() <= rel_tol, f"max rel err {rel.max():.3e}"


def test_gradient_mae_finite_difference():
    p = small_net(7, dims=(2, 4, 3))
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(6, 2))
    y = rng.uniform(size=(6, 3))
    _fd_check(p, x, y, LossSpec(mae_weight=1.0))


def test_gradient_gen_penalty_finite_difference():
    p = small_net(8, dims=(2, 4, 3))
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(6, 2))
    y = rng.uniform(size=(6, 3))
    spec = LossSpec(mae_weight=0.0, gen_weight=1.0,
                    gen_lo=np.full(3, -0.05), gen_hi=np.full(3, 0.05))
    _fd_check(p, x, y, spec)


def test_gradient_combined_finite_difference():
    p = small_net(9, dims=(2, 5, 2))
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(8, 2))
    y = rng.uniform(size=(8, 2))
    q = p.copy()
    for w in q.weights:
        w += rng.normal(scale=0.05, size=w.shape)
    spec = LossSpec(mae_weight=1.0, gen_weight=0.5,
                    gen_lo=np.full(2, 0.0), gen_hi=np.full(2, 0.2))
    _fd_check(q, x, y, spec)


def test_gradient_zero_at_exact_fit():
    p = small_net(10)
    x = np.random.default_rng(10).uniform(size=(5, 2))
    y = forward_batch(p, x)[2]
    g = gradient(p, x, y, LossSpec(mae_weight=1.0))
    assert np.all(g.vec == 0.0)


@pytest.mark.parametrize("dims", [(3, 8, 3), (2, 5, 4, 2), (3, 4, 6, 5, 2)])
def test_gradient_into_a_buffer_is_bit_equal(dims):
    # one buffer serves every batch size and loss; each call overwrites it all
    p = small_net(24, dims=dims)
    rng = np.random.default_rng(24)
    n_out = dims[-1]
    lo, hi = np.full(n_out, 0.1), np.full(n_out, 0.4)
    specs = [LossSpec(), LossSpec(mae_weight=0.0, gen_weight=1.0, gen_lo=lo, gen_hi=hi),
             LossSpec(mae_weight=2.0, gen_weight=0.5, gen_lo=lo, gen_hi=hi),
             LossSpec(mae_weight=0.0)]
    buf = Gradients.zeros_like(p)
    for n in (1, 7, 64, 3):
        x = rng.uniform(size=(n, dims[0]))
        y = rng.uniform(size=(n, n_out))
        y[0] = forward_batch(p, x[:1])[2][0]  # a zero residual: d|r|/dr is +0.0
        for spec in specs:
            buf.vec[:] = np.nan
            got = gradient(p, x, y, spec, out=buf)
            assert got is buf
            assert buf.vec.tobytes() == gradient(p, x, y, spec).vec.tobytes()
            # dLoss/dOutput built in place is the textbook sum of the terms
            out = forward_batch(p, x)[2]
            dloss = np.zeros_like(out)
            if spec.mae_weight:
                dloss += spec.mae_weight * np.sign(out - y) / out.size
            if spec.gen_weight:
                over, under = np.maximum(out - hi, 0.0), np.maximum(lo - out, 0.0)
                dloss += spec.gen_weight * (2.0 * over - 2.0 * under) / n
            ref = backprop_from_output_grad(p, x, dloss)
            assert buf.vec.tobytes() == ref.vec.tobytes()
    with pytest.raises(ShapeMismatch, match="layout"):
        gradient(p, x, y, LossSpec(), out=Gradients.zeros_like(small_net(0, dims=(3, 2))))


# ---------------------------------------------------------------- adam


def test_adam_first_step_is_signed_alpha():
    p = small_net(11)
    g = Gradients.zeros_like(p)
    for w in g.weights:
        w += np.random.default_rng(0).normal(size=w.shape)
    state = adam_init(p)
    before = MlpParams.from_vec(p.layer_dims, p.vec.copy())  # the step is in place
    new_p, state = adam_step(p, g, state, alpha=0.01)
    assert new_p is p
    for wn, wo, gw in zip(new_p.weights, before.weights, g.weights):
        step = wn - wo
        nz = np.abs(gw) > 1e-6
        assert np.allclose(step[nz], -0.01 * np.sign(gw[nz]), atol=1e-4)
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    p = small_net(12)
    g = Gradients.zeros_like(p)
    state = adam_init(p)
    before = p.vec.copy()  # the step is in place: compare with a snapshot
    q = p
    for _ in range(5):
        q, state = adam_step(q, g, state, alpha=0.1)
    assert q is p and np.array_equal(q.vec, before)


def test_adam_deterministic():
    p = small_net(13)
    x = np.random.default_rng(13).uniform(size=(6, 2))
    y = np.random.default_rng(14).uniform(size=(6, 2))

    def run():
        q = p.copy()
        state = adam_init(q)
        for _ in range(20):
            g = gradient(q, x, y, LossSpec())
            q, state = adam_step(q, g, state, alpha=0.003)
        return q

    a, b = run(), run()
    assert all(np.array_equal(x1, x2) for x1, x2 in zip(a.weights, b.weights))


@pytest.mark.parametrize("dims", [(2, 5, 2), (3, 4, 6, 2), (2, 3, 5, 4, 3)])
def test_adam_matches_per_array_oracle_bit_for_bit(dims):
    p = small_net(21, dims=dims)
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(9, dims[0]))
    y = rng.uniform(size=(9, dims[-1]))
    spec = LossSpec(mae_weight=1.0, gen_weight=0.5,
                    gen_lo=np.full(dims[-1], 0.1), gen_hi=np.full(dims[-1], 0.4))
    state = adam_init(p)
    ref_w = [w.copy() for w in p.weights]
    ref_b = [b.copy() for b in p.biases]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref_w + ref_b]
    for t in range(1, 61):
        g = gradient(p, x, y, spec)
        p, state = adam_step(p, g, state, alpha=0.01)
        ref_w, ref_b, moments = adam_per_array(ref_w, ref_b, g.weights, g.biases,
                                               moments, t, alpha=0.01)
        for a, ref in zip(p.weights + p.biases, ref_w + ref_b):
            assert a.tobytes() == ref.tobytes()
    assert state.step == 60
    for a in p.weights + p.biases:
        assert np.shares_memory(a, p.vec)
    assert p.vec.size == sum(a.size for a in p.weights + p.biases)


def test_adam_nonfinite_step_raises_training_diverged():
    p = small_net(22)
    g = Gradients.zeros_like(p)
    g.weights[0][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="Adam step 1"):
        adam_step(p, g, adam_init(p), alpha=0.01)


def test_views_share_the_flat_vector():
    p = small_net(23, dims=(3, 4, 2))
    assert p.vec.dtype == np.float64 and p.vec.flags.c_contiguous
    # layout: every weight matrix in layer order, then every bias
    packed = np.concatenate([a.ravel() for a in p.weights + p.biases])
    assert np.array_equal(p.vec, packed)
    p.vec[0] = 7.0
    assert p.weights[0][0, 0] == 7.0
    p.biases[1][1] = -3.0
    assert p.vec[-1] == -3.0
    q = p.copy()
    assert not np.shares_memory(q.vec, p.vec)
    assert all(np.shares_memory(a, q.vec) for a in q.weights + q.biases)
    g = Gradients.zeros_like(p)
    assert all(np.shares_memory(a, g.vec) for a in g.weights + g.biases)


# ---------------------------------------------------------------- fisher


def test_fisher_nonnegative_and_anchor_snapshot():
    p = small_net(15)
    x = np.random.default_rng(15).uniform(size=(9, 2))
    y = np.random.default_rng(16).uniform(size=(9, 2))
    fisher = fisher_diag(p, x, y)
    for f in fisher.weights + fisher.biases:
        assert np.all(f >= 0.0)
    p.weights[0][0, 0] += 1.0  # anchor must be an independent copy
    assert fisher.anchor.weights[0][0, 0] != p.weights[0][0, 0]


def test_fisher_zero_at_perfect_fit():
    p = small_net(17)
    x = np.random.default_rng(17).uniform(size=(5, 2))
    y = forward_batch(p, x)[2]
    fisher = fisher_diag(p, x, y)
    assert all(np.all(f == 0.0) for f in fisher.weights + fisher.biases)


def test_fisher_matches_per_sample_loop():
    p = small_net(18, dims=(2, 4, 2))
    rng = np.random.default_rng(18)
    x = rng.uniform(size=(6, 2))
    y = rng.uniform(size=(6, 2))
    fisher = fisher_diag(p, x, y)
    from wcopf.mlp.losses import backprop_from_output_grad
    from wcopf.mlp.network import forward_batch as fb
    acc = [np.zeros_like(w) for w in p.weights]
    for i in range(6):
        xi = x[i:i + 1]
        out = fb(p, xi)[2]
        g = backprop_from_output_grad(p, xi, 2.0 * (out - y[i:i + 1]))
        for k in range(p.n_layers):
            acc[k] += g.weights[k] ** 2
    for k in range(p.n_layers):
        assert np.allclose(fisher.weights[k], acc[k] / 6.0, atol=1e-12)


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = small_net(19)
    in_s = Scaler(offset=np.array([0.1, 0.2]), scale=np.array([0.3, 1.7]))
    out_s = Scaler(offset=np.zeros(2), scale=np.array([120.0, 100.0]))
    path = tmp_path / "model.json"
    checksum = save_model(path, p, in_s, out_s, meta={"seed": 19})
    q, in2, out2, meta = load_model(path)
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))
    assert np.array_equal(in_s.offset, in2.offset)
    assert np.array_equal(out_s.scale, out2.scale)
    assert meta == {"seed": 19}
    assert checksum == file_checksum(path)
    # byte-identical rewrite
    checksum2 = save_model(tmp_path / "model2.json", q, in2, out2, meta)
    assert checksum2 == checksum


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"layer_dims\": [1, 2]}")
    with pytest.raises(SchemaError):
        load_model(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("damage", ["nan", "rows"])
def test_checkpoint_rejects_bad_parameters(tmp_path, damage):
    # a NaN weight, or layer 0 cut to 2 of its 5 rows
    path = tmp_path / "bad.json"
    save_model(path, small_net(21), Scaler(np.zeros(2), np.ones(2)),
               Scaler(np.zeros(2), np.ones(2)))
    doc = json.loads(path.read_text())
    if damage == "nan":
        doc["weights"][1][0][0] = float("nan")
    else:
        doc["weights"][0] = doc["weights"][0][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="layer"):
        load_model(path)


def test_params_checksum_changes_with_params():
    p = small_net(20)
    c1 = params_checksum(p)
    q = p.copy()
    q.weights[0][0, 0] += 1e-9
    assert params_checksum(q) != c1
    assert params_checksum(p.copy()) == c1
