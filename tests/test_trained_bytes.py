"""Trained parameter bytes, pinned.

Each short toy run's params_checksum was recorded with the per-array
Adam step that preceded the flat parameter vector (gennn_batched: with
the step that returned new arrays, before Adam ran in place).  A change
to the update's arithmetic, its order, or a BLAS kernel that rounds
differently on an offset view of the vector moves these digests.
"""

import numpy as np
import pytest

import wcopf.train.loops as loops_module
import wcopf.train.sequential as sequential_module
from oracles import toy_dataset, unit_box
from wcopf.mlp import params_checksum
from wcopf.train import (TrainConfig, finetune_sequential, train_gennn,
                         train_standard, train_wcnn)
from wcopf.verifier import Box


def _gen_box():
    return Box(np.zeros(2), np.full(2, 0.5))


def _nn_full(data):
    return train_standard(data, (6,), TrainConfig(alpha=3e-3, epochs=30, seed=1))


def _nn_batched(data):
    return train_standard(data, (5, 4), TrainConfig(alpha=3e-3, epochs=12, seed=2,
                                                    batch_size=16))


def _gennn(data):
    return train_gennn(data, (6,), TrainConfig(alpha=3e-3, epochs=30, seed=3,
                                               lambda_g=1.0), gen_bounds=_gen_box())


def _gennn_batched(data):
    return train_gennn(data, (5, 4), TrainConfig(alpha=3e-3, epochs=12, seed=7,
                                                 lambda_g=1.0, batch_size=16),
                       gen_bounds=_gen_box())


def _wcnn_one_layer(data):
    return train_wcnn(data, _gen_box(), (4,), TrainConfig(
        alpha=3e-3, epochs=12, warmup=4, wc_every=2, seed=4, lambda_wc=1.0),
        box=unit_box(2))


def _wcnn_two_layers(data):
    return train_wcnn(data, _gen_box(), (3, 3), TrainConfig(
        alpha=3e-3, epochs=10, warmup=4, wc_every=2, seed=5, lambda_wc=1.0,
        last_layer_only=False, batch_size=32), box=unit_box(2))


def _finetune_all_layers(data):
    start, _ = _nn_full(data)
    return finetune_sequential(start, data, _gen_box(), TrainConfig(
        alpha=1e-2, max_iters=4, lambda_wc=1.0, lambda_ewc=1.0,
        last_layer_only=False, early_stop_rel=10.0), box=unit_box(2))


def _finetune_last_layer(data):
    start, _ = train_standard(data, (4, 3), TrainConfig(alpha=3e-3, epochs=20, seed=6))
    return finetune_sequential(start, data, _gen_box(), TrainConfig(
        alpha=1e-2, max_iters=3, lambda_wc=1.0, lambda_ewc=2.0,
        early_stop_rel=10.0), box=unit_box(2))


@pytest.mark.parametrize("run,digest", [
    pytest.param(_nn_full, "790cfa65120f771354ce880a119ed4121608ed387142eac2a3f529dd01514547",
                 id="nn_full"),
    pytest.param(_nn_batched, "f7e0ad7c8ebf3af53d18600d6d8f4c899d5bb86fd20e6a193c7bbe753eed42a7",
                 id="nn_batched"),
    pytest.param(_gennn, "28b999ec77c0c985322ca6dc8036169300a5d00dbb709270990ec345a5d9c878",
                 id="gennn"),
    pytest.param(_gennn_batched, "a7b3069900ebdda449e71787935723f856dadaf666133bee78e06413e15ada3c",
                 id="gennn_batched"),
    pytest.param(_wcnn_one_layer, "60270dede5dded3cd75124dc085b0492bf2e9c82fa670989cd40bcf4c2e7c854",
                 id="wcnn_one_layer"),
    pytest.param(_wcnn_two_layers, "9dae3d903825ce86d0a61cd3432328a96f3ebf9e877a559cc26146ad4a7460a4",
                 id="wcnn_two_layers"),
    pytest.param(_finetune_all_layers, "a50d4635a1f586f25f41192a57bd48298fe417533f0dd5932297d8e9ab65020f",
                 id="finetune_all_layers"),
    pytest.param(_finetune_last_layer, "e836a13a807baf71f7a590046f0db4d7325432b4ae4484dc3f3c0e12299a7c0d",
                 id="finetune_last_layer"),
])
def test_trained_bytes_are_pinned(run, digest):
    params, report = run(toy_dataset(31))
    assert params_checksum(params) == digest
    assert report.params_sha256 == digest
    # the worst-case runs really verified and moved by the violation term
    if run in (_wcnn_one_layer, _wcnn_two_layers):
        assert any(r.v_g and r.v_g > 0.0 for r in report.records)
    if run in (_finetune_all_layers, _finetune_last_layer):
        assert report.stopped == "max iterations"


@pytest.mark.parametrize("run,counters", [
    pytest.param(_wcnn_one_layer, [(13, 3), (4, 3), (8, 4), (6, 4), (21, 6)],
                 id="wcnn_one_layer"),
    pytest.param(_wcnn_two_layers, [(11, 1), (3, 1), (3, 1), (11, 1)], id="wcnn_two_layers"),
    pytest.param(_finetune_all_layers, [(6, 1), (11, 2), (2, 2), (2, 2), (25, 3)],
                 id="finetune_all_layers"),
    pytest.param(_finetune_last_layer, [(53, 7), (17, 7), (17, 7), (53, 7)],
                 id="finetune_last_layer"),
])
def test_verification_counters_are_pinned(monkeypatch, run, counters):
    """(lp_pivots, nodes_explored) of each verification in the run, in
    order: bound and root LPs from the slack basis, chained, and
    started from the last certificate's bases, and the search.
    The two-layer runs solve bound LPs.  A change to any LP's pivots or
    to the tree moves these counts."""
    seen = []
    for module in (loops_module, sequential_module):
        def counted(*args, _solve=module.solve_worst_case, **kwargs):
            cert = _solve(*args, **kwargs)
            seen.append((cert.lp_pivots, cert.nodes_explored))
            return cert
        monkeypatch.setattr(module, "solve_worst_case", counted)
    run(toy_dataset(31))
    assert seen == counters
