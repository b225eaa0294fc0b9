import json

import numpy as np
import pytest

from oracles import NodeLpBreaker, grid_fixture, toy_dataset, unit_box
from wcopf.errors import SchemaError, TrainingDiverged
from wcopf.grid import load_grid
from wcopf.mlp import MlpParams, init_params, load_model, loss_mae, params_checksum
from wcopf.train import (TrainConfig, config_from_dict, load_config, load_summary,
                         render_json, save_report, summary_document, summary_path_for,
                         train_gennn, train_standard, train_wcnn)
from wcopf.train import loops
from wcopf.verifier import CERTIFIED, GAP_REMAINING, GAP_TOL, Box, milp, solve_worst_case


def _records_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        da, db = ra.to_dict(), rb.to_dict()
        da.pop("wall_time"), db.pop("wall_time")
        if da != db:
            return False
    return True


def test_linear_targets_are_learned():
    # realizable function: validation error must become small
    data = toy_dataset(0)
    config = TrainConfig(alpha=3e-3, epochs=2000, seed=1)
    params, report = train_standard(data, (8,), config)
    assert report.final_val_mae <= 1e-3
    assert report.records[-1].val_mae == report.final_val_mae
    assert len(report.records) == 2000
    assert [r.epoch for r in report.records] == list(range(2000))


def test_zero_step_size_keeps_init():
    data = toy_dataset(1)
    config = TrainConfig(alpha=0.0, epochs=5, seed=3)
    params, _ = train_standard(data, (4,), config)
    ref = init_params(params.layer_dims, 3)
    assert all(np.array_equal(w, rw) for w, rw in zip(params.weights, ref.weights))
    assert all(np.array_equal(b, rb) for b, rb in zip(params.biases, ref.biases))


def test_fixed_seed_is_reproducible():
    data = toy_dataset(2)
    config = TrainConfig(epochs=40, seed=7)
    p1, r1 = train_standard(data, (5,), config)
    p2, r2 = train_standard(data, (5,), config)
    assert r1.params_sha256 == r2.params_sha256
    assert params_checksum(p1) == params_checksum(p2)
    assert _records_equal(r1.records, r2.records)


def test_minibatch_runs_deterministically():
    data = toy_dataset(3)
    config = TrainConfig(epochs=15, seed=0, batch_size=16)
    p1, r1 = train_standard(data, (4,), config)
    p2, r2 = train_standard(data, (4,), config)
    assert r1.params_sha256 == r2.params_sha256
    assert _records_equal(r1.records, r2.records)
    # a different batch size changes the trajectory
    p3, _ = train_standard(data, (4,), config.replaced(batch_size=8))
    assert params_checksum(p3) != r1.params_sha256


def test_gen_penalty_pulls_outputs_into_bounds():
    # targets far above the allowed band: the penalty shrinks excursions
    rng = np.random.default_rng(5)
    data = toy_dataset(5, response=2.5 * np.eye(2))
    config = TrainConfig(epochs=400, seed=2, lambda_g=5.0, alpha=3e-3)
    p_plain, _ = train_standard(data, (6,), config)
    p_pen, _ = train_gennn(data, (6,), config, gen_bounds=unit_box(2))
    from wcopf.mlp import forward_batch
    xs, _ = data.scaled("val")
    over_plain = np.maximum(forward_batch(p_plain, xs)[2] - 1.0, 0.0).max()
    over_pen = np.maximum(forward_batch(p_pen, xs)[2] - 1.0, 0.0).max()
    assert over_plain > 0.1          # the plain net does overshoot
    assert over_pen < over_plain / 2


def test_wcnn_zero_weight_matches_standard_bit_for_bit():
    data = toy_dataset(4)
    config = TrainConfig(epochs=30, warmup=10, seed=9, lambda_wc=0.0)
    p_std, r_std = train_standard(data, (4,), config)
    p_wc, r_wc = train_wcnn(data, unit_box(2), (4,), config, box=unit_box(2))
    assert r_wc.params_sha256 == r_std.params_sha256
    assert _records_equal(r_wc.records, r_std.records)
    assert all(r.v_g is None for r in r_wc.records)


def test_wcnn_warmup_prefix_matches_standard():
    data = toy_dataset(4)
    base = TrainConfig(epochs=12, warmup=12, seed=9, lambda_wc=0.5)
    p_std, _ = train_standard(data, (4,), base)
    p_wc, r_wc = train_wcnn(data, unit_box(2), (4,), base, box=unit_box(2))
    assert params_checksum(p_wc) == params_checksum(p_std)
    assert all(r.v_g is None for r in r_wc.records)


def test_wcnn_verification_schedule():
    data = toy_dataset(6, response=2.0 * np.eye(2))  # targets overshoot: v_g > 0
    config = TrainConfig(epochs=9, warmup=3, wc_every=2, seed=1, lambda_wc=0.2)
    params, report = train_wcnn(data, unit_box(2), (4,), config, box=unit_box(2))
    assert report.v_g_epochs() == [3, 5, 7]
    assert all(r.v_g >= 0.0 for r in report.records if r.v_g is not None)
    assert report.final_v_g is not None and report.final_v_g >= 0.0
    # the summary value is reproducible from the returned parameters
    again = solve_worst_case(params, Box(np.zeros(2), np.ones(2)),
                             Box(np.zeros(2), np.ones(2)),
                             node_limit=config.node_limit)
    assert again.value == report.final_v_g


def test_wcnn_survives_solver_breakdown(monkeypatch):
    # without a fault each verification of this run solves one node LP;
    # the first one, epoch 3's root, breaks down and is set aside, so that
    # epoch's certificate keeps a gap and its incumbent still moves the net
    data = toy_dataset(6, response=2.0 * np.eye(2))
    config = TrainConfig(epochs=9, warmup=3, wc_every=2, seed=1, lambda_wc=0.2)
    breaker = NodeLpBreaker(lambda n: n == 1)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    differentiated = []
    real_gradient = loops.worst_case_gradient

    def recording(params, cert, last_layer_only):
        differentiated.append(cert)
        return real_gradient(params, cert, last_layer_only)

    monkeypatch.setattr(loops, "worst_case_gradient", recording)
    params, report = train_wcnn(data, unit_box(2), (4,), config, box=unit_box(2))
    assert breaker.raised == 1
    broken = report.records[3]
    assert broken.v_g is not None and broken.v_g > 0.0
    assert report.v_g_epochs() == [3, 5, 7]
    assert [cert.value for cert in differentiated] == [r.v_g for r in report.records
                                                       if r.v_g is not None]
    first = differentiated[0]
    assert first.status == GAP_REMAINING and first.bound > first.value
    # the epoch records its certificate's one gap sentence
    assert broken.warning == first.warning
    assert "numerical trouble" in broken.warning
    assert f"v_g {first.value:.6g} is a lower bound" in broken.warning
    assert f"at most bound {first.bound:.6g}" in broken.warning
    assert report.final_status == CERTIFIED
    # the epoch used the incumbent's gradient: through it, wcnn leaves nn
    monkeypatch.setattr(milp, "solve_lp", NodeLpBreaker(lambda n: n == 1))
    early, early_report = train_wcnn(data, unit_box(2), (4,), config.replaced(epochs=4),
                                     box=unit_box(2))
    assert early_report.records[3].warning == broken.warning
    plain, _ = train_standard(data, (4,), config.replaced(epochs=4))
    assert params_checksum(early) != params_checksum(plain)


def test_wcnn_final_certificate_survives_solver_breakdown(monkeypatch):
    data = toy_dataset(6, response=2.0 * np.eye(2))
    config = TrainConfig(epochs=9, warmup=3, wc_every=2, seed=1, lambda_wc=0.2)
    reference, ref_report = train_wcnn(data, unit_box(2), (4,), config, box=unit_box(2))
    # the verified epochs 3, 5 and 7 solve a node LP each; every later
    # one belongs to the final certificate and breaks down
    breaker = NodeLpBreaker(lambda n: n > 3)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    params, report = train_wcnn(data, unit_box(2), (4,), config, box=unit_box(2))
    assert breaker.raised >= 1
    assert report.final_status == GAP_REMAINING
    assert report.final_v_g is not None and report.final_v_g_raw is not None
    assert report.final_v_g <= ref_report.final_v_g <= report.final_bound
    assert "numerical trouble" in report.warning
    assert f"v_g {report.final_v_g:.6g} is a lower bound" in report.warning
    assert f"at most bound {report.final_bound:.6g}" in report.warning
    # the finished run is kept: same parameters and epochs as without the fault
    assert params_checksum(params) == params_checksum(reference)
    assert _records_equal(report.records, ref_report.records)
    assert summary_document(report)["warning"] == report.warning
    assert "warning" not in summary_document(ref_report)


def test_uncertified_final_certificate_is_reported_as_a_lower_bound():
    # a final certificate stopped at the node limit once reported its
    # incumbent 0.3729 as final_v_g with no warning; its bound is 0.914
    data, gen_box, box = grid_fixture("case9")
    config = TrainConfig(alpha=3e-3, lambda_wc=0.1, epochs=60, warmup=50,
                         wc_every=5, node_limit=1)
    params, report = train_wcnn(data, gen_box, (16, 16), config, box=box)
    cert = solve_worst_case(params, box, gen_box, node_limit=1)
    assert not cert.certified
    assert report.final_v_g == cert.value == pytest.approx(0.3729, abs=1e-4)
    assert cert.bound == pytest.approx(0.914, abs=1e-3)
    assert "lower bound" in report.warning
    assert f"{cert.value:.6g}" in report.warning
    assert f"bound {cert.bound:.6g}" in report.warning
    assert summary_document(report)["warning"] == report.warning


def test_wcnn_verifications_start_from_the_last_certificate(monkeypatch, refit_cores):
    # each verified epoch starts from the certificate before it; the same
    # epochs solved with their starts withheld take more simplex pivots
    # and certify the same worst case to within GAP_TOL
    data, gen_box, box = grid_fixture("case9")
    calls = []  # (params, start, certificate) of every verification

    def recording(params, *args, **kwargs):
        cert = solve_worst_case(params, *args, **kwargs)
        calls.append((params.copy(), kwargs.get("start"), cert))
        return cert

    monkeypatch.setattr(loops, "solve_worst_case", recording)
    _, report = train_wcnn(data, gen_box, (4,), TrainConfig(
        alpha=3e-3, epochs=12, warmup=4, wc_every=2, seed=4, lambda_wc=1.0), box=box)
    verified = calls[:-1]  # the last call is the final, start-free certificate
    assert len(verified) == len(report.v_g_epochs()) == 4
    assert calls[-1][1] is None and verified[0][1] is None
    assert all(start is cert for (_, start, _), (_, _, cert) in zip(verified[1:], verified))
    assert refit_cores
    withheld = [solve_worst_case(params, box, gen_box) for params, _, _ in verified]
    for (_, _, cert), plain in zip(verified, withheld):
        assert cert.certified and abs(cert.value - plain.value) <= GAP_TOL
        assert cert.value <= cert.bound and plain.value <= cert.bound
    assert sum(c.lp_pivots for _, _, c in verified) < sum(c.lp_pivots for c in withheld)


@pytest.mark.parametrize("node_limit,status", [(1, "gap_remaining"), (10_000, "certified")])
def test_final_certificate_bound_and_status_are_reported(node_limit, status):
    data = toy_dataset(31)
    config = TrainConfig(alpha=3e-3, epochs=12, warmup=4, wc_every=4, seed=0,
                         lambda_wc=1.0, node_limit=node_limit)
    _, report = train_wcnn(data, Box(np.zeros(2), np.full(2, 0.5)), (6, 6), config,
                           box=unit_box(2))
    assert report.final_status == status
    assert report.final_bound >= report.final_v_g > 0.0
    if status == "certified":
        assert report.final_bound - report.final_v_g <= GAP_TOL and report.warning is None
    else:
        assert report.final_bound > report.final_v_g and "lower bound" in report.warning
    doc = summary_document(report)
    assert (doc["final_bound"], doc["final_status"]) == (report.final_bound, status)


def test_divergence_raises():
    data = toy_dataset(7)
    config = TrainConfig(alpha=1e155, epochs=6, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train_standard(data, (4,), config)


def test_minibatch_divergence_raises_naming_the_epoch():
    # with several batches per epoch the parameters go nonfinite inside
    # the epoch, before its loss is evaluated
    data = toy_dataset(7)
    config = TrainConfig(alpha=1e155, epochs=3, seed=0, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="nonfinite parameters .* epoch 0"):
            train_standard(data, (4,), config)


@pytest.mark.parametrize("field,value", [
    ("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.0), ("wc_every", True),
    ("seed", -1), ("epochs", -1),
    ("max_iters", "3"), ("alpha", float("nan")), ("lambda_wc", float("inf")),
    ("early_stop_rel", float("-inf")),
    # "false" is truthy: taken as it was, it trained the last layer only
    ("last_layer_only", "false"), ("last_layer_only", None), ("last_layer_only", 0.5),
    ("last_layer_only", 1),
    # a bool is no real number, though Python's arithmetic takes it as one
    ("alpha", True), ("lambda_wc", False), ("alpha", "0.1"),
])
def test_config_rejects_bad_counts_and_nonfinite_reals(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    with pytest.raises(SchemaError, match=field):
        config_from_dict({field: value})


def test_config_validation_and_file_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        TrainConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(wc_every=0)
    with pytest.raises(SchemaError):
        config_from_dict({"no_such_knob": 1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 0.01, "epochs": 7, "seed": 5}))
    config = load_config(path)
    assert config.alpha == 0.01 and config.epochs == 7 and config.seed == 5
    assert config.lambda0 == 1.0
    config = load_config(path, overrides={"seed": 11, "epochs": None})
    assert config.seed == 11 and config.epochs == 7
    with pytest.raises(SchemaError):
        config_from_dict([1, 2])


@pytest.mark.parametrize("loader", [load_grid, load_model, load_config, load_summary])
def test_loaders_name_the_path_and_line_of_a_syntax_error(tmp_path, loader):
    path = tmp_path / "bad.json"
    path.write_text('{"a": 1,\n "b": oops}\n')
    with pytest.raises(SchemaError, match=r"bad\.json: invalid JSON at line 2"):
        loader(path)


def test_report_files_roundtrip(tmp_path):
    data = toy_dataset(8)
    config = TrainConfig(epochs=10, seed=4)
    _, report = train_standard(data, (3,), config)
    jsonl = tmp_path / "run.jsonl"
    summary = save_report(report, jsonl)
    assert summary == str(tmp_path / "run.summary.json")
    records = [json.loads(line) for line in jsonl.read_text().splitlines() if line.strip()]
    assert len(records) == 10
    assert records[3]["epoch"] == 3
    assert records[3]["train_l0"] == report.records[3].train_l0
    doc = load_summary(summary)
    assert doc["params_sha256"] == report.params_sha256
    assert doc["final_val_mae"] == report.final_val_mae
    assert doc["config"]["seed"] == 4
    assert doc["final_v_g"] is None
    # identical saves are byte identical
    second = tmp_path / "again.jsonl"
    save_report(report, second)
    assert second.read_bytes() == jsonl.read_bytes()


def test_render_json_float_format():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(2.0) == "2.0"
    assert render_json(1.5e-8) == "1.4999999999999999e-08"
    assert json.loads(render_json(1.5e-8)) == 1.5e-8
    assert render_json({"b": 1, "a": None}) == '{"a": null, "b": 1}'
    assert render_json([True, "x"]) == '[true, "x"]'
    assert json.loads(render_json(0.1)) == 0.1
    with pytest.raises(ValueError):
        render_json(float("nan"))
    with pytest.raises(TypeError):
        render_json(object())


def test_summary_path_naming():
    assert summary_path_for("a/b/run.jsonl") == "a/b/run.summary.json"
    assert summary_path_for("plain.out") == "plain.out.summary.json"
