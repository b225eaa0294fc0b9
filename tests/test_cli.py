import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from oracles import NodeLpBreaker, seeded_net
from wcopf import cli
from wcopf.errors import NumericalBreakdown, TooManyInfeasible, TrainingDiverged
from wcopf.grid import (Scaler, box_input_scaler, builtin_grid,
                        gen_output_scaler, load_dataset)
from wcopf.mlp import MlpParams, load_model, save_model
from wcopf.verifier import Box, milp, solve_worst_case


def _write_config(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


def _gen_data(tmp_path, n=100, seed=0):
    out = tmp_path / "data.csv"
    rc = cli.main(["gen-data", "--grid", "case3", "--n", str(n),
                   "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return str(out)


def _train(tmp_path, data, name="model.json", mode="nn", extra=()):
    cfg = _write_config(tmp_path / "cfg.json", epochs=30, alpha=3e-3, warmup=5)
    out = tmp_path / name
    rc = cli.main(["train", "--dataset", data, "--grid", "case3",
                   "--mode", mode, "--arch", "8", "--seed", "0",
                   "--config", cfg, "--out", str(out), *extra])
    assert rc == 0
    return str(out)


def test_gen_data_split_counts(tmp_path):
    data = _gen_data(tmp_path)
    dataset = load_dataset(data, builtin_grid("case3"))
    labels, counts = np.unique(dataset.split, return_counts=True)
    assert dict(zip(labels.tolist(), counts.tolist())) == \
        {"train": 70, "val": 10, "test": 20}


def test_gen_data_same_seed_same_bytes(tmp_path):
    a = _gen_data(tmp_path, seed=3)
    first = open(a, "rb").read()
    _gen_data(tmp_path, seed=3)
    assert open(a, "rb").read() == first
    manifest = json.load(open(a + ".manifest.json"))
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 3
    assert "builtin:case3" in manifest["inputs"]


def test_gen_data_malformed_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"buses": [1, 2,\n  oops\n}')
    rc = cli.main(["gen-data", "--grid", str(bad), "--n", "10",
                   "--seed", "0", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_train_writes_artifacts_deterministically(tmp_path):
    data = _gen_data(tmp_path)
    model = _train(tmp_path, data)
    paths = [model, model.replace(".json", ".report.jsonl"),
             model.replace(".json", ".report.summary.json"),
             model + ".manifest.json"]
    blobs = [open(p, "rb").read() for p in paths]
    _train(tmp_path, data)
    assert [open(p, "rb").read() for p in paths] == blobs
    manifest = json.loads(blobs[-1])
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 30
    assert manifest["config"]["mode"] == "nn"
    assert sorted(manifest["inputs"]) == sorted(
        [data, "builtin:case3", str(tmp_path / "cfg.json")])
    summary = json.loads(blobs[2])
    # nn mode gets its certificate from a post-training verification
    assert summary["final_v_g"] is not None
    assert summary["final_test_mae"] is not None
    records = [json.loads(line) for line in blobs[1].splitlines()]
    assert len(records) == 30
    assert all(r["wall_time"] == 0.0 for r in records)


# params_sha256 of the benchmark pipeline's training recipe: case9 data
# (1500 samples, seed 0), one hidden layer of 8, seed 0, 100 epochs in
# minibatches of 64; recorded while Adam still returned new arrays.  The
# CI workflow checks the installed wcopf train against the same digests.
PIPELINE_TRAIN_CONFIG = {"epochs": 100, "alpha": 0.003, "batch_size": 64}
PIPELINE_PARAMS_SHA256 = {
    "nn": "bbea9fe8a45e4e5fe85593bef78214614e86dd7358df577a3e2aba7b4d9c145c",
    "gennn": "4838dbc5c2b94bc6cfe4e0451494564937984c3080afa261e06118e369fe1452",
}


# sha256 of the certificate JSON that wcopf verify writes for the
# recipe's nn model at the default box; its bytes hold lp_pivots and
# nodes_explored, so a change to any LP's pivots moves it.  The CI
# workflow checks the installed wcopf verify against it.
PIPELINE_CERT_SHA256 = "993a5cc9d26e6b51268e51e02559880f26a0f1a9accacd5d990d3c7c07f4dec0"

# the same for the demand box PIPELINE_CERT_BOX, which pins the scaled box
# of a --box other than the default; the CI workflow checks it too
PIPELINE_CERT_BOX = "0.7:0.95"
PIPELINE_BOX_CERT_SHA256 = "1544cf0217d8f9277eac9a51b0469e26a078414b3520bb1e6dbec25e373bf511"


def _pipeline_train(tmp_path, modes):
    data = str(tmp_path / "data.csv")
    assert cli.main(["gen-data", "--grid", "case9", "--n", "1500", "--seed", "0",
                     "--out", data]) == 0
    cfg = _write_config(tmp_path / "train.json", **PIPELINE_TRAIN_CONFIG)
    for mode in modes:
        assert cli.main(["train", "--dataset", data, "--grid", "case9", "--mode", mode,
                         "--arch", "8", "--seed", "0", "--config", cfg,
                         "--out", str(tmp_path / f"{mode}.json")]) == 0


def test_pipeline_recipe_params_are_pinned(tmp_path):
    _pipeline_train(tmp_path, PIPELINE_PARAMS_SHA256)
    for mode, digest in PIPELINE_PARAMS_SHA256.items():
        summary = json.load(open(tmp_path / f"{mode}.report.summary.json"))
        assert summary["params_sha256"] == digest


def test_pipeline_recipe_certificate_is_pinned(tmp_path):
    _pipeline_train(tmp_path, ["nn"])
    cert = tmp_path / "cert.json"
    assert cli.main(["verify", "--model", str(tmp_path / "nn.json"), "--grid", "case9",
                     "--out", str(cert)]) == 0
    doc = json.load(open(cert))
    assert (doc["lp_pivots"], doc["nodes_explored"]) == (32, 14)
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == PIPELINE_CERT_SHA256


def test_pipeline_recipe_certificate_at_another_box_is_pinned(tmp_path):
    _pipeline_train(tmp_path, ["nn"])
    cert = tmp_path / "cert.json"
    assert cli.main(["verify", "--model", str(tmp_path / "nn.json"), "--grid", "case9",
                     "--box", PIPELINE_CERT_BOX, "--out", str(cert)]) == 0
    doc = json.load(open(cert))
    assert doc["box"] == [0.7, 0.95]
    assert (doc["lp_pivots"], doc["nodes_explored"]) == (19, 7)
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == PIPELINE_BOX_CERT_SHA256


# sha256 of the .report.jsonl and .report.summary.json files of the
# recipe's nn and gennn runs and of a finetune of its nn model with
# PIPELINE_FINETUNE_CONFIG; the CI workflow checks the installed wcopf
# train against the nn and gennn digests.
PIPELINE_FINETUNE_CONFIG = {"alpha": 0.003, "max_iters": 10}
PIPELINE_REPORT_SHA256 = {
    "nn": ("7f97bc5b4446cb259d22f3264dc444793adb22bd71f569102a6ffd9b9ef96dc0",
           "f7520208f52f5bc6228ab31f274ba3969bc78439847f5859e70f339558f63cab"),
    "gennn": ("4bcc84c9db074df50cd4396712c1e71df2db142588f3273f7ba44328ca5febcc",
              "bda5298839a19caae77018303e7b4828267a4c0b659b6d6666c6d01a6feba0cc"),
    "finetune": ("1b658147fc889ee31d6b201934977289d5fe6f63f9adc516f9d3d7742da7b2a9",
                 "f23bd85ac2db8221a7ee3c749134fbadf3624b9872c36cbd91730d059e582a66"),
}


def test_pipeline_recipe_reports_are_pinned(tmp_path):
    _pipeline_train(tmp_path, ["nn", "gennn"])
    cfg = _write_config(tmp_path / "ft.json", **PIPELINE_FINETUNE_CONFIG)
    assert cli.main(["finetune", "--model", str(tmp_path / "nn.json"),
                     "--dataset", str(tmp_path / "data.csv"), "--grid", "case9",
                     "--config", cfg, "--out", str(tmp_path / "finetune.json")]) == 0
    for run, digests in PIPELINE_REPORT_SHA256.items():
        got = tuple(hashlib.sha256((tmp_path / f"{run}{suffix}").read_bytes()).hexdigest()
                    for suffix in (".report.jsonl", ".report.summary.json"))
        assert got == digests, run


def test_train_flag_overrides_config_seed(tmp_path):
    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path / "cfg7.json", epochs=10, seed=3)
    out = tmp_path / "m7.json"
    rc = cli.main(["train", "--dataset", data, "--grid", "case3",
                   "--config", cfg, "--seed", "7", "--out", str(out)])
    assert rc == 0
    summary = json.load(open(str(out).replace(".json", ".report.summary.json")))
    assert summary["config"]["seed"] == 7
    assert summary["config"]["epochs"] == 10


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    data = _gen_data(tmp_path, n=20)
    cfg = _write_config(tmp_path / "bad.json", epochs=5, learning_rate=0.1)
    rc = cli.main(["train", "--dataset", data, "--grid", "case3",
                   "--config", cfg, "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_train_dataset_grid_mismatch_exits_2(tmp_path, capsys):
    data = _gen_data(tmp_path, n=20)
    rc = cli.main(["train", "--dataset", data, "--grid", "case9",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "do not match the grid" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_verify_reports_mw_consistently(tmp_path, capsys):
    data = _gen_data(tmp_path)
    model = _train(tmp_path, data)
    cert_path = tmp_path / "cert.json"
    rc = cli.main(["verify", "--model", model, "--grid", "case3",
                   "--out", str(cert_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MW" in out and "% of max loading" in out

    cert = json.load(open(cert_path))
    grid = builtin_grid("case3")
    params, in_scaler, out_scaler, _ = load_model(model)
    nominal = grid.nominal_demand()
    box = Box(in_scaler.transform(0.6 * nominal),
              in_scaler.transform(1.0 * nominal))
    p_min = np.array([g.p_min for g in grid.generators], dtype=float)
    p_max = np.array([g.p_max for g in grid.generators], dtype=float)
    gen_box = Box(out_scaler.transform(p_min), out_scaler.transform(p_max))
    ref = solve_worst_case(params, box, gen_box)
    g = ref.constraint_id[0]
    assert abs(cert["v_g_mw"] - ref.value * out_scaler.scale[g]) <= 1e-6
    assert cert["v_g"] == ref.value
    assert cert["lp_pivots"] == ref.lp_pivots > 0
    assert cert["pct_max_loading"] == pytest.approx(
        100.0 * cert["v_g_mw"] / float(nominal.sum()))
    assert cert["model_sha256"]


def test_verify_zero_violation_model(tmp_path, capsys):
    grid = builtin_grid("case3")
    params = MlpParams(layer_dims=[2, 2], weights=[np.zeros((2, 2))],
                       biases=[np.full(2, 0.5)])
    model = tmp_path / "const.json"
    save_model(model, params, box_input_scaler(grid), gen_output_scaler(grid))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 0
    assert "v_g = 0.000000 MW (0.00% of max loading)" in capsys.readouterr().out
    cert = json.load(open(tmp_path / "c.json"))
    assert cert["v_g"] <= 0.0
    assert cert["v_g_mw"] == 0.0
    assert cert["status"] == "certified"


def test_grid_without_load_reports_no_percent(tmp_path, capsys):
    # the schema accepts nominal loads that sum to 0; the percent of max
    # loading is then undefined rather than a division by zero
    grid = tmp_path / "noload.json"
    grid.write_text(json.dumps({
        "buses": [1, 2], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0.0, "p_max": 10.0, "cost": 1.0},
                       {"bus": 2, "p_min": 0.0, "p_max": 10.0, "cost": 2.0}],
        "loads": [{"bus": 2, "nominal": 0.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 10.0, "limit": 5.0}]}))
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    cert, table = tmp_path / "c.json", tmp_path / "t.json"
    assert cli.main(["gen-data", "--grid", str(grid), "--n", "50",
                     "--seed", "0", "--out", str(data)]) == 0
    assert cli.main(["train", "--dataset", str(data), "--grid", str(grid),
                     "--mode", "nn", "--arch", "4", "--seed", "0",
                     "--config", _write_config(tmp_path / "cfg.json", epochs=5),
                     "--out", str(model)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--model", str(model), "--grid", str(grid),
                     "--out", str(cert)]) == 0
    assert "MW (n/a of max loading)" in capsys.readouterr().out
    assert json.load(open(cert))["pct_max_loading"] is None
    assert cli.main(["report", str(cert), "--grid", str(grid),
                     "--out", str(table)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "-"
    doc = json.load(open(table))
    assert doc["max_loading_mw"] == 0.0
    assert doc["rows"][0]["pct_max_loading"] is None


def test_verify_gap_exits_5(tmp_path, capsys):
    grid = builtin_grid("case3")
    model = tmp_path / "branchy.json"
    save_model(model, seeded_net(0, (2, 6, 6, 2)),
               box_input_scaler(grid), gen_output_scaler(grid))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--node-limit", "1", "--out", str(tmp_path / "c.json")])
    assert rc == 5
    assert "gap" in capsys.readouterr().err
    cert = json.load(open(tmp_path / "c.json"))
    assert cert["status"] == "gap_remaining"
    assert cert["gap"] > 0.0


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_node_limit_below_one_exits_2(tmp_path, capsys, limit):
    grid = builtin_grid("case3")
    model = tmp_path / "net.json"
    save_model(model, seeded_net(0, (2, 4, 2)),
               box_input_scaler(grid), gen_output_scaler(grid))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--node-limit", limit, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "--node-limit" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]


@pytest.mark.parametrize("n", ["0", "-5"])
def test_gen_data_n_below_one_exits_2(tmp_path, capsys, n):
    rc = cli.main(["gen-data", "--grid", "case3", "--n", n,
                   "--seed", "0", "--out", str(tmp_path / "data.csv")])
    assert rc == 2
    assert "--n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_data_grid_without_loads_exits_2(tmp_path, capsys):
    # such a grid passes the grid schema; its dataset had no demand
    # columns, which every later command read as a malformed header
    doc = json.loads(resources.files("wcopf.grid").joinpath("cases/case3.json").read_text())
    doc["loads"] = []
    grid_file = tmp_path / "no-loads.json"
    grid_file.write_text(json.dumps(doc))
    rc = cli.main(["gen-data", "--grid", str(grid_file), "--n", "10",
                   "--out", str(tmp_path / "data.csv")])
    assert rc == 2
    assert "grid has no loads" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["no-loads.json"]


def test_verify_bad_box_exits_2(tmp_path):
    data = _gen_data(tmp_path, n=20)
    model = _train(tmp_path, data)
    for spec in ("1.0:0.6", "0.6", "a:b"):
        rc = cli.main(["verify", "--model", model, "--grid", "case3",
                       "--box", spec, "--out", str(tmp_path / "c.json")])
        assert rc == 2


def test_verify_model_grid_mismatch_exits_2(tmp_path):
    grid = builtin_grid("case3")
    model = tmp_path / "wide.json"
    save_model(model, seeded_net(0, (7, 4, 3)),
               box_input_scaler(grid), gen_output_scaler(grid))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 2


def _identity_scalers(grid):
    return Scaler(np.zeros(grid.n_load), np.ones(grid.n_load)), \
        Scaler(np.zeros(grid.n_gen), np.ones(grid.n_gen))


def _scalers_one_ulp_off(grid):
    out = gen_output_scaler(grid)
    return box_input_scaler(grid), Scaler(out.offset, np.nextafter(out.scale, np.inf))


@pytest.mark.parametrize("command", ["verify", "finetune"])
@pytest.mark.parametrize("scalers", [_identity_scalers, _scalers_one_ulp_off])
def test_model_under_other_scalers_exits_2(tmp_path, capsys, command, scalers):
    # the grid's boxes are in the grid's units, so a model saved under any
    # other scalers, even one bit away, is rejected before anything is written
    grid = builtin_grid("case9")
    model = tmp_path / "other.json"
    save_model(model, seeded_net(0, (3, 4, 3)), *scalers(grid))
    extra = []
    if command == "finetune":
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--grid", "case9", "--n", "20",
                         "--out", str(data)]) == 0
        extra = ["--dataset", str(data)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    rc = cli.main([command, "--model", str(model), "--grid", "case9", *extra,
                   "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "scalers are not the grid's" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_dataset_without_val_rows_exits_2(tmp_path, capsys, command):
    # 5 samples split 4 / 0 / 1: no run can validate, so none starts
    grid = builtin_grid("case9")
    data = tmp_path / "data.csv"
    assert cli.main(["gen-data", "--grid", "case9", "--n", "5", "--out", str(data)]) == 0
    extra = []
    if command == "finetune":
        model = tmp_path / "model.json"
        save_model(model, seeded_net(0, (3, 4, 3)), box_input_scaler(grid),
                   gen_output_scaler(grid))
        extra = ["--model", str(model)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    rc = cli.main([command, "--dataset", str(data), "--grid", "case9", *extra,
                   "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "no val rows" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_finetune_writes_tuned_model(tmp_path, capsys):
    data = _gen_data(tmp_path)
    model = _train(tmp_path, data)
    cfg = _write_config(tmp_path / "ft.json", alpha=7e-4, lambda_wc=1.0,
                        max_iters=5)
    out = tmp_path / "tuned.json"
    rc = cli.main(["finetune", "--model", model, "--dataset", data,
                   "--grid", "case3", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "finetune stopped on" in capsys.readouterr().out
    summary = json.load(open(str(out).replace(".json", ".report.summary.json")))
    assert summary["mode"] == "finetune"
    assert summary["stopped"] is not None
    assert out.exists()


def test_uncertified_final_certificates_are_reported_as_lower_bounds(tmp_path, capsys):
    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path / "cfg.json", epochs=30, alpha=3e-3, node_limit=1)
    model = str(tmp_path / "model.json")
    assert cli.main(["train", "--dataset", data, "--grid", "case3", "--arch", "8",
                     "--config", cfg, "--out", model]) == 0
    ft_cfg = _write_config(tmp_path / "ft.json", alpha=7e-4, lambda_wc=1.0,
                           max_iters=1, node_limit=1)
    tuned = str(tmp_path / "tuned.json")
    assert cli.main(["finetune", "--model", model, "--dataset", data,
                     "--grid", "case3", "--config", ft_cfg, "--out", tuned]) == 0
    out = capsys.readouterr()
    warnings = out.err.splitlines()
    assert len(warnings) == 2
    lines = out.out.splitlines()
    for path, warning, line in zip((model, tuned), warnings, lines[-2:]):
        summary = json.load(open(path.replace(".json", ".report.summary.json")))
        assert warning == f"warning: {summary['warning']}"
        assert f"v_g {summary['final_v_g']:.6g} is a lower bound" in warning
        assert "at most bound" in warning
        assert f">= {summary['final_v_g']:.6f} ({summary['final_v_g_raw']:.3f} MW, " \
            "lower bound)" in line


def test_train_saves_run_when_recertification_breaks_down(tmp_path, capsys,
                                                         monkeypatch):
    data = _gen_data(tmp_path)
    breaker = NodeLpBreaker(lambda n: True)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    model = _train(tmp_path, data)
    assert breaker.raised == breaker.calls > 0
    out = capsys.readouterr()
    load_model(model)
    summary = json.load(open(model.replace(".json", ".report.summary.json")))
    assert summary["final_status"] == "gap_remaining"
    assert summary["final_v_g"] is not None and summary["final_v_g_raw"] is not None
    assert summary["final_v_g"] <= summary["final_bound"]
    assert "numerical trouble" in summary["warning"]
    assert out.err == f"warning: {summary['warning']}\n"
    assert f"v_g >= {summary['final_v_g']:.6f} ({summary['final_v_g_raw']:.3f} MW, " \
        "lower bound)" in out.out


def test_sensitivity_writes_normalized_profile(tmp_path):
    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path / "s.json", epochs=60, alpha=3e-3)
    out = tmp_path / "sens.json"
    rc = cli.main(["sensitivity", "--dataset", data, "--grid", "case3",
                   "--arch", "6,6", "--seeds", "0,1,2", "--config", cfg,
                   "--out", str(out)])
    assert rc == 0
    doc = json.load(open(out))
    assert len(doc["layer_values"]) == 3
    assert doc["layer_values"][-1] == 1.0
    assert doc["n_seeds"] >= 1


def test_sensitivity_keeps_a_seed_whose_node_lp_breaks_down(tmp_path, capsys,
                                                            monkeypatch):
    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path / "s.json", epochs=60, alpha=3e-3)
    out = tmp_path / "sens.json"
    args = ["sensitivity", "--dataset", data, "--grid", "case3", "--arch", "6,6",
            "--seeds", "0,1,2", "--config", cfg, "--out", str(out)]
    assert cli.main(args) == 0
    reference = json.load(open(out))
    capsys.readouterr()
    # seed 0's first node LP breaks down and is set aside
    breaker = NodeLpBreaker(lambda n: n == 1)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    assert cli.main(args) == 0
    assert breaker.raised == 1
    assert capsys.readouterr().err == ""
    doc = json.load(open(out))
    assert sorted(doc) == sorted(reference)
    assert doc["n_seeds"] == reference["n_seeds"] == 3


def test_report_tabulates_summaries_and_certificates(tmp_path, capsys):
    nn = tmp_path / "nn.summary.json"
    wc = tmp_path / "wcnn.summary.json"
    nn.write_text(json.dumps({"mode": "nn", "final_val_mae": 0.02,
                              "final_test_mae": 0.021, "final_v_g": 0.4,
                              "final_v_g_raw": 48.0}))
    wc.write_text(json.dumps({"mode": "wcnn", "final_val_mae": 0.022,
                              "final_test_mae": 0.023, "final_v_g": 0.1,
                              "final_v_g_raw": 12.0}))
    cert = tmp_path / "nn.cert.json"
    cert.write_text(json.dumps({"v_g": 0.4, "v_g_mw": 48.0,
                                "pct_max_loading": 32.0,
                                "status": "certified"}))
    out = tmp_path / "table.json"
    rc = cli.main(["report", str(nn), str(wc), str(cert),
                   "--grid", "case3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nn" in text and "wcnn" in text
    doc = json.load(open(out))
    assert doc["max_loading_mw"] == 150.0
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["wcnn"]["v_g_mw"] < rows["nn"]["v_g_mw"]
    assert rows["wcnn"]["mae_pct"] == pytest.approx(2.3)
    # 48 MW of 150 MW max loading
    assert rows["nn"]["pct_max_loading"] == pytest.approx(32.0)
    assert rows["nn.cert"]["mae_pct"] is None


@pytest.mark.parametrize("text,what", [
    ("3.5", "JSON object"),
    ('["nn"]', "JSON object"),
    ('{"mode": "nn", "final_val_mae": 0.02,\n "final_test_mae": oops}', "line 2"),
    ('{"mode": "nn", "final_val_mae": 0.02, "final_test_mae": "0.02"}', "final_test_mae"),
    ('{"mode": "nn", "final_val_mae": 0.02, "final_v_g_raw": true}', "final_v_g_raw"),
    ('{"mode": "nn", "final_val_mae": 0.02, "final_v_g_raw": NaN}', "final_v_g_raw"),
    ('{"v_g_mw": [48.0]}', "v_g_mw"),
    ('{"mode": 3, "final_val_mae": 0.02}', "mode"),
], ids=["number", "list", "invalid-json", "string-mae", "bool-v-g", "nan-v-g",
        "list-v-g-mw", "numeric-mode"])
def test_report_on_a_malformed_summary_exits_2(tmp_path, capsys, text, what):
    bad = tmp_path / "bad.summary.json"
    bad.write_text(text)
    rc = cli.main(["report", str(bad), "--grid", "case3", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert what in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli.main(["report", str(bad), "--grid", "case3"]) == 2
    data = _gen_data(tmp_path, n=20)
    assert cli.main(["train", "--dataset", data, "--grid", "case3", "--config", str(bad),
                     "--out", str(tmp_path / "m.json")]) == 2
    assert "utf-8" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_gen_data_negative_seed_exits_2(tmp_path, capsys):
    rc = cli.main(["gen-data", "--grid", "case3", "--n", "10", "--seed", "-1",
                   "--out", str(tmp_path / "data.csv")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sensitivity_negative_seed_exits_2(tmp_path, capsys):
    data = _gen_data(tmp_path, n=20)
    out = tmp_path / "sens.json"
    rc = cli.main(["sensitivity", "--dataset", data, "--grid", "case3", "--arch", "4,4",
                   "--seeds", "0,-1", "--out", str(out)])
    assert rc == 2
    assert "seed list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ['"false"', "null"])
def test_train_non_bool_last_layer_only_exits_2(tmp_path, capsys, value):
    data = _gen_data(tmp_path, n=20)
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"epochs": 2, "last_layer_only": %s}' % value)
    out = tmp_path / "m.json"
    rc = cli.main(["train", "--dataset", data, "--grid", "case3", "--config", str(cfg),
                   "--out", str(out)])
    assert rc == 2
    assert "last_layer_only" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = cli.main(["verify", "--model", str(tmp_path / "nope.json"),
                   "--grid", "case3", "--out", str(tmp_path / "c.json")])
    assert rc == 2


def test_verify_malformed_checkpoint_exits_2(tmp_path, capsys):
    # layer 0 cut to 2 of its 4 rows: a shape error inside the parameters
    grid = builtin_grid("case3")
    model = tmp_path / "cut.json"
    save_model(model, seeded_net(0, (2, 4, 2)),
               box_input_scaler(grid), gen_output_scaler(grid))
    doc = json.loads(model.read_text())
    doc["weights"][0] = doc["weights"][0][:2]
    model.write_text(json.dumps(doc))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "malformed checkpoint: layer 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.json"]


def _raises(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


def test_gen_data_out_of_feasible_samples_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_dataset",
                        _raises(TooManyInfeasible("only 3 of 10 feasible")))
    rc = cli.main(["gen-data", "--grid", "case3", "--n", "10",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 3
    assert capsys.readouterr().err == "error: only 3 of 10 feasible\n"


def test_train_divergence_exits_4(tmp_path, capsys, monkeypatch):
    data = _gen_data(tmp_path, n=20)
    monkeypatch.setattr(cli, "train_standard",
                        _raises(TrainingDiverged("nonfinite loss at epoch 3")))
    rc = cli.main(["train", "--dataset", data, "--grid", "case3",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 4
    assert capsys.readouterr().err == "error: nonfinite loss at epoch 3\n"


def test_failed_gen_data_leaves_no_manifest(tmp_path, capsys):
    # 2 MW of capacity against a demand box of 90-150 MW: no sample is feasible
    doc = json.loads(resources.files("wcopf.grid").joinpath("cases/case3.json").read_text())
    for gen in doc["generators"]:
        gen["p_max"] = 1.0
    grid_file = tmp_path / "weak.json"
    grid_file.write_text(json.dumps(doc))
    rc = cli.main(["gen-data", "--grid", str(grid_file), "--n", "5",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 3
    assert "feasible" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["weak.json"]


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_diverged_run_leaves_no_manifest(command, tmp_path, capsys, monkeypatch):
    data = _gen_data(tmp_path, n=20)
    argv = ["--dataset", data, "--grid", "case3", "--out", str(tmp_path / "out.json")]
    if command == "finetune":
        argv += ["--model", _train(tmp_path, data)]
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(cli, "train_standard" if command == "train" else "finetune_sequential",
                        _raises(TrainingDiverged("nonfinite loss at epoch 3")))
    assert cli.main([command, *argv]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_train_minibatch_divergence_exits_4(tmp_path, capsys):
    data = _gen_data(tmp_path, n=20)
    cfg = _write_config(tmp_path / "cfg.json", alpha=1e155, batch_size=4, epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train", "--dataset", data, "--grid", "case3", "--arch", "4",
                       "--config", cfg, "--out", str(tmp_path / "m.json")])
    assert rc == 4
    assert "epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("fields", [{"epochs": 2.5}, {"batch_size": 2.5},
                                    {"alpha": float("nan")}])
def test_train_bad_config_value_exits_2(tmp_path, capsys, fields):
    data = _gen_data(tmp_path, n=20)
    cfg = _write_config(tmp_path / "cfg.json", **fields)
    rc = cli.main(["train", "--dataset", data, "--grid", "case3",
                   "--config", cfg, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "bad config value" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_verify_node_lp_breakdown_writes_a_gap_certificate_and_exits_5(tmp_path, capsys,
                                                                      monkeypatch):
    grid = builtin_grid("case3")
    model = tmp_path / "net.json"
    save_model(model, seeded_net(0, (2, 4, 2)),
               box_input_scaler(grid), gen_output_scaler(grid))
    breaker = NodeLpBreaker(lambda n: True)
    monkeypatch.setattr(milp, "solve_lp", breaker)
    cert = tmp_path / "c.json"
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--out", str(cert)])
    assert rc == 5
    assert breaker.raised == breaker.calls > 0
    doc = json.load(open(cert))
    assert doc["status"] == "gap_remaining"
    assert doc["v_g"] <= doc["bound"] and doc["gap"] > 0.0
    assert doc["nodes_explored"] == breaker.calls
    assert _manifest_inputs(cert) == sorted([str(model), "builtin:case3"])
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "numerical trouble" in err
    assert f"v_g {doc['v_g']:.6g} is a lower bound" in err
    assert f"at most bound {doc['bound']:.6g}" in err


def test_verify_solver_breakdown_exits_1(tmp_path, capsys, monkeypatch):
    grid = builtin_grid("case3")
    model = tmp_path / "net.json"
    save_model(model, seeded_net(0, (2, 4, 2)),
               box_input_scaler(grid), gen_output_scaler(grid))
    monkeypatch.setattr(cli, "solve_worst_case",
                        _raises(NumericalBreakdown("simplex iteration cap 10 exceeded")))
    rc = cli.main(["verify", "--model", str(model), "--grid", "case3",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: simplex iteration cap 10 exceeded\n"


def _manifest_inputs(path):
    with open(str(path) + ".manifest.json") as fh:
        return sorted(json.load(fh)["inputs"])


def test_manifest_inputs_of_each_command(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(
        resources.files("wcopf.grid").joinpath("cases/case3.json").read_text())
    data = str(tmp_path / "file-grid.csv")
    assert cli.main(["gen-data", "--grid", str(grid_file), "--n", "40",
                     "--out", data]) == 0
    assert _manifest_inputs(data) == [str(grid_file)]

    model = _train(tmp_path, data)
    cert = tmp_path / "cert.json"
    assert cli.main(["verify", "--model", model, "--grid", "case3",
                     "--out", str(cert)]) == 0
    assert _manifest_inputs(cert) == sorted([model, "builtin:case3"])

    tuned = tmp_path / "tuned.json"
    assert cli.main(["finetune", "--model", model, "--dataset", data,
                     "--grid", "case3", "--out", str(tuned)]) == 0
    assert _manifest_inputs(tuned) == sorted([model, data, "builtin:case3"])

    cfg = _write_config(tmp_path / "sens.json", epochs=5)
    sens = tmp_path / "sens-out.json"
    # a manifest needs a run that succeeds: width 2 trains no violating net
    assert cli.main(["sensitivity", "--dataset", data, "--grid", str(grid_file),
                     "--arch", "4", "--seeds", "0", "--config", cfg,
                     "--out", str(sens)]) == 0
    assert _manifest_inputs(sens) == sorted([data, str(grid_file), cfg])


_TRAIN_DEFAULTS = {"config": None, "seed": None, "last_layer_only": None,
                   "report": None}


@pytest.mark.parametrize("argv, expected", [
    (["gen-data", "--grid", "g", "--n", "5", "--out", "o"],
     {"grid": "g", "n": 5, "seed": 0, "out": "o"}),
    (["train", "--dataset", "d", "--grid", "g", "--out", "o"],
     {"dataset": "d", "grid": "g", "mode": "nn", "arch": "8",
      "wc_every": None, "out": "o", **_TRAIN_DEFAULTS}),
    (["verify", "--model", "m", "--grid", "g", "--out", "o"],
     {"model": "m", "grid": "g", "box": "0.6:1.0", "node_limit": 200_000,
      "out": "o"}),
    (["finetune", "--model", "m", "--dataset", "d", "--grid", "g", "--out", "o"],
     {"model": "m", "dataset": "d", "grid": "g", "box": "0.6:1.0", "out": "o",
      **_TRAIN_DEFAULTS}),
    (["sensitivity", "--dataset", "d", "--grid", "g", "--out", "o"],
     {"dataset": "d", "grid": "g", "arch": "8,8", "seeds": "0,1,2,3,4",
      "config": None, "out": "o"}),
    (["report", "a.json", "b.json", "--grid", "g"],
     {"reports": ["a.json", "b.json"], "grid": "g", "out": None}),
])
def test_parsed_defaults(argv, expected):
    parsed = vars(cli.build_parser().parse_args(argv))
    func = parsed.pop("func")
    assert func is getattr(cli, "cmd_" + argv[0].replace("-", "_"))
    assert parsed == {"command": argv[0], **expected}
