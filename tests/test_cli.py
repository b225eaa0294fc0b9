import json
from importlib import resources

import numpy as np
import pytest

import wcopf.train.sensitivity as sensitivity_module
from oracles import seeded_net
from wcopf import cli
from wcopf.errors import NumericalBreakdown, TooManyInfeasible, TrainingDiverged
from wcopf.grid import (box_input_scaler, builtin_grid, gen_output_scaler,
                        load_dataset)
from wcopf.mlp import MlpParams, load_model, save_model
from wcopf.verifier import Box, solve_worst_case


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
    dataset = load_dataset(data)
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

    def broken(*args, **kwargs):
        raise NumericalBreakdown("simplex iteration cap 10 exceeded")

    monkeypatch.setattr(cli, "solve_worst_case", broken)
    model = _train(tmp_path, data)
    out = capsys.readouterr()
    assert "v_g unknown" in out.out
    assert "final verification failed" in out.err
    load_model(model)
    summary = json.load(open(model.replace(".json", ".report.summary.json")))
    assert summary["final_v_g"] is None and summary["final_v_g_raw"] is None
    assert "iteration cap" in summary["warning"]


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


def test_sensitivity_warns_about_a_skipped_seed(tmp_path, capsys, monkeypatch):
    real = sensitivity_module.solve_worst_case
    calls = []

    def first_breaks(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NumericalBreakdown("simplex iteration cap 10 exceeded")
        return real(*args, **kwargs)

    data = _gen_data(tmp_path)
    cfg = _write_config(tmp_path / "s.json", epochs=60, alpha=3e-3)
    out = tmp_path / "sens.json"
    monkeypatch.setattr(sensitivity_module, "solve_worst_case", first_breaks)
    rc = cli.main(["sensitivity", "--dataset", data, "--grid", "case3",
                   "--arch", "6,6", "--seeds", "0,1,2", "--config", cfg,
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == (
        "warning: seed 0 skipped: verification failed "
        "(simplex iteration cap 10 exceeded)\n")
    assert [s["seed"] for s in json.load(open(out))["skipped"]] == [0]


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
