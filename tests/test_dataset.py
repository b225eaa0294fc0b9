import hashlib
from dataclasses import replace

import numpy as np
import pytest

from oracles import unit_box
from wcopf.errors import SchemaError, TooManyInfeasible
from wcopf.grid import (box_input_scaler, builtin_grid, compute_ptdf,
                        gen_output_scaler, generate_dataset, grid_from_dict,
                        load_dataset, sample_demands_lhs, save_dataset,
                        solve_dcopf)
from wcopf.grid import dataset, dcopf
from wcopf.grid.dataset import split_sizes
from wcopf.mlp import MlpParams
from wcopf.simplex import LpStatus
from wcopf.train import (TrainConfig, finetune_sequential, layer_sensitivity,
                         loops, scaled_boxes, scaled_gen_box, train_gennn,
                         train_standard, train_wcnn)
from wcopf.verifier import solve_worst_case


@pytest.fixture(scope="module")
def ds100():
    return generate_dataset(builtin_grid("case3"), 100, seed=7)


def test_split_proportions(ds100):
    assert split_sizes(100) == (70, 10, 20)
    assert (ds100.split == "train").sum() == 70
    assert (ds100.split == "val").sum() == 10
    assert (ds100.split == "test").sum() == 20


def test_targets_solve_the_dcopf(ds100):
    g = builtin_grid("case3")
    ptdf = compute_ptdf(g)
    for i in range(0, 100, 17):
        sol = solve_dcopf(g, ptdf, ds100.inputs[i])
        assert sol.status == LpStatus.OPTIMAL
        costs = np.array([x.cost for x in g.generators])
        assert costs @ ds100.targets[i] == pytest.approx(sol.cost, abs=1e-6)
        assert ds100.targets[i].sum() == pytest.approx(ds100.inputs[i].sum(), abs=1e-5)


def _congested_case9():
    """case9 with line limits cut to 45% and p_min raised to 10% of p_max,
    so that some demand samples have no feasible dispatch."""
    g = builtin_grid("case9")
    return replace(g, lines=tuple(replace(ln, limit=0.45 * ln.limit) for ln in g.lines),
                   generators=tuple(replace(gen, p_min=0.1 * gen.p_max)
                                    for gen in g.generators))


def _cold_walk(g, batches, n):
    """(kept inputs, their cold dispatches, infeasible count): the first n
    samples of batches, in order, that a cold solve_dcopf finds feasible."""
    ptdf = compute_ptdf(g)
    kept, p, infeasible = [], [], 0
    for d in (d for batch in batches for d in batch):
        if len(kept) == n:
            break
        sol = solve_dcopf(g, ptdf, d)
        if sol.status == LpStatus.OPTIMAL:
            kept.append(d)
            p.append(sol.p)
        else:
            infeasible += 1
    return np.array(kept), np.array(p), infeasible


@pytest.mark.parametrize("case", ["case3", "case5", "case9", "case9-congested"])
def test_chained_dataset_matches_per_sample_cold_solves(case, monkeypatch):
    g = _congested_case9() if case == "case9-congested" else builtin_grid(case)
    batches = []  # every LHS batch generate_dataset drew
    lps = []      # every dispatch LP it solved
    solve = dcopf.solve_lp
    sample = dataset.sample_demands_lhs

    def counted_solve(problem, start=None):
        lps.append(solve(problem, start=start))
        return lps[-1]

    def recorded_sample(*args, **kwargs):
        batches.append(sample(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(dcopf, "solve_lp", counted_solve)
    monkeypatch.setattr(dataset, "sample_demands_lhs", recorded_sample)
    ds = generate_dataset(g, 300, seed=0)
    monkeypatch.undo()

    # kept samples, and so the dropped ones, are those cold solves keep
    inputs, want, infeasible = _cold_walk(g, batches, 300)
    assert np.array_equal(ds.inputs, inputs)
    if case == "case9-congested":
        assert infeasible > 0
        # a sample that two bases serve may take the other one's solution,
        # whose LU solve in final_values can round differently
        np.testing.assert_allclose(ds.targets, want, rtol=1e-12, atol=0.0)
    else:
        assert infeasible == 0
        assert ds.targets.tobytes() == want.tobytes()
    # an LP runs only for a sample no known basis serves: each optimal one
    # finds a new basis, each other one is an infeasible sample
    bases = {(tuple(sorted(lp.basis[0])), lp.basis[1].tobytes())
             for lp in lps if lp.status == LpStatus.OPTIMAL}
    assert len(lps) <= len(bases) + infeasible


def _line_free_grid():
    # one bus and two generators: the dispatch LPs have no <= rows
    return grid_from_dict({
        "buses": [1], "slack": 1,
        "generators": [{"bus": 1, "p_min": 10.0, "p_max": 80.0, "cost": 1.0},
                       {"bus": 1, "p_min": 0.0, "p_max": 80.0, "cost": 2.0}],
        "loads": [{"bus": 1, "nominal": 100.0}],
        "lines": [],
    })


def test_line_free_grid_matches_cold_solves():
    g = _line_free_grid()
    ds = generate_dataset(g, 50, seed=2)
    inputs, want, infeasible = _cold_walk(
        g, [sample_demands_lhs(g, 50, 2, box=dataset.DATA_BOX)], 50)
    assert infeasible == 0
    assert np.array_equal(ds.inputs, inputs)
    assert ds.targets.tobytes() == want.tobytes()
    # the cheap unit alone covers demand up to 80, the second one beyond
    assert len(np.unique(ds.targets[:, 1] > 0.0)) == 2


def _scaler_bytes(*scalers):
    return [a.tobytes() for s in scalers for a in (s.offset, s.scale)]


def test_scaled_gen_box_is_the_generator_limits():
    # generator 0 has p_min 10: the library's generator box is the output
    # scaler's image of [p_min, p_max], bit for bit
    g = _line_free_grid()
    data = generate_dataset(g, 50, seed=2)
    p_min = np.array([gen.p_min for gen in g.generators])
    p_max = np.array([gen.p_max for gen in g.generators])
    got = scaled_gen_box(data)
    assert got.lo.tobytes() == data.output_scaler.transform(p_min).tobytes()
    assert got.hi.tobytes() == data.output_scaler.transform(p_max).tobytes()
    assert got.hi.tobytes() == scaled_boxes(g)[1].hi.tobytes()
    assert np.array_equal(data.output_scaler.transform([10.0, 0.0]), [0.0, 0.0])


def test_library_boxes_are_the_cli_boxes_with_a_fixed_generator(monkeypatch):
    # generator 0 is fixed at 20 MW and load 1 has nominal 0: each gets
    # scale 1, so its side has width 0 in scaled_boxes, which the CLI uses
    # and train_wcnn takes for a box given as None
    g = grid_from_dict({
        "buses": [1], "slack": 1,
        "generators": [{"bus": 1, "p_min": 20.0, "p_max": 20.0, "cost": 1.0},
                       {"bus": 1, "p_min": 0.0, "p_max": 150.0, "cost": 2.0}],
        "loads": [{"bus": 1, "nominal": 100.0}, {"bus": 1, "nominal": 0.0}],
        "lines": [],
    })
    data = generate_dataset(g, 20, seed=0)
    box, gen_box = scaled_boxes(g)
    want = [np.array(v, dtype=float).tobytes()
            for v in ([0, 0], [1, 0], [0, 0], [0, 1])]
    assert [a.tobytes() for a in (box.lo, box.hi, gen_box.lo, gen_box.hi)] == want
    assert scaled_gen_box(data).hi.tobytes() == gen_box.hi.tobytes()

    seen = []

    def spy(params, box, gen_bounds, **kwargs):
        seen.append((box, gen_bounds))
        return solve_worst_case(params, box, gen_bounds, **kwargs)

    monkeypatch.setattr(loops, "solve_worst_case", spy)
    train_wcnn(data, None, (2,), TrainConfig(epochs=1, warmup=1, lambda_wc=1.0))
    used_box, used_gen_box = seen[-1]
    assert [a.tobytes() for a in (used_box.lo, used_box.hi,
                                  used_gen_box.lo, used_gen_box.hi)] == want

    # the fixed unit's output is 0.5 d0 and the other's 0.5: the one rule
    # certifies the fixed unit's 0.5 overshoot, unit boxes certify none
    net = MlpParams((2, 1, 2), [np.array([[1.0, 0.0]]), np.array([[0.5], [0.0]])],
                    [np.zeros(1), np.array([0.0, 0.5])])
    cert = solve_worst_case(net, box, gen_box)
    assert cert.certified and cert.value == 0.5 and cert.constraint_id == (0, "upper")
    assert solve_worst_case(net, unit_box(2), unit_box(2)).value == 0.0


def test_dataset_without_a_grid_needs_explicit_boxes():
    # one load and two generators; the boxes the grid would give are unit boxes
    data = replace(generate_dataset(_line_free_grid(), 50, seed=2), grid=None)
    box, gen_box = unit_box(1), unit_box(2)
    config = TrainConfig(epochs=1, warmup=0, lambda_wc=1.0)
    start = train_standard(data, (2,), config)[0]   # plain training needs no box
    for run in (lambda: scaled_gen_box(data),
                lambda: train_gennn(data, (2,), config),
                lambda: train_wcnn(data, gen_box, (2,), config),
                lambda: train_wcnn(data, None, (2,), config, box=box),
                lambda: layer_sensitivity((2,), data, gen_box, [0], config=config),
                lambda: finetune_sequential(start, data, gen_box, config)):
        with pytest.raises(ValueError, match="without a grid"):
            run()
    # with both boxes given it trains and certifies
    assert train_wcnn(data, gen_box, (2,), config, box=box)[1].final_v_g is not None


# sha256 of save_dataset(generate_dataset(builtin_grid(case), 1500, 0)),
# recorded before bases were pooled; the CI workflow checks the installed
# wcopf gen-data against the case9 entry
DATASET_SHA256 = {
    "case3": "ba9e5b9bd09fb9c4355d2cb5e9c8277a3041cf2a93c69c847c7d70bb083a3ae5",
    "case5": "41e75f67d55de232290e97812e697f518a7f3e53c8b8e9c98bc719a4087bb9c0",
    "case9": "fc446afe9ebf0be0526e5c3269adafef240612b9a2ae230f91b0559a681a831e",
    "syn39": "2d94c058d886f2b02789993c92f3b511011ef6ba3ab3b6dbc80a4fdff968ef36",
}


@pytest.mark.parametrize("case", sorted(DATASET_SHA256))
def test_dataset_bytes_are_pinned(case, tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(generate_dataset(builtin_grid(case), 1500, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_SHA256[case]


def test_grid_scalers_map_box_to_unit(ds100):
    x = ds100.input_scaler.transform(ds100.inputs)
    assert np.all(x >= -1e-9) and np.all(x <= 1.0 + 1e-9)
    y = ds100.output_scaler.transform(ds100.targets)
    assert np.all(y >= -1e-9) and np.all(y <= 1.0 + 1e-9)


def test_generation_deterministic():
    g = builtin_grid("case3")
    a = generate_dataset(g, 40, seed=3)
    b = generate_dataset(g, 40, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.split, b.split)


@pytest.mark.parametrize("n", [0, -5])
def test_generation_needs_a_sample(n):
    with pytest.raises(ValueError, match="at least one sample"):
        generate_dataset(builtin_grid("case3"), n, seed=0)


def test_csv_roundtrip_bit_exact(ds100, tmp_path):
    # loading what save_dataset wrote gives back the generated dataset
    p = tmp_path / "data.csv"
    save_dataset(ds100, p)
    loaded = load_dataset(p, builtin_grid("case3"))
    assert loaded.inputs.tobytes() == ds100.inputs.tobytes()
    assert loaded.targets.tobytes() == ds100.targets.tobytes()
    assert np.array_equal(loaded.split, ds100.split)
    assert (_scaler_bytes(loaded.input_scaler, loaded.output_scaler)
            == _scaler_bytes(ds100.input_scaler, ds100.output_scaler))


def test_loaded_scalers_fit_on_train_only(ds100, tmp_path):
    """The loaded scalers are the grid's, whatever the train rows hold:
    shrinking the train rows toward the box's lower edge moves no scaler."""
    g = builtin_grid("case3")
    train = ds100.split == "train"
    inputs, targets = ds100.inputs.copy(), ds100.targets.copy()
    inputs[train] = 0.6 * g.nominal_demand() + 0.5 * (inputs[train] - 0.6 * g.nominal_demand())
    targets[train] *= 0.5
    p = tmp_path / "data.csv"
    save_dataset(replace(ds100, inputs=inputs, targets=targets), p)
    loaded = load_dataset(p, g)
    assert (_scaler_bytes(loaded.input_scaler, loaded.output_scaler)
            == _scaler_bytes(box_input_scaler(g), gen_output_scaler(g)))
    x_train, _ = loaded.scaled("train")
    assert x_train.min() >= 0.0 and x_train.max() < 0.5 + 1e-12


def test_load_rejects_a_dataset_of_another_grid(ds100, tmp_path):
    p = tmp_path / "data.csv"
    save_dataset(ds100, p)
    with pytest.raises(SchemaError, match=r"dimensions 2 -> 2 do not match the grid's "
                                          r"3 loads and 3 generators"):
        load_dataset(p, builtin_grid("case9"))


def test_load_rejects_no_train_rows(ds100, tmp_path):
    p = tmp_path / "data.csv"
    save_dataset(replace(ds100, split=np.full(len(ds100.split), "val", dtype=object)), p)
    with pytest.raises(SchemaError, match="no train rows"):
        load_dataset(p, builtin_grid("case3"))


def test_load_rejects_no_val_rows(ds100, tmp_path):
    # a file that cannot train: every run needs validation rows
    p = tmp_path / "data.csv"
    save_dataset(replace(ds100, split=np.where(ds100.split == "val", "test", ds100.split)), p)
    with pytest.raises(SchemaError, match="no val rows"):
        load_dataset(p, builtin_grid("case3"))


# the rejected files below have one load and one generator: their format
# errors are reported before a dimension mismatch with this grid
_CASE3 = builtin_grid("case3")


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("d_0,g_0,banana\n1.0,2.0,train\n")
    with pytest.raises(SchemaError, match="header"):
        load_dataset(p, _CASE3)


def test_load_rejects_bad_float(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("d_0,g_0,split\n1.0,abc,train\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(p, _CASE3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_nonfinite_value(tmp_path, value):
    # the first bad line is named, and on it the value is checked before the label
    p = tmp_path / "bad.csv"
    p.write_text(f"d_0,g_0,split\n1.0,2.0,train\n0.5,1e308,val\n3.0,{value},holdout\n"
                 f"{value},1.0,train\n")
    with pytest.raises(SchemaError, match=r"bad\.csv: line 4: nonfinite value$"):
        load_dataset(p, _CASE3)


def test_load_rejects_bad_split_label(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("d_0,g_0,split\n1.0,2.0,holdout\n")
    with pytest.raises(SchemaError, match="split"):
        load_dataset(p, _CASE3)


def test_load_rejects_missing_field(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("d_0,g_0,split\n1.0,train\n")
    with pytest.raises(SchemaError, match="fields"):
        load_dataset(p, _CASE3)


def test_too_many_infeasible():
    # capacity below the lower edge of the demand box: nothing is feasible
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0.0, "p_max": 10.0, "cost": 1.0}],
        "loads": [{"bus": 2, "nominal": 100.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "limit": 1000.0}],
    })
    with pytest.raises(TooManyInfeasible):
        generate_dataset(g, 10, seed=0)


def test_resampling_fills_partial_feasibility():
    # feasible only when demand <= 80: roughly half the 60..100 box
    g = grid_from_dict({
        "buses": [1, 2], "slack": 1,
        "generators": [{"bus": 1, "p_min": 0.0, "p_max": 80.0, "cost": 1.0}],
        "loads": [{"bus": 2, "nominal": 100.0}],
        "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "limit": 1000.0}],
    })
    ds = generate_dataset(g, 30, seed=1)
    assert ds.inputs.shape == (30, 1)
    assert np.all(ds.inputs <= 80.0 + 1e-9)
