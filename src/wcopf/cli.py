"""Command line entry point for datasets, training, verification and reports.

Every command except report resolves its inputs and checksums them
before computing, and once its outputs are saved writes a run manifest
(command, resolved configuration, input checksums, output paths, seed,
tool version) next to the primary output; a command that fails writes
none.  Identical invocations produce byte-identical output files;
wall-clock timings never enter the files.

Exit codes: 0 success, 2 malformed input, 3 dataset generation ran out
of feasible samples, 4 training diverged, 5 verification hit the node
limit with a gap remaining, 1 any other library error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .errors import SchemaError, TooManyInfeasible, TrainingDiverged, WcopfError
from .grid import (BUILTIN_CASES, generate_dataset, grid_from_dict,
                   load_dataset, load_grid, rescale_with_grid, save_dataset)
from .grid.dataset import DATA_BOX, split_sizes
from .mlp import file_checksum, load_model, save_model
from .train import (config_from_dict, final_verification, finetune_sequential,
                    layer_sensitivity, load_config, load_summary, raw_violation,
                    save_report, summary_path_for, train_gennn, train_standard,
                    train_wcnn, write_json)
from .verifier import (DEFAULT_NODE_LIMIT, Box, save_certificate,
                       solve_worst_case)

# (exception type, exit code); the first match wins, so subclasses of
# WcopfError come before it
_EXIT_CODES = ((SchemaError, 2), (TooManyInfeasible, 3), (TrainingDiverged, 4),
               (OSError, 2), ((WcopfError, ValueError), 1))


# -- argument helpers --------------------------------------------------------

def _resolve_grid(value):
    """(grid, manifest entry) for a grid JSON path or a bundled case name;
    a bundled case's entry is builtin:<name> with its packaged text's sha256."""
    if os.path.exists(value) or value not in BUILTIN_CASES:
        return load_grid(value), (value, file_checksum(value))
    text = resources.files("wcopf.grid").joinpath(f"cases/{value}.json").read_text("utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return grid_from_dict(json.loads(text)), (f"builtin:{value}", digest)


def _parse_box(spec):
    parts = spec.split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise SchemaError(f"bad box spec {spec!r}; expected lo:hi") from None
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise SchemaError(f"bad box spec {spec!r}; need finite lo < hi")
    return lo, hi


def _parse_ints(spec, what, form):
    try:
        return tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise SchemaError(f"bad {what} {spec!r}; expected {form}") from None


def _parse_arch(spec):
    spec = spec.strip()
    if not spec:
        return ()
    dims = _parse_ints(spec, "architecture", "h1,h2,...")
    if any(d <= 0 for d in dims):
        raise SchemaError(f"bad architecture {spec!r}; widths must be positive")
    return dims


def _bool_flag(value):
    if value == "true":
        return True
    if value == "false":
        return False
    raise argparse.ArgumentTypeError("expected true or false")


def _dataset_and_config(args, grid):
    """The dataset rescaled to the grid, and the config with flag overrides."""
    dataset = rescale_with_grid(load_dataset(args.dataset), grid)
    overrides = {name: getattr(args, name, None)
                 for name in ("seed", "wc_every", "last_layer_only")}
    if args.config:
        return dataset, load_config(args.config, overrides)
    return dataset, config_from_dict({}, overrides)


def _load_model_for(grid, path):
    """load_model(path), once the model's shape matches the grid."""
    params, in_scaler, out_scaler, _meta = load_model(path)
    if params.n_inputs != grid.n_load or params.n_outputs != grid.n_gen:
        raise SchemaError(
            f"{path}: model maps {params.n_inputs} -> {params.n_outputs} but the "
            f"grid has {grid.n_load} loads and {grid.n_gen} generators")
    return params, in_scaler, out_scaler


def _run_outputs(args):
    """Model, report and summary paths of train and finetune."""
    report_path = args.report or os.path.splitext(args.out)[0] + ".report.jsonl"
    return [args.out, report_path, summary_path_for(report_path)]


# -- scaled-space geometry ---------------------------------------------------

def _boxes(grid, input_scaler, output_scaler, fractions):
    """Scaled boxes of demand [lo, hi] * nominal and of generator limits."""
    lo_f, hi_f = fractions
    nominal = grid.nominal_demand()
    p_min = np.array([g.p_min for g in grid.generators], dtype=float)
    p_max = np.array([g.p_max for g in grid.generators], dtype=float)
    return (Box(input_scaler.transform(lo_f * nominal),
                input_scaler.transform(hi_f * nominal)),
            Box(output_scaler.transform(p_min), output_scaler.transform(p_max)))


def _v_g_text(report):
    if report.final_v_g is None:
        return "unknown"
    text = f"{report.final_v_g:.6f} ({report.final_v_g_raw:.3f} MW"
    if report.warning is not None:
        # the final certificate stopped at the node limit
        return f">= {text}, lower bound)"
    return text + ")"


def _input_digests(args, grid_entry):
    """Digests by path of the grid and of every --model, --dataset and
    --config the command received."""
    inputs = dict([grid_entry])
    for path in (getattr(args, name, None) for name in ("model", "dataset", "config")):
        if path:
            inputs[path] = file_checksum(path)
    return inputs


def _write_manifest(command, inputs, outputs, seed=None, config=None):
    """Write the manifest next to outputs[0], once the outputs are saved."""
    write_json(str(outputs[0]) + ".manifest.json",
               {"command": command, "version": __version__, "seed": seed,
                "config": config, "inputs": inputs,
                "outputs": [str(p) for p in outputs]})


def _save_run(outputs, params, dataset, report, meta):
    """Save the model and the report without wall times; returns that report."""
    report = dataclasses.replace(
        report, records=[dataclasses.replace(r, wall_time=0.0) for r in report.records])
    save_model(outputs[0], params, dataset.input_scaler, dataset.output_scaler, meta=meta)
    save_report(report, outputs[1])
    return report


# -- commands ----------------------------------------------------------------

def cmd_gen_data(args):
    if args.n < 1:
        raise SchemaError(f"bad --n {args.n}; must be at least 1")
    grid, grid_entry = _resolve_grid(args.grid)
    inputs = _input_digests(args, grid_entry)
    dataset = generate_dataset(grid, args.n, args.seed)
    save_dataset(dataset, args.out)
    _write_manifest("gen-data", inputs, [args.out], seed=args.seed,
                    config={"n": args.n, "box": list(DATA_BOX)})
    n_tr, n_va, n_te = split_sizes(args.n)
    print(f"wrote {args.out}: {args.n} samples "
          f"({n_tr} train / {n_va} val / {n_te} test)")
    return 0


def cmd_train(args):
    grid, grid_entry = _resolve_grid(args.grid)
    dataset, config = _dataset_and_config(args, grid)
    arch = _parse_arch(args.arch)
    outputs = _run_outputs(args)
    inputs = _input_digests(args, grid_entry)

    demand_box, gen_box = _boxes(grid, dataset.input_scaler,
                                 dataset.output_scaler, DATA_BOX)
    if args.mode == "nn":
        params, report = train_standard(dataset, arch, config)
    elif args.mode == "gennn":
        params, report = train_gennn(dataset, arch, config, gen_bounds=gen_box)
    else:
        params, report = train_wcnn(dataset, gen_box, arch, config,
                                    box=demand_box)
    if args.mode != "wcnn":
        # modes that never verify still get a final certificate in the report
        final_v_g, final_v_g_raw, warning = final_verification(
            solve_worst_case, params, demand_box, gen_box, config.node_limit,
            dataset.output_scaler)
        report = dataclasses.replace(report, final_v_g=final_v_g,
                                     final_v_g_raw=final_v_g_raw, warning=warning)

    report = _save_run(outputs, params, dataset, report,
                       meta={"mode": args.mode, "seed": config.seed,
                             "arch": list(arch), "grid": grid_entry[0]})
    _write_manifest("train", inputs, outputs, seed=config.seed,
                    config={"mode": args.mode, "arch": list(arch),
                            **config.to_dict()})
    if report.warning is not None:
        print(f"warning: {report.warning}", file=sys.stderr)
    print(f"trained {args.mode} {list(report.layer_dims)}: "
          f"val MAE {report.final_val_mae:.6f}, v_g {_v_g_text(report)}")
    return 0


def cmd_verify(args):
    if args.node_limit < 1:
        raise SchemaError(f"bad --node-limit {args.node_limit}; must be at least 1")
    grid, grid_entry = _resolve_grid(args.grid)
    params, in_scaler, out_scaler = _load_model_for(grid, args.model)
    fractions = _parse_box(args.box)
    inputs = _input_digests(args, grid_entry)

    box, gen_box = _boxes(grid, in_scaler, out_scaler, fractions)
    cert = solve_worst_case(params, box, gen_box, node_limit=args.node_limit)
    v_mw = raw_violation(cert, out_scaler)
    max_load = float(np.sum(grid.nominal_demand()))
    pct = 100.0 * v_mw / max_load
    save_certificate(args.out, cert,
                     model_sha256=inputs[args.model],
                     extras={"v_g_mw": v_mw, "pct_max_loading": pct,
                             "box": list(fractions)})
    _write_manifest("verify", inputs, [args.out],
                    config={"box": list(fractions), "node_limit": args.node_limit})
    print(f"v_g = {v_mw:.6f} MW ({pct:.2f}% of max loading)")
    if not cert.certified:
        print(f"verification incomplete: bound gap {cert.gap:.6e} after "
              f"{cert.nodes_explored} nodes", file=sys.stderr)
        return 5
    return 0


def cmd_finetune(args):
    grid, grid_entry = _resolve_grid(args.grid)
    params = _load_model_for(grid, args.model)[0]
    dataset, config = _dataset_and_config(args, grid)
    fractions = _parse_box(args.box)
    outputs = _run_outputs(args)
    inputs = _input_digests(args, grid_entry)

    box, gen_box = _boxes(grid, dataset.input_scaler, dataset.output_scaler,
                          fractions)
    tuned, report = finetune_sequential(params, dataset, gen_box, config,
                                        box=box)
    report = _save_run(outputs, tuned, dataset, report,
                       meta={"mode": "finetune", "seed": config.seed,
                             "arch": list(tuned.hidden_dims),
                             "grid": grid_entry[0]})
    _write_manifest("finetune", inputs, outputs, seed=config.seed,
                    config={"box": list(fractions), **config.to_dict()})
    if report.warning is not None:
        print(f"warning: {report.warning}", file=sys.stderr)
    v_before = report.records[0].v_g if report.records else None
    v_before = "unknown" if v_before is None else f"{v_before:.6f}"
    print(f"finetune stopped on {report.stopped}: v_g {v_before} -> "
          f"{_v_g_text(report)}, val MAE {report.final_val_mae:.6f}")
    return 0


def cmd_sensitivity(args):
    grid, grid_entry = _resolve_grid(args.grid)
    dataset, config = _dataset_and_config(args, grid)
    arch = _parse_arch(args.arch)
    seeds = _parse_ints(args.seeds, "seed list", "s1,s2,...")
    inputs = _input_digests(args, grid_entry)
    box, gen_box = _boxes(grid, dataset.input_scaler, dataset.output_scaler,
                          DATA_BOX)
    report = layer_sensitivity(arch, dataset, gen_box, seeds, config=config,
                               box=box)
    write_json(args.out, report.to_dict())
    _write_manifest("sensitivity", inputs, [args.out],
                    config={"arch": list(arch), "seeds": list(seeds),
                            **config.to_dict()})
    for seed, warning in report.skipped:
        print(f"warning: seed {seed} skipped: {warning}", file=sys.stderr)
    values = ", ".join(f"{v:.4f}" for v in report.layer_values)
    print(f"layer sensitivities [{values}] over {report.n_seeds} seeds")
    return 0


def _report_row(path, max_load):
    doc = load_summary(path)
    name = os.path.basename(path)
    for suffix in (".summary.json", ".json"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    if "final_val_mae" in doc:
        mae = doc.get("final_test_mae")
        v_mw = doc.get("final_v_g_raw")
        mode = doc.get("mode", "?")
    elif "v_g_mw" in doc:
        mae, v_mw, mode = None, doc["v_g_mw"], "verify"
    else:
        raise SchemaError(f"{path}: neither a training summary nor a certificate")
    return {"name": name, "mode": mode,
            "mae_pct": None if mae is None else 100.0 * mae,
            "v_g_mw": v_mw,
            "pct_max_loading": None if v_mw is None else 100.0 * v_mw / max_load}


def cmd_report(args):
    grid, _ = _resolve_grid(args.grid)
    max_load = float(np.sum(grid.nominal_demand()))
    rows = [_report_row(path, max_load) for path in args.reports]

    def cell(value, fmt):
        return "-" if value is None else format(value, fmt)

    header = f"{'run':<24} {'mode':<9} {'MAE (%)':>9} {'v_g (MW)':>10} {'% max load':>11}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<24} {row['mode']:<9} "
              f"{cell(row['mae_pct'], '9.4f'):>9} "
              f"{cell(row['v_g_mw'], '10.4f'):>10} "
              f"{cell(row['pct_max_loading'], '11.4f'):>11}")
    if args.out:
        write_json(args.out, {"max_loading_mw": max_load, "rows": rows})
    return 0


# -- wiring ------------------------------------------------------------------

# options several commands take, declared once
_SHARED_OPTIONS = {
    "--grid": dict(required=True, help="grid JSON path or bundled case name"),
    "--dataset": dict(required=True),
    "--model": dict(required=True),
    "--box": dict(default="0.6:1.0", help="demand box as fractions of nominal, lo:hi"),
    "--config": dict(help="flat JSON file of training settings"),
    "--seed": dict(type=int),
    "--last-layer-only": dict(type=_bool_flag, metavar="true|false"),
    "--report": dict(help="per-epoch JSONL path (default: <out>.report.jsonl)"),
}


def _add_shared(parser, *names):
    for name in names:
        parser.add_argument(name, **_SHARED_OPTIONS[name])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wcopf",
        description="Dispatch-predicting networks with certified worst-case "
                    "generator-bound violations.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample demands and solve the DC-OPF "
                                        "for each to build a labeled dataset")
    _add_shared(p, "--grid")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    _add_shared(p, "--seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data, seed=0)

    p = sub.add_parser("train", help="train a dispatch predictor")
    _add_shared(p, "--dataset", "--grid")
    p.add_argument("--mode", choices=("nn", "gennn", "wcnn"), default="nn")
    p.add_argument("--arch", default="8", help="hidden widths, e.g. 8 or 8,8")
    _add_shared(p, "--config", "--seed")
    p.add_argument("--wc-every", type=int)
    _add_shared(p, "--last-layer-only")
    p.add_argument("--out", required=True, help="model checkpoint path")
    _add_shared(p, "--report")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="certify the worst-case violation of a "
                                      "trained model over a demand box")
    _add_shared(p, "--model", "--grid", "--box")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--out", required=True, help="certificate JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("finetune", help="reduce a trained model's certified "
                                        "violation with anchored updates")
    _add_shared(p, "--model", "--dataset", "--grid", "--box", "--config",
                "--seed", "--last-layer-only")
    p.add_argument("--out", required=True, help="tuned checkpoint path")
    _add_shared(p, "--report")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sensitivity", help="per-layer pooled worst-case "
                                           "gradient magnitudes over seeds")
    _add_shared(p, "--dataset", "--grid")
    p.add_argument("--arch", default="8,8")
    p.add_argument("--seeds", default="0,1,2,3,4")
    _add_shared(p, "--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("report", help="tabulate training summaries and "
                                      "certificates side by side")
    p.add_argument("reports", nargs="+", help="summary or certificate JSONs")
    _add_shared(p, "--grid")
    p.add_argument("--out", help="also write the table as JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WcopfError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
