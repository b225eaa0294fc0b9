"""Command line entry point for datasets, training, verification and reports.

Every command resolves its inputs, writes a run manifest (command,
resolved configuration, input checksums, output paths, seed, tool
version) next to the primary output, and only then starts computing.
Identical invocations produce byte-identical output files; wall-clock
timings never enter the files.

Exit codes: 0 success, 2 malformed input, 3 dataset generation ran out
of feasible samples, 4 training diverged, 5 verification hit the node
limit with a gap remaining.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .errors import (NumericalBreakdown, SchemaError, TooManyInfeasible,
                     TrainingDiverged, WcopfError)
from .grid import (BUILTIN_CASES, generate_dataset, load_dataset, load_grid,
                   rescale_with_grid, save_dataset)
from .grid.dataset import DATA_BOX, split_sizes
from .mlp import file_checksum, load_model, save_model
from .train import (TrainConfig, config_from_dict, finetune_sequential,
                    layer_sensitivity, load_config, load_summary,
                    raw_violation, render_json, save_report, save_sensitivity,
                    summary_path_for, train_gennn, train_standard, train_wcnn)
from .verifier import (DEFAULT_NODE_LIMIT, Box, save_certificate,
                       solve_worst_case)

_EXIT_SCHEMA = 2
_EXIT_INFEASIBLE = 3
_EXIT_DIVERGED = 4
_EXIT_GAP = 5


# -- argument helpers --------------------------------------------------------

def _load_grid_arg(value):
    """Grid argument: a JSON path, or the name of a bundled case."""
    if not os.path.exists(value) and value in BUILTIN_CASES:
        text = _builtin_text(value)
        import json
        from .grid import grid_from_dict
        return grid_from_dict(json.loads(text))
    return load_grid(value)


def _builtin_text(name):
    return resources.files("wcopf.grid").joinpath(f"cases/{name}.json").read_text("utf-8")


def _grid_input_entry(value):
    """(label, checksum) for the manifest; builtin cases hash the bundled text."""
    if not os.path.exists(value) and value in BUILTIN_CASES:
        digest = hashlib.sha256(_builtin_text(value).encode("utf-8")).hexdigest()
        return f"builtin:{value}", digest
    return value, file_checksum(value)


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


def _parse_arch(spec):
    spec = spec.strip()
    if not spec:
        return ()
    try:
        dims = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise SchemaError(f"bad architecture {spec!r}; expected h1,h2,...") from None
    if any(d <= 0 for d in dims):
        raise SchemaError(f"bad architecture {spec!r}; widths must be positive")
    return dims


def _parse_seeds(spec):
    try:
        seeds = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise SchemaError(f"bad seed list {spec!r}; expected s1,s2,...") from None
    if not seeds:
        raise SchemaError("empty seed list")
    return seeds


def _bool_flag(value):
    if value == "true":
        return True
    if value == "false":
        return False
    raise argparse.ArgumentTypeError("expected true or false")


def _resolve_config(args, **extra):
    overrides = {"seed": getattr(args, "seed", None),
                 "wc_every": getattr(args, "wc_every", None),
                 "last_layer_only": getattr(args, "last_layer_only", None)}
    overrides.update(extra)
    if getattr(args, "config", None):
        return load_config(args.config, overrides)
    return config_from_dict({}, overrides)


# -- scaled-space geometry ---------------------------------------------------

def _check_model_matches_grid(params, grid, what):
    if params.n_inputs != grid.n_load or params.n_outputs != grid.n_gen:
        raise SchemaError(
            f"{what}: model maps {params.n_inputs} -> {params.n_outputs} but the "
            f"grid has {grid.n_load} loads and {grid.n_gen} generators")


def _demand_box(grid, input_scaler, fractions):
    """The demand region [lo, hi] * nominal mapped into scaled inputs."""
    lo_f, hi_f = fractions
    nominal = grid.nominal_demand()
    return Box(input_scaler.transform(lo_f * nominal),
               input_scaler.transform(hi_f * nominal))


def _gen_box(grid, output_scaler):
    """Generator limits [p_min, p_max] mapped into scaled outputs."""
    p_min = np.array([g.p_min for g in grid.generators], dtype=float)
    p_max = np.array([g.p_max for g in grid.generators], dtype=float)
    return Box(output_scaler.transform(p_min), output_scaler.transform(p_max))


def _strip_wall_times(report):
    records = [dataclasses.replace(r, wall_time=0.0) for r in report.records]
    return dataclasses.replace(report, records=records)


def _v_g_text(report):
    if report.final_v_g is None:
        return "unknown"
    return f"{report.final_v_g:.6f} ({report.final_v_g_raw:.3f} MW)"


def _write_manifest(command, inputs, outputs, seed=None, config=None):
    doc = {"command": command,
           "version": __version__,
           "seed": seed,
           "config": config,
           "inputs": dict(inputs),
           "outputs": [str(p) for p in outputs]}
    path = str(outputs[0]) + ".manifest.json"
    with open(path, "w", newline="\n") as fh:
        fh.write(render_json(doc) + "\n")
    return path


# -- commands ----------------------------------------------------------------

def cmd_gen_data(args):
    grid_label, grid_sum = _grid_input_entry(args.grid)
    grid = _load_grid_arg(args.grid)
    _write_manifest("gen-data", inputs=[(grid_label, grid_sum)],
                    outputs=[args.out], seed=args.seed,
                    config={"n": args.n, "box": list(DATA_BOX)})
    dataset = generate_dataset(grid, args.n, args.seed)
    save_dataset(dataset, args.out)
    n_tr, n_va, n_te = split_sizes(args.n)
    print(f"wrote {args.out}: {args.n} samples "
          f"({n_tr} train / {n_va} val / {n_te} test)")
    return 0


def cmd_train(args):
    grid_label, grid_sum = _grid_input_entry(args.grid)
    grid = _load_grid_arg(args.grid)
    dataset = rescale_with_grid(load_dataset(args.dataset), grid)
    config = _resolve_config(args)
    arch = _parse_arch(args.arch)
    report_path = args.report or os.path.splitext(args.out)[0] + ".report.jsonl"

    inputs = [(args.dataset, file_checksum(args.dataset)), (grid_label, grid_sum)]
    if args.config:
        inputs.append((args.config, file_checksum(args.config)))
    _write_manifest("train", inputs=inputs,
                    outputs=[args.out, report_path, summary_path_for(report_path)],
                    seed=config.seed,
                    config={"mode": args.mode, "arch": list(arch),
                            **config.to_dict()})

    gen_box = _gen_box(grid, dataset.output_scaler)
    demand_box = _demand_box(grid, dataset.input_scaler, DATA_BOX)
    if args.mode == "nn":
        params, report = train_standard(dataset, arch, config)
    elif args.mode == "gennn":
        params, report = train_gennn(dataset, arch, config, gen_bounds=gen_box)
    else:
        params, report = train_wcnn(dataset, gen_box, arch, config,
                                    box=demand_box)
    if args.mode != "wcnn":
        # modes that never verify still get a final certificate in the report
        try:
            cert = solve_worst_case(params, demand_box, gen_box,
                                    node_limit=config.node_limit)
        except NumericalBreakdown as exc:
            report = dataclasses.replace(
                report, warning=f"final verification failed ({exc})")
        else:
            report = dataclasses.replace(
                report, final_v_g=cert.value,
                final_v_g_raw=raw_violation(cert, dataset.output_scaler))
    report = _strip_wall_times(report)

    save_model(args.out, params, dataset.input_scaler, dataset.output_scaler,
               meta={"mode": args.mode, "seed": config.seed,
                     "arch": list(arch), "grid": grid_label})
    save_report(report, report_path)
    if report.warning is not None:
        print(f"warning: {report.warning}", file=sys.stderr)
    print(f"trained {args.mode} {list(report.layer_dims)}: "
          f"val MAE {report.final_val_mae:.6f}, v_g {_v_g_text(report)}")
    return 0


def cmd_verify(args):
    grid_label, grid_sum = _grid_input_entry(args.grid)
    grid = _load_grid_arg(args.grid)
    params, in_scaler, out_scaler, _meta = load_model(args.model)
    _check_model_matches_grid(params, grid, args.model)
    fractions = _parse_box(args.box)
    _write_manifest("verify",
                    inputs=[(args.model, file_checksum(args.model)),
                            (grid_label, grid_sum)],
                    outputs=[args.out],
                    config={"box": list(fractions),
                            "node_limit": args.node_limit})

    box = _demand_box(grid, in_scaler, fractions)
    gen_box = _gen_box(grid, out_scaler)
    cert = solve_worst_case(params, box, gen_box, node_limit=args.node_limit)
    v_mw = raw_violation(cert, out_scaler)
    max_load = float(np.sum(grid.nominal_demand()))
    pct = 100.0 * v_mw / max_load
    save_certificate(args.out, cert,
                     model_sha256=file_checksum(args.model),
                     extras={"v_g_mw": v_mw, "pct_max_loading": pct,
                             "box": list(fractions)})
    print(f"v_g = {v_mw:.6f} MW ({pct:.2f}% of max loading)")
    if not cert.certified:
        print(f"verification incomplete: bound gap {cert.gap:.6e} after "
              f"{cert.nodes_explored} nodes", file=sys.stderr)
        return _EXIT_GAP
    return 0


def cmd_finetune(args):
    grid_label, grid_sum = _grid_input_entry(args.grid)
    grid = _load_grid_arg(args.grid)
    params, _in_scaler, _out_scaler, meta = load_model(args.model)
    _check_model_matches_grid(params, grid, args.model)
    dataset = rescale_with_grid(load_dataset(args.dataset), grid)
    config = _resolve_config(args)
    fractions = _parse_box(args.box)
    report_path = args.report or os.path.splitext(args.out)[0] + ".report.jsonl"

    inputs = [(args.model, file_checksum(args.model)),
              (args.dataset, file_checksum(args.dataset)), (grid_label, grid_sum)]
    if args.config:
        inputs.append((args.config, file_checksum(args.config)))
    _write_manifest("finetune", inputs=inputs,
                    outputs=[args.out, report_path, summary_path_for(report_path)],
                    seed=config.seed,
                    config={"box": list(fractions), **config.to_dict()})

    box = _demand_box(grid, dataset.input_scaler, fractions)
    gen_box = _gen_box(grid, dataset.output_scaler)
    tuned, report = finetune_sequential(params, dataset, gen_box, config,
                                        box=box)
    report = _strip_wall_times(report)
    save_model(args.out, tuned, dataset.input_scaler, dataset.output_scaler,
               meta={"mode": "finetune", "seed": config.seed,
                     "arch": list(tuned.layer_dims[1:-1]), "grid": grid_label})
    save_report(report, report_path)
    v_before = report.records[0].v_g if report.records else None
    v_before = "unknown" if v_before is None else f"{v_before:.6f}"
    print(f"finetune stopped on {report.stopped}: v_g {v_before} -> "
          f"{_v_g_text(report)}, val MAE {report.final_val_mae:.6f}")
    return 0


def cmd_sensitivity(args):
    grid_label, grid_sum = _grid_input_entry(args.grid)
    grid = _load_grid_arg(args.grid)
    dataset = rescale_with_grid(load_dataset(args.dataset), grid)
    config = _resolve_config(args)
    arch = _parse_arch(args.arch)
    seeds = _parse_seeds(args.seeds)
    inputs = [(args.dataset, file_checksum(args.dataset)), (grid_label, grid_sum)]
    if args.config:
        inputs.append((args.config, file_checksum(args.config)))
    _write_manifest("sensitivity", inputs=inputs, outputs=[args.out],
                    config={"arch": list(arch), "seeds": list(seeds),
                            **config.to_dict()})
    gen_box = _gen_box(grid, dataset.output_scaler)
    box = _demand_box(grid, dataset.input_scaler, DATA_BOX)
    report = layer_sensitivity(arch, dataset, gen_box, seeds, config=config,
                               box=box)
    save_sensitivity(report, args.out)
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
    grid = _load_grid_arg(args.grid)
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
        doc = {"max_loading_mw": max_load, "rows": rows}
        with open(args.out, "w", newline="\n") as fh:
            fh.write(render_json(doc) + "\n")
    return 0


# -- wiring ------------------------------------------------------------------

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
    p.add_argument("--grid", required=True,
                   help="grid JSON path or bundled case name")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a dispatch predictor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--mode", choices=("nn", "gennn", "wcnn"), default="nn")
    p.add_argument("--arch", default="8", help="hidden widths, e.g. 8 or 8,8")
    p.add_argument("--config", help="flat JSON file of training settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--wc-every", type=int, dest="wc_every")
    p.add_argument("--last-layer-only", type=_bool_flag, dest="last_layer_only",
                   metavar="true|false")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--report", help="per-epoch JSONL path "
                                    "(default: <out>.report.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="certify the worst-case violation of a "
                                      "trained model over a demand box")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--box", default="0.6:1.0",
                   help="demand box as fractions of nominal, lo:hi")
    p.add_argument("--node-limit", type=int, dest="node_limit",
                   default=DEFAULT_NODE_LIMIT)
    p.add_argument("--out", required=True, help="certificate JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("finetune", help="reduce a trained model's certified "
                                        "violation with anchored updates")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--box", default="0.6:1.0")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--last-layer-only", type=_bool_flag, dest="last_layer_only",
                   metavar="true|false")
    p.add_argument("--out", required=True, help="tuned checkpoint path")
    p.add_argument("--report")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sensitivity", help="per-layer pooled worst-case "
                                           "gradient magnitudes over seeds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--arch", default="8,8")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("report", help="tabulate training summaries and "
                                      "certificates side by side")
    p.add_argument("reports", nargs="+", help="summary or certificate JSONs")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", help="also write the table as JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except TooManyInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except (WcopfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
