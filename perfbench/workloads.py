"""The benchmark's workloads: fixtures built in set-up, the timed operations,
and the independent checks of their outputs.

Every workload trains its nets from a fixed recipe (dataset seed, init
seeds, settings) and draws from --seed the demand boxes the nets are
certified over.  Nets trained from different data or init seeds differ
by up to 3x in certified violation, validation error and B&B work, more
than any bound allows; a box drawn inside the unit box (each side moved
in by up to JITTER) changes every certificate, witness and trained byte
while keeping the amount of work comparable from seed to seed.

The package is driven only through its public functions, looked up on
their modules at call time so the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import wcopf.cli as wcli
import wcopf.grid as wgrid
import wcopf.mlp as wmlp
import wcopf.train as wtrain
import wcopf.verifier as wver

import checks

CASE = "case9"
DATA_SEED = 0
JITTER = 0.02
NN_RECIPE = dict(epochs=400, alpha=3e-3)


@dataclass
class Op:
    """One timed operation; run(round_dir) returns (record, payload) where
    record must repeat exactly and payload feeds the checks."""

    name: str
    run: object


@dataclass
class Fixture:
    ops: list
    digest: str
    quality: object       # callable(payloads) -> (final_v_g, final_val_mae)
    check: object         # callable(payloads) -> {op name: [problems]}


def _grid_path(root):
    return os.path.join(root, "src", "wcopf", "grid", "cases", f"{CASE}.json")


def _box(rng, dim):
    return wver.Box(rng.uniform(0.0, JITTER, dim), 1.0 - rng.uniform(0.0, JITTER, dim))


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _data_digest(data):
    return _digest(data.inputs.tobytes(), data.targets.tobytes(), data.split.tolist())


def cert_record(cert):
    return {"value": cert.value, "bound": cert.bound, "status": cert.status,
            "constraint": list(cert.constraint_id) if cert.constraint_id else None,
            "nodes_explored": cert.nodes_explored,
            "witness": None if cert.witness is None else [float(v) for v in cert.witness]}


def _dispatch_sample(root, data, n=24):
    idx = np.linspace(0, data.inputs.shape[0] - 1, n).astype(int)
    return checks.check_dispatch(_grid_path(root), data.inputs[idx], data.targets[idx])


# -- certify -----------------------------------------------------------------

# (architecture, init seed); seeds chosen so each tree stays near 100-300
# nodes and the suite certifies in about 5 s, leaving room for rounds
CERTIFY_SUITE = [((24,), 4), ((8, 8), 4), ((12, 12), 2)]


def certify(root, workdir, seed):
    """solve_worst_case over a suite of nn-trained nets, one box each."""
    grid = wgrid.builtin_grid(CASE)
    data = wgrid.generate_dataset(grid, 400, DATA_SEED)
    gen_box = wtrain.scaled_gen_box(data)
    rng = np.random.default_rng(seed)
    nets = []
    for arch, init in CERTIFY_SUITE:
        params, report = wtrain.train_standard(
            data, arch, wtrain.TrainConfig(seed=init, **NN_RECIPE))
        nets.append((f"{'x'.join(map(str, arch))}-s{init}", params, report,
                     _box(rng, data.n_inputs)))

    def solve(params, box):
        def run(_rdir):
            cert = wver.solve_worst_case(params, box, gen_box)
            return cert_record(cert), cert
        return run

    ops = [Op(name, solve(params, box)) for name, params, _, box in nets]

    def quality(payloads):
        return (float(np.mean([payloads[n].value for n, *_ in nets])),
                float(np.mean([r.final_val_mae for _, _, r, _ in nets])))

    def check(payloads):
        out = {"dataset": _dispatch_sample(root, data)}
        for name, params, _, box in nets:
            out[name] = checks.check_certificate(params, payloads[name], box.lo, box.hi,
                                                 gen_box.lo, gen_box.hi)
        return out

    digest = _digest(_data_digest(data), [wmlp.params_checksum(p) for _, p, _, _ in nets],
                     [[b.lo.tolist(), b.hi.tolist()] for *_, b in nets])
    return Fixture(ops, digest, quality, check)


# -- wc-train ----------------------------------------------------------------

def wc_train(root, workdir, seed):
    """Worst-case training and fine-tuning with the verifier in the loop."""
    grid = wgrid.builtin_grid(CASE)
    data = wgrid.generate_dataset(grid, 400, DATA_SEED)
    gen_box = wtrain.scaled_gen_box(data)
    rng = np.random.default_rng(seed)
    nn_params, _ = wtrain.train_standard(data, (8,), wtrain.TrainConfig(seed=3, **NN_RECIPE))
    ckpt = os.path.join(workdir, "nn.json")
    wmlp.save_model(ckpt, nn_params, data.input_scaler, data.output_scaler)
    start = wmlp.load_model(ckpt)[0]
    runs = {
        "wcnn-8": (lambda box: wtrain.train_wcnn(
            data, gen_box, (8,), wtrain.TrainConfig(
                epochs=170, warmup=50, wc_every=2, alpha=3e-3, seed=1), box=box)),
        "wcnn-6x6": (lambda box: wtrain.train_wcnn(
            data, gen_box, (6, 6), wtrain.TrainConfig(
                epochs=150, warmup=50, wc_every=5, alpha=3e-3, seed=2), box=box)),
        "finetune-8": (lambda box: wtrain.finetune_sequential(
            start, data, gen_box, wtrain.TrainConfig(alpha=3e-3, max_iters=8), box=box)),
    }
    boxes = {name: _box(rng, data.n_inputs) for name in runs}

    def op(name):
        def run(_rdir):
            params, report = runs[name](boxes[name])
            warnings = [r.warning for r in report.records if r.warning]
            record = {"params_sha256": report.params_sha256, "final_v_g": report.final_v_g,
                      "final_val_mae": report.final_val_mae, "epochs": len(report.records),
                      "verified": len(report.v_g_epochs()), "stopped": report.stopped,
                      "warnings": warnings}
            return record, (params, report)
        return run

    def quality(payloads):
        return (float(np.mean([payloads[n][1].final_v_g for n in runs])),
                float(np.mean([payloads[n][1].final_val_mae for n in runs])))

    def check(payloads):
        out = {"dataset": _dispatch_sample(root, data)}
        for name in runs:
            params, report = payloads[name]
            box = boxes[name]
            cert = wver.solve_worst_case(params, box, gen_box)
            problems = checks.check_certificate(params, cert, box.lo, box.hi,
                                                gen_box.lo, gen_box.hi)
            if cert.value != report.final_v_g:
                problems.append(f"re-certified v_g {cert.value!r} != report {report.final_v_g!r}")
            problems += [f"in-loop verification: {r.warning}"
                         for r in report.records if r.warning]
            out[name] = problems
        return out

    digest = _digest(_data_digest(data), wmlp.params_checksum(start),
                     {n: [b.lo.tolist(), b.hi.tolist()] for n, b in boxes.items()})
    return Fixture([Op(n, op(n)) for n in runs], digest, quality, check)


# -- pipeline ----------------------------------------------------------------

PIPE_TRAIN = {"epochs": 100, "alpha": 0.003, "batch_size": 64}
PIPE_FINETUNE = {"alpha": 0.003, "max_iters": 10}


def _file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pipeline(root, workdir, seed):
    """The CLI end to end, in process, in a fresh directory per round."""
    rng = np.random.default_rng(seed)
    # the CLI's default demand box 0.6:1.0, each end moved in by up to JITTER of its width
    lo_f, hi_f = 0.6 + 0.4 * rng.uniform(0.0, JITTER), 1.0 - 0.4 * rng.uniform(0.0, JITTER)
    box = f"{lo_f!r}:{hi_f!r}"
    commands = [
        ("gen-data", ["gen-data", "--grid", CASE, "--n", "1500", "--seed", "0",
                      "--out", "data.csv"]),
        ("train-nn", ["train", "--dataset", "data.csv", "--grid", CASE, "--mode", "nn",
                      "--arch", "8", "--seed", "0", "--config", "train.json",
                      "--out", "nn.json"]),
        ("train-gennn", ["train", "--dataset", "data.csv", "--grid", CASE,
                         "--mode", "gennn", "--arch", "8", "--seed", "0",
                         "--config", "train.json", "--out", "gennn.json"]),
        ("verify", ["verify", "--model", "nn.json", "--grid", CASE, "--box", box,
                    "--out", "nn.cert.json"]),
        ("finetune", ["finetune", "--model", "nn.json", "--dataset", "data.csv",
                      "--grid", CASE, "--box", box, "--config", "ft-config.json",
                      "--out", "ft.json"]),
    ]

    def op(argv):
        def run(rdir):
            if argv[0] == "gen-data":  # a user writes the configs before the first command
                for name, config in (("train.json", PIPE_TRAIN),
                                     ("ft-config.json", PIPE_FINETUNE)):
                    with open(os.path.join(rdir, name), "w", encoding="utf-8") as fh:
                        json.dump(config, fh)
            before = set(os.listdir(rdir))
            cwd = os.getcwd()
            printed = io.StringIO()
            os.chdir(rdir)
            try:
                with contextlib.redirect_stdout(printed):
                    code = wcli.main(argv)
            finally:
                os.chdir(cwd)
            if code != 0:
                raise RuntimeError(f"wcopf {argv[0]} exited with code {code}")
            made = sorted(set(os.listdir(rdir)) - before)
            return {"stdout": printed.getvalue(),
                    "files": {f: _file_sha(os.path.join(rdir, f)) for f in made}}, rdir
        return run

    def doc(rdir, name):
        with open(os.path.join(rdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    nets = {"train-nn": "nn", "train-gennn": "gennn", "finetune": "ft"}

    def quality(payloads):
        rdir = payloads["finetune"]
        summaries = [doc(rdir, f"{stem}.report.summary.json") for stem in nets.values()]
        return (float(np.mean([s["final_v_g"] for s in summaries])),
                float(np.mean([s["final_val_mae"] for s in summaries])))

    def check(payloads):
        rdir = payloads["finetune"]
        with open(_grid_path(root), encoding="utf-8") as fh:
            grid_doc = json.load(fh)
        nominal = np.array([ld["nominal"] for ld in grid_doc["loads"]], float)
        p_min = np.array([g["p_min"] for g in grid_doc["generators"]], float)
        p_max = np.array([g["p_max"] for g in grid_doc["generators"]], float)
        out = {}
        rows = np.loadtxt(os.path.join(rdir, "data.csv"), delimiter=",", skiprows=1,
                          usecols=range(len(nominal) + len(p_min)))
        idx = np.linspace(0, rows.shape[0] - 1, 40).astype(int)
        out["gen-data"] = checks.check_dispatch(_grid_path(root), rows[idx, :len(nominal)],
                                                rows[idx, len(nominal):])

        def scaled(stem, fractions):
            model = doc(rdir, f"{stem}.json")
            params = SimpleNamespace(weights=[np.array(w) for w in model["weights"]],
                                     biases=[np.array(b) for b in model["biases"]])
            sin, sout = model["input_scaler"], model["output_scaler"]
            to_in = lambda raw: (raw - np.array(sin["offset"])) / np.array(sin["scale"])
            to_out = lambda raw: (raw - np.array(sout["offset"])) / np.array(sout["scale"])
            return (params, to_in(fractions[0] * nominal), to_in(fractions[1] * nominal),
                    to_out(p_min), to_out(p_max))

        cert_doc = doc(rdir, "nn.cert.json")
        params, lo, hi, g_lo, g_hi = scaled("nn", (lo_f, hi_f))
        cert = SimpleNamespace(
            value=cert_doc["v_g"], bound=cert_doc["bound"], status=cert_doc["status"],
            witness=cert_doc["witness"],
            constraint_id=(None if cert_doc["constraint"] is None else
                           (cert_doc["constraint"]["generator"], cert_doc["constraint"]["side"])))
        out["verify"] = checks.check_certificate(params, cert, lo, hi, g_lo, g_hi)
        for name, stem in nets.items():
            fractions = (lo_f, hi_f) if name == "finetune" else (0.6, 1.0)
            params, lo, hi, g_lo, g_hi = scaled(stem, fractions)
            optimum, _ = checks.highs_worst_case(params, lo, hi, g_lo, g_hi)
            reported = doc(rdir, f"{stem}.report.summary.json")["final_v_g"]
            out[name] = []
            if abs(optimum - reported) > checks.TOL:
                out[name].append(f"final v_g {reported!r} differs from HiGHS {optimum!r}")
        return out

    return Fixture([Op(n, op(argv)) for n, argv in commands],
                   _digest(box, PIPE_TRAIN, PIPE_FINETUNE), quality, check)


WORKLOADS = {"certify": certify, "wc-train": wc_train, "pipeline": pipeline}
