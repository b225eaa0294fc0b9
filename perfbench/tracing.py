"""Span tracing around wcopf's public functions, installed from outside.

The package imports its own functions by name (``from ..simplex import
solve_lp`` inside ``verifier/milp.py``, ``verifier/patterns.py`` and
``grid/dcopf.py``), so a wrapper has to replace the attribute in every
module that calls it.  ``Tracer.install`` does that for the call sites in
``SITES`` and ``Tracer.uninstall`` puts every original back.  Spans
(name, start, end, parent, payload) stay in memory; ``layer_metrics``
turns them into the per-layer numbers.
"""

import importlib
import time
from dataclasses import dataclass, field

import numpy as np

from wcopf.errors import NumericalBreakdown
from wcopf.simplex import LpStatus

# (span name, defining module, attribute, modules whose binding is replaced)
SITES = [
    ("simplex.node_lp", "wcopf.simplex", "solve_lp", ["wcopf.verifier.milp"]),
    ("simplex.polish_lp", "wcopf.simplex", "solve_lp", ["wcopf.verifier.patterns"]),
    ("simplex.dispatch_lp", "wcopf.simplex", "solve_lp", ["wcopf.grid.dcopf"]),
    ("verifier.solve", "wcopf.verifier.milp", "solve_worst_case",
     ["wcopf.verifier", "wcopf.train.loops", "wcopf.train.sequential",
      "wcopf.train.sensitivity", "wcopf.cli"]),
    ("verifier.bounds", "wcopf.verifier.bounds", "interval_bounds",
     ["wcopf.verifier.milp"]),
    ("verifier.polish", "wcopf.verifier.patterns", "worst_case_fixed_pattern",
     ["wcopf.verifier.milp"]),
    ("verifier.wc_gradient", "wcopf.verifier.gradient", "worst_case_gradient",
     ["wcopf.verifier", "wcopf.train.loops", "wcopf.train.sequential",
      "wcopf.train.sensitivity"]),
    ("verifier.forward", "wcopf.mlp.network", "forward", ["wcopf.verifier.milp"]),
    ("mlp.forward_batch", "wcopf.mlp.network", "forward_batch",
     ["wcopf.mlp.losses", "wcopf.mlp.fisher"]),
    ("mlp.gradient", "wcopf.mlp.losses", "gradient", ["wcopf.train.loops"]),
    ("mlp.adam", "wcopf.mlp.optimizer", "adam_step", ["wcopf.train.loops"]),
    ("mlp.loss_mae", "wcopf.mlp.losses", "loss_mae",
     ["wcopf.train.loops", "wcopf.train.sequential"]),
    ("mlp.fisher", "wcopf.mlp.fisher", "fisher_diag", ["wcopf.train.sequential"]),
    ("mlp.checkpoint", "wcopf.mlp.checkpoint", "params_checksum",
     ["wcopf.train.loops", "wcopf.train.sequential"]),
    ("mlp.checkpoint", "wcopf.mlp.checkpoint", "save_model", ["wcopf.mlp", "wcopf.cli"]),
    ("mlp.checkpoint", "wcopf.mlp.checkpoint", "load_model", ["wcopf.mlp", "wcopf.cli"]),
    ("grid.gen_data", "wcopf.grid.dataset", "generate_dataset",
     ["wcopf.grid", "wcopf.cli"]),
    ("grid.dispatch", "wcopf.grid.dcopf", "solve_dcopf", ["wcopf.grid.dataset"]),
    ("grid.ptdf", "wcopf.grid.ptdf", "compute_ptdf", ["wcopf.grid.dataset"]),
    ("grid.lhs", "wcopf.grid.sampling", "sample_demands_lhs", ["wcopf.grid.dataset"]),
    ("grid.dataset_io", "wcopf.grid.dataset", "save_dataset", ["wcopf.grid", "wcopf.cli"]),
    ("grid.dataset_io", "wcopf.grid.dataset", "load_dataset", ["wcopf.grid", "wcopf.cli"]),
    ("train.run", "wcopf.train.loops", "train_standard", ["wcopf.train", "wcopf.cli"]),
    ("train.run", "wcopf.train.loops", "train_gennn", ["wcopf.train", "wcopf.cli"]),
    ("train.run", "wcopf.train.loops", "train_wcnn", ["wcopf.train", "wcopf.cli"]),
    ("train.finetune", "wcopf.train.sequential", "finetune_sequential",
     ["wcopf.train", "wcopf.cli"]),
    ("cli.gen_data", "wcopf.cli", "cmd_gen_data", ["wcopf.cli"]),
    ("cli.train", "wcopf.cli", "cmd_train", ["wcopf.cli"]),
    ("cli.verify", "wcopf.cli", "cmd_verify", ["wcopf.cli"]),
    ("cli.finetune", "wcopf.cli", "cmd_finetune", ["wcopf.cli"]),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _payload(name, result):
    """Counters read from a wrapped call's return value."""
    if name.startswith("simplex."):
        return {"pivots": result.iteration_count,
                "infeasible": result.status == LpStatus.INFEASIBLE}
    if name == "verifier.solve":
        return {"nodes": result.nodes_explored, "status": result.status}
    if name == "verifier.bounds":
        pre = result[0]
        return {"unstable": int(sum(np.sum((lo < 0.0) & (hi > 0.0))
                                    for lo, hi in zip(pre.lower, pre.upper)))}
    if name == "grid.dispatch":
        return {"infeasible": result.status != LpStatus.OPTIMAL}
    if name == "grid.gen_data":
        return {"samples": int(result.inputs.shape[0])}
    if name in ("train.run", "train.finetune"):
        records = result[1].records
        return {"plain_ms": [1e3 * r.wall_time for r in records if r.v_g is None],
                "verified_ms": [1e3 * r.wall_time for r in records if r.v_g is not None],
                "epochs": len(records)}
    return {}


class Tracer:
    """Wraps every call site in SITES; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except NumericalBreakdown:
                span.info["breakdown"] = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info.update(_payload(name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, home, attr, callers in SITES:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original)
            for caller in callers:
                module = importlib.import_module(caller)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self):
        """Restore every replaced attribute; returns the ones that failed."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        broken = [f"{m.__name__}.{a}" for m, a, o in self._saved
                  if getattr(m, a) is not o]
        self._saved = []
        return broken


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, pass_wall_s):
    """Per-layer metrics from one traced pass.

    Returns {name: (value, unit, base)} where base names the numerator and
    denominator of a ratio, or is None.
    """
    by_name = {}
    child_s = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            child_s[s.parent] += s.duration
    self_s = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child_s[i]

    def group(name):
        return by_name.get(name, [])

    def total(*names):
        return float(sum(s.duration for n in names for s in group(n)))

    def count(name, key=None):
        return sum(1 for s in group(name) if key is None or s.info.get(key))

    def summed(name, key):
        return sum(s.info.get(key, 0) for s in group(name))

    def selfs(*names):
        return float(sum(self_s.get(n, 0.0) for n in names))

    m = {}
    for lp in ("node_lp", "polish_lp", "dispatch_lp"):
        n = f"simplex.{lp}"
        m[f"{n}.calls"] = (count(n), "count", None)
        m[f"{n}.pivots"] = (summed(n, "pivots"), "count", None)
        m[f"{n}.s"] = (total(n), "s", None)
    m["simplex.node_lp.infeasible"] = (count("simplex.node_lp", "infeasible"), "count", None)
    node_calls = m["simplex.node_lp.calls"][0]
    node_piv = m["simplex.node_lp.pivots"][0]
    m["simplex.node_lp.pivots_per_call"] = (
        _ratio(node_piv, node_calls), "pivots/call",
        f"{node_piv} pivots / {node_calls} node LPs")
    m["simplex.breakdowns"] = (
        sum(count(f"simplex.{lp}", "breakdown")
            for lp in ("node_lp", "polish_lp", "dispatch_lp")), "count", None)

    solves = group("verifier.solve")
    solve_ms = [1e3 * s.duration for s in solves]
    solve_s = total("verifier.solve")
    bounds = group("verifier.bounds")
    m["verifier.solve.calls"] = (len(solves), "count", None)
    m["verifier.solve.s"] = (solve_s, "s", None)
    m["verifier.solve.p50_ms"] = (_pct(solve_ms, 50), "ms", f"{len(solves)} solves")
    m["verifier.solve.p90_ms"] = (_pct(solve_ms, 90), "ms", f"{len(solves)} solves")
    m["verifier.solve.max_ms"] = (max(solve_ms, default=0.0), "ms", f"{len(solves)} solves")
    m["verifier.bb_nodes"] = (node_calls, "count", "one node LP per B&B node")
    m["verifier.nodes_per_solve"] = (_ratio(node_calls, len(solves)), "nodes/solve",
                                     f"{node_calls} nodes / {len(solves)} solves")
    node_inf = m["simplex.node_lp.infeasible"][0]
    m["verifier.node_lp_infeasible_frac"] = (
        _ratio(node_inf, node_calls), "ratio",
        f"{node_inf} infeasible / {node_calls} node LPs")
    m["verifier.uncertified"] = (
        sum(1 for s in solves if s.info.get("status") != "certified"), "count",
        f"of {len(solves)} solves")
    unstable = sum(s.info.get("unstable", 0) for s in bounds)
    m["verifier.unstable_units"] = (_ratio(unstable, len(bounds)), "units/solve",
                                    f"{unstable} unstable units / {len(bounds)} encodings")
    m["verifier.bounds.s"] = (total("verifier.bounds"), "s", None)
    m["verifier.polish.calls"] = (count("verifier.polish"), "count", None)
    m["verifier.polish.s"] = (total("verifier.polish"), "s", None)
    m["verifier.wc_gradient.s"] = (total("verifier.wc_gradient"), "s", None)
    m["verifier.forward.calls"] = (count("verifier.forward"), "count", None)
    m["verifier.self_s"] = (selfs("verifier.solve"), "s", None)
    m["verifier.share"] = (_ratio(solve_s, pass_wall_s), "ratio",
                           f"{solve_s:.4f} s in solve_worst_case / "
                           f"{pass_wall_s:.4f} s traced pass")

    for key, name in (("gradient", "mlp.gradient"), ("adam", "mlp.adam"),
                      ("loss_mae", "mlp.loss_mae")):
        m[f"mlp.{key}.calls"] = (count(name), "count", None)
        m[f"mlp.{key}.s"] = (total(name), "s", None)
    m["mlp.forward.s"] = (total("mlp.forward_batch", "verifier.forward"), "s", None)
    m["mlp.fisher.s"] = (total("mlp.fisher"), "s", None)
    m["mlp.checkpoint.s"] = (total("mlp.checkpoint"), "s", None)

    gen_s = total("grid.gen_data")
    samples = summed("grid.gen_data", "samples")
    m["grid.gen_data.s"] = (gen_s, "s", None)
    m["grid.samples_per_s"] = (_ratio(samples, gen_s), "1/s",
                               f"{samples} samples / {gen_s:.4f} s")
    m["grid.dispatch.calls"] = (count("grid.dispatch"), "count", None)
    m["grid.dispatch.s"] = (total("grid.dispatch"), "s", None)
    m["grid.dispatch.self_s"] = (selfs("grid.dispatch"), "s", None)
    m["grid.dispatch.infeasible"] = (count("grid.dispatch", "infeasible"), "count", None)
    m["grid.ptdf.s"] = (total("grid.ptdf"), "s", None)
    m["grid.lhs.s"] = (total("grid.lhs"), "s", None)
    m["grid.dataset_io.s"] = (total("grid.dataset_io"), "s", None)

    runs = group("train.run")
    fts = group("train.finetune")
    plain = [v for s in runs for v in s.info.get("plain_ms", [])]
    verified = [v for s in runs for v in s.info.get("verified_ms", [])]
    m["train.runs"] = (len(runs) + len(fts), "count", None)
    m["train.epochs"] = (sum(s.info.get("epochs", 0) for s in runs), "count", None)
    m["train.verified_epochs"] = (len(verified), "count", None)
    m["train.epoch_plain.p50_ms"] = (_pct(plain, 50), "ms", f"{len(plain)} epochs")
    m["train.epoch_verified.p50_ms"] = (_pct(verified, 50), "ms", f"{len(verified)} epochs")
    m["train.epoch_verified.p90_ms"] = (_pct(verified, 90), "ms", f"{len(verified)} epochs")
    m["train.finetune.iters"] = (sum(s.info.get("epochs", 0) for s in fts), "count", None)
    m["train.finetune.s"] = (total("train.finetune"), "s", None)
    m["train.self_s"] = (selfs("train.run", "train.finetune"), "s", None)

    for cmd in ("gen_data", "train", "verify", "finetune"):
        m[f"cli.{cmd}.s"] = (total(f"cli.{cmd}"), "s", None)
    m["cli.self_s"] = (selfs("cli.gen_data", "cli.train", "cli.verify", "cli.finetune"),
                       "s", None)
    return m


def cert_nodes_total(spans):
    """Sum of WorstCaseCert.nodes_explored over every traced verification."""
    return sum(s.info.get("nodes", 0) for s in spans if s.name == "verifier.solve")


def dispatch_calls(spans):
    return sum(1 for s in spans if s.name == "grid.dispatch")


def spans_document(spans):
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent} for s in spans]
