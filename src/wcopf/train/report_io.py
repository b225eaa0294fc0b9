"""Report files: JSON lines per epoch plus a one-document summary.

Floats are rendered with 17 significant digits so every value
round-trips exactly and identical runs produce identical bytes; the
per-epoch wall_time field is the one intentionally nondeterministic
value and comparisons must ignore it.
"""

import json
import math

import numpy as np

from ..errors import SchemaError


def _render_float(v):
    if not math.isfinite(v):
        raise ValueError("nonfinite float in report")
    s = format(v, ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def render_json(obj):
    """Compact JSON with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {render_json(v)}"
                               for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, doc):
    """Write doc to path as one render_json line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(render_json(doc) + "\n")


def summary_document(report):
    doc = {"mode": report.mode,
           "layer_dims": list(report.layer_dims),
           "n_epochs": len(report.records),
           "final_train_l0": report.final_train_l0,
           "final_val_mae": report.final_val_mae,
           "final_test_mae": report.final_test_mae,
           "final_v_g": report.final_v_g,
           "final_v_g_raw": report.final_v_g_raw,
           "final_bound": report.final_bound,
           "final_status": report.final_status,
           "params_sha256": report.params_sha256,
           "stopped": report.stopped,
           "v_g_epochs": report.v_g_epochs(),
           "config": report.config}
    if report.warning is not None:
        doc["warning"] = report.warning
    return doc


def summary_path_for(jsonl_path):
    base = str(jsonl_path)
    if base.endswith(".jsonl"):
        base = base[: -len(".jsonl")]
    return base + ".summary.json"


def save_report(report, jsonl_path):
    """Write per-epoch lines and the summary; returns the summary path."""
    summary_path = summary_path_for(jsonl_path)
    with open(jsonl_path, "w", newline="\n") as fh:
        for record in report.records:
            fh.write(render_json(record.to_dict()) + "\n")
    write_json(summary_path, summary_document(report))
    return summary_path


def load_summary(summary_path):
    """A summary or certificate document; SchemaError unless it is a
    JSON object."""
    with open(summary_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{summary_path}: invalid JSON at line {exc.lineno}: "
                              f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{summary_path}: expected a JSON object")
    return doc
