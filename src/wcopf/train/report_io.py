"""Report files: JSON lines per epoch plus a one-document summary.

Each line is an EpochRecord's fields and the summary is a TrainReport's
(summary_document), so a new field of either lands in the files with no
second edit.  Floats are rendered with 17 significant digits so every
value round-trips exactly and identical runs produce identical bytes.
The per-epoch wall_time field is the one nondeterministic value, and
cli._save_run zeroes it before a run's files are written; a new timing
field must be zeroed there too.
"""

import json
import math
from dataclasses import fields

import numpy as np

from ..errors import SchemaError, read_json


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
    """Every TrainReport field but records, plus n_epochs and v_g_epochs;
    warning only when it is set."""
    doc = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "records"}
    if doc["warning"] is None:
        del doc["warning"]
    doc.update(n_epochs=len(report.records), v_g_epochs=report.v_g_epochs())
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
    doc = read_json(summary_path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{summary_path}: expected a JSON object")
    return doc
