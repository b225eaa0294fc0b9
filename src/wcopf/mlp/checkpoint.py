"""Model checkpoints as JSON with exact float round-trip."""

import hashlib
import json

import numpy as np

from ..errors import SchemaError, ShapeMismatch, read_json
from ..grid.dataset import Scaler
from .network import MlpParams

_KEYS = {"layer_dims", "weights", "biases", "input_scaler", "output_scaler", "meta"}


def model_document(params, input_scaler, output_scaler, meta=None):
    return {
        "layer_dims": list(params.layer_dims),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "input_scaler": {"offset": input_scaler.offset.tolist(),
                         "scale": input_scaler.scale.tolist()},
        "output_scaler": {"offset": output_scaler.offset.tolist(),
                          "scale": output_scaler.scale.tolist()},
        "meta": meta or {},
    }


def model_json(params, input_scaler, output_scaler, meta=None):
    """Serialized checkpoint; float repr round-trips every value exactly."""
    doc = model_document(params, input_scaler, output_scaler, meta)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_model(path, params, input_scaler, output_scaler, meta=None):
    text = model_json(params, input_scaler, output_scaler, meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_model(path):
    """Returns (params, input_scaler, output_scaler, meta)."""
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) != _KEYS:
        raise SchemaError(f"{path}: malformed checkpoint keys")
    try:
        params = MlpParams(layer_dims=list(doc["layer_dims"]),
                           weights=[np.array(w, dtype=float) for w in doc["weights"]],
                           biases=[np.array(b, dtype=float) for b in doc["biases"]])
        in_scaler = Scaler(offset=np.array(doc["input_scaler"]["offset"], dtype=float),
                           scale=np.array(doc["input_scaler"]["scale"], dtype=float))
        out_scaler = Scaler(offset=np.array(doc["output_scaler"]["offset"], dtype=float),
                            scale=np.array(doc["output_scaler"]["scale"], dtype=float))
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise SchemaError(f"{path}: malformed checkpoint: {exc}") from exc
    return params, in_scaler, out_scaler, doc["meta"]


def params_checksum(params):
    """Checksum of the parameters alone (no scalers, no metadata)."""
    doc = {"layer_dims": list(params.layer_dims),
           "weights": [w.tolist() for w in params.weights],
           "biases": [b.tolist() for b in params.biases]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def file_checksum(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
