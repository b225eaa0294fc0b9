"""Training configuration shared by every training mode."""

import math
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real

from ..errors import SchemaError, read_json
from ..verifier.milp import DEFAULT_NODE_LIMIT

_REALS = ("alpha", "lambda0", "lambda_wc", "lambda_g", "lambda_ewc", "early_stop_rel")
# integer fields and their least value; batch_size may also be None (full batch)
_COUNTS = {"epochs": 0, "warmup": 0, "seed": 0, "batch_size": 1,
           "wc_every": 1, "max_iters": 1, "node_limit": 1}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the training loops and the sequential phase.

    lambda0 / lambda_g / lambda_wc / lambda_ewc weight the error loss,
    the generator-bound penalty, the worst-case violation term and the
    anchor (EWC) term.  warmup epochs run on the error loss alone before
    any verification; afterwards the verifier runs every wc_every
    epochs.  max_iters and early_stop_rel govern the sequential phase.
    """

    alpha: float = 1e-3
    epochs: int = 200
    warmup: int = 50
    lambda0: float = 1.0
    lambda_wc: float = 0.1
    lambda_g: float = 0.1
    lambda_ewc: float = 1.0
    seed: int = 0
    last_layer_only: bool = True
    batch_size: int = None
    wc_every: int = 1
    early_stop_rel: float = 0.10
    max_iters: int = 25
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self):
        for name in _REALS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        for name, least in _COUNTS.items():
            value = getattr(self, name)
            if value is None and name == "batch_size":
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not isinstance(self.last_layer_only, bool):
            raise ValueError(f"last_layer_only must be true or false, "
                             f"got {self.last_layer_only!r}")

    def replaced(self, **kw):
        return replace(self, **kw)

    def to_dict(self):
        return asdict(self)


def config_from_dict(doc, overrides=None):
    """TrainConfig from a flat dict; unknown keys are schema errors."""
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(doc)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}") from exc


def load_config(path, overrides=None):
    return config_from_dict(read_json(path), overrides)
