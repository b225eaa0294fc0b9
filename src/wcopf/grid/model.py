"""Grid description and strict JSON loading."""

import json
import math
from dataclasses import dataclass
from importlib import resources

from ..errors import SchemaError, read_json

_TOP_KEYS = {"buses", "slack", "generators", "loads", "lines"}
_GEN_KEYS = {"bus", "p_min", "p_max", "cost"}
_LOAD_KEYS = {"bus", "nominal"}
_LINE_KEYS = {"from", "to", "susceptance", "limit"}

BUILTIN_CASES = ("case3", "case5", "case9", "syn39")


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    cost: float


@dataclass(frozen=True)
class Load:
    bus: int
    nominal: float


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    susceptance: float
    limit: float


@dataclass(frozen=True)
class GridModel:
    """Buses, generators, loads and lines of a DC power network.

    Bus ids are arbitrary integers; positions in `buses` define the
    index order used by the PTDF and dispatch routines.
    """

    buses: tuple
    slack: int
    generators: tuple
    loads: tuple
    lines: tuple

    def __post_init__(self):
        self.validate()

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def n_gen(self):
        return len(self.generators)

    @property
    def n_load(self):
        return len(self.loads)

    def bus_index(self, bus):
        return self.buses.index(bus)

    @property
    def slack_index(self):
        return self.buses.index(self.slack)

    def nominal_demand(self):
        import numpy as np
        return np.array([ld.nominal for ld in self.loads], dtype=float)

    def validate(self):
        if len(self.buses) == 0:
            raise SchemaError("grid has no buses")
        if len(set(self.buses)) != len(self.buses):
            raise SchemaError("duplicate bus ids")
        if self.slack not in self.buses:
            raise SchemaError(f"slack bus {self.slack} not in bus list")
        if len(self.generators) == 0:
            raise SchemaError("grid has no generators")
        bus_set = set(self.buses)
        for i, g in enumerate(self.generators):
            if g.bus not in bus_set:
                raise SchemaError(f"generators[{i}]: unknown bus {g.bus}")
            if g.p_min > g.p_max:
                raise SchemaError(f"generators[{i}]: p_min {g.p_min} exceeds p_max {g.p_max}")
        for i, ld in enumerate(self.loads):
            if ld.bus not in bus_set:
                raise SchemaError(f"loads[{i}]: unknown bus {ld.bus}")
            if ld.nominal < 0:
                raise SchemaError(f"loads[{i}]: negative nominal demand")
        for i, ln in enumerate(self.lines):
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise SchemaError(f"lines[{i}]: unknown endpoint")
            if ln.from_bus == ln.to_bus:
                raise SchemaError(f"lines[{i}]: self loop at bus {ln.from_bus}")
            if ln.susceptance <= 0:
                raise SchemaError(f"lines[{i}]: susceptance must be positive")
            if ln.limit <= 0:
                raise SchemaError(f"lines[{i}]: flow limit must be positive")
        self._check_connected()

    def _check_connected(self):
        if len(self.buses) == 1:
            return
        adj = {b: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        seen = {self.slack}
        stack = [self.slack]
        while stack:
            b = stack.pop()
            for nb in adj[b]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.buses):
            missing = sorted(set(self.buses) - seen)
            raise SchemaError(f"network is disconnected; unreachable buses {missing}")


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number")
    if not math.isfinite(v):
        raise SchemaError(f"{where}.{key}: expected a finite number, got {v}")
    return float(v)


def _integer(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}.{key}: expected an integer")
    return v


def grid_from_dict(doc):
    _require_keys(doc, _TOP_KEYS, _TOP_KEYS, "grid")
    if not isinstance(doc["buses"], list) or not all(
            isinstance(b, int) and not isinstance(b, bool) for b in doc["buses"]):
        raise SchemaError("grid.buses: expected a list of integers")
    buses = tuple(doc["buses"])
    slack = _integer(doc, "slack", "grid")
    for section in ("generators", "loads", "lines"):
        if not isinstance(doc[section], list):
            raise SchemaError(f"grid.{section}: expected a list")
    gens = []
    for i, g in enumerate(doc["generators"]):
        where = f"generators[{i}]"
        _require_keys(g, _GEN_KEYS, _GEN_KEYS, where)
        gens.append(Generator(bus=_integer(g, "bus", where),
                              p_min=_number(g, "p_min", where),
                              p_max=_number(g, "p_max", where),
                              cost=_number(g, "cost", where)))
    loads = []
    for i, ld in enumerate(doc["loads"]):
        where = f"loads[{i}]"
        _require_keys(ld, _LOAD_KEYS, _LOAD_KEYS, where)
        loads.append(Load(bus=_integer(ld, "bus", where),
                          nominal=_number(ld, "nominal", where)))
    lines = []
    for i, ln in enumerate(doc["lines"]):
        where = f"lines[{i}]"
        _require_keys(ln, _LINE_KEYS, _LINE_KEYS, where)
        lines.append(Line(from_bus=_integer(ln, "from", where),
                          to_bus=_integer(ln, "to", where),
                          susceptance=_number(ln, "susceptance", where),
                          limit=_number(ln, "limit", where)))
    return GridModel(buses=buses, slack=slack, generators=tuple(gens),
                     loads=tuple(loads), lines=tuple(lines))


def load_grid(path):
    """Load and validate a grid JSON file; raises SchemaError on any defect."""
    return grid_from_dict(read_json(path))


def builtin_case_text(name):
    """The packaged JSON text of a bundled example grid (BUILTIN_CASES):
    what builtin_grid parses, and what a manifest digests."""
    if name not in BUILTIN_CASES:
        raise SchemaError(f"unknown builtin grid {name!r}; choices: {BUILTIN_CASES}")
    return resources.files("wcopf.grid").joinpath(f"cases/{name}.json").read_text("utf-8")


def builtin_grid(name):
    """Return one of the bundled example grids: case3, case5, case9, or
    syn39, a synthetic 39-bus grid (not IEEE 39) built by a seeded rule."""
    return grid_from_dict(json.loads(builtin_case_text(name)))
