"""Validated experiment configuration.

A config is a flat record of the knobs shared by all experiment drivers plus
a graph spec. Unknown keys are rejected with their full dotted path so typos
cannot silently fall back to defaults.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from symbranch.lattice import build_dumbbell, build_torus

_REAL_KEYS = ("gamma", "rho", "horizon", "dt", "eps", "trunc_eps",
              "flow_substep")
_INT_KEYS = ("replicas", "seed")
_SITE_KEYS = ("u_sites", "v_sites", "pairs")

_GRAPH_KEYS = {
    "torus": {"kind", "d", "L"},
    "dumbbell": {"kind", "rate"},
}


@dataclass
class ExperimentConfig:
    experiment: str = ""
    graph: dict = None
    gamma: float = 1.0
    rho: float = 0.0
    horizon: float = 1.0
    dt: float = None
    eps: float = 0.1          # Trotter step
    trunc_eps: float = 0.1    # jump-measure truncation
    flow_substep: float = 0.01
    replicas: int = 1000
    seed: int = 0
    rho_grid: list = None     # grid experiments; None = experiment default
    initial: dict = None      # {"u": [...], "v": [...]} or {"eta": [...]}
    initial_y: dict = None    # second state for self-duality runs
    u_sites: list = None      # moment-dual site multisets
    v_sites: list = None
    pairs: list = None        # two-point function pairs [[x, y], ...]

    def __post_init__(self):
        if self.graph is None:
            self.graph = {"kind": "torus", "d": 1, "L": 8}
        validate_graph_spec(self.graph)
        # type before value, so that a bad override is a config error and
        # not a TypeError in a comparison; bool counts as neither type
        for names, kind, what in ((_REAL_KEYS, numbers.Real, "a real number"),
                                  (_INT_KEYS, numbers.Integral, "an integer")):
            for name in names:
                val = getattr(self, name)
                if name == "dt" and val is None:
                    continue
                if not _is_a(val, kind):
                    raise ValueError(f"{name} must be {what}, got {val!r}")
                if not math.isfinite(val):
                    raise ValueError(f"{name} must be finite, got {val!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be > 0 (omit it for the default)")
        for name in ("eps", "flow_substep"):
            val = getattr(self, name)
            if not val > 0:
                raise ValueError(f"{name} must be > 0, got {val!r}")
        # a zero horizon leaves both routes of a check at the exact start
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        # an empty list or object would run the experiment's default while
        # the report records the empty value
        for name in ("rho_grid", "initial", "initial_y") + _SITE_KEYS:
            val = getattr(self, name)
            if isinstance(val, (list, tuple, dict)) and not val:
                raise ValueError(f"{name} must be non-empty (omit it for the "
                                 f"experiment's default), got {val!r}")
        if self.rho_grid is not None:
            grid = self.rho_grid
            if not isinstance(grid, (list, tuple)) or not all(
                    _is_a(r, numbers.Real) for r in grid):
                raise ValueError(f"rho_grid must be a list of real numbers, "
                                 f"got {grid!r}")
            bad = [r for r in grid if not -1.0 <= r <= 1.0]
            if bad:
                raise ValueError(f"rho_grid values outside [-1, 1]: {bad}")
        for name in ("initial", "initial_y"):
            blk = getattr(self, name)
            if blk is not None:
                if not isinstance(blk, dict):
                    raise ValueError(f"{name} must be a JSON object, "
                                     f"got {blk!r}")
                extra = set(blk) - {"u", "v", "eta"}
                if extra:
                    paths = ", ".join(sorted(f"{name}.{k}" for k in extra))
                    raise ValueError(f"unknown config keys: {paths}")
                if "eta" in blk and len(blk) > 1:
                    raise ValueError(f"{name}: eta cannot be mixed with u/v")
        listed = [k for k in _SITE_KEYS if getattr(self, k) is not None]
        n = build_graph(self.graph).n_sites if listed else 0
        for name in listed:
            blk = getattr(self, name)
            flat = blk if isinstance(blk, (list, tuple)) else [None]
            if name == "pairs":  # [[x, y], ...]
                flat = [s for p in flat for s in (
                    p if isinstance(p, (list, tuple)) and len(p) == 2
                    else [None])]
            if not all(_is_a(s, numbers.Integral) and 0 <= s < n
                       for s in flat):
                what = "[x, y] pairs of sites" if name == "pairs" else "sites"
                raise ValueError(f"{name} must be a list of {what} in "
                                 f"[0, {n}) on this graph, got {blk!r}")

    def to_dict(self):
        return dataclasses.asdict(self)


def _is_a(x, kind):
    """isinstance(x, kind), except that a bool is neither real nor integer."""
    return isinstance(x, kind) and not isinstance(x, bool)


def validate_graph_spec(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("graph spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _GRAPH_KEYS:
        raise ValueError(f"unknown graph kind {kind!r}: expected torus or dumbbell")
    extra = set(spec) - _GRAPH_KEYS[kind]
    if extra:
        paths = ", ".join(sorted(f"graph.{k}" for k in extra))
        raise ValueError(f"unknown config keys: {paths}")
    for key in ("d", "L"):
        if key in spec and not _is_a(spec[key], numbers.Integral):
            raise ValueError(f"graph.{key} must be an integer, "
                             f"got {spec[key]!r}")
    rate = spec.get("rate")
    if "rate" in spec and not (_is_a(rate, numbers.Real) and 0 < rate < math.inf):
        raise ValueError(f"graph.rate must be a finite real > 0, got {rate!r}")


def build_graph(spec):
    validate_graph_spec(spec)
    if spec["kind"] == "torus":
        return build_torus(int(spec.get("d", 2)), int(spec.get("L", 8)))
    return build_dumbbell(float(spec.get("rate", 0.5)))


def config_from_dict(d):
    """Build an ExperimentConfig, rejecting unknown keys by dotted path."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    extra = set(d) - known
    if extra:
        raise ValueError("unknown config keys: " + ", ".join(sorted(extra)))
    return ExperimentConfig(**d)


def apply_overrides(cfg, pairs):
    """Apply 'dotted.key=json-value' overrides to a config, validated."""
    d = cfg.to_dict()
    for raw in pairs:
        if "=" not in raw:
            raise ValueError(f"override {raw!r} is not key=value")
        key, _, val = raw.partition("=")
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        parts = key.split(".")
        if parts[0] not in d:
            raise ValueError(f"unknown config keys: {key}")
        if len(parts) == 1:
            d[key] = parsed
        elif parts[0] == "graph" and len(parts) == 2:
            d["graph"] = dict(d["graph"] or {})
            d["graph"][parts[1]] = parsed
        else:
            raise ValueError(f"unknown config keys: {key}")
    return config_from_dict(d)
