"""Validated experiment configuration.

A config is a flat record of the knobs shared by all experiment drivers plus
a graph spec. Unknown keys are rejected with their full dotted path so typos
cannot silently fall back to defaults.
"""

import dataclasses
import json
from dataclasses import dataclass

from symbranch.lattice import build_dumbbell, build_torus

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
    scheme: str = "euler"     # finite-rate stepping: euler | split
    method: str = "trotter"   # infinite-rate simulator: trotter | pdmp
    replicas: int = 1000
    seed: int = 0
    probes: list = None
    times: list = None
    rho_grid: list = None     # grid experiments; None = experiment default
    initial: dict = None      # {"u": [...], "v": [...]} or {"eta": [...]}
    initial_y: dict = None    # second state for self-duality runs
    u_sites: list = None      # moment-dual site multisets
    v_sites: list = None
    sites: list = None        # coalescing-dual sites
    pairs: list = None        # two-point function pairs [[x, y], ...]

    def __post_init__(self):
        if self.graph is None:
            self.graph = {"kind": "torus", "d": 1, "L": 8}
        validate_graph_spec(self.graph)
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be > 0 (omit it for the default)")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.scheme not in ("euler", "split"):
            raise ValueError("scheme must be 'euler' or 'split'")
        if self.method not in ("trotter", "pdmp"):
            raise ValueError("method must be 'trotter' or 'pdmp'")
        if self.rho_grid is not None:
            bad = [r for r in self.rho_grid if not -1.0 <= float(r) <= 1.0]
            if bad:
                raise ValueError(f"rho_grid values outside [-1, 1]: {bad}")
        for name in ("initial", "initial_y"):
            blk = getattr(self, name)
            if blk is not None:
                extra = set(blk) - {"u", "v", "eta"}
                if extra:
                    paths = ", ".join(sorted(f"{name}.{k}" for k in extra))
                    raise ValueError(f"unknown config keys: {paths}")
                if "eta" in blk and len(blk) > 1:
                    raise ValueError(f"{name}: eta cannot be mixed with u/v")

    def to_dict(self):
        return dataclasses.asdict(self)


def validate_graph_spec(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("graph spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind not in _GRAPH_KEYS:
        raise ValueError(f"unknown graph kind {kind!r}: expected torus or dumbbell")
    extra = set(spec) - _GRAPH_KEYS[kind]
    if extra:
        paths = ", ".join(sorted(f"graph.{k}" for k in extra))
        raise ValueError(f"unknown config keys: {paths}")


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
