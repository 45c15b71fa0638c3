"""Config validation: unknown keys, dotted paths, graph specs, overrides."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbranch.config import (ExperimentConfig, apply_overrides, build_graph,
                              config_from_dict, validate_graph_spec)


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.graph == {"kind": "torus", "d": 1, "L": 8}


def test_unknown_key_rejected_with_path():
    with pytest.raises(ValueError, match="unknown config keys: bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="graph.flavor"):
        config_from_dict({"graph": {"kind": "torus", "flavor": "x"}})
    with pytest.raises(ValueError, match="initial.w"):
        config_from_dict({"initial": {"w": [1.0]}})


def test_graph_spec_validation():
    validate_graph_spec({"kind": "dumbbell", "rate": 1.0})
    with pytest.raises(ValueError, match="kind"):
        validate_graph_spec({"d": 1})
    for kind in ("hypercube", [1]):
        with pytest.raises(ValueError, match="unknown graph kind"):
            validate_graph_spec({"kind": kind})
    with pytest.raises(ValueError, match="graph.L"):
        validate_graph_spec({"kind": "dumbbell", "L": 4})
    # a torus side or dimension is an integer and a rate a finite real > 0;
    # bool is neither, and graph.L=3.7 used to run on L = 3
    for bad in ({"kind": "torus", "L": 3.7}, {"kind": "torus", "d": 1.5},
                {"kind": "torus", "L": "4"}, {"kind": "torus", "L": True},
                {"kind": "dumbbell", "rate": True},
                {"kind": "dumbbell", "rate": float("inf")},
                {"kind": "dumbbell", "rate": float("nan")},
                {"kind": "dumbbell", "rate": 0.0},
                {"kind": "dumbbell", "rate": "1"}):
        key = "graph." + next(k for k in bad if k != "kind")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            validate_graph_spec(bad)
    validate_graph_spec({"kind": "torus", "d": np.int64(2), "L": 4})
    validate_graph_spec({"kind": "dumbbell", "rate": 2})


def test_build_graph():
    g = build_graph({"kind": "torus", "d": 2, "L": 4})
    assert g.n_sites == 16
    assert build_graph({"kind": "dumbbell", "rate": 2.0}).rates[0, 1] == 2.0


def test_value_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replicas=0)
    # a grid is a list of reals: bool is not one, and a bare number is not
    # a list
    for bad in ([0.0, 1.5], 0.5, [True], ["0.5"], [0.0, None], {"a": 0.5},
                [float("nan")]):
        with pytest.raises(ValueError, match="^rho_grid"):
            ExperimentConfig(rho_grid=bad)
    assert ExperimentConfig(rho_grid=[-1, 0.5, 1.0]).rho_grid == [-1, 0.5, 1.0]


def test_dt_must_be_positive_when_set():
    assert ExperimentConfig().dt is None
    assert ExperimentConfig(dt=1e-3).dt == 1e-3
    for bad in (0, 0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="dt"):
            ExperimentConfig(dt=bad)
    with pytest.raises(ValueError, match="dt"):
        apply_overrides(ExperimentConfig(), ["dt=0"])


def test_step_keys_must_be_positive():
    # a zero step never advances, a negative one runs zero steps
    for key, bad in (("eps", 0), ("eps", -0.1), ("flow_substep", 0.0),
                     ("flow_substep", -1e-3), ("horizon", -1.0),
                     ("horizon", 0.0)):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ExperimentConfig(**{key: bad})
        with pytest.raises(ValueError, match=f"^{key} must be"):
            apply_overrides(ExperimentConfig(), [f"{key}={bad}"])
    # a zero horizon leaves both routes of an agree row at the exact start,
    # which FAILs through 0 < 0
    with pytest.raises(ValueError, match="^horizon must be > 0"):
        ExperimentConfig(horizon=0)


def test_site_indices_are_range_checked():
    # default graph: the 8-site torus
    for key, good, bads in (
            ("u_sites", [7], ([8], [-1], [1.5], [True], 3, ["0"])),
            ("v_sites", [0, 0], ([99], [-8])),
            ("pairs", [[0, 7], [3, 3]],
             ([[0, -1]], [[0, 99]], [0, 1], [[0, 1, 2]], [[0]]))):
        assert getattr(ExperimentConfig(**{key: good}), key) == good
        for bad in bads:
            with pytest.raises(ValueError, match=f"^{key} must be a list"):
                ExperimentConfig(**{key: bad})
    # the bound is the site count of the configured graph
    dumbbell = {"kind": "dumbbell", "rate": 0.5}
    ExperimentConfig(graph=dumbbell, u_sites=[1], v_sites=[0])
    with pytest.raises(ValueError, match="u_sites.*\\[0, 2\\)"):
        ExperimentConfig(graph=dumbbell, u_sites=[2])
    with pytest.raises(ValueError, match="pairs"):
        apply_overrides(ExperimentConfig(), ["pairs=[[0,-1]]"])


@pytest.mark.parametrize("key", ["rho_grid", "u_sites", "v_sites", "pairs",
                                 "initial", "initial_y"])
def test_empty_list_or_object_is_rejected(key):
    # each one ran the experiment's default while the report recorded it
    empty = {} if key.startswith("initial") else []
    with pytest.raises(ValueError, match=f"^{key} must be non-empty"):
        ExperimentConfig(**{key: empty})
    with pytest.raises(ValueError, match=f"^{key} must be non-empty"):
        apply_overrides(ExperimentConfig(), [f"{key}={json.dumps(empty)}"])


def test_numeric_keys_are_type_checked():
    # a --set value that is not JSON stays a string; bool is an int subclass
    for key in ("gamma", "rho", "horizon", "dt", "eps", "trunc_eps",
                "flow_substep"):
        for bad in ("abc", True, [1.0]):
            with pytest.raises(ValueError, match=f"^{key} must be a real"):
                ExperimentConfig(**{key: bad})
    for key in ("replicas", "seed"):
        for bad in ("abc", False, 2.0):
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                ExperimentConfig(**{key: bad})
    cfg = ExperimentConfig(gamma=2, rho=np.float64(0.5), replicas=np.int64(5))
    assert cfg.replicas == 5
    with pytest.raises(ValueError, match="dt"):
        apply_overrides(ExperimentConfig(), ["dt=abc"])


def test_real_keys_must_be_finite():
    # NaN compares False both ways, so it would slip past a range check
    for key in ("gamma", "rho", "horizon", "dt", "eps", "trunc_eps",
                "flow_substep"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                ExperimentConfig(**{key: bad})
    for raw in ("gamma=NaN", "rho=NaN", "horizon=Infinity"):
        with pytest.raises(ValueError, match=raw.split("=")[0]):
            apply_overrides(ExperimentConfig(), [raw])


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, ["gamma=2.5", "graph.L=6",
                                "rho_grid=[0.1,0.2]"])
    assert out.gamma == 2.5
    assert out.graph["L"] == 6
    assert out.rho_grid == [0.1, 0.2]
    # originals untouched
    assert cfg.gamma == 1.0


def test_apply_overrides_rejects_bad_keys():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="not key=value"):
        apply_overrides(cfg, ["gamma"])
    with pytest.raises(ValueError, match="nope"):
        apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ValueError, match="gamma.sub"):
        apply_overrides(cfg, ["gamma.sub=1"])
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["graph.rate=1.0"])  # torus has no rate key


def test_round_trip():
    cfg = ExperimentConfig(gamma=3.0, rho=-0.5, initial={"u": [1, 2]})
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


@given(st.dictionaries(st.sampled_from(["gamma", "rho", "horizon", "eps"]),
                       st.floats(0.01, 0.99), max_size=4))
def test_numeric_fields_round_trip(d):
    cfg = config_from_dict(dict(d))
    back = config_from_dict(cfg.to_dict())
    assert back == cfg


def test_initial_blocks():
    from symbranch.experiments import initial_pair
    g = build_graph({"kind": "torus", "d": 1, "L": 4})

    def start(initial):
        pair = initial_pair(ExperimentConfig(initial=initial), g)
        return pair.u.tolist(), pair.v.tolist()

    assert start({"u": [1, 2, 3, 4]}) == ([1, 2, 3, 4], [0, 0, 0, 0])
    assert start({"v": [1, 2, 3, 4]}) == ([0, 0, 0, 0], [1, 2, 3, 4])
    assert start({"eta": [1, 0, 0, 1]}) == ([1, 0, 0, 1], [0, 1, 1, 0])
    assert start(None) == ([1, 1, 0, 0], [0, 0, 1, 1])
    with pytest.raises(ValueError, match="eta"):
        ExperimentConfig(initial={"eta": [1, 0, 0, 1], "u": [1, 0, 0, 1]})
    with pytest.raises(ValueError, match="entries"):
        start({"u": [1, 2, 3]})
    for key in ("initial", "initial_y"):
        for bad in (5, [1.0, 0.0], "u"):
            with pytest.raises(ValueError, match=f"^{key} must be a JSON "
                                                 "object"):
                ExperimentConfig(**{key: bad})
