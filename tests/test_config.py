"""Config validation: unknown keys, dotted paths, graph specs, overrides."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbranch.config import (ExperimentConfig, apply_overrides, build_graph,
                              config_from_dict, validate_graph_spec)


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.graph == {"kind": "torus", "d": 1, "L": 8}
    assert cfg.scheme == "euler" and cfg.method == "trotter"


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
    with pytest.raises(ValueError, match="unknown graph kind"):
        validate_graph_spec({"kind": "hypercube"})
    with pytest.raises(ValueError, match="graph.L"):
        validate_graph_spec({"kind": "dumbbell", "L": 4})


def test_build_graph():
    g = build_graph({"kind": "torus", "d": 2, "L": 4})
    assert g.n_sites == 16
    assert build_graph({"kind": "dumbbell", "rate": 2.0}).rates[0, 1] == 2.0


def test_value_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replicas=0)
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="heun")
    with pytest.raises(ValueError):
        ExperimentConfig(method="exact")
    with pytest.raises(ValueError):
        ExperimentConfig(rho_grid=[0.0, 1.5])


def test_dt_must_be_positive_when_set():
    assert ExperimentConfig().dt is None
    assert ExperimentConfig(dt=1e-3).dt == 1e-3
    for bad in (0, 0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="dt"):
            ExperimentConfig(dt=bad)
    with pytest.raises(ValueError, match="dt"):
        apply_overrides(ExperimentConfig(), ["dt=0"])


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, ["gamma=2.5", "graph.L=6", "times=[0.1,0.2]",
                                "scheme=split"])
    assert out.gamma == 2.5
    assert out.graph["L"] == 6
    assert out.times == [0.1, 0.2]
    assert out.scheme == "split"
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
