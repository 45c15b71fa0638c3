"""The benchmark tracer's contract: every function it wraps is still reached.

`bench/run.py --trace 1` wraps the functions named in `bench/layertrace.py`
by module attribute and binds their arguments by name. This test runs the
experiments at tiny sizes under that tracer, so a rename or deletion that
would break the traced benchmark fails here. The same tiny runs check the
contract of `rng.map_chunks`, which a worker pool needs: every chunk is a
pure function of picklable data.
"""

import importlib.util
import pickle
from pathlib import Path

import numpy as np

from symbranch import rng as rngmod
from symbranch.experiments import EXPERIMENTS, default_config, run_experiment

_LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"

_TINY = (
    ("trotter-refine", dict(replicas=200)),
    ("voter-limit", dict(replicas=40)),
    ("mass-martingale", dict(replicas=50, horizon=0.05)),
    ("bracket-ratio", dict(replicas=50, horizon=0.05)),
    ("gamma-limit", dict(replicas=50, horizon=0.05)),
    ("duality-moment", dict(replicas=200, horizon=0.1)),
    ("duality-self", dict(replicas=50, horizon=0.05)),
    ("exitlaw-validate", dict(replicas=300, rho_grid=[-0.5])),
    ("pdmp-vs-trotter", dict(replicas=50)),
    ("martingale-functional", dict(replicas=200)),
    ("moment-curve", dict(replicas=2000, rho_grid=[-0.5], dt=0.05)),
)


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace", _LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_experiment_runs_under_the_tracer():
    # every return field the tracer reads is then produced by some run
    assert sorted(name for name, _ in _TINY) == sorted(EXPERIMENTS)


def test_every_traced_layer_is_reached(tmp_path):
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for name, overrides in _TINY:
            run_experiment(default_config(name, **overrides),
                           out_dir=tmp_path / name)
    finally:
        tracer.uninstall()
    assert set(tracer.layers) == set(layertrace.TRACED)
    silent = sorted(name for name, layer in tracer.layers.items()
                    if layer.calls == 0)
    assert not silent, f"traced layers never called: {silent}"


def test_every_chunk_is_pure(tmp_path, monkeypatch):
    exact = rngmod.map_chunks
    seen = set()

    def checked(fn, seed, tag, n_replicas, *args):
        before = pickle.dumps((fn, args))

        def chunk(*chunk_args):
            out = fn(*chunk_args)
            assert all(type(a) is np.ndarray for a in out), \
                f"{fn.__name__} returns a non-array"
            return out

        out = exact(chunk, seed, tag, n_replicas, *args)
        assert pickle.dumps((fn, args)) == before, \
            f"{fn.__name__}: args mutated"
        seen.add(fn.__name__)
        return out

    monkeypatch.setattr(rngmod, "map_chunks", checked)
    for name, overrides in _TINY:
        run_experiment(default_config(name, **overrides),
                       out_dir=tmp_path / name)
    assert seen == {"_simulate_chunk", "_nonspatial_chunk", "_trotter_chunk",
                    "_pdmp_chunk", "_martingale_chunk"}
