"""`rng.map_chunks` across processes: bit-identical outputs, and a pool that
lives only inside one call."""

import multiprocessing
import os
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from symbranch import rng as rngmod
from symbranch.config import build_graph
from symbranch.experiments import default_config, run_experiment
from symbranch.sbm_finite import (PairField, SdeConfig, nonspatial_simulate,
                                  realized_brackets, simulate)
from symbranch.sbm_infinite import (BoundaryField, martingale_functional_check,
                                    pdmp_simulate, trotter_simulate)


def _use_cores(monkeypatch, n):
    monkeypatch.setattr(rngmod, "_cores", lambda: n)


@pytest.fixture
def pools(monkeypatch):
    """Small chunks, two usable cores whatever the host, and a record of the
    process count of every pool map_chunks opens."""
    monkeypatch.setattr(rngmod, "CHUNK", 64)
    _use_cores(monkeypatch, 2)
    opened = []
    real = rngmod._pool

    def pool(processes):
        opened.append(processes)
        return real(processes)

    monkeypatch.setattr(rngmod, "_pool", pool)
    return opened


def _flatten(out):
    """The arrays of a simulator's result, in a fixed order."""
    if isinstance(out, dict):
        return [np.asarray(out[k]) for k in sorted(out)]
    return [np.asarray(getattr(out, k)) for k in sorted(vars(out))]


def _runs():
    ring = build_graph({"kind": "torus", "d": 1, "L": 4})
    start = PairField([1.0, 0.5, 0.0, 0.2], [0.0, 0.4, 1.0, 0.3])
    edge = BoundaryField([1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.3])
    sde = SdeConfig(gamma=1.0, rho=-0.3, horizon=0.02, dt=1e-3,
                    replicas=200, seed=3)
    single = SdeConfig(gamma=1.0, rho=0.2, horizon=0.5, dt=1e-3,
                       replicas=200, seed=3)
    y1 = np.array([0.0, 0.3, 0.0, 0.1])
    y2 = np.array([0.2, 0.0, 0.4, 0.0])
    return {
        "simulate": lambda: simulate(ring, sde, start),
        "nonspatial_simulate": lambda: nonspatial_simulate(single, (1.0, 0.5)),
        "trotter_simulate": lambda: trotter_simulate(
            ring, 0.3, edge, horizon=0.3, eps=0.1, replicas=200, seed=3),
        "pdmp_simulate": lambda: pdmp_simulate(
            ring, 0.3, edge, horizon=0.3, eps=0.2, replicas=200, seed=3),
        "martingale_functional_check": lambda: martingale_functional_check(
            ring, 0.3, edge, y1, y2, horizon=0.3, eps=0.1, replicas=200,
            seed=3),
    }


@pytest.mark.parametrize("name", sorted(_runs()))
def test_two_processes_are_bit_identical_to_one(name, pools, monkeypatch):
    # 200 replicas are four chunks of 64: the caller runs chunks 0 and 2,
    # the worker 1 and 3, so a worker on another chunk's stream or a join
    # out of replica order changes the output
    run = _runs()[name]
    _use_cores(monkeypatch, 1)
    serial = _flatten(run())
    assert pools == []
    _use_cores(monkeypatch, 2)
    forked = _flatten(run())
    assert pools and set(pools) == {1}
    assert multiprocessing.active_children() == []
    assert len(serial) == len(forked)
    for a, b in zip(serial, forked):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _failing_chunk(lo, hi, rng, bad_lo):
    if lo == bad_lo:
        raise ValueError(f"planted failure in chunk at {lo}")
    return (rng.random(hi - lo),)


@pytest.mark.parametrize("bad_lo", [64, 0], ids=["worker", "caller"])
def test_chunk_exception_reaches_the_caller(bad_lo, pools, monkeypatch):
    raised = {}
    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        with pytest.raises(ValueError) as exc:
            rngmod.map_chunks(_failing_chunk, 0, "fail", 200, bad_lo)
        raised[cores] = (type(exc.value), str(exc.value))
        assert multiprocessing.active_children() == []
    assert raised[1] == raised[2] == (
        ValueError, f"planted failure in chunk at {bad_lo}")
    assert pools == [1]


def _exiting_chunk(lo, hi, rng):
    if lo == 64:
        os._exit(3)
    return (rng.random(hi - lo),)


def test_a_dead_worker_raises_instead_of_hanging(pools):
    with pytest.raises(BrokenProcessPool):
        rngmod.map_chunks(_exiting_chunk, 0, "exit", 200)
    assert multiprocessing.active_children() == []


def _toy_chunk(lo, hi, rng):
    return (rng.random(hi - lo),)


def test_pool_never_exceeds_the_cores_or_the_chunks(pools):
    rngmod.map_chunks(_toy_chunk, 0, "toy", 10 * 64)
    rngmod.map_chunks(_toy_chunk, 0, "toy", 64)  # one chunk: no pool
    assert pools == [1]
    assert multiprocessing.active_children() == []


def test_one_core_never_forks(monkeypatch):
    def no_pool(processes):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(rngmod, "CHUNK", 64)
    monkeypatch.setattr(rngmod, "_pool", no_pool)
    _use_cores(monkeypatch, 1)
    out, = rngmod.map_chunks(_toy_chunk, 0, "toy", 10 * 64)
    assert out.shape == (640,)


def test_no_affinity_call_means_one_core(monkeypatch):
    # macOS and Windows have no sched_getaffinity; map_chunks must not fork
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rngmod._cores() == 1


def test_aborted_euler_replicas_do_not_warn():
    # an overflowing replica aborts; the overflow itself is not reported
    cfg = default_config(
        "duality-self", replicas=50, horizon=0.05,
        initial={"u": [1e200, 0, 0.5, 0], "v": [0, 0.8, 0, 0.5]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 of 50 replicas survived"):
            run_experiment(cfg)


def test_overflowed_clock_of_a_kept_replica_is_reported():
    # gamma * <u,v> overflows before the factor dt, so the clock is inf while
    # the fields stay finite: the replica is kept, without a numpy warning,
    # and the brackets refuse to pool it
    ring = build_graph({"kind": "torus", "d": 1, "L": 4})
    cfg = SdeConfig(gamma=1e306, rho=0.0, horizon=3e-307, dt=1e-307,
                    replicas=8, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = simulate(ring, cfg, PairField([10.0] * 4, [10.0] * 4))
    kept = ~obs.aborted
    assert kept.any() and np.isinf(obs.clock[kept]).all()
    assert np.isfinite(obs.total_u[kept] + obs.total_v[kept]).all()
    with pytest.raises(ValueError, match="overflowed clock or bracket"):
        realized_brackets(obs)
