"""Infinite-rate simulators: Trotter scheme and truncated jump process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbranch import rng as rngmod
from symbranch import sbm_infinite
from symbranch.config import build_graph
from symbranch.experiments import default_config, run_experiment
from symbranch.exitlaw import ExitLawParams, truncate_nu
from symbranch.lattice import SiteGraph, build_dumbbell, heat_semigroup
from symbranch.sbm_infinite import (BoundaryField, NegativeIntensity,
                                    intensity, jump_update,
                                    martingale_functional_check,
                                    pdmp_simulate, project_to_boundary,
                                    trotter_simulate)


@pytest.fixture(scope="module")
def ring8():
    return build_graph({"kind": "torus", "d": 1, "L": 8})


def _efield(n, u_at=(), v_at=()):
    u = np.zeros(n)
    v = np.zeros(n)
    for k, val in u_at:
        u[k] = val
    for k, val in v_at:
        v[k] = val
    return BoundaryField(u, v)


def test_boundary_field_validation():
    BoundaryField(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        BoundaryField(np.array([1.0, 0.5]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        BoundaryField(np.array([-1.0, 0.0]), np.array([0.0, 2.0]))


def test_intensity_worked_example(ring8):
    # ring with rates 1/2: U(0)=2, opposite neighbors V=(4,0) -> rate 1
    state = _efield(8, u_at=[(0, 2.0)], v_at=[(1, 4.0)])
    assert intensity(ring8, state)[0] == pytest.approx(1.0)


def test_intensity_island_and_zero(ring8):
    island = _efield(8, u_at=[(k, 1.0) for k in range(8)])
    assert intensity(ring8, island)[3] == 0.0
    assert intensity(ring8, _efield(8))[5] == 0.0


def test_intensity_vector_and_negative(ring8):
    state = _efield(8, u_at=[(0, 2.0)], v_at=[(1, 4.0)])
    rates = intensity(ring8, state)
    assert rates.shape == (8,)
    assert rates[0] == pytest.approx(1.0)
    off_e = BoundaryField(np.zeros(8), np.zeros(8))
    off_e.u[0] = 1.0  # mutate past validation to emulate an off-E bug
    off_e.v[0] = 1.0
    with pytest.raises(NegativeIntensity):
        intensity(ring8, off_e)


def test_jump_update_examples():
    # rows: keep mark, swap mark, empty site; one jump per row
    u = np.zeros((3, 8))
    v = np.zeros((3, 8))
    u[:2, 2] = 3.0
    mag = jump_update(u, v, np.array([0, 1, 2]), np.array([2, 2, 4]),
                      np.array([False, True, True]), np.array([2.0, 0.5, 2.0]))
    assert np.array_equal(mag, [3.0, 3.0, 0.0])
    assert u[0, 2] == 6.0 and v[0, 2] == 0.0
    assert u[1, 2] == 0.0 and v[1, 2] == 1.5
    assert u[2, 4] == 0.0 and v[2, 4] == 0.0
    assert np.count_nonzero(u) == 1 and np.count_nonzero(v) == 1


def test_project_to_boundary_logs_mass():
    u = np.array([1.0, 0.2, 0.0])
    v = np.array([0.1, 0.3, 2.0])
    pu, pv, zeroed = project_to_boundary(u.copy(), v.copy())
    assert np.all(pu * pv == 0.0)
    assert np.allclose(pu, [1.0, 0.0, 0.0]) and np.allclose(pv, [0.0, 0.3, 2.0])
    assert zeroed == pytest.approx(0.3)  # min coordinate zeroed per off-E site


def test_project_to_boundary_per_row_mass():
    u = np.array([[1.0, 0.2, 0.0], [0.0, 0.0, 0.5]])
    v = np.array([[0.1, 0.3, 2.0], [1.0, 0.0, 0.0]])
    pu, pv, zeroed = project_to_boundary(u.copy(), v.copy())
    assert np.all(pu * pv == 0.0)
    assert zeroed.shape == (2,)
    assert zeroed == pytest.approx([0.3, 0.0])


_MAGNITUDE = st.one_of(st.just(0.0),
                       st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), sites=st.integers(1, 6), flat=st.booleans(),
       data=st.data())
def test_project_to_boundary_properties(rows, sites, flat, data):
    shape = (sites,) if flat else (rows, sites)
    size = int(np.prod(shape))
    u, v = (np.array(data.draw(st.lists(_MAGNITUDE, min_size=size,
                                        max_size=size))).reshape(shape)
            for _ in range(2))
    pu, pv, zeroed = project_to_boundary(u.copy(), v.copy())
    assert np.all(pu * pv == 0.0)
    assert np.array_equal(pu + pv, np.maximum(u, v))
    off = np.where((u > 0) & (v > 0), np.minimum(u, v), 0.0)
    if flat:
        assert isinstance(zeroed, float)
        expected = np.array([math.fsum(off)])
    else:
        assert zeroed.shape == (rows,)
        expected = np.array([math.fsum(r) for r in off])
    assert np.all(np.abs(np.atleast_1d(zeroed) - expected)
                  <= 1e-12 * expected)


def test_trotter_zero_state_fixed(ring8):
    res = trotter_simulate(ring8, 0.3, _efield(8), horizon=0.5, eps=0.1,
                           replicas=4, seed=0)
    assert np.all(res["u"] == 0.0) and np.all(res["v"] == 0.0)


def test_trotter_single_site_frozen():
    g = SiteGraph(rates=np.array([[0.0]]))
    init = BoundaryField(np.array([2.0]), np.array([0.0]))
    res = trotter_simulate(g, 0.3, init, horizon=1.0, eps=0.1,
                           replicas=8, seed=1)
    assert np.all(res["u"] == 2.0) and np.all(res["v"] == 0.0)


def test_trotter_boundary_constraint_exact(ring8):
    init = _efield(8, u_at=[(0, 1.0), (2, 0.5)], v_at=[(1, 0.8), (5, 0.3)])
    for horizon in (0.25, 0.5):
        res = trotter_simulate(ring8, 0.3, init, horizon=horizon, eps=0.05,
                               replicas=64, seed=2)
        assert np.max(res["u"] * res["v"]) == 0.0
        assert res["effective_horizon"] == pytest.approx(horizon)


def test_trotter_rho_minus_one_flip_probability(ring8):
    # one step from a pure-opinion state: site k swaps axis with probability
    # equal to the heat-mixed opposite fraction at k
    eps = 0.2
    u0 = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    init = BoundaryField(u0, 1.0 - u0)
    P = heat_semigroup(ring8, eps)
    mu = u0 @ P.T
    mv = (1.0 - u0) @ P.T
    flip_expected = mv[0] / (mu[0] + mv[0])
    n = 20000
    res = trotter_simulate(ring8, -1.0, init, horizon=eps, eps=eps,
                           replicas=n, seed=3, rng_tag="t-flip")
    nu, nv = res["u"], res["v"]
    flips = float((nv[:, 0] > 0).mean())
    se = np.sqrt(flip_expected * (1 - flip_expected) / n)
    assert abs(flips - flip_expected) < 3 * se
    # magnitudes stay at the heat-mixed sum, which is 1 up to fp roundoff
    assert np.allclose(nu[:, 0] + nv[:, 0], 1.0, atol=1e-12)


def test_pdmp_zero_state_fixed(ring8):
    res = pdmp_simulate(ring8, 0.0, _efield(8), horizon=0.5, eps=0.1,
                        replicas=4, seed=4)
    assert np.all(res["u"] == 0.0) and np.all(res["v"] == 0.0)
    assert np.all(res["n_jumps"] == 0)


def test_pdmp_single_site_frozen():
    g = SiteGraph(rates=np.array([[0.0]]))
    init = BoundaryField(np.array([0.0]), np.array([3.0]))
    res = pdmp_simulate(g, 0.0, init, horizon=1.0, eps=0.1, replicas=8,
                        seed=5)
    assert np.all(res["v"] == 3.0) and np.all(res["n_jumps"] == 0)


def test_pdmp_boundary_constraint_and_diagnostics(ring8):
    init = _efield(8, u_at=[(0, 1.0), (1, 0.5)], v_at=[(4, 1.0), (5, 0.5)])
    res = pdmp_simulate(ring8, 0.0, init, horizon=0.4, eps=0.15,
                        replicas=48, seed=6)
    assert np.max(res["u"] * res["v"]) == 0.0
    assert res["n_jumps"].sum() > 0
    assert res["zeroed_mass"].max() < 1e-10  # flow leakage is fp-roundoff only


def test_pdmp_compensator_cancellation(ring8):
    # on E the flow keeps the zero coordinate at zero: I(k)*m2*U(k) = AV(k)
    state = _efield(8, u_at=[(0, 2.0), (3, 1.0)], v_at=[(1, 4.0), (6, 0.5)])
    meas = truncate_nu(0.0, 0.1)
    rates = intensity(ring8, state)
    av = state.v @ ring8.rates.T
    on_u = state.u > 0
    assert np.allclose(rates[on_u] * meas.m2 * state.u[on_u], av[on_u],
                       atol=1e-12)


def test_pdmp_rho_minus_one_exactness(ring8):
    u0 = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    init = BoundaryField(u0, 1.0 - u0)
    res = pdmp_simulate(ring8, -1.0, init, horizon=0.5,
                        eps=0.1, replicas=64, seed=7)
    s = res["u"] + res["v"]
    assert np.all(s == 1.0)  # exact unit magnitudes, dyadic arithmetic
    assert np.all(res["u"] * res["v"] == 0.0)
    assert np.all(res["zeroed_mass"] == 0.0)


def test_pdmp_rho_minus_one_closed_form():
    # two-site voter: consensus at rate 1, each way with probability 1/2
    g = build_dumbbell(0.5)
    init = BoundaryField(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    t, n = 0.7, 4000
    res = pdmp_simulate(g, -1.0, init, horizon=t, eps=0.1, replicas=n,
                        seed=11)
    assert np.all(res["u"] + res["v"] == 1.0)
    decay = np.exp(-t)
    for obs, expected in ((res["u"][:, 0] * res["u"][:, 1], (1 - decay) / 2),
                          (res["u"][:, 0], (1 + decay) / 2)):
        se = obs.std(ddof=1) / np.sqrt(n)
        assert abs(obs.mean() - expected) < 4 * se


def test_pdmp_chunk_boundary_and_diagnostics(ring8):
    init = _efield(8, u_at=[(0, 1.0), (1, 0.5)], v_at=[(4, 1.0), (5, 0.5)])
    R = rngmod.CHUNK + 3

    def run():
        return pdmp_simulate(ring8, 0.0, init, horizon=0.4, eps=0.15,
                             replicas=R, seed=12, record_events=True)

    res = run()
    assert res["u"].shape == res["v"].shape == (R, 8)
    for key in ("n_jumps", "violations", "zeroed_mass"):
        assert res[key].shape == (R,)
    assert np.all(res["violations"] >= 0)
    assert res["zeroed_mass"].max() < 1e-10
    assert res["n_jumps"][0] > 0
    assert len(res["events"]) == res["n_jumps"][0]
    again = run()
    for key in ("u", "v", "n_jumps", "violations", "zeroed_mass"):
        assert res[key].tobytes() == again[key].tobytes()


def test_pdmp_event_record(ring8):
    init = _efield(8, u_at=[(0, 1.0)], v_at=[(4, 1.0)])
    res = pdmp_simulate(ring8, 0.0, init, horizon=0.5, eps=0.15, replicas=2,
                        seed=8, record_events=True)
    for ev in res["events"]:
        assert 0 <= ev.site < 8
        assert ev.time <= 0.5
        assert ev.factor > 0


def test_martingale_check_null_cases(ring8):
    init = _efield(8, u_at=[(0, 1.0)], v_at=[(4, 1.0)])
    y_zero = (np.zeros(8), np.zeros(8))
    out = martingale_functional_check(ring8, 0.3, init, y_zero[0], y_zero[1],
                                      horizon=0.3, eps=0.1, replicas=16,
                                      seed=9)
    assert out["mean"] == 0.0
    out0 = martingale_functional_check(ring8, 0.3, init,
                                       np.eye(8)[0] * 0.5, np.eye(8)[2] * 0.8,
                                       horizon=0.0, eps=0.1, replicas=16,
                                       seed=9)
    assert out0["mean"] == 0.0


def test_martingale_check_rejects_overlapping_pair(ring8):
    init = _efield(8, u_at=[(0, 1.0)])
    y1 = np.eye(8)[0]
    y2 = np.eye(8)[0]
    with pytest.raises(ValueError):
        martingale_functional_check(ring8, 0.3, init, y1, y2, horizon=0.2,
                                    eps=0.1, replicas=8, seed=10)


def _never(*args, **kwargs):
    raise AssertionError("the simulation must not start")


def test_nonpositive_steps_raise(ring8, monkeypatch):
    # a zero substep never advances the jump-process clock: a reached
    # simulation fails fast here instead of hanging
    monkeypatch.setattr(sbm_infinite, "_pdmp_chunk", _never)
    init = _efield(8, u_at=[(0, 1.0)], v_at=[(4, 1.0)])
    for bad in (0.0, -0.01):
        with pytest.raises(ValueError, match="flow_substep"):
            pdmp_simulate(ring8, 0.0, init, 0.5, 0.1, flow_substep=bad)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps"):
            trotter_simulate(ring8, 0.0, init, 0.5, eps)
        with pytest.raises(ValueError, match="eps"):
            martingale_functional_check(ring8, 0.3, init, np.eye(8)[0],
                                        np.eye(8)[2], horizon=0.5, eps=eps)


def _row(cfg, prefix):
    rows = [r for r in run_experiment(cfg).criteria
            if r.name.startswith(prefix)]
    assert len(rows) == 1
    return rows[0]


def test_martingale_functional_row_catches_a_wrong_exit_law(monkeypatch):
    # planted defect: the exit resample at rho = 0 instead of 0.3; the real
    # row must FAIL (0.041 against a tolerance of 0.005) and pass without it
    cfg = default_config("martingale-functional")
    name = "martingale functional mean (real)"
    assert _row(cfg, name).passed
    exact = sbm_infinite.ExitLawParams
    monkeypatch.setattr(sbm_infinite, "ExitLawParams",
                        lambda rho: exact(0.0))
    row = _row(cfg, name)
    assert row.model == "agree" and not row.passed
    assert row.observed > 4 * row.tolerance


def test_trotter_refine_boundary_row_catches_a_skipped_exit(monkeypatch):
    # planted defect: the Trotter step keeps the heat-flowed pair instead of
    # resampling it on the boundary set
    cfg = default_config("trotter-refine")
    name = "boundary constraint u*v = 0 (exact)"
    assert _row(cfg, name).passed
    monkeypatch.setattr(sbm_infinite, "sample_exit_batch",
                        lambda params, u, v, rng: (u, v))
    row = _row(cfg, name)
    assert not row.passed and row.observed > 0.0
