"""Finite-rate SDE stepping, mass martingales, brackets, time change."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbranch import rng as rngmod
from symbranch.config import build_graph
from symbranch.lattice import heat_semigroup
from symbranch.sbm_finite import (PairField, SdeConfig, default_dt,
                                  nonspatial_simulate, realized_brackets,
                                  simulate)
from symbranch.stats import pooled_mean_se


@pytest.fixture(scope="module")
def ring8():
    return build_graph({"kind": "torus", "d": 1, "L": 8})


def _cfg(**kw):
    base = dict(gamma=1.0, rho=0.0, horizon=0.1, dt=1e-3, replicas=4,
                seed=0)
    base.update(kw)
    return SdeConfig(**base)


def test_default_dt():
    assert default_dt(1.0) == pytest.approx(1e-3)
    assert default_dt(10.0) == pytest.approx(1e-4)
    assert default_dt(0.1) == pytest.approx(1e-3)


def test_pairfield_rejects_negative():
    with pytest.raises(ValueError):
        PairField(np.array([-0.1, 1.0]), np.array([1.0, 1.0]))


def _one_step(g, state, **kw):
    """Fields after one simulate step from state, every site probed."""
    cfg = _cfg(horizon=1e-3, replicas=1, **kw)
    obs = simulate(g, cfg, state, probes=range(g.n_sites), times=[cfg.dt])
    return cfg, obs.probe_u[0, -1], obs.probe_v[0, -1]


def test_step_gamma_zero_is_heat(ring8):
    u = np.linspace(0.1, 1.7, 8)
    v = np.linspace(1.0, 0.2, 8)
    cfg, ou, ov = _one_step(ring8, PairField(u, v), gamma=0.0)
    assert np.allclose(ou, u + cfg.dt * (u @ ring8.rates.T), atol=1e-14)
    assert np.allclose(ov, v + cfg.dt * (v @ ring8.rates.T), atol=1e-14)


def test_step_zero_field_stays_zero(ring8):
    state = PairField(np.zeros(8), np.full(8, 0.7))
    _, ou, _ = _one_step(ring8, state, seed=1)
    assert np.all(ou == 0.0)


def test_step_rho_one_keeps_equal_fields(ring8):
    w = np.linspace(0.2, 1.1, 8)
    _, ou, ov = _one_step(ring8, PairField(w, w), rho=1.0, seed=2)
    assert np.array_equal(ou, ov)


def test_step_rho_minus_one_sum_is_heat_step(ring8):
    u = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.0, 0.3, 0.7])
    v = 1.0 - u
    cfg, ou, ov = _one_step(ring8, PairField(u, v), rho=-1.0, seed=3)
    s = u + v
    heat = s + cfg.dt * (s @ ring8.rates.T)
    assert np.allclose(ou + ov, heat, atol=1e-12)


def test_simulate_horizon_zero_returns_initial(ring8):
    init = PairField(np.full(8, 0.5), np.full(8, 0.25))
    obs = simulate(ring8, _cfg(horizon=0.0), init)
    assert np.allclose(obs.total_u, 4.0)
    assert np.allclose(obs.total_v, 2.0)


def test_simulate_gamma_zero_matches_heat_kernel(ring8):
    # delta mass spreads by the matrix exponential when the noise is off
    u0 = np.zeros(8)
    u0[0] = 1.0
    init = PairField(u0, np.full(8, 0.3))
    cfg = _cfg(gamma=0.0, horizon=0.5, replicas=1)
    obs = simulate(ring8, cfg, init, probes=list(range(8)), times=[0.5])
    expected = u0 @ heat_semigroup(ring8, 0.5).T
    assert np.allclose(obs.probe_u[0, -1], expected, atol=5e-4)


def test_simulate_mass_martingale_small(ring8):
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    cfg = _cfg(horizon=0.5, replicas=3000, seed=4)
    obs = simulate(ring8, cfg, init)
    ok = ~obs.aborted
    mean, se = pooled_mean_se(obs.total_u[ok])
    assert abs(mean - 8.0) < 3 * se


def test_simulate_deterministic_given_seed(ring8):
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    a = simulate(ring8, _cfg(replicas=16, seed=9), init)
    b = simulate(ring8, _cfg(replicas=16, seed=9), init)
    assert np.array_equal(a.total_u, b.total_u)
    assert np.array_equal(a.clock, b.clock)


def test_split_scheme_rho_minus_one_conservation(ring8):
    # heat-exact splitting: the sum field is conserved to 1e-10 when no
    # clamping fires
    u0 = 0.5 + 0.3 * np.cos(2 * np.pi * np.arange(8) / 8)
    init = PairField(u0, 1.0 - u0)
    cfg = _cfg(rho=-1.0, scheme="split", horizon=0.2, replicas=64, seed=5)
    obs = simulate(ring8, cfg, init, probes=list(range(8)), times=[0.2])
    clean = obs.clamp_count == 0
    assert clean.any()
    s = obs.probe_u[clean, -1, :] + obs.probe_v[clean, -1, :]
    assert np.max(np.abs(s - 1.0)) < 1e-10


def test_bracket_gamma_zero_is_null(ring8):
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    obs = simulate(ring8, _cfg(gamma=0.0, replicas=8), init)
    br = realized_brackets(obs)
    assert br["quad_u"] == 0.0 and br["cross"] == 0.0
    assert br["predicted_quad"] == 0.0


def test_bracket_ratio_estimates_rho(ring8):
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    for rho in (-0.5, 0.5):
        cfg = _cfg(rho=rho, horizon=0.5, replicas=3000, seed=6)
        br = realized_brackets(simulate(ring8, cfg, init))
        assert br["ratio"] == pytest.approx(rho, abs=0.05)


def test_time_change_clock_grid(ring8):
    # mass increments sampled on an equal-clock grid behave like a correlated
    # Brownian pair: variance per unit clock ~ 1, increment correlation ~ rho
    rho = 0.5
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    cfg = _cfg(rho=rho, horizon=0.5, replicas=10000, seed=7)
    obs = simulate(ring8, cfg, init, clock_grid=0.01, max_crossings=48)
    cm_u, cm_v = obs.clock_masses
    full = (~obs.aborted) & np.all(np.isfinite(cm_u), axis=1)
    du = np.diff(cm_u[full], axis=1).ravel()
    dv = np.diff(cm_v[full], axis=1).ravel()
    var_per_clock = du.var() / 0.01
    corr = np.corrcoef(du, dv)[0, 1]
    assert var_per_clock == pytest.approx(1.0, abs=0.10)
    assert corr == pytest.approx(rho, abs=0.10 * abs(rho) + 0.02)


def test_nonspatial_absorbed_start_is_fixed():
    cfg = _cfg(gamma=2.0, horizon=1.0, replicas=32)
    out = nonspatial_simulate(cfg, (0.0, 5.0))
    assert np.all(out["u"] == 0.0)
    assert np.all(out["v"] == 5.0)
    assert np.all(out["occupation"] == 0.0)


def test_nonspatial_occupation_positive():
    cfg = _cfg(gamma=1.0, horizon=2.0, replicas=256, seed=8)
    out = nonspatial_simulate(cfg, (1.0, 1.0))
    assert np.all(out["occupation"] >= 0)
    assert out["occupation"].mean() > 0.1


def _masked_reference(cfg, start):
    """The boolean-mask loop nonspatial_simulate replaced, kept as its oracle:
    same streams and draws, every block row masked until the block ends."""
    R = cfg.replicas
    steps = int(round(cfg.horizon / cfg.dt))
    u = np.full(R, float(start[0]))
    v = np.full(R, float(start[1]))
    occ = np.zeros(R)
    root = math.sqrt(1.0 - cfg.rho**2)
    for lo, hi, rng in rngmod.chunk_streams(cfg.seed, "sbm-nonspatial", R):
        alive = lo + np.flatnonzero((u[lo:hi] > 0) & (v[lo:hi] > 0))
        step = 0
        while alive.size and step < steps:
            k = min(2048, steps - step)
            z1 = rng.standard_normal((alive.size, k))
            z2 = cfg.rho * z1 + root * rng.standard_normal((alive.size, k))
            ua, va, occ_a = u[alive], v[alive], occ[alive]
            done = np.zeros(alive.size, dtype=bool)
            for j in range(k):
                live = ~done
                sig = np.sqrt(cfg.gamma * ua[live] * va[live] * cfg.dt)
                occ_a[live] += cfg.gamma * ua[live] * va[live] * cfg.dt
                ua[live] = np.maximum(ua[live] + sig * z1[live, j], 0.0)
                va[live] = np.maximum(va[live] + sig * z2[live, j], 0.0)
                done[live] |= (ua[live] <= 0) | (va[live] <= 0)
                if done.all():
                    break
            u[alive], v[alive], occ[alive] = ua, va, occ_a
            alive = alive[~done]
            step += k
    return u, v, occ


# (replicas, gamma, dt, steps, start): two chunks at one step and at 20
# steps from a start near the u axis (a quarter of the rows absorb in the
# first step, a tenth survive 20); 2050 steps cross the 2048-step block with
# rows absorbed before it and rows alive at the horizon; absorbed starts.
_BIT_CASES = [(rngmod.CHUNK + 3, 1.0, 0.1, 1, (0.05, 1.0)),
              (rngmod.CHUNK + 3, 1.0, 0.1, 20, (0.05, 1.0)),
              (40, 0.5, 1e-3, 2050, (1.0, 0.5)),
              (5, 1.0, 0.1, 3, (0.0, 2.0)),
              (5, 1.0, 0.1, 3, (3.0, 0.0))]


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.7, 1.0])
def test_nonspatial_bit_identical_to_masked_loop(rho):
    for replicas, gamma, dt, steps, start in _BIT_CASES:
        cfg = _cfg(rho=rho, gamma=gamma, dt=dt, horizon=dt * steps,
                   replicas=replicas, seed=11)
        out = nonspatial_simulate(cfg, start)
        u, v, occ = _masked_reference(cfg, start)
        assert np.array_equal(out["u"], u)
        assert np.array_equal(out["v"], v)
        assert np.array_equal(out["occupation"], occ)
        assert np.array_equal(out["absorbed"], (u <= 0) | (v <= 0))
        if start[0] * start[1] > 0:
            assert 0 < out["absorbed"].sum() < replicas


_MAGNITUDE = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       u0=st.one_of(st.just(0.0), _MAGNITUDE),
       v0=st.one_of(st.just(0.0), _MAGNITUDE),
       seed=st.integers(0, 2**16))
def test_nonspatial_properties(rho, u0, v0, seed):
    cfg = _cfg(rho=rho, horizon=0.05, replicas=16, seed=seed)
    out = nonspatial_simulate(cfg, (u0, v0))
    for key in ("u", "v", "occupation"):
        assert np.all(np.isfinite(out[key])) and np.all(out[key] >= 0)
    assert np.array_equal(out["absorbed"], (out["u"] <= 0) | (out["v"] <= 0))
    if u0 == 0.0 or v0 == 0.0:
        assert np.all(out["u"] == u0) and np.all(out["v"] == v0)
        assert np.all(out["occupation"] == 0.0)
        assert out["absorbed"].all()
