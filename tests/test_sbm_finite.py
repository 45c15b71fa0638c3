"""Finite-rate SDE stepping, mass martingales, brackets, time change."""

import numpy as np
import pytest

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
