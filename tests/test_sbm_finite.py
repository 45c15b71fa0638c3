"""Finite-rate SDE stepping, mass martingales, brackets, aborts."""

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


_MAGNITUDE = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _cfg(**kw):
    base = dict(gamma=1.0, rho=0.0, horizon=0.1, dt=1e-3, replicas=4,
                seed=0)
    base.update(kw)
    return SdeConfig(**base)


def test_default_dt():
    assert default_dt(1.0) == pytest.approx(1e-3)
    assert default_dt(10.0) == pytest.approx(1e-4)
    assert default_dt(0.1) == pytest.approx(1e-3)


def test_sde_config_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for bad in ({"gamma": nan}, {"gamma": inf}, {"rho": nan},
                {"horizon": nan}, {"horizon": inf}, {"dt": nan},
                {"dt": inf}):
        with pytest.raises(ValueError):
            _cfg(**bad)


def test_pairfield_rejects_negative():
    with pytest.raises(ValueError):
        PairField(np.array([-0.1, 1.0]), np.array([1.0, 1.0]))


def _one_step(g, state, **kw):
    """Terminal fields of a one-step simulate run from state."""
    cfg = _cfg(horizon=1e-3, replicas=1, **kw)
    obs = simulate(g, cfg, state)
    return cfg, obs.u[0], obs.v[0]


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
    obs = simulate(ring8, cfg, init)
    expected = u0 @ heat_semigroup(ring8, 0.5).T
    assert np.allclose(obs.u[0], expected, atol=5e-4)


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


def test_brackets_per_clock_unit(ring8):
    # in the clock gamma int <u,v> ds the total masses are a rho-correlated
    # Brownian pair: each quadratic variation is one per unit clock and the
    # cross-variation is rho per unit clock (SE of quad_u/clock ~ 0.0006)
    rho = 0.5
    init = PairField(np.full(8, 1.0), np.full(8, 0.5))
    cfg = _cfg(rho=rho, horizon=0.5, replicas=10000, seed=7)
    br = realized_brackets(simulate(ring8, cfg, init))
    assert br["n_replicas"] == cfg.replicas
    assert br["quad_u"] / br["predicted_quad"] == pytest.approx(1.0, abs=0.01)
    assert br["quad_v"] / br["predicted_quad"] == pytest.approx(1.0, abs=0.01)
    assert br["ratio"] == pytest.approx(rho, abs=0.02)


def _row_major_reference(g, cfg, initial):
    """The replica-major loop simulate replaced, kept as its oracle: (m, n)
    arrays per chunk, the same streams and draws, aborts found site by site
    and from an overflowing pair product."""
    n, R = g.n_sites, cfg.replicas
    steps = int(round(cfg.horizon / cfg.dt))
    root = math.sqrt(1.0 - cfg.rho * cfg.rho)
    out = {k: np.zeros(R) for k in ("total_u", "total_v", "clock", "quad_u",
                                     "quad_v", "cross")}
    out["clamp_count"] = np.zeros(R, dtype=np.int64)
    out["aborted"] = np.zeros(R, dtype=bool)
    out["u"] = np.zeros((R, n))
    out["v"] = np.zeros((R, n))
    for lo, hi, rng in rngmod.chunk_streams(cfg.seed, "sbm-finite", R):
        m = hi - lo
        u = np.tile(np.asarray(initial.u, dtype=float), (m, 1))
        v = np.tile(np.asarray(initial.v, dtype=float), (m, 1))
        acc = {k: np.zeros(m) for k in ("clock", "quad_u", "quad_v", "cross")}
        clamp = np.zeros(m, dtype=np.int64)
        ok = np.ones(m, dtype=bool)
        tot_u, tot_v = u.sum(axis=1), v.sum(axis=1)
        for _ in range(steps):
            pair = np.einsum("ij,ij->i", u, v)
            z1 = rng.standard_normal((m, n))
            zperp = rng.standard_normal((m, n))
            un = u + u @ g.rates.T * cfg.dt
            vn = v + v @ g.rates.T * cfg.dt
            if cfg.gamma > 0:
                sig = np.sqrt(cfg.gamma * np.maximum(u, 0.0)
                              * np.maximum(v, 0.0) * cfg.dt)
                un = un + sig * z1
                vn = vn + sig * (cfg.rho * z1 + root * zperp)
            clamp += (un < 0).sum(axis=1) + (vn < 0).sum(axis=1)
            u, v = np.maximum(un, 0.0), np.maximum(vn, 0.0)
            bad = ~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)
                    & np.isfinite(pair))
            ok &= ~bad
            u[bad] = 0.0
            v[bad] = 0.0
            du = np.where(ok, u.sum(axis=1) - tot_u, 0.0)
            dv = np.where(ok, v.sum(axis=1) - tot_v, 0.0)
            acc["quad_u"] += du**2
            acc["quad_v"] += dv**2
            acc["cross"] += du * dv
            acc["clock"] += np.where(ok, cfg.gamma * pair * cfg.dt, 0.0)
            tot_u, tot_v = u.sum(axis=1), v.sum(axis=1)
        out["u"][lo:hi], out["v"][lo:hi] = u, v
        out["total_u"][lo:hi], out["total_v"][lo:hi] = tot_u, tot_v
        for k, a in acc.items():
            out[k][lo:hi] = a
        out["clamp_count"][lo:hi] = clamp
        out["aborted"][lo:hi] = ~ok
    return out


_FIELDS = ("total_u", "total_v", "clock", "quad_u", "quad_v", "cross",
           "clamp_count", "aborted", "u", "v")


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 1.0])
def test_simulate_bit_identical_to_row_major_on_dumbbell(rho):
    # two chunks, a start with empty sites (so clamps fire), a zero horizon
    g = build_graph({"kind": "dumbbell"})
    init = PairField([1.0, 0.0], [0.0, 1.0])
    for horizon in (0.0, 0.05, 0.2):
        cfg = _cfg(gamma=5.0, rho=rho, dt=0.01, horizon=horizon,
                   replicas=rngmod.CHUNK + 3, seed=12)
        obs = simulate(g, cfg, init)
        ref = _row_major_reference(g, cfg, init)
        for key in _FIELDS:
            assert np.array_equal(getattr(obs, key), ref[key]), (horizon, key)
        # on two sites the sum over sites has one order
        assert np.array_equal(obs.u.sum(axis=1), obs.total_u)
        assert np.array_equal(obs.v.sum(axis=1), obs.total_v)
    assert obs.clamp_count.sum() > 0


def test_simulate_matches_row_major_on_torus(ring8):
    # sums over 8 sites run in another order: 1e-12 relative, on the scale
    # sqrt(quad_u quad_v) for the cross bracket, which can be near 0
    init = PairField(np.linspace(0.0, 1.0, 8), np.linspace(1.0, 0.1, 8))
    for horizon in (0.0, 0.1):
        cfg = _cfg(gamma=2.0, rho=0.3, horizon=horizon,
                   replicas=rngmod.CHUNK + 3, seed=13)
        obs = simulate(ring8, cfg, init)
        ref = _row_major_reference(ring8, cfg, init)
        assert np.array_equal(obs.clamp_count, ref["clamp_count"])
        assert np.array_equal(obs.aborted, ref["aborted"])
        scale = {"cross": np.sqrt(ref["quad_u"] * ref["quad_v"])}
        for key in _FIELDS[:6] + _FIELDS[8:]:
            err = np.abs(getattr(obs, key) - ref[key])
            assert np.all(err <= 1e-12 * scale.get(key, np.abs(ref[key]))), \
                (horizon, key)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_simulate_abort_matches_row_major(rho):
    # u v = 1.69e308 at site 0 is just below the largest float; the first
    # step keeps every field finite, and u v overflows at the second step in
    # the replicas whose noise there pushes both fields up
    g = build_graph({"kind": "dumbbell"})
    init = PairField([1.3e154, 1.0], [1.3e154, 1.0])
    for horizon in (0.001, 0.002):
        cfg = _cfg(rho=rho, horizon=horizon, replicas=256, seed=14)
        with np.errstate(over="ignore", invalid="ignore"):
            obs = simulate(g, cfg, init)
            ref = _row_major_reference(g, cfg, init)
        for key in _FIELDS:
            assert np.array_equal(getattr(obs, key), ref[key]), (horizon, key)
    assert 0 < obs.aborted.sum() < cfg.replicas
    assert np.all(obs.u[obs.aborted] == 0.0)
    assert np.all(obs.v[obs.aborted] == 0.0)
    assert np.all(obs.total_u[obs.aborted] == 0.0)
    assert np.all(obs.total_v[obs.aborted] == 0.0)
    ok = ~obs.aborted
    for key in ("clock", "quad_u", "quad_v", "cross"):
        assert np.all(np.isfinite(getattr(obs, key)[ok])), key
    assert math.isfinite(realized_brackets(obs)["ratio"])


def test_simulate_total_overflow_is_an_abort():
    # finite fields whose total overflows: an abort, unlike the row-major loop
    g = build_graph({"kind": "dumbbell"})
    init = PairField([1e308, 1e308], [1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        obs = simulate(g, _cfg(gamma=0.0, horizon=0.002, replicas=3), init)
    assert obs.aborted.all()
    assert np.all(obs.total_u == 0.0) and np.all(obs.quad_u == 0.0)


@settings(max_examples=40, deadline=None)
@given(rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       u0=st.one_of(st.just(0.0), _MAGNITUDE),
       v0=st.one_of(st.just(0.0), _MAGNITUDE),
       seed=st.integers(0, 2**16))
def test_simulate_properties(ring8, rho, u0, v0, seed):
    shape = np.linspace(0.5, 1.5, 8)
    for horizon in (0.02, 0.05):
        cfg = _cfg(rho=rho, horizon=horizon, replicas=16, seed=seed)
        obs = simulate(ring8, cfg, PairField(u0 * shape, v0 * shape))
        assert not obs.aborted.any()
        for key in _FIELDS[:6] + _FIELDS[8:]:
            assert np.all(np.isfinite(getattr(obs, key))), key
            if key != "cross":
                assert np.all(getattr(obs, key) >= 0), key
        if u0 == 0.0:
            assert np.all(obs.u == 0.0) and np.all(obs.total_u == 0.0)
            for key in ("clock", "quad_u", "cross"):
                assert np.all(getattr(obs, key) == 0.0), key
        if rho == 1.0 and u0 == v0:
            obs = simulate(ring8, cfg, PairField(u0 * shape, u0 * shape))
            assert np.array_equal(obs.u, obs.v)
            assert np.array_equal(obs.total_u, obs.total_v)


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
