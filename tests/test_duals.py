"""Duality oracles: colored moment walkers, coalescing walkers, self-duality."""

import numpy as np
import pytest

from symbranch import rng as rngmod
from symbranch.config import build_graph
from symbranch.duals import (ColoredParticleSystem, coalescing_dual_estimate,
                             duality_pairing, moment_dual_estimate,
                             selfdual_check, selfdual_functional)
from symbranch.lattice import heat_semigroup
from symbranch.sbm_finite import PairField, SdeConfig, simulate
from symbranch.stats import pooled_mean_se


@pytest.fixture(scope="module")
def ring4():
    return build_graph({"kind": "torus", "d": 1, "L": 4})


@pytest.fixture(scope="module")
def dumbbell():
    return build_graph({"kind": "dumbbell", "rate": 0.5})


def test_colored_system_validation(ring4):
    rng = rngmod.stream(0, "t-cps")
    with pytest.raises(ValueError):
        ColoredParticleSystem(ring4, 1.0, [0], [3], rng)
    with pytest.raises(ValueError):
        ColoredParticleSystem(ring4, 1.0, [9], [1], rng)


def test_moment_dual_t_zero_is_exact(ring4):
    u0 = np.array([1.0, 0.5, 2.0, 0.0])
    v0 = np.array([0.3, 1.0, 0.7, 1.5])
    mean, se = moment_dual_estimate(ring4, 1.0, 0.0, PairField(u0, v0),
                                    [2], [3], t=0.0, replicas=64, seed=1)
    assert se == 0.0
    assert mean == pytest.approx(u0[2] * v0[3], abs=1e-14)


def test_moment_dual_single_particle_is_heat(ring4):
    # one u-walker, no pairs: E[u_t(k)] = (heat kernel row) . u0
    u0 = np.array([1.0, 0.0, 0.0, 0.0])
    v0 = np.zeros(4)
    t = 0.7
    mean, se = moment_dual_estimate(ring4, 1.0, 0.0, PairField(u0, v0),
                                    [0], [], t=t, replicas=60000, seed=2)
    expected = float(heat_semigroup(ring4, t)[0] @ u0)
    assert abs(mean - expected) < 3 * max(se, 1e-12)


def test_moment_dual_gamma_zero_product(dumbbell):
    # independent walkers, no branching weight: product of heat averages
    u0 = np.array([2.0, 0.0])
    v0 = np.array([0.0, 1.0])
    t = 0.5
    mean, se = moment_dual_estimate(dumbbell, 0.0, -0.5, PairField(u0, v0),
                                    [0], [1], t=t, replicas=60000, seed=3)
    P = heat_semigroup(dumbbell, t)
    expected = float((P[0] @ u0) * (P[1] @ v0))
    assert abs(mean - expected) < 3 * se


def test_moment_dual_recoloring_matches_euler(dumbbell):
    # two u walkers share a color, so they recolor while co-located: here
    # the dual gives 0.4006 +- 0.0024 and Euler 0.4033 +- 0.0028 (z = -0.7);
    # with recoloring frozen the dual gives 0.4326 +- 0.0027 (z = 7.5)
    init = PairField(np.array([1.0, 0.3]), np.array([0.2, 1.0]))
    gamma, rho, t, n = 1.0, -0.5, 0.5, 20000
    m, s = moment_dual_estimate(dumbbell, gamma, rho, init, [0, 1], [],
                                t=t, replicas=n, seed=4)
    cfg = SdeConfig(gamma=gamma, rho=rho, horizon=t, replicas=n, seed=5)
    obs = simulate(dumbbell, cfg, init)
    assert not obs.aborted.any()
    e, se = pooled_mean_se(obs.u[:, 0] * obs.u[:, 1])
    assert abs(m - e) < 4 * np.hypot(s, se)


def test_moment_dual_budget_guard(ring4):
    with pytest.raises(ValueError):
        moment_dual_estimate(ring4, 10.0, 0.0,
                             PairField(np.ones(4), np.ones(4)),
                             [0, 1], [2, 3], t=1.0, replicas=8, seed=6)


def test_coalescing_dual_t_zero(ring4):
    u0 = np.array([0.9, 0.1, 0.4, 0.7])
    mean, se = coalescing_dual_estimate(ring4, u0, [1, 3], t=0.0,
                                        replicas=32, seed=7)
    assert mean == pytest.approx(u0[1] * u0[3], abs=1e-14)
    assert se == 0.0


def test_coalescing_dual_duplicate_sites_merge(ring4):
    # duplicated start sites coalesce instantly: estimate is linear in u0
    u0 = np.array([0.9, 0.1, 0.4, 0.7])
    t = 0.6
    mean, se = coalescing_dual_estimate(ring4, u0, [2, 2], t=t,
                                        replicas=40000, seed=8)
    expected = float(heat_semigroup(ring4, t)[2] @ u0)
    assert abs(mean - expected) < 3 * se


def test_coalescing_dual_exceeds_independent_product(ring4):
    # coalescence correlates walkers upward for a {0,1} field
    u0 = np.array([1.0, 1.0, 0.0, 0.0])
    t = 1.0
    mean, se = coalescing_dual_estimate(ring4, u0, [0, 1], t=t,
                                        replicas=40000, seed=9)
    P = heat_semigroup(ring4, t)
    indep = float((P[0] @ u0) * (P[1] @ u0))
    assert mean - indep > max(0.01, 3 * se)


def test_duality_pairing_values():
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 2.0])
    y1 = np.array([0.5, 0.5])
    y2 = np.array([0.0, 1.0])
    rho = 0.3
    got = duality_pairing(x1, x2, y1, y2, rho)
    re = -np.sqrt(1 - rho) * ((x1 + x2) @ (y1 + y2))
    im = np.sqrt(1 + rho) * ((x1 - x2) @ (y1 - y2))
    assert got == pytest.approx(re + 1j * im, abs=1e-14)
    assert abs(selfdual_functional(x1, x2, y1, y2, rho)) <= 1.0
    with pytest.raises(ValueError):
        duality_pairing(x1, x2, y1, y2, 1.2)


def test_selfdual_check_t_zero_gap_is_zero(ring4):
    cfg = SdeConfig(gamma=1.0, rho=0.3, horizon=0.0, dt=1e-3, replicas=16,
                    seed=10)
    x0 = PairField(np.array([1.0, 0.0, 0.5, 0.0]),
                   np.array([0.0, 0.8, 0.0, 0.5]))
    y0 = PairField(np.array([0.4, 0.0, 0.3, 0.0]),
                   np.array([0.0, 0.2, 0.0, 0.5]))
    out = selfdual_check(ring4, cfg, x0, y0)
    assert out["gap_re"] == pytest.approx(0.0, abs=1e-14)
    assert out["gap_im"] == pytest.approx(0.0, abs=1e-14)


def test_selfdual_check_small_run(ring4):
    cfg = SdeConfig(gamma=1.0, rho=0.3, horizon=0.3, dt=1e-3, replicas=3000,
                    seed=11)
    x0 = PairField(np.array([1.0, 0.0, 0.5, 0.0]),
                   np.array([0.0, 0.8, 0.0, 0.5]))
    y0 = PairField(np.array([0.4, 0.0, 0.3, 0.0]),
                   np.array([0.0, 0.2, 0.0, 0.5]))
    out = selfdual_check(ring4, cfg, x0, y0)
    assert abs(out["gap_re"]) < 3 * out["se_gap_re"]
    assert abs(out["gap_im"]) < 3 * out["se_gap_im"]


def test_selfdual_check_drops_aborted_replicas(ring4):
    # an aborted replica ends at zero fields, and exp(pairing(0, 0, y)) = 1:
    # pooled, the aborts pulled the evolved-x mean to ~0.98, while every
    # replica that survives a start of 1e200 pairs to exp(-huge) = 0
    cfg = SdeConfig(gamma=1.0, rho=0.3, horizon=0.01, dt=1e-3, replicas=256,
                    seed=0)
    x0 = PairField(np.array([1e200, 0.0, 0.5, 0.0]),
                   np.array([0.0, 0.8, 0.0, 0.5]))
    y0 = PairField(np.array([0.4, 0.0, 0.3, 0.0]),
                   np.array([0.0, 0.2, 0.0, 0.5]))
    with np.errstate(over="ignore", invalid="ignore"):
        out = selfdual_check(ring4, cfg, x0, y0)
    assert out["aborted"] == 251
    assert out["mean_evolved_x"] == 0
