"""Voter dynamics and the rho = -1 identification routes."""

import dataclasses

import numpy as np
import pytest

from symbranch import exitlaw, sbm_infinite
from symbranch.config import build_graph
from symbranch.duals import coalescing_dual_estimate
from symbranch.experiments import default_config, run_experiment
from symbranch.voter import (OpinionField, _voter_rates,
                             gillespie_simulate, two_point_functions,
                             voter_vs_sbminf)


@pytest.fixture(scope="module")
def ring6():
    return build_graph({"kind": "torus", "d": 1, "L": 6})


def test_opinion_field_validation():
    OpinionField(np.array([0, 1, 1, 0]))
    with pytest.raises(ValueError):
        OpinionField(np.array([0, 2, 1, 0]))
    pair = OpinionField(np.array([1, 0, 1])).as_pair()
    assert np.array_equal(pair.u, [1.0, 0.0, 1.0])
    assert np.array_equal(pair.v, [0.0, 1.0, 0.0])


def test_flip_rates(ring6):
    eta = np.array([1, 1, 0, 0, 0, 1])
    # ring rates 1/2: disagreeing neighbors of site 1 = {2}; of site 2 = {1}
    rates = _voter_rates(ring6, eta)
    assert rates[1] == pytest.approx(0.5)
    assert rates[2] == pytest.approx(0.5)
    assert rates[4] == pytest.approx(0.5)
    # interior of a block never flips
    assert _voter_rates(ring6, np.array([1, 1, 1, 0, 0, 0]))[1] == 0.0


def test_consensus_is_absorbing(ring6):
    for horizon in (1.0, 5.0):
        res = gillespie_simulate(ring6, np.ones(6, dtype=int), horizon,
                                 replicas=16, seed=0)
        assert np.all(res["opinions"] == 1)
        assert np.all(res["flips"] == 0)


def test_shorter_horizon_is_a_prefix(ring6):
    # one stream per replica: a run to t1 < t2 draws the first events of the
    # run to t2, so flips only grow and consensus, once reached, stays
    eta0 = np.array([1, 0, 1, 0, 1, 0])
    early, late = (gillespie_simulate(ring6, eta0, t, replicas=200, seed=6)
                   for t in (1.5, 4.0))
    assert np.all(early["flips"] <= late["flips"])
    assert np.any(early["flips"] < late["flips"])
    agree = (early["opinions"] == early["opinions"][:, :1]).all(axis=1)
    assert agree.any()
    assert np.array_equal(late["opinions"][agree], early["opinions"][agree])


def test_voter_two_point_matches_coalescing_dual(ring6):
    # E[eta_t(x) eta_t(y)] equals the coalescing-walker pairing with eta0
    eta0 = np.array([1, 1, 1, 0, 0, 0])
    t = 0.8
    res = gillespie_simulate(ring6, eta0, horizon=t, replicas=20000, seed=1)
    tp = two_point_functions(res["opinions"].astype(float), [(0, 3)])
    m_dual, se_dual = coalescing_dual_estimate(ring6, eta0.astype(float),
                                               [0, 3], t, replicas=20000,
                                               seed=2)
    m_voter, se_voter = tp[(0, 3)]
    assert abs(m_voter - m_dual) < 3 * np.hypot(se_voter, se_dual)


def test_consensus_probability_monotone_in_time(ring6):
    eta0 = np.array([1, 0, 1, 0, 1, 0])
    cons = []
    for horizon in (1.0, 2.0, 4.0, 8.0):
        eta = gillespie_simulate(ring6, eta0, horizon, replicas=3000,
                                 seed=3)["opinions"]
        cons.append(float(np.mean((eta == eta[:, :1]).all(axis=1))))
    assert all(a <= b for a, b in zip(cons, cons[1:]))
    assert cons[-1] > cons[0]


def test_voter_vs_sbminf_routes_agree_small(ring6):
    eta0 = np.array([1, 1, 1, 0, 0, 0])
    pairs = [(0, 3)]
    cmp = voter_vs_sbminf(ring6, eta0, 0.5, pairs, replicas=1500, seed=4,
                          trotter_eps=0.05)
    assert cmp["pdmp_magnitudes_exact"] is True
    assert cmp["pdmp_rates_exact"] is True
    for ra, rb in (("voter", "pdmp"), ("voter", "coalescing")):
        ma, sa = cmp[ra][(0, 3)]
        mb, sb = cmp[rb][(0, 3)]
        assert abs(ma - mb) < 4 * np.hypot(max(sa, 1e-9), max(sb, 1e-9))


def test_voter_vs_sbminf_rejects_general_start(ring6):
    from symbranch.sbm_infinite import BoundaryField
    u = np.array([2.0, 0.0, 1.0, 0.0, 0.5, 0.0])
    v = np.array([0.0, 1.5, 0.0, 0.7, 0.0, 1.0])
    with pytest.raises(ValueError):
        voter_vs_sbminf(ring6, BoundaryField(u, v), 0.5, [(0, 3)],
                        replicas=8, seed=5)


def _off_unit_marks(monkeypatch):
    exact = sbm_infinite.sample_nu_trunc

    def skewed(measure, rng, size):
        swap, mag = exact(measure, rng, size)
        return swap, (mag * (1.0 + 2.0 ** -20) if measure.rho == -1.0 else mag)

    monkeypatch.setattr(sbm_infinite, "sample_nu_trunc", skewed)


def _unbalanced_flow(monkeypatch):
    exact = exitlaw.atomic_swap_measure
    monkeypatch.setattr(exitlaw, "atomic_swap_measure",
                        lambda: dataclasses.replace(exact(), balance=0.0))


@pytest.mark.parametrize("plant", [_off_unit_marks, _unbalanced_flow])
def test_voter_limit_exactness_rows_catch_planted_defects(monkeypatch, plant):
    # planted defects of the rho = -1 jump process: marks of magnitude
    # 1 + 2^-20, or a flow that drops the -1 keep balance the compensator
    # needs; the report must still return, with both exactness rows FAILing
    cfg = default_config("voter-limit", replicas=500)
    names = ("jump-process magnitudes exactly 1",
             "jump-process rates equal voter rates (exact)")
    rows = {r.name: r for r in run_experiment(cfg).criteria}
    assert all(rows[name].passed for name in names)
    plant(monkeypatch)
    rows = {r.name: r for r in run_experiment(cfg).criteria}
    for name in names:
        assert rows[name].model == "within" and not rows[name].passed
