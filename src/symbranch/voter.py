"""Voter dynamics on a site graph, and its match with the rho = -1 boundary
process.

A site holding opinion eta(k) flips at rate sum_j a(k,j) 1{eta(j) != eta(k)},
the total jump rate toward disagreeing neighbors. Encoding U = eta, V = 1-eta
turns this into the rho = -1 infinite-rate pair process: the atomic swap
measure flips the local pair at exactly the voter rate, and the compensated
flow vanishes identically on unit-sum states.
"""

import math
from dataclasses import dataclass

import numpy as np

from symbranch import rng as rngmod
from symbranch.duals import coalescing_dual_estimate
from symbranch.lattice import as_field
from symbranch.sbm_infinite import (BoundaryField, intensity, pdmp_simulate,
                                    trotter_simulate)
from symbranch.stats import pooled_mean_se


@dataclass
class OpinionField:
    """Binary opinion per site."""

    eta: np.ndarray

    def __post_init__(self):
        self.eta = np.asarray(self.eta)
        if not np.isin(self.eta, (0, 1)).all():
            raise ValueError("opinions are 0 or 1")
        self.eta = self.eta.astype(np.int8)

    def as_pair(self):
        """The (U, V) = (eta, 1-eta) boundary encoding."""
        return BoundaryField(self.eta.astype(float), 1.0 - self.eta)


def _voter_rates(g, eta):
    """Rate sum_j a(k,j) 1{eta(j) != eta(k)} of every site k."""
    off = g.rates - np.diag(np.diag(g.rates))
    disagree = (eta[None, :] != eta[:, None])
    return (off * disagree).sum(axis=1)


def gillespie_simulate(g, eta0, horizon, replicas=1, seed=0, rng_tag="voter"):
    """Continuous-time voter trajectories by exact event simulation.

    Returns the terminal opinions (R, n) at the horizon and the per-replica
    flip counts. One stream per replica, so a run to a shorter horizon draws
    the same prefix of every replica's path.
    """
    eta0 = OpinionField(as_field(g, np.asarray(eta0))).eta
    n = g.n_sites
    opinions = np.empty((replicas, n), dtype=np.int8)
    flips = np.zeros(replicas, dtype=int)
    for r in range(replicas):
        rng = rngmod.stream(seed, rng_tag, r)
        eta = eta0.copy()
        rates = _voter_rates(g, eta)
        t = 0.0
        while True:
            total = rates.sum()
            dt = rng.exponential(1.0 / total) if total > 0 else math.inf
            if t + dt >= horizon:
                break
            t += dt
            k = int(rng.choice(n, p=rates / total))
            eta[k] = 1 - eta[k]
            flips[r] += 1
            rates = _voter_rates(g, eta)
        opinions[r] = eta
    return {"opinions": opinions, "flips": flips}


def two_point_functions(fields, pairs):
    """Mean and SE of field(x)*field(y) per requested pair, fields (R, n)."""
    return {(x, y): pooled_mean_se(fields[:, x] * fields[:, y])
            for (x, y) in pairs}


def voter_vs_sbminf(g, initial, horizon, pairs, replicas=4000, seed=0,
                    trotter_eps=0.02):
    """Compare voter dynamics against both infinite-rate simulators at rho=-1.

    For a 0/1 opinion array, returns one routes dict with per-pair
    (mean, se) of E[U_t(x) U_t(y)] for the Gillespie voter, the Trotter
    scheme, the jump process, and the coalescing-walker dual, plus exactness
    flags for the jump-process route (unit magnitudes throughout, rates
    equal to the voter rates on sampled states). Any other start is
    rejected: the voter identification is proven for 0/1 starts only.
    """
    if isinstance(initial, BoundaryField):
        raise ValueError("the voter identification is proven for 0/1 "
                         "opinion starts only")
    eta0 = OpinionField(as_field(g, np.asarray(initial)))
    start = eta0.as_pair()
    results = {}

    ssa = gillespie_simulate(g, eta0.eta, horizon, replicas=replicas,
                             seed=seed)
    results["voter"] = two_point_functions(ssa["opinions"], pairs)
    dual = {}
    for (x, y) in pairs:
        dual[(x, y)] = coalescing_dual_estimate(
            g, eta0.eta.astype(float), [x, y], horizon,
            replicas=replicas, seed=seed)
    results["coalescing"] = dual

    tr = trotter_simulate(g, -1.0, start, horizon, trotter_eps,
                          replicas=replicas, seed=seed)
    results["trotter"] = two_point_functions(tr["u"], pairs)

    pd = pdmp_simulate(g, -1.0, start, horizon, eps=0.1,
                       replicas=replicas, seed=seed, record_events=True)
    results["pdmp"] = two_point_functions(pd["u"], pairs)
    upd, vpd = pd["u"], pd["v"]
    results["pdmp_magnitudes_exact"] = bool(
        np.all(upd + vpd == 1.0) and np.all(upd * vpd == 0.0)
        and np.all(pd["zeroed_mass"] == 0.0)
        and all(ev.magnitude == 1.0 for ev in pd["events"]))
    results["pdmp_rates_exact"] = _rates_match_exactly(g, upd)
    return results


def _rates_match_exactly(g, u_fields):
    """Jump intensities on sampled 0/1 states vs voter rates, float-equal."""
    for row in u_fields[:64]:
        state = BoundaryField(row, 1.0 - row)
        rates = intensity(g, state)
        eta = row.astype(np.int8)
        expected = _voter_rates(g, eta)
        if not np.array_equal(rates, expected):
            return False
    return True
