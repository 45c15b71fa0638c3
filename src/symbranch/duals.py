"""Duality oracles for finite-rate symbiotic branching.

Three independent routes to moments of the pair field, used to cross-check
the Euler simulator (and each other):

* moment duality: mixed moments E[prod u_t(k_i) prod v_t(k_j)] equal the
  expectation, over a system of colored random walkers, of the start field
  evaluated at the walkers' terminal positions and colors, weighted by
  exp(gamma*(L_same + rho*L_opp)) where L_same / L_opp are accumulated
  co-location times of same- and opposite-color pairs. Co-located same-color
  pairs also recolor: after an Exp(gamma) amount of pair co-location time one
  member (fair coin) switches color, and budgets of pairs involving the
  switched particle are redrawn.
* self-duality: a bounded complex exponential functional whose expectation
  can be evaluated with the roles of the evolving and the frozen pair swapped.
* coalescing walkers: product moments of the voter / stepping-stone limit
  reduce to the start field sampled at positions of instantly merging walkers.
"""

import math
import warnings

import numpy as np

from symbranch import rng as rngmod
from symbranch.lattice import heat_semigroup
from symbranch.sbm_finite import simulate
from symbranch.stats import complex_mean_se, pooled_mean_se


def _walk_step(g, pos, rng):
    """Move one walker at site pos one jump of the generator-driven walk."""
    row = g.rates[pos].copy()
    row[pos] = 0.0
    total = row.sum()
    return int(rng.choice(g.n_sites, p=row / total))


class ColoredParticleSystem:
    """Event-driven colored walkers with pair recoloring and collision clocks.

    Colors: 1 marks a u-factor, 2 a v-factor. Budgets are per unordered pair,
    persist across separations (memorylessness makes the decremented budget
    exact), and are redrawn for every pair involving a recolored particle.
    """

    def __init__(self, g, gamma, sites, colors, rng):
        self.g = g
        self.gamma = gamma
        self.pos = list(int(s) for s in sites)
        self.col = list(int(c) for c in colors)
        if any(c not in (1, 2) for c in self.col):
            raise ValueError("colors are 1 (u-factor) or 2 (v-factor)")
        if any(not 0 <= p < g.n_sites for p in self.pos):
            raise ValueError("particle site out of range")
        self.rng = rng
        self.n = len(self.pos)
        self.L_same = 0.0
        self.L_opp = 0.0
        self._budget = {}

    def _active_pairs(self):
        same, opp = [], []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.pos[i] == self.pos[j]:
                    (same if self.col[i] == self.col[j] else opp).append((i, j))
        return same, opp

    def _pair_budget(self, pair):
        if pair not in self._budget:
            self._budget[pair] = self.rng.exponential(1.0 / self.gamma)
        return self._budget[pair]

    def run(self, horizon):
        """Advance to the given time; accumulates collision clocks and flips."""
        t = 0.0
        diag = -np.diag(self.g.rates)
        while t < horizon:
            rates = np.array([diag[p] for p in self.pos])
            total_jump = rates.sum()
            same, opp = self._active_pairs()
            if self.gamma > 0 and same:
                budgets = [self._pair_budget(p) for p in same]
                i_min = int(np.argmin(budgets))
                dt_flip = budgets[i_min]
            else:
                dt_flip = math.inf
            dt_jump = (self.rng.exponential(1.0 / total_jump)
                       if total_jump > 0 else math.inf)
            dt = min(dt_jump, dt_flip, horizon - t)
            self.L_same += len(same) * dt
            self.L_opp += len(opp) * dt
            if dt_flip < math.inf:
                for p in same:
                    self._budget[p] -= dt
            t += dt
            if dt == math.inf or t >= horizon:
                break
            if dt_flip <= dt_jump:
                i, j = same[i_min]
                k = i if self.rng.random() < 0.5 else j
                self.col[k] = 3 - self.col[k]
                for p in list(self._budget):
                    if k in p:
                        del self._budget[p]
            else:
                i = int(self.rng.choice(self.n, p=rates / total_jump))
                self.pos[i] = _walk_step(self.g, self.pos[i], self.rng)

    def weight(self, u0, v0, rho):
        """Start-field product at terminal positions times the collision weight."""
        prod = 1.0
        for p, c in zip(self.pos, self.col):
            prod *= u0[p] if c == 1 else v0[p]
        return prod * math.exp(self.gamma * (self.L_same + rho * self.L_opp))


def moment_dual_estimate(g, gamma, rho, initial, u_sites, v_sites, t,
                         replicas=10000, seed=0, rng_tag="moment-dual"):
    """Dual-route estimate of E[prod u_t(k) prod v_t(k)] with standard error.

    initial is the PairField the forward process starts from. Variance of the
    exponential weight explodes once gamma * t * n_pairs is large; refuses
    beyond 10, and warns when the relative standard error exceeds 50%.
    """
    u0, v0 = initial.u, initial.v
    sites = list(u_sites) + list(v_sites)
    colors = [1] * len(u_sites) + [2] * len(v_sites)
    n_pairs = len(sites) * (len(sites) - 1) / 2
    budget = gamma * t * n_pairs
    if budget > 10:
        raise ValueError(f"gamma*t*pairs = {budget:.1f} > 10: exponential weight "
                         "variance is untrustworthy")
    vals = np.empty(replicas)
    for r in range(replicas):
        rng = rngmod.stream(seed, rng_tag, r)
        sys_ = ColoredParticleSystem(g, gamma, sites, colors, rng)
        sys_.run(t)
        vals[r] = sys_.weight(u0, v0, rho)
    mean, se = pooled_mean_se(vals)
    if mean != 0 and se / abs(mean) > 0.5:
        warnings.warn(f"moment dual relative SE {se / abs(mean):.1%} exceeds 50%")
    return mean, se


def coalescing_dual_estimate(g, u0, sites, t, replicas=10000, seed=0,
                             rng_tag="coalescing-dual"):
    """E[prod u0(xi_t)] over instantly coalescing generator-driven walkers.

    Walkers start at the given sites (duplicates merge immediately) and merge
    whenever a jump lands one on another. Returns (mean, se).
    """
    u0 = np.asarray(u0, dtype=float)
    vals = np.empty(replicas)
    diag = -np.diag(g.rates)
    for r in range(replicas):
        rng = rngmod.stream(seed, rng_tag, r)
        pos = sorted(set(int(s) for s in sites))
        now = 0.0
        while len(pos) > 1:
            rates = np.array([diag[p] for p in pos])
            total = rates.sum()
            if total <= 0:
                break
            now += rng.exponential(1.0 / total)
            if now >= t:
                break
            i = int(rng.choice(len(pos), p=rates / total))
            pos[i] = _walk_step(g, pos[i], rng)
            pos = sorted(set(pos))
        if len(pos) == 1 and diag[pos[0]] > 0:
            # lone walker keeps moving; sample its time-t site from the
            # heat kernel row instead of stepping jump by jump
            remaining = max(t - now, 0.0)
            row = heat_semigroup(g, remaining)[pos[0]]
            pos = [int(rng.choice(g.n_sites, p=row / row.sum()))]
        vals[r] = np.prod(u0[pos])
    return pooled_mean_se(vals)


def duality_pairing(x1, x2, y1, y2, rho):
    """Complex bilinear pairing of two pair fields, summed over sites.

    sum_k [ -sqrt(1-rho)(x1+x2)(y1+y2) + i sqrt(1+rho)(x1-x2)(y1-y2) ](k).
    Linear in (x1, x2) for fixed (y1, y2) and vice versa; broadcasts over
    leading axes. Its exponential is the bounded self-duality functional.
    """
    if abs(rho) > 1:
        raise ValueError("correlation must lie in [-1, 1]")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    re = -math.sqrt(1.0 - rho) * np.sum((x1 + x2) * (y1 + y2), axis=-1)
    im = math.sqrt(1.0 + rho) * np.sum((x1 - x2) * (y1 - y2), axis=-1)
    return re + 1j * im


def selfdual_functional(x1, x2, y1, y2, rho):
    """Bounded complex pairing of two nonnegative pair fields; |result| <= 1."""
    return np.exp(duality_pairing(x1, x2, y1, y2, rho))


def selfdual_check(g, cfg, x0, y0, rng_tag="selfdual"):
    """Both sides of the self-duality at time cfg.horizon, with errors.

    Side A evolves x0 and pairs against the frozen y0; side B evolves y0 and
    pairs against the frozen x0. Returns means, componentwise standard errors,
    and the gaps; the two ensembles use independent streams of cfg.seed.
    Aborted replicas (zero fields, so F = 1) are left out of each side;
    raises ValueError when fewer than 2 replicas of a side survive.
    """
    obs_a = simulate(g, cfg, x0, rng_tag=rng_tag + "-A")
    obs_b = simulate(g, cfg, y0, rng_tag=rng_tag + "-B")
    a, b = ~obs_a.aborted, ~obs_b.aborted
    for side, kept in (("evolved x", a), ("evolved y", b)):
        if kept.sum() < 2:
            raise ValueError(
                f"self-duality side {side!r}: {kept.sum()} of {kept.size} "
                "replicas survived the Euler scheme; need at least 2")
    f_a = selfdual_functional(obs_a.u[a], obs_a.v[a], y0.u, y0.v, cfg.rho)
    f_b = selfdual_functional(x0.u, x0.v, obs_b.u[b], obs_b.v[b], cfg.rho)
    mean_a, se_a = complex_mean_se(f_a)
    mean_b, se_b = complex_mean_se(f_b)
    return {
        "mean_evolved_x": mean_a,
        "mean_evolved_y": mean_b,
        "se_evolved_x": se_a,
        "se_evolved_y": se_b,
        "gap_re": float(mean_a.real - mean_b.real),
        "gap_im": float(mean_a.imag - mean_b.imag),
        "se_gap_re": math.hypot(se_a[0], se_b[0]),
        "se_gap_im": math.hypot(se_a[1], se_b[1]),
        "aborted": int(obs_a.aborted.sum() + obs_b.aborted.sum()),
    }
