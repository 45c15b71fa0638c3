"""Euler simulation of finite-rate symbiotic branching on a site graph.

State is a nonnegative pair field (u, v). Per site and step, with independent
standard normals Z1, Zperp and Z2 = rho*Z1 + sqrt(1-rho^2)*Zperp:

    u' = u + Au dt + sqrt(gamma u v dt) Z1
    v' = v + Av dt + sqrt(gamma u v dt) Z2

then both are clamped to >= 0 (full truncation; the clamped values feed the
next square root). Total masses <u,1>, <v,1> are martingales whose quadratic
variations both equal gamma int <u_s, v_s> ds and whose cross-variation is
rho times that; the simulator accumulates the realized versions online, so
bracket ratios can be checked against rho without storing full trajectories.

`simulate` holds each chunk of replicas site-major, as (n, m) arrays: the
generator acts as A @ u, and the per-replica sums over sites (pair product,
totals, clamp counts) are reductions over axis 0. The normals are still drawn
as (m, n) blocks, one stream per chunk, and read through their transposes:
on the 2-site dumbbell every output bit matches a replica-major loop over the
same draws (the reference in the tests), and with more sites only the order
of the sums over sites differs.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from symbranch import rng as rngmod
from symbranch.lattice import as_field


@dataclass
class PairField:
    """Per-site nonnegative mass pair."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have matching shapes")
        if np.any(self.u < 0) or np.any(self.v < 0):
            raise ValueError("pair fields are nonnegative")


def default_dt(gamma):
    """Step size keeping per-step noise below state scale: 1e-3*min(1, 1/gamma)."""
    return 1e-3 * min(1.0, 1.0 / gamma) if gamma > 0 else 1e-3


@dataclass
class SdeConfig:
    gamma: float
    rho: float
    horizon: float
    dt: float = None
    replicas: int = 1
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 <= self.gamma < math.inf:
            raise ValueError("branching rate must be finite and >= 0")
        if not abs(self.rho) <= 1:
            raise ValueError("correlation must lie in [-1, 1]")
        if self.dt is None:
            self.dt = default_dt(self.gamma)
        if not (0 < self.dt < math.inf and 0 <= self.horizon < math.inf):
            raise ValueError("need finite dt > 0 and horizon >= 0")
        if self.gamma > 0 and self.dt > 0.1 / self.gamma:
            warnings.warn(f"dt={self.dt} exceeds 0.1/gamma={0.1 / self.gamma}: "
                          "per-step noise may dominate state scale")


@dataclass
class MassObservables:
    """Terminal fields and per-replica running observables of one batch."""

    u: np.ndarray              # (R, n) terminal fields, zero where aborted
    v: np.ndarray
    total_u: np.ndarray        # (R,) terminal <u,1>
    total_v: np.ndarray
    clock: np.ndarray          # (R,) realized gamma int <u,v> ds
    quad_u: np.ndarray         # (R,) sum of squared total-mass increments
    quad_v: np.ndarray
    cross: np.ndarray          # (R,) sum of cross products of increments
    clamp_count: np.ndarray    # (R,) entries clamped to 0
    aborted: np.ndarray        # (R,) replica hit a non-finite value


def simulate(g, cfg, initial, rng_tag="sbm-finite"):
    """Run cfg.replicas Euler trajectories to cfg.horizon; returns
    MassObservables: the terminal (R, n) fields u, v, and per replica the
    total masses, the clock, the brackets, the clamp count and the abort
    flag. Deterministic given cfg.seed; a run to a shorter horizon draws the
    same prefix of every replica's path.

    Layout: each chunk of m replicas is held site-major, as (n, m) arrays, so
    the generator step is A @ u and the pair product, the totals and the clamp
    counts are reductions over the site axis.

    Stream layout (the outputs depend on it): rng.map_chunks runs each chunk
    of replicas on its own stream; each step draws z1 then zperp, each of
    shape (m, n), and the step reads their transposes.

    Aborts are detected from the totals and the pair product: the fields are
    clamped >= 0, so a NaN or inf at any site makes <u,1> + <v,1> non-finite.
    Finite fields whose total, or whose <u,v> (the clock increment), overflows
    to inf count as an abort too. Such a replica is flagged in `aborted`, its
    fields and totals are zeroed, and from that step on it adds nothing to the
    clock or the brackets; its terminal u and v are zero. A replica whose
    fields stay finite is kept even when its clock or a bracket overflows
    (the rounding of a total near 1e200 can do it); that sum is then inf or
    NaN, and `realized_brackets` refuses to pool it.
    """
    u0 = as_field(g, initial.u)
    v0 = as_field(g, initial.v)
    steps = int(round(cfg.horizon / cfg.dt))
    return MassObservables(*rngmod.map_chunks(
        _simulate_chunk, cfg.seed, rng_tag, cfg.replicas, g.rates, u0, v0,
        cfg.gamma, cfg.rho, cfg.dt, steps))


def _simulate_chunk(lo, hi, rng, A, u0, v0, gamma, rho, dt, steps):
    """Euler run of replicas lo..hi from (u0, v0); returns the MassObservables
    fields of the chunk, in field order."""
    n = u0.size
    m = hi - lo
    root = math.sqrt(1.0 - rho * rho)
    u = np.repeat(u0[:, None], m, axis=1)
    v = np.repeat(v0[:, None], m, axis=1)
    clamp = np.zeros(m, dtype=np.int64)
    clock, quad_u, quad_v, cross = np.zeros((4, m))
    ok = np.ones(m, dtype=bool)
    tot_u = u.sum(axis=0)
    tot_v = v.sum(axis=0)
    # per-chunk buffers: one for the (m, n) draws, and site-major ones
    # for their transposes, the next state and scratch
    draw = np.empty((m, n))
    z1, zperp, un, vn, tmp = np.empty((5, n, m))
    neg = np.empty((n, m), dtype=bool)
    # overflow is how an aborting replica shows up, and the abort test
    # catches it; an overflowed clock or bracket of a kept replica is
    # reported by realized_brackets, so numpy need not warn
    with np.errstate(over="ignore"):
        for _ in range(steps):
            pair = np.multiply(u, v, out=tmp).sum(axis=0)
            np.copyto(z1, rng.standard_normal(out=draw).T)
            np.copyto(zperp, rng.standard_normal(out=draw).T)
            np.matmul(A, u, out=un)
            np.matmul(A, v, out=vn)
            un *= dt
            vn *= dt
            un += u
            vn += v
            if gamma > 0:
                # sig = sqrt(gamma u v dt), in place of the old state's u
                sig = np.multiply(u, gamma, out=u)
                sig *= v
                sig *= dt
                np.sqrt(sig, out=sig)
                un += np.multiply(sig, z1, out=tmp)
                np.multiply(z1, rho, out=tmp)
                zperp *= root
                tmp += zperp
                tmp *= sig
                vn += tmp
            for w in (un, vn):
                if np.less(w, 0.0, out=neg).any():
                    clamp += neg.sum(axis=0)
                    np.maximum(w, 0.0, out=w)
            u, un = un, u
            v, vn = vn, v
            new_tu = u.sum(axis=0)
            new_tv = v.sum(axis=0)
            du_t = new_tu - tot_u
            dv_t = new_tv - tot_v
            bad = ~np.isfinite(new_tu + new_tv + pair)
            if bad.any():
                # an aborted column is zero from here on, so later steps add
                # exactly 0 to its brackets and clock
                ok &= ~bad
                for w in (u, v):
                    w[:, bad] = 0.0
                for w in (new_tu, new_tv, du_t, dv_t, pair):
                    w[bad] = 0.0
            quad_u += du_t**2
            quad_v += dv_t**2
            cross += du_t * dv_t
            clock += gamma * pair * dt
            tot_u, tot_v = new_tu, new_tv
    # copies, so that the joined (R, n) fields are row-major like the draws
    return (u.T.copy(), v.T.copy(), tot_u, tot_v, clock, quad_u, quad_v,
            cross, clamp, ~ok)


def realized_brackets(obs):
    """Realized vs predicted mass-martingale brackets, pooled over replicas.

    Returns a dict with pooled realized quad/cross sums, the predicted
    gamma int <u,v> ds (the realized clock), and the cross/quad ratio estimate
    of the noise correlation. Raises ValueError when a replica that did not
    abort has an overflowed (non-finite) clock or bracket.
    """
    ok = ~obs.aborted
    sums = (obs.clock, obs.quad_u, obs.quad_v, obs.cross)
    lost = ok & ~np.logical_and.reduce([np.isfinite(x) for x in sums])
    if lost.any():
        raise ValueError(
            f"{lost.sum()} of {ok.sum()} surviving replicas have an "
            "overflowed clock or bracket; lower the start or gamma")
    quad = 0.5 * (obs.quad_u[ok] + obs.quad_v[ok])
    cross = obs.cross[ok]
    predicted = obs.clock[ok]
    quad_sum = float(quad.sum())
    return {
        "quad_u": float(obs.quad_u[ok].sum()),
        "quad_v": float(obs.quad_v[ok].sum()),
        "cross": float(cross.sum()),
        "predicted_quad": float(predicted.sum()),
        "ratio": float(cross.sum() / quad_sum) if quad_sum > 0 else 0.0,
        "n_replicas": int(ok.sum()),
    }


def nonspatial_simulate(cfg, start, rng_tag="sbm-nonspatial"):
    """Single-site pair (zero generator) run to absorption or horizon.

    Returns dict with terminal u, v, occupation gamma int u v ds, and an
    absorbed flag per replica. Absorption (one coordinate exactly 0) is final:
    the noise coefficient vanishes and there is no flow.

    Stream layout (the artifacts depend on it): rng.map_chunks runs each chunk
    of replicas on its own stream; steps run in blocks of 2048, and each block
    draws z1 then zperp, each of shape (rows alive at block start, steps in
    block). Z2 = rho*z1 + sqrt(1-rho^2)*zperp is formed per step for live rows
    only.
    """
    u0, v0 = start
    steps = int(round(cfg.horizon / cfg.dt))
    u, v, occupation = rngmod.map_chunks(
        _nonspatial_chunk, cfg.seed, rng_tag, cfg.replicas, float(u0),
        float(v0), cfg.gamma, cfg.rho, cfg.dt, steps)
    return {
        "u": u,
        "v": v,
        "occupation": occupation,
        "absorbed": (u <= 0) | (v <= 0),
    }


def _nonspatial_chunk(lo, hi, rng, u0, v0, gamma, rho, dt, steps):
    """Single-site run of replicas lo..hi from (u0, v0); returns their
    terminal u, v and occupation."""
    m = hi - lo
    u = np.full(m, u0)
    v = np.full(m, v0)
    occ = np.zeros(m)
    root = math.sqrt(1.0 - rho**2)
    block = 2048
    alive = np.flatnonzero((u > 0) & (v > 0))
    step = 0
    while alive.size and step < steps:
        k = min(block, steps - step)
        z1 = rng.standard_normal((alive.size, k))
        zp = rng.standard_normal((alive.size, k))
        # dense state of the live rows; rows indexes them into the block
        rows = np.arange(alive.size)
        ua, va, occ_a = u[alive], v[alive], occ[alive]
        for j in range(k):
            x = gamma * ua * va * dt
            occ_a += x
            sig = np.sqrt(x)
            a = z1[rows, j]
            ua = np.maximum(ua + sig * a, 0.0)
            va = np.maximum(va + sig * (rho * a + root * zp[rows, j]), 0.0)
            dead = (ua <= 0) | (va <= 0)
            if dead.any():
                gone = alive[rows[dead]]
                u[gone], v[gone], occ[gone] = ua[dead], va[dead], occ_a[dead]
                keep = ~dead
                rows = rows[keep]
                ua, va, occ_a = ua[keep], va[keep], occ_a[keep]
                if not rows.size:
                    break
        alive = alive[rows]
        u[alive], v[alive], occ[alive] = ua, va, occ_a
        step += k
    return u, v, occ
