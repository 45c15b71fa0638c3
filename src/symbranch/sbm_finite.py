"""Euler simulation of finite-rate symbiotic branching on a site graph.

State is a nonnegative pair field (u, v). Per site and step, with independent
standard normals Z1, Zperp and Z2 = rho*Z1 + sqrt(1-rho^2)*Zperp:

    u' = u + Au dt + sqrt(gamma u+ v+ dt) Z1
    v' = v + Av dt + sqrt(gamma u+ v+ dt) Z2

then both are clamped to >= 0 (full truncation; the clamped values feed the
next square root). Total masses <u,1>, <v,1> are martingales whose quadratic
variations both equal gamma int <u_s, v_s> ds and whose cross-variation is rho
times that; the simulator accumulates the realized versions online so bracket
ratios can be checked against rho without storing full trajectories.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from symbranch import rng as rngmod
from symbranch.lattice import as_field, heat_semigroup


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
    scheme: str = "euler"  # euler | split (exact heat flow, then noise)

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("branching rate must be >= 0")
        if abs(self.rho) > 1:
            raise ValueError("correlation must lie in [-1, 1]")
        if self.dt is None:
            self.dt = default_dt(self.gamma)
        if self.dt <= 0 or self.horizon < 0:
            raise ValueError("need dt > 0 and horizon >= 0")
        if self.scheme not in ("euler", "split"):
            raise ValueError("scheme must be 'euler' or 'split'")
        if self.gamma > 0 and self.dt > 0.1 / self.gamma:
            warnings.warn(f"dt={self.dt} exceeds 0.1/gamma={0.1 / self.gamma}: "
                          "per-step noise may dominate state scale")


@dataclass
class MassObservables:
    """Per-replica running observables of one simulation batch."""

    total_u: np.ndarray        # (R,) terminal <u,1>
    total_v: np.ndarray
    clock: np.ndarray          # (R,) realized gamma int <u,v> ds
    quad_u: np.ndarray         # (R,) sum of squared total-mass increments
    quad_v: np.ndarray
    cross: np.ndarray          # (R,) sum of cross products of increments
    clamp_count: np.ndarray    # (R,) entries clamped to 0
    aborted: np.ndarray        # (R,) replica hit a non-finite value
    times: np.ndarray = None           # recorded probe times
    probe_sites: np.ndarray = None
    probe_u: np.ndarray = None         # (R, n_times, n_probes)
    probe_v: np.ndarray = None
    clock_grid: float = None
    clock_masses: tuple = None         # (tot_u, tot_v) at clock-grid crossings


def _step_batch(u, v, A, gamma, rho, dt, z1, zperp, clamp_count, heat=None):
    """One Euler (or split) step on (R, n) arrays, in place; returns new arrays."""
    if heat is None:
        du = u @ A.T * dt
        dv = v @ A.T * dt
        u_flow = u + du
        v_flow = v + dv
    else:
        u_flow = u @ heat.T
        v_flow = v @ heat.T
    if gamma > 0:
        sig = np.sqrt(gamma * np.maximum(u, 0.0) * np.maximum(v, 0.0) * dt)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * zperp
        un = u_flow + sig * z1
        vn = v_flow + sig * z2
    else:
        un, vn = u_flow, v_flow
    neg = (un < 0).sum(axis=1) + (vn < 0).sum(axis=1)
    clamp_count += neg
    np.maximum(un, 0.0, out=un)
    np.maximum(vn, 0.0, out=vn)
    return un, vn


def simulate(g, cfg, initial, probes=None, times=None, clock_grid=None,
             max_crossings=64, rng_tag="sbm-finite"):
    """Run cfg.replicas Euler trajectories; returns MassObservables.

    probes/times: record u, v at the given sites and times (snapped to the step
    grid). clock_grid: optionally record total masses each of the first
    max_crossings times the realized clock gamma int <u,v> ds crosses a
    multiple of clock_grid (time-change checks). Deterministic given cfg.seed.
    """
    n = g.n_sites
    u0 = as_field(g, initial.u)
    v0 = as_field(g, initial.v)
    R = cfg.replicas
    steps = int(round(cfg.horizon / cfg.dt))
    probes = np.asarray(probes if probes is not None else [], dtype=int)
    times = np.asarray(times if times is not None else [], dtype=float)
    rec_steps = np.unique(np.clip(np.round(times / cfg.dt).astype(int), 0, steps))
    heat = heat_semigroup(g, cfg.dt) if cfg.scheme == "split" else None

    obs = MassObservables(
        total_u=np.empty(R), total_v=np.empty(R), clock=np.zeros(R),
        quad_u=np.zeros(R), quad_v=np.zeros(R), cross=np.zeros(R),
        clamp_count=np.zeros(R, dtype=np.int64),
        aborted=np.zeros(R, dtype=bool),
        times=rec_steps * cfg.dt, probe_sites=probes,
        probe_u=np.full((R, rec_steps.size, probes.size), np.nan),
        probe_v=np.full((R, rec_steps.size, probes.size), np.nan),
        clock_grid=clock_grid,
    )
    n_clock = int(max_crossings) if clock_grid else 0
    cm_u = np.full((R, n_clock), np.nan) if clock_grid else None
    cm_v = np.full((R, n_clock), np.nan) if clock_grid else None

    for lo, hi, rng in rngmod.chunk_streams(cfg.seed, rng_tag, R):
        m = hi - lo
        u = np.tile(u0, (m, 1))
        v = np.tile(v0, (m, 1))
        clamp = np.zeros(m, dtype=np.int64)
        clock = np.zeros(m)
        quad_u = np.zeros(m)
        quad_v = np.zeros(m)
        cross = np.zeros(m)
        ok = np.ones(m, dtype=bool)
        tot_u = u.sum(axis=1)
        tot_v = v.sum(axis=1)
        next_cross = np.full(m, clock_grid) if clock_grid else None
        crossings = np.zeros(m, dtype=int) if clock_grid else None
        rec_pos = {int(s): i for i, s in enumerate(rec_steps)}
        if 0 in rec_pos and probes.size:
            obs.probe_u[lo:hi, rec_pos[0], :] = u[:, probes]
            obs.probe_v[lo:hi, rec_pos[0], :] = v[:, probes]
        for step in range(1, steps + 1):
            pair = np.einsum("ij,ij->i", u, v)
            z1 = rng.standard_normal((m, n))
            zperp = rng.standard_normal((m, n))
            u, v = _step_batch(u, v, g.rates, cfg.gamma, cfg.rho, cfg.dt,
                               z1, zperp, clamp, heat)
            bad = ~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1))
            if np.any(bad & ok):
                ok &= ~bad
                u[bad] = 0.0
                v[bad] = 0.0
            new_tu = u.sum(axis=1)
            new_tv = v.sum(axis=1)
            du_t = np.where(ok, new_tu - tot_u, 0.0)
            dv_t = np.where(ok, new_tv - tot_v, 0.0)
            quad_u += du_t**2
            quad_v += dv_t**2
            cross += du_t * dv_t
            clock += np.where(ok, cfg.gamma * pair * cfg.dt, 0.0)
            tot_u, tot_v = new_tu, new_tv
            if clock_grid:
                crossed = ok & (clock >= next_cross) & (crossings < n_clock)
                while np.any(crossed):
                    idx = np.flatnonzero(crossed)
                    cm_u[lo + idx, crossings[idx]] = tot_u[idx]
                    cm_v[lo + idx, crossings[idx]] = tot_v[idx]
                    crossings[idx] += 1
                    next_cross[idx] += clock_grid
                    crossed = ok & (clock >= next_cross) & (crossings < n_clock)
            if step in rec_pos and probes.size:
                obs.probe_u[lo:hi, rec_pos[step], :] = u[:, probes]
                obs.probe_v[lo:hi, rec_pos[step], :] = v[:, probes]
        obs.total_u[lo:hi] = tot_u
        obs.total_v[lo:hi] = tot_v
        obs.clock[lo:hi] = clock
        obs.quad_u[lo:hi] = quad_u
        obs.quad_v[lo:hi] = quad_v
        obs.cross[lo:hi] = cross
        obs.clamp_count[lo:hi] = clamp
        obs.aborted[lo:hi] = ~ok
    if clock_grid:
        obs.clock_masses = (cm_u, cm_v)
    return obs


def realized_brackets(obs):
    """Realized vs predicted mass-martingale brackets, pooled over replicas.

    Returns a dict with pooled realized quad/cross sums, the predicted
    gamma int <u,v> ds (the realized clock), and the cross/quad ratio estimate
    of the noise correlation.
    """
    ok = ~obs.aborted
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

    Stream layout (the artifacts depend on it): one rng.chunk_streams stream
    per chunk of replicas; steps run in blocks of 2048, and each block draws
    z1 then zperp, each of shape (rows alive at block start, steps in block).
    Z2 = rho*z1 + sqrt(1-rho^2)*zperp is formed per step for live rows only.
    """
    u0, v0 = start
    R = cfg.replicas
    steps = int(round(cfg.horizon / cfg.dt))
    out_u = np.full(R, float(u0))
    out_v = np.full(R, float(v0))
    occupation = np.zeros(R)
    rho, root = cfg.rho, math.sqrt(1.0 - cfg.rho**2)
    block = 2048
    for lo, hi, rng in rngmod.chunk_streams(cfg.seed, rng_tag, R):
        u = out_u[lo:hi]
        v = out_v[lo:hi]
        occ = occupation[lo:hi]
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
                x = cfg.gamma * ua * va * cfg.dt
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
    return {
        "u": out_u,
        "v": out_v,
        "occupation": occupation,
        "absorbed": (out_u <= 0) | (out_v <= 0),
    }
