"""Infinite-rate symbiotic branching on a site graph.

The state lives on boundary configurations: at every site at most one of
(U, V) is positive. Two simulators, cross-validated against each other:

* Trotter scheme: alternate exact heat flow exp(eps*A) on both coordinates
  with an exact per-site exit-law resample. For fixed eps this is an exact
  scheme for the split dynamics; refining eps gives the continuous process.
* Jump process (PDMP): between jumps the state follows a deterministic flow,
  and each site k jumps at intensity I(k) * |nu|, replacing the local pair by
  a rescaled mark of the truncated jump measure. I(k) is AV(k)/U(k) on a
  U-site, AU(k)/V(k) on a V-site, 0 at an empty site. The flow subtracts the
  jump compensator I*(V*m2 + U*b) from AU (and symmetrically from AV), where
  m2 and b are the sampler-implied swap moment and keep balance, so that the
  mean drift of each coordinate is the heat flow. Jumps are realized by
  thinning with a 1.5x majorant inside substeps, for a whole chunk of
  replicas at once over (R, n) arrays; every replica keeps its own clock and
  substep cap. Majorant violations are accepted capped, counted per
  replica, and halve that replica's next substep.
"""

import math
from dataclasses import dataclass

import numpy as np

from symbranch import rng as rngmod
from symbranch.duals import duality_pairing
from symbranch.exitlaw import (ExitLawParams, sample_exit_batch,
                               sample_nu_trunc, truncate_nu)
from symbranch.lattice import as_field, heat_semigroup


class NegativeIntensity(ValueError):
    """Raised when a jump intensity comes out negative (state off the boundary set)."""


@dataclass
class BoundaryField:
    """Pair field with per-site product exactly zero."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have matching shapes")
        if np.any(self.u < 0) or np.any(self.v < 0):
            raise ValueError("boundary fields are nonnegative")
        if np.any((self.u != 0) & (self.v != 0)):
            raise ValueError("at most one of (u, v) may be positive per site")


@dataclass(frozen=True)
class JumpEvent:
    time: float
    site: int
    swapped: bool
    factor: float       # sampled mark magnitude y
    magnitude: float    # local magnitude before the jump


def project_to_boundary(u, v):
    """Zero the smaller coordinate per site; returns (u, v, zeroed mass).

    The zeroed mass is summed over the last axis: a float for one field, an
    (R,) array of per-row masses for (R, n) fields.
    """
    off = (u > 0) & (v > 0)
    zeroed = np.where(off, np.minimum(u, v), 0.0).sum(axis=-1)
    if np.any(off):
        keep_u = u >= v
        u = np.where(off & ~keep_u, 0.0, u)
        v = np.where(off & keep_u, 0.0, v)
    return u, v, zeroed if u.ndim > 1 else float(zeroed)


def intensity(g, state):
    """Per-site jump intensity of the boundary process, validated.

    AV(k)/U(k) on a U-site, AU(k)/V(k) on a V-site, 0 where both vanish.
    Raises NegativeIntensity if any rate is negative, which on a valid
    boundary state cannot happen (the generator rows have nonnegative
    off-diagonal entries and the diagonal multiplies an exact zero).
    """
    u = as_field(g, state.u)
    v = as_field(g, state.v)
    au = u @ g.rates.T
    av = v @ g.rates.T
    rate = _intensity_arrays(u, v, au, av)
    if np.any(rate < 0):
        raise NegativeIntensity("negative jump intensity: state off the boundary set")
    return rate


def _intensity_arrays(u, v, au, av):
    on_u = u > 0
    on_v = v > 0
    denom = np.where(on_u, u, np.where(on_v, v, 1.0))
    num = np.where(on_u, av, np.where(on_v, au, 0.0))
    return num / denom


def trotter_simulate(g, rho, initial, horizon, eps, replicas=1, seed=0,
                     rng_tag="trotter"):
    """Trotter trajectories; returns the terminal (R, n) fields.

    Runs ceil(horizon/eps) alternating steps, so the effective horizon is the
    smallest multiple of eps at or above the requested one (reported in the
    result).
    """
    if not eps > 0:
        raise ValueError(f"Trotter step eps must be > 0, got {eps!r}")
    u0 = as_field(g, np.asarray(initial.u, dtype=float))
    v0 = as_field(g, np.asarray(initial.v, dtype=float))
    steps = max(int(math.ceil(horizon / eps - 1e-12)), 0)
    u, v = rngmod.map_chunks(_trotter_chunk, seed, rng_tag, replicas,
                             ExitLawParams(rho), heat_semigroup(g, eps), u0, v0,
                             steps)
    return {"u": u, "v": v, "effective_horizon": steps * eps}


def _trotter_chunk(lo, hi, rng, params, P, u0, v0, steps):
    """Trotter run of replicas lo..hi from (u0, v0): each step is the heat
    flow P on both coordinates, then an exact per-site exit."""
    u = np.tile(u0, (hi - lo, 1))
    v = np.tile(v0, (hi - lo, 1))
    for _ in range(steps):
        u, v = sample_exit_batch(params, u @ P.T, v @ P.T, rng)
    return u, v


def _flow(u, v, A, m2, bal, dt):
    """One explicit step of the compensated ODE per row, each over its own
    dt[i]; projects back to the boundary set and returns (u, v, zeroed mass
    per row)."""
    au = u @ A.T
    av = v @ A.T
    rate = _intensity_arrays(u, v, au, av)
    du = au - rate * (v * m2 + u * bal)
    dv = av - rate * (u * m2 + v * bal)
    dt = dt[:, None]
    u = np.maximum(u + dt * du, 0.0)
    v = np.maximum(v + dt * dv, 0.0)
    return project_to_boundary(u, v)


def jump_update(u, v, rows, sites, swapped, factor):
    """Replace the pair at each (rows[i], sites[i]) by its rescaled jump mark.

    The local magnitude m = U+V becomes m*factor, on the same axis for a keep
    mark or on the opposite axis for a swap mark; an empty site stays empty.
    Updates the (R, n) fields u, v in place and returns the magnitudes m.
    """
    mag = u[rows, sites] + v[rows, sites]
    to_v = swapped == (u[rows, sites] > 0)
    new = mag * factor
    u[rows, sites] = np.where(to_v, 0.0, new)
    v[rows, sites] = np.where(to_v, new, 0.0)
    return mag


def _pdmp_chunk(lo, hi, rng, A, measure, u0, v0, horizon, dt_max, events):
    """Jump-process trajectories of replicas lo..hi from (u0, v0).

    Every live row advances by one thinning substep per loop iteration, on
    its own clock and its own substep cap. Candidates of all rows are
    handled in rank rounds: round j flows each row that has a j-th candidate
    to that candidate's time and accepts or rejects all of them at once.
    events, if a list, receives the JumpEvents of replica 0 (row 0 of the
    chunk with lo == 0). Returns the final fields and the per-row jump,
    violation and zeroed-mass counts.
    """
    R, n = hi - lo, u0.size
    u = np.tile(u0, (R, 1))
    v = np.tile(v0, (R, 1))
    M = measure.total_mass
    m2 = measure.m2
    bal = measure.balance
    out_u = np.empty_like(u)
    out_v = np.empty_like(v)
    n_jumps = np.zeros(R, dtype=int)
    violations = np.zeros(R, dtype=int)
    zeroed = np.zeros(R)
    # u, v, t and cap hold the live rows only; rid maps each to its chunk row
    rid = np.arange(R)
    t = np.zeros(R)
    cap = np.full(R, dt_max)
    while True:
        done = t >= horizon - 1e-12
        if done.any():
            out_u[rid[done]] = u[done]
            out_v[rid[done]] = v[done]
            keep = ~done
            rid, t, cap, u, v = rid[keep], t[keep], cap[keep], u[keep], v[keep]
        if not rid.size:
            return out_u, out_v, n_jumps, violations, zeroed
        au = u @ A.T
        av = v @ A.T
        rate = _intensity_arrays(u, v, au, av)
        if np.any(rate < 0):
            raise NegativeIntensity("negative jump intensity during flow")
        lam = rate * M
        lam_bar = 1.5 * lam
        with np.errstate(divide="ignore"):
            dt = np.minimum(np.minimum(cap, horizon - t),
                            0.1 / lam.sum(axis=1))
        counts = rng.poisson(lam_bar * dt[:, None])
        per_row = counts.sum(axis=1)
        s_prev = np.zeros(rid.size)
        violated = np.zeros(rid.size, dtype=bool)
        if per_row.any():
            cand = np.repeat(np.arange(counts.size), counts.ravel())
            row = cand // n
            tau = rng.random(cand.size) * dt[row]
            order = np.lexsort((tau, row))
            site = (cand % n)[order]
            tau = tau[order]
            first = np.cumsum(per_row) - per_row
            for j in range(int(per_row.max())):
                rows = np.flatnonzero(per_row > j)
                c = first[rows] + j
                k = site[c]
                step = tau[c] - s_prev[rows]
                go = step > 0
                fr = rows[go]
                u[fr], v[fr], z = _flow(u[fr], v[fr], A, m2, bal, step[go])
                zeroed[rid[fr]] += z
                s_prev[rows] = tau[c]
                # current intensity at the candidate site against its majorant
                Ak = A[k]
                cur = _intensity_arrays(u[rows, k], v[rows, k],
                                        np.einsum("ij,ij->i", Ak, u[rows]),
                                        np.einsum("ij,ij->i", Ak, v[rows]))
                accept = (cur * M) / lam_bar[rows, k]
                over = accept > 1.0
                violations[rid[rows[over]]] += 1
                violated[rows[over]] = True
                hit = rng.random(rows.size) < accept
                if not hit.any():
                    continue
                jr = rows[hit]
                jk = k[hit]
                swapped, factor = sample_nu_trunc(measure, rng, size=jr.size)
                mag = jump_update(u, v, jr, jk, swapped, factor)
                n_jumps[rid[jr]] += 1
                if (events is not None and lo == 0 and rid[0] == 0
                        and jr[0] == 0):
                    events.append(JumpEvent(float(t[0] + tau[c[hit][0]]),
                                            int(jk[0]), bool(swapped[0]),
                                            float(factor[0]), float(mag[0])))
        step = dt - s_prev
        go = step > 0
        u[go], v[go], z = _flow(u[go], v[go], A, m2, bal, step[go])
        zeroed[rid[go]] += z
        t += dt
        # a substep without candidates leaves the cap as it is
        cap = np.where(violated, np.maximum(cap / 2, 1e-5),
                       np.where(per_row > 0, np.minimum(cap * 1.1, dt_max),
                                cap))


def pdmp_simulate(g, rho, initial, horizon, eps, replicas=1, seed=0,
                  flow_substep=1e-2, record_events=False, rng_tag="pdmp"):
    """Jump-process trajectories with truncation eps; returns the terminal
    (R, n) fields u, v; per replica the jump count n_jumps, the majorant
    violations and the zeroed_mass projected away by the flow; and events,
    None unless record_events is set.

    Stream layout: rng.map_chunks runs each chunk of rngmod.CHUNK replicas
    through `_pdmp_chunk` on its own Philox stream, with batched thinning
    over the chunk's (R, n) arrays. Each replica keeps its own clock and
    substep cap: the cap starts at flow_substep, halves after a substep with
    a majorant violation and regrows by 1.1x, up to flow_substep, after one
    whose thinning candidates all stayed under it. record_events collects
    the JumpEvent list of replica 0 only.
    """
    if not flow_substep > 0:
        raise ValueError(f"flow_substep must be > 0, got {flow_substep!r}")
    measure = truncate_nu(rho, eps)
    u0 = as_field(g, np.asarray(initial.u, dtype=float))
    v0 = as_field(g, np.asarray(initial.v, dtype=float))
    BoundaryField(u0, v0)  # validate the start state
    events = [] if record_events else None
    u, v, n_jumps, violations, zeroed = rngmod.map_chunks(
        _pdmp_chunk, seed, rng_tag, replicas, g.rates, measure, u0, v0,
        horizon, flow_substep, events)
    return {
        "u": u,
        "v": v,
        "n_jumps": n_jumps,
        "violations": violations,
        "zeroed_mass": zeroed,
        "events": events,
    }


def martingale_functional_check(g, rho, initial, y1, y2, horizon, eps,
                                replicas=1000, seed=0, rng_tag="mart"):
    """Mean of the compensated self-duality functional along Trotter paths.

    For a frozen test pair (y1, y2) with y1*y2 = 0 per site,
    M = F(end) - F(start) - int <<A u_s, A v_s, y>> F(u_s, v_s, y) ds
    should have zero mean. The integral uses the trapezoid rule on the two
    flow endpoints inside each Trotter interval (the exit resample at the
    interval boundary preserves the conditional mean of F). Returns the
    complex mean of M, its componentwise standard errors, and the replica
    count.
    """
    y1 = as_field(g, np.asarray(y1, dtype=float))
    y2 = as_field(g, np.asarray(y2, dtype=float))
    if np.any((y1 != 0) & (y2 != 0)):
        raise ValueError("test pair must satisfy y1*y2 = 0 per site")
    if not eps > 0:
        raise ValueError(f"Trotter step eps must be > 0, got {eps!r}")
    u0 = as_field(g, np.asarray(initial.u, dtype=float))
    v0 = as_field(g, np.asarray(initial.v, dtype=float))
    steps = max(int(math.ceil(horizon / eps - 1e-12)), 1 if horizon > 0 else 0)
    mart, = rngmod.map_chunks(
        _martingale_chunk, seed, rng_tag, replicas, rho, ExitLawParams(rho),
        heat_semigroup(g, eps), g.rates, u0, v0, y1, y2, steps, eps)
    mean = complex(mart.mean())
    se_re = float(mart.real.std(ddof=1) / math.sqrt(mart.size))
    se_im = float(mart.imag.std(ddof=1) / math.sqrt(mart.size))
    return {"mean": mean, "se": (se_re, se_im), "replicas": int(mart.size),
            "effective_horizon": steps * eps}


def _martingale_chunk(lo, hi, rng, rho, params, P, A, u0, v0, y1, y2, steps,
                      eps):
    """The compensated functional M of replicas lo..hi along Trotter paths
    from (u0, v0), as a 1-tuple."""

    def F(u, v):
        return np.exp(duality_pairing(u, v, y1, y2, rho))

    def G(u, v):
        return duality_pairing(u @ A.T, v @ A.T, y1, y2, rho) * F(u, v)

    u = np.tile(u0, (hi - lo, 1))
    v = np.tile(v0, (hi - lo, 1))
    f0 = F(u, v)
    integral = np.zeros(hi - lo, dtype=complex)
    for _ in range(steps):
        left = G(u, v)
        uh = u @ P.T
        vh = v @ P.T
        integral += 0.5 * eps * (left + G(uh, vh))
        u, v = sample_exit_batch(params, uh, vh, rng)
    return (F(u, v) - f0 - integral,)
