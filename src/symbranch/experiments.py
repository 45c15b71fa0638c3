"""Experiment drivers: each validation campaign as a reproducible report.

Every experiment ships defaults equal to its acceptance parameters, runs
deterministically from (config, seed), and emits a JSON report plus fixed-column
CSV tables. Wall-clock runtimes are kept on the in-memory report for display
but never written to disk, so artifacts are byte-identical across runs.
"""

import csv
import dataclasses
import json
import math
import os
import time

import numpy as np

from symbranch import rng as rngmod
from symbranch.config import ExperimentConfig, build_graph
from symbranch.duals import moment_dual_estimate, selfdual_check
from symbranch.exitlaw import (U_AXIS, V_AXIS, ExitLawParams, critical_exponent,
                               euler_exit_oracle, exit_axis_mass_quadrature,
                               exit_magnitude_cdf, nu_density_on_axis,
                               sample_exit_batch, truncate_nu)
from symbranch.lattice import as_field
from symbranch.sbm_finite import (PairField, SdeConfig, nonspatial_simulate,
                                  realized_brackets, simulate)
from symbranch.sbm_infinite import (BoundaryField, martingale_functional_check,
                                    pdmp_simulate, trotter_simulate)
from symbranch.stats import (hill_exponent, ks_statistic, ks_two_sample,
                             pooled_mean_se, tail_slope)
from symbranch.voter import voter_vs_sbminf


@dataclasses.dataclass(frozen=True)
class CriterionRow:
    """One named check: observed value against a target with a tolerance."""

    name: str
    observed: float
    target: float
    tolerance: float
    passed: bool
    runtime: float  # seconds; reported to stdout, excluded from artifacts


@dataclasses.dataclass
class SummaryReport:
    experiment: str
    config: dict
    criteria: list
    tables: dict  # table name -> (header tuple, row list)

    @property
    def passed(self):
        return all(row.passed for row in self.criteria)

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "config": self.config,
            "criteria": [
                {
                    "name": r.name,
                    "observed": _plain(r.observed),
                    "target": _plain(r.target),
                    "tolerance": _plain(r.tolerance),
                    "passed": bool(r.passed),
                }
                for r in self.criteria
            ],
            "passed": self.passed,
        }

    def lines(self):
        out = []
        for r in self.criteria:
            verdict = "PASS" if r.passed else "FAIL"
            out.append(
                f"[{verdict}] {r.name}: observed={_show(r.observed)} "
                f"target={_show(r.target)} tol={_show(r.tolerance)} "
                f"({r.runtime:.1f}s)")
        return out


def _plain(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _show(x):
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _fmt_cell(x):
    x = _plain(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def write_csv(path, header, rows):
    """Write one CSV table: a header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])


def write_artifacts(report, out_dir):
    """Write the JSON report and the per-table CSVs; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    jpath = os.path.join(out_dir, f"{report.experiment}.json")
    with open(jpath, "w", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(jpath)
    for name in sorted(report.tables):
        header, rows = report.tables[name]
        cpath = os.path.join(out_dir, f"{report.experiment}_{name}.csv")
        write_csv(cpath, header, rows)
        paths.append(cpath)
    return paths


class _Clock:
    """Per-block stopwatch so each criterion row carries its own cost."""

    def __init__(self):
        self._t = time.monotonic()

    def lap(self):
        now = time.monotonic()
        dt, self._t = now - self._t, now
        return dt


# ---------------------------------------------------------------------------
# config helpers, shared with the module runners of the CLI


def initial_pair(cfg, g, default=None, field="initial"):
    """Start fields of the config block cfg.<field> as a PairField.

    {"u": [...], "v": [...]} gives the two fields, a missing one being zero;
    {"eta": [...]} gives the opinion encoding (eta, 1 - eta). Without a block
    the start is default, or, if that is None, u = 1 on the first n//2 sites
    and v = 1 on the others.
    """
    blk = getattr(cfg, field)
    n = g.n_sites
    if blk and "eta" in blk:
        u = as_field(g, blk["eta"])
        v = 1.0 - u
    elif blk:
        u = as_field(g, blk.get("u", np.zeros(n)))
        v = as_field(g, blk.get("v", np.zeros(n)))
    elif default is not None:
        return default
    else:
        u = (np.arange(n) < n // 2).astype(float)
        v = 1.0 - u
    return PairField(u, v)


def sde_config(cfg, **overrides):
    """The SdeConfig of an experiment config; dt None means default_dt(gamma)."""
    kwargs = dict(gamma=cfg.gamma, rho=cfg.rho, horizon=cfg.horizon,
                  dt=cfg.dt, replicas=cfg.replicas, seed=cfg.seed,
                  scheme=cfg.scheme)
    kwargs.update(overrides)
    return SdeConfig(**kwargs)


def moment_dual_setup(cfg, g):
    """Start pair and u/v walker sites of a moment-dual run."""
    initial = initial_pair(cfg, g, PairField(np.full(g.n_sites, 1.0),
                                             np.full(g.n_sites, 0.5)))
    u_sites = list(cfg.u_sites) if cfg.u_sites else [0]
    v_sites = list(cfg.v_sites) if cfg.v_sites else [min(1, g.n_sites - 1)]
    return initial, u_sites, v_sites


# ---------------------------------------------------------------------------
# exit-law validation: exponent values, normalization, sampler vs density,
# sampler vs brute-force Euler, jump-measure facts


_EXIT_STARTS = ((1.0, 1.0), (2.0, 0.5))
_EULER_HORIZONS = {-0.5: 60.0, 0.0: 300.0, 0.5: 700.0}


def _run_exitlaw_validate(cfg):
    rows = []
    clock = _Clock()
    grid = tuple(cfg.rho_grid) if cfg.rho_grid else (-0.9, -0.5, 0.0, 0.5, 0.9)
    n_ks = int(cfg.replicas)
    n_euler = min(n_ks, 10000)
    dt = 1e-4 if cfg.dt is None else cfg.dt

    exp_table = []
    for rho, expect, tol in ((0.0, 2.0, 0.0), (1.0, 1.0, 0.0),
                             (-0.5, 3.0, 1e-12), (0.5, 1.5, 1e-12)):
        got = critical_exponent(rho)
        ok = got == expect if tol == 0.0 else abs(got - expect) <= tol
        exp_table.append((rho, got, expect))
        rows.append(CriterionRow(f"critical exponent rho={rho}", got, expect,
                                 tol, ok, clock.lap()))

    norm_table = []
    ks_table = []
    for rho in grid:
        params = ExitLawParams(rho)
        for start in _EXIT_STARTS:
            mass_u = exit_axis_mass_quadrature(params, start, U_AXIS)
            mass_v = exit_axis_mass_quadrature(params, start, V_AXIS)
            total = mass_u + mass_v
            norm_table.append((rho, start[0], start[1], total))
            rows.append(CriterionRow(
                f"density normalization rho={rho} start={start}",
                abs(total - 1.0), 0.0, 1e-6, abs(total - 1.0) <= 1e-6,
                clock.lap()))
    for rho in grid:
        params = ExitLawParams(rho)
        for start in _EXIT_STARTS:
            rng = rngmod.stream(cfg.seed, f"exitlaw-ks-{rho}-{start}")
            uu, vv = sample_exit_batch(params,
                                       np.full(n_ks, start[0]),
                                       np.full(n_ks, start[1]), rng)
            for axis, mags in ((U_AXIS, uu[uu > 0]), (V_AXIS, vv[vv > 0])):
                d = ks_statistic(
                    mags, lambda r: exit_magnitude_cdf(params, start, axis, r))
                ks_table.append((rho, start[0], start[1], axis, d, mags.size))
                rows.append(CriterionRow(
                    f"sampler vs density KS rho={rho} start={start} "
                    f"axis={axis}", d, 0.0, 0.02, d < 0.02, clock.lap()))

    euler_table = []
    for rho in [r for r in grid if r in _EULER_HORIZONS]:
        params = ExitLawParams(rho)
        oracle = euler_exit_oracle(
            rho, (1.0, 1.0), dt, n_euler,
            rngmod.stream(cfg.seed, f"exitlaw-euler-{rho}"),
            horizon=_EULER_HORIZONS[rho])
        keep = ~oracle["censored"]
        signed_o = np.where(oracle["on_u_axis"][keep], 1.0, -1.0) \
            * oracle["magnitude"][keep]
        rng = rngmod.stream(cfg.seed, f"exitlaw-exact-{rho}")
        uu, vv = sample_exit_batch(params, np.full(n_ks, 1.0),
                                   np.full(n_ks, 1.0), rng)
        signed_s = np.where(uu > 0, uu, -vv)
        stat, pval = ks_two_sample(signed_o, signed_s)
        censored = 1.0 - keep.mean()
        euler_table.append((rho, stat, pval, int(keep.sum()), censored))
        rows.append(CriterionRow(
            f"sampler vs Euler oracle KS p-value rho={rho}", pval, 1.0,
            0.001, pval > 0.001, clock.lap()))

    moment_table = []
    for rho in grid:
        if abs(rho) == 1.0:
            continue
        from scipy.integrate import quad
        m, _ = quad(lambda y: y * nu_density_on_axis(rho, V_AXIS, y),
                    0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        moment_table.append((rho, m))
        rows.append(CriterionRow(
            f"swap-branch first moment rho={rho}", abs(m - 1.0), 0.0, 1e-6,
            abs(m - 1.0) <= 1e-6, clock.lap()))

    scal_rho = 0.3
    fns = (("exp(-y)", lambda y: np.exp(-y)),
           ("y*exp(-y)", lambda y: y * np.exp(-y)),
           ("1/(1+y^2)", lambda y: 1.0 / (1.0 + y * y)))
    scaling_table = []
    for a in (0.5, 2.0, 3.0):
        for fname, f in fns:
            gap = _scaling_identity_gap(scal_rho, a, f, scaling_table, fname)
            rows.append(CriterionRow(
                f"jump-measure scaling a={a} f={fname}", gap, 0.0, 1e-6,
                gap <= 1e-6, clock.lap()))

    trunc_table = []
    for rho, eps in ((-0.5, 0.05), (0.0, 0.1), (0.5, 0.1)):
        meas = truncate_nu(rho, eps)
        trunc_table.append((rho, eps, meas.eps_prime, meas.balance_residual,
                            meas.m2, meas.total_mass))
        resid = abs(meas.balance_residual)
        rows.append(CriterionRow(
            f"truncation balance residual rho={rho} eps={eps}", resid, 0.0,
            1e-8, resid < 1e-8, clock.lap()))

    tables = {
        "exponent": (("rho", "value", "expected"), exp_table),
        "normalization": (("rho", "u0", "v0", "quadrature_total"), norm_table),
        "sampler_ks": (("rho", "u0", "v0", "axis", "ks", "n"), ks_table),
        "euler_exit": (("rho", "ks", "pvalue", "n_kept", "censored_frac"),
                       euler_table),
        "nu_moments": (("rho", "swap_first_moment"), moment_table),
        "scaling": (("a", "fn", "branch", "lhs", "rhs"), scaling_table),
        "truncation": (("rho", "eps", "eps_prime", "balance_residual", "m2",
                        "total_mass"), trunc_table),
    }
    return rows, tables


def _scaling_identity_gap(rho, a, f, table, fname):
    """Max branch-wise gap in int f dnu_(a,0) = (1/a) int f(a y) dnu."""
    from scipy.integrate import quad
    gaps = []
    # swap branch: finite on (0, inf)
    lhs, _ = quad(lambda y: f(y) * nu_density_on_axis(rho, V_AXIS, y, a=a),
                  0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    rhs, _ = quad(lambda y: f(a * y) * nu_density_on_axis(rho, V_AXIS, y),
                  0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    rhs /= a
    table.append((a, fname, "swap", lhs, rhs))
    gaps.append(abs(lhs - rhs))
    # keep branch away from the pole at y=a: window {y > 1.5 a}
    lhs, _ = quad(lambda y: f(y) * nu_density_on_axis(rho, U_AXIS, y, a=a),
                  1.5 * a, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    rhs, _ = quad(lambda y: f(a * y) * nu_density_on_axis(rho, U_AXIS, y),
                  1.5, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    rhs /= a
    table.append((a, fname, "keep", lhs, rhs))
    gaps.append(abs(lhs - rhs))
    return max(gaps)


# ---------------------------------------------------------------------------
# moment curve: tail exponents of exit magnitude and exit time vs p(rho)


_TIME_HORIZONS = {-0.5: 60.0, 0.0: 400.0, 0.5: 1500.0}


def _run_moment_curve(cfg):
    rows = []
    clock = _Clock()
    grid = tuple(cfg.rho_grid) if cfg.rho_grid else (-0.5, 0.0, 0.5)
    n_mag = int(cfg.replicas)
    n_time = max(n_mag // 10, 1000)
    dt = 1e-2 if cfg.dt is None else cfg.dt
    table = []
    for rho in grid:
        params = ExitLawParams(rho)
        p = params.p
        rng = rngmod.stream(cfg.seed, f"moment-mag-{rho}")
        uu, vv = sample_exit_batch(params, np.full(n_mag, 1.0),
                                   np.full(n_mag, 1.0), rng)
        mags = np.maximum(uu, vv)
        hill = hill_exponent(mags, k=max(1000, int(0.002 * n_mag)))
        hill_err = abs(hill - p) / p
        rows.append(CriterionRow(
            f"exit magnitude Hill exponent rho={rho}", hill, p, 0.10 * p,
            hill_err <= 0.10, clock.lap()))

        oracle = euler_exit_oracle(
            rho, (1.0, 1.0), dt, n_time,
            rngmod.stream(cfg.seed, f"moment-time-{rho}"),
            horizon=_TIME_HORIZONS[rho])
        times = np.where(oracle["censored"], np.inf, oracle["exit_time"])
        slope = tail_slope(times)
        target = p / 2.0
        slope_err = abs(slope - target) / target
        censored = float(oracle["censored"].mean())
        table.append((rho, p, hill, hill_err, slope, target, slope_err,
                      n_mag, n_time, censored))
        rows.append(CriterionRow(
            f"exit time tail exponent rho={rho}", slope, target,
            0.15 * target, slope_err <= 0.15, clock.lap()))
    tables = {"tails": (("rho", "p", "hill", "hill_rel_err", "time_slope",
                         "time_target", "time_rel_err", "n_magnitude",
                         "n_time", "censored_frac"), table)}
    return rows, tables


# ---------------------------------------------------------------------------
# finite-rate mass martingale and quadratic brackets


def _finite_rate_runs(cfg, tag):
    g = build_graph(cfg.graph)
    grid = tuple(cfg.rho_grid) if cfg.rho_grid else (-0.5, 0.0, 0.5)
    initial = initial_pair(cfg, g)
    out = []
    for rho in grid:
        obs = simulate(g, sde_config(cfg, rho=rho), initial,
                       rng_tag=f"{tag}-{rho}")
        out.append((rho, initial, obs))
    return out


def _run_mass_martingale(cfg):
    rows = []
    clock = _Clock()
    table = []
    for rho, initial, obs in _finite_rate_runs(cfg, "mass"):
        start_u = float(initial.u.sum())
        start_v = float(initial.v.sum())
        ok_mask = ~obs.aborted
        mean_u, se_u = pooled_mean_se(obs.total_u[ok_mask])
        mean_v, se_v = pooled_mean_se(obs.total_v[ok_mask])
        dt_run = clock.lap()
        table.append((rho, mean_u, se_u, mean_v, se_v, start_u, start_v,
                      int(obs.aborted.sum())))
        rows.append(CriterionRow(
            f"mean total mass u rho={rho}", abs(mean_u - start_u), 0.0,
            3 * se_u, abs(mean_u - start_u) < 3 * se_u, dt_run))
        rows.append(CriterionRow(
            f"mean total mass v rho={rho}", abs(mean_v - start_v), 0.0,
            3 * se_v, abs(mean_v - start_v) < 3 * se_v, 0.0))
    tables = {"mass": (("rho", "mean_u", "se_u", "mean_v", "se_v",
                        "start_u", "start_v", "aborted"), table)}
    return rows, tables


def _run_bracket_ratio(cfg):
    rows = []
    clock = _Clock()
    table = []
    for rho, _, obs in _finite_rate_runs(cfg, "bracket"):
        br = realized_brackets(obs)
        table.append((rho, br["quad_u"], br["quad_v"], br["cross"],
                      br["predicted_quad"], br["ratio"], br["n_replicas"]))
        err = abs(br["ratio"] - rho)
        rows.append(CriterionRow(
            f"bracket ratio rho={rho}", br["ratio"], rho, 0.05,
            err <= 0.05, clock.lap()))
    tables = {"brackets": (("rho", "quad_u", "quad_v", "cross",
                            "predicted_quad", "ratio", "n_replicas"), table)}
    return rows, tables


# ---------------------------------------------------------------------------
# dualities


def _run_duality_moment(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    grid = tuple(cfg.rho_grid) if cfg.rho_grid else (-0.5, 0.0)
    initial, u_sites, v_sites = moment_dual_setup(cfg, g)
    t = cfg.horizon
    table = []
    for rho in grid:
        probes = sorted(set(u_sites) | set(v_sites))
        obs = simulate(g, sde_config(cfg, rho=rho), initial, probes=probes,
                       times=[t], rng_tag=f"dual-euler-{rho}")
        idx = {site: i for i, site in enumerate(probes)}
        vals = np.ones(obs.probe_u.shape[0])
        for s in u_sites:
            vals = vals * obs.probe_u[:, -1, idx[s]]
        for s in v_sites:
            vals = vals * obs.probe_v[:, -1, idx[s]]
        mean_e, se_e = pooled_mean_se(vals[~obs.aborted])
        mean_d, se_d = moment_dual_estimate(
            g, cfg.gamma, rho, initial, u_sites, v_sites, t,
            replicas=cfg.replicas, seed=cfg.seed, rng_tag=f"dual-walk-{rho}")
        gap = abs(mean_e - mean_d)
        tol = 1.96 * se_e + 1.96 * se_d  # 95% CIs overlap
        table.append((rho, mean_e, se_e, mean_d, se_d, gap))
        rows.append(CriterionRow(
            f"moment duality rho={rho}", gap, 0.0, tol, gap <= tol,
            clock.lap()))
    tables = {"moments": (("rho", "euler_mean", "euler_se", "dual_mean",
                           "dual_se", "gap"), table)}
    return rows, tables


def _run_duality_self(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    n = g.n_sites
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    v[min(1, n - 1)] = 0.8
    if n > 2:
        u[2] = 0.5
    if n > 3:
        v[3] = 0.5
    x0 = initial_pair(cfg, g, PairField(u, v))
    uy = np.zeros(n)
    vy = np.zeros(n)
    uy[0] = 0.4
    if n > 2:
        uy[2] = 0.3
    vy[min(1, n - 1)] = 0.2
    if n > 3:
        vy[3] = 0.5
    y0 = initial_pair(cfg, g, PairField(uy, vy), field="initial_y")
    chk = selfdual_check(g, sde_config(cfg), x0, y0)
    dt_run = clock.lap()
    rows.append(CriterionRow(
        "self-duality real gap", abs(chk["gap_re"]), 0.0,
        3 * chk["se_gap_re"], abs(chk["gap_re"]) < 3 * chk["se_gap_re"],
        dt_run))
    rows.append(CriterionRow(
        "self-duality imaginary gap", abs(chk["gap_im"]), 0.0,
        3 * chk["se_gap_im"], abs(chk["gap_im"]) < 3 * chk["se_gap_im"], 0.0))
    table = [(chk["mean_evolved_x"].real, chk["mean_evolved_x"].imag,
              chk["mean_evolved_y"].real, chk["mean_evolved_y"].imag,
              chk["gap_re"], chk["gap_im"], chk["se_gap_re"],
              chk["se_gap_im"], chk["aborted"])]
    tables = {"selfdual": (("evolved_x_re", "evolved_x_im", "evolved_y_re",
                            "evolved_y_im", "gap_re", "gap_im", "se_gap_re",
                            "se_gap_im", "aborted"), table)}
    return rows, tables


# ---------------------------------------------------------------------------
# gamma ladder toward the infinite-rate limit


def _run_gamma_limit(cfg):
    rows = []
    clock = _Clock()
    gammas = (1.0, 10.0, 100.0)
    rho = cfg.rho
    n = int(cfg.replicas)
    start = (1.0, 1.0)
    params = ExitLawParams(rho)
    rng = rngmod.stream(cfg.seed, "gamma-limit-ref")
    n_ref = 20 * n
    uu, vv = sample_exit_batch(params, np.full(n_ref, start[0]),
                               np.full(n_ref, start[1]), rng)
    ref_u = uu[uu > 0]
    ref_v = vv[vv > 0]

    ks_u, ks_v, q99s = [], [], []
    table = []
    for gamma in gammas:
        res = nonspatial_simulate(sde_config(cfg, gamma=gamma), start,
                                  rng_tag=f"gamma-{gamma}")
        u, v = res["u"], res["v"]
        on_u = u >= v
        du = ks_two_sample(u[on_u], ref_u)[0]
        dv = ks_two_sample(v[~on_u], ref_v)[0]
        collision = res["occupation"] / gamma
        q99 = float(np.quantile(collision, 0.99))
        ks_u.append(du)
        ks_v.append(dv)
        q99s.append(q99)
        table.append((gamma, du, dv, q99, float(res["absorbed"].mean()),
                      float(np.mean(res["occupation"])), n))
    step_u = max(b - a for a, b in zip(ks_u[:-1], ks_u[1:]))
    step_v = max(b - a for a, b in zip(ks_v[:-1], ks_v[1:]))
    step_q = max(b - a for a, b in zip(q99s[:-1], q99s[1:]))
    dt_run = clock.lap()
    rows.append(CriterionRow(
        "terminal KS strictly decreasing (U axis)", step_u, 0.0, 0.0,
        step_u < 0.0, dt_run))
    rows.append(CriterionRow(
        "terminal KS strictly decreasing (V axis)", step_v, 0.0, 0.0,
        step_v < 0.0, 0.0))
    rows.append(CriterionRow(
        "collision time q99 non-increasing", step_q, 0.0, 0.0,
        step_q <= 0.0, 0.0))
    tables = {"ladder": (("gamma", "ks_u", "ks_v", "q99_collision",
                          "absorbed_frac", "mean_occupation", "replicas"),
                         table)}
    return rows, tables


# ---------------------------------------------------------------------------
# infinite-rate simulators: refinement, cross-validation, martingale check


def _default_boundary(cfg, g):
    n = g.n_sites
    u = np.zeros(n)
    v = np.zeros(n)
    u[0] = 1.0
    if n > 2:
        u[2] = 0.5
    v[min(1, n - 1)] = 0.8
    if n > 3:
        v[3] = 0.3
    start = initial_pair(cfg, g, PairField(u, v))
    return BoundaryField(start.u, start.v)


def _moment_obs(fields, power=0.8):
    vals = fields[:, 0] ** power
    return pooled_mean_se(vals)


def _run_trotter_refine(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    start = _default_boundary(cfg, g)
    eps_ladder = (cfg.eps, cfg.eps / 2.0)
    means = []
    table = []
    max_prod = 0.0
    for eps in eps_ladder:
        res = trotter_simulate(g, cfg.rho, start, cfg.horizon, eps,
                               replicas=cfg.replicas, seed=cfg.seed,
                               rng_tag=f"refine-{eps}")
        m, se = _moment_obs(res["u"])
        means.append((m, se))
        max_prod = max(max_prod, float(np.max(res["u"] * res["v"])))
        table.append((eps, m, se, cfg.replicas))
    gap = abs(means[0][0] - means[1][0])
    tol = 3 * math.hypot(means[0][1], means[1][1])
    dt_run = clock.lap()
    rows.append(CriterionRow(
        f"Trotter refinement Cauchy gap eps={eps_ladder[0]}->"
        f"{eps_ladder[1]}", gap, 0.0, tol, gap < tol, dt_run))
    rows.append(CriterionRow(
        "boundary constraint u*v = 0 (exact)", max_prod, 0.0, 0.0,
        max_prod == 0.0, 0.0))
    tables = {"refine": (("eps", "mean_u0_pow08", "se", "replicas"), table)}
    return rows, tables


def _run_pdmp_vs_trotter(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    # pdmp_simulate, which runs first, rejects a start off the boundary set
    start = initial_pair(cfg, g, PairField(np.array([2.0, 0.0]),
                                           np.array([0.0, 1.0])))
    eps_ladder = (2.0 * cfg.trunc_eps, cfg.trunc_eps)
    table = []
    max_prod = 0.0
    stats_p = []
    for eps in eps_ladder:
        res = pdmp_simulate(g, cfg.rho, start, cfg.horizon, eps,
                            replicas=cfg.replicas, seed=cfg.seed,
                            flow_substep=cfg.flow_substep,
                            rng_tag=f"pvt-pdmp-{eps}")
        m, se = _moment_obs(res["u"])
        m1, se1 = pooled_mean_se(res["u"][:, 0])
        stats_p.append((m, se))
        max_prod = max(max_prod, float(np.max(res["u"] * res["v"])))
        table.append(("pdmp", eps, m, se, m1, se1, cfg.replicas,
                      int(res["n_jumps"].sum()), int(res["violations"].sum())))
    n_tr = 5 * cfg.replicas
    res = trotter_simulate(g, cfg.rho, start, cfg.horizon, cfg.eps,
                           replicas=n_tr, seed=cfg.seed, rng_tag="pvt-trotter")
    m_tr, se_tr = _moment_obs(res["u"])
    m1_tr, se1_tr = pooled_mean_se(res["u"][:, 0])
    max_prod = max(max_prod, float(np.max(res["u"] * res["v"])))
    table.append(("trotter", cfg.eps, m_tr, se_tr, m1_tr, se1_tr, n_tr, 0, 0))
    # Richardson extrapolation in the truncation cut: the kept-jump deficit
    # scales linearly in eps, so 2 m(eps) - m(2 eps) cancels the leading term
    m_ex = 2.0 * stats_p[1][0] - stats_p[0][0]
    se_ex = math.sqrt(4.0 * stats_p[1][1] ** 2 + stats_p[0][1] ** 2)
    gap = abs(m_ex - m_tr)
    tol = 3 * math.hypot(se_ex, se_tr)
    dt_run = clock.lap()
    rows.append(CriterionRow(
        f"PDMP (extrapolated eps={eps_ladder[0]},{eps_ladder[1]}) vs "
        "Trotter one-site moment", gap, 0.0, tol, gap < tol, dt_run))
    rows.append(CriterionRow(
        "boundary constraint u*v = 0 (exact)", max_prod, 0.0, 0.0,
        max_prod == 0.0, 0.0))
    tables = {"compare": (("method", "eps", "mean_u0_pow08", "se", "mean_u0",
                           "se_u0", "replicas", "jumps", "violations"),
                          table)}
    return rows, tables


def _run_martingale_functional(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    n = g.n_sites
    start = _default_boundary(cfg, g)
    y1 = np.zeros(n)
    y2 = np.zeros(n)
    y1[0] = 0.5
    y2[min(2, n - 1)] = 0.8
    res = martingale_functional_check(g, cfg.rho, start, y1, y2,
                                      horizon=cfg.horizon, eps=cfg.eps,
                                      replicas=cfg.replicas, seed=cfg.seed)
    m = res["mean"]
    se_re, se_im = res["se"]
    dt_run = clock.lap()
    rows.append(CriterionRow(
        "martingale functional mean (real)", abs(m.real), 0.0, 3 * se_re,
        abs(m.real) < 3 * se_re, dt_run))
    rows.append(CriterionRow(
        "martingale functional mean (imag)", abs(m.imag), 0.0, 3 * se_im,
        abs(m.imag) < 3 * se_im, 0.0))
    table = [(m.real, m.imag, se_re, se_im, res["replicas"],
              res["effective_horizon"])]
    tables = {"martingale": (("mean_re", "mean_im", "se_re", "se_im",
                              "replicas", "effective_horizon"), table)}
    return rows, tables


# ---------------------------------------------------------------------------
# voter identification at rho = -1


def _run_voter_limit(cfg):
    rows = []
    clock = _Clock()
    g = build_graph(cfg.graph)
    n = g.n_sites
    eta0 = initial_pair(cfg, g).u
    pairs = [tuple(p) for p in cfg.pairs] if cfg.pairs else [(0, 1),
                                                             (0, n // 2)]
    cmp = voter_vs_sbminf(g, eta0, cfg.horizon, pairs,
                          replicas=cfg.replicas, seed=cfg.seed,
                          trotter_eps=cfg.eps)
    dt_run = clock.lap()
    table = []
    routes = ("voter", "trotter", "pdmp", "coalescing")
    for route in routes:
        for pair, (m, se) in cmp[route].items():
            table.append((route, pair[0], pair[1], m, se))
    for ra, rb in (("voter", "trotter"), ("voter", "pdmp"),
                   ("trotter", "pdmp")):
        for pair in pairs:
            ma, sa = cmp[ra][pair]
            mb, sb = cmp[rb][pair]
            gap = abs(ma - mb)
            tol = 3 * math.hypot(sa, sb)
            rows.append(CriterionRow(
                f"two-point {ra} vs {rb} pair={pair}", gap, 0.0, tol,
                gap < tol, dt_run))
            dt_run = 0.0
    rows.append(CriterionRow(
        "jump-process magnitudes exactly 1",
        1.0 if cmp["pdmp_magnitudes_exact"] else 0.0, 1.0, 0.0,
        cmp["pdmp_magnitudes_exact"], clock.lap()))
    rows.append(CriterionRow(
        "jump-process rates equal voter rates (exact)",
        1.0 if cmp["pdmp_rates_exact"] else 0.0, 1.0, 0.0,
        cmp["pdmp_rates_exact"], 0.0))
    tables = {"twopoint": (("route", "x", "y", "mean", "se"), table)}
    return rows, tables


# ---------------------------------------------------------------------------
# registry and entry point


_TORUS8 = {"kind": "torus", "d": 1, "L": 8}
_TORUS4 = {"kind": "torus", "d": 1, "L": 4}
_DUMBBELL = {"kind": "dumbbell", "rate": 0.5}

EXPERIMENT_DEFAULTS = {
    "exitlaw-validate": dict(replicas=100000, seed=1),
    "moment-curve": dict(replicas=1000000, seed=0),
    "mass-martingale": dict(graph=_TORUS8, gamma=1.0, horizon=1.0,
                            replicas=10000, seed=0,
                            initial={"u": [1.0] * 8, "v": [0.5] * 8}),
    "bracket-ratio": dict(graph=_TORUS8, gamma=1.0, horizon=1.0,
                          replicas=10000, seed=0),
    "duality-moment": dict(graph=_DUMBBELL, gamma=1.0, horizon=0.5,
                           replicas=100000, seed=0),
    "duality-self": dict(graph=_TORUS4, gamma=1.0, rho=0.3, horizon=0.5,
                         replicas=10000, seed=0),
    "gamma-limit": dict(rho=0.0, horizon=2.0, replicas=10000, seed=0),
    "trotter-refine": dict(graph=_TORUS4, rho=0.3, horizon=0.5, eps=0.1,
                           replicas=10000, seed=0),
    "pdmp-vs-trotter": dict(graph=_DUMBBELL, rho=0.0, horizon=0.5, eps=0.01,
                            trunc_eps=0.1, replicas=20000, seed=0),
    "voter-limit": dict(graph=_TORUS8, horizon=1.0, eps=0.02, replicas=4000,
                        seed=0),
    "martingale-functional": dict(graph=_TORUS4, rho=0.3, horizon=0.5,
                                  eps=0.05, replicas=20000, seed=0),
}

_DRIVERS = {
    "exitlaw-validate": _run_exitlaw_validate,
    "moment-curve": _run_moment_curve,
    "mass-martingale": _run_mass_martingale,
    "bracket-ratio": _run_bracket_ratio,
    "duality-moment": _run_duality_moment,
    "duality-self": _run_duality_self,
    "gamma-limit": _run_gamma_limit,
    "trotter-refine": _run_trotter_refine,
    "pdmp-vs-trotter": _run_pdmp_vs_trotter,
    "voter-limit": _run_voter_limit,
    "martingale-functional": _run_martingale_functional,
}

EXPERIMENTS = tuple(sorted(_DRIVERS))


def default_config(experiment, **overrides):
    """The built-in config of an experiment (its acceptance parameters)."""
    if experiment not in _DRIVERS:
        raise ValueError(f"unknown experiment: {experiment!r}")
    kwargs = dict(EXPERIMENT_DEFAULTS[experiment])
    kwargs.update(overrides)
    return ExperimentConfig(experiment=experiment, **kwargs)


def run_experiment(cfg, out_dir=None):
    """Run one experiment and return its SummaryReport.

    Writes the JSON report and CSV tables to out_dir when given. Raises
    ValueError for an unknown experiment name (a config error, not a FAIL).
    """
    if cfg.experiment not in _DRIVERS:
        raise ValueError(f"unknown experiment: {cfg.experiment!r}")
    rows, tables = _DRIVERS[cfg.experiment](cfg)
    report = SummaryReport(experiment=cfg.experiment, config=cfg.to_dict(),
                           criteria=rows, tables=tables)
    if out_dir is not None:
        write_artifacts(report, out_dir)
    return report
