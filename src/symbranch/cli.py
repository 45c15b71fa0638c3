"""Command-line entry point.

Two families of subcommands share one binary:

- validation experiments (`symbranch <experiment> --config FILE [--seed N]
  [--out DIR]`), each printing one PASS/FAIL line per check and exiting 0 on
  success, 1 on a criterion failure, 2 on a config error;
- module runners (`exitlaw validate`, `sbm run`, `sbminf run`,
  `dual moment|coalesce|selfdual`, `voter run`) that emit raw CSV samples
  and JSON summaries for ad-hoc use.
"""

import argparse
import json
import os
import sys

import numpy as np

from symbranch import rng as rngmod
from symbranch.config import apply_overrides, build_graph, config_from_dict
from symbranch.duals import (coalescing_dual_estimate, moment_dual_estimate,
                             selfdual_check)
from symbranch.exitlaw import (U_AXIS, V_AXIS, ExitLawParams, exit_axis_prob,
                               exit_magnitude_cdf, sample_exit_batch)
from symbranch.experiments import (EXPERIMENTS, EXPERIMENT_DEFAULTS,
                                   initial_pair, moment_dual_setup,
                                   run_experiment, sde_config, write_csv)
from symbranch.sbm_finite import realized_brackets, simulate
from symbranch.sbm_infinite import BoundaryField, pdmp_simulate, trotter_simulate
from symbranch.stats import hill_exponent, ks_statistic, pooled_mean_se
from symbranch.voter import gillespie_simulate


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symbranch",
        description="Simulators and validation experiments for finite- and "
                    "infinite-rate symbiotic branching on finite graphs.")
    sub = parser.add_subparsers(dest="command")

    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        _common_flags(sp)
        sp.set_defaults(handler=_cmd_experiment, experiment=name)

    exitlaw = sub.add_parser("exitlaw", help="exit-law utilities")
    esub = exitlaw.add_subparsers(dest="subcommand")
    ev = esub.add_parser("validate", help="sample the exit law and summarize")
    ev.add_argument("--rho", type=float, required=True)
    ev.add_argument("--start", default="1,1", metavar="U,V")
    ev.add_argument("--samples", type=int, default=100000)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=None, metavar="DIR")
    ev.set_defaults(handler=_cmd_exitlaw_validate)

    sbm = sub.add_parser("sbm", help="finite-rate simulator")
    ssub = sbm.add_subparsers(dest="subcommand")
    sr = ssub.add_parser("run", help="simulate and emit fields + summary")
    _common_flags(sr)
    sr.set_defaults(handler=_cmd_sbm_run)

    sbminf = sub.add_parser("sbminf", help="infinite-rate simulator")
    isub = sbminf.add_subparsers(dest="subcommand")
    ir = isub.add_parser("run", help="simulate (method = trotter | pdmp)")
    _common_flags(ir)
    ir.set_defaults(handler=_cmd_sbminf_run)

    dual = sub.add_parser("dual", help="duality estimators")
    dsub = dual.add_subparsers(dest="subcommand")
    for kind in ("moment", "coalesce", "selfdual"):
        dp = dsub.add_parser(kind)
        _common_flags(dp)
        dp.set_defaults(handler=_cmd_dual, dual_kind=kind)

    voter = sub.add_parser("voter", help="voter process")
    vsub = voter.add_subparsers(dest="subcommand")
    vr = vsub.add_parser("run", help="Gillespie simulation")
    _common_flags(vr)
    vr.set_defaults(handler=_cmd_voter_run)

    return parser


def _common_flags(sp):
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="JSON config; overrides built-in defaults")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="directory for CSV/JSON artifacts")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                    dest="overrides", help="dotted config override (JSON value)")


def _load_config(args, defaults=None, experiment=""):
    merged = dict(defaults or {})
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        loaded.pop("experiment", None)
        merged.update(loaded)
    merged["experiment"] = experiment
    cfg = config_from_dict(merged)
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}"])
    return cfg


def _emit(out_dir, name, summary, tables=()):
    """Print the JSON summary; with out_dir, also write it there as name,
    and each (csv name, header, rows) table next to it."""
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
        fh.write(text + "\n")
    for csv_name, header, rows in tables:
        write_csv(os.path.join(out_dir, csv_name), header, rows)


def _cmd_experiment(args):
    cfg = _load_config(args, EXPERIMENT_DEFAULTS[args.experiment],
                       experiment=args.experiment)
    report = run_experiment(cfg, out_dir=args.out)
    for line in report.lines():
        print(line)
    print(f"RESULT: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(r.passed for r in report.criteria)}/"
          f"{len(report.criteria)} checks)")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# module runners


def _cmd_exitlaw_validate(args):
    try:
        u0, v0 = (float(x) for x in args.start.split(","))
    except Exception:
        raise ValueError(f"--start must be 'U,V', got {args.start!r}")
    if u0 < 0 or v0 < 0:
        raise ValueError("start must lie in the closed quadrant")
    params = ExitLawParams(args.rho)
    rng = rngmod.stream(args.seed, "exitlaw-cli")
    uu, vv = sample_exit_batch(params, np.full(args.samples, u0),
                               np.full(args.samples, v0), rng)
    on_u = uu > 0
    mags = np.maximum(uu, vv)
    summary = {
        "rho": args.rho,
        "start": [u0, v0],
        "samples": args.samples,
        "seed": args.seed,
        "axis_prob_u_empirical": float(on_u.mean()),
    }
    interior = u0 > 0 and v0 > 0 and abs(args.rho) < 1
    if interior:
        summary["axis_prob_u_exact"] = exit_axis_prob(params, (u0, v0), U_AXIS)
        for axis, sel in ((U_AXIS, on_u), (V_AXIS, ~on_u)):
            m = mags[sel]
            summary[f"ks_{axis.lower()}"] = ks_statistic(
                m, lambda r: exit_magnitude_cdf(params, (u0, v0), axis, r))
        summary["hill_exponent"] = hill_exponent(mags)
        summary["hill_target_p"] = params.p
        mean_u, se_u = pooled_mean_se(uu)
        summary.update(mean_u=mean_u, mean_u_se=se_u, mean_u_expected=u0,
                       mean_u_z=(mean_u - u0) / se_u if se_u > 0 else 0.0)
    _emit(args.out, "exitlaw_summary.json", summary, [
        ("exitlaw_samples.csv", ("axis", "magnitude"),
         ((U_AXIS if up else V_AXIS, float(m)) for up, m in zip(on_u, mags)))])
    return 0


_FIELDS_HEADER = ("replica", "time", "site", "u", "v")


def _field_rows(times, snaps_u, snaps_v, sites):
    """(replica, time, site, u, v) rows of (R, n_times, n_sites) snapshots."""
    return ((r, float(t), site, float(snaps_u[r, ti, si]),
             float(snaps_v[r, ti, si]))
            for r in range(snaps_u.shape[0])
            for ti, t in enumerate(times)
            for si, site in enumerate(sites))


def _cmd_sbm_run(args):
    cfg = _load_config(args, experiment="sbm-run")
    g = build_graph(cfg.graph)
    times = list(cfg.times) if cfg.times else [cfg.horizon]
    probes = list(cfg.probes) if cfg.probes else list(range(g.n_sites))
    obs = simulate(g, sde_config(cfg), initial_pair(cfg, g), probes=probes,
                   times=times)
    ok = ~obs.aborted
    mean_u, se_u = pooled_mean_se(obs.total_u[ok])
    mean_v, se_v = pooled_mean_se(obs.total_v[ok])
    br = realized_brackets(obs)
    _emit(args.out, "sbm_summary.json", {
        "config": cfg.to_dict(),
        "mean_total_u": mean_u, "se_total_u": se_u,
        "mean_total_v": mean_v, "se_total_v": se_v,
        "bracket_ratio": br["ratio"],
        "bracket_quad_u": br["quad_u"],
        "bracket_quad_v": br["quad_v"],
        "bracket_cross": br["cross"],
        "predicted_quad": br["predicted_quad"],
        "clamp_total": int(np.sum(obs.clamp_count)),
        "aborted": int(obs.aborted.sum()),
    }, [("sbm_fields.csv", _FIELDS_HEADER,
         _field_rows(obs.times, obs.probe_u, obs.probe_v, probes))])
    return 0


def _cmd_sbminf_run(args):
    cfg = _load_config(args, experiment="sbminf-run")
    g = build_graph(cfg.graph)
    pair = initial_pair(cfg, g)
    initial = BoundaryField(pair.u, pair.v)
    summary = {"config": cfg.to_dict(), "method": cfg.method}
    tables = []
    if cfg.method == "trotter":
        res = trotter_simulate(g, cfg.rho, initial, cfg.horizon, cfg.eps,
                               replicas=cfg.replicas, seed=cfg.seed,
                               times=cfg.times)
        if len(res["times"]):
            times = res["times"]
            snaps_u, snaps_v = res["snapshots_u"], res["snapshots_v"]
        else:
            times = [res["effective_horizon"]]
            snaps_u = res["u"][:, None, :]
            snaps_v = res["v"][:, None, :]
        summary["effective_horizon"] = res["effective_horizon"]
    else:
        res = pdmp_simulate(g, cfg.rho, initial, cfg.horizon, cfg.trunc_eps,
                            replicas=cfg.replicas, seed=cfg.seed,
                            flow_substep=cfg.flow_substep)
        times = [cfg.horizon]
        snaps_u = res["u"][:, None, :]
        snaps_v = res["v"][:, None, :]
        summary["jumps_total"] = int(res["n_jumps"].sum())
        summary["swaps_total"] = int(res["n_swaps"].sum())
        summary["violations_total"] = int(res["violations"].sum())
        summary["zeroed_mass_total"] = float(res["zeroed_mass"].sum())
        tables.append((
            "sbminf_diagnostics.csv",
            ("replica", "n_jumps", "n_swaps", "violations", "zeroed_mass"),
            ((r, int(res["n_jumps"][r]), int(res["n_swaps"][r]),
              int(res["violations"][r]), float(res["zeroed_mass"][r]))
             for r in range(cfg.replicas))))
    tables.append(("sbminf_fields.csv", _FIELDS_HEADER,
                   _field_rows(times, snaps_u, snaps_v, range(g.n_sites))))
    u, v = res["u"], res["v"]
    mean_u, se_u = pooled_mean_se(u.sum(axis=1))
    mean_v, se_v = pooled_mean_se(v.sum(axis=1))
    summary.update(mean_total_u=mean_u, se_total_u=se_u,
                   mean_total_v=mean_v, se_total_v=se_v,
                   max_product=float(np.max(u * v)))
    _emit(args.out, "sbminf_summary.json", summary, tables)
    return 0


def _cmd_dual(args):
    cfg = _load_config(args, experiment=f"dual-{args.dual_kind}")
    g = build_graph(cfg.graph)
    if args.dual_kind == "moment":
        initial, u_sites, v_sites = moment_dual_setup(cfg, g)
        mean, se = moment_dual_estimate(
            g, cfg.gamma, cfg.rho, initial, u_sites, v_sites, cfg.horizon,
            replicas=cfg.replicas, seed=cfg.seed)
        _emit(args.out, "dual_moment.json", {
            "config": cfg.to_dict(), "estimate": mean, "se": se,
            "replicas": cfg.replicas, "u_sites": u_sites,
            "v_sites": v_sites})
    elif args.dual_kind == "coalesce":
        sites = list(cfg.sites) if cfg.sites else [0, min(1, g.n_sites - 1)]
        mean, se = coalescing_dual_estimate(g, initial_pair(cfg, g).u, sites,
                                            cfg.horizon,
                                            replicas=cfg.replicas,
                                            seed=cfg.seed)
        _emit(args.out, "dual_coalesce.json", {
            "config": cfg.to_dict(), "estimate": mean, "se": se,
            "replicas": cfg.replicas, "sites": sites})
    else:
        if cfg.initial_y is None:
            raise ValueError("selfdual needs an initial_y block")
        chk = selfdual_check(g, sde_config(cfg), initial_pair(cfg, g),
                             initial_pair(cfg, g, field="initial_y"))
        _emit(args.out, "dual_selfdual.json", {
            "config": cfg.to_dict(),
            "evolved_x": [chk["mean_evolved_x"].real,
                          chk["mean_evolved_x"].imag],
            "evolved_y": [chk["mean_evolved_y"].real,
                          chk["mean_evolved_y"].imag],
            "gap_re": chk["gap_re"], "gap_im": chk["gap_im"],
            "se_gap_re": chk["se_gap_re"], "se_gap_im": chk["se_gap_im"],
            "replicas": cfg.replicas, "aborted": chk["aborted"],
        })
    return 0


def _cmd_voter_run(args):
    cfg = _load_config(args, experiment="voter-run")
    g = build_graph(cfg.graph)
    res = gillespie_simulate(g, initial_pair(cfg, g).u, cfg.horizon,
                             replicas=cfg.replicas, seed=cfg.seed,
                             times=cfg.times)
    snaps = res["opinions"]
    final = snaps[:, -1, :]
    consensus = float(np.mean((final == final[:, :1]).all(axis=1)))
    _emit(args.out, "voter_summary.json", {
        "config": cfg.to_dict(),
        "mean_density": float(final.mean()),
        "consensus_fraction": consensus,
        "mean_flips": float(res["flips"].mean()),
    }, [("voter_fields.csv", ("replica", "time", "site", "opinion"),
         ((r, float(t), site, int(snaps[r, ti, site]))
          for r in range(cfg.replicas)
          for ti, t in enumerate(res["times"])
          for site in range(g.n_sites)))])
    return 0


if __name__ == "__main__":
    sys.exit(main())
