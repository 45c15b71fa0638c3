#!/usr/bin/env python3
"""symbranch benchmark: scaled validation experiments in three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exit-law --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload is a fixed list of experiments run through
``experiments.run_experiment(experiments.default_config(name, **overrides))``
by one closed-loop caller in this single-threaded process. The workload is
repeated until ``--seconds`` have passed, at least twice, so that artifacts
can be compared byte for byte between repeats. The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``bench/layertrace.py`` with ``--trace 1``. ``--workload all`` runs every
workload in a fresh process, one after another, and prints one table. See
``bench/README.md`` for the metric definitions.
"""

import os

# single-threaded BLAS: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# experiment -> overrides of its acceptance config; the seed is added from
# --seed. Sizes are scaled so that each kernel keeps the share of the time it
# has at acceptance size; gamma-limit stays at acceptance size on purpose
# (see README.md).
WORKLOADS = {
    "exit-law": (
        ("exitlaw-validate", {"replicas": 100000,
                              "rho_grid": [-0.9, -0.5, 0.9]}),
        ("moment-curve", {"replicas": 100000}),
    ),
    "jump-events": (
        ("pdmp-vs-trotter", {"replicas": 1000}),
        ("voter-limit", {"replicas": 500}),
        ("duality-moment", {"replicas": 10000}),
    ),
    "replica-arrays": (
        ("mass-martingale", {"replicas": 2000}),
        ("gamma-limit", {}),
        ("trotter-refine", {}),
        ("martingale-functional", {}),
    ),
}
SETUP_PROBES = 5

# traced function -> reported fields (see field_value for their meaning)
LAYER_FIELDS = {
    "experiments.write_artifacts": ("self_s",),
    "exitlaw.euler_exit_oracle": ("self_s", "calls", "path_steps",
                                  "path_steps_per_s", "censored_frac",
                                  "share"),
    "exitlaw.sample_exit_batch": ("self_s", "calls", "samples",
                                  "samples_per_s"),
    "exitlaw.exit_magnitude_cdf": ("self_s", "calls"),
    "exitlaw.exit_axis_mass_quadrature": ("self_s",),
    "exitlaw.nu_density_on_axis": ("calls",),
    "exitlaw.sample_nu_trunc": ("self_s", "calls", "marks"),
    "exitlaw.truncate_nu": ("self_s",),
    "lattice.heat_semigroup": ("self_s", "calls", "misses"),
    "sbm_finite.simulate": ("self_s", "site_steps", "site_steps_per_s",
                            "aborted", "clamps", "share"),
    "sbm_finite.nonspatial_simulate": ("self_s", "replicas_per_s",
                                       "absorbed_frac", "share"),
    "sbm_infinite.pdmp_simulate": ("self_s", "replicas", "jumps",
                                   "jumps_per_s", "violations",
                                   "violation_ratio", "zeroed_mass", "share"),
    "sbm_infinite.trotter_simulate": ("self_s", "replica_steps"),
    "sbm_infinite.martingale_functional_check": ("self_s",),
    "duals.moment_dual_estimate": ("self_s", "replicas_per_s"),
    "duals.coalescing_dual_estimate": ("self_s", "replicas_per_s"),
    "voter.gillespie_simulate": ("self_s", "flips", "flips_per_s"),
    "voter.voter_vs_sbminf": ("self_s",),
    "stats.ks_statistic": ("self_s",),
    "stats.ks_two_sample": ("self_s",),
    "stats.hill_exponent": ("self_s",),
    "stats.tail_slope": ("self_s",),
    "rng.stream": ("self_s", "calls"),
}
# ratio field -> (numerator count, denominator count)
RATIOS = {"censored_frac": ("censored", "paths"),
          "absorbed_frac": ("absorbed", "replicas"),
          "violation_ratio": ("violations", "jumps")}
UNITS = {"self_s": "s", "share": "ratio", "zeroed_mass": "mass"}


def import_experiments():
    """Import symbranch from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        from symbranch import experiments
    except ImportError as exc:
        sys.exit(f"bench: cannot import symbranch from {SRC}: {exc}")
    if Path(experiments.__file__).resolve().parents[1] != SRC:
        sys.exit(f"bench: imported symbranch from {experiments.__file__}, "
                 f"not from {SRC}")
    return experiments


def build_configs(experiments, workload, seed):
    seed_kw = {} if seed is None else {"seed": seed}
    return [experiments.default_config(name, **overrides, **seed_kw)
            for name, overrides in WORKLOADS[workload]]


def setup_probe(workload, seed):
    """Fresh-interpreter set-up: import, build configs, print the clock."""
    build_configs(import_experiments(), workload, seed)
    print(time.monotonic())


def measure_setup(workload, seed):
    """setup_s: interpreter start to configs built, in a fresh process.

    CLOCK_MONOTONIC is shared by all processes, so the probe's clock reading
    after set-up minus this process's reading before the spawn is the
    set-up time including interpreter start.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1]) - t0


@dataclasses.dataclass
class Pass:
    """One repeat of a workload: timings, criterion rows, artifact digests."""

    wall_s: float  # reference samples excluded
    cpu_s: float
    speed: float  # SpeedProbe.factor() over the repeat; None when traced
    exp_wall_s: dict  # experiment -> wall time
    rows: list  # (experiment, criterion name, passed)
    digests: dict  # artifact file name -> sha256
    traced: bool


def run_pass(experiments, configs, out_dir, traced, probe):
    """One repeat; with a probe, the machine speed is sampled throughout."""
    exp_wall_s = {}
    rows = []
    if probe is not None:
        probe.sample()  # at least two samples, however short the repeat
    c0 = time.process_time()
    t0 = time.perf_counter()
    with probe or contextlib.nullcontext():
        for cfg in configs:
            t = time.perf_counter()
            report = experiments.run_experiment(cfg, out_dir=str(out_dir))
            exp_wall_s[cfg.experiment] = time.perf_counter() - t
            rows += [(cfg.experiment, r.name, bool(r.passed))
                     for r in report.criteria]
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    speed = None
    if probe is not None:
        wall_s -= probe.spent_s() - probe.samples[0]
        cpu_s -= probe.spent_s() - probe.samples[0]
        probe.sample()
        speed = probe.factor()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.iterdir())}
    shutil.rmtree(out_dir)
    return Pass(wall_s, cpu_s, speed, exp_wall_s, rows, digests, traced)


def check(passes):
    """Failed and attempted operations over all repeats.

    Every criterion row of every repeat is one attempt; so is every artifact
    file, which fails when its bytes differ between repeats (or it is
    missing from one). A run is correct when no artifact fails: the JSON
    report holds every row's observed value and verdict, so the program then
    produced the same results from the same inputs. A row whose verdict is
    FAIL counts as failed but does not make the run incorrect, because some
    statistical rows are seed-fragile and fail at many seeds (README.md,
    "Seed-fragile checks").
    """
    files = sorted(set().union(*(p.digests for p in passes)))
    bad_files = [f for f in files
                 if len({p.digests.get(f) for p in passes}) > 1]
    bad_rows = sorted({(exp, name) for p in passes
                       for exp, name, ok in p.rows if not ok})
    failed = sum(not ok for p in passes for _, _, ok in p.rows)
    attempted = sum(len(p.rows) for p in passes) + len(files)
    return attempted, failed + len(bad_files), bad_rows, bad_files


def artifact_digest(digests):
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name} {digests[name]}\n".encode())
    return h.hexdigest()


def field_value(layer, field, n, wall_s):
    """Per-pass value and unit of one traced field, over n traced passes."""
    if field == "self_s":
        return layer.self_s / n, "s"
    if field == "calls":
        return layer.calls / n, "count"
    if field == "share":
        return layer.self_s / n / wall_s, "ratio"
    if field.endswith("_per_s"):
        count = layer.counts.get(field[:-len("_per_s")], 0)
        return (count / layer.self_s if layer.self_s > 0 else 0.0), "1/s"
    if field in RATIOS:
        num, den = (layer.counts.get(k, 0) for k in RATIOS[field])
        return (num / den if den else 0.0), "ratio"
    return layer.counts.get(field, 0) / n, UNITS.get(field, "count")


def layer_metrics(tracer, passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    wall_s = statistics.median(p.wall_s for p in traced)
    plain_wall_s = statistics.median(p.wall_s for p in plain)
    metrics = {}
    for name in sorted({e for w in WORKLOADS.values() for e, _ in w}):
        walls = [p.exp_wall_s[name] for p in traced if name in p.exp_wall_s]
        metrics[f"experiments.{name}.wall_s"] = (
            statistics.median(walls) if walls else 0.0, "s")
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = field_value(
                tracer.layers[name], field, n, wall_s)
    metrics["experiments.artifact_bytes"] = (
        tracer.layers["experiments.write_artifacts"].counts.get("bytes", 0)
        / n, "bytes")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall_s, "s")
    metrics["trace.overhead_s"] = (wall_s - plain_wall_s, "s")
    return metrics


def run_record(args):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed if args.seed is not None else "experiment defaults",
        "overrides": dict(WORKLOADS[args.workload]),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in sorted(os.environ)
                         if k.endswith("_NUM_THREADS")},
    }


def run_workload(args):
    experiments = import_experiments()
    configs = build_configs(experiments, args.workload, args.seed)
    print("run record:", json.dumps(run_record(args), sort_keys=True))
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
    else:
        # the speed around the probes is sampled between them, while no
        # probe runs
        setup_speed = SpeedProbe()
        setup_s = []
        for _ in range(SETUP_PROBES):
            for _ in range(3):
                setup_speed.sample()
            setup_s.append(measure_setup(args.workload, args.seed))
        setup_speed.sample()
        print("setup probes: " + ", ".join(f"{s:.3f} s" for s in setup_s)
              + f"; speed factor {setup_speed.factor():.4f}")

    # in a traced run, untraced and traced repeats alternate so that the
    # tracing overhead is measured in the same process; the speed is sampled
    # only in untraced runs, so that it adds nothing to the layers' self time
    passes = []
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(
                experiments, configs, out_root / f"pass{len(passes)}",
                traced, None if tracer else SpeedProbe()))
        finally:
            if traced:
                tracer.uninstall()
        p = passes[-1]
        print(f"pass {len(passes)}: wall {p.wall_s:.3f} s, "
              f"cpu {p.cpu_s:.3f} s"
              + (f", speed factor {p.speed:.4f}" if p.speed else "")
              + (" (traced)" if traced else ""), flush=True)

    attempted, failed, bad_rows, bad_files = check(passes)
    for exp, name in bad_rows:
        print(f"FAIL criterion: {exp}: {name}")
    for name in bad_files:
        print(f"FAIL artifact differs between repeats: {name}")
    print(f"artifact digest: {artifact_digest(passes[0].digests)}")
    print(f"checks_failed_frac: {failed / attempted} ratio "
          f"({failed} of {attempted})")

    if tracer is None:
        print(f"uncalibrated: wall_s "
              f"{statistics.median(p.wall_s for p in passes):.6g} s, "
              f"setup_s {statistics.median(setup_s):.6g} s")
        metrics = {
            "wall_s": (statistics.median(p.wall_s * p.speed for p in passes),
                       "s"),
            "setup_s": (statistics.median(setup_s) * setup_speed.factor(),
                        "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    else:
        metrics = layer_metrics(tracer, passes)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bad_files,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Each workload in a fresh process, one after another; one table."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"bench: workload {workload} exited {done.returncode}")
        rows.append((workload, json.loads(done.stdout.splitlines()[-1])))
    print()
    for workload, res in rows:
        frac = res["failed"] / res["attempted"]
        cells = [f"{k} {m['value']:.4g} {m['unit']}"
                 for k, m in res["metrics"].items()
                 if args.trace == 0
                 or (k.endswith((".share", "overhead_s")) and m["value"])]
        print(f"{workload:15s} " + "  ".join(cells)
              + f"  checks_failed_frac {frac:.4g} ratio")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of every experiment (default: each "
                         "experiment's own default seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="repeat the workload until this much time has "
                         "passed (at least two repeats)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
