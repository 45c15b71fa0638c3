"""Outside-in span tracing of symbranch's public functions.

The tracer replaces each traced function at every module attribute bound to
it, because several modules import these functions by name
(``from symbranch.exitlaw import euler_exit_oracle``). Nothing under ``src/``
is edited: spans are recorded from here, around the calls into each layer.

Self time is a span's duration minus the duration of the traced calls made
inside it. Counts come only from public arguments and return values.
"""

import inspect
import math
import os
import sys
import time

import numpy as np


class Layer:
    """Accumulated spans and counts of one traced function."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}
        self.seen = {}  # id(graph) -> (graph, set of t) for heat_semigroup

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


# ---------------------------------------------------------------------------
# counters: (layer, bound arguments, return value) -> None


def _oracle(layer, a, out):
    t = np.where(out["censored"], a["horizon"],
                 np.minimum(out["exit_time"], a["horizon"]))
    # exit_time is a whole number of steps times dt; the guard keeps float
    # rounding of k*dt/dt from adding a step
    layer.add("path_steps", int(np.ceil(t / a["dt"] - 1e-9).sum()))
    layer.add("paths", int(a["n"]))
    layer.add("censored", int(out["censored"].sum()))


def _exit_batch(layer, a, out):
    layer.add("samples", int(np.size(a["u"])))


def _nu_marks(layer, a, out):
    layer.add("marks", 1 if a["size"] is None else int(a["size"]))


def _heat(layer, a, out):
    # the graph is kept alive in `seen` so that its id cannot be reused by a
    # later graph while it is counted
    _, times = layer.seen.setdefault(id(a["g"]), (a["g"], set()))
    if float(a["t"]) not in times:
        times.add(float(a["t"]))
        layer.add("misses", 1)


def _simulate(layer, a, out):
    cfg = a["cfg"]
    steps = int(round(cfg.horizon / cfg.dt))
    layer.add("site_steps", int(cfg.replicas) * a["g"].n_sites * steps)
    layer.add("aborted", int(out.aborted.sum()))
    layer.add("clamps", int(out.clamp_count.sum()))


def _nonspatial(layer, a, out):
    layer.add("replicas", int(a["cfg"].replicas))
    layer.add("absorbed", int(out["absorbed"].sum()))


def _pdmp(layer, a, out):
    layer.add("replicas", int(a["replicas"]))
    layer.add("jumps", int(out["n_jumps"].sum()))
    layer.add("violations", int(out["violations"].sum()))
    layer.add("zeroed_mass", float(out["zeroed_mass"].sum()))


def _trotter(layer, a, out):
    steps = max(int(math.ceil(a["horizon"] / a["eps"] - 1e-12)), 0)
    layer.add("replica_steps", int(a["replicas"]) * steps)


def _replicas(layer, a, out):
    layer.add("replicas", int(a["replicas"]))


def _gillespie(layer, a, out):
    layer.add("flips", int(out["flips"].sum()))


def _artifacts(layer, a, out):
    layer.add("bytes", sum(os.path.getsize(p) for p in out))


# "module.function" -> counter, or None when only spans are recorded
TRACED = {
    "experiments.write_artifacts": _artifacts,
    "exitlaw.euler_exit_oracle": _oracle,
    "exitlaw.sample_exit_batch": _exit_batch,
    "exitlaw.exit_magnitude_cdf": None,
    "exitlaw.exit_axis_mass_quadrature": None,
    "exitlaw.nu_density_on_axis": None,
    "exitlaw.sample_nu_trunc": _nu_marks,
    "exitlaw.truncate_nu": None,
    "lattice.heat_semigroup": _heat,
    "sbm_finite.simulate": _simulate,
    "sbm_finite.nonspatial_simulate": _nonspatial,
    "sbm_infinite.pdmp_simulate": _pdmp,
    "sbm_infinite.trotter_simulate": _trotter,
    "sbm_infinite.martingale_functional_check": None,
    "duals.moment_dual_estimate": _replicas,
    "duals.coalescing_dual_estimate": _replicas,
    "voter.gillespie_simulate": _gillespie,
    "voter.voter_vs_sbminf": None,
    "stats.ks_statistic": None,
    "stats.ks_two_sample": None,
    "stats.hill_exponent": None,
    "stats.tail_slope": None,
    "rng.stream": None,
}


class Tracer:
    """Wraps the TRACED functions while installed; one per traced process."""

    def __init__(self):
        self.layers = {name: Layer() for name in TRACED}
        self._stack = []
        self._patched = []

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "symbranch"
                                        or name.startswith("symbranch."))}
        for name, count in TRACED.items():
            mod_name, fn_name = name.split(".")
            fn = getattr(mods[f"symbranch.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, self.layers[name], count)
            bound = [(mod, attr) for mod in mods.values()
                     for attr, value in vars(mod).items() if value is fn]
            for mod, attr in bound:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, layer, count):
        sig = inspect.signature(fn) if count is not None else None
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += span
                layer.calls += 1
                layer.total_s += span
                layer.self_s += span - frame[0]
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(layer, bound.arguments, out)
            return out

        traced.__wrapped__ = fn
        return traced
