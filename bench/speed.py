"""Machine-speed samples taken while a workload runs.

On a shared host the speed of this machine drifts: on the 2-core machine the
bounds were set on, repeats of one workload at one seed took from 12 s to
18 s within minutes, with CPU time equal to wall time (no steal), so the
processor itself ran slower. A fixed piece of reference work, timed at even
intervals during the workload, measures that speed at the same moments. Its
mean time divided into REF_S gives the factor that rescales a measured time
to the speed at which the reference takes REF_S. See README.md,
"Machine speed".
"""

import signal
import statistics
import time

import numpy as np

# mean time of one reference sample on the machine the bounds were set on
REF_S = 0.014
# seconds between samples taken during a workload
INTERVAL_S = 0.5


def reference_work(rng):
    """A fixed mix of the kinds of work the workloads do; uses no symbranch.

    A scalar loop over tiny arrays (like the per-replica event loops), bulk
    normals with running sums (like the exit oracle) and a Python loop over
    4096-element arrays (like the vectorised steppers).
    """
    x = np.zeros(2)
    acc = 0.0
    for _ in range(1500):
        x = x * 0.5 + rng.random(2)
        acc += float(x @ x)
    z = rng.standard_normal((256, 512))
    np.cumsum(z, axis=1, out=z)
    acc += float((z <= 0).any(axis=1).sum())
    u = np.ones(4096)
    v = np.ones(4096)
    for _ in range(60):
        sig = np.sqrt(u * v * 1e-3)
        z1 = rng.standard_normal(4096)
        u = np.maximum(u + sig * z1, 0.0)
        v = np.maximum(v - sig * z1, 0.0)
    return acc


class SpeedProbe:
    """Reference samples, taken on demand or every INTERVAL_S while entered.

    While entered, SIGALRM runs one sample in the main thread between two
    bytecodes of whatever is running; no thread or process is started.
    """

    def __init__(self):
        self.samples = []
        self._rng = np.random.default_rng(0)

    def sample(self):
        t0 = time.perf_counter()
        reference_work(self._rng)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_s(self):
        return sum(self.samples)

    def factor(self):
        """REF_S over the mean sample time; below 1 on a slow machine."""
        return REF_S / statistics.fmean(self.samples)
