"""Finite site graphs, the jump-rate generator, and the heat semigroup.

Graphs are small (tori of side L, or the 2-site dumbbell), stored dense. The
generator is a symmetric Q-matrix: nonnegative off-diagonal rates, rows summing
to zero. Being symmetric, it is diagonalized once per graph, and every heat
kernel exp(t*A) is read off that one eigendecomposition.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SiteGraph:
    """Finite vertex set with symmetric zero-row-sum rate matrix."""

    rates: np.ndarray          # (n, n) Q-matrix
    label: str = ""
    spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.rates, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("rates must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("rates must be finite")
        off = a - np.diag(np.diag(a))
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("rate matrix must be symmetric")
        if not np.max(np.abs(a.sum(axis=1))) <= 1e-12:
            raise ValueError("rows must sum to zero")
        object.__setattr__(self, "rates", a)
        # (eigenvalues, orthonormal eigenvectors) of the generator
        object.__setattr__(self, "spectrum", np.linalg.eigh(a))

    @property
    def n_sites(self):
        return self.rates.shape[0]


def as_field(g, values):
    """Validate a per-site scalar field (one real per site) against g."""
    f = np.asarray(values, dtype=float)
    if f.shape[-1:] != (g.n_sites,):
        raise ValueError(f"field of shape {f.shape} does not have "
                         f"{g.n_sites} entries, one per site")
    return f


def build_torus(d, L):
    """d-dimensional torus of side L with nearest-neighbor rates 1/(2d).

    L < 3 is rejected: side 2 would stack parallel edges into one rate and side
    1 has no neighbors; use build_dumbbell for the two-site graph.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if L < 3:
        raise ValueError("torus side must be >= 3; use build_dumbbell for 2 sites")
    n = L**d
    a = np.zeros((n, n))
    rate = 1.0 / (2 * d)
    coords = np.array(np.unravel_index(np.arange(n), (L,) * d)).T
    for k in range(n):
        for axis in range(d):
            for step in (-1, 1):
                nb = coords[k].copy()
                nb[axis] = (nb[axis] + step) % L
                j = int(np.ravel_multi_index(nb, (L,) * d))
                a[k, j] += rate
    np.fill_diagonal(a, -a.sum(axis=1))
    return SiteGraph(rates=a, label=f"torus(d={d},L={L})")


def build_dumbbell(rate=0.5):
    """Two sites joined by a single symmetric rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    a = np.array([[-rate, rate], [rate, -rate]], dtype=float)
    return SiteGraph(rates=a, label=f"dumbbell(rate={rate})")


def heat_semigroup(g, t):
    """exp(t*A) = V diag(e^{t*lam}) V^T, a symmetric stochastic matrix.

    Entries are clipped at 0: where exp(t*A) is ~0 the spectral form leaves
    roundoff of either sign (down to ~-5e-16), and a negative entry would
    break sampling from a row and transporting mass with it.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    if t == 0:
        return np.eye(g.n_sites)
    lam, V = g.spectrum
    return np.maximum((V * np.exp(t * lam)) @ V.T, 0.0)
