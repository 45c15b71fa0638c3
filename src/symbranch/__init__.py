"""Finite- and infinite-rate symbiotic branching on finite graphs.

Simulators for the coupled square-root SDE system (finite branching rate),
its infinite-rate boundary-valued limit (Trotter splitting and a truncated-jump
piecewise-deterministic construction), the exact exit law of correlated planar
Brownian motion, and the duality oracles used to cross-validate them.
"""

from symbranch.lattice import SiteGraph, build_torus, build_dumbbell
from symbranch.exitlaw import (
    ExitLawParams,
    TruncatedJumpMeasure,
    critical_exponent,
    truncate_nu,
    sample_nu_trunc,
)

__all__ = [
    "SiteGraph",
    "build_torus",
    "build_dumbbell",
    "ExitLawParams",
    "TruncatedJumpMeasure",
    "critical_exponent",
    "truncate_nu",
    "sample_nu_trunc",
]

__version__ = "0.1.0"
