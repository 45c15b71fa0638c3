"""Graph construction, generator action, and heat semigroup."""

import numpy as np
import pytest
from scipy.linalg import expm

from symbranch.lattice import (SiteGraph, as_field, build_dumbbell,
                               build_torus, heat_semigroup)


def test_torus_structure():
    g = build_torus(1, 8)
    assert g.n_sites == 8
    A = g.rates
    assert np.allclose(A, A.T)
    assert np.allclose(A.sum(axis=1), 0.0)
    # nearest-neighbor ring: each site couples to exactly two others
    off = A - np.diag(np.diag(A))
    assert np.all((off > 0).sum(axis=1) == 2)
    assert np.allclose(np.diag(A), -1.0)


def test_torus_2d_degree():
    g = build_torus(2, 4)
    assert g.n_sites == 16
    off = g.rates - np.diag(np.diag(g.rates))
    assert np.all((off > 0).sum(axis=1) == 4)


def test_dumbbell():
    g = build_dumbbell(0.5)
    assert g.n_sites == 2
    assert np.allclose(g.rates, [[-0.5, 0.5], [0.5, -0.5]])


def test_bad_graphs_rejected():
    with pytest.raises(ValueError):
        build_torus(0, 8)
    with pytest.raises(ValueError):
        build_torus(1, 2)
    with pytest.raises(ValueError):
        build_dumbbell(0.0)
    with pytest.raises(ValueError):
        SiteGraph(rates=np.array([[0.0, 1.0], [2.0, -3.0]]))
    # NaN compares False both ways, so it would slip past the other checks
    for rate in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            build_dumbbell(rate)
        with pytest.raises(ValueError, match="finite"):
            SiteGraph(rates=np.array([[-rate, rate], [rate, -rate]]))


def test_generator_constant_field_is_zero():
    g = build_torus(1, 6)
    f = np.full(6, 3.7)
    assert np.allclose(f @ g.rates.T, 0.0)


def test_heat_semigroup_properties():
    g = build_torus(1, 6)
    P = heat_semigroup(g, 0.3)
    assert np.all(P >= 0)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # semigroup property
    assert np.allclose(heat_semigroup(g, 0.5) @ heat_semigroup(g, 0.25),
                       heat_semigroup(g, 0.75), atol=1e-12)
    assert np.allclose(heat_semigroup(g, 0.0), np.eye(6), atol=1e-14)
    with pytest.raises(ValueError):
        heat_semigroup(g, -0.1)


def test_heat_semigroup_equilibrates():
    g = build_torus(1, 5)
    delta = np.zeros(5)
    delta[0] = 1.0
    far = delta @ heat_semigroup(g, 200.0).T
    assert np.allclose(far, 0.2, atol=1e-10)


@pytest.mark.parametrize("g", [build_dumbbell(0.5), build_torus(1, 4),
                               build_torus(1, 8), build_torus(2, 8)],
                         ids=lambda g: g.label)
@pytest.mark.parametrize("t", [1e-4, 1e-3, 0.02, 0.5])
def test_heat_semigroup_is_transition_matrix(g, t):
    # the spectral form leaves roundoff of either sign where exp(tA) ~ 0;
    # entries must still be >= 0 for row sampling and mass transport
    P = heat_semigroup(g, t)
    assert np.all(P >= 0.0)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(P - P.T)) <= 1e-12
    assert np.max(np.abs(P - expm(t * g.rates))) <= 1e-12


def test_as_field_shape_check():
    g = build_torus(1, 6)
    assert as_field(g, np.arange(6.0)).shape == (6,)
    with pytest.raises(ValueError):
        as_field(g, np.arange(5.0))
    # a scalar used to raise IndexError
    with pytest.raises(ValueError, match="entries"):
        as_field(g, 5.0)
