"""Estimator helpers and the seeded stream layout."""

import pathlib
import re

import numpy as np
import pytest
from scipy import stats as sps

from symbranch import rng as rngmod
from symbranch.stats import (complex_mean_se, hill_exponent, ks_statistic,
                             ks_two_sample, pooled_mean_se, tail_slope)


def test_pooled_mean_se_hand_case():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    m, se = pooled_mean_se(x)
    assert m == pytest.approx(3.0)
    # sample sd sqrt(2.5), se = sd/sqrt(5)
    assert se == pytest.approx(np.sqrt(2.5 / 5))
    with pytest.raises(ValueError):
        pooled_mean_se(np.array([1.0]))


def test_complex_mean_se():
    z = np.array([1 + 2j, 3 + 4j, 5 + 6j])
    mean, (sr, si) = complex_mean_se(z)
    assert mean == pytest.approx(3 + 4j)
    assert sr == pytest.approx(np.std(z.real, ddof=1) / np.sqrt(3))
    assert si == pytest.approx(np.std(z.imag, ddof=1) / np.sqrt(3))


def test_ks_statistic_matches_scipy():
    rng = rngmod.stream(0, "ks-test")
    x = rng.exponential(size=400)
    ours = ks_statistic(x, lambda r: 1 - np.exp(-np.asarray(r)))
    ref = sps.kstest(x, lambda r: 1 - np.exp(-r)).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_statistic_null_band():
    # uniform null: KS below the asymptotic 0.1% band at n=2000
    rng = rngmod.stream(1, "ks-null")
    x = rng.uniform(size=2000)
    d = ks_statistic(x, lambda r: np.clip(np.asarray(r), 0, 1))
    assert d < 1.95 / np.sqrt(2000)


def test_ks_two_sample():
    rng = rngmod.stream(2, "ks2")
    a = rng.normal(size=1500)
    b = rng.normal(size=1500)
    stat, p = ks_two_sample(a, b)
    assert p > 0.001
    stat2, p2 = ks_two_sample(a, b + 3.0)
    assert p2 < 1e-6 and stat2 > stat


def test_hill_exponent_pareto():
    # exact Pareto(alpha): Hill should land within 5% at n=1e6
    alpha = 1.7
    rng = rngmod.stream(3, "hill")
    x = rng.pareto(alpha, size=1000000) + 1.0
    est = hill_exponent(x)
    assert abs(est - alpha) / alpha < 0.05


def test_hill_exponent_k_validation():
    with pytest.raises(ValueError):
        hill_exponent(np.arange(1.0, 10.0), k=9)


def test_tail_slope_pareto():
    alpha = 1.25
    rng = rngmod.stream(4, "slope")
    x = rng.pareto(alpha, size=200000) + 1.0
    est = tail_slope(x)
    assert abs(est - alpha) / alpha < 0.10


def test_tail_slope_accepts_censored_inf():
    rng = rngmod.stream(5, "slope-inf")
    x = rng.pareto(2.0, size=100000) + 1.0
    x[x > np.quantile(x, 0.999)] = np.inf
    est = tail_slope(x)
    assert np.isfinite(est) and est > 0


def test_tail_slope_window_ends_below_censoring():
    # 1 % censored, more than 1 - q_hi: the window ends at the last observed
    # value instead of at a quantile among the censored samples
    rng = rngmod.stream(6, "slope-cens")
    x = rng.pareto(2.0, size=100000) + 1.0
    x[x > np.quantile(x, 0.99)] = np.inf
    est = tail_slope(x)
    assert abs(est - 2.0) / 2.0 < 0.10
    x[x > np.quantile(x, 0.85)] = np.inf  # the whole window is censored
    with pytest.raises(ValueError, match="degenerate"):
        tail_slope(x)


def test_streams_reproducible_and_distinct():
    a1 = rngmod.stream(7, "tag-a").standard_normal(8)
    a2 = rngmod.stream(7, "tag-a").standard_normal(8)
    b = rngmod.stream(7, "tag-b").standard_normal(8)
    c = rngmod.stream(8, "tag-a").standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_stream_cross_correlation():
    n = 100000
    x = rngmod.stream(9, "corr", 0).standard_normal(n)
    y = rngmod.stream(9, "corr", 1).standard_normal(n)
    assert abs(np.corrcoef(x, y)[0, 1]) < 3.0 / np.sqrt(n)


def test_chunk_streams_cover_range():
    spans = [(lo, hi) for lo, hi, _ in rngmod.chunk_streams(0, "cov", 10000)]
    assert spans == [(0, 4096), (4096, 8192), (8192, 10000)]
    # same replica index -> same draws regardless of how later chunks are used
    g1 = list(rngmod.chunk_streams(0, "cov", 10000))[1][2]
    g2 = list(rngmod.chunk_streams(0, "cov", 5000))[1][2]
    assert np.array_equal(g1.standard_normal(4), g2.standard_normal(4))


def _toy_chunk(lo, hi, rng, scale):
    m = hi - lo
    return np.full(m, lo), rng.random(m) * scale


@pytest.mark.parametrize("n", [1, rngmod.CHUNK, rngmod.CHUNK + 3,
                               2 * rngmod.CHUNK + 1])
def test_map_chunks_joins_chunks_in_replica_order(n):
    starts, draws = rngmod.map_chunks(_toy_chunk, 5, "map", n, 2.0)
    assert starts.shape == draws.shape == (n,)
    los = range(0, n, rngmod.CHUNK)
    want = np.concatenate([np.full(min(rngmod.CHUNK, n - lo), lo)
                           for lo in los])
    assert np.array_equal(starts, want)
    # chunk i draws from stream i, and the extra argument reaches fn
    for i, lo in enumerate(los):
        hi = min(lo + rngmod.CHUNK, n)
        ref = rngmod.stream(5, "map", i).random(hi - lo) * 2.0
        assert np.array_equal(draws[lo:hi], ref)


def test_map_chunks_needs_a_replica():
    with pytest.raises(ValueError):
        rngmod.map_chunks(_toy_chunk, 5, "map", 0, 2.0)


def test_only_rng_walks_the_chunks():
    # every replica-batched simulator goes through rng.map_chunks, so that
    # the chunk loop lives in one place; so do the processes that run it
    src = pathlib.Path(rngmod.__file__).parent
    others = [p for p in sorted(src.glob("*.py")) if p.name != "rng.py"]
    walkers = [p.name for p in others if "chunk_streams(" in p.read_text()]
    assert walkers == []
    pooled = re.compile(r"^\s*(import|from)\s+(multiprocessing|concurrent)\b",
                        re.MULTILINE)
    poolers = [p.name for p in others if pooled.search(p.read_text())]
    assert poolers == []


