"""Exit law of the correlated planar pair and the boundary jump measure."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from symbranch import experiments
from symbranch import rng as rngmod
from symbranch.exitlaw import (AtomicExitLaw, ExitLawParams, PoleValue,
                               U_AXIS, V_AXIS, atomic_swap_measure,
                               critical_exponent, euler_exit_oracle,
                               exit_axis_mass_quadrature,
                               exit_axis_prob, exit_density_on_axis,
                               exit_magnitude_cdf, nu_density_on_axis,
                               sample_exit_batch, sample_nu_trunc,
                               truncate_nu)
from symbranch.stats import ks_statistic, pooled_mean_se


# ---------------------------------------------------------------------------
# critical exponent


def test_exponent_special_values():
    assert critical_exponent(0.0) == 2.0
    assert critical_exponent(1.0) == 1.0
    assert critical_exponent(-0.5) == pytest.approx(3.0, abs=1e-12)
    assert critical_exponent(0.5) == pytest.approx(1.5, abs=1e-12)
    assert critical_exponent(-1.0) == math.inf


def test_exponent_monotone_decreasing():
    grid = np.linspace(-0.999, 1.0, 41)
    vals = [critical_exponent(r) for r in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exponent_domain():
    with pytest.raises(ValueError):
        critical_exponent(1.2)


def test_params_wedge_angle():
    params = ExitLawParams(0.3)
    assert params.theta == pytest.approx(math.pi / 2 + math.asin(0.3))
    assert params.p == pytest.approx(math.pi / params.theta)


# ---------------------------------------------------------------------------
# exit sampling: degenerate correlations and absorbed starts


def _exit_one(params, start, rng):
    """One exit draw from start, as a (u, v) pair of floats."""
    uu, vv = sample_exit_batch(params, np.array([start[0]]),
                               np.array([start[1]]), rng)
    return float(uu[0]), float(vv[0])


def test_absorbed_start_is_fixed():
    params = ExitLawParams(0.3)
    rng = rngmod.stream(0, "t-abs")
    assert _exit_one(params, (0.0, 5.0), rng) == (0.0, 5.0)
    assert _exit_one(params, (2.0, 0.0), rng) == (2.0, 0.0)
    assert _exit_one(params, (0.0, 0.0), rng) == (0.0, 0.0)


def test_rho_one_deterministic():
    params = ExitLawParams(1.0)
    rng = rngmod.stream(1, "t-rho1")
    assert _exit_one(params, (2.0, 0.5), rng) == (1.5, 0.0)
    assert _exit_one(params, (0.5, 2.0), rng) == (0.0, 1.5)
    assert _exit_one(params, (1.0, 1.0), rng) == (0.0, 0.0)


def test_rho_minus_one_two_atoms():
    params = ExitLawParams(-1.0)
    rng = rngmod.stream(2, "t-rhom1")
    uu, vv = sample_exit_batch(params, np.full(20000, 2.0),
                               np.full(20000, 1.0), rng)
    mags = np.maximum(uu, vv)
    assert np.all(mags == 3.0)  # sum conserved exactly
    fu = float((uu > 0).mean())
    se = math.sqrt(fu * (1 - fu) / 20000)
    assert abs(fu - 2.0 / 3.0) < 3 * se


def test_optional_stopping_mean():
    # first coordinate is a martingale; stopped mean = start when p(rho) > 1
    params = ExitLawParams(0.3)
    rng = rngmod.stream(3, "t-mart")
    uu, _ = sample_exit_batch(params, np.full(200000, 2.0),
                              np.full(200000, 1.0), rng)
    mean, se = pooled_mean_se(uu)
    assert abs(mean - 2.0) < 3 * se


def test_batch_sampler_boundary_constraint():
    params = ExitLawParams(-0.5)
    rng = rngmod.stream(4, "t-bc")
    uu, vv = sample_exit_batch(params, np.full(5000, 1.0),
                               np.full(5000, 2.0), rng)
    assert np.all(uu * vv == 0.0)
    assert np.all((uu >= 0) & (vv >= 0))


# correlations with both ends sampled, and start coordinates on an axis or
# of magnitude 1e-12 to 1e12
_RHOS = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.9999, 0.9999))
_COORDS = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e))


@settings(max_examples=60, deadline=None)
@given(rho=_RHOS, u0=_COORDS, v0=_COORDS, seed=st.integers(0, 2**31))
@example(rho=-0.999, u0=1e6, v0=2e6, seed=0)
@example(rho=-0.999, u0=1e-12, v0=2e-12, seed=0)
def test_exit_sample_always_on_boundary(rho, u0, v0, seed):
    # p = pi / (pi/2 + asin rho) is 70 at rho = -0.999, where R^p of the
    # half-plane image overflows (NaN exits) or underflows (zero magnitudes)
    params = ExitLawParams(rho)
    rng = rngmod.stream(seed, "t-hyp")
    uu, vv = sample_exit_batch(params, np.full(64, u0), np.full(64, v0), rng)
    assert np.all(np.isfinite(uu) & np.isfinite(vv))
    assert np.all((uu >= 0.0) & (vv >= 0.0))
    assert np.all(uu * vv == 0.0)
    if u0 > 0 and v0 > 0 and rho < 1.0:
        # only perfectly correlated pairs exit at the origin
        assert np.all(np.maximum(uu, vv) > 0.0)


# ---------------------------------------------------------------------------
# exit oracle: closed forms that do not use the conformal map


def _z(hat, p, n):
    """Standard score of a sample frequency hat against its law p."""
    return (hat - p) / math.sqrt(p * (1.0 - p) / n)


def test_oracle_rho0_survival_and_side():
    # at rho = 0 the coordinates are independent Brownian motions from 1, so
    # P(tau > t) = P(both stay positive up to t) = erf(1/sqrt(2t))^2, and by
    # symmetry the exit side is fair; without the bridge test the missed
    # crossings push the survival well above these values
    n = 50000
    out = euler_exit_oracle(0.0, (1.0, 1.0), 1e-3, n,
                            rngmod.stream(0, "t-oracle-rho0"), horizon=10.0)
    tau = np.where(out["censored"], np.inf, out["exit_time"])
    for t in (0.3, 1.0, 5.0):
        p = math.erf(1.0 / math.sqrt(2.0 * t)) ** 2
        assert abs(_z((tau > t).mean(), p, n)) < 4, t
    exited = ~out["censored"]
    assert abs(_z(out["on_u_axis"][exited].mean(), 0.5, exited.sum())) < 4


def test_oracle_rho_minus_one_gamblers_ruin():
    # at rho = -1, u + v = 4 is conserved: the pair exits on the U axis when
    # v reaches 0 first, with probability u0 / (u0 + v0) = 1/4, and the
    # magnitude misses 4 only by the crossing coordinate's last step
    n, dt = 20000, 1e-3
    out = euler_exit_oracle(-1.0, (1.0, 3.0), dt, n,
                            rngmod.stream(0, "t-oracle-rhom1"), horizon=100.0)
    assert not out["censored"].any()
    assert abs(_z(out["on_u_axis"].mean(), 0.25, n)) < 4
    assert np.max(np.abs(out["magnitude"] - 4.0)) < 8 * math.sqrt(dt)


@settings(max_examples=40, deadline=None)
@given(rho=_RHOS, u0=_COORDS, v0=_COORDS, seed=st.integers(0, 2**31))
def test_oracle_properties(rho, u0, v0, seed):
    horizon = 2.0
    out = euler_exit_oracle(rho, (u0, v0), 1e-3, 64,
                            rngmod.stream(seed, "t-oracle-hyp"),
                            horizon=horizon)
    censored = out["censored"]
    assert np.array_equal(censored, np.isnan(out["exit_time"]))
    t = out["exit_time"][~censored]
    mag = out["magnitude"][~censored]
    assert np.all(np.isfinite(t) & (t >= 0.0) & (t <= horizon))
    assert np.all(np.isfinite(mag) & (mag >= 0.0))
    if not (u0 > 0 and v0 > 0):
        assert not censored.any()
        assert np.all(out["exit_time"] == 0.0)
        assert np.all(out["magnitude"] == max(u0, v0))
        assert np.all(out["on_u_axis"] == (u0 > 0))


# ---------------------------------------------------------------------------
# density: normalization, axis masses, CDF agreement


def test_density_normalizes_and_axis_prob_matches():
    params = ExitLawParams(-0.5)
    start = (1.0, 2.0)
    mu = exit_axis_mass_quadrature(params, start, U_AXIS)
    mv = exit_axis_mass_quadrature(params, start, V_AXIS)
    assert mu + mv == pytest.approx(1.0, abs=1e-6)
    assert mu == pytest.approx(exit_axis_prob(params, start, U_AXIS), abs=1e-6)


def test_density_atomic_cases_raise():
    with pytest.raises(AtomicExitLaw):
        exit_density_on_axis(ExitLawParams(1.0), (1.0, 2.0), U_AXIS, 1.0)
    with pytest.raises(AtomicExitLaw):
        exit_density_on_axis(ExitLawParams(0.3), (0.0, 2.0), V_AXIS, 1.0)


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(-0.999, 0.999),
       c=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       ratio=st.floats(0.1, 10.0), w=st.floats(0.2, 5.0))
@example(rho=-0.999, c=1e6, ratio=2.0, w=2.5)  # R**p overflowed here
@example(rho=0.9, c=1e-3, ratio=5000.0, w=1.0)  # start (0.001, 5)
def test_exit_law_scale_invariance(rho, c, ratio, w):
    # the exit point from c x is c times the exit point from x: axis
    # probabilities agree, densities scale by 1/c and CDFs agree, to 1e-9
    params = ExitLawParams(rho)
    x, cx = (1.0, ratio), (c, c * ratio)
    r = w * math.hypot(*x)
    pu = exit_axis_prob(params, x, U_AXIS)
    assert exit_axis_prob(params, cx, U_AXIS) == pytest.approx(pu, rel=1e-9)
    for axis in (U_AXIS, V_AXIS):
        f = exit_density_on_axis(params, x, axis, r)
        fc = exit_density_on_axis(params, cx, axis, c * r)
        assert np.isfinite(f) and f >= 0
        assert c * fc == pytest.approx(f, rel=1e-9, abs=1e-300)
        F = exit_magnitude_cdf(params, x, axis, r)
        Fc = exit_magnitude_cdf(params, cx, axis, c * r)
        assert 0.0 <= F <= 1.0
        assert Fc == pytest.approx(F, rel=1e-9, abs=1e-15)


def test_sampler_matches_cdf():
    params = ExitLawParams(0.0)
    start = (1.0, 1.0)
    rng = rngmod.stream(5, "t-ks")
    uu, vv = sample_exit_batch(params, np.full(50000, start[0]),
                               np.full(50000, start[1]), rng)
    d = ks_statistic(uu[uu > 0],
                     lambda r: exit_magnitude_cdf(params, start, U_AXIS, r))
    assert d < 0.012  # ~1.6x the 1e-3 null band at n~25000


def _density_peak(rho, start, axis):
    """Magnitude at which the exit density on the axis peaks, or None when
    it decreases from 0: the Cauchy(loc, z2) peak s = loc pulled back from
    the half-plane, derived here from the wedge map independently."""
    q = math.sqrt(1.0 - rho * rho)
    p = critical_exponent(rho)
    u, v = start
    vt = (v - rho * u) / q
    ang = p * (math.atan2(vt, u) + math.asin(rho))
    loc = math.cos(ang) if axis == U_AXIS else -math.cos(ang)
    return q * math.hypot(u, vt) * loc ** (1.0 / p) if loc > 0 else None


@pytest.mark.parametrize("rho", (-0.9, 0.0, 0.5, 0.9, 0.999))
@pytest.mark.parametrize("start", ((1.0, 1.0), (2.0, 0.5), (0.001, 5.0),
                                   (5.0, 0.001)), ids=str)
def test_cdf_matches_density_quadrature(rho, start):
    # the closed-form CDF against adaptive quadrature of the density (with
    # its Jacobian) over the axis mass, at sample quantiles of the exit
    # magnitude; from (0.001, 5) at rho 0.999 the V-axis peak has width
    # ~1e-5 in s, and both axes are checked even where one carries ~1e-4
    params = ExitLawParams(rho)
    uu, vv = sample_exit_batch(params, np.full(4000, start[0]),
                               np.full(4000, start[1]),
                               rngmod.stream(0, "t-cdf-quad"))
    for axis in (U_AXIS, V_AXIS):
        mass = exit_axis_prob(params, start, axis)
        peak = _density_peak(rho, start, axis)
        for r in np.quantile(np.maximum(uu, vv), (0.1, 0.5, 0.9)):
            points = [peak] if peak is not None and peak < r else None
            val, _ = quad(
                lambda x: float(exit_density_on_axis(params, start, axis, x)),
                0.0, r, points=points, epsabs=0.0, epsrel=1e-11, limit=400)
            F = exit_magnitude_cdf(params, start, axis, r)
            assert F == pytest.approx(val / mass, abs=1e-8)


def test_sampler_matches_cdf_near_axis():
    # from (0.001, 5) the V-axis exit point is a Cauchy ridge at s = -z1 ~ 1
    # of width ~1e-4 in s = (r/(qR))^p; a CDF that resolves the peak only
    # at +z1 gives d = 0.038 here
    params = ExitLawParams(0.9)
    start = (0.001, 5.0)
    n = 200000
    rng = rngmod.stream(6, "t-ks-near-axis")
    _, vv = sample_exit_batch(params, np.full(n, start[0]),
                              np.full(n, start[1]), rng)
    d = ks_statistic(vv[vv > 0],
                     lambda r: exit_magnitude_cdf(params, start, V_AXIS, r))
    assert d < 0.006  # 1/sqrt(n) = 0.0022


def test_exitlaw_validate_ks_rows_catch_a_shifted_sampler(monkeypatch):
    # planted defect: the sampler draws at rho + 0.1; every sampler vs
    # density KS row must then FAIL, and pass without it
    cfg = experiments.default_config("exitlaw-validate", replicas=20000,
                                     rho_grid=[0.0])

    def ks_rows():
        rows = [r for r in experiments.run_experiment(cfg).criteria
                if r.name.startswith("sampler vs density KS")]
        assert len(rows) == 4
        return rows

    assert all(r.passed for r in ks_rows())
    exact = experiments.sample_exit_batch
    monkeypatch.setattr(
        experiments, "sample_exit_batch",
        lambda params, u, v, rng: exact(ExitLawParams(params.rho + 0.1),
                                        u, v, rng))
    assert not any(r.passed for r in ks_rows())


# ---------------------------------------------------------------------------
# jump measure: vague limit, scaling, moments


def test_nu_is_vague_limit_of_exit_from_one_eps():
    # Q^rho_{(1,eps)} / eps converges to the jump measure off the pole
    rho = 0.3
    params = ExitLawParams(rho)
    eps = 1e-4
    for axis, ys in ((V_AXIS, (0.5, 2.0, 5.0)), (U_AXIS, (0.4, 3.0))):
        for y in ys:
            scaled = exit_density_on_axis(params, (1.0, eps), axis, y) / eps
            target = nu_density_on_axis(rho, axis, y)
            assert scaled == pytest.approx(target, rel=1e-3)


def test_nu_pole_raises():
    with pytest.raises(PoleValue):
        nu_density_on_axis(0.3, U_AXIS, 1.0)
    with pytest.raises(PoleValue):
        nu_density_on_axis(0.3, U_AXIS, 2.0, a=2.0)


def test_swap_branch_first_moment_is_one():
    for rho in (-0.5, 0.0, 0.5):
        m, _ = quad(lambda y: y * nu_density_on_axis(rho, V_AXIS, y),
                    0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert m == pytest.approx(1.0, abs=1e-6)


def test_nu_scaling_in_magnitude():
    # measure at state magnitude a: density nu_a(y) = nu(y/a)/a^2 (mark
    # Jacobian 1/a times the 1/a rate scaling), so total mass scales as 1/a
    # while the absolute swap first moment stays 1
    rho = -0.3
    for a in (0.5, 3.0):
        for y in (0.7, 2.1):
            lhs = nu_density_on_axis(rho, V_AXIS, y, a=a)
            rhs = nu_density_on_axis(rho, V_AXIS, y / a) / a**2
            assert lhs == pytest.approx(rhs, rel=1e-12)
        m, _ = quad(lambda y: y * nu_density_on_axis(rho, V_AXIS, y, a=a),
                    0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert m == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# truncation


def test_truncation_eps_prime_independent_quadrature():
    # reproduce the balancing cut by integrating the raw density directly
    rho, eps = 0.0, 0.1
    meas = truncate_nu(rho, eps)

    def signed_keep_moment(lo):
        up, _ = quad(lambda y: (y - 1) * nu_density_on_axis(rho, U_AXIS, y),
                     1 + eps, np.inf, epsabs=1e-13, limit=400)
        low, _ = quad(lambda y: (y - 1) * nu_density_on_axis(rho, U_AXIS, y),
                      0.0, lo, epsabs=1e-13, limit=400)
        swap, _ = quad(lambda y: -nu_density_on_axis(rho, V_AXIS, y),
                       0.0, np.inf, epsabs=1e-13, limit=400)
        return up + low + swap

    root = brentq(signed_keep_moment, 1e-12, 1 - 1e-9, xtol=1e-14)
    assert meas.eps_prime == pytest.approx(1 - root, abs=1e-8)
    assert meas.eps_prime == pytest.approx(0.10001723, abs=1e-6)


def test_truncation_exact_moments_for_eps_ladder():
    for eps in (0.2, 0.1, 0.05, 0.02):
        meas = truncate_nu(0.0, eps)
        assert meas.m2 == 1.0
        assert meas.balance == 0.0
        assert abs(meas.balance_residual) < 1e-8
        assert meas.total_mass > 0


def test_truncation_unbalanceable_eps_raises():
    with pytest.raises(ValueError):
        truncate_nu(-0.5, 0.2)  # above the balanceable range at this rho
    with pytest.raises(ValueError):
        truncate_nu(0.0, 0.7)  # cut must stay below 1


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(-0.99, 0.99), eps=st.floats(0.005, 0.45),
       seed=st.integers(0, 2**31))
@example(rho=0.99, eps=0.01, seed=0)  # residual -4e-6 on a mass of 1.7e10
@example(rho=-0.5, eps=0.1, seed=0)   # cut too large: the root is lost
def test_truncation_properties(rho, eps, seed):
    # either the documented refusal, or a balanced measure whose sampled
    # keep marks avoid the cut window (1 - eps', 1 + eps)
    try:
        meas = truncate_nu(rho, eps)
    except ValueError as err:
        assert "balance root not bracketed" in str(err)
        return
    assert meas.m2 == 1.0 and meas.balance == 0.0
    assert abs(meas.balance_residual) <= 1e-12 * meas.total_mass
    assert 0.0 < meas.eps_prime < 1.0
    swap, mags = sample_nu_trunc(meas, rngmod.stream(seed, "t-trunc-prop"),
                                 size=2000)
    assert np.all(np.isfinite(mags)) and np.all(mags > 0)
    keep = mags[~swap]
    assert not np.any((keep > 1.0 - meas.eps_prime) & (keep < 1.0 + eps))


def test_atomic_swap_measure_constants():
    meas = atomic_swap_measure()
    assert meas.total_mass == 1.0
    assert meas.m2 == 1.0
    assert meas.balance == -1.0
    # every mark swaps, at magnitude exactly 1
    swap, mags = sample_nu_trunc(meas, rngmod.stream(0, "t-atomic"), size=500)
    assert swap.all() and np.all(mags == 1.0)


def test_trunc_sampler_branch_frequencies():
    meas = truncate_nu(0.0, 0.1)
    rng = rngmod.stream(6, "t-freq")
    swap, mags = sample_nu_trunc(meas, rng, size=100000)
    n = mags.size
    p_swap = meas.mass_swap / meas.total_mass
    se = math.sqrt(p_swap * (1 - p_swap) / n)
    assert abs(swap.mean() - p_swap) < 3 * se
    keep = ~swap
    p_up = meas.mass_up / meas.total_mass
    up = keep & (mags > 1.0)
    se_up = math.sqrt(p_up * (1 - p_up) / n)
    assert abs(up.mean() - p_up) < 3 * se_up
    # keep branch avoids the balanced window, swap branch is unrestricted
    assert np.all((mags[keep] >= 1 + meas.eps) | (mags[keep] <= 1 - meas.eps_prime))


def test_trunc_sampler_keep_branch_mean():
    # balance = 0 forces E[y-1 | keep] = mass_swap / mass_keep
    meas = truncate_nu(0.0, 0.1)
    rng = rngmod.stream(7, "t-keepmean")
    swap, mags = sample_nu_trunc(meas, rng, size=200000)
    y = mags[~swap]
    implied = meas.mass_swap / (meas.mass_low + meas.mass_up)
    mean, se = pooled_mean_se(y - 1.0)
    assert abs(mean - implied) < 3 * se


def test_trunc_sampler_swap_branch_ks():
    # swap branch CDF in s = y^p coordinates is s/(1+s); collect 1e5 marks on
    # the swapped axis
    meas = truncate_nu(0.3, 0.1)
    p = critical_exponent(0.3)
    rng = rngmod.stream(8, "t-swapks")
    swap, mags = sample_nu_trunc(meas, rng, size=2500000)
    y = mags[swap][:100000]
    assert y.size == 100000
    d = ks_statistic(y, lambda r: np.asarray(r) ** p / (1 + np.asarray(r) ** p))
    assert d < 0.01

