"""Exit law of a correlated planar Brownian pair and the induced jump measure.

A pair of standard Brownian motions with instantaneous correlation rho, started
in the open first quadrant, is stopped when the product of coordinates first
hits zero. The stopped pair lives on the boundary set

    E = {(y1, 0): y1 >= 0} union {(0, y2): y2 >= 0}.

Everything here derives from one geometric fact: the linear map
(u, v) -> (u, (v - rho*u)/sqrt(1-rho^2)) turns the correlated pair into a
standard planar Brownian motion and the quadrant into a wedge of opening
theta = pi/2 + arcsin(rho); rotating by arcsin(rho) and raising to the power
p = pi/theta (as a complex number) maps the wedge onto the upper half-plane,
where the exit law through the real axis is Cauchy. Positive Cauchy values pull
back to the {v=0} edge of the quadrant, negative values to the {u=0} edge, with
magnitude sqrt(1-rho^2)*|x|^(1/p). The same p is the critical moment exponent:
exit-point and exit-time moments of order a are finite iff a < p (resp. a < p/2).

The jump measure nu (the small-mass limit of exit laws from (1, eps), scaled by
1/eps) has densities

    keep branch (y1-axis): p^2 sqrt(1-rho^2) y1^(p-1) / (pi (y1^p - 1)^2)
    swap branch (y2-axis): p^2 sqrt(1-rho^2) y2^(p-1) / (pi (y2^p + 1)^2)

with a non-integrable second-order pole at y1 = 1. In the variable s = y^p both
branches are proportional to ds/(s -+ 1)^2, which is what the closed-form masses
and sampling tables below exploit.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

U_AXIS = "U"
V_AXIS = "V"


class AtomicExitLaw(Exception):
    """Exit law degenerates to an atom (start already absorbed, or |rho|=1)."""


class PoleValue(Exception):
    """Density evaluated exactly at its non-integrable pole."""


def critical_exponent(rho):
    """Critical moment exponent p(rho) = pi / (pi/2 + arcsin(rho)).

    Returns +inf at rho = -1. p(0) = 2, p(1) = 1, strictly decreasing.
    """
    if abs(rho) > 1:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if rho == -1:
        return math.inf
    return math.pi / (math.pi / 2 + math.asin(rho))


@dataclass(frozen=True)
class ExitLawParams:
    """Correlation rho with the derived wedge geometry."""

    rho: float
    theta: float = field(init=False)  # wedge opening angle
    p: float = field(init=False)      # critical exponent pi/theta
    phi: float = field(init=False)    # rotation aligning the wedge with [0, theta]

    def __post_init__(self):
        if abs(self.rho) > 1:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")
        phi = math.asin(self.rho)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", math.pi / 2 + phi)
        object.__setattr__(self, "p", critical_exponent(self.rho))

    @property
    def root1m2(self):
        """sqrt(1 - rho^2)."""
        return math.cos(self.phi)


def _wedge_polar(params, u, v):
    """Modulus R of the decorrelated point and argument ang of its half-plane
    image: the image under the exit map is R^p (cos ang, sin ang)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    vt = (v - params.rho * u) / params.root1m2
    return np.hypot(u, vt), params.p * (np.arctan2(vt, u) + params.phi)


def _axis_cauchy(params, start, axis):
    """Modulus R of the decorrelated start and the Cauchy(loc, z2) law of the
    exit point in s = (r/(qR))^p on the given axis: loc = z1 on the U axis,
    -z1 on the V axis (reflected so that the axis is again s > 0)."""
    u, v = start
    if not (u > 0 and v > 0 and abs(params.rho) < 1):
        raise AtomicExitLaw("the exit law is atomic unless the start is "
                            "interior and |rho| < 1")
    # the half-plane image in units of R^p, (cos ang, sin ang): the exit law
    # is scale-invariant, and R^p itself overflows or underflows as
    # rho -> -1, where p -> inf
    R, ang = _wedge_polar(params, u, v)
    z1 = math.cos(ang)
    return float(R), (z1 if axis == U_AXIS else -z1), math.sin(ang)


def exit_density_on_axis(params, start, axis, r):
    """Exit-law density on one axis of E, vectorized over the magnitude r."""
    R, loc, z2 = _axis_cauchy(params, start, axis)
    p = params.p
    scale = params.root1m2 * R
    t = np.asarray(r, dtype=float) / scale
    jac = (p / scale) * t ** (p - 1.0)
    return (z2 / (np.pi * (z2**2 + (t**p - loc)**2))) * jac


def exit_axis_prob(params, start, axis=U_AXIS):
    """Probability that the pair exits through the given axis: the mass of
    Cauchy(loc, z2) on (0, inf)."""
    _, loc, z2 = _axis_cauchy(params, start, axis)
    return math.atan2(z2, -loc) / math.pi


def exit_axis_mass_quadrature(params, start, axis):
    """Total mass of the implemented density on one axis, by adaptive
    quadrature over the magnitude. Summed over both axes this probes the
    normalization of the density-plus-Jacobian chain end to end."""
    val, _ = quad(lambda r: float(exit_density_on_axis(params, start, axis, r)),
                  0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
    return val


def exit_magnitude_cdf(params, start, axis, r_eval):
    """Conditional CDF of the exit magnitude given the axis, at r_eval.

    In s = (r/(qR))^p the exit point on the axis is Cauchy(loc, z2)
    restricted to s > 0 (see _axis_cauchy), so in closed form
    F(s) = 1 - atan2(z2, s - loc) / atan2(z2, -loc). Returns a float for a
    scalar r_eval and an array otherwise.
    """
    R, loc, z2 = _axis_cauchy(params, start, axis)
    s = (np.asarray(r_eval, dtype=float) / (params.root1m2 * R)) ** params.p
    vals = 1.0 - np.arctan2(z2, s - loc) / math.atan2(z2, -loc)
    return float(vals) if vals.ndim == 0 else vals


def sample_exit_batch(params, u, v, rng):
    """Vectorized exact exit sampling from per-entry starts (u, v).

    Entries already on E are returned unchanged. Returns (U, V) arrays on E.
    """
    u = np.array(u, dtype=float, copy=True)
    v = np.array(v, dtype=float, copy=True)
    rho = params.rho
    if rho == 1.0:
        # perfectly correlated coordinates move in lockstep: the smaller one
        # hits zero first and the gap is frozen
        return np.maximum(u - v, 0.0), np.maximum(v - u, 0.0)
    interior = (u > 0) & (v > 0)
    if rho == -1.0:
        tot = u + v
        toU = rng.random(u.shape) * tot < u
        sel = interior & toU
        u[sel], v[sel] = tot[sel], 0.0
        sel = interior & ~toU
        u[sel], v[sel] = 0.0, tot[sel]
        return u, v
    if np.any(interior):
        # the exit point is Cauchy(z1, z2) = R^p y on the real axis, pulled
        # back to magnitude q |R^p y|^(1/p) = q R |y|^(1/p); R^p itself
        # overflows or underflows as rho -> -1, where p -> inf
        R, ang = _wedge_polar(params, u[interior], v[interior])
        y = np.cos(ang) + np.sin(ang) * rng.standard_cauchy(R.shape)
        mag = params.root1m2 * R * np.abs(y) ** (1.0 / params.p)
        u[interior] = np.where(y >= 0, mag, 0.0)
        v[interior] = np.where(y >= 0, 0.0, mag)
    return u, v


# ---------------------------------------------------------------------------
# jump measure nu and its balanced truncation
# ---------------------------------------------------------------------------

def nu_density_on_axis(rho, axis, y, a=1.0):
    """Density of the jump measure from magnitude a, vectorized over y."""
    if a <= 0:
        raise ValueError("scale must be positive")
    params = ExitLawParams(rho)
    p = params.p
    c = params.root1m2 * p * p / math.pi
    y = np.asarray(y, dtype=float)
    if axis == U_AXIS:
        denom = (y**p - a**p) ** 2
        if np.any(denom == 0):
            raise PoleValue(f"keep-branch density is infinite at magnitude {a}")
        return c * a ** (p - 1.0) * y ** (p - 1.0) / denom
    return c * a ** (p - 1.0) * y ** (p - 1.0) / (y**p + a**p) ** 2


@dataclass(frozen=True)
class TruncatedJumpMeasure:
    """Finite, drift-balanced truncation of the jump measure.

    The keep branch (y1-axis, pole at 1) is restricted to
    {y1 > 1+eps} union {y1 < 1-eps_prime} with eps_prime chosen so that
    int (y1 - 1) d(nu trunc) over all of E vanishes: the compensator of the
    truncated jumps then cancels the drift exactly and solutions started on E
    stay on E. The swap branch (y2-axis) is kept whole, so its first moment m2
    is exactly 1 at every truncation level.

    Sampling is exact closed-form inverse-CDF per branch (the s = y^p
    substitution makes every branch CDF rational), including the unbounded
    upper tails, so the sampler realizes the stated moments without bias.
    """

    rho: float
    eps: float
    eps_prime: float
    mass_low: float          # keep branch below the pole
    mass_up: float           # keep branch above the pole
    mass_swap: float         # whole swap branch
    balance_residual: float  # quadrature check of the defining condition
    m2: float                # int y2 dnu: exactly 1 for truncations, 1 at rho=-1
    balance: float           # int (y1-1) dnu: 0 by construction, -1 at rho=-1
    branches: tuple          # (is_swap, mass, quantile fn on [0,1)) per branch

    @property
    def total_mass(self):
        return self.mass_low + self.mass_up + self.mass_swap


def atomic_swap_measure():
    """The rho = -1 jump measure: unit mass at the swap mark of magnitude 1.

    The keep-branch pole carries infinite mass in the rho -> -1 limit but the
    jump integrand vanishes there, so it is dropped; no truncation is needed.
    This measure is not drift-balanced (int (y1-1) dnu = -1); the flow
    compensator absorbs the -1 exactly, which is what freezes magnitudes on
    unit-sum states.
    """
    return TruncatedJumpMeasure(
        rho=-1.0, eps=0.0, eps_prime=0.0,
        mass_low=0.0, mass_up=0.0, mass_swap=1.0,
        balance_residual=-1.0, m2=1.0, balance=-1.0,
        branches=((True, 1.0, lambda f: np.ones_like(np.asarray(f, dtype=float))),),
    )


def truncate_nu(rho, eps):
    """Build the balanced truncated jump measure for eps in (0, 0.5).

    Raises if the balance equation has no root in (0, 1): the above-pole mass
    left by the cut is too small to balance the swap branch (eps too large).
    """
    if rho == -1.0:
        return atomic_swap_measure()
    if not 0 < eps < 0.5:
        raise ValueError("truncation cut must lie in (0, 0.5)")
    params = ExitLawParams(rho)
    p = params.p
    C = params.root1m2 * p / math.pi  # swap-branch mass; also the s-space scale

    # in s = y^p coordinates both branches have density C/(s -+ 1)^2
    def keep_signed_moment(s_a, s_b):
        # int (y - 1) dnu over keep-branch magnitudes [s_a^(1/p), s_b^(1/p)];
        # the integrand's singularity at s=1 is removable, so quad's roundoff
        # complaint there is noise (the residual check below bounds the error)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda s: (s ** (1.0 / p) - 1.0) * C / (s - 1.0) ** 2,
                          s_a, s_b, epsabs=1e-13, epsrel=1e-12, limit=400)
        return val

    s_up = (1.0 + eps) ** p
    # split the upper integral at a far point to keep quad honest on the tail
    far = max(10.0, s_up * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        m_tail = quad(lambda s: (s ** (1.0 / p) - 1.0) * C / (s - 1.0) ** 2,
                      far, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    m_up = keep_signed_moment(s_up, far) + m_tail

    def balance(eps_prime):
        return m_up + keep_signed_moment(0.0, (1.0 - eps_prime) ** p) - C

    hi = 1.0 - 1e-13
    if balance(hi) <= 0:
        raise ValueError(
            f"balance root not bracketed at eps={eps}: cut leaves too little "
            "above-pole mass; choose a smaller eps")
    lo = 1e-12
    while balance(lo) >= 0:
        lo = lo * 10 if lo < 1e-3 else (lo + hi) / 2
    eps_prime = brentq(balance, lo, hi, xtol=1e-15, rtol=1e-15)
    residual = balance(eps_prime)

    # closed-form segment masses via the antiderivative -C/(s-1) (s-space)
    s_lo = (1.0 - eps_prime) ** p
    mass_low = C * s_lo / (1.0 - s_lo)
    mass_up = C / (s_up - 1.0)
    mass_swap = C

    # branch quantiles from the s-space antiderivative -C/(s-1); all rational
    # in s, so inverse-CDF sampling is exact including the unbounded tails
    def q_low(frac):   # below-pole segment, CDF fraction in [0, 1)
        s = frac * mass_low / (C + frac * mass_low)
        return s ** (1.0 / p)

    def q_up(frac):    # above-pole segment
        s = 1.0 + C / (mass_up * (1.0 - frac))
        return s ** (1.0 / p)

    def q_swap(frac):  # quantile of the swap branch
        s = frac / (1.0 - frac)
        return s ** (1.0 / p)

    branches = (
        (False, mass_low, q_low),
        (False, mass_up, q_up),
        (True, mass_swap, q_swap),
    )
    # the sampler is exact, so it realizes the analytic moments: the swap
    # first moment is identically 1 and the keep balance vanishes by the
    # choice of eps_prime (up to the quadrature residual recorded above)
    return TruncatedJumpMeasure(
        rho=rho, eps=eps, eps_prime=eps_prime,
        mass_low=mass_low, mass_up=mass_up, mass_swap=mass_swap,
        balance_residual=residual, m2=1.0, balance=0.0,
        branches=branches,
    )


def sample_nu_trunc(measure, rng, size):
    """Draw size marks from the truncated measure.

    Returns (is_swap bool array, magnitude array): is_swap marks the
    axis-swapping branch. Magnitudes come from the exact closed-form branch
    quantiles, so sampled moments match the measure's stated m2 and balance
    without discretization bias.
    """
    masses = np.array([b[1] for b in measure.branches])
    probs = masses / masses.sum()
    seg = rng.choice(len(measure.branches), size=size, p=probs)
    mag = np.empty(size)
    swap = np.zeros(size, dtype=bool)
    u = rng.random(size)
    for i, (is_swap, _, quantile) in enumerate(measure.branches):
        pick = seg == i
        if np.any(pick):
            mag[pick] = quantile(u[pick])
            swap[pick] = is_swap
    return swap, mag


# ---------------------------------------------------------------------------
# brute-force oracle: correlated Brownian pair run to absorption
# ---------------------------------------------------------------------------

# adaptive step h = min(max(_STEP_SCALE * min(u, v)^2, dt), _STEP_MAX): a step
# of that size from distance a crosses the nearer axis with probability
# 2 Phi(-1/sqrt(_STEP_SCALE)) ~ 1.5e-12, so exits happen on the dt floor
_STEP_SCALE = 0.02
_STEP_MAX = 1.0


def euler_exit_oracle(rho, start, dt, n, rng, horizon):
    """Simulate n correlated Brownian pairs to absorption by exact Gaussian
    steps with a Brownian-bridge crossing test.

    Independent of the conformal sampler: it uses neither the half-plane map
    nor the Cauchy law. Each live path steps by
    h = min(max(0.02 min(u, v)^2, dt), 1, horizon - t), so dt is the finest
    step, taken near an axis, and paths far from both axes take large steps.
    The increment sqrt(h) (z1, rho z1 + sqrt(1 - rho^2) z2) is exact for any
    h. A coordinate going from a > 0 to b within a step has crossed zero when
    b <= 0, or else with the bridge probability exp(-2 a b / h), which is
    exact for each coordinate given its endpoints. An exit is recorded at the
    end of its step, with the other coordinate's endpoint (positive, since it
    did not cross) as the magnitude; when both coordinates cross, the exit
    lands at the origin. Each iteration draws a (2, live) block of normals
    then one of uniforms. Paths not absorbed by the horizon are flagged
    censored. Returns a dict with fields on_u_axis (bool), magnitude,
    exit_time, censored.
    """
    q = math.sqrt(1.0 - rho * rho)
    u0, v0 = start
    exit_time = np.full(n, np.nan)
    magnitude = np.zeros(n)
    on_u_axis = np.zeros(n, dtype=bool)
    interior = u0 > 0 and v0 > 0
    if not interior:
        exit_time[:] = 0.0
        magnitude[:] = max(u0, v0)
        on_u_axis[:] = u0 > 0
    # compacted state of the live paths; rows indexes them into the outputs
    rows = np.arange(n if interior else 0)
    u = np.full(rows.size, float(u0))
    v = np.full(rows.size, float(v0))
    t = np.zeros(rows.size)
    while rows.size:
        rem = horizon - t
        h = np.minimum(np.minimum(
            np.maximum(_STEP_SCALE * np.minimum(u, v) ** 2, dt), _STEP_MAX),
            rem)
        z = rng.standard_normal((2, rows.size))
        w = rng.random((2, rows.size))
        sh = np.sqrt(h)
        nu = u + sh * z[0]
        nv = v + sh * (rho * z[0] + q * z[1])
        # w < 1 always, so an endpoint b <= 0 (exp(0) = 1) counts as crossed
        g = -2.0 / h
        cu = w[0] < np.exp(g * u * np.maximum(nu, 0.0))
        cv = w[1] < np.exp(g * v * np.maximum(nv, 0.0))
        t = np.where(h < rem, t + h, horizon)
        hit = cu | cv
        keep = ~hit & (t < horizon)
        if np.any(hit):
            idx = rows[hit]
            exit_time[idx] = t[hit]
            magnitude[idx] = np.where(cu, np.where(cv, 0.0, nv), nu)[hit]
            on_u_axis[idx] = (cv & ~cu)[hit]
        u, v = nu, nv
        if not keep.all():
            rows, u, v, t = rows[keep], u[keep], v[keep], t[keep]
    return {
        "on_u_axis": on_u_axis,
        "magnitude": magnitude,
        "exit_time": exit_time,
        "censored": np.isnan(exit_time),
    }
