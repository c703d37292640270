"""Eigenvalue-angle density on U(n) and the Haar fraction of balls under it.

The density of eigenangles theta in D1 = [-pi, pi)^n of a Haar unitary is
proportional to rho(theta) = prod_{j<k} |e^{i theta_j} - e^{i theta_k}|^2,
with normalizer integral (2 pi)^n n!. This module integrates rho over two
one-parameter families of regions, both sublevel sets S <= s of a linear
eigenvalue statistic S = sum_j f(theta_j):

  euclidean   f = sin^2(theta/2), s = (r/2)^2   (chordal ball, r <= 2 sqrt(n))
  riemannian  f = theta^2,        s = r^2       (geodesic ball, r <= pi sqrt(n))

So the Haar fraction F of a ball (its mass over the total mass, which
overflows from n = 125 and is never formed) is the CDF F(s) of S. By the
Heine-Szego identity (Gessel 1990; Johansson 1997) the characteristic
function of S is the n x n Toeplitz determinant

  phi(t) = E exp(i t S) = det[c_{j-k}(t)],   c_k(t) = (1/2pi) int e^{i t f - i k th} dth,

with coefficients (Jacobi-Anger resp. a completed square u = th - k/(2t)):

  euclidean   c_k(t) = e^{it/2} (-i)^k J_k(t/2)
  riemannian  c_k(t) = c_{-k}(t) = e^{-ik^2/(4t)} (1/2pi) int e^{i t u^2} du,
                                   u from -pi - k/(2t) to pi - k/(2t)

Both are evaluated with numpy alone, each to about 1e-15 absolute:

  J_0..J_{n-1}(x), x < x0 = max(30, 2(n-1)): the trapezoid rule on
      e^{ix sin psi} = sum_k J_k(x) e^{ik psi}, one FFT per x, which is
      exponentially accurate for a periodic analytic integrand (Trefethen and
      Weideman 2014, SIAM Rev. 56);
  J_0..J_{n-1}(x), x >= x0: J_0 and J_1 from the Hankel expansion (DLMF
      10.17.3), then the forward recurrence, which is stable for k < x;
  riemannian, where t (pi - (n-1)/(2t))^2 >= 40: the full Gaussian integral
      sqrt(pi/t) e^{i pi/4} minus two tails, each from the asymptotic series
      int_v^inf e^{iu^2} du = (i e^{iv^2}/2v) sum_m (2m-1)!!/(2iv^2)^m, whose
      terms still fall where it is cut (v^2 >= 40);
  riemannian, elsewhere: Gauss-Legendre quadrature on [-pi, pi].

S lives on [0, P], P = n kappa (kappa = 1 resp. pi^2), so F is inverted by
the Fourier series on that period, with omega_k = 2 pi k / P:

  F(s) = s/P + (2/P) sum_{k>=1} Re[phi(omega_k) (1 - e^{-i omega_k s}) / (i omega_k)].

The terms phi(omega_k)/omega_k depend on (n, metric, k) only; _terms
memoizes them per block of terms. The number of terms K doubles from 1024
until the partial sums have settled (see _cdf); only small radii, where F is
tiny, pay for many terms. n = 1 uses the closed form, where the series
converges slowly, and n = 2 euclidean sums the 1/t term of phi in closed
form (see _terms).
"""

import math
from functools import lru_cache

from . import _lazy_numpy
from .errors import RangeError, ValidationError, _as_float, _describe_int, check_choice, check_int, check_real
from .matrices import _generator, _numeric

np = _lazy_numpy()

__all__ = [
    "METRICS",
    "ball_volume_fraction",
    "max_radius",
    "normalizer_estimate",
    "total_mass",
    "weyl_density",
]

METRICS = ("euclidean", "riemannian")

# budget cap per angle: max of sin^2(theta/2) resp. theta^2 over one axis
_KAPPA = {"euclidean": 1.0, "riemannian": math.pi**2}

_MAX_N = 200  # each term is an n x n determinant; a solve at n = 200 takes seconds
_MAX_MASS_N = 124  # (2 pi)^n n! fits a float64 up to here
_FIRST_TERMS = 1 << 10
_MAX_TERMS = 1 << 19
# Truncation target: the estimated CDF error, turned into a radius error
# through the small-ball law F ~ r^(n^2), stays below _RADIUS_TOL.
_RADIUS_TOL = 3e-8
# Matrices per chunk of the table build, so no temporary exceeds ~2 MB.
_CHUNK_BYTES = 1 << 21
# Toeplitz coefficients (see the module docstring). Each series is cut
# where its first omitted term, relative to the leading term 1, is below
# 1e-16 at the edge of its region; both, and the Clausen series of
# _CLAUSEN_COEFFICIENTS cut at |x| = pi, still decrease there.
_BESSEL_X0 = 30.0  # trapezoid rule below max(_BESSEL_X0, 2(n-1)), Hankel above
_HANKEL_TERMS = 15  # at x = 30
_FRESNEL_V2 = 40.0  # tail series from v^2 = _FRESNEL_V2 on, quadrature below
_FRESNEL_TERMS = 26  # at v^2 = 40
_CHUNK = 1 << 17  # uniform draws per chunk in normalizer_estimate
# Density pair factors, samples · max(1, n(n − 1)/2), one normalizer_estimate
# may evaluate: on 2 cores 10^6 samples took 0.14 s at n = 2 and 0.46 s at
# n = 4 (7e6 and 1.3e7 factors/s), so the largest call takes 1–3 minutes.
_MAX_DENSITY_FACTORS = 1 << 30


def weyl_density(theta):
    """Unnormalized eigenangle density prod_{j<k} |e^{i th_j} - e^{i th_k}|^2.

    theta is a length-n sequence of finite angles (the density is 2pi-periodic
    so any real angles are accepted). Returns 1.0 for n = 1.
    """
    t = _numeric(theta, float, "angle")
    if t.ndim != 1 or t.size < 1:
        raise ValidationError(f"expected a 1-d angle vector, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValidationError("angles must be finite")
    return float(_density_rows(t[None, :])[0])


def _density_rows(thetas):
    """Density at each row of an (N, n) angle array."""
    n = thetas.shape[1]
    w = np.ones(thetas.shape[0])
    for j in range(n):
        for k in range(j + 1, n):
            w *= 2.0 - 2.0 * np.cos(thetas[:, j] - thetas[:, k])
    return w


def _check_mass_n(n):
    """n as an int in [1, _MAX_MASS_N], where the total mass fits a float; RangeError above."""
    n = check_int(n, "n", 1)
    if n > _MAX_MASS_N:
        raise RangeError(f"total mass overflows float64 for n={_describe_int(n)}")
    return n


def total_mass(n):
    """Full-domain density integral (2 pi)^n n!.

    Raises RangeError once the value exceeds float range (n >= 125).
    """
    n = _check_mass_n(n)
    return (2.0 * math.pi) ** n * float(math.factorial(n))


def max_radius(n, metric):
    """Saturation radius: the ball covers D1 from here on."""
    n = check_int(n, "n", 1)
    check_choice(metric, METRICS, "metric")
    root = math.sqrt(_as_float(n, "n"))
    return 2.0 * root if metric == "euclidean" else math.pi * root


def _check_kernel_n(n):
    """n as an int in [1, _MAX_N], the mass kernel's range; RangeError above."""
    n = check_int(n, "n", 1)
    if n > _MAX_N:
        raise RangeError(f"n={_describe_int(n)} exceeds the mass kernel's limit n <= {_MAX_N}")
    return n


def ball_volume_fraction(n, r, metric):
    """Haar probability F(r) of the metric ball of radius r, in [0, 1].

    r = 0 gives exactly 0 and r >= max_radius(n, metric) exactly 1; n = 1 is
    the arc length over 2 pi. Otherwise it is _cdf's Fourier series, clamped
    to [0, 1]. Defined for n <= 200 (RangeError above).
    """
    n = _check_kernel_n(n)
    check_choice(metric, METRICS, "metric")
    r = check_real(r, "radius")
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    if r >= max_radius(n, metric):
        return 1.0
    if n == 1:
        return 2.0 * math.asin(0.5 * r) / math.pi if metric == "euclidean" else r / math.pi
    if r == 0.0:
        return 0.0
    return min(max(_cdf(n, r, metric)[0], 0.0), 1.0)


def normalizer_estimate(n, samples, seed):
    """(value, standard error) of a Monte Carlo estimate of the full-domain
    density integral from `samples` uniform draws on D1.

    No early-outs and no shared code with the mass kernel, so this is an
    honest stochastic cross-check of total_mass(n). seed is taken as by
    haar_sample. RangeError where total_mass refuses n (n >= 125), which
    this cross-checks; at n = 124, 1000 samples already give ~1e-87 of it.
    ValidationError, before any draw, past _MAX_DENSITY_FACTORS.
    """
    n = _check_mass_n(n)
    samples = check_int(samples, "samples", 2)
    if samples * max(1, n * (n - 1) // 2) > _MAX_DENSITY_FACTORS:
        raise ValidationError(f"normalizer_estimate with n = {n}, samples = {_describe_int(samples)} evaluates "
                              f"more than 2^{_MAX_DENSITY_FACTORS.bit_length() - 1} density pair factors, "
                              "the limit for one call")
    rng = _generator(seed)
    total = total_sq = 0.0
    for start in range(0, samples, _CHUNK):
        w = _density_rows(rng.uniform(-math.pi, math.pi, (min(_CHUNK, samples - start), n)))
        total += float(w.sum())
        total_sq += float(np.dot(w, w))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    scale = (2.0 * math.pi) ** n
    return scale * mean, scale * math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# Toeplitz characteristic function and its Fourier inversion
# ---------------------------------------------------------------------------


# |B_2k| / (2k (2k+1)!) for k = 1..22, the series of _clausen2, in shortest
# round-trip form; tests/test_weyl.py derives them from the exact Bernoulli
# numbers.
_CLAUSEN_COEFFICIENTS = (
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07,
    1.1482216343327455e-08, 1.8978869988971e-10, 3.387301370953521e-12,
    6.372636443183181e-14, 1.2462059912950672e-15, 2.5105444608999545e-17,
    5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25, 2.4386585509007344e-27,
    5.440142678856253e-29, 1.2228340131217352e-30, 2.767263468967951e-32,
    6.3000905918320136e-34, 1.4420868388418476e-35, 3.3170939991595428e-37,
    7.663913557920658e-39,
)


def _clausen2(x):
    """Clausen function Cl_2(x) = Im Li_2(e^{ix}) = -int_0^x log|2 sin(u/2)| du,
    from x - x log|x| + sum_k |B_2k| x^(2k+1) / (2k (2k+1)!) on [-pi, pi]."""
    x = math.remainder(x, 2.0 * math.pi)
    if x == 0.0:
        return 0.0
    x2, acc = x * x, 0.0
    for c in reversed(_CLAUSEN_COEFFICIENTS):
        acc = (acc + c) * x2
    return x * (1.0 - math.log(abs(x)) + acc)


def _bessel_j(x, n):
    """J_0(x), ..., J_{n-1}(x) at each x > 0, shape (len(x), n), n >= 2."""
    x0 = max(_BESSEL_X0, 2.0 * (n - 1))
    out = np.empty((x.size, n))
    small = x < x0
    if small.any():
        # Entry k of the trapezoid sum is sum_l J_{k + l size}(x). J_l(x)
        # falls off within a few x^(1/3) of l = x, so the nearest alias
        # J_{size - k}(x), k < n, is negligible for this size.
        size = 1 << math.ceil(math.log2(x0 + (n - 1) + 10.0 * x0 ** (1.0 / 3.0) + 40.0))
        psi = (2.0 * math.pi / size) * np.arange(size)
        out[small] = np.fft.fft(np.exp(1j * x[small, None] * np.sin(psi)))[:, :n].real / size
    if not small.all():
        xb = x[~small]
        rows = np.empty((xb.size, n))
        rows[:, 0], rows[:, 1] = _hankel_j01(xb)
        for k in range(1, n - 1):
            rows[:, k + 1] = (2.0 * k / xb) * rows[:, k] - rows[:, k - 1]
        out[~small] = rows
    return out


def _hankel_j01(x):
    """(J_0(x), J_1(x)) for x >= _BESSEL_X0: J_nu(x) is the real part of
    sqrt(2/(pi x)) e^{i(x - nu pi/2 - pi/4)} sum_k i^k a_k(nu) x^-k with
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (8j)."""
    inv = 1.0 / x
    wave = np.sqrt(2.0 / (math.pi * x)) * np.exp(1j * x)
    out = []
    for nu in (0, 1):
        series = np.ones_like(wave)
        for j in range(_HANKEL_TERMS - 1, 0, -1):
            series = 1.0 + (0.125j * (4 * nu * nu - (2 * j - 1) ** 2) / j) * inv * series
        out.append((wave * series * np.exp(-0.25j * math.pi * (2 * nu + 1))).real)
    return out


def _fresnel_tail(v):
    """e^{-iv^2} int_v^inf e^{iu^2} du for v^2 >= _FRESNEL_V2, from the
    asymptotic series (i/2v) sum_m (2m-1)!! / (2iv^2)^m."""
    z = -0.5j / (v * v)
    series = np.ones_like(z)
    for m in range(_FRESNEL_TERMS - 1, 0, -1):
        series = 1.0 + (2 * m - 1) * z * series
    return 0.5j * series / v


def _legendre_rule(size, n):
    """Gauss-Legendre rule of `size` (even) nodes on [-pi, pi] as (theta^2, B)
    over the nodes theta > 0, with B[j, k] = w_j cos(k theta_j) for the
    Legendre weights w_j on [-1, 1], so that the riemannian
    c_k(t) = e^{i t theta^2} @ B: the odd part of the integrand cancels
    between theta and -theta.

    The nodes are Newton's method on P_size from its three-term recurrence,
    which keeps the weights accurate to a few ulp; numpy's leggauss loses
    about 1e-14 at 200 nodes.
    """
    x = np.cos(math.pi * (np.arange(size // 2) + 0.75) / (size + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for j in range(2, size + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = size * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    weight = 2.0 / ((1.0 - x * x) * slope * slope)
    # the half rule's weights sum to 1; without this their rounding bias
    # would be the error of c_0(t) as t -> 0
    weight /= math.fsum(weight)
    theta = math.pi * x
    return theta * theta, weight[:, None] * np.cos(np.outer(theta, np.arange(n)))


def _riemannian_c(t, n):
    """c_0(t), ..., c_{n-1}(t) for f = theta^2 at each t > 0, shape (len(t), n)."""
    k = np.arange(n)
    out = np.empty((t.size, n), dtype=complex)
    # the integration limit nearest u = 0 over |k| < n, where v = sqrt(t) edge
    edge = math.pi - (n - 1) / (2.0 * t)
    tails = (edge > 0.0) & (t * edge * edge >= _FRESNEL_V2)
    if tails.any():
        tt = t[tails, None]
        root, shift = np.sqrt(tt), k / (2.0 * tt)
        gauss = np.sqrt(math.pi / tt) * np.exp(0.25j * math.pi - 1j * k * k / (4.0 * tt))
        # e^{-ik^2/(4t)} e^{iv^2} = (-1)^k e^{i t pi^2} at v = sqrt(t) (pi -+ k/(2t))
        ends = _fresnel_tail(root * (math.pi - shift)) + _fresnel_tail(root * (math.pi + shift))
        ends *= (-1.0) ** k * np.exp(1j * math.pi**2 * tt) / root
        out[tails] = (gauss - ends) / (2.0 * math.pi)
    if not tails.all():
        tq = t[~tails]
        # enough nodes for the phase t theta^2 - k theta at every |k| < n
        size = 32 * math.ceil((tq.max() * math.pi**2 + 2.0 * (n - 1) + 40.0) / 32.0)
        theta2, basis = _legendre_rule(size, n)
        out[~tails] = np.exp(1j * tq[:, None] * theta2) @ basis
    return out


def _toeplitz_phi(n, t, metric):
    """E exp(i t S) = det[c_{j-k}(t)] at each t > 0."""
    lags = np.arange(n)[:, None] - np.arange(n)[None, :]
    if metric == "euclidean":
        # c_k = e^{it/2} (-i)^k J_k(t/2); the (-i)^k factors are a diagonal
        # similarity and the e^{it/2} factors pull out as e^{int/2}.
        # J_{-k} = (-1)^k J_k.
        sign = np.where(lags < 0, (-1.0) ** lags, 1.0)
        det = np.linalg.det(_bessel_j(0.5 * t, n)[:, np.abs(lags)] * sign)
        return np.exp(0.5j * n * t) * det
    # c_{-k} = c_k since theta^2 is even
    return np.linalg.det(_riemannian_c(t, n)[:, np.abs(lags)])


@lru_cache(maxsize=176)  # 16 (n, metric) pairs x 11 blocks, hi = 2^9 .. 2^19
def _terms(n, metric, lo, hi):
    """(omega_k, Re(phi)/omega_k, Im(phi)/omega_k) for k = lo+1..hi, so a term
    of the series is re sin(omega s) + im (1 - cos(omega s)).

    Built in chunks of _CHUNK_BYTES from lo; the chunk sets the riemannian
    quadrature size, so a term's bits depend on its block (lo, hi], and _cdf
    always asks for the same blocks. For n = 2 euclidean,
    phi(t) = e^{it} 4/(pi t) + O(t^-2), since J_0^2 + J_1^2 ~ 2/(pi x). That
    1/t term (the saddle at S = 1) makes the series converge only like 1/K
    near s = 1, so it is left out here and _cdf adds its share in closed form.
    """
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    omega, re, im = [], [], []
    for start in range(lo, hi, step):
        w = 2.0 * math.pi * np.arange(start + 1, min(start + step, hi) + 1) / (n * _KAPPA[metric])
        phi = _toeplitz_phi(n, w, metric)
        if n == 2 and metric == "euclidean":
            phi = phi - 4.0 * np.exp(1j * w) / (math.pi * w)
        omega.append(w)
        re.append(phi.real / w)
        im.append(phi.imag / w)
    out = tuple(np.concatenate(a) for a in (omega, re, im))
    for a in out:
        a.flags.writeable = False  # shared by every later call
    return out


def _phi_error(n):
    """Bound c(n) = 4 n eps on |phi(omega) - det| of _toeplitz_phi: the
    coefficients' and the LU determinant's rounding together, at least twice
    every error measured against 40-digit values (tests/test_weyl.py)."""
    return 4.0 * n * np.finfo(float).eps


def _cdf(n, r, metric):
    """(F(s), error estimate, dF/dr) for the ball of radius r, 0 < r < max_radius.

    Terms are summed in blocks (K/2, K] with K doubling from _FIRST_TERMS.
    After each block the truncation estimate is the largest change of the
    partial sums within it. Summing stops once that, converted to a radius
    error by F ~ r^(n^2), is below _RADIUS_TOL, or once it is below the
    rounding error of the sum, or at _MAX_TERMS. The returned estimate is
    truncation plus the sum's rounding plus the terms' own rounding; the
    last stays out of the stopping rule, so it leaves K unchanged. The
    density dF/ds is the same series differentiated term by term,
    omega (re cos(omega s) + im sin(omega s)), summed over the same blocks.
    """
    period = n * _KAPPA[metric]
    s = (0.5 * r) ** 2 if metric == "euclidean" else r * r
    scale = 2.0 / period
    value = s / period
    density = 1.0 / period
    if n == 2 and metric == "euclidean":
        # the share of the 1/t term _terms leaves out:
        # sum_k (4/pi^3) sin(pi k (s + 1)) / k^2 = (4/pi^3) Cl_2(pi (s + 1)),
        # with the Clausen function Cl_2(x) = Im Li_2(e^{ix}), whose
        # derivative is -log|2 sin(x/2)|
        value += 4.0 / math.pi**3 * _clausen2(math.pi * (s + 1.0))
        density -= 4.0 / math.pi**2 * math.log(abs(2.0 * math.sin(0.5 * math.pi * (s + 1.0))))
    magnitude = abs(value)
    lo, hi = 0, _FIRST_TERMS // 2
    while True:
        omega, re, im = _terms(n, metric, lo, hi)
        ws = omega * s
        sin_ws = np.sin(ws)
        versine = 2.0 * np.sin(0.5 * ws) ** 2  # 1 - cos(omega s)
        terms = re * sin_ws + im * versine
        partial = np.cumsum(terms) * scale
        value += float(partial[-1])
        density += float(np.dot(omega, re * (1.0 - versine) + im * sin_ws)) * scale
        magnitude += float(np.sum(np.abs(terms))) * scale
        if lo:
            # partial sums S_j - S_lo for j in (lo, hi]; S_lo itself is 0
            trunc = max(abs(float(partial[-1])), float(np.max(np.abs(partial[-1] - partial))))
            rounding = 4.0 * np.finfo(float).eps * magnitude
            target = _RADIUS_TOL * n * n * max(value, 0.0) / r
            if trunc <= max(target, rounding) or hi >= _MAX_TERMS:
                ds_dr = 0.5 * r if metric == "euclidean" else 2.0 * r
                # each phi(omega_k) is off by at most _phi_error(n), with a
                # weight of at most 2/(pi k) in F; sum_{k<=K} 1/k <= 1 + log K
                phi_rounding = _phi_error(n) * (2.0 / math.pi) * (1.0 + math.log(hi))
                return value, float(trunc + rounding + phi_rounding), density * ds_dr
        lo, hi = hi, 2 * hi
