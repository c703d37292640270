"""Eigenvalue-angle density on U(n) and ball masses under it.

The density of eigenangles theta in D1 = [-pi, pi)^n of a Haar unitary is
proportional to rho(theta) = prod_{j<k} |e^{i theta_j} - e^{i theta_k}|^2,
with normalizer integral (2 pi)^n n!. This module integrates rho over two
one-parameter families of regions, both sublevel sets S <= s of a linear
eigenvalue statistic S = sum_j f(theta_j):

  euclidean   f = sin^2(theta/2), s = (r/2)^2   (chordal ball, r <= 2 sqrt(n))
  riemannian  f = theta^2,        s = r^2       (geodesic ball, r <= pi sqrt(n))

So ball_mass / total_mass is the CDF F(s) of S under Haar measure. By the
Heine-Szego identity (Gessel 1990; Johansson 1997) the characteristic
function of S is the n x n Toeplitz determinant

  phi(t) = E exp(i t S) = det[c_{j-k}(t)],   c_k(t) = (1/2pi) int e^{i t f - i k th} dth,

with closed-form coefficients (Jacobi-Anger resp. a completed square):

  euclidean   c_k(t) = e^{it/2} (-i)^k J_k(t/2)
  riemannian  c_k(t) = e^{-ik^2/(4t)} e^{i pi/4} sqrt(pi)/(2 sqrt t) / (2 pi)
                       * [erf(w (pi - k/(2t))) - erf(w (-pi - k/(2t)))],  w = e^{-i pi/4} sqrt t

S lives on [0, P], P = n kappa (kappa = 1 resp. pi^2), so F is inverted by
the Fourier series on that period, with omega_k = 2 pi k / P:

  F(s) = s/P + (2/P) sum_{k>=1} Re[phi(omega_k) (1 - e^{-i omega_k s}) / (i omega_k)].

The phi(omega_k) table depends on (n, metric) only; it is cached and grown
on demand. The number of terms K doubles from 1024 until the partial sums
have settled (see _cdf); only small radii, where F is tiny, pay for many
terms. n = 1 uses the closed form, where the series converges slowly, and
n = 2 euclidean sums the 1/t term of phi in closed form (see _Table).
"""

import math
from functools import lru_cache

import numpy as np

from .errors import RangeError, ValidationError, check_int

__all__ = [
    "ball_mass",
    "ball_mass_error",
    "ball_volume_fraction",
    "log_total_mass",
    "max_radius",
    "normalizer_estimate",
    "total_mass",
    "weyl_density",
]

METRICS = ("euclidean", "riemannian")

# budget cap per angle: max of sin^2(theta/2) resp. theta^2 over one axis
_KAPPA = {"euclidean": 1.0, "riemannian": math.pi**2}

_FIRST_TERMS = 1 << 10
_MAX_TERMS = 1 << 19
# Truncation target: the estimated CDF error, turned into a radius error
# through the small-ball law F ~ r^(n^2), stays below _RADIUS_TOL.
_RADIUS_TOL = 3e-8
# Matrices per chunk of the table build, so no temporary exceeds ~2 MB.
_CHUNK_BYTES = 1 << 21
_CHUNK = 1 << 17  # uniform draws per chunk in normalizer_estimate


def _check_metric(metric):
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return metric


def weyl_density(theta):
    """Unnormalized eigenangle density prod_{j<k} |e^{i th_j} - e^{i th_k}|^2.

    theta is a length-n sequence of finite angles (the density is 2pi-periodic
    so any real angles are accepted). Returns 1.0 for n = 1.
    """
    t = np.asarray(theta, dtype=float)
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


def log_total_mass(n):
    """log of the full-domain density integral, n log(2pi) + log(n!)."""
    n = check_int(n, "n", 1)
    return n * math.log(2.0 * math.pi) + math.lgamma(n + 1)


def total_mass(n):
    """Full-domain density integral (2 pi)^n n!.

    Raises RangeError once the value exceeds float range (n >= 125);
    use log_total_mass there.
    """
    n = check_int(n, "n", 1)
    if log_total_mass(n) > 709.0:
        raise RangeError(f"total mass overflows float64 for n={n}; use log_total_mass")
    return (2.0 * math.pi) ** n * float(math.factorial(n))


def max_radius(n, metric):
    """Saturation radius: the ball covers D1 from here on."""
    n = check_int(n, "n", 1)
    _check_metric(metric)
    return 2.0 * math.sqrt(n) if metric == "euclidean" else math.pi * math.sqrt(n)


def _mass_and_error(n, r, metric):
    """(ball mass, bound on its truncation error), both in density units."""
    n = check_int(n, "n", 1)
    _check_metric(metric)
    if not isinstance(r, (int, float, np.floating, np.integer)) or not math.isfinite(r):
        raise ValidationError(f"radius must be a finite number, got {r!r}")
    r = float(r)
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    total = total_mass(n)
    if r == 0.0:
        return 0.0, 0.0
    if r >= max_radius(n, metric):
        return total, 0.0
    if n == 1:
        arc = 4.0 * math.asin(0.5 * r) if metric == "euclidean" else 2.0 * r
        return arc, 0.0
    frac, err = _cdf(n, r, metric)
    return total * min(max(frac, 0.0), 1.0), total * err


def ball_mass(n, r, metric):
    """Density mass of the metric ball of radius r.

    r = 0 gives exactly 0 and r >= max_radius(n, metric) exactly the total
    mass; n = 1 is the arc length. Otherwise the value is total_mass(n)
    times the Fourier-series CDF of the module docstring, within
    ball_mass_error(n, r, metric) of the exact mass.
    """
    return _mass_and_error(n, r, metric)[0]


def ball_mass_error(n, r, metric):
    """Error estimate of ball_mass(n, r, metric), in mass units.

    The truncation part is the largest change of the partial sums over the
    last half of the terms used, which exceeds the remaining tail once the
    terms decay like a power of k; the rounding part is 4 eps times the sum
    of the terms' magnitudes. It is 0 where ball_mass is exact (r = 0,
    saturation, n = 1).
    """
    return _mass_and_error(n, r, metric)[1]


def ball_volume_fraction(n, r, metric):
    """ball_mass divided by the total mass, clipped to [0, 1]."""
    return min(max(ball_mass(n, r, metric) / total_mass(n), 0.0), 1.0)


def normalizer_estimate(n, samples, seed):
    """(value, standard error) of a Monte Carlo estimate of the full-domain
    density integral from `samples` uniform draws on D1.

    No early-outs and no shared code with the mass kernel, so this is an
    honest stochastic cross-check of total_mass(n).
    """
    n = check_int(n, "n", 1)
    samples = check_int(samples, "samples", 2)
    seed = check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
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


class _Table:
    """phi(omega_k) / omega_k for k = 1..len of one (n, metric), grown on demand.

    Stored as the real arrays re = Re(phi)/omega and im = Im(phi)/omega, so a
    term of the series is re sin(omega s) + im (1 - cos(omega s)).
    """

    def __init__(self, n, metric):
        self.n = n
        self.metric = metric
        self.period = n * _KAPPA[metric]
        # n = 2 euclidean: phi(t) = e^{it} 4/(pi t) + O(t^-2), since
        # J_0^2 + J_1^2 ~ 2/(pi x). That 1/t term (the saddle at S = 1) makes
        # the series converge only like 1/K near s = 1, so it is left out of
        # the table and its share of F is added in closed form by leading().
        self.subtract_leading = n == 2 and metric == "euclidean"
        self.omega = np.empty(0)
        self.re = np.empty(0)
        self.im = np.empty(0)

    def grow(self, size):
        start = len(self.omega)
        if size <= start:
            return
        step = max(1, _CHUNK_BYTES // (16 * self.n * self.n))
        omega, re, im = [self.omega], [self.re], [self.im]
        for lo in range(start, size, step):
            w = 2.0 * math.pi * np.arange(lo + 1, min(lo + step, size) + 1) / self.period
            phi = _toeplitz_phi(self.n, w, self.metric)
            if self.subtract_leading:
                phi = phi - 4.0 * np.exp(1j * w) / (math.pi * w)
            omega.append(w)
            re.append(phi.real / w)
            im.append(phi.imag / w)
        self.omega = np.concatenate(omega)
        self.re = np.concatenate(re)
        self.im = np.concatenate(im)

    def leading(self, s):
        """Share of F(s) of the terms left out of the table: for n = 2
        euclidean, sum_k (4/pi^3) sin(pi k (s + 1)) / k^2 = (4/pi^3) Cl_2(pi (s + 1)),
        with the Clausen function Cl_2(x) = Im Li_2(e^{ix}); else 0."""
        if not self.subtract_leading:
            return 0.0
        from scipy.special import spence  # Li_2(z) = spence(1 - z)

        return 4.0 / math.pi**3 * float(np.imag(spence(1.0 - np.exp(1j * math.pi * (s + 1.0)))))


def _toeplitz_phi(n, t, metric):
    """E exp(i t S) = det[c_{j-k}(t)] at each t > 0."""
    # scipy.special is imported here, not at module load: it slows
    # `import upb` measurably, and only solves need it.
    from scipy.special import erf, jv

    lags = np.arange(n)[:, None] - np.arange(n)[None, :]
    orders = np.arange(-(n - 1), n)
    tt = t[:, None]
    if metric == "euclidean":
        # c_k = e^{it/2} (-i)^k J_k(t/2); the (-i)^k factors are a diagonal
        # similarity and the e^{it/2} factors pull out as e^{int/2}.
        coef = jv(orders[None, :], 0.5 * tt)
        det = np.linalg.det(coef[:, lags + n - 1])
        return np.exp(0.5j * n * t) * det
    shift = orders[None, :] / (2.0 * tt)
    w = np.exp(-0.25j * math.pi) * np.sqrt(tt)
    coef = (
        np.exp(-1j * orders[None, :] ** 2 / (4.0 * tt) + 0.25j * math.pi)
        * (erf(w * (math.pi - shift)) - erf(w * (-math.pi - shift)))
        / (4.0 * np.sqrt(math.pi * tt))
    )
    return np.linalg.det(coef[:, lags + n - 1])


@lru_cache(maxsize=16)
def _table(n, metric):
    return _Table(n, metric)


def _cdf(n, r, metric):
    """(F(s), error estimate) for the ball of radius r, 0 < r < max_radius.

    Terms are summed in blocks (K/2, K] with K doubling from _FIRST_TERMS.
    After each block the truncation estimate is the largest change of the
    partial sums within it. Summing stops once that, converted to a radius
    error by F ~ r^(n^2), is below _RADIUS_TOL, or once it is below the
    rounding error of the sum, or at _MAX_TERMS. The returned estimate is
    truncation plus rounding.
    """
    table = _table(n, metric)
    s = (0.5 * r) ** 2 if metric == "euclidean" else r * r
    scale = 2.0 / table.period
    value = s / table.period + table.leading(s)
    magnitude = abs(value)
    lo, hi = 0, _FIRST_TERMS // 2
    while True:
        table.grow(hi)
        ws = table.omega[lo:hi] * s
        terms = table.re[lo:hi] * np.sin(ws) + table.im[lo:hi] * (2.0 * np.sin(0.5 * ws) ** 2)
        partial = np.cumsum(terms) * scale
        value += float(partial[-1])
        magnitude += float(np.sum(np.abs(terms))) * scale
        if lo:
            # partial sums S_j - S_lo for j in (lo, hi]; S_lo itself is 0
            trunc = max(abs(float(partial[-1])), float(np.max(np.abs(partial[-1] - partial))))
            rounding = 4.0 * np.finfo(float).eps * magnitude
            target = _RADIUS_TOL * n * n * max(value, 0.0) / r
            if trunc <= max(target, rounding) or hi >= _MAX_TERMS:
                return value, trunc + rounding
        lo, hi = hi, 2 * hi
