"""Eigenvalue-angle density on U(n) and ball masses under it.

The density of eigenangles theta in D1 = [-pi, pi)^n of a Haar unitary is
proportional to rho(theta) = prod_{j<k} |e^{i theta_j} - e^{i theta_k}|^2,
with normalizer integral (2 pi)^n n!. This module integrates rho over two
one-parameter families of regions:

  euclidean   sum_j sin^2(theta_j / 2) <= (r/2)^2   (chordal ball, r <= 2 sqrt(n))
  riemannian  sum_j theta_j^2 <= r^2                (geodesic ball, r <= pi sqrt(n))

Two strategies: a deterministic iterated Gauss-Legendre scheme (n <= 3) and
Monte Carlo with common random numbers (any n). Estimates are nondecreasing
in r for fixed configuration and seed, which the bisection solver relies on.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, RangeError, UnsupportedStrategyError, ValidationError, check_int

__all__ = [
    "IntegrationConfig",
    "MassEstimate",
    "ball_mass",
    "ball_volume_fraction",
    "log_total_mass",
    "max_radius",
    "normalizer_estimate",
    "total_mass",
    "weyl_density",
]

METRICS = ("euclidean", "riemannian")

# budget cap per angle: max of sin^2(theta/2) resp. theta^2 over one axis
_KAPPA = {"euclidean": 1.0, "riemannian": np.pi**2}

_STRATEGY_ALIASES = {
    "auto": "auto",
    "tensor": "tensor",
    "tensor-quadrature": "tensor",
    "mc": "monte-carlo",
    "monte-carlo": "monte-carlo",
}

_TENSOR_MAX_N = 3
_CHUNK = 1 << 17
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class IntegrationConfig:
    """Settings for ball-mass integration.

    strategy: "auto" (tensor for n <= 3, else monte-carlo), "tensor", or
    "monte-carlo" ("tensor-quadrature" and "mc" are accepted aliases).
    samples: Monte Carlo draws, >= 1000. nodes_per_axis: Gauss-Legendre
    nodes per piece and axis, >= 8. rel_tol in (0, 0.1) is the accuracy
    target the defaults are sized for (tensor error is far below it; it does
    not drive runtime adaptation). max_refinements caps the solver's
    sample-doubling restarts.
    """

    strategy: str = "auto"
    samples: int = 1_000_000
    nodes_per_axis: int = 200
    seed: int = 0
    rel_tol: float = 1e-4
    max_refinements: int = 12

    def __post_init__(self):
        strat = _STRATEGY_ALIASES.get(self.strategy)
        if strat is None:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {sorted(_STRATEGY_ALIASES)}"
            )
        object.__setattr__(self, "strategy", strat)
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 1000:
            raise ConfigError(f"samples must be an integer >= 1000, got {self.samples!r}")
        if not isinstance(self.nodes_per_axis, (int, np.integer)) or self.nodes_per_axis < 8:
            raise ConfigError(
                f"nodes_per_axis must be an integer >= 8, got {self.nodes_per_axis!r}"
            )
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (0.0 < self.rel_tol < 0.1):
            raise ConfigError(f"rel_tol must lie in (0, 0.1), got {self.rel_tol!r}")
        if not isinstance(self.max_refinements, (int, np.integer)) or self.max_refinements < 0:
            raise ConfigError(f"max_refinements must be a nonnegative integer")


@dataclass(frozen=True)
class MassEstimate:
    """A ball-mass value with its provenance.

    std_error is the Monte Carlo standard error of the estimate and 0 for
    the deterministic tensor strategy. samples is 0 for tensor; nodes is 0
    for monte-carlo.
    """

    value: float
    std_error: float
    strategy: str
    samples: int
    nodes: int
    seed: int


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

    Raises RangeError once the value exceeds float range (n around 124);
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


def resolve_strategy(n, cfg):
    """Concrete strategy for dimension n under cfg ("tensor" or "monte-carlo")."""
    n = check_int(n, "n", 1)
    if cfg.strategy == "auto":
        return "tensor" if n <= _TENSOR_MAX_N else "monte-carlo"
    if cfg.strategy == "tensor" and n > _TENSOR_MAX_N:
        raise UnsupportedStrategyError(
            f"tensor quadrature supports n <= {_TENSOR_MAX_N}, got n={n}; use monte-carlo"
        )
    return cfg.strategy


def ball_mass(n, r, metric, cfg=None):
    """Density mass of the metric ball of radius r, as a MassEstimate.

    r = 0 gives exactly 0 and r >= max_radius(n, metric) exactly the total
    mass. For fixed (n, metric, cfg) the value is nondecreasing in r: the
    tensor strategy is deterministic, and the Monte Carlo strategy reuses
    one canonical point set across radii (common random numbers), switching
    at r = 2 (euclidean) resp. r = pi (riemannian) from a rescaled-ball
    estimator to an anchored ball-at-switch + cube-sampled annulus sum.
    """
    n = check_int(n, "n", 1)
    _check_metric(metric)
    if cfg is None:
        cfg = IntegrationConfig()
    if not isinstance(r, (int, float, np.floating, np.integer)) or not math.isfinite(r):
        raise ValidationError(f"radius must be a finite number, got {r!r}")
    r = float(r)
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    strategy = resolve_strategy(n, cfg)
    samples = cfg.samples if strategy == "monte-carlo" else 0
    nodes = cfg.nodes_per_axis if strategy == "tensor" else 0
    total = total_mass(n)
    if r == 0.0:
        return MassEstimate(0.0, 0.0, strategy, samples, nodes, cfg.seed)
    if r >= max_radius(n, metric):
        return MassEstimate(total, 0.0, strategy, samples, nodes, cfg.seed)
    if strategy == "tensor":
        value = _tensor_mass(n, r, metric, cfg.nodes_per_axis)
        err = 0.0
    else:
        value, err = _mc_mass(n, r, metric, cfg.samples, cfg.seed)
    value = min(max(value, 0.0), total)
    return MassEstimate(value, err, strategy, samples, nodes, cfg.seed)


def ball_volume_fraction(n, r, metric, cfg=None):
    """ball_mass value divided by the total mass, clipped to [0, 1]."""
    est = ball_mass(n, r, metric, cfg)
    return min(max(est.value / total_mass(n), 0.0), 1.0)


def normalizer_estimate(n, cfg=None):
    """Monte Carlo estimate of the full-domain density integral.

    Uniform sampling of D1; no early-outs, so this is an honest stochastic
    cross-check of total_mass(n).
    """
    n = check_int(n, "n", 1)
    if cfg is None:
        cfg = IntegrationConfig()
    pts = _cube_points(n, cfg.samples, cfg.seed & _SEED_MASK)
    w = _density_rows(pts)
    scale = (2.0 * math.pi) ** n
    value = scale * float(np.mean(w))
    err = scale * float(np.std(w) / math.sqrt(len(w)))
    return MassEstimate(value, err, "monte-carlo", cfg.samples, 0, cfg.seed)


# ---------------------------------------------------------------------------
# tensor quadrature
#
# Iterated integration in theta space. Each level j consumes budget
# c(theta_j) = sin^2(theta_j/2) (euclidean, budget (r/2)^2) or theta_j^2
# (riemannian, budget r^2) out of the remaining budget; one axis can use at
# most kappa. The level range is |theta_j| <= theta_of_c(min(kappa, budget)),
# split where a child level's saturation threshold (budget - l*kappa) is
# crossed, so every piece has a smooth integrand; a sin-graded map removes
# the sqrt behavior of the range function at piece ends. The innermost axis
# integrates prod_j (2 - 2cos(theta_j - t)) in closed form via its Laurent
# expansion. Only the outermost level is halved by even symmetry.
# ---------------------------------------------------------------------------


def _theta_of_c(u, metric, kappa):
    u = np.clip(u, 0.0, kappa)
    if metric == "euclidean":
        return 2.0 * np.arcsin(np.sqrt(u))
    return np.sqrt(u)


def _consume(theta, metric):
    if metric == "euclidean":
        s = np.sin(0.5 * theta)
        return s * s
    return theta * theta


@lru_cache(maxsize=32)
def _gl_nodes(npts):
    x, w = np.polynomial.legendre.leggauss(int(npts))
    return x, w


def _inner_closed(prefix, T):
    """Closed-form innermost integral over |t| <= T, rows vectorized.

    Expands prod_j (2 - e^{i th_j} z^{-1} - e^{-i th_j} z) with z = e^{it}
    into Laurent coefficients a_k and integrates term by term:
    int e^{ikt} dt = 2 sin(kT)/k (2T at k = 0), using a_{-k} = conj(a_k).
    """
    m, q = prefix.shape
    c = q
    a = np.zeros((m, 2 * q + 1), dtype=complex)
    a[:, c] = 1.0
    for j in range(q):
        p = np.exp(1j * prefix[:, j])
        new = 2.0 * a
        new[:, :-1] -= p[:, None] * a[:, 1:]
        new[:, 1:] -= np.conj(p)[:, None] * a[:, :-1]
        a = new
    val = a[:, c].real * (2.0 * T)
    for k in range(1, q + 1):
        val += 4.0 * a[:, c + k].real * np.sin(k * T) / k
    return val


def _tensor_mass(n, r, metric, nodes_per_axis):
    kappa = _KAPPA[metric]
    budget0 = (0.5 * r) ** 2 if metric == "euclidean" else r * r
    if n == 1:
        return 2.0 * float(_theta_of_c(np.minimum(budget0, kappa), metric, kappa))
    xi, gw = _gl_nodes(nodes_per_axis)
    half_sin = np.sin(0.5 * np.pi * xi)
    half_cos_w = 0.5 * np.pi * np.cos(0.5 * np.pi * xi) * gw
    ang = np.zeros((1, 0))
    budget = np.array([budget0])
    weight = np.array([1.0])
    for j in range(1, n):
        rem = n - j
        cmax = np.minimum(kappa, budget)
        upper = _theta_of_c(cmax, metric, kappa)
        splits = [
            _theta_of_c(np.clip(budget - l * kappa, 0.0, cmax), metric, kappa)
            for l in range(rem, 0, -1)
        ]  # ascending in theta
        if j == 1:
            edges = [np.zeros_like(upper)] + splits + [upper]
            sym = 2.0
        else:
            edges = [-upper] + [-s for s in splits[::-1]] + splits + [upper]
            sym = 1.0
        lo = np.stack(edges[:-1], axis=1)
        hi = np.stack(edges[1:], axis=1)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        theta = (mid[:, :, None] + half[:, :, None] * half_sin).reshape(len(budget), -1)
        w = (half[:, :, None] * half_cos_w).reshape(len(budget), -1) * sym
        dens = np.ones_like(w)
        for col in range(ang.shape[1]):
            dens *= 2.0 - 2.0 * np.cos(ang[:, col][:, None] - theta)
        weight = (weight[:, None] * w * dens).reshape(-1)
        budget = np.clip((budget[:, None] - _consume(theta, metric)).reshape(-1), 0.0, None)
        ang = np.concatenate(
            [np.repeat(ang, theta.shape[1], axis=0), theta.reshape(-1, 1)], axis=1
        )
    t_inner = _theta_of_c(np.minimum(kappa, budget), metric, kappa)
    return float(np.sum(weight * _inner_closed(ang, t_inner)))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _gen_chunked(n, samples, seed_entropy, fill):
    out = np.empty((samples, n))
    seq = np.random.SeedSequence(seed_entropy)
    children = seq.spawn(math.ceil(samples / _CHUNK))
    written = 0
    for child in children:
        rng = np.random.default_rng(child)
        take = min(_CHUNK, samples - written)
        out[written : written + take] = fill(rng, take)
        written += take
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _ball_points(n, samples, seed):
    """Canonical uniform points in the unit n-ball (chunked, order-stable)."""

    def fill(rng, take):
        g = rng.standard_normal((take, n))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        radii = rng.random((take, 1)) ** (1.0 / n)
        return g / norm * radii

    return _gen_chunked(n, samples, [seed, n, 0xBA11], fill)


@lru_cache(maxsize=4)
def _cube_points(n, samples, seed):
    """Canonical uniform points in [-pi, pi)^n (chunked, order-stable)."""

    def fill(rng, take):
        return rng.random((take, n)) * (2.0 * np.pi) - np.pi

    return _gen_chunked(n, samples, [seed, n, 0xC0BE], fill)


def _mean_se(w, scale):
    value = scale * float(np.mean(w))
    err = scale * float(np.std(w) / math.sqrt(len(w)))
    return value, err


def _unit_ball_volume(n, rho):
    return math.pi ** (n / 2.0) * rho**n / math.gamma(n / 2.0 + 1.0)


def _mc_ball(n, r, metric, samples, seed):
    """Ball-branch estimator, valid for r <= 2 (euclidean) or r <= pi (riem)."""
    u = _ball_points(n, samples, seed)
    if metric == "euclidean":
        x = np.clip(u * (0.5 * r), -1.0 + 1e-12, 1.0 - 1e-12)
        theta = 2.0 * np.arcsin(x)
        w = _density_rows(theta) * np.prod(2.0 / np.sqrt(1.0 - x * x), axis=1)
        return _mean_se(w, _unit_ball_volume(n, 0.5 * r))
    theta = u * r
    w = _density_rows(theta)
    return _mean_se(w, _unit_ball_volume(n, r))


@lru_cache(maxsize=8)
def _mc_ball_at_switch(n, metric, samples, seed):
    switch = 2.0 if metric == "euclidean" else math.pi
    return _mc_ball(n, switch, metric, samples, seed)


def _mc_mass(n, r, metric, samples, seed):
    seed = seed & _SEED_MASK
    switch = 2.0 if metric == "euclidean" else math.pi
    if r <= switch:
        return _mc_ball(n, r, metric, samples, seed)
    # telescoped: anchored mass at the switch radius plus the cube-sampled
    # annulus, which keeps r -> value nondecreasing across the branch change
    base, base_err = _mc_ball_at_switch(n, metric, samples, seed)
    theta = _cube_points(n, samples, seed)
    if metric == "euclidean":
        cvals = np.sum(np.sin(0.5 * theta) ** 2, axis=1)
        inner_c, outer_c = 1.0, (0.5 * r) ** 2
    else:
        cvals = np.sum(theta * theta, axis=1)
        inner_c, outer_c = math.pi**2, r * r
    w = _density_rows(theta) * ((cvals > inner_c) & (cvals <= outer_c))
    ann, ann_err = _mean_se(w, (2.0 * math.pi) ** n)
    return base + ann, math.sqrt(base_err**2 + ann_err**2)
