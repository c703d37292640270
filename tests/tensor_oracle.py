"""Reference oracles for the mass kernel, used only by the tests.

tensor_mass is deterministic iterated Gauss-Legendre quadrature of the
eigenangle density over the ball (n <= 3): an independent code path, exact
to machine precision at 64 nodes per axis. haar_statistics draws Haar
unitaries by batched QR and returns the ball statistic S of each draw.

Quadrature scheme: iterated integration in theta space. Each level j
consumes budget c(theta_j) = sin^2(theta_j/2) (euclidean, budget (r/2)^2) or
theta_j^2 (riemannian, budget r^2) out of the remaining budget; one axis can
use at most kappa. The level range is |theta_j| <= theta_of_c(min(kappa,
budget)), split where a child level's saturation threshold (budget -
l*kappa) is crossed, so every piece has a smooth integrand; a sin-graded
map removes the sqrt behavior of the range function at piece ends. The
innermost axis integrates prod_j (2 - 2cos(theta_j - t)) in closed form via
its Laurent expansion. Only the outermost level is halved by even symmetry.
"""

import math
from functools import lru_cache

import numpy as np

KAPPA = {"euclidean": 1.0, "riemannian": math.pi**2}


def ball_statistic_level(r, metric):
    """The s with ball = {S <= s}: (r/2)^2 euclidean, r^2 riemannian."""
    return (0.5 * r) ** 2 if metric == "euclidean" else r * r


def haar_statistics(n, metric, draws, seed):
    """S = sum_j f(theta_j) for `draws` Haar unitaries of size n.

    QR of a complex Gaussian matrix with the phases of R's diagonal divided
    out is Haar distributed (Mezzadri 2007). The euclidean S = (n - Re tr U)/2
    needs no eigenvalues.
    """
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, draws, 50_000):
        size = (min(50_000, draws - start), n, n)
        q, r = np.linalg.qr(rng.standard_normal(size) + 1j * rng.standard_normal(size))
        d = np.diagonal(r, axis1=1, axis2=2)
        u = q * (d / np.abs(d))[:, None, :]
        if metric == "euclidean":
            out.append(0.5 * (n - np.trace(u, axis1=1, axis2=2).real))
        else:
            out.append(np.sum(np.angle(np.linalg.eigvals(u)) ** 2, axis=1))
    return np.concatenate(out)


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


def inner_closed(prefix, T):
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


def tensor_mass(n, r, metric, nodes_per_axis=64):
    """Density mass of the ball of radius r (0 < r < max radius), n <= 3."""
    kappa = KAPPA[metric]
    budget0 = ball_statistic_level(r, metric)
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
    return float(np.sum(weight * inner_closed(ang, t_inner)))


def tensor_r0(n, m, metric, root_tol=1e-12):
    """Packing radius from tensor_mass by plain bisection."""
    target = (2.0 * math.pi) ** n * math.factorial(n) / m
    lo, hi = 0.0, (2.0 if metric == "euclidean" else math.pi) * math.sqrt(n)
    while hi - lo > root_tol:
        mid = 0.5 * (lo + hi)
        if tensor_mass(n, mid, metric) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
