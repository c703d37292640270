import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import erf, j0, j1, jv, spence

from tensor_oracle import ball_statistic_level, haar_statistics, tensor_mass
from upb import weyl
from upb import (
    RangeError,
    ValidationError,
    ball_volume_fraction,
    max_radius,
    normalizer_estimate,
    solve_r0,
    total_mass,
    weyl_density,
)


# --- independent oracles ----------------------------------------------------


def density_vandermonde(theta):
    """|det V|^2 with V the Vandermonde matrix of the eigenvalues: the
    definition of the density, computed through an unrelated code path."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    v = np.vander(z, increasing=True)
    return abs(np.linalg.det(v)) ** 2


def mass_riemann_2d(r, metric, cells=600):
    """Midpoint Riemann sum of the n=2 ball mass on the full angle box."""
    edges = np.linspace(-np.pi, np.pi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    t1, t2 = np.meshgrid(mid, mid, indexing="ij")
    dens = np.abs(np.exp(1j * t1) - np.exp(1j * t2)) ** 2
    if metric == "euclidean":
        inside = np.sin(t1 / 2) ** 2 + np.sin(t2 / 2) ** 2 <= (r / 2.0) ** 2
    else:
        inside = t1**2 + t2**2 <= r * r
    return float((dens * inside).sum()) * h * h


def mass_bessel_riemannian_2(r):
    """Closed form for the n=2 riemannian ball, valid for r <= pi:
    integrate 2 - 2cos(t1 - t2) over the disk of radius r."""
    return 2.0 * math.pi * r * r - 2.0 * math.sqrt(2.0) * math.pi * r * j1(math.sqrt(2.0) * r)


def density_bessel_riemannian_2(r):
    """d/dr of mass_bessel_riemannian_2: the circle of radius r carries
    2 pi r times the mean of 2 - 2cos(t1 - t2) over it, 2 - 2 J_0(sqrt(2) r)."""
    return 4.0 * math.pi * r * (1.0 - j0(math.sqrt(2.0) * r))


def mass_circle_1(r, metric):
    """n=1 closed forms: the density is 1, so mass is arc length."""
    if metric == "euclidean":
        return 4.0 * math.asin(min(1.0, r / 2.0))
    return 2.0 * min(r, math.pi)


# --- density ------------------------------------------------------------------


def test_density_examples():
    assert weyl_density([0.3]) == pytest.approx(1.0)
    assert weyl_density([0.0, math.pi]) == pytest.approx(4.0)
    # equilateral triple: |1 - w|^2 |1 - w^2|^2 |w - w^2|^2 = 27
    assert weyl_density([0.0, 2 * math.pi / 3, -2 * math.pi / 3]) == pytest.approx(27.0)
    assert weyl_density([0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_density_matches_vandermonde_oracle():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=n)
            assert weyl_density(theta) == pytest.approx(
                density_vandermonde(theta), rel=1e-9
            )


def test_density_symmetries():
    rng = np.random.default_rng(22)
    theta = rng.uniform(-np.pi, np.pi, size=4)
    base = weyl_density(theta)
    assert weyl_density(theta[::-1]) == pytest.approx(base, rel=1e-12)
    assert weyl_density(theta + 0.7) == pytest.approx(base, rel=1e-9)
    assert base >= 0.0


# --- normalizer ----------------------------------------------------------------


def test_total_mass_closed_forms():
    assert total_mass(1) == pytest.approx(2 * math.pi)
    assert total_mass(2) == pytest.approx(8 * math.pi**2)
    assert total_mass(3) == pytest.approx(48 * math.pi**3)
    assert total_mass(4) == pytest.approx(384 * math.pi**4)


def test_total_mass_overflow_raises_range_error():
    assert math.isfinite(total_mass(124))
    for n in (125, 200):
        with pytest.raises(RangeError, match=f"^total mass overflows float64 for n={n}$"):
            total_mass(n)


def test_fraction_and_solve_past_total_mass_overflow():
    # F needs no (2 pi)^n n!: total_mass overflows from n = 125, the
    # fraction and the solve on F(r0) = 1/m do not; the kernel stops at n = 200
    with pytest.raises(RangeError):
        total_mass(125)
    assert 0.0 <= ball_volume_fraction(125, 1.0, "euclidean") <= 1.0
    # 2e4 Haar draws put the 1/16 quantile of the statistic at radius
    # 15.74356 with a standard error of 0.00068
    r0, _ = solve_r0(125, 16, "euclidean")
    assert abs(r0 - 15.74356) < 4 * 0.00068
    for n in (201, 10**6):
        with pytest.raises(RangeError, match="n <= 200"):
            ball_volume_fraction(n, 1.0, "euclidean")


def test_normalizer_estimate_agrees_with_total():
    value, std_error = normalizer_estimate(2, 200_000, 4)
    assert std_error > 0.0
    assert abs(value - total_mass(2)) / total_mass(2) < 0.01


# --- ball fraction: exact anchors ------------------------------------------------
# The oracles give density masses; divided by total_mass(n) they are fractions.


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_ball_mass_n1_closed_form(metric):
    total = total_mass(1)
    for r in (0.25, 0.5, 1.0, 1.5):
        frac = ball_volume_fraction(1, r, metric)
        assert frac == pytest.approx(mass_circle_1(r, metric) / total, abs=1e-12 / total)


def test_ball_mass_n1_examples():
    # euclidean r=1: 4 asin(1/2) = 2 pi / 3 ; riemannian r=pi/2: pi
    assert ball_volume_fraction(1, 1.0, "euclidean") == pytest.approx(1 / 3)
    assert ball_volume_fraction(1, math.pi / 2, "riemannian") == pytest.approx(1 / 2)


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_ball_mass_saturates_exactly(metric):
    for n in (1, 2, 3):
        rmax = max_radius(n, metric)
        assert ball_volume_fraction(n, rmax, metric) == 1.0
        assert ball_volume_fraction(n, rmax + 5.0, metric) == 1.0
        assert ball_volume_fraction(n, 0.0, metric) == 0.0


def test_ball_mass_riemannian_2_matches_bessel():
    for r in (0.3, 0.8, 1.5, 2.4, 3.0):
        frac, err, _ = weyl._cdf(2, r, "riemannian")
        exact = mass_bessel_riemannian_2(r) / total_mass(2)
        assert abs(frac - exact) <= err
        assert frac == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_ball_mass_2_matches_riemann_sum(metric):
    for r in (0.8, 1.6, 2.4):
        frac = ball_volume_fraction(2, r, metric)
        assert frac == pytest.approx(mass_riemann_2d(r, metric) / total_mass(2), rel=2e-3)


def test_density_riemannian_2_matches_bessel():
    # below r = pi; at pi the ball touches the angle box, where the density
    # has a square-root kink and the differentiated series converges slowly
    for r in np.linspace(0.05, 3.1, 40):
        slope = weyl._cdf(2, float(r), "riemannian")[2]
        assert slope == pytest.approx(density_bessel_riemannian_2(float(r)) / total_mass(2), rel=1e-4), r


@pytest.mark.parametrize("n, metric", [(2, "euclidean"), (3, "euclidean"), (3, "riemannian")])
def test_density_matches_central_difference(n, metric):
    # n = 2 euclidean carries the Clausen share's derivative; its density
    # has a log singularity at r = 2 (s = 1), which the grid steps around
    h = 1e-4
    for r in np.linspace(0.6, max_radius(n, metric) - 0.1, 17):
        r = float(r)
        if n == 2 and metric == "euclidean" and abs(r - 2.0) < 0.1:
            continue
        slope = weyl._cdf(n, r, metric)[2]
        lo, hi = (ball_volume_fraction(n, x, metric) for x in (r - h, r + h))
        assert slope == pytest.approx((hi - lo) / (2.0 * h), rel=1e-5, abs=1e-9), r


def test_ball_volume_fraction_range():
    f_small = ball_volume_fraction(2, 0.5, "euclidean")
    f_full = ball_volume_fraction(2, max_radius(2, "euclidean"), "euclidean")
    assert 0.0 < f_small < 1.0
    assert f_full == pytest.approx(1.0)


# --- the kernel against the tensor-quadrature and Haar-sampling oracles ----------


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_kernel_matches_tensor_oracle_on_radius_grid(metric):
    for n in (2, 3):
        for r in np.linspace(0.05, max_radius(n, metric) - 0.05, 25):
            r = float(r)
            frac, err, _ = weyl._cdf(n, r, metric)
            assert abs(frac - tensor_mass(n, r, metric) / total_mass(n)) <= err, (n, r)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_kernel_matches_haar_sampling(n, metric):
    # radii where the fraction runs from about 0.03 to 0.48
    radii = {
        (4, "euclidean"): (2.3, 2.6, 2.8),
        (4, "riemannian"): (2.8, 3.2, 3.6),
        (5, "euclidean"): (2.7, 2.95, 3.15),
        (5, "riemannian"): (3.3, 3.7, 4.0),
    }[n, metric]
    draws = 200_000
    stats = haar_statistics(n, metric, draws, seed=20_240_719 + n)
    for r in radii:
        frac = ball_volume_fraction(n, r, metric)
        empirical = float(np.mean(stats <= ball_statistic_level(r, metric)))
        assert abs(frac - empirical) <= 4.0 * math.sqrt(frac * (1.0 - frac) / draws), r


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_mc_agrees_with_tensor(metric):
    # the Haar-sampling oracle used at n = 4, 5 agrees with tensor quadrature
    draws = 200_000
    for n in (2, 3):
        stats = haar_statistics(n, metric, draws, seed=17 + n)
        for frac in (0.3, 0.6, 0.85):
            r = frac * max_radius(n, metric)
            exact = tensor_mass(n, r, metric) / total_mass(n)
            empirical = float(np.mean(stats <= ball_statistic_level(r, metric)))
            assert abs(empirical - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / draws)


# --- Toeplitz coefficients against scipy.special ----------------------------------


def riemannian_coef_erf(t, n):
    """c_0..c_{n-1} of f = theta^2 at each t, from complex erf (a completed square)."""
    k = np.arange(n)[None, :]
    tt = t[:, None]
    shift = k / (2.0 * tt)
    w = np.exp(-0.25j * math.pi) * np.sqrt(tt)
    return (
        np.exp(0.25j * math.pi - 1j * k**2 / (4.0 * tt))
        * (erf(w * (math.pi - shift)) - erf(w * (-math.pi - shift)))
        / (4.0 * np.sqrt(math.pi * tt))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16, 64, 124])
def test_coefficients_match_scipy_oracle(n):
    # Each grid straddles the switch between methods: the FFT trapezoid rule
    # and the Hankel expansion at x0, quadrature and the Fresnel tails at
    # t_star, where t (pi - (n-1)/(2t))^2 = 40.
    x0 = max(30.0, 2.0 * (n - 1))
    x = np.concatenate([
        np.linspace(0.01, 3.0 * x0, 1201),
        x0 * (1.0 + np.array([-1e-12, 0.0, 1e-12])),
        np.geomspace(3.0 * x0, 1e6, 200),
    ])
    bessel = jv(np.arange(n)[None, :], x[:, None])
    assert np.max(np.abs(weyl._bessel_j(x, n) - bessel)) <= 1e-12

    t_star = ((math.sqrt(40.0) + math.sqrt(40.0 + 2.0 * math.pi * (n - 1))) / (2.0 * math.pi)) ** 2
    t = np.concatenate([
        np.linspace(2.0 / (n * math.pi), 3.0 * t_star, 1201),  # from the table's first omega_k
        t_star * (1.0 + np.array([-1e-9, 0.0, 1e-9])),
        np.geomspace(3.0 * t_star, 3e5, 200),
    ])
    assert np.max(np.abs(weyl._riemannian_c(t, n) - riemannian_coef_erf(t, n))) <= 1e-12


def toeplitz_phi_dense(n, t, metric):
    """det[c_{j-k}(t)] at each t from a dense scipy Toeplitz matrix of the
    coefficients' definitions: c_k = e^{it/2} (-i)^k J_k(t/2) for
    k = 1-n..n-1, resp. the erf oracle with c_{-k} = c_k."""
    out = []
    for tt in t:
        if metric == "euclidean":
            k = np.arange(1 - n, n)
            c = np.exp(0.5j * tt) * (-1j) ** k * jv(k, 0.5 * tt)
            col, row = c[n - 1 :], c[n - 1 :: -1]
        else:
            col = row = riemannian_coef_erf(np.array([tt]), n)[0]
        out.append(np.linalg.det(toeplitz(col, row)))
    return np.array(out)


@pytest.mark.parametrize(
    "n, metric",
    [(n, metric) for n in (2, 3, 5, 8, 16, 124) for metric in ("euclidean", "riemannian")] + [(200, "euclidean")],
)
def test_toeplitz_phi_matches_dense_determinant(n, metric):
    # from the first omega_k, where |phi| is largest, past the switch between
    # coefficient methods: t = 2 x0 (x = t/2) resp. t_star
    if metric == "euclidean":
        switch = 2.0 * max(30.0, 2.0 * (n - 1))
    else:
        switch = ((math.sqrt(40.0) + math.sqrt(40.0 + 2.0 * math.pi * (n - 1))) / (2.0 * math.pi)) ** 2
    t = np.concatenate([
        np.geomspace(2.0 * math.pi / (n * weyl._KAPPA[metric]), 0.5 * switch, 5),
        switch * (1.0 + np.array([-1e-9, 0.0, 1e-9, 1.0])),
    ])
    assert np.max(np.abs(weyl._toeplitz_phi(n, t, metric) - toeplitz_phi_dense(n, t, metric))) <= 1e-12


@pytest.mark.parametrize("metric, itemsize", [("euclidean", 8), ("riemannian", 16)])
def test_toeplitz_phi_gathers_no_matrix_copy(metric, itemsize):
    # a default chunk at n = 200 holds 3 terms; a gathered (3, n, n) copy of
    # their matrices takes 0.92 MiB (real) resp. 1.83 MiB (complex), and
    # det's LAPACK buffer is not traced. The quadrature rule is built once
    # per n, so it is built before the measurement.
    n = 200
    step = weyl._CHUNK_BYTES // (16 * n * n)
    w = 2.0 * math.pi * np.arange(1, step + 1) / (n * weyl._KAPPA[metric])
    weyl._legendre_rule(n)
    tracemalloc.start()
    try:
        weyl._toeplitz_phi(n, w, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step == 3
    assert peak < step * n * n * itemsize


# max |phi_float64 - phi_40| of weyl._toeplitz_phi over 12 omegas per (n, metric),
# rounded up to two digits. omega_k is taken at k = 1024, k = 2^19 and the ten
# k rounded from geomspace(1, 4n, 10), where |phi| is largest, each evaluated
# in the chunk of omegas weyl._terms builds it in. phi_40 is the Toeplitz
# determinant at the same float omega from 40-digit coefficients (mpmath
# besselj, erf of the completed square) and a 40-digit LU determinant with
# partial pivoting, and the difference is taken at 40 digits. mpmath is not a
# dependency of the package, so the values are frozen here;
# tests/phi_error_oracle.py is that measurement.
PHI_ERRORS = {
    "euclidean": {2: 9.3e-17, 3: 2.1e-16, 4: 1.2e-16, 6: 4.2e-16, 8: 3.6e-16, 12: 7.7e-16, 16: 9.2e-16,
                  24: 2.5e-15, 32: 2.7e-15, 48: 2.9e-15, 64: 1.0e-14, 96: 8.4e-15, 128: 1.4e-14,
                  160: 1.8e-14, 200: 2.2e-14},
    "riemannian": {2: 5.2e-16, 3: 4.5e-16, 4: 6.7e-16, 6: 1.6e-15, 8: 2.5e-15, 12: 3.8e-15, 16: 4.0e-15,
                   24: 4.1e-15, 32: 1.2e-14, 48: 1.6e-14, 64: 1.1e-14, 96: 6.4e-14, 128: 4.1e-14,
                   160: 4.8e-14, 200: 6.0e-14},
}


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_phi_error_bound_is_twice_every_measured_error(metric):
    errors = PHI_ERRORS[metric]
    assert min(errors) == 2 and max(errors) == weyl._MAX_N
    for n, err in errors.items():
        assert weyl._phi_error(n) >= 2.0 * err, n


def test_cdf_error_counts_the_determinants_rounding():
    # each phi(omega_k), k <= K, enters F with a weight of at most 2/(pi k),
    # and the series sums at least K = 1024 terms
    for n in (2, 8, 64):
        _, err, _ = weyl._cdf(n, 0.5 * max_radius(n, "euclidean"), "euclidean")
        assert err >= weyl._phi_error(n) * sum(2.0 / (math.pi * k) for k in range(1, 1025))


def test_clausen_matches_scipy_spence():
    # the n = 2 euclidean leading term takes Cl_2 at pi (s + 1), s in [0, 2];
    # scipy's Li_2(w) is spence(1 - w)
    s = np.linspace(0.0, 2.0, 4001)
    ours = np.array([weyl._clausen2(math.pi * (v + 1.0)) for v in s])
    ref = np.imag(spence(1.0 - np.exp(1j * math.pi * (s + 1.0))))
    assert np.max(np.abs(ours - ref)) <= 1e-14
    # Cl_2(pi/2) is Catalan's constant
    assert weyl._clausen2(math.pi / 2.0) == pytest.approx(0.915965594177219015, abs=1e-15)


def test_clausen_coefficients_are_the_exact_bernoulli_values():
    # the Bernoulli numbers from sum_{j<=m} C(m+1, j) B_j = 0, in exact
    # rationals, each |B_2k| / (2k (2k+1)!) rounded once to the nearest float
    terms = len(weyl._CLAUSEN_COEFFICIENTS)
    b = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    exact = tuple(float(abs(b[2 * k]) / (2 * k * math.factorial(2 * k + 1))) for k in range(1, terms + 1))
    assert terms == 22
    assert weyl._CLAUSEN_COEFFICIENTS == exact


# --- memoized series terms -------------------------------------------------------


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_fraction_is_independent_of_memo_history(metric):
    # a block of terms has the same bits whichever call first builds it
    for n in (2, 3, 4):
        radii = (0.5 * max_radius(n, metric), 1.0, 0.3)
        cold = []
        for r in radii:
            weyl._terms.cache_clear()
            cold.append(weyl._cdf(n, r, metric))
        weyl._terms.cache_clear()
        weyl._cdf(n, 0.05, metric)
        assert weyl._terms.cache_info().misses >= 4  # more blocks than the radii need
        assert [weyl._cdf(n, r, metric) for r in radii] == cold


@pytest.mark.parametrize("metric, blocks", [("euclidean", 2), ("riemannian", 3)])
def test_cold_solve_builds_each_block_once(metric, blocks):
    # 1024 resp. 2048 terms, in the blocks (0, 512], (512, 1024], (1024, 2048]
    weyl._terms.cache_clear()
    solve_r0(2, 24, metric)
    assert weyl._terms.cache_info().misses == blocks
    solve_r0(2, 25, metric)
    assert weyl._terms.cache_info().misses == blocks


def test_cold_riemannian_solve_builds_the_quadrature_rule_once():
    weyl._terms.cache_clear()
    weyl._legendre_rule.cache_clear()
    solve_r0(64, 16, "riemannian")
    assert weyl._legendre_rule.cache_info().misses == 1
    # shared by every later call, so read-only
    assert not any(a.flags.writeable for a in weyl._legendre_rule(64)[1:])


def test_fresnel_tails_start_at_t_star():
    # the per-t test that every integration limit v = sqrt(t) (pi -+ k/(2t)),
    # |k| < n, has v^2 >= 40 holds exactly from t*(n) on, for every omega_k
    # up to past the end of the quadrature range at n = 200 (k ~ 14200)
    k = np.arange(1, (1 << 14) + 1)
    for n in range(2, weyl._MAX_N + 1):
        t = 2.0 * math.pi * k / (n * math.pi**2)
        edge = math.pi - (n - 1) / (2.0 * t)
        oracle = (edge > 0.0) & (t * edge * edge >= 40.0)
        assert np.array_equal(t >= weyl._legendre_rule(n)[0], oracle), n
    weyl._legendre_rule.cache_clear()


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_terms_do_not_depend_on_the_chunk(metric, monkeypatch):
    # 7 terms per chunk against the default; from n = 64 on a one-row chunk
    # would take numpy's single-row matmul, which rounds differently
    for n in (2, 8, 24):
        weyl._terms.cache_clear()
        default = weyl._terms(n, metric, 0, 512)
        with monkeypatch.context() as patch:
            patch.setattr(weyl, "_CHUNK_BYTES", 7 * 16 * n * n)
            weyl._terms.cache_clear()
            chunked = weyl._terms(n, metric, 0, 512)
        assert all(np.array_equal(a, b) for a, b in zip(default, chunked)), n
    weyl._terms.cache_clear()


# --- oracle properties -----------------------------------------------------------


def test_tensor_node_convergence():
    coarse = tensor_mass(3, 1.7, "euclidean", nodes_per_axis=32)
    fine = tensor_mass(3, 1.7, "euclidean", nodes_per_axis=96)
    assert coarse == pytest.approx(fine, rel=1e-10)


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_tensor_mass_monotone_and_continuous_at_switch(metric):
    switch = 2.0 if metric == "euclidean" else math.pi
    radii = np.linspace(0.1, max_radius(2, metric) - 1e-9, 60)
    vals = [tensor_mass(2, float(r), metric) for r in radii]
    assert np.all(np.diff(vals) >= -1e-9)
    # the mass has a sqrt-type derivative spike at the branch switch, so it
    # is continuous but not Lipschitz there: check ordering and approach
    below = tensor_mass(2, switch - 1e-9, metric)
    at = tensor_mass(2, switch, metric)
    above = tensor_mass(2, switch + 1e-9, metric)
    assert below <= at <= above
    assert above - below < 1e-5


# --- Monte Carlo normalizer -----------------------------------------------------------


def test_mc_deterministic_given_seed():
    assert normalizer_estimate(3, 50_000, 9) == normalizer_estimate(3, 50_000, 9)


def test_mc_seed_changes_estimate():
    assert normalizer_estimate(3, 50_000, 1)[0] != normalizer_estimate(3, 50_000, 2)[0]


def test_mc_refuses_n_where_total_mass_does():
    # one check for both: where the total mass overflows, the cross-check
    # means nothing (at n = 124, 1000 samples give ~1e-87 of it)
    assert all(math.isfinite(v) for v in normalizer_estimate(124, 2, 0))
    for n in (125, 400, 2**1022):
        for call, args in ((normalizer_estimate, (n, 2, 0)), (total_mass, (n,))):
            with pytest.raises(RangeError, match="^total mass overflows float64 for n=") as info:
                call(*args)
            assert "\n" not in str(info.value)


def test_mc_refuses_work_over_the_budget_before_any_draw(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"^normalizer_estimate with n = 2, samples = 10{24} evaluates more "
                                         r"than 2\^30 density pair factors, the limit for one call$"):
        normalizer_estimate(2, 10**24, 0)
    assert time.perf_counter() - start < 1.0
    # the work is samples times the n(n - 1)/2 pair factors of the density, at least 1
    monkeypatch.setattr(weyl, "_MAX_DENSITY_FACTORS", 96)
    for n, allowed in ((1, 96), (2, 96), (3, 32), (4, 16)):
        assert all(math.isfinite(v) for v in normalizer_estimate(n, allowed, 0))
        with pytest.raises(ValidationError, match=f"^normalizer_estimate with n = {n}, samples = {allowed + 1} "):
            normalizer_estimate(n, allowed + 1, 0)


# --- validation ---------------------------------------------------------------------


def test_normalizer_estimate_checks_samples_and_seed():
    with pytest.raises(ValidationError):
        normalizer_estimate(2, 1, 0)
    # a negative seed is taken mod 2^64
    assert normalizer_estimate(2, 1000, -1) == normalizer_estimate(2, 1000, 2**64 - 1)


def test_ball_mass_validates_arguments():
    with pytest.raises(ValidationError):
        ball_volume_fraction(0, 1.0, "euclidean")
    with pytest.raises(ValidationError):
        ball_volume_fraction(2, -0.5, "euclidean")
    with pytest.raises(ValidationError):
        ball_volume_fraction(2, 1.0, "chordal")
    with pytest.raises(ValidationError):
        ball_volume_fraction(2, float("nan"), "euclidean")


def test_junk_metrics_and_angles_are_validation_errors():
    # an array metric is refused by one check, not by numpy's ambiguous truth value
    for call in (lambda m: max_radius(2, m), lambda m: ball_volume_fraction(2, 1.0, m),
                 lambda m: solve_r0(2, 24, m)):
        for metric in (np.array(["euclidean", "riemannian"]), "chordal", None):
            with pytest.raises(ValidationError) as info:
                call(metric)
            assert str(info.value) == f"unknown metric {metric!r}; expected one of euclidean, riemannian"
    for theta in (["a"], object(), [10**400]):
        with pytest.raises(ValidationError, match="^angle entries must be numeric: "):
            weyl_density(theta)
    for theta in ([0.0, math.inf], [math.nan, 0.0]):
        with pytest.raises(ValidationError, match="^angles must be finite$"):
            weyl_density(theta)


def test_max_radius_values():
    assert max_radius(2, "euclidean") == pytest.approx(2 * math.sqrt(2.0))
    assert max_radius(3, "riemannian") == pytest.approx(math.pi * math.sqrt(3.0))
