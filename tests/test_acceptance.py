"""Acceptance suite: the ten primary criteria, one test each.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see all
of them) and then asserts the stated tolerance verbatim. Criteria 1 and 2
assert every column of the published reference table; the m=64 and m=100
entries of that table are inconsistent with the packing equality the bounds
are defined through (see test_bounds.py for the equality-consistent frozen
values), so those two tests fail at exactly those columns and are expected
to stay red until the reference values are revised.
"""

import math
import time

import numpy as np
import pytest

from upb import (
    Constellation,
    b1_of_r,
    b2_of_r,
    compute_bounds,
    crossover_radius,
    diversity_product,
    diversity_sum,
    euclidean_riemannian_envelope,
    exact_delta,
    haar_sample,
    normalizer_estimate,
    random_search,
    riemannian_distance,
    solve_r0,
    total_mass,
)

TABLE_M = (24, 48, 64, 80, 100, 120, 128, 1000)
TABLE_B1 = (0.7598, 0.6603, 0.6131, 0.5932, 0.5578, 0.5425, 0.5347, 0.3270)
TABLE_B2 = (0.7794, 0.6734, 0.6235, 0.6026, 0.5654, 0.5496, 0.5415, 0.3285)


def verdict(num, name, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def table_row(curve, references):
    start = time.monotonic()
    devs = []
    for m, ref in zip(TABLE_M, references):
        r0, _ = solve_r0(2, m, "euclidean")
        devs.append(abs(curve(2, r0) - ref))
    return devs, time.monotonic() - start


def test_criterion_1_table_b1_row():
    devs, elapsed = table_row(b1_of_r, TABLE_B1)
    worst = max(devs)
    ok = worst <= 0.005 and elapsed < 60.0
    detail = f"max |dev| = {worst:.2e} over {len(devs)} columns in {elapsed:.1f}s (tol 5e-3)"
    verdict(1, "published B1 row within 5e-3", ok, detail)
    assert elapsed < 60.0
    for m, dev in zip(TABLE_M, devs):
        assert dev <= 0.005, f"B1 at m={m}: |dev| = {dev:.2e} exceeds 5e-3"


def test_criterion_2_table_b2_row():
    devs, elapsed = table_row(b2_of_r, TABLE_B2)
    worst = max(devs)
    ok = worst <= 0.005
    detail = f"max |dev| = {worst:.2e} over {len(devs)} columns (tol 5e-3)"
    verdict(2, "published B2 row within 5e-3", ok, detail)
    for m, dev in zip(TABLE_M, devs):
        assert dev <= 0.005, f"B2 at m={m}: |dev| = {dev:.2e} exceeds 5e-3"


def test_criterion_3_n1_collapse_to_sine():
    start = time.monotonic()
    worst = 0.0
    for m in range(2, 65):
        expected = math.sin(math.pi / m)
        for row in compute_bounds(1, m):
            worst = max(worst, abs(row.value - expected))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    verdict(3, "n=1 bounds equal sin(pi/m)", ok,
            f"max |dev| = {worst:.2e} over m=2..64 in {elapsed:.1f}s (tol 1e-6)")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_4_crossover_constants():
    start = time.monotonic()
    r3 = crossover_radius(3)
    r100 = crossover_radius(100)
    r1m = crossover_radius(10**6) / 1e3
    elapsed = time.monotonic() - start
    devs = (abs(r3 - 2.0881), abs(r100 - 11.9155), abs(r1m - 1.1892))
    ok = devs[0] <= 2e-3 and devs[1] <= 2e-2 and devs[2] <= 1e-2 and elapsed < 1.0
    verdict(4, "crossover radii", ok,
            f"r*(3)={r3:.6f}, r*(100)={r100:.5f}, r*(1e6)/1e3={r1m:.6f} in {elapsed:.2f}s")
    assert devs[0] <= 2e-3
    assert devs[1] <= 2e-2
    assert devs[2] <= 1e-2
    assert elapsed < 1.0


def test_criterion_5_weyl_normalizer():
    worst = 0.0
    for n in (2, 3, 4):
        value, _ = normalizer_estimate(n, 1_000_000, 0)
        worst = max(worst, abs(value - total_mass(n)) / total_mass(n))
    ok = worst <= 0.01
    verdict(5, "normalizer equals (2pi)^n n!", ok,
            f"max relative error = {worst:.2e} for n=2,3,4 at 1e6 samples (tol 1e-2)")
    assert worst <= 0.01


def test_criterion_6_product_le_sum_property():
    rng = np.random.default_rng(20_240_601)
    worst = -np.inf
    for _ in range(500):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        v = Constellation([haar_sample(n, rng) for _ in range(m)])
        worst = max(worst, diversity_product(v) - diversity_sum(v))
    ok = worst <= 1e-12
    verdict(6, "diversity product <= sum", ok,
            f"max(product - sum) = {worst:.2e} over 500 constellations (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_7_distance_envelope():
    rng = np.random.default_rng(20_240_602)
    worst_low = -np.inf
    worst_high = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a, b = haar_sample(n, rng), haar_sample(n, rng)
        d = float(np.linalg.norm(a - b))
        dist = riemannian_distance(a, b)
        lower, upper = euclidean_riemannian_envelope(n, d)
        worst_low = max(worst_low, lower - dist)
        worst_high = max(worst_high, dist - upper)
    # the lower envelope is an exact equality for every n=1 pair, so the
    # comparison needs the same roundoff allowance the upper side states
    ok = worst_low <= 1e-9 and worst_high <= 1e-9
    verdict(7, "riemannian distance inside envelope", ok,
            f"max lower excess = {worst_low:.2e}, max upper excess = {worst_high:.2e} "
            f"over 1000 pairs (tol 1e-9)")
    assert worst_low <= 1e-9
    assert worst_high <= 1e-9


def test_criterion_8_bound_dominance():
    cases = [(2, m) for m in range(2, 17)] + [(n, m) for n in (3, 4, 5) for m in (2, 3)]
    worst = -np.inf
    worst_case = None
    for n, m in cases:
        delta = exact_delta(n, m)
        assert delta is not None, (n, m)
        for row in compute_bounds(n, m):
            shortfall = delta - row.value
            if shortfall > worst:
                worst, worst_case = shortfall, (n, m, row.bound_id)
    ok = worst <= 5e-3
    verdict(8, "bounds dominate known optima", ok,
            f"max(delta - bound) = {worst:.2e} at {worst_case} (tol 5e-3)")
    assert worst <= 5e-3


def test_criterion_9_monotonicity():
    ms = (8, 16, 32, 64, 128, 256, 512, 1024)
    radii = [solve_r0(2, m, "euclidean")[0] for m in ms]
    values = [b1_of_r(2, r) for r in radii]
    radii_ok = all(a > b for a, b in zip(radii, radii[1:]))
    values_ok = all(a > b for a, b in zip(values, values[1:]))
    ok = radii_ok and values_ok
    verdict(9, "B1 and r0 strictly decreasing", ok,
            f"radii strict: {radii_ok}, values strict: {values_ok} over m=8..1024")
    assert radii_ok and values_ok


def test_criterion_10_search_below_bounds():
    worst = -np.inf
    for n, m in ((1, 4), (2, 4), (2, 8)):
        _, score = random_search(n, m, 2000, seed=0)
        best = min(row.value for row in compute_bounds(n, m))
        worst = max(worst, score - best)
    ok = worst <= 0.0
    verdict(10, "search scores below bounds", ok,
            f"max(score - min bound) = {worst:.2e} over (1,4), (2,4), (2,8)")
    assert worst <= 0.0
