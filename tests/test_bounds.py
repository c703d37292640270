import dataclasses
import json
import math
import re

import numpy as np
import pytest

import upb.bounds
import upb.cli
import upb.weyl
from tensor_oracle import tensor_mass
from test_acceptance import TABLE_B1, TABLE_B2, TABLE_M
from upb import (
    BOUND_IDS,
    BOUND_METRIC,
    NumericalError,
    RangeError,
    ValidationError,
    b1_of_r,
    b2_of_r,
    b3_of_r,
    ball_volume_fraction,
    compute_bounds,
    crossover_radius,
    euclidean_riemannian_envelope,
    exact_delta,
    gv_lower_bound,
    haar_sample,
    max_radius,
    normalizer_estimate,
    riemannian_distance,
    solve_r0,
    solver_key,
    total_mass,
)
from upb.errors import check_real

# --- independent oracles ----------------------------------------------------


def r0_circle_euclidean(m):
    """n=1 packing radius: arcs of mass 4 asin(r/2) tile 2 pi when m of them
    cover the circle, so r = 2 sin(pi / (2m))."""
    return 2.0 * math.sin(math.pi / (2.0 * m))


def r0_circle_riemannian(m):
    return math.pi / m


def raw_b2(n, r):
    """B2 without its saturation: the sine of the envelope's upper radius."""
    return math.sin(euclidean_riemannian_envelope(n, r)[1] / math.sqrt(n))


def bound_slope(bound_id, n, r):
    """|dB/dr| in closed form: B1 and B3 directly, B2 through the envelope's
    upper radius U = 2 sqrt(k pi^2/4 + asin(sqrt(a))^2), a = r^2/4 - k."""
    if bound_id == "b1":
        return abs(2.0 * r / n - r**3 / (n * n)) / (2.0 * b1_of_r(n, r))
    if bound_id == "b3":
        return math.cos(r / math.sqrt(n)) / math.sqrt(n)
    upper = euclidean_riemannian_envelope(n, r)[1]
    alpha = r * r / 4.0 - math.floor(r * r / 4.0)
    du_dr = math.asin(math.sqrt(alpha)) * r / (upper * math.sqrt(alpha * (1.0 - alpha)))
    return math.cos(upper / math.sqrt(n)) / math.sqrt(n) * du_dr


def invert_b1(n, target):
    """Solve sqrt(r^2/n - r^4/(4 n^2)) = target for the small root by
    bisection; independent check of published bound values."""
    lo, hi = 0.0, math.sqrt(2.0 * n) / math.sqrt(2.0)  # rising branch only
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.sqrt(max(0.0, mid * mid / n - mid**4 / (4.0 * n * n))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- closed-form solves -------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 64, 628_000, 10**9, 2**64, 10**150])
def test_solve_r0_circle_closed_forms(m, monkeypatch):
    # n = 1 masses are exact arcs, so the solve inverts them without a
    # kernel call, and the radius error is the closed form's rounding
    monkeypatch.setattr(upb.weyl, "_cdf", None)
    for metric, closed_form in (("euclidean", r0_circle_euclidean), ("riemannian", r0_circle_riemannian)):
        r0, err = solve_r0(1, m, metric)
        assert abs(r0 - closed_form(m)) <= err <= 4.0 * math.ulp(r0), (metric, r0, err)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 32, 64, 1000, 628_000, 10**9])
def test_bounds_collapse_to_sine_for_n1(m):
    expected = math.sin(math.pi / m)
    for name, result in zip(BOUND_IDS, compute_bounds(1, m), strict=True):
        assert abs(result.value - expected) <= 4.0 * math.ulp(expected), name
        assert result.value + result.std_error_hint >= expected, name
        assert result.bound_id == name
        assert result.metric == BOUND_METRIC[name]


def test_solve_r0_2_1000_matches_inverted_reference():
    # the published bound value 0.3270 inverts to roughly r0 = 0.469
    implied = invert_b1(2, 0.3270)
    r0, _ = solve_r0(2, 1000, "euclidean")
    assert implied == pytest.approx(0.469, abs=2e-3)
    assert r0 == pytest.approx(implied, abs=5e-3)


# --- published reference values ------------------------------------------------

# Published reference table (n=2, 4 significant digits) and the values this
# implementation produces from the packing equality. The m=64 and m=100
# columns of the published table are inconsistent with that equality (their
# entries invert to packing radii solving it for m near 68.5 and 105.8); the
# acceptance suite documents that gap, while the frozen values below pin the
# equality-consistent results against regressions.
CONSISTENT_COLUMNS = (0, 1, 3, 5, 6, 7)  # all but m = 64 and m = 100
FROZEN_R0 = (1.18199, 0.99966, 0.93192, 0.88237, 0.83535, 0.79872, 0.78613, 0.47237)
FROZEN = {
    "b1": (0.759316, 0.661247, 0.622168, 0.592794, 0.564331, 0.541792, 0.533973, 0.329323),
    "b2": (0.779708, 0.674439, 0.633054, 0.602144, 0.572344, 0.548846, 0.540714, 0.330846),
}


def test_frozen_packing_radii():
    for m, expected in zip(TABLE_M, FROZEN_R0):
        r0, _ = solve_r0(2, m, "euclidean")
        assert r0 == pytest.approx(expected, abs=5e-5), f"m={m}"


def test_frozen_bound_values():
    for i, m in enumerate(TABLE_M):
        r0, _ = solve_r0(2, m, "euclidean")
        assert b1_of_r(2, r0) == pytest.approx(FROZEN["b1"][i], abs=1e-5)
        assert b2_of_r(2, r0) == pytest.approx(FROZEN["b2"][i], abs=1e-5)


def test_published_values_on_consistent_columns():
    for i in CONSISTENT_COLUMNS:
        r0, _ = solve_r0(2, TABLE_M[i], "euclidean")
        assert b1_of_r(2, r0) == pytest.approx(TABLE_B1[i], abs=5e-3)
        assert b2_of_r(2, r0) == pytest.approx(TABLE_B2[i], abs=5e-3)


def test_cli_table_is_the_published_table():
    assert upb.cli._TABLE_M == TABLE_M
    assert upb.cli._TABLE_REF == {"b1": TABLE_B1, "b2": TABLE_B2}


# --- bound formulas --------------------------------------------------------------


def test_b1_formula_spot_values():
    assert b1_of_r(2, math.sqrt(2.0)) == pytest.approx(math.sqrt(0.75))
    # the expression peaks at exactly 1 when r = sqrt(2n)
    assert b1_of_r(2, 2.0) == pytest.approx(1.0)
    assert b1_of_r(3, 1e-8) == pytest.approx(1e-8 / math.sqrt(3.0), rel=1e-6)


def test_half_volume_radius_is_sqrt_2n():
    # the density is symmetric under sin^2(theta/2) -> 1 - sin^2(theta/2),
    # so the m=2 packing radius is exactly sqrt(2n); B1 peaks there at 1
    for n in (1, 2, 3):
        frac = ball_volume_fraction(n, math.sqrt(2.0 * n), "euclidean")
        assert frac == pytest.approx(0.5, abs=1e-12)
        r0, _ = solve_r0(n, 2, "euclidean")
        assert r0 == pytest.approx(math.sqrt(2.0 * n), abs=2e-6)
        assert b1_of_r(n, r0) == pytest.approx(1.0, abs=1e-9)


def test_b2_continuous_across_k_steps():
    # r^2/4 crossing an integer changes (k, alpha) but not the value; the
    # approach from below is sqrt-type, so the step over +-1e-9 is ~1e-5
    for r_star in (2.0, 2.0 * math.sqrt(2.0)):
        below = raw_b2(3, r_star - 1e-9)
        at = raw_b2(3, r_star)
        above = raw_b2(3, r_star + 1e-9)
        assert at == pytest.approx(above, abs=1e-7)
        assert at == pytest.approx(below, abs=5e-5)


def test_b2_floor_snap_handles_roundoff():
    assert b2_of_r(3, 2.0 * (1.0 + 5e-14)) == pytest.approx(b2_of_r(3, 2.0), abs=1e-10)


def test_b2_clamped_dominates_raw():
    for r in np.linspace(0.1, math.sqrt(6.0) - 1e-9, 25):
        clamped = b2_of_r(3, float(r))
        raw = raw_b2(3, float(r))
        assert clamped >= raw - 1e-12
        assert clamped <= 1.0


def test_b3_formula_spot_values():
    assert b3_of_r(4, math.pi) == pytest.approx(1.0)  # pi/sqrt(4) = pi/2 caps
    assert b3_of_r(1, 0.5) == pytest.approx(math.sin(0.5))


def test_unknown_ids_and_radii_off_the_curve_are_refused():
    with pytest.raises(ValidationError):
        compute_bounds(2, 24, ("b4",))
    for bound_id in (["b1"], np.array(["b1", "b2"])):  # unhashable or an array: one message
        with pytest.raises(ValidationError) as info:
            compute_bounds(2, 24, (bound_id,))
        assert str(info.value) == f"unknown bound id {bound_id!r}; expected one of b1, b2, b3"
    with pytest.raises(ValidationError):
        b1_of_r(2, -1.0)
    with pytest.raises(ValidationError):
        b1_of_r(2, 2.0 * math.sqrt(2.0) + 1e-3)


# --- crossover radius --------------------------------------------------------------


def test_crossover_reference_values():
    assert crossover_radius(3) == pytest.approx(2.088102, abs=1e-4)
    assert crossover_radius(100) == pytest.approx(11.915511, abs=1e-3)
    assert crossover_radius(10**6) / 1e3 == pytest.approx(1.189223, abs=1e-4)


def test_crossover_frozen_bits():
    # the bisection on U + L >= pi sqrt(n) ends on the same floats as the
    # earlier one on raw B2 <= B1, which these values were taken from
    frozen = {2: 1.8659493097560595, 3: 2.088102164373974, 7: 3.2489669213163754, 100: 11.915510715683599}
    assert {n: crossover_radius(n) for n in frozen} == frozen


@pytest.mark.parametrize("n", [2, 3, 7, 100, 10**6])
def test_crossover_orientation(n):
    r_star = crossover_radius(n)
    for r in np.linspace(0.2, r_star - 0.05, 8):
        assert raw_b2(n, float(r)) > b1_of_r(n, float(r))
    for r in np.linspace(r_star + 0.05, math.sqrt(2.0 * n) - 1e-6, 8):
        assert raw_b2(n, float(r)) < b1_of_r(n, float(r))


def test_crossover_rejects_n1():
    with pytest.raises(ValidationError):
        crossover_radius(1)


# --- exact small-constellation values -------------------------------------------------


def test_exact_delta_table():
    assert exact_delta(1, 12) == pytest.approx(math.sin(math.pi / 12))
    assert exact_delta(3, 2) == pytest.approx(1.0)
    assert exact_delta(4, 3) == pytest.approx(math.sqrt(3.0) / 2.0)
    expected_n2 = {
        4: math.sqrt(6.0) / 3.0,
        5: math.sqrt(10.0) / 4.0,
        6: math.sqrt(15.0) / 5.0,
        7: math.sqrt(21.0) / 6.0,
        8: math.sqrt(28.0) / 7.0,
        9: math.sqrt(36.0) / 8.0,
    }
    for m, val in expected_n2.items():
        assert exact_delta(2, m) == pytest.approx(val)
    for m in range(10, 17):
        assert exact_delta(2, m) == pytest.approx(math.sqrt(2.0) / 2.0)
    assert exact_delta(2, 17) is None
    assert exact_delta(5, 9) is None


# --- envelope ----------------------------------------------------------------------


def test_envelope_endpoints():
    lo, hi = euclidean_riemannian_envelope(3, 0.0)
    assert lo == 0.0 and hi == 0.0
    d_max = 2.0 * math.sqrt(3.0)
    lo, hi = euclidean_riemannian_envelope(3, d_max)
    assert lo == pytest.approx(math.pi * math.sqrt(3.0))
    assert hi == pytest.approx(math.pi * math.sqrt(3.0))


def test_envelope_ordering_on_grid():
    for n in (1, 2, 4):
        for d in np.linspace(0.0, 2.0 * math.sqrt(n), 40):
            lo, hi = euclidean_riemannian_envelope(n, float(d))
            assert lo <= hi + 1e-12


def test_envelope_contains_real_distances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a, b = haar_sample(n, rng), haar_sample(n, rng)
        d = float(np.linalg.norm(a - b))
        dist = riemannian_distance(a, b)
        lo, hi = euclidean_riemannian_envelope(n, d)
        assert lo - 1e-9 <= dist <= hi + 1e-9


# --- Gilbert-Varshamov lower bound ------------------------------------------------------


def test_gv_lower_bound_values():
    # (r - σ_r) / (2 sqrt(n)) at r = solve_r0(n, m - 1, "euclidean")
    pinned = {(2, 8): 0.5571, (2, 64): 0.3308, (2, 256): 0.2344, (3, 128): 0.4589,
              (4, 10**9): 0.2021, (8, 64): 0.6365, (16, 10**6): 0.6285, (64, 1000): 0.6949}
    for (n, m), value in pinned.items():
        assert gv_lower_bound(n, m) == pytest.approx(value, abs=1e-4), (n, m)


def test_gv_lower_bound_closed_forms():
    for n in (1, 2, 5):
        assert gv_lower_bound(n, 2) == 1.0
    # n = 1: m - 1 points on the circle leave room at chord 2 sin(pi/(2(m - 1)))
    for m in (3, 4, 8, 1000):
        assert gv_lower_bound(1, m) == pytest.approx(math.sin(math.pi / (2 * (m - 1))), abs=1e-15)


def test_gv_lower_bound_validates_size(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(upb.bounds, "solve_r0", no_solve)
    for n, m in ((2, 1), (True, 8)):
        with pytest.raises(ValidationError):
            gv_lower_bound(n, m)
    for n in (201, 10**400):
        with pytest.raises(RangeError):
            gv_lower_bound(n, 8)


# --- solver plumbing --------------------------------------------------------------------


def test_solver_key_shape_and_determinism():
    key = solver_key(2, 100, "euclidean")
    assert key == solver_key(2, 100, "euclidean")
    parts = key.split(":")
    assert parts[0] == "2" and parts[1] == "100" and parts[2] == "euclidean"


def test_solver_key_carries_every_result_field():
    # the solve has no settings: (n, m, metric) and the version fix the result
    keys = {solver_key(n, m, metric) for n in (2, 4) for m in (24, 25) for metric in ("euclidean", "riemannian")}
    assert len(keys) == 8
    assert solver_key(2, 100, "euclidean") == "2:100:euclidean:v8"


def test_solver_key_refuses_an_unknown_metric():
    for metric in ("bogus", None, np.array(["euclidean"])):
        with pytest.raises(ValidationError) as info:
            solver_key(2, 24, metric)
        assert str(info.value) == f"unknown metric {metric!r}; expected one of euclidean, riemannian"


def test_cache_entry_without_version_or_radius_error_is_recomputed(tmp_path):
    (fresh,) = compute_bounds(2, 24, ("b1",), tmp_path)
    (path,) = tmp_path.glob("*.json")
    solved = json.loads(path.read_text())
    key = solver_key(2, 24, "euclidean")
    old_key = ":".join(key.split(":")[:-1])  # the fields keyed before the version
    entries = [{"key": stale_key, "r0": 1.0, "timestamp": "2024-01-01T00:00:00+00:00"}
               for stale_key in (old_key, key)]
    # records under the right key that solve_r0 could not return: r0 outside
    # (0, 2 sqrt 2) or no float, σ_r outside [0, r0/10]; None leaves the field out
    r0, se_r = solved["r0"], solved["radius_se"]
    radii = [(bad, se_r) for bad in (0.0, -1.0, 5.0, math.nan, math.inf, 1, "1.0", None)]
    radii += [(r0, bad) for bad in (-1e-9, 50.0, None)] + [(0.0, 0.0)]
    entries += [{"key": key, "r0": r, "radius_se": se} for r, se in radii]
    for entry in entries:
        path.write_text(json.dumps({field: v for field, v in entry.items() if v is not None}))
        (again,) = compute_bounds(2, 24, ("b1",), tmp_path)
        assert again == fresh, entry
        assert json.loads(path.read_text()) == solved


def test_cached_bounds_equal_fresh_bounds(tmp_path):
    fresh = compute_bounds(2, 24, BOUND_IDS)
    assert compute_bounds(2, 24, BOUND_IDS, tmp_path) == fresh
    assert len(list(tmp_path.glob("*.json"))) == 2  # one entry per metric
    assert compute_bounds(2, 24, BOUND_IDS, tmp_path) == fresh
    blocker = tmp_path / "blocker"  # a regular file: the store fails and leaves it as it was
    blocker.write_text("not a directory\n")
    assert compute_bounds(2, 24, BOUND_IDS, blocker) == fresh
    assert blocker.read_text() == "not a directory\n"
    assert [b.bound_id for b in compute_bounds(2, 24, ("b3", "b1"))] == ["b3", "b1"]
    with pytest.raises(ValidationError):
        compute_bounds(2, 24, ("b4",))


def test_every_solved_radius_is_served_from_the_cache(tmp_path, monkeypatch):
    # every record solve_r0 returns passes the cache's check, n = 1's exact
    # radii with their 4 ulp included, so a filled cache is served without a solve
    sizes = [(1, 2), (1, 3), (1, 10**150)] + [(n, 24) for n in range(2, 7)]
    cold = {}
    for n, m in sizes:
        for metric in ("euclidean", "riemannian"):
            assert upb.bounds._resolved(*solve_r0(n, m, metric), max_radius(n, metric))
        cold[n, m] = compute_bounds(n, m, BOUND_IDS, tmp_path)

    def no_solve(n, m, metric):
        raise AssertionError(f"solve_r0({n}, {m}, {metric!r}) on a filled cache")

    monkeypatch.setattr(upb.bounds, "solve_r0", no_solve)
    for (n, m), rows in cold.items():
        assert compute_bounds(n, m, BOUND_IDS, tmp_path) == rows


def test_numpy_integers_accepted_and_bool_rejected():
    r0, _ = solve_r0(2, 24, "euclidean")
    r0_np, _ = solve_r0(np.int64(2), np.int64(24), "euclidean")
    assert r0_np == r0
    for n, m in ((True, 24), (2, True), (2.0, 24)):
        with pytest.raises(ValidationError):
            solve_r0(n, m, "euclidean")
    with pytest.raises(ValidationError):
        compute_bounds(True, 24)


def test_real_inputs_share_one_validator():
    # radii all go through check_real:
    # Python and numpy reals pass as floats; bool, strings, None and
    # non-finite values (an int beyond the float range included) do not
    assert check_real(np.float32(0.5), "x") == 0.5
    assert type(check_real(np.int64(2), "x")) is float
    f = ball_volume_fraction(2, 1, "euclidean")
    assert ball_volume_fraction(2, np.float64(1.0), "euclidean") == f
    for bad in (True, "1", None, float("nan"), float("inf"), 10**400):
        for call in (
            lambda: check_real(bad, "x"),
            lambda: ball_volume_fraction(2, bad, "euclidean"),
            lambda: b1_of_r(2, bad),
            lambda: euclidean_riemannian_envelope(2, bad),
        ):
            with pytest.raises(ValidationError):
                call()


def test_bisect_reports_bracket_on_exhaustion():
    # 1e-17 is below the float spacing near r0 = 0.39, so the bisection
    # stalls on two neighbouring floats around the root
    root = r0_circle_euclidean(8)
    with pytest.raises(NumericalError, match="float resolution") as info:
        upb.bounds._bisect(0.0, 2.0, lambda r: ball_volume_fraction(1, r, "euclidean") >= 1.0 / 8, 1e-17)
    lo, hi = map(float, re.search(r"bracket \[(\S+), (\S+)\]", str(info.value)).groups())
    assert 0.0 < hi - lo <= 2.0 * math.ulp(hi)
    assert lo - 1e-15 <= root <= hi + 1e-15
    # a reachable width returns the bracket, with above(lo) false and above(hi) true
    lo, hi = upb.bounds._bisect(0.0, 2.0, lambda r: r >= root, 1e-9)
    assert lo < root <= hi and hi - lo <= 1e-9


@pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
def test_cold_solve_evaluates_r0_once(metric, monkeypatch):
    # one kernel call per bisection step and one at r0, which gives both the
    # error bound and the density that carries it to the radius
    radii = []
    real = upb.weyl._cdf

    def counting(n, r, metric):
        radii.append(r)
        return real(n, r, metric)

    monkeypatch.setattr(upb.weyl, "_cdf", counting)
    r0, _ = solve_r0(2, 24, metric)
    steps = math.ceil(math.log2(max_radius(2, metric) / 1e-6))
    assert radii.count(r0) == 1
    assert len(radii) == steps + 1 == {"euclidean": 23, "riemannian": 24}[metric]


def test_solve_r0_without_positive_density_is_numerical_failure(monkeypatch):
    # a fraction error that no positive density carries to the radius must
    # not be dropped from the radius error
    real = upb.weyl._cdf

    def flat(n, r, metric):
        frac, err, _ = real(n, r, metric)
        return frac, err, 0.0

    monkeypatch.setattr(upb.weyl, "_cdf", flat)
    with pytest.raises(NumericalError, match="no positive density") as info:
        solve_r0(2, 24, "euclidean")
    r0 = float(re.search(r"at r0 = (\S+) ", str(info.value))[1])
    assert r0 == pytest.approx(FROZEN_R0[0], abs=5e-6)


@pytest.mark.parametrize("m", [3 * 10**14, 35 * 10**13, 45 * 10**13, 5 * 10**14])
def test_solve_r0_at_n64_returns_no_radius_that_chernoff_refutes(m):
    # For u < 0, F(s) <= exp(kappa(u) - u s) with kappa(u) = u n/2 +
    # log det[I_{j-k}(-u/2)]. At n = 64, u = -40 and a 200-digit mpmath
    # determinant, it gives F < 10^-33.6 at r = 10.5 (s = 27.5625), so the
    # root of F = 1/m lies above r = 10.5 for each of these m, where the
    # solve returned noise radii of 6.8-7.6 while eps_F left out the
    # determinants' rounding.
    try:
        r0, se_r = solve_r0(64, m, "euclidean")
    except NumericalError:
        return
    assert r0 + se_r >= 10.5


def test_solve_r0_validates_inputs():
    with pytest.raises(ValidationError):
        solve_r0(2, 1, "euclidean")
    with pytest.raises(ValidationError):
        solve_r0(0, 4, "euclidean")
    with pytest.raises(ValidationError):
        solve_r0(2, 4, "chordal")
    # Python refuses to print an int of more than 4300 digits, so a message
    # gives the size of such an m instead of ending in a bare ValueError
    for m, got in ((-10**5000, "an integer of 5001 digits"), (-10**4300, "an integer of 4301 digits"),
                   (1 - 10**4300, "-" + "9" * 4300)):
        with pytest.raises(ValidationError, match=f"got {got}$"):
            solve_r0(2, m, "euclidean")


BEYOND_FLOAT_RANGE = {
    "max_radius": (max_radius, (10**400, "euclidean")),
    "total_mass": (total_mass, (10**400,)),
    "crossover_radius": (crossover_radius, (10**400,)),
    "crossover_radius-2n": (crossover_radius, (2**1023,)),
    "exact_delta": (exact_delta, (1, 10**400)),
    "b1_of_r": (b1_of_r, (10**400, 1.0)),
    "b3_of_r": (b3_of_r, (10**400, 1.0)),
    "euclidean_riemannian_envelope": (euclidean_riemannian_envelope, (10**400, 1.0)),
    "gv_lower_bound": (gv_lower_bound, (2, 10**400)),
    "gv_lower_bound-n": (gv_lower_bound, (10**400, 8)),
    "solver_key": (solver_key, (2, 10**5000, "euclidean")),
    "normalizer_estimate": (normalizer_estimate, (10**400, 10, 0)),
    "normalizer_estimate-total-mass": (normalizer_estimate, (400, 2, 0)),
}


@pytest.mark.parametrize("call, args", BEYOND_FLOAT_RANGE.values(), ids=BEYOND_FLOAT_RANGE.keys())
def test_public_calls_beyond_the_float_range_fail_with_one_line(call, args):
    # an integer float() cannot take, or an n whose total mass overflows, is
    # a numerical failure with a one-line message, never a bare Python error
    with pytest.raises(NumericalError) as info:
        call(*args)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_sizes_beyond_the_float_range_are_refused_before_any_work(tmp_path, cached):
    # the size check runs before the cache key is formed, whose str(m) and
    # str(n) Python refuses past 4300 digits, so both fail with one numerical
    # error, and no cache file is written
    cache_dir = tmp_path if cached else None
    with pytest.raises(NumericalError, match="^m ≥ 2\\^16609 is beyond the float range"):
        compute_bounds(2, 10**5000, cache_dir=cache_dir)
    with pytest.raises(RangeError, match="^n=an integer of 5001 digits exceeds the mass kernel's limit"):
        compute_bounds(10**5000, 4, cache_dir=cache_dir)
    assert list(tmp_path.iterdir()) == []


def test_bound_result_bookkeeping(tmp_path):
    res = compute_bounds(2, 64, ("b1",))[0]
    assert res.n == 2 and res.m == 64
    # plain floats, not numpy scalars, so a solved row and a cached one agree
    assert all(type(v) is float for v in (res.r0, res.value, res.std_error_hint))
    assert all(type(v) is float for v in solve_r0(2, 64, "riemannian"))
    cold, warm = (compute_bounds(2, 64, ("b1",), tmp_path)[0] for _ in range(2))
    assert repr(cold) == repr(warm) == repr(res)
    assert res.std_error_hint >= 0.0
    assert res.std_error_hint < 1e-4  # deterministic kernel: bracket width plus truncation


def test_compute_bounds_solves_each_metric_once(monkeypatch):
    # B1 and B2 share the euclidean radius, so the three rows cost one solve
    # per metric, and each row is the row that a one-id call returns
    solve, metrics = solve_r0, []

    def counted(n, m, metric):
        metrics.append(metric)
        return solve(n, m, metric)

    monkeypatch.setattr(upb.bounds, "solve_r0", counted)
    b1, b2, b3 = compute_bounds(2, 24)
    assert sorted(metrics) == ["euclidean", "riemannian"]
    assert b1.r0 == b2.r0
    monkeypatch.undo()
    for row, bound_id in zip((b1, b2, b3), BOUND_IDS, strict=True):
        single = compute_bounds(2, 24, (bound_id,))[0]
        assert dataclasses.astuple(row) == dataclasses.astuple(single), bound_id


def test_compute_bounds_checks_the_request_before_any_solve_or_cache_read(tmp_path, monkeypatch):
    # an empty id list and a cache_dir that names no directory (no path, an
    # empty one, which would be the working directory, or a bytes path) are
    # refused before the first solve and the first cache read, and nothing
    # is written
    def no_work(*args):
        raise AssertionError("the request is checked before any solve or cache read")

    monkeypatch.setattr(upb.bounds, "solve_r0", no_work)
    monkeypatch.setattr(upb.bounds, "_cache_load", no_work)
    for methods in ((), []):
        with pytest.raises(ValidationError) as info:
            compute_bounds(2, 24, methods, tmp_path)
        assert str(info.value) == "methods must name at least one of b1, b2, b3"
    class BytesPath:
        def __fspath__(self):
            return bytes(tmp_path)

    monkeypatch.chdir(tmp_path)
    for cache_dir in (5, 1.5, ["x"], "", BytesPath()):
        with pytest.raises(ValidationError) as info:
            compute_bounds(2, 24, ("b1",), cache_dir)
        assert str(info.value) == f"cache_dir must be None, a non-empty str or an os.PathLike of one, got {cache_dir!r}"
    assert list(tmp_path.iterdir()) == []


def test_compute_bounds_gives_one_row_per_distinct_id(tmp_path):
    # a repeated id keeps its first place and adds no row
    rows = compute_bounds(2, 24, ("b1", "b1", "b3"), tmp_path)
    assert [dataclasses.astuple(r) for r in rows] == [
        dataclasses.astuple(r) for r in compute_bounds(2, 24, ("b1", "b3"))
    ]
    assert [r.bound_id for r in compute_bounds(2, 24, ["b3", "b1", "b3", "b1"])] == ["b3", "b1"]


def test_solve_agrees_with_tensor_oracle():
    # the kernel's own root, bisected to 1e-10, is within 1e-7 of the
    # tensor-quadrature root; and solve_r0's r0 is within the radius error
    # that compute_bounds reports: tensor mass brackets the target there
    for n in (2, 3):
        for metric in ("euclidean", "riemannian"):
            for m in (2, 3, 24, 1000, 10**4, 10**6):
                target = total_mass(n) / m
                lo, hi = upb.bounds._bisect(
                    0.0, max_radius(n, metric), lambda r: ball_volume_fraction(n, r, metric) >= 1.0 / m, 1e-10
                )
                r0, radius_error = solve_r0(n, m, metric)
                assert radius_error - 5e-7 < 1e-7, (n, metric, m)  # the kernel's share
                for root, step in ((0.5 * (lo + hi), 1e-7), (r0, radius_error)):
                    assert tensor_mass(n, root - step, metric) <= target, (n, metric, m, step)
                    assert tensor_mass(n, root + step, metric) >= target, (n, metric, m, step)


@pytest.mark.parametrize("n", range(2, 9))
def test_std_error_is_the_slope_times_the_radius_error(n):
    # for rows below saturation, value + std_error is B at r0 + sigma_r, so
    # std_error is |dB/dr| sigma_r up to the curvature over sigma_r
    checked = 0
    for m in (4, 8, 24, 100, 1000, 10**4, 10**6):
        radii = {metric: solve_r0(n, m, metric) for metric in ("euclidean", "riemannian")}
        for res in compute_bounds(n, m):
            r0, se_r = radii[res.metric]
            if res.value + res.std_error_hint >= 1.0:
                continue  # capped at 1
            expected = bound_slope(res.bound_id, n, r0) * se_r
            assert res.std_error_hint == pytest.approx(expected, rel=1e-3), (m, res)
            checked += 1
    assert checked >= 11  # of 21 rows; more of them saturate as n grows


def test_b1_and_radius_strictly_decreasing_in_m():
    ms = [8, 16, 32, 64, 128, 256, 512, 1024]
    radii = [solve_r0(2, m, "euclidean")[0] for m in ms]
    values = [b1_of_r(2, r) for r in radii]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(a > b for a, b in zip(values, values[1:]))
