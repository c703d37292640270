"""Packing bounds on the diversity sum of unitary constellations.

Three upper bounds, each a function of a critical radius r0 solving the
packing equality F(r0) = 1/m for the Haar fraction F of the ball: m
disjoint balls cover at most all of U(n).

  B1  sqrt(r0^2/n - r0^4/(4 n^2))            r0 euclidean
  B2  B3 at U, the upper riemannian radius   r0 euclidean
      of the distance envelope at r0
  B3  sin(r0 / sqrt(n))                      r0 riemannian

solve_r0 is the one solve: it returns r0 with its deterministic radius
error. compute_bounds is the one path from (n, m) to bound rows: it solves
each metric once and optionally caches r0 and its error; a single row is
compute_bounds(n, m, ("b1",))[0]. b1_of_r, b2_of_r and b3_of_r are the one
way to read a bound at a given radius. Alongside sit the exact small-case
values, the euclidean/riemannian distance envelope B2 is read from, the
B1/B2 crossover radius, and the certified Gilbert-Varshamov lower bound
from one more solve.
"""

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import weyl
from .errors import NumericalError, ValidationError, _as_float, check_choice, check_int, check_real
from .weyl import METRICS, _check_kernel_n, max_radius

__all__ = [
    "BoundResult",
    "BOUND_IDS",
    "BOUND_METRIC",
    "b1_of_r",
    "b2_of_r",
    "b3_of_r",
    "compute_bounds",
    "crossover_radius",
    "euclidean_riemannian_envelope",
    "exact_delta",
    "gv_lower_bound",
    "solve_r0",
    "solver_key",
]

BOUND_IDS = ("b1", "b2", "b3")
BOUND_METRIC = {"b1": "euclidean", "b2": "euclidean", "b3": "riemannian"}

_FLOOR_SNAP = 1e-12
# crossover_radius bisects to this width relative to its bracket's top
_CROSSOVER_TOL = 1e-12
# Last field of solver_key; bump it whenever solve_r0 or the radius error
# model changes, so that no cache entry of the old algorithm is served.
_CACHE_VERSION = "v8"
# solve_r0 bisects the radius to a bracket of this width
_ROOT_WIDTH = 1e-6
# _resolved refuses a radius whose error exceeds this fraction of it
_MAX_RADIUS_ERROR = 0.1


@dataclass(frozen=True)
class BoundResult:
    n: int
    m: int
    bound_id: str
    metric: str
    r0: float
    value: float
    std_error_hint: float


def _check_size(n, m):
    """(n, m, 1/m) for a bound on m signals in U(n), checked before any work:
    RangeError above the kernel's n = 200, NumericalError where 1/m is no float."""
    n = _check_kernel_n(n)
    m = check_int(m, "m", 2)
    return n, m, 1.0 / _as_float(m, "m")


def solver_key(n, m, metric):
    """Cache key: n:m:metric:version, for a size that _check_size accepts and a known metric."""
    n, m, _ = _check_size(n, m)
    return ":".join([str(n), str(m), check_choice(metric, METRICS, "metric"), _CACHE_VERSION])


def _bisect(lo, hi, above, width):
    """Halve [lo, hi] while it is wider than width, keeping above(lo) false
    and above(hi) true, and return the final bracket.

    Raises NumericalError, naming the bracket, once the midpoint no longer
    falls strictly inside it, i.e. width is below the float resolution there.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NumericalError(
                f"bisection cannot reach width {width:g}: bracket [{lo!r}, {hi!r}] "
                "is at float resolution"
            )
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _resolved(r0, se_r, rmax):
    """Whether (r0, σ_r) is a radius record solve_r0 may return: floats, 0 < r0 < rmax, 0 <= σ_r <= r0/10."""
    return (isinstance(r0, float) and isinstance(se_r, float)
            and 0.0 < r0 < rmax and 0.0 <= se_r <= _MAX_RADIUS_ERROR * r0)


def solve_r0(n, m, metric):
    """(r0, radius error) with ball_volume_fraction(n, r0, metric) = 1/m.

    At n = 1, F is the arc length and r0 its exact inverse 2 sin(pi/(2m))
    resp. pi/m, with a radius error of 4 ulp. Otherwise r0 is the midpoint
    of a bisection of the series weyl._cdf to width _ROOT_WIDTH (at 1/m <=
    1/2 its unclamped F decides F >= 1/m as ball_volume_fraction does); the
    radius error is half that width plus the series' error bound at r0 over
    the density dF/dr there, both from the one call at r0. Raises
    NumericalError where the kernel has an error but no positive density at
    r0, where (r0, radius error) fails _resolved (an error above r0/10) or
    the kernel's error exceeds 1/(2m) (at huge m, where r0 would be noise),
    and where 1/m, or at n = 1 the euclidean r0^2, leaves the float range;
    RangeError above the kernel's n = 200.
    """
    n, m, target = _check_size(n, m)
    rmax = max_radius(n, metric)  # F(0) = 0 < 1/m, F(rmax) = 1 > 1/m
    if n == 1:
        r0 = 2.0 * math.sin(0.5 * math.pi / m) if metric == "euclidean" else math.pi / m
        if metric == "euclidean" and r0 * r0 < sys.float_info.min:  # B1 and B2 square it
            raise NumericalError(f"euclidean radius r0 = {r0:.3g} squares below the float range")
        return r0, 4.0 * math.ulp(r0)
    lo, hi = _bisect(0.0, rmax, lambda r: weyl._cdf(n, r, metric)[0] >= target, _ROOT_WIDTH)  # 0 < r < rmax
    r0 = 0.5 * (lo + hi)
    _, frac_err, slope = weyl._cdf(n, r0, metric)
    if not slope > 0.0:  # r0 lies inside (0, rmax), where frac_err is positive
        raise NumericalError(
            f"no positive density dF/dr at r0 = {r0!r} (got {slope!r}), so the "
            f"fraction's error {frac_err:.3g} cannot be carried to the radius"
        )
    se_r = 0.5 * _ROOT_WIDTH + frac_err / slope
    if not _resolved(r0, se_r, rmax):
        raise NumericalError(
            f"{metric} radius r0 = {r0:.6g} has error σ_r = {se_r:.3g} > r0/10: "
            f"m is too large for the solve to resolve F = 1/m at n={n}"
        )
    if frac_err > 0.5 * target:
        raise NumericalError(
            f"{metric} fraction F(r0) at r0 = {r0:.6g} has error {frac_err:.3g} > 1/(2m): "
            f"the target F = 1/m = {target:.3g} is below what the kernel resolves at n={n}"
        )
    return r0, se_r


def _check_radius(n, r, metric="euclidean"):
    rmax = max_radius(n, metric)
    r = check_real(r, "radius")
    if not -1e-9 <= r <= rmax * (1.0 + 1e-9):
        raise ValidationError(f"radius must lie in [0, {rmax:.6g}], got {r!r}")
    return min(max(r, 0.0), rmax)


def b1_of_r(n, r):
    """First upper-bound curve sqrt(r^2/n - r^4/(4 n^2)), capped at 1."""
    r = _check_radius(n, r)
    q = r * r / n - r**4 / (4.0 * n * n)
    return min(1.0, math.sqrt(max(q, 0.0)))


def b2_of_r(n, r):
    """Second upper-bound curve: B3 at the upper riemannian radius U of the
    distance envelope at euclidean radius r."""
    return b3_of_r(n, euclidean_riemannian_envelope(n, r)[1])


def b3_of_r(n, r):
    """Third upper-bound curve sin(r / sqrt(n)) on the riemannian radius,
    argument capped at pi/2."""
    r = _check_radius(n, r, "riemannian")
    return math.sin(min(0.5 * math.pi, r / math.sqrt(n)))


def _curve(bound_id):
    """The curve B(r) of a bound id; ValidationError for any other value."""
    return {"b1": b1_of_r, "b2": b2_of_r, "b3": b3_of_r}[check_choice(bound_id, BOUND_IDS, "bound id")]


def _cache_path(cache_dir, key):
    # named after the key; _cache_load checks the key stored inside
    return Path(cache_dir) / f"{key.replace(':', '_')}.json"


def _cache_load(path, key, rmax):
    """(r0, radius error) stored under key at path if _resolved accepts it, else None."""
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    radius = (entry.get("r0"), entry.get("radius_se"))
    return radius if _resolved(*radius, rmax) else None


def _cache_store(path, key, r0, se_r):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"key": key, "r0": r0, "radius_se": se_r}, indent=2) + "\n")
        os.replace(tmp, path)
    except OSError:
        pass  # the cache only saves time; the solve itself succeeded


def _check_cache_dir(cache_dir):
    """ValidationError unless cache_dir is None, a non-empty str or an os.PathLike of one."""
    if cache_dir is None:
        return
    try:
        name = os.fspath(cache_dir)
    except TypeError:
        name = None
    if not (isinstance(name, str) and name):  # "" would be the working directory, bytes no str path
        raise ValidationError(f"cache_dir must be None, a non-empty str or an os.PathLike of one, got {cache_dir!r}")


def compute_bounds(n, m, methods=BOUND_IDS, cache_dir=None):
    """One BoundResult per distinct id in methods, a non-empty list or tuple
    such as ("b1",), in order of first appearance. The size, every id and
    cache_dir (None, a non-empty str or an os.PathLike of one) are checked
    before the first solve or cache read.

    Each metric's r0 is solved once, with its radius error σ_r (see
    solve_r0). A row's value is B(r0); value + std_error_hint, B at r0 + σ_r
    plus 4 ulp and at most 1, bounds B over the radius interval.
    With cache_dir, r0 and its error are kept in one JSON file per
    solver_key there, and a cached metric costs no mass evaluation; a file
    whose key differs or whose record fails _resolved, the check solve_r0
    runs on its result, is re-solved and overwritten.
    """
    n, m, _ = _check_size(n, m)
    if not isinstance(methods, (list, tuple)):  # a str would be split into letters
        raise ValidationError(f"methods must be a list or tuple of bound ids such as ('b1',), got {methods!r}")
    if not methods:
        raise ValidationError(f"methods must name at least one of {', '.join(BOUND_IDS)}")
    _check_cache_dir(cache_dir)
    curves = {bound_id: _curve(bound_id) for bound_id in methods}  # a repeat keeps its first place
    radii = {}
    for metric in sorted({BOUND_METRIC[b] for b in curves}):
        key = solver_key(n, m, metric)
        path = None if cache_dir is None else _cache_path(cache_dir, key)
        radius = None if path is None else _cache_load(path, key, max_radius(n, metric))
        if radius is None:
            radius = solve_r0(n, m, metric)
            if path is not None:
                _cache_store(path, key, *radius)
        radii[metric] = radius
    results = []
    for bound_id, curve in curves.items():
        metric = BOUND_METRIC[bound_id]
        r0, se_r = radii[metric]
        value = curve(n, r0)
        # B1 rises up to sqrt(2n), above every euclidean r0; B2 and B3 up to saturation
        cap = math.sqrt(2.0 * n) if bound_id == "b1" else max_radius(n, metric)
        top = curve(n, min(r0 + se_r, cap))
        results.append(
            BoundResult(
                n=n,
                m=m,
                bound_id=bound_id,
                metric=metric,
                r0=r0,
                value=value,
                std_error_hint=min(1.0, top + 4.0 * math.ulp(top)) - value,
            )
        )
    return results


def exact_delta(n, m):
    """Exactly known diversity-sum optimum, or None where no exact value is
    published: all n at m in {2, 3}, all m for n = 1, and n = 2 up to m = 16.

    At m <= 3 and at n = 2, m <= 9 it is the simplex value
    sqrt(m / (2 (m - 1))) (Rankin 1955, Proc. Glasgow Math. Assoc. 2).
    """
    n = check_int(n, "n", 1)
    m = check_int(m, "m", 2)
    if n == 1:
        return math.sin(math.pi / _as_float(m, "m"))
    if m <= 3 or (n == 2 and m <= 9):
        return math.sqrt(m / (2.0 * (m - 1)))
    if n == 2 and m <= 16:
        return math.sqrt(2.0) / 2.0
    return None


def euclidean_riemannian_envelope(n, d):
    """(lower, upper) envelope of the riemannian distance at chordal distance d:

      2 sqrt(n) arcsin(d / (2 sqrt(n))) <= dist <= 2 sqrt(k pi^2/4 + arcsin^2 sqrt(a))

    with k = floor(d^2/4) (1e-12 snap) and a the remainder. Equality holds at
    d = 0 and d = 2 sqrt(n); lower <= upper everywhere.

    The lower envelope is ill-conditioned near d = 2 sqrt(n): a relative
    rounding e of d moves it by about 2 sqrt(n) sqrt(2e). At n = 2 with both
    eigenangles 1e-9 from pi, d rounds to 2 sqrt(2) and the lower envelope
    exceeds the true distance by 1.4e-9, so checks against it must bracket
    the rounding of d.
    """
    d = _check_radius(n, d)
    x = min(d / (2.0 * math.sqrt(n)), 1.0)
    lower = 2.0 * math.sqrt(n) * math.asin(x)
    q = d * d / 4.0
    k = math.floor(q + _FLOOR_SNAP)
    alpha = min(max(q - k, 0.0), 1.0)
    upper = 2.0 * math.sqrt(k * math.pi**2 / 4.0 + math.asin(math.sqrt(alpha)) ** 2)
    return lower, upper


def crossover_radius(n):
    """Radius r* where the raw B2 curve crosses B1, for n >= 2.

    With L <= U the envelope's radii at r, B1 = sin(L / sqrt(n)) and raw
    B2 = sin(U / sqrt(n)), so

      B2 - B1 = 2 cos((U + L) / (2 sqrt(n))) sin((U - L) / (2 sqrt(n)))

    has the sign of pi sqrt(n) - (U + L). U + L strictly increases in r, so
    r* is the single root of U + L = pi sqrt(n): raw B2 lies above B1 below
    r* and below it above. At r = sqrt(2n), L = pi sqrt(n) / 2 < U, so one
    bisection of (0, sqrt(2n)) finds it.
    """
    n = check_int(n, "n", 2)
    hi = math.sqrt(_as_float(2 * n, "2n")) * (1.0 - 1e-12)
    lo = hi * 1e-6
    lo, hi = _bisect(lo, hi, lambda r: sum(euclidean_riemannian_envelope(n, r)) >= math.pi * math.sqrt(n),
                     _CROSSOVER_TOL * hi)
    return 0.5 * (lo + hi)


def gv_lower_bound(n, m):
    """Certified lower bound on the best diversity sum of m signals in U(n).

    Gilbert-Varshamov, with F(r) = 1/(m - 1) for the euclidean Haar fraction
    F: while (m - 1) F(d) < 1, the chordal d-balls around any m - 1 points
    leave part of U(n) uncovered. So a greedy m-th point exists at distance
    > d from all of them, for every d < r, and the best diversity sum is at
    least r / (2 sqrt(n)). With (r, radius error) from
    solve_r0(n, m - 1, "euclidean"), r - error is below the root, and the
    value is max(0, (r - error) / (2 sqrt(n))). At m = 2 it is exactly 1,
    from the pair I, -I.
    """
    n, m, _ = _check_size(n, m)
    if m == 2:
        return 1.0
    r, se_r = solve_r0(n, m - 1, "euclidean")
    return max(0.0, (r - se_r) / (2.0 * math.sqrt(n)))
