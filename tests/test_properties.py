"""Property tests over the whole input range (hypothesis, derandomized)."""

import contextlib
import copy
import io
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import loader_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import upb
from upb import (
    Constellation,
    NumericalError,
    UpbError,
    ValidationError,
    compute_bounds,
    diversity_product,
    diversity_sum,
    diversity_summary,
    euclidean_riemannian_envelope,
    exact_delta,
    gv_lower_bound,
    haar_sample,
    load_constellation,
    max_radius,
    normalizer_estimate,
    random_search,
    riemannian_distance,
    save_constellation,
    solve_r0,
    unitarity_residual,
)
from upb import bounds, weyl
from upb.cli import main

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
metrics = st.sampled_from(["euclidean", "riemannian"])


@PROPERTY
@given(n=st.integers(2, 6), metric=metrics, a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_fraction_in_unit_interval_and_nondecreasing(n, metric, a, b):
    rmax = max_radius(n, metric)
    lo, hi = sorted((a * rmax, b * rmax))
    f_lo, e_lo, _ = weyl._fraction_and_error(n, lo, metric)
    f_hi, e_hi, _ = weyl._fraction_and_error(n, hi, metric)
    assert 0.0 <= f_lo <= 1.0 and 0.0 <= f_hi <= 1.0
    assert f_lo <= f_hi + e_lo + e_hi


@PROPERTY
@given(n=st.integers(1, 5), metric=metrics, m1=st.integers(2, 10**4), m2=st.integers(2, 10**4))
def test_r0_strictly_decreasing_in_m(n, metric, m1, m2):
    if m1 == m2:
        return
    small, large = sorted((m1, m2))
    # solve_r0's 1e-6 bracket cannot part neighbouring m where r0 is small,
    # so the strict order is checked on the kernel's own root bisected to 1e-10
    assert kernel_root(n, small, metric) > kernel_root(n, large, metric)
    assert solve_r0(n, small, metric)[0] >= solve_r0(n, large, metric)[0]


@PROPERTY
@given(n=st.integers(1, 8), m1=st.integers(2, 10**4), m2=st.integers(2, 10**4))
@example(n=2, m1=2, m2=3)  # GV is exactly 1 at m = 2
@example(n=1, m1=3, m2=4)
@example(n=5, m1=100, m2=101)
@example(n=8, m1=9999, m2=10**4)
def test_gv_lower_bound_nonincreasing_in_m(n, m1, m2):
    # m stays far below 10^12, where neighbouring radii differ by far less
    # than the radius error σ_r that GV subtracts
    small, large = sorted((m1, m2))
    assert gv_lower_bound(n, large) <= gv_lower_bound(n, small)


def kernel_root(n, m, metric):
    """Root of F(r) = 1/m for the kernel's F, bisected to width 1e-10."""
    lo, hi = bounds._bisect(
        0.0, max_radius(n, metric), lambda r: weyl.ball_volume_fraction(n, r, metric) >= 1.0 / m, 1e-10
    )
    return 0.5 * (lo + hi)


@PROPERTY
@given(n=st.integers(1, 8), m=st.integers(2, 10**5))
def test_bounds_lie_in_unit_interval(n, m):
    low = gv_lower_bound(n, m)
    for res in compute_bounds(n, m):
        assert 0.0 <= res.value <= 1.0, res
        # a row's top, not its value: at m = 2 GV is exactly 1 and B1 may round below
        assert 0.0 <= low <= res.value + res.std_error_hint, (low, res)


# every (n, m) where exact_delta knows the optimum: n = 1, m in {2, 3}, and
# n = 2 up to m = 16
exact_cases = st.one_of(
    st.tuples(st.just(1), st.integers(2, 2000)),
    st.tuples(st.integers(1, 8), st.sampled_from([2, 3])),
    st.tuples(st.just(2), st.integers(2, 16)),
)


@PROPERTY
@given(case=exact_cases)
@example(case=(1, 2))  # the closest case: B1 = 1 - 1.1e-16 at its peak, where the top is exactly 1
@example(case=(1, 3))  # exact r0: each value is within an ulp of sin(pi/3), and its top 7 ulp above
def test_bounds_dominate_exact_optima(case):
    n, m = case
    exact = exact_delta(n, m)
    assert gv_lower_bound(n, m) <= exact
    for res in compute_bounds(n, m):
        assert res.value + res.std_error_hint >= exact, res


@PROPERTY
@given(n=st.integers(1, 24), m=st.integers(2, 10**40), metric=metrics)
# without this guard the first three pass the r0/10 check at eps_F(r0) m of
# 4.5e14, 669 and 8.9e14; the last passes both checks, at 0.41
@example(n=7, m=10**30, metric="euclidean")
@example(n=16, m=10**18, metric="riemannian")
@example(n=24, m=10**30, metric="euclidean")
@example(n=5, m=10**16, metric="riemannian")
def test_solve_refuses_a_target_below_the_kernel_error(n, m, metric):
    # a radius is reported only where the kernel resolves F = 1/m: its error
    # bound at r0 is at most half the target, so the sign of F - 1/m is known
    try:
        r0, _ = solve_r0(n, m, metric)
    except NumericalError:
        return
    assert weyl._fraction_and_error(n, r0, metric)[1] * m <= 0.5, r0


def _oracle_minimum(values):
    """(min, first minimizing pair, whether the min is unique by > 1e-12)."""
    pairs = sorted(values, key=lambda pair: values[pair])  # stable: ties stay in order
    low = values[pairs[0]]
    return low, pairs[0], len(pairs) == 1 or values[pairs[1]] - low > 1e-12


@PROPERTY
@given(n=st.integers(1, 5), m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_diversity_matches_brute_force_oracle(n, m, seed):
    rng = np.random.default_rng(seed)
    v = Constellation([haar_sample(n, rng) for _ in range(m)])
    sums, prods = {}, {}
    for i, j in itertools.combinations(range(m), 2):
        d = v.members[i] - v.members[j]
        sums[i, j] = np.linalg.norm(d) / (2.0 * math.sqrt(n))
        prods[i, j] = abs(np.linalg.det(d)) ** (1.0 / n) / 2.0
    summary = diversity_summary(v)
    for got, pair, values in ((summary.diversity_sum, summary.sum_pair, sums),
                              (summary.diversity_product, summary.product_pair, prods)):
        low, first, unique = _oracle_minimum(values)
        assert math.isclose(got, low, rel_tol=1e-12)
        if unique:
            assert pair == first
    assert diversity_sum(v) == summary.diversity_sum
    assert diversity_product(v) == summary.diversity_product
    assert summary.diversity_product <= summary.diversity_sum + 1e-12


def test_ties_go_to_the_first_pair():
    # the 4th roots of unity are exact in floating point, so all four
    # neighbouring pairs tie exactly on both metrics
    v = Constellation([np.array([[z]]) for z in (1.0, 1j, -1.0, -1j)])
    summary = diversity_summary(v)
    assert summary.sum_pair == (0, 1) and summary.product_pair == (0, 1)


@PROPERTY
@given(n=st.integers(1, 4), m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12)), min_size=1, max_size=4))
def test_repeated_member_names_first_pair(n, m, seed, copies):
    rng = np.random.default_rng(seed)
    members = [haar_sample(n, rng) for _ in range(m)]
    for source, position in copies:
        members.insert(min(position, len(members)), members[source % m])
    first = next((i, j) for i, j in itertools.combinations(range(len(members)), 2)
                 if members[i] is members[j])
    with pytest.raises(ValidationError, match=rf"^matrices {first[0]} and {first[1]} are equal"):
        Constellation(members)


def structured_code(code, n, m, seed):
    """Members of U(n) that share many entries, or m Haar draws.

    "q8" is the quaternion group {±1, ±i, ±j, ±k} as 2 x 2 unitaries, and
    "cyclic" the diagonal code diag(exp(2 pi i k u / m)), u = (1, 3, 5, ...),
    k = 0 .. m-1, listed twice, so that its first duplicate is (0, m).
    """
    if code == "q8":
        one, i, j = np.eye(2), np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
        return [s * u for u in (one, i, j, i @ j) for s in (1, -1)]
    if code == "cyclic":
        u = np.arange(1, 2 * n, 2)
        return [np.diag(np.exp(2j * np.pi * k * u / m)) for k in range(m)] * 2
    return list(haar_sample(n, seed, m))


@PROPERTY
@given(code=st.sampled_from(["haar", "q8", "cyclic"]), n=st.integers(1, 4), m=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1),
       copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 24),
                                 st.sampled_from([0.0, 1e-13, 1e-12, 1.3e-12, 1e-11])), max_size=4))
@example(code="q8", n=2, m=8, seed=0, copies=[(5, 2, 0.0)])  # Q8 with a repeated member
@example(code="cyclic", n=3, m=7, seed=0, copies=[])  # a cyclic diagonal code listed twice
@example(code="cyclic", n=2, m=5, seed=0, copies=[(3, 1, 1e-13), (0, 0, 1.3e-12)])
@example(code="haar", n=2, m=6, seed=1, copies=[(2, 6, 1e-12), (4, 0, 1.3e-12), (1, 3, 1e-11)])
def test_near_copies_match_brute_force_scan(code, n, m, seed, copies):
    # planted copies, each moved by an offset in one entry, against the
    # pair-by-pair scan of max |A_i - A_j| <= 1e-12
    members = structured_code(code, n, m, seed)
    for source, position, offset in copies:
        near = np.array(members[source % len(members)], dtype=complex)
        near.flat[position % near.size] += offset * 1j**position
        members.insert(position % (len(members) + 1), near)
    first = next(((i, j) for i, j in itertools.combinations(range(len(members)), 2)
                  if np.max(np.abs(np.asarray(members[i]) - members[j])) <= 1e-12), None)
    if first is None:
        assert Constellation(members).m == len(members)
    else:
        with pytest.raises(ValidationError, match=rf"^matrices {first[0]} and {first[1]} are equal within 1e-12$"):
            Constellation(members)


ANGLES = st.sampled_from([-math.pi, math.pi - 1e-12, math.pi - 1e-9, 0.0, 1e-12, -1e-9, 0.5])


@st.composite
def unitary_pairs(draw):
    """(n, seed, angles): a Haar pair, or with angles a pair whose A*B is
    V diag(exp(i angles)) V* for a Haar V."""
    n = draw(st.integers(1, 6))
    angle = ANGLES | st.floats(-math.pi, math.pi, exclude_max=True)
    angles = draw(st.none() | st.lists(angle, min_size=n, max_size=n).map(tuple))
    return n, draw(st.integers(0, 2**32 - 1)), angles


@PROPERTY
@given(case=unitary_pairs())
@example(case=(3, 1, (0.7, 0.7, 0.7)))
@example(case=(4, 2, (-math.pi, -math.pi, 0.2, 0.2)))
@example(case=(2, 3, (math.pi - 1e-9, math.pi - 1e-9)))
@example(case=(5, 4, (1e-9, -1e-9, 0.0, 0.0, 1e-12)))
@example(case=(6, 5, (-math.pi, math.pi - 1e-12, 1e-12, 0.0, -math.pi, math.pi - 1e-12)))
def test_envelope_brackets_riemannian_distance(case):
    n, seed, angles = case
    rng = np.random.default_rng(seed)
    a = haar_sample(n, rng).array
    if angles is None:
        b = haar_sample(n, rng).array
    else:
        v = haar_sample(n, rng).array
        b = a @ (v * np.exp(1j * np.array(angles))) @ v.conj().T
    dist = riemannian_distance(a, b)
    # both envelopes increase with d, so bracket the rounding of d itself:
    # near d = 2 sqrt(n) the lower one, an arcsin near 1, turns a relative
    # error e of d into one of about sqrt(e) in the bound
    d = float(np.linalg.norm(a - b))
    lower = euclidean_riemannian_envelope(n, d * (1.0 - 1e-14))[0]
    upper = euclidean_riemannian_envelope(n, d * (1.0 + 1e-14))[1]
    assert lower - 1e-9 <= dist <= upper + 1e-9
    if angles is not None:
        assert math.isclose(dist, math.sqrt(sum(t * t for t in angles)), abs_tol=1e-9)


@PROPERTY
@given(n=st.integers(2, 10**6), t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(n=2, t=0.5**0.5)  # r = sqrt(2n), where L = pi sqrt(n)/2 < U
@example(n=10**6, t=0.5)
def test_b2_minus_b1_has_the_sign_of_the_envelope_gap(n, t):
    # with L <= U the envelope at r, raw B2 - B1 = 2 cos((U + L)/(2 sqrt(n)))
    # sin((U - L)/(2 sqrt(n))), whose sign is that of pi sqrt(n) - (U + L);
    # B1 here is the independent square-root form
    r = 2.0 * math.sqrt(n) * t
    lower, upper = euclidean_riemannian_envelope(n, r)
    diff = math.sin(upper / math.sqrt(n)) - bounds.b1_of_r(n, r)
    if abs(diff) > 1e-12:
        assert (diff > 0.0) == (math.pi * math.sqrt(n) > upper + lower), (diff, lower, upper)


def _load_outcome(load, path):
    """(label, member arrays) of a loaded file, or (exception type, message)."""
    try:
        out = load(path)
    except UpbError as exc:
        return type(exc), str(exc)
    if isinstance(out, Constellation):
        return out.label, out.members
    return out


ODD_SCALARS = [True, False, None, "1.0", 10**400, int(sys.float_info.max) + 1, 2**1024,
               sys.float_info.max, -sys.float_info.max, 1e308, math.nan, math.inf, -math.inf,
               2**64, -0.0, 0]
ODD_ENTRIES = [[], [0.0], [0.0, 1.0, 0.0], None, "1.0", 1.0, True, [[0.0, 1.0], 0.0]]
ODD_ROWS = [[], None, "row", 1.0, [[0.0, 1.0]] * 4, [[True, False]]]
ODD_MATRICES = [[], None, [[]], [[], []], "matrix", [[[1, 0]]]]


def _mutate(draw, doc):
    """One change, at one place, that may make the document malformed."""
    mats = doc["matrices"]
    k = draw(st.integers(0, len(mats) - 1))
    where = draw(st.sampled_from(["scalar", "entry", "row", "matrix", "copy", "n"]))
    if where == "n":
        doc["n"] = draw(st.sampled_from([0, True, "2", None, 4]))
    elif where == "matrix":
        mats[k] = draw(st.sampled_from(ODD_MATRICES))
    elif where == "copy":
        mats[k] = copy.deepcopy(mats[(k + 1) % len(mats)])
    elif isinstance(mats[k], list) and mats[k]:
        rows = mats[k]
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        if where == "row":
            ragged = [row[:-1], row + row[:1]] if isinstance(row, list) else []
            rows[r] = copy.deepcopy(draw(st.sampled_from(ODD_ROWS + ragged)))
        elif isinstance(row, list) and row:
            c = draw(st.integers(0, len(row) - 1))
            if where == "entry":
                row[c] = copy.deepcopy(draw(st.sampled_from(ODD_ENTRIES)))
            elif isinstance(row[c], list) and row[c]:
                row[c][draw(st.integers(0, len(row[c]) - 1))] = draw(st.sampled_from(ODD_SCALARS))


@st.composite
def constellation_documents(draw):
    """JSON text of a constellation file: Haar members, some scaled off
    U(n) by a large or a barely visible margin, or integer-valued signed
    permutations; then up to three changes that may break it."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(m):
        if draw(st.booleans()):
            u = haar_sample(n, rng).array * draw(st.sampled_from([1, 1, 2, 1 + 1e-9, 1 + 1e-12]))
            mats.append([[[float(z.real), float(z.imag)] for z in row] for row in u])
        else:
            perm, signs = rng.permutation(n), rng.choice([-1, 1], n)
            mats.append([[[int(signs[i]) if j == perm[i] else 0, 0] for j in range(n)]
                         for i in range(n)])
    doc = {"n": n, "matrices": mats}
    if draw(st.booleans()):
        doc["label"] = draw(st.sampled_from(["haar", "", 7]))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    return json.dumps(doc)


FIRST_NONUNITARY_SECOND_MALFORMED = json.dumps({"n": 1, "matrices": [[[[2, 0]]], [[[None, 0]]]]})
OVERFLOWING_MEMBER = json.dumps({"n": 2, "matrices": [
    [[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
# the loader's one numpy conversion succeeds, and its shape check sends the
# file to the per-member scan, which names matrix 0
EVERY_MEMBER_TOO_SMALL = json.dumps({"n": 2, "matrices": [[[[1, 0]]], [[[0, 1]]]]})
# the conversion fails, and the scan names matrix 1 row 1
RAGGED_LAST_MEMBER = json.dumps({"n": 2, "matrices": [
    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 1], [0, 0]], [[0, 0]]]]})


@settings(PROPERTY, max_examples=400)
@given(text=constellation_documents())
@example(text=FIRST_NONUNITARY_SECOND_MALFORMED)
@example(text=OVERFLOWING_MEMBER)
@example(text=EVERY_MEMBER_TOO_SMALL)
@example(text=RAGGED_LAST_MEMBER)
@example(text='{"n": 1, "matrices": [[[[NaN, 0]]], [[[Infinity, 0]]]]}')
@example(text='{"n": 1, "matrices": [[[[1.7976931348623157e308, 0]]], [[[1, 0]]]]}')
@example(text='{"n": 1, "matrices": [[[[1, -0.0]]], [[[-0.0, -1]]]]}')  # signed zeros kept
def test_loader_matches_per_entry_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.json"
        path.write_text(text)
        got, want = _load_outcome(load_constellation, path), _load_outcome(loader_oracle.load, path)
    if isinstance(got[0], str):
        assert got[0] == want[0] and len(got[1]) == len(want[1]), (got, want)
        for x, y in zip(got[1], want[1]):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        return
    if got != want and got[0] is ValidationError and "residual nan" in got[1]:
        # the one intended difference: a member whose unitarity residual
        # overflows to NaN, which the oracle passes on to its determinant
        # check or accepts
        idx = int(re.match(r"matrix (\d+): matrix is not unitary: residual nan > ", got[1])[1])
        member = loader_oracle.parse_matrix(json.loads(text)["matrices"][idx], idx)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(unitarity_residual(member))
        assert isinstance(want[0], str) or want[1].startswith(f"matrix {idx}: determinant modulus")
        return
    assert got == want


def seeded_draws(seed):
    """What haar_sample, random_search and normalizer_estimate draw from seed."""
    best, score = random_search(1, 4, 10, seed)
    return (haar_sample(2, seed).array.tolist(), best.members.tolist(), score,
            normalizer_estimate(2, 1000, seed))


NOT_INTEGERS = [1.5, "3", True, None]


@PROPERTY
@given(seed=st.one_of(
    st.integers(),
    st.integers(-2**200, 2**200),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.sampled_from(NOT_INTEGERS),
))
@example(seed=-1)
@example(seed=2**64)
@example(seed=np.int64(-5))
def test_every_seed_follows_one_rule(seed):
    # any integer seed draws the stream of seed mod 2^64; anything else is refused
    if any(seed is bad for bad in NOT_INTEGERS):
        for call in (lambda: haar_sample(2, seed), lambda: random_search(1, 4, 10, seed),
                     lambda: normalizer_estimate(2, 1000, seed)):
            with pytest.raises(ValidationError, match="^seed must be an integer"):
                call()
    else:
        assert seeded_draws(seed) == seeded_draws(int(seed) % 2**64)


# values that are malformed, non-finite or out of range for some flag
ODD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1", "1e400", "", "x",
                     "1.0000000000000002", "5e-324", "1e308", str(10**400), str(2**1024)]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def cli_argv(draw):
    """A well-formed bound, sweep or search argv, then perhaps one value made odd."""
    command = draw(st.sampled_from(["bound", "sweep", "search"]))
    argv = [command, "--n", str(draw(st.integers(1, 3 if command == "search" else 5)))]
    if command == "bound":
        argv += ["--m", str(draw(st.integers(2, 64)))]
    elif command == "search":
        argv += ["--m", str(draw(st.integers(2, 8))), "--trials", str(draw(st.integers(1, 50))),
                 "--objective", draw(st.sampled_from(["sum", "product"])),
                 "--seed", str(draw(st.integers(-2**70, 2**70)))]
    else:
        start = draw(st.integers(2, 8))
        argv += ["--m-start", str(start), "--m-end", str(draw(st.integers(start - 1, start + 8)))]
        spacing = draw(st.sampled_from(["--m-step", "--m-factor", None]))
        if spacing == "--m-step":
            argv += [spacing, str(draw(st.integers(0, 3)))]
        elif spacing == "--m-factor":
            argv += [spacing, repr(draw(st.floats(0.5, 3.0)))]
    if command != "search" and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["all", "b1", "b3", "b1,b2", "b9", "", "b1,b1", ",", "all,b1", "all,b9"]))]
    if draw(st.booleans()):
        # --metric is no flag of bound, sweep or search: a usage error (exit 1)
        argv += ["--metric", draw(st.sampled_from(["euclidean", "riemannian", "chordal"]))]
    if draw(st.booleans()):
        values = list(range(2, len(argv), 2))
        argv[draw(st.sampled_from(values))] = draw(ODD)
    return argv


@settings(PROPERTY, max_examples=300)
@given(argv=cli_argv())
@example(argv=["sweep", "--n", "1", "--m-start", "2", "--m-end", "4", "--m-factor", "nan"])
@example(argv=["sweep", "--n", "1", "--m-start", "2", "--m-end", "4", "--m-factor", "inf"])
@example(argv=["sweep", "--n", "1", "--m-start", "2", "--m-end", "4", "--m-factor", "1e308"])
@example(argv=["bound", "--n", str(10**400), "--m", "4"])
@example(argv=["sweep", "--n", str(10**400), "--m-start", "2", "--m-end", "3"])
@example(argv=["sweep", "--n", "2", "--m-start", "2", "--m-end", str(10**30)])
@example(argv=["search", "--n", "2", "--m", "3", "--trials", str(10**20)])
@example(argv=["search", "--n", "2", "--m", "100000", "--trials", "1"])
def test_cli_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # search's constellation file goes to --out in the temporary directory, not the checkout
        out_file = ["--out", str(Path(cache) / "best.json")] if argv[0] == "search" else []
        code = main(argv + out_file + ["--cache-dir", cache, "--no-timestamp"])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert err.getvalue().startswith(("error: ", "numerical failure: "))


# The Constellation argument of the metric functions and of
# save_constellation is duck-typed (another type raises AttributeError), and
# normalizer_estimate's samples has no work budget (10**400 would run for
# ages), so the junk sweep leaves those positions out.
JUNK_LEFT_OUT = {"chordal_packing_radius": {0}, "diversity_product": {0}, "diversity_sum": {0},
                 "diversity_summary": {0}, "save_constellation": {0}, "normalizer_estimate": {1}}


def test_junk_arguments_raise_only_package_errors(tmp_path, monkeypatch):
    # each public callable, with one argument of a small valid call at a time
    # replaced by junk, returns or raises an UpbError, never another exception
    monkeypatch.chdir(tmp_path)  # where a str path such as "a" is written
    v = Constellation(haar_sample(2, 0, 4))
    saved = tmp_path / "v.json"
    save_constellation(v, saved)
    eye = np.eye(2)
    calls = {
        "BoundResult": (2, 24, "b1", "euclidean", 1.0, 0.5, 0.0),
        "b1_of_r": (2, 1.0),
        "b2_of_r": (2, 1.0),
        "b3_of_r": (2, 1.0),
        "compute_bounds": (2, 24, ("b1", "b3"), None),
        "crossover_radius": (2,),
        "euclidean_riemannian_envelope": (2, 1.0),
        "exact_delta": (2, 8),
        "gv_lower_bound": (2, 24),
        "solve_r0": (2, 24, "euclidean"),
        "solver_key": (2, 24, "euclidean"),
        "Constellation": (list(v.members), "label"),
        "DiversitySummary": (0.5, (0, 1), 0.4, (0, 1)),
        "chordal_packing_radius": (v,),
        "diversity_product": (v,),
        "diversity_sum": (v,),
        "diversity_summary": (v,),
        "load_constellation": (saved,),
        "random_search": (2, 4, 3, 0, "product"),
        "riemannian_distance": (eye, -eye),
        "save_constellation": (v, tmp_path / "out.json"),
        **{name: ("message",) for name in ("DimensionError", "NumericalError", "ParseError", "RangeError",
                                          "UpbError", "ValidationError")},
        "UnitaryMatrix": (eye,),
        "as_complex_matrix": (eye,),
        "haar_sample": (2, 0, 3),
        "stacked_logabsdet": (np.stack([eye, -eye]),),
        "unitarity_residual": (eye,),
        "unitary_eigenangles": (eye,),
        "ball_volume_fraction": (2, 1.0, "riemannian"),
        "max_radius": (2, "euclidean"),
        "normalizer_estimate": (2, 100, 0),
        "total_mass": (2,),
        "weyl_density": ([0.1, 0.5],),
    }
    assert set(calls) == {name for name in upb.__all__ if callable(getattr(upb, name))}
    junk = [None, "a", object(), [["a", 0], [0, 1]], math.nan, -1, 10**400, [[10**400]], 1.5, [], {},
            np.ones((2, 2, 2)), tmp_path, tmp_path / "missing" / "v.json"]
    escapes = []
    for name, args in calls.items():
        call = getattr(upb, name)
        call(*args)  # the valid call itself succeeds
        for i in set(range(len(args))) - JUNK_LEFT_OUT.get(name, set()):
            for bad in junk:
                try:
                    call(*args[:i], bad, *args[i + 1:])
                except UpbError:
                    pass
                except Exception as exc:  # any other exception is what the sweep looks for
                    shown = " ".join(repr(bad).split())[:40]
                    escapes.append(f"{name} argument {i} = {shown}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)
