"""Property tests over the whole input range (hypothesis, derandomized)."""

import contextlib
import io
import itertools
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from upb import (
    Constellation,
    SolverConfig,
    ValidationError,
    ball_mass_error,
    ball_volume_fraction,
    compute_bounds,
    diversity_product,
    diversity_sum,
    diversity_summary,
    haar_sample,
    max_radius,
    solve_r0,
    total_mass,
)
from upb.cli import main

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
metrics = st.sampled_from(["euclidean", "riemannian"])


@PROPERTY
@given(n=st.integers(2, 6), metric=metrics, a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_fraction_in_unit_interval_and_nondecreasing(n, metric, a, b):
    rmax = max_radius(n, metric)
    lo, hi = sorted((a * rmax, b * rmax))
    f_lo, f_hi = ball_volume_fraction(n, lo, metric), ball_volume_fraction(n, hi, metric)
    assert 0.0 <= f_lo <= 1.0 and 0.0 <= f_hi <= 1.0
    slack = (ball_mass_error(n, lo, metric) + ball_mass_error(n, hi, metric)) / total_mass(n)
    assert f_lo <= f_hi + slack


@PROPERTY
@given(n=st.integers(1, 5), metric=metrics, m1=st.integers(2, 10**4), m2=st.integers(2, 10**4))
def test_r0_strictly_decreasing_in_m(n, metric, m1, m2):
    if m1 == m2:
        return
    small, large = sorted((m1, m2))
    cfg = SolverConfig(root_tol=1e-10)
    assert solve_r0(n, small, metric, cfg)[0] > solve_r0(n, large, metric, cfg)[0]


@PROPERTY
@given(n=st.integers(1, 8), m=st.integers(2, 10**5))
def test_bounds_lie_in_unit_interval(n, m):
    for res in compute_bounds(n, m):
        assert 0.0 <= res.value <= 1.0, res


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
        d = v.members[i].array - v.members[j].array
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


# values that are malformed, non-finite or out of range for some flag
ODD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1", "1e400", "", "x",
                     "1.0000000000000002", "5e-324", "1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def cli_argv(draw):
    """A well-formed bound or sweep argv, then perhaps one value made odd."""
    command = draw(st.sampled_from(["bound", "sweep"]))
    argv = [command, "--n", str(draw(st.integers(1, 5)))]
    if command == "bound":
        argv += ["--m", str(draw(st.integers(2, 64)))]
    else:
        start = draw(st.integers(2, 8))
        argv += ["--m-start", str(start), "--m-end", str(draw(st.integers(start - 1, start + 8)))]
        spacing = draw(st.sampled_from(["--m-step", "--m-factor", None]))
        if spacing == "--m-step":
            argv += [spacing, str(draw(st.integers(0, 3)))]
        elif spacing == "--m-factor":
            argv += [spacing, repr(draw(st.floats(0.5, 3.0)))]
    if draw(st.booleans()):
        argv += ["--root-tol", draw(st.sampled_from(["1e-6", "1e-3", "0.5"]))]
    if draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["all", "b1", "b3", "b1,b2", "b9", ""]))]
    if draw(st.booleans()):
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
def test_cli_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--cache-dir", cache, "--no-timestamp"])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert err.getvalue().startswith(("error: ", "numerical failure: "))

